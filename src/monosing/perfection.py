"""Minimal annihilators, perfect pairs, perfect paths, and the classification
of indecomposable non-projective Gorenstein projective modules.

For a nonzero nontrivial path p, L(p) collects the right-minimal paths among
the nonzero q with s(q) = t(p) and qp = 0, and R(p) the left-minimal paths
among the nonzero q with t(q) = s(p) and pq = 0.  Minimality is taken
relative to the candidate set: a candidate is discarded when a proper factor
on the relevant side is itself a candidate.

Both sets are read off the minimal relations F.  For nonzero p and q the
product pq is zero exactly when some relation w in F straddles the junction:
w = w[:k] w[k:] with 1 <= k < len(w), w[:k] a tail of p's composition word
(its first-traversed end) and w[k:] a head of q's (its last-traversed end).
Both halves are nonzero because F is minimal, so a left-minimal q is exactly
such a right half w[k:], and R(p) is the set of those halves with no proper
left factor among them.  L(p) is the mirror image: the left halves w[:k]
whose right half is a head of p, with no proper right factor among them.

One table per presentation holds R for every left half of the splits and L
for every right half, built in order of word length by the failure
recursion of Aho and Corasick (CACM 18, 1975).  The failure fail(p) of a
left half p is its longest proper tail that is itself a left half; every
shorter such tail is a tail of fail(p), so the candidates of p are its own
halves right[p] and those of fail(p), and

    R(p) = right[p] ∪ {y in R(fail p) : no member of right[p] is a head of y}.

Own halves are never dropped: if x = w[k:] with w = p x in F had a proper
head x' among the candidates, the relation s x' with s a tail of p would
be a proper factor of w, against the minimality of F.  A candidate of
fail(p) that is not in R(fail p) has a proper head there, so it stays out.
L mirrors the rule with heads and tails swapped.  Any nonzero nontrivial p
has the candidates of its longest tail that is a left half, so R(p) is read
at that key, and is empty when p has no such tail.

A pair (p, q) is perfect when both are nontrivial, pq = 0, R(p) = {q} and
L(q) = {p}; ``perfect_pairs`` reads the singletons off the table.  The
partial successor map p -> q is then injective in both directions and its
cycles are exactly the perfect paths; the module over the cyclic generator
classifies the stable Gorenstein projectives.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InternalInvariantViolation, TrivialPath, ZeroPath
from .presentation import memoized, successor_cycles


def annihilator_minimal(pres, p, side):
    """L(p) (side="left") or R(p) (side="right"), canonically sorted.

    Every candidate for R(p) comes from a tail of p's word that is a left
    half of a relation split, and each such tail is a tail of the longest
    one, so R(p) is the table's entry at p's longest tail that is a left
    half, and empty when there is none.  L(p) is the mirror image, at the
    longest head of p that is a right half.
    """
    if p.is_trivial:
        raise TrivialPath(f"{p} is trivial")
    if not pres.is_nonzero(p):
        raise ZeroPath(f"{p} is zero in the algebra")
    rank = pres.basis().rank  # raises InfiniteDimensional, as every basis-backed query does
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    table = _minimal_halves_table(pres)[side]
    word = p.arrows
    halves = ()
    for k in range(len(word), 0, -1):
        # the part of the word a straddling relation covers: a tail for R, a head for L
        hit = table.get(word[-k:] if side == "right" else word[:k])
        if hit is not None:
            halves = hit
            break
    paths = [pres.quiver.subword_path(q) for q in halves]
    paths.sort(key=rank.__getitem__)
    return paths


def _relation_splits(pres):
    """Both halves of every split w = w[:k] w[k:] of every minimal relation.

    ``["right"]`` maps a left half w[:k] to the right halves completing it to
    a relation, and ``["left"]`` maps a right half w[k:] to the left halves.
    F is minimal, so both halves of a split are nonzero paths.
    """
    right, left = {}, {}
    for f in pres.minimal:
        w = f.arrows
        for k in range(1, len(w)):
            right.setdefault(w[:k], []).append(w[k:])
            left.setdefault(w[k:], []).append(w[:k])
    return {"right": right, "left": left}


@memoized
def _minimal_halves_table(pres):
    """R of every left half and L of every right half of the relation splits.

    ``["right"]`` maps each left half p to R(p) and ``["left"]`` each right
    half q to L(q), as unsorted arrow words: the split index of
    ``_relation_splits``, with each entry replaced in order of word length
    by the failure recursion of the module docstring.
    """
    splits = _relation_splits(pres)
    for side, index in splits.items():
        _minimize(index, side == "right")
    return splits


def _minimize(index, right):
    """Replace each entry of a split index by its minimal halves, in place.

    With ``right`` the index maps left halves and its entries become R,
    otherwise it maps right halves and they become L.  Keys are taken in order
    of length, so a key's failure, its longest proper tail (for R) or head
    (for L) that is a key, has its entry already minimal; the key keeps its
    own halves and every inherited one of which no own half is a head (for
    R) or tail (for L).
    """
    for word, own in sorted(index.items(), key=lambda item: len(item[0])):
        inherited = None
        for i in range(1, len(word)):
            inherited = index.get(word[i:] if right else word[:-i])
            if inherited is not None:
                break
        if inherited:
            if right:
                own = own + [y for y in inherited if all(y[:len(x)] != x for x in own)]
            else:
                own = own + [y for y in inherited if all(y[-len(x):] != x for x in own)]
        index[word] = own


@memoized
def perfect_pairs(pres):
    """All perfect pairs (p, q), canonically sorted by p.

    Only the left halves of the relation splits are tried, as arrow words;
    Paths are built for the kept pairs alone.  If (p, q) is perfect, pq is a
    minimal relation: q lies in R(p), so some split w = w[:k] q has w[:k] a
    tail of p; w[:k] is then a candidate for L(q) and a right factor of p,
    and p, right-minimal in L(q), equals it.  Both halves of a split are
    nonzero and nontrivial, so R and L are read off the table with no path
    checks, and a singleton R(p) = {q} is a right half, so L(q) is in it.
    """
    rank = pres.basis().rank  # raises InfiniteDimensional, also when there is no relation
    quiver = pres.quiver
    table = _minimal_halves_table(pres)
    lefts = table["left"]
    pairs = []
    for p, r in table["right"].items():
        if len(r) == 1 and lefts[r[0]] == [p]:
            pairs.append((quiver.subword_path(p), quiver.subword_path(r[0])))
    pairs.sort(key=lambda pair: rank[pair[0]])
    seen_left = set()
    seen_right = set()
    for p, q in pairs:
        if p in seen_left or q in seen_right:
            raise InternalInvariantViolation("perfect-pair successor is not a partial injection")
        seen_left.add(p)
        seen_right.add(q)
    return pairs


@dataclass
class PerfectPairGraph:
    """The successor map p -> q over perfect pairs and its cycles."""

    pairs: list
    successor: dict
    cycles: list  # list of tuples of Paths, each rotated to its least member

    def __post_init__(self):
        self._cycle_of = {p: cyc for cyc in self.cycles for p in cyc}
        self._perfect = frozenset(self._cycle_of)

    def perfect_set(self):
        return self._perfect

    def cycle_of(self, p):
        return self._cycle_of.get(p)


@memoized
def perfect_paths(pres):
    """The PerfectPairGraph; perfect paths are the successor-cycle members."""
    pairs = perfect_pairs(pres)
    successor = {p: q for p, q in pairs}
    key = pres.basis().rank.__getitem__
    cycles = [_rotate_to_least(c, key)
              for c in successor_cycles(sorted(successor, key=key), successor)]
    cycles.sort(key=lambda c: key(c[0]))
    return PerfectPairGraph(pairs=pairs, successor=successor, cycles=cycles)


def _rotate_to_least(cycle, key):
    i = min(range(len(cycle)), key=lambda j: key(cycle[j]))
    return tuple(cycle[i:] + cycle[:i])


class GpModuleDescriptor:
    """The cyclic module over a perfect path: generator, the nonzero entries
    of its dimension vector, top, and its sorted basis and full dimension
    vector, each built when first read."""

    def __init__(self, pres, generator):
        self.generator = generator  # Path
        self._pres = pres
        # one basis path q'p per word q' of p's survivor key, at t(q')
        target = pres.quiver.target
        counts = {}
        for w in pres.survivor_key(generator)[1]:
            v = target(w[0]) if w else generator.target
            counts[v] = counts.get(v, 0) + 1
        # the nonzero entries of the dimension vector, in vertex order
        self.nonzero_dims = {v: counts[v] for v in sorted(counts, key=pres.quiver.vertex_index)}

    @functools.cached_property
    def dim_vector(self):
        """The dimension vector over every vertex, in vertex order."""
        vec = self._pres.quiver.zero_dims()
        vec.update(self.nonzero_dims)
        return vec

    @functools.cached_property
    def basis(self):
        return self._pres.cyclic_module_basis(self.generator)[0]

    @property
    def top_vertex(self):
        return self.generator.target

    @property
    def total_dimension(self):
        return sum(self.nonzero_dims.values())


def classify_stable_gproj(pres):
    """One descriptor per perfect path; the count is the CM-type.

    The classification sends a perfect path p to the cyclic module on p;
    every descriptor is non-projective with simple top at t(p).
    """
    graph = perfect_paths(pres)
    out = []
    for p in sorted(graph.perfect_set(), key=pres.basis().rank.__getitem__):
        if pres.key_is_projective(pres.survivor_key(p)):
            raise InternalInvariantViolation(f"perfect path {p} generates a projective module")
        out.append(GpModuleDescriptor(pres, p))
    return out


def cm_type(pres):
    return len(perfect_paths(pres).perfect_set())


def perfection_to_json(pres):
    """The documented JSON report for pairs, cycles and GP modules."""
    graph = perfect_paths(pres)
    descriptors = classify_stable_gproj(pres)
    return {
        "perfect_pairs": [[str(p), str(q)] for p, q in graph.pairs],
        "cycles": [[str(p) for p in cyc] for cyc in graph.cycles],
        "gp_modules": [
            {
                "generator": str(d.generator),
                "dim_vector": dict(d.nonzero_dims),
                "basis": [str(q) for q in d.basis],
                "top": d.top_vertex,
            }
            for d in descriptors
        ],
        "cm_type": len(descriptors),
    }
