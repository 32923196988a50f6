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

A pair (p, q) is perfect when both are nontrivial, pq = 0, R(p) = {q} and
L(q) = {p}; ``perfect_pairs`` tests this on the arrow words of the splits.  The partial successor map p -> q is then injective in both
directions and its cycles are exactly the perfect paths; the module over the
cyclic generator classifies the stable Gorenstein projectives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantViolation, TrivialPath, ZeroPath
from .presentation import memoized, successor_cycles


def annihilator_minimal(pres, p, side):
    """L(p) (side="left") or R(p) (side="right"), canonically sorted.

    Read off the relation splits: the candidates for R(p) are the right
    halves w[k:] whose left half w[:k] is a tail of p's word, and a candidate
    is dropped when one of its proper left factors is also a candidate.  L(p)
    is the mirror image.
    """
    if p.is_trivial:
        raise TrivialPath(f"{p} is trivial")
    if not pres.is_nonzero(p):
        raise ZeroPath(f"{p} is zero in the algebra")
    pres.basis()  # raises InfiniteDimensional, as every basis-backed query does
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    paths = [pres.quiver.subword_path(q) for q in _minimal_halves(pres, p.arrows, side)]
    paths.sort(key=pres.quiver.sort_key)
    return paths


def _minimal_halves(pres, word, side):
    """R (side="right") or L of a nonzero ``word``, as unsorted arrow words."""
    far_half = _relation_splits(pres)[side]
    cands = set()
    for k in range(1, len(word) + 1):
        # the part of the word a straddling relation covers: a tail for R, a head for L
        near = word[-k:] if side == "right" else word[:k]
        cands.update(far_half.get(near, ()))
    if side == "right":
        return [q for q in cands if not any(q[:i] in cands for i in range(1, len(q)))]
    return [q for q in cands if not any(q[i:] in cands for i in range(1, len(q)))]


@memoized
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
def perfect_pairs(pres):
    """All perfect pairs (p, q), canonically sorted by p.

    Only the left halves of the relation splits are tried, as arrow words;
    Paths are built for the kept pairs alone.  If (p, q) is perfect, pq is a
    minimal relation: q lies in R(p), so some split w = w[:k] q has w[:k] a
    tail of p; w[:k] is then a candidate for L(q) and a right factor of p,
    and p, right-minimal in L(q), equals it.  Both halves of a split are
    nonzero and nontrivial, so R and L are read off with no path checks.
    """
    pres.basis()  # raises InfiniteDimensional, also when there is no relation
    quiver = pres.quiver
    pairs = []
    for p in _relation_splits(pres)["right"]:
        r = _minimal_halves(pres, p, "right")
        if len(r) == 1 and _minimal_halves(pres, r[0], "left") == [p]:
            pairs.append((quiver.subword_path(p), quiver.subword_path(r[0])))
    pairs.sort(key=lambda pair: quiver.sort_key(pair[0]))
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
    key = pres.quiver.sort_key
    cycles = [_rotate_to_least(c, key)
              for c in successor_cycles(sorted(successor, key=key), successor)]
    cycles.sort(key=lambda c: key(c[0]))
    return PerfectPairGraph(pairs=pairs, successor=successor, cycles=cycles)


def _rotate_to_least(cycle, key):
    i = min(range(len(cycle)), key=lambda j: key(cycle[j]))
    return tuple(cycle[i:] + cycle[:i])


@dataclass
class GpModuleDescriptor:
    """The cyclic module over a perfect path: basis, dimension vector, top."""

    generator: object  # Path
    basis: list
    dim_vector: dict

    @property
    def top_vertex(self):
        return self.generator.target

    @property
    def total_dimension(self):
        return sum(self.dim_vector.values())


def classify_stable_gproj(pres):
    """One descriptor per perfect path; the count is the CM-type.

    The classification sends a perfect path p to the cyclic module on p;
    every descriptor is non-projective with simple top at t(p).
    """
    graph = perfect_paths(pres)
    out = []
    for p in sorted(graph.perfect_set(), key=pres.quiver.sort_key):
        if pres.key_is_projective(pres.survivor_key(p)):
            raise InternalInvariantViolation(f"perfect path {p} generates a projective module")
        basis, vec = pres.cyclic_module_basis(p)
        out.append(GpModuleDescriptor(generator=p, basis=basis, dim_vector=vec))
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
                "dim_vector": {v: n for v, n in d.dim_vector.items() if n},
                "basis": [str(q) for q in d.basis],
                "top": d.top_vertex,
            }
            for d in descriptors
        ],
        "cm_type": len(descriptors),
    }
