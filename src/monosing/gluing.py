"""Vertex gluing along an involution, the finite-dimensionality chain test,
the bar quiver, and the singularity-equivalence report.

Gluing keeps the arrow set and relation words and merges each vertex pair
{x, E(x)}; the merged vertex is named after the lexicographically smaller
member with a trailing '~'.  The glued algebra is finite-dimensional iff no
cyclic chain of nontrivial nonzero paths p_m, ..., p_1 exists with t(p_i)
glued to s(p_{i+1}) at a genuinely merged vertex; the chain search runs on a
digraph over the merged vertices, with path existence read off the basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InfiniteDimensional, InternalInvariantViolation, MonosingError
from .gorenstein import is_one_gorenstein, singularity_decomposition
from .oracle import injective_dimension_profile
from .perfection import perfect_paths
from .presentation import Arrow, MonomialPresentation, Quiver, find_cycle


class Involution:
    """A self-inverse map on the vertex set; pairs may be given partially."""

    def __init__(self, vertices, mapping):
        self.mapping = {v: mapping.get(v, v) for v in vertices}
        vset = set(vertices)
        for v, w in self.mapping.items():
            if w not in vset:
                raise MonosingError(f"involution sends {v!r} to unknown vertex {w!r}")
            if self.mapping[w] != v:
                raise MonosingError(f"not an involution: E(E({v!r})) = {self.mapping[w]!r}")

    @classmethod
    def from_pairs(cls, vertices, pairs):
        mapping = {}
        for x, y in pairs:
            if x in mapping or y in mapping:
                raise MonosingError(f"vertex repeated across involution pairs: ({x},{y})")
            mapping[x] = y
            mapping[y] = x
        return cls(vertices, mapping)

    def __call__(self, v):
        return self.mapping[v]

    def moved_pairs(self):
        """The nontrivial pairs (x, E(x)) with x the lexicographically smaller."""
        out = []
        for v, w in self.mapping.items():
            if v < w:
                out.append((v, w))
        return sorted(out)

    def is_identity(self):
        return all(v == w for v, w in self.mapping.items())


def _merged_names(pres, E):
    taken = set(pres.quiver.vertices)
    name_of = {}
    new_vertices = []
    for v in pres.quiver.vertices:
        if v in name_of:
            continue
        w = E(v)
        if w == v:
            name_of[v] = v
            new_vertices.append(v)
        else:
            name = min(v, w) + "~"
            while name in taken:
                name += "~"
            taken.add(name)
            name_of[v] = name_of[w] = name
            new_vertices.append(name)
    return name_of, new_vertices


def glue_is_finite_dimensional(pres, E):
    """The chain criterion; returns (finite, witness chain of paths or None).

    A cyclic chain needs each segment to be a nontrivial nonzero path ending
    at a moved vertex whose partner starts the next segment; equivalently the
    digraph on moved vertices with an edge x -> y whenever a nontrivial
    nonzero path runs from E(x) to y has a cycle.
    """
    basis = pres.basis()
    moved = [v for v in pres.quiver.vertices if E(v) != v]
    order = {v: i for i, v in enumerate(moved)}
    shortest = {}  # (x, y) -> the first segment from E(x) to y in basis order
    for p in basis.nontrivial():
        if p.source in order and p.target in order:
            shortest.setdefault((E(p.source), p.target), p)
    edges = {x: [] for x in moved}
    for (x, y), seg in sorted(shortest.items(), key=lambda item: order[item[0][1]]):
        edges[x].append((seg, y))
    chain, _ = find_cycle(moved, edges.__getitem__)
    return chain is None, chain


def glue(pres, E, validate=True):
    """The glued presentation; raises InfiniteDimensional with a chain witness.

    ``validate=False`` skips both finiteness checks and returns the raw glued
    presentation (used to cross-examine the chain test against the automaton).
    """
    if validate:
        finite, chain = glue_is_finite_dimensional(pres, E)
        if not finite:
            raise InfiniteDimensional(
                "gluing produces nonzero paths of unbounded length; witness chain: "
                + ", ".join(str(p) for p in chain),
                witness=chain,
            )
    name_of, new_vertices = _merged_names(pres, E)
    arrows = [Arrow(a.name, name_of[a.source], name_of[a.target]) for a in pres.quiver.arrows]
    quiver = Quiver(new_vertices, arrows)
    gens = [quiver.subword_path(g.arrows) for g in pres.generators]
    glued = MonomialPresentation(quiver, gens)
    if validate and not glued.is_finite_dimensional():
        raise InternalInvariantViolation(
            "chain test passed but the glued automaton found a pumpable cycle"
        )
    return glued


def bar_presentation(pres, E):
    """Original quiver plus one bridging arrow x -> E(x) per merged pair."""
    finite, chain = glue_is_finite_dimensional(pres, E)
    if not finite:
        raise InfiniteDimensional(
            "bar quiver requires the glued algebra to be finite-dimensional",
            witness=chain,
        )
    arrows = list(pres.quiver.arrows)
    names = {a.name for a in arrows}
    for x, w in E.moved_pairs():
        name = f"{x}~{w}"
        while name in names:
            name += "~"
        names.add(name)
        arrows.append(Arrow(name, x, w))
    quiver = Quiver(pres.quiver.vertices, arrows)
    gens = [quiver.subword_path(g.arrows) for g in pres.generators]
    return MonomialPresentation(quiver, gens)


@dataclass
class GluingReport:
    original: dict
    glued: dict
    agreement: dict = field(default_factory=dict)

    def all_flags(self):
        return all(v for v in self.agreement.values() if v is not None)

    def to_json(self):
        return {"S": self.original, "S_E": self.glued, "agreement": self.agreement}


def _side_info(pres):
    info = {"dimension": pres.dimension()}
    graph = perfect_paths(pres)
    info["perfect_paths"] = len(graph.perfect_set())
    verdict = is_one_gorenstein(pres)
    info["one_gorenstein"] = verdict.verdict
    if verdict:
        info["orbit_descriptors"] = sorted(
            (d.rank, d.period) for d in singularity_decomposition(pres)
        )
    else:
        info["orbit_descriptors"] = None
    prof = injective_dimension_profile(pres)
    info["oracle_gorenstein"] = prof.gorenstein
    info["oracle_level"] = prof.level
    return info


def equivalence_report(pres, E):
    """Invariant comparison of S and S_E licensed by singularity equivalence.

    When both sides are 1-Gorenstein their orbit-descriptor multisets and
    perfect-path counts must agree; the oracle Gorenstein verdicts must agree.
    """
    glued = glue(pres, E)
    s = _side_info(pres)
    se = _side_info(glued)
    agreement = {}
    if s["one_gorenstein"] and se["one_gorenstein"]:
        agreement["orbit_multiset"] = s["orbit_descriptors"] == se["orbit_descriptors"]
        agreement["gp_count"] = s["perfect_paths"] == se["perfect_paths"]
    else:
        agreement["orbit_multiset"] = None
        agreement["gp_count"] = None
    agreement["gorenstein"] = s["oracle_gorenstein"] == se["oracle_gorenstein"]
    return GluingReport(original=s, glued=se, agreement=agreement)
