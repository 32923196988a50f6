"""Arrow-length grading: truncations of the shifted regular module, the
syzygy of the tilting candidate, perfect reduction of cyclic modules, and the
type-A quiver of the graded singularity category.

The algebra is positively graded with every arrow in degree one.  The tilting
candidate is the sum over 0 <= i <= l of the degree-<=0 truncations of the
shifted regular module, where l is the longest nonzero path length.  Its
minimal syzygy decomposes, one summand per nonzero path p of length i + 1
starting at each vertex, as the cyclic module on p shifted so that its top
sits in degree one: the kernel of the cover of a truncation is spanned by the
paths longer than i, and each such path factors uniquely through its
length-(i+1) prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegreeOutOfRange,
    InternalInvariantViolation,
    NotAChain,
    NotOneGorenstein,
    ZeroPath,
)
from .gorenstein import is_one_gorenstein
from .oracle import global_dimension, injective_dimension_profile
from .perfection import annihilator_minimal, perfect_paths


def top_degree(pres):
    """l with A = A_{<=l}: the longest nonzero path length."""
    return pres.basis().max_length()


def truncation_summands(pres, i):
    """Degree-wise basis of the degree-<=0 truncation of A(i), per vertex.

    For each vertex v the nonzero paths from v of length <= i survive, a path
    of length d sitting in degree d - i.
    """
    l = top_degree(pres)
    if i < 0 or i > l:
        raise DegreeOutOfRange(f"truncation index {i} outside [0, {l}]")
    basis = pres.basis()
    return {
        v: [(p, p.length - i) for p in basis.from_vertex(v) if p.length <= i]
        for v in pres.quiver.vertices
    }


def syzygy_of_T(pres):
    """Generators of the summands of the minimal syzygy of the truncation
    sum T.

    Truncation index i contributes, per vertex v, one summand per nonzero
    path of length i + 1 from v; every nontrivial nonzero path p thus
    generates exactly one summand, the cyclic module on p with grade shift
    -1: basis path q'p sits in degree l(q') + 1, its top in degree one.
    """
    return pres.basis().nontrivial()


def basic_syzygy_summands(pres):
    """Syzygy-of-T generators with projectives dropped and duplicates
    merged: the first path of each path class."""
    return list(pres.path_classes().values())


@dataclass(frozen=True)
class Reduction:
    kind: str  # "perfect" | "projective"
    path: object = None

    @property
    def is_projective(self):
        return self.kind == "projective"


def perfect_reduction(pres, p):
    """The perfect path presenting the same module as Ap, or Projective.

    Over a 1-Gorenstein presentation every cyclic path module is Gorenstein
    projective; when some path annihilates p on the left, picking q in L(p)
    and the member of R(q) that is a left factor of p yields an isomorphic
    cyclic module on a perfect path.
    """
    verdict = is_one_gorenstein(pres)
    if not verdict:
        raise NotOneGorenstein("perfect reduction needs a 1-Gorenstein presentation")
    if not pres.is_nonzero(p):
        raise ZeroPath(f"{p} is zero in the algebra")
    if p.is_trivial:
        return Reduction("projective")
    lset = annihilator_minimal(pres, p, "left")
    if not lset:
        return Reduction("projective")
    q = lset[0]
    perfect = perfect_paths(pres).perfect_set()
    for cand in annihilator_minimal(pres, q, "right"):
        if cand.length <= p.length and p.arrows[: cand.length] == cand.arrows:
            if cand not in perfect:
                raise InternalInvariantViolation(
                    f"reduction of {p} reached {cand}, which is not perfect"
                )
            return Reduction("perfect", cand)
    raise InternalInvariantViolation(f"no member of R({q}) is a left factor of {p}")


@dataclass
class TypeAQuiver:
    """Disjoint linear chains of perfect paths, increasing along arrows."""

    chains: list  # list of tuples of Paths

    def component_ranks(self):
        return sorted((len(c) for c in self.chains), reverse=True)

    def vertex_count(self):
        return sum(len(c) for c in self.chains)


def type_a_quiver(pres):
    """Order the perfect paths by the left-factor relation into chains.

    Two perfect paths are comparable exactly when they share their final
    arrow (the longer one then ends with the shorter); grouping by that arrow
    and sorting by length must produce total chains, or NotAChain is raised.
    """
    verdict = is_one_gorenstein(pres)
    if not verdict:
        raise NotOneGorenstein("the type-A quiver needs a 1-Gorenstein presentation")
    graph = perfect_paths(pres)
    key = pres.basis().rank.__getitem__
    groups = {}
    for p in sorted(graph.perfect_set(), key=key):
        groups.setdefault(p.arrows[0], []).append(p)
    chains = []
    for a in sorted(groups, key=pres.quiver.arrow_index):
        chain = sorted(groups[a], key=lambda p: p.length)
        for u, w in zip(chain, chain[1:]):
            if w.length == u.length or w.arrows[: u.length] != u.arrows:
                raise NotAChain(
                    f"perfect paths {u} and {w} share final arrow {a} but are incomparable"
                )
        chains.append(tuple(chain))
    chains.sort(key=lambda c: key(c[0]))
    return TypeAQuiver(chains=chains)


def graded_singularity_description(pres):
    """Report on the graded singularity category.

    1-Gorenstein inputs get the explicit type-A chain quiver; other Gorenstein
    inputs the existence statement; finite global dimension trumps both with
    the trivial category; anything else is reported non-Gorenstein.
    """
    out = {"omega_T": [
        {"path": str(p), "shift": -1, "multiplicity": 1} for p in syzygy_of_T(pres)
    ]}
    prof = injective_dimension_profile(pres)
    out["oracle"] = prof.to_json()
    verdict = is_one_gorenstein(pres)
    out["one_gorenstein"] = verdict.verdict
    if verdict:
        qb = type_a_quiver(pres)
        out["QB"] = {"chains": [[str(p) for p in c] for c in qb.chains]}
        if qb.chains:
            comps = " x ".join(f"A_{len(c)}" for c in qb.chains)
            out["graded_singularity"] = f"D^b(mod B^op), B = k({comps})"
        else:
            out["graded_singularity"] = "trivial (finite global dimension)"
        return out
    gldim = global_dimension(pres)
    if gldim is not None:
        out["graded_singularity"] = "trivial (finite global dimension)"
        out["global_dimension"] = gldim
    elif prof.gorenstein:
        out["graded_singularity"] = (
            "has a tilting object; equivalent to D^b(mod H) for a hereditary "
            "algebra H of finite representation type"
        )
    else:
        out["graded_singularity"] = "not Gorenstein (no tilting statement applies)"
    return out
