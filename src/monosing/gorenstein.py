"""The 1-Gorenstein test, relation cycles with their invariants, cycle
subalgebras, and the orbit-category decomposition of the singularity category.

An algebra is 1-Gorenstein iff every nontrivial left factor p of a minimal
relation f = p q is a perfect path.  When that holds, concatenating the
members of each successor cycle yields a power of a primitive repetition-free
arrow cycle c; distinct successor cycles can share the same c and are merged.
Each c carries the cycle length n and the uniform relation length r (the
constant value of consecutive perfect-path length sums), every cyclic window
of r arrows along c lies in F, and no arrow lies on two distinct cycles.  As c
repeats no arrow, each cycle is read by position: its canonical rotation ends
at its arrow of least index, and a member can only be the window that starts
at the one position of its first arrow, so the scan is linear in n.  The
singularity category is then the disjoint union over cycles of the orbit
category of type A_{r-1} under the n-th power of the AR translate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalInvariantViolation, NotOneGorenstein
from .oracle import injective_dimension_profile
from .perfection import perfect_paths
from .presentation import MonomialPresentation, Quiver, memoized, successor_cycles


@dataclass
class OneGorensteinVerdict:
    verdict: bool
    # verdict True: left factor -> its successor cycle (tuple of paths)
    # verdict False: one failing factorization
    witnesses: dict = field(default_factory=dict)
    failing: tuple = None  # (relation f, left factor p, right factor q)

    def __bool__(self):
        return self.verdict


@memoized
def is_one_gorenstein(pres):
    """Check that every nontrivial left factor of an F-element is perfect."""
    graph = perfect_paths(pres)
    perfect = graph.perfect_set()
    witnesses = {}
    verdict = None
    for f in sorted(pres.minimal, key=pres.quiver.sort_key):
        for i in range(1, f.length):
            p = pres.quiver.subword_path(f.arrows[:i])
            if p not in perfect:
                q = pres.quiver.subword_path(f.arrows[i:])
                verdict = OneGorensteinVerdict(False, failing=(f, p, q))
                break
            witnesses[p] = graph.cycle_of(p)
        if verdict is not None:
            break
    if verdict is None:
        verdict = OneGorensteinVerdict(True, witnesses=witnesses)
    return verdict


@dataclass(frozen=True)
class RelationCycle:
    """A repetition-free arrow cycle whose r-windows are all relations."""

    arrows: tuple  # composition-order cyclic word
    n: int  # number of arrows
    r: int  # uniform relation length
    members: tuple  # perfect paths along the cycle, canonically sorted

    @property
    def rank(self):
        return self.r - 1

    def traversal(self):
        return tuple(reversed(self.arrows))

    def __str__(self):
        return "·".join(self.traversal())


@dataclass(frozen=True)
class OrbitCategoryDescriptor:
    rank: int  # Dynkin type A_rank
    period: int  # power of the AR translate

    def __str__(self):
        return f"D^b(A_{self.rank})/[tau^{self.period}]"


@memoized
def relation_cycles(pres):
    """The relation cycles of a 1-Gorenstein presentation, as a tuple.

    Raises NotOneGorenstein otherwise, on every call, and
    InternalInvariantViolation whenever one of the guaranteed structural laws
    fails (uniform relation length, repetition-freeness, window membership in
    F, arrow disjointness).  A primitive word that repeats an arrow is refused
    before it is rotated, so each arrow has one position on its cycle: the
    canonical rotation ends at the arrow of least index, and each member is
    checked only at the position of its first arrow.
    """
    verdict = is_one_gorenstein(pres)
    if not verdict:
        f, p, q = verdict.failing
        raise NotOneGorenstein(
            f"not 1-Gorenstein: relation {f} factors as ({p})({q}) with {p} not perfect"
        )
    graph = perfect_paths(pres)
    key = pres.basis().rank.__getitem__
    grouped = {}  # canonical primitive word -> dict(r=, members=set())
    for cyc in graph.cycles:
        word = tuple(a for p in cyc for a in p.arrows)
        lengths = [p.length for p in cyc]
        sums = {lengths[i] + lengths[(i + 1) % len(lengths)] for i in range(len(lengths))}
        if len(sums) != 1:
            raise InternalInvariantViolation(
                f"non-constant relation length along successor cycle {[str(p) for p in cyc]}: {sorted(sums)}"
            )
        r = sums.pop()
        prim = _primitive_word(word)
        if len(set(prim)) != len(prim):
            raise InternalInvariantViolation(
                f"arrow repeats inside relation cycle {'.'.join(prim)}"
            )
        canon = _canonical_rotation(prim, pres.quiver)
        entry = grouped.setdefault(canon, {"r": r, "members": set()})
        if entry["r"] != r:
            raise InternalInvariantViolation(
                f"conflicting relation lengths {entry['r']} and {r} on cycle {'.'.join(canon)}"
            )
        entry["members"].update(cyc)
    cycles = []
    for canon in sorted(grouped, key=lambda w: tuple(pres.quiver.arrow_index(a) for a in w)):
        entry = grouped[canon]
        n, r = len(canon), entry["r"]
        _check_windows(pres, canon, r)
        members = tuple(sorted(entry["members"], key=key))
        position = {a: i for i, a in enumerate(canon)}
        for p in members:
            i = position.get(p.arrows[0])
            if i is None or any(a != canon[(i + k) % n] for k, a in enumerate(p.arrows)):
                raise InternalInvariantViolation(f"perfect path {p} is not a window of {canon}")
        cycles.append(RelationCycle(arrows=canon, n=n, r=r, members=members))
    seen_arrows = {}
    for c in cycles:
        for a in c.arrows:
            if a in seen_arrows:
                raise InternalInvariantViolation(f"arrow {a} lies on two relation cycles")
            seen_arrows[a] = c
    total = sum(len(c.members) for c in cycles)
    if total != len(graph.perfect_set()):
        raise InternalInvariantViolation("perfect paths not partitioned by relation cycles")
    return tuple(cycles)


def _primitive_word(word):
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    raise AssertionError("unreachable")


def _canonical_rotation(word, quiver):
    """Rotation whose traversal-order index sequence is lexicographically least.

    ``word`` repeats no arrow, so that is the rotation whose traversal starts,
    that is whose composition word ends, at the arrow of least index.
    """
    last = min(range(len(word)), key=lambda i: quiver.arrow_index(word[i]))
    return word[last + 1:] + word[:last + 1]


def _check_windows(pres, word, r):
    """Each cyclic window of r arrows along the word lies in F; a window that
    only contains a shorter relation breaks the law."""
    # windows may wrap the cycle several times when r exceeds its length
    n = len(word)
    unrolled = word * (r // n + 2)
    for i in range(n):
        window = unrolled[i : i + r]
        if not pres.is_minimal_relation(window):
            raise InternalInvariantViolation(
                f"cyclic window {'.'.join(window)} of length {r} is not a relation"
            )


def cycle_subalgebra(pres, cycle):
    """The subalgebra on the arrows of the cycle, with the F-members it supports."""
    names = set(cycle.arrows)
    arrows = [a for a in pres.quiver.arrows if a.name in names]
    ends = {v for a in arrows for v in (a.source, a.target)}
    sub = Quiver([v for v in pres.quiver.vertices if v in ends], arrows)
    gens = [
        sub.subword_path(f.arrows) for f in pres.minimal if all(a in names for a in f.arrows)
    ]
    return MonomialPresentation(sub, gens)


def singularity_decomposition(pres):
    """One orbit-category descriptor (A_{r-1}, tau^n) per relation cycle."""
    return [OrbitCategoryDescriptor(rank=c.r - 1, period=c.n) for c in relation_cycles(pres)]


def detect_self_injective_nakayama(pres):
    """(n, m) when the quiver is a basic n-cycle and F is all paths of length m."""
    q = pres.quiver
    n = len(q.vertices)
    if len(q.arrows) != n or n == 0:
        return None
    for v in q.vertices:
        if len(q.arrows_from[v]) != 1 or len(q.arrows_into[v]) != 1:
            return None
    # connected single cycle: following the unique outgoing arrow visits everything
    seen = set()
    v = q.vertices[0]
    for _ in range(n):
        if v in seen:
            return None
        seen.add(v)
        v = q.arrows_from[v][0].target
    if v != q.vertices[0] or len(seen) != n:
        return None
    lengths = {f.length for f in pres.minimal}
    if len(lengths) != 1:
        return None
    m = lengths.pop()
    if len(pres.minimal) != n:
        return None
    return (n, m)


@dataclass
class GentleCheck:
    is_gentle: bool
    reason: str = ""
    gentle_one_gorenstein: bool = None
    relation_cycles: list = None  # repetition-free cycles of quadratic relations


def gentle_check(pres):
    """Decide gentleness and, when gentle, the relation-cycle criterion.

    The criterion asks that every quadratic relation have both its arrows on a
    common repetition-free cycle all of whose consecutive traversal pairs are
    relations; on gentle inputs it must agree with the homological test.
    """
    q = pres.quiver
    forb = {f.arrows for f in pres.minimal}
    for v in q.vertices:
        if len(q.arrows_from[v]) > 2:
            return GentleCheck(False, f"vertex {v} has {len(q.arrows_from[v])} outgoing arrows")
        if len(q.arrows_into[v]) > 2:
            return GentleCheck(False, f"vertex {v} has {len(q.arrows_into[v])} incoming arrows")
    if any(f.length != 2 for f in pres.minimal):
        return GentleCheck(False, "relations of length > 2 present")
    for a in q.arrows:
        comp_out = [b.name for b in q.arrows_from[a.target] if (b.name, a.name) not in forb]
        rel_out = [b.name for b in q.arrows_from[a.target] if (b.name, a.name) in forb]
        comp_in = [b.name for b in q.arrows_into[a.source] if (a.name, b.name) not in forb]
        rel_in = [b.name for b in q.arrows_into[a.source] if (a.name, b.name) in forb]
        if len(comp_out) > 1:
            return GentleCheck(False, f"arrow {a.name} has two unbound continuations")
        if len(comp_in) > 1:
            return GentleCheck(False, f"arrow {a.name} has two unbound predecessors")
        if len(rel_out) > 1:
            return GentleCheck(False, f"arrow {a.name} has two bound continuations")
        if len(rel_in) > 1:
            return GentleCheck(False, f"arrow {a.name} has two bound predecessors")
    # relation-successor map: sigma(beta) = alpha iff alpha.beta in F; a partial
    # injection by the gentle conditions, so its cycles are well-defined
    sigma = {}
    for alpha, beta in forb:
        sigma[beta] = alpha
    cycles = [tuple(c) for c in successor_cycles(sorted(sigma, key=q.arrow_index), sigma)]
    on_cycle = {a: cyc for cyc in cycles for a in cyc}
    criterion = all(
        alpha in on_cycle and beta in on_cycle and on_cycle[alpha] is on_cycle[beta]
        for alpha, beta in forb
    )
    return GentleCheck(True, gentle_one_gorenstein=criterion, relation_cycles=cycles)


def gorenstein_to_json(pres):
    oracle_profile = injective_dimension_profile(pres).to_json()
    verdict = is_one_gorenstein(pres)
    out = {"one_gorenstein": verdict.verdict}
    if verdict.verdict:
        # each successor cycle is rendered once, and its witnesses share the
        # list; the cycles are disjoint, so a cycle's first member names it
        rendered = {}
        out["witness"] = {}
        rank = pres.basis().rank
        for p, cyc in sorted(verdict.witnesses.items(), key=lambda kv: rank[kv[0]]):
            if cyc[0] not in rendered:
                rendered[cyc[0]] = [str(x) for x in cyc]
            out["witness"][str(p)] = rendered[cyc[0]]
        cycles = relation_cycles(pres)
        out["cycles"] = [
            {"arrows": list(c.traversal()), "n": c.n, "r": c.r,
             "members": [str(p) for p in c.members]}
            for c in cycles
        ]
        out["singularity"] = [
            {"type": "A", "rank": d.rank, "period": d.period}
            for d in singularity_decomposition(pres)
        ]
    else:
        f, p, qq = verdict.failing
        out["witness"] = {"relation": str(f), "left_factor": str(p), "right_factor": str(qq)}
    nak = detect_self_injective_nakayama(pres)
    out["nakayama"] = {"n": nak[0], "m": nak[1]} if nak else None
    g = gentle_check(pres)
    out["gentle"] = {
        "is_gentle": g.is_gentle,
        "criterion": g.gentle_one_gorenstein,
    } if g.is_gentle else {"is_gentle": False, "reason": g.reason}
    out["oracle"] = oracle_profile
    return out
