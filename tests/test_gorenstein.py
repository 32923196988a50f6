import random

import pytest

from monosing.corpus import (
    gentle_corpus,
    random_gentle_presentation,
    random_presentation,
    seeded_rng,
)
from monosing.errors import NotOneGorenstein
from monosing.gorenstein import (
    cycle_subalgebra,
    detect_self_injective_nakayama,
    gentle_check,
    gorenstein_to_json,
    is_one_gorenstein,
    relation_cycles,
    singularity_decomposition,
)
from monosing.oracle import injective_dimension_profile
from monosing.perfection import classify_stable_gproj, perfect_paths
from monosing.presentation import Quiver, parse_presentation, presentation_to_text

from conftest import class_rule_corpus, nakayama


def test_verdicts(z3r2, lin, her):
    assert is_one_gorenstein(z3r2).verdict
    assert is_one_gorenstein(her).verdict  # vacuous: no relations
    v = is_one_gorenstein(lin)
    assert not v.verdict
    f, p, q = v.failing
    assert str(p) == "b" and str(f) == "a·b"


def test_witness_map_on_true_side(z3r2):
    v = is_one_gorenstein(z3r2)
    assert {str(p) for p in v.witnesses} == {"a1", "a2", "a3"}
    assert all(cyc is not None for cyc in v.witnesses.values())


def test_relation_cycles_z3r2(z3r2):
    cycles = relation_cycles(z3r2)
    assert len(cycles) == 1
    c = cycles[0]
    assert c.n == 3 and c.r == 2
    assert set(c.arrows) == {"a1", "a2", "a3"}
    assert len(c.members) == 3


def test_relation_cycles_z2r3(z2r3):
    (c,) = relation_cycles(z2r3)
    assert (c.n, c.r) == (2, 3)
    assert len(c.members) == 4


def test_relation_cycles_glu_merges_successor_cycles(glu):
    (c,) = relation_cycles(glu)
    assert (c.n, c.r) == (6, 3)
    assert len(c.members) == 12  # all perfect paths lie along the one cycle


def test_relation_cycles_requires_one_gorenstein(lin):
    for _ in range(2):  # the refusal is raised on every call, and nothing is kept
        with pytest.raises(NotOneGorenstein):
            relation_cycles(lin)
    assert "monosing.gorenstein.relation_cycles" not in lin._cache


def test_cycle_subalgebra_whole(z3r2, glu):
    assert cycle_subalgebra(z3r2, relation_cycles(z3r2)[0]) == z3r2
    assert cycle_subalgebra(glu, relation_cycles(glu)[0]) == glu


DISJOINT = """
vertex 1 2 3 4 5
arrow a1 1 2
arrow a2 2 3
arrow a3 3 1
arrow a 4 5
arrow b 5 4
relation a1 a2
relation a2 a3
relation a3 a1
relation a b a
relation b a b
"""


def test_disjoint_union_additivity(z3r2, z2r3):
    dis = parse_presentation(DISJOINT)
    got = [(d.rank, d.period) for d in singularity_decomposition(dis)]
    left = [(d.rank, d.period) for d in singularity_decomposition(z3r2)]
    right = [(d.rank, d.period) for d in singularity_decomposition(z2r3)]
    assert sorted(got) == sorted(left + right)
    cycles = relation_cycles(dis)
    assert cycle_subalgebra(dis, cycles[0]) == z3r2


def test_singularity_decompositions(z3r2, z2r3, her, glu):
    assert [str(d) for d in singularity_decomposition(z3r2)] == ["D^b(A_1)/[tau^3]"]
    assert [str(d) for d in singularity_decomposition(z2r3)] == ["D^b(A_2)/[tau^2]"]
    assert singularity_decomposition(her) == []
    assert [str(d) for d in singularity_decomposition(glu)] == ["D^b(A_2)/[tau^6]"]


def test_subalgebra_consistency(glu, z3r2):
    dis = parse_presentation(DISJOINT)
    for pres in (glu, z3r2, dis):
        for c in relation_cycles(pres):
            sub = cycle_subalgebra(pres, c)
            got = [(d.rank, d.period) for d in singularity_decomposition(sub)]
            assert got == [(c.r - 1, c.n)]


def test_count_law_on_corpus():
    rng = random.Random(8675309)
    seen = 0
    for _ in range(40):
        pres = random_presentation(rng)
        if not is_one_gorenstein(pres).verdict:
            continue
        cycles = relation_cycles(pres)
        total = sum(len(c.members) for c in cycles)
        assert total == len(perfect_paths(pres).perfect_set())
        seen += 1
    assert seen >= 10


def test_nakayama_detection(z3r2, z2r3, lin, z6r3):
    assert detect_self_injective_nakayama(z3r2) == (3, 2)
    assert detect_self_injective_nakayama(z2r3) == (2, 3)
    assert detect_self_injective_nakayama(z6r3) == (6, 3)
    assert detect_self_injective_nakayama(lin) is None


def test_nakayama_law_iff_one_gorenstein():
    # on basic-cycle quivers: 1-Gorenstein iff the uniform-relation detector fires
    texts = [
        "vertex 1 2\narrow a 1 2\narrow b 2 1\nrelation a b\nrelation b a\n",
        "vertex 1 2\narrow a 1 2\narrow b 2 1\nrelation a b\n",  # mixed: not all windows
        "vertex 1 2\narrow a 1 2\narrow b 2 1\nrelation a b a\nrelation b a\n",
    ]
    for text in texts:
        pres = parse_presentation(text)
        v = is_one_gorenstein(pres).verdict
        assert v == (detect_self_injective_nakayama(pres) is not None), text


def test_gentle_checks(z3r2, lin, z2r3):
    g = gentle_check(z3r2)
    assert g.is_gentle and g.gentle_one_gorenstein is True
    g = gentle_check(lin)
    assert g.is_gentle and g.gentle_one_gorenstein is False
    g = gentle_check(z2r3)
    assert not g.is_gentle and "length" in g.reason


def test_gentle_agreement_small_corpus():
    rng = random.Random(13579)
    for _ in range(15):
        pres = random_gentle_presentation(rng)
        g = gentle_check(pres)
        assert g.is_gentle
        assert g.gentle_one_gorenstein == is_one_gorenstein(pres).verdict


def test_gentle_laws_from_the_literature():
    # Geiss-Reiten (2005): gentle algebras are Gorenstein.  Kalck (2015): the
    # CM-type of a gentle algebra is the total length of its relation cycles.
    # gentle_check's cycles are used because gorenstein.relation_cycles raises
    # NotOneGorenstein on gentle inputs that are not 1-Gorenstein.
    for pres in gentle_corpus(seeded_rng(), 200):
        prof = injective_dimension_profile(pres)
        assert prof.decided and prof.gorenstein, presentation_to_text(pres)
        cycles = gentle_check(pres).relation_cycles
        assert len(classify_stable_gproj(pres)) == sum(len(c) for c in cycles), (
            presentation_to_text(pres))


def test_relation_cycles_are_computed_once_per_presentation(glu, lin, monkeypatch):
    # one `gorenstein` call reads the cycles twice (JSON builder, singularity
    # decomposition); the cycle scan runs once
    import monosing.gorenstein as gorenstein
    from monosing.cli import cmd_gorenstein

    scans = []
    real = gorenstein._canonical_rotation

    def counting(*args):
        scans.append(args)
        return real(*args)

    monkeypatch.setattr(gorenstein, "_canonical_rotation", counting)
    _, lines, code = cmd_gorenstein(glu, None)
    assert code == 0 and any(line.startswith("cycle ") for line in lines)
    once = len(scans)
    assert once > 0
    cycles = relation_cycles(glu)
    assert isinstance(cycles, tuple) and relation_cycles(glu) is cycles
    assert len(scans) == once
    for _ in range(2):  # the refusal is not memoized away
        with pytest.raises(NotOneGorenstein):
            relation_cycles(lin)


def test_witness_cycles_are_rendered_once(monkeypatch):
    # Z_32 R_5 has 128 perfect paths in 2 successor cycles of 64, and every
    # one is a witness; each cycle's strings are made once and shared, so a
    # path is rendered as a witness key, a cycle entry and a cycle member,
    # where one list per witness would take 128 * 64 strings
    from conftest import nakayama

    from monosing.presentation import Path

    pres = nakayama(32, 5)
    assert len(perfect_paths(pres).cycles) == 2
    calls = []
    real = Path.__str__
    monkeypatch.setattr(Path, "__str__", lambda p: calls.append(p) or real(p))
    data = gorenstein_to_json(pres)
    assert len(data["witness"]) == 128
    assert all(len(cycle) == 64 for cycle in data["witness"].values())
    assert len(calls) <= 3 * 128, len(calls)


def relation_cycles_reference(pres):
    """(arrows, n, r, members) of each relation cycle by the quadratic rules:
    each cycle word grown by concatenation, the least of all n rotation keys,
    and every offset of an unrolled copy tried for each member."""
    quiver = pres.quiver
    grouped = {}
    for cyc in perfect_paths(pres).cycles:
        word = ()
        for p in cyc:
            word = word + p.arrows
        L = len(word)
        prim = next(word[:d] for d in range(1, L + 1)
                    if L % d == 0 and word == word[:d] * (L // d))
        best, best_key = None, None
        for i in range(len(prim)):
            rot = prim[i:] + prim[:i]
            k = tuple(quiver.arrow_index(a) for a in reversed(rot))
            if best_key is None or k < best_key:
                best, best_key = rot, k
        entry = grouped.setdefault(best, (cyc[0].length + cyc[1 % len(cyc)].length, set()))
        entry[1].update(cyc)
    out = []
    for canon in sorted(grouped, key=lambda w: tuple(quiver.arrow_index(a) for a in w)):
        r, members = grouped[canon]
        n = len(canon)
        members = tuple(sorted(members, key=quiver.sort_key))
        for p in members:
            unrolled = canon * (p.length // n + 2)
            assert any(unrolled[i:i + p.length] == p.arrows for i in range(n)), str(p)
        out.append((canon, n, r, members))
    return out


def test_relation_cycles_match_the_quadratic_reference():
    # reading a cycle by position gives the canonical rotation and members
    # that the n-rotation and n-offset scans gave
    rng = seeded_rng()
    presentations = class_rule_corpus() + [parse_presentation(DISJOINT)]
    presentations += [nakayama(n, m) for m in range(2, 9) for n in range(1, 13)]
    presentations += [random_presentation(rng) for _ in range(200)]
    presentations += [random_gentle_presentation(rng) for _ in range(100)]
    presentations += [random_presentation(rng, 6, 9, 4) for _ in range(100)]
    compared = 0
    for pres in presentations:
        if not is_one_gorenstein(pres).verdict:
            continue
        got = [(c.arrows, c.n, c.r, c.members) for c in relation_cycles(pres)]
        assert got == relation_cycles_reference(pres), presentation_to_text(pres)
        compared += 1
    assert compared >= 200, compared


def test_relation_cycles_read_each_arrow_a_bounded_number_of_times(monkeypatch):
    # Z_400 R_5 has one cycle of 400 arrows met by 10 successor cycles; the
    # n-rotation scan read 1,600,400 arrow indices there
    pres = nakayama(400, 5)
    calls = []
    real = Quiver.arrow_index
    monkeypatch.setattr(Quiver, "arrow_index", lambda q, a: calls.append(a) or real(q, a))
    assert [(c.n, c.r) for c in relation_cycles(pres)] == [(400, 5)]
    assert len(calls) <= 20 * 400, len(calls)


def test_self_injective_nakayama_singularity_categories():
    # kZ_n/J^m is self-injective with one relation cycle of n arrows and
    # relation length m, so D_sg is D^b(A_{m-1})/tau^n
    cases = [(n, m) for m in range(2, 9) for n in range(1, 65)] + [(800, 4), (6400, 2)]
    for n, m in cases:
        got = [(d.rank, d.period) for d in singularity_decomposition(nakayama(n, m))]
        assert got == [(m - 1, n)], (n, m)


def test_a_window_that_only_contains_a_relation_breaks_the_window_law():
    # on the loop x with F = {x.x}, the cyclic window x.x lies in F but
    # x.x.x only contains a relation, so a relation length of 3 is refused
    from monosing.errors import InternalInvariantViolation
    from monosing.gorenstein import _check_windows

    pres = parse_presentation("vertex 1\narrow x 1 1\nrelation x x\n")
    _check_windows(pres, ("x",), 2)
    with pytest.raises(InternalInvariantViolation, match="not a relation"):
        _check_windows(pres, ("x",), 3)
