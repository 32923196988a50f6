import random

import pytest

from monosing.corpus import random_presentation
from monosing.errors import InfiniteDimensional, MonosingError
from monosing.gluing import (
    Involution,
    _glued,
    bar_presentation,
    equivalence_report,
    glue,
    glue_is_finite_dimensional,
)
from monosing.oracle import injective_dimension_profile
from monosing.presentation import Arrow, MonomialPresentation, Quiver, parse_presentation


def test_involution_must_be_self_inverse():
    with pytest.raises(MonosingError):
        Involution(("1", "2", "3"), {"1": "2", "2": "3", "3": "1"})


@pytest.mark.parametrize("pair", [("9", "10"), ("3", "9"), ("9", "3"), ("", "")])
def test_involution_rejects_unknown_vertices(z6r3, pair):
    # a pair naming a vertex the quiver lacks is an error, not a silent no-op
    with pytest.raises(MonosingError, match="unknown vertex"):
        Involution.from_pairs(z6r3.quiver.vertices, [pair])


def test_glue_fig9_to_fig10(z6r3, glu):
    E = Involution.from_pairs(z6r3.quiver.vertices, [("3", "6")])
    assert glue(z6r3, E) == glu


def test_glue_identity(z6r3):
    E = Involution(z6r3.quiver.vertices, {})
    assert E.is_identity()
    assert glue(z6r3, E) == z6r3


def test_glue_two_lines_to_a3():
    two = parse_presentation("vertex 1 2 3 4\narrow a 1 2\narrow b 3 4\n")
    E = Involution.from_pairs(two.quiver.vertices, [("2", "3")])
    glued = glue(two, E)
    assert len(glued.quiver.vertices) == 3
    assert glued.generators == ()
    assert glued.dimension() == 6  # kA_3: three verts, two arrows, one length-2 path


def test_chain_criterion_witness():
    ab = parse_presentation("vertex 1 2\narrow a 1 2\n")
    E = Involution.from_pairs(ab.quiver.vertices, [("1", "2")])
    finite, chain = glue_is_finite_dimensional(ab, E)
    assert not finite
    assert [str(p) for p in chain] == ["a"]
    with pytest.raises(InfiniteDimensional):
        glue(ab, E)


def test_chain_criterion_identity_vacuous(z6r3):
    E = Involution(z6r3.quiver.vertices, {})
    assert glue_is_finite_dimensional(z6r3, E) == (True, None)


def test_chain_criterion_fig9(z6r3):
    E = Involution.from_pairs(z6r3.quiver.vertices, [("3", "6")])
    assert glue_is_finite_dimensional(z6r3, E)[0]


def test_bar_presentation(z6r3):
    E = Involution.from_pairs(z6r3.quiver.vertices, [("3", "6")])
    bar = bar_presentation(z6r3, E)
    extra = [a for a in bar.quiver.arrows if a.name not in {x.name for x in z6r3.quiver.arrows}]
    assert len(extra) == 1
    assert (extra[0].source, extra[0].target) == ("3", "6")
    assert len(bar.generators) == len(z6r3.generators)
    # identity involution adds nothing
    assert bar_presentation(z6r3, Involution(z6r3.quiver.vertices, {})) == z6r3


def test_equivalence_report_fig9(z6r3):
    E = Involution.from_pairs(z6r3.quiver.vertices, [("3", "6")])
    rep = equivalence_report(z6r3, E)
    assert rep.original["perfect_paths"] == 12
    assert rep.glued["perfect_paths"] == 12
    assert rep.original["orbit_descriptors"] == [(2, 6)]
    assert rep.glued["orbit_descriptors"] == [(2, 6)]
    assert rep.agreement == {"orbit_multiset": True, "gp_count": True, "gorenstein": True}


def test_equivalence_report_identity(z2r3):
    E = Involution(z2r3.quiver.vertices, {})
    rep = equivalence_report(z2r3, E)
    assert rep.original == rep.glued
    assert rep.all_flags()


def test_equivalence_report_non_one_gorenstein_side(lin):
    # orbit and count comparisons only apply when both sides are 1-Gorenstein
    E = Involution(lin.quiver.vertices, {})
    rep = equivalence_report(lin, E)
    assert rep.agreement["orbit_multiset"] is None
    assert rep.agreement["gp_count"] is None
    assert rep.agreement["gorenstein"] is True
    assert rep.all_flags()  # None flags are not failures


def test_equivalence_report_z4r2_figure_eight():
    # gluing opposite vertices of the quadratic 4-cycle gives a figure-eight
    # of quadratic relations; all the equivalence invariants carry over
    z4 = parse_presentation(
        "vertex 1 2 3 4\n"
        "arrow c1 1 2\narrow c2 2 3\narrow c3 3 4\narrow c4 4 1\n"
        "relation c1 c2\nrelation c2 c3\nrelation c3 c4\nrelation c4 c1\n"
    )
    E = Involution.from_pairs(z4.quiver.vertices, [("1", "3")])
    rep = equivalence_report(z4, E)
    assert rep.original["perfect_paths"] == rep.glued["perfect_paths"] == 4
    assert rep.original["orbit_descriptors"] == rep.glued["orbit_descriptors"] == [(1, 4)]
    assert rep.agreement == {"orbit_multiset": True, "gp_count": True, "gorenstein": True}


def test_sequential_gluing_consistency():
    # two quadratic A_3 lines glued end-to-end both ways into a 6-cycle:
    # one gluing pass agrees with gluing the pairs one at a time, either order
    lines = parse_presentation(
        "vertex 1 2 3 4 5 6\n"
        "arrow d1 1 2\narrow d2 2 3\narrow d4 4 5\narrow d5 5 6\n"
        "relation d1 d2\nrelation d4 d5\n"
    )
    pairs = [("3", "4"), ("6", "1")]
    E = Involution.from_pairs(lines.quiver.vertices, pairs)
    at_once = glue(lines, E)

    def invariants(pres):
        basis = pres.basis()
        return (
            basis.dimension,
            sorted(p.arrows for p in basis if not p.is_trivial),
            sorted(f.arrows for f in pres.minimal),
        )

    for first, second in (pairs, list(reversed(pairs))):
        E1 = Involution.from_pairs(lines.quiver.vertices, [first])
        step1 = glue(lines, E1)
        E2 = Involution.from_pairs(step1.quiver.vertices, [second])
        step2 = glue(step1, E2)
        assert invariants(at_once) == invariants(step2)


def test_lemma_vs_automaton_agreement():
    rng = random.Random(97531)
    checked = 0
    while checked < 30:
        pres = random_presentation(rng)
        vertices = list(pres.quiver.vertices)
        if len(vertices) < 2:
            continue
        rng.shuffle(vertices)
        E = Involution.from_pairs(pres.quiver.vertices, [(vertices[0], vertices[1])])
        finite, _ = glue_is_finite_dimensional(pres, E)
        raw = _glued(pres, E)
        assert raw.is_finite_dimensional() == finite
        checked += 1


def test_gorenstein_preservation_small():
    rng = random.Random(24680)
    checked = 0
    while checked < 8:
        pres = random_presentation(rng)
        vertices = list(pres.quiver.vertices)
        if len(vertices) < 2:
            continue
        rng.shuffle(vertices)
        E = Involution.from_pairs(pres.quiver.vertices, [(vertices[0], vertices[1])])
        if not glue_is_finite_dimensional(pres, E)[0]:
            continue
        glued = glue(pres, E)
        p1 = injective_dimension_profile(pres)
        p2 = injective_dimension_profile(glued)
        assert p1.gorenstein == p2.gorenstein
        checked += 1


def test_chain_test_searches_without_recursion():
    # 1,200 disjoint arrows u_j -> w_j glued along w_j ~ u_{j+1} into a line:
    # the chain digraph is a path of 1,199 moved vertices, deeper than
    # Python's recursion limit
    n = 1200
    q = Quiver([f"{s}{j}" for j in range(n) for s in "uw"],
               [Arrow(f"b{j}", f"u{j}", f"w{j}") for j in range(n)])
    pres = MonomialPresentation(q, [])
    E = Involution.from_pairs(q.vertices, [(f"w{j}", f"u{j + 1}") for j in range(n - 1)])
    assert glue_is_finite_dimensional(pres, E) == (True, None)
    assert len(glue(pres, E).quiver.vertices) == n + 1
