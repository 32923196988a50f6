import pytest

from monosing import oracle
from monosing.corpus import gorenstein_corpus, seeded_rng
from monosing.errors import InternalInvariantViolation, NotGorenstein
from monosing.oracle import (
    DEPTH,
    FINITE,
    PERIODIC,
    Representation,
    _ext_from_trace,
    crosscheck_classification,
    dual_regular_rep,
    ext_dim,
    global_dimension,
    gorenstein_projective_test,
    hom_dim,
    injective_dimension_profile,
    is_torsionless,
    path_module_rep,
    regular_rep,
    resolve,
    simple_rep,
    stable_hom_dim,
    verify_omega_T_ext_vanishing,
)
from monosing.presentation import parse_presentation

from conftest import FIXTURE_NAMES, load


def tpath(pres, *names):
    return pres.quiver.path(names, order="traversal")


def test_representation_validates_relations(z2r3):
    # identity action on both arrows violates aba = 0
    with pytest.raises(InternalInvariantViolation):
        Representation(z2r3, {"1": 1, "2": 1}, {"a": [[1]], "b": [[1]]})


def test_validation_on_part_of_a_larger_quiver(z6r3):
    # supported on 1 -> 2 -> 3 -> 4 of the 6-cycle: the relation t1 t2 t3
    # stays inside the support and acts as the identity
    dims = {"1": 1, "2": 1, "3": 1, "4": 1}
    with pytest.raises(InternalInvariantViolation, match="acts nonzero"):
        Representation(z6r3, dims, {"t1": [[1]], "t2": [[1]], "t3": [[1]]})
    M = Representation(z6r3, dims, {"t1": [[1]], "t2": [[1]], "t3": [[0]]})
    # arrows with a zero-dimensional end are filled in by shape
    assert M.mats["t4"] == [] and M.mats["t6"] == [[]]
    assert M.mats["t5"] == []


def test_validation_checks_shapes_at_zero_ends(z6r3):
    dims = {"1": 1, "2": 1}
    with pytest.raises(InternalInvariantViolation, match="row count"):
        Representation(z6r3, dims, {"t1": [[1]], "t2": [[1]]})  # t2 lands in 0
    with pytest.raises(InternalInvariantViolation, match="column count"):
        Representation(z6r3, dims, {"t1": [[1]], "t6": [[1]]})  # t6 leaves 0
    with pytest.raises(InternalInvariantViolation, match="row count"):
        Representation(z6r3, dims, {"t1": [[1]], "t4": [[]]})  # t4 joins two 0s


def test_path_module_reps(z3r2, z2r3):
    M = path_module_rep(z3r2, z3r2.quiver.arrow_path("a1"))
    assert M.dims == {"1": 0, "2": 1, "3": 0}  # the simple at vertex 2

    N = path_module_rep(z2r3, z2r3.quiver.arrow_path("a"))
    assert N.dims == {"1": 1, "2": 1}
    assert N.mats["b"] == [[1]]  # b carries a to b.a
    assert N.mats["a"] == [[0]]  # a kills b.a

    P = path_module_rep(z2r3, z2r3.quiver.trivial_path("1"))
    assert P.total_dim == 3  # the projective at vertex 1


def test_hom_dims(z3r2, z2r3):
    S2 = simple_rep(z3r2, "2")
    assert hom_dim(S2, S2) == 1
    Aa = path_module_rep(z2r3, z2r3.quiver.arrow_path("a"))
    Aab = path_module_rep(z2r3, tpath(z2r3, "b", "a"))  # composition a.b
    Aba = path_module_rep(z2r3, tpath(z2r3, "a", "b"))  # composition b.a
    # the chain arrow A.a -> A.(a.b) exists; the other direction does not
    assert hom_dim(Aa, Aab) == 1
    assert hom_dim(Aa, Aba) == 0


def test_stable_hom_from_projective_vanishes(z2r3):
    P = path_module_rep(z2r3, z2r3.quiver.trivial_path("1"))
    for p in ("a", "b"):
        M = path_module_rep(z2r3, z2r3.quiver.arrow_path(p))
        assert stable_hom_dim(P, M) == 0


def test_ext_examples(z3r2, lin, her):
    A3 = regular_rep(z3r2)
    M = path_module_rep(z3r2, z3r2.quiver.arrow_path("a1"))
    for k in range(1, 7):
        assert ext_dim(z3r2, M, A3, k) == 0

    S3 = simple_rep(lin, "3")  # projective: the sink simple
    assert ext_dim(lin, S3, regular_rep(lin), 1) == 0

    H = regular_rep(her)
    for v in her.quiver.vertices:
        assert ext_dim(her, simple_rep(her, v), H, 2) == 0  # hereditary


def test_profiles(z3r2, z2r3, lin, her):
    assert (injective_dimension_profile(z3r2).gorenstein,
            injective_dimension_profile(z3r2).level) == (True, 0)
    assert injective_dimension_profile(z2r3).level == 0
    p = injective_dimension_profile(lin)
    assert p.gorenstein and p.level <= 2
    assert injective_dimension_profile(her).level <= 1


def test_global_dimensions(z3r2, lin, her):
    assert global_dimension(z3r2) is None  # infinite
    assert global_dimension(lin) == 2
    assert global_dimension(her) == 1


def test_resolution_statuses(z3r2, lin):
    t = resolve(z3r2, simple_rep(z3r2, "1"))
    assert t.status == PERIODIC  # simples over kZ_3/J^2 have infinite pd
    t = resolve(lin, simple_rep(lin, "1"))
    assert t.status == FINITE and t.pd == 2


def test_gp_test(z3r2, lin, z2r3):
    M = path_module_rep(z3r2, z3r2.quiver.arrow_path("a1"))
    assert gorenstein_projective_test(z3r2, M)
    S2 = simple_rep(lin, "2")
    assert not gorenstein_projective_test(lin, S2)
    for v in z2r3.quiver.vertices:
        P = path_module_rep(z2r3, z2r3.quiver.trivial_path(v))
        assert gorenstein_projective_test(z2r3, P)


def test_gp_test_requires_gorenstein():
    # 2 loops with radical square zero is not Gorenstein
    pres = parse_presentation(
        "vertex 1\narrow x 1 1\narrow y 1 1\n"
        "relation x x\nrelation x y\nrelation y x\nrelation y y\n"
    )
    prof = injective_dimension_profile(pres)
    assert prof.decided and not prof.gorenstein
    with pytest.raises(NotGorenstein):
        gorenstein_projective_test(pres, simple_rep(pres, "1"))


def test_torsionless(z2r3, lin):
    # over a self-injective algebra every module is torsionless
    assert is_torsionless(simple_rep(z2r3, "1"))
    # over LIN the middle simple embeds in the projective at 1; the source
    # simple admits no nonzero map to A at all
    assert is_torsionless(simple_rep(lin, "2"))
    assert not is_torsionless(simple_rep(lin, "1"))


def test_crosscheck_trips_on_corrupted_classification(z2r3, monkeypatch):
    # the tripwire must actually fire when the combinatorial side is wrong
    import monosing.perfection as perfection
    from monosing.errors import MismatchDetected

    real = perfection.classify_stable_gproj
    monkeypatch.setattr(perfection, "classify_stable_gproj",
                        lambda pres: real(pres)[:-1])
    with pytest.raises(MismatchDetected):
        crosscheck_classification(z2r3)


def test_crosscheck_fixtures(z3r2, z2r3, her, lin, glu):
    assert crosscheck_classification(z3r2)["homological_classes"] == 3
    assert crosscheck_classification(z2r3)["homological_classes"] == 4
    assert crosscheck_classification(her)["homological_classes"] == 0
    assert crosscheck_classification(lin)["homological_classes"] == 0
    assert crosscheck_classification(glu)["homological_classes"] == 12


def test_omega_T_vanishing_examples(z3r2, z2r3, lin):
    assert verify_omega_T_ext_vanishing(z3r2, 6)
    assert verify_omega_T_ext_vanishing(z2r3, 6)
    assert verify_omega_T_ext_vanishing(lin, 4)


def test_graded_stable_hom_detects_nonzero(z3r2):
    # the tilting check's inner test must not be vacuous: the identity of a
    # non-projective graded module is a nonzero degree-preserving stable hom
    from monosing.oracle import syzygy_step

    S2 = path_module_rep(z3r2, z3r2.quiver.arrow_path("a1"))  # simple, degree 0
    assert stable_hom_dim(S2, S2, degree_shift=0) == 1
    # one graded syzygy shifts the generator to degree 1: no degree-0 maps left
    _, _, om, _ = syzygy_step(S2)
    assert stable_hom_dim(om, S2, degree_shift=0) == 0
    assert stable_hom_dim(om, om, degree_shift=0) == 1


def test_presentation_mismatch(z3r2, z2r3):
    from monosing.errors import PresentationMismatch

    with pytest.raises(PresentationMismatch):
        hom_dim(simple_rep(z3r2, "1"), simple_rep(z2r3, "1"))


def test_glu_triangle_reduction_confirmed_by_oracle(glu):
    # the length-3 nonzero path through the glued vertex presents the same
    # module as its perfect reduction
    from monosing.graded import perfect_reduction
    from monosing.oracle import _iso_witness

    tri = glu.quiver.path(["t1", "t2", "t6"], order="traversal")
    r = perfect_reduction(glu, tri)
    assert r.kind == "perfect"
    M = path_module_rep(glu, tri)
    N = path_module_rep(glu, r.path)
    assert M.dims == N.dims
    assert _iso_witness(M, N) is not None
    assert stable_hom_dim(M, N) >= 1 and stable_hom_dim(N, M) >= 1


def test_iso_witness_is_exact_on_a_negative_case():
    # A.x and A.y are 2-dimensional with a simple top but are not isomorphic
    # (x kills A.x and not A.y); a nonzero map A.x -> A.y exists, so the
    # exact test must reject every Hom-basis map rather than find none
    from monosing.oracle import _iso_witness

    pres = parse_presentation(
        "vertex 1\narrow x 1 1\narrow y 1 1\n"
        "relation x x\nrelation y y\nrelation x y x\nrelation y x y\n"
    )
    Ax = path_module_rep(pres, pres.quiver.arrow_path("x"))
    Ay = path_module_rep(pres, pres.quiver.arrow_path("y"))
    assert Ax.dims == Ay.dims == {"1": 2}
    assert hom_dim(Ax, Ay) >= 1
    assert _iso_witness(Ax, Ay) is None
    assert _iso_witness(Ax, Ax) is not None


def test_dual_regular_rep(z3r2, lin, glu):
    for pres in (z3r2, lin, glu):
        D = dual_regular_rep(pres)
        basis = pres.basis()
        assert D.dims == {v: len(basis.from_vertex(v)) for v in pres.quiver.vertices}
        Representation(pres, D.dims, D.mats)  # validates shapes and relations


def counting(monkeypatch, name):
    """Replace oracle.<name> by a wrapper that records every call."""
    calls = []
    real = getattr(oracle, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, name, wrapper)
    return calls


def non_projective_path_modules(pres):
    basis = pres.basis()
    for p in basis.paths:
        if p.is_trivial:
            continue
        M = path_module_rep(pres, p)
        if M.total_dim != len(basis.from_vertex(p.target)):
            yield M


def test_gp_test_resolves_only_to_level_plus_two(z3r2, her, glu, monkeypatch):
    assert injective_dimension_profile(z3r2).level == 0
    assert injective_dimension_profile(her).level == 1
    assert injective_dimension_profile(glu).level == 1
    steps = counting(monkeypatch, "syzygy_step")
    for M in non_projective_path_modules(z3r2):
        gorenstein_projective_test(z3r2, M)
    assert steps == []  # level 0: Ext^1..0 is empty, only torsionless is read
    # over the hereditary A_2 every path module is projective; the simples are not
    per_module = []
    for v in her.quiver.vertices:
        steps.clear()
        gorenstein_projective_test(her, simple_rep(her, v))
        per_module.append(len(steps))
    assert max(per_module) <= 3 and min(per_module) > 0
    # glu has path modules of infinite pd, which a full-bound resolution
    # would follow far past P_2
    for M in non_projective_path_modules(glu):
        steps.clear()
        gorenstein_projective_test(glu, M)
        assert len(steps) <= 3


def test_crosscheck_builds_the_regular_module_once(z3r2, monkeypatch):
    builds = counting(monkeypatch, "regular_rep")
    assert crosscheck_classification(z3r2)["homological_classes"] == 3
    assert len(builds) == 1


def test_level_bounded_verdicts_match_full_resolutions():
    # Over a Gorenstein algebra of level d a finite pd is at most d: the GP
    # verdict read from a depth-(d+2) resolution and the "alive after d+1
    # steps" test must agree with the certified full-bound resolution
    presentations = [load(name) for name in FIXTURE_NAMES]
    presentations += gorenstein_corpus(seeded_rng(), 20)
    levels = set()
    checked = 0
    for pres in presentations:
        d = injective_dimension_profile(pres).level
        levels.add(d)
        A = regular_rep(pres)
        for M in non_projective_path_modules(pres):
            full = resolve(pres, M)
            assert full.status in (FINITE, PERIODIC)
            expected = (all(_ext_from_trace(pres, full, A, k) == 0 for k in range(1, d + 1))
                        and is_torsionless(M))
            assert gorenstein_projective_test(pres, M) == expected
            shallow = resolve(pres, M, depth=d + 1)
            assert shallow.status in (FINITE, DEPTH)
            assert (shallow.status == DEPTH) == (full.status == PERIODIC)
            checked += 1
    assert {0, 1, 2} <= levels
    assert checked >= 30


def test_truncated_trace_is_never_read_as_a_pd(z3r2, lin):
    nonzero = 0
    for pres in (z3r2, lin):
        simples = [simple_rep(pres, v) for v in pres.quiver.vertices]
        for M in non_projective_path_modules(pres):
            cut = resolve(pres, M, depth=2)
            full = resolve(pres, M)
            assert cut.status == DEPTH or cut.pd == full.pd
            for N in simples:
                for k in (2, 3):
                    got = _ext_from_trace(pres, cut, N, k)
                    assert got == _ext_from_trace(pres, full, N, k)
                    nonzero += got != 0
    assert nonzero  # Ext^k(M, S) != 0 for some pair, so reading 0 would show


def test_summand_classes_read_off_the_cover(z2r3):
    from monosing.oracle import _summand_classes, projective_cover

    # A.a over kZ_2/J^3 is A e_2 modulo the paths x with x.a = 0: e_2 and b
    # survive, while b then a completes the relation a b a
    Aa = path_module_rep(z2r3, z2r3.quiver.arrow_path("a"))
    assert _summand_classes(Aa, *projective_cover(Aa)) == [("2", frozenset({(), ("b",)}))]
    S = simple_rep(z2r3, "1")
    assert _summand_classes(S, *projective_cover(S)) == [("1", frozenset({()}))]
    # A e_1 / (x - y) with radical square zero: x and y send the generator
    # to the same nonzero vector, so the three nonzero columns of the cover
    # span a 2-dimensional space and certify no split
    two_loops = parse_presentation(
        "vertex 1\narrow x 1 1\narrow y 1 1\n"
        "relation x x\nrelation x y\nrelation y x\nrelation y y\n"
    )
    M = Representation(two_loops, {"1": 2}, {"x": [[0, 0], [1, 0]], "y": [[0, 0], [1, 0]]})
    assert _summand_classes(M, *projective_cover(M)) is None


def dense_reference(pres, rep, cap=260):
    """The rule the summand-class walk replaced: dense syzygy steps up to the
    2 + #paths bound, and a dimension cap that leaves the resolution
    undecided ("cap")."""
    from monosing.oracle import syzygy_step, top_lifts

    if rep.is_zero():
        return FINITE, 0
    basis = pres.basis()
    bound = 2 + max(0, basis.dimension - len(pres.quiver.vertices))
    cur = rep
    for k in range(1, bound + 2):
        lifts = top_lifts(cur)
        if sum(len(lifts[v]) * len(basis.from_vertex(v)) for v in lifts) > cap:
            return "cap", None
        _, _, cur, _ = syzygy_step(cur)
        if cur.is_zero():
            return FINITE, k - 1
        if cur.total_dim > cap:
            return "cap", None
    return PERIODIC, None


def test_class_walk_matches_the_dense_rule():
    from monosing.corpus import random_presentation
    from monosing.oracle import injective_summand_rep

    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(60)]
    outcomes = {}
    for pres in presentations:
        for pr in (pres, pres.opposite()):
            for v in pr.quiver.vertices:
                for M in (injective_summand_rep(pr, v), simple_rep(pr, v)):
                    expected = dense_reference(pr, M)
                    tr = resolve(pr, M)
                    if expected[0] == "cap":
                        assert tr.status == PERIODIC
                    else:
                        assert (tr.status, tr.pd) == expected
                    outcomes[expected[0]] = outcomes.get(expected[0], 0) + 1
    assert set(outcomes) == {FINITE, PERIODIC, "cap"}, outcomes


def test_an_ungraded_module_may_split_late():
    # draw 371 at the default corpus seed: the injective summand at vertex 2
    # first splits at Omega^2 with its degrees and only at Omega^3 without
    # them, so the dense phase has no fixed number of steps
    import random

    from monosing.corpus import DEFAULT_SEED, random_presentation
    from monosing.oracle import injective_summand_rep

    rng = random.Random(DEFAULT_SEED)
    pres = [random_presentation(rng) for _ in range(372)][371]
    M = injective_summand_rep(pres, "2")
    graded = resolve(pres, M)
    ungraded = resolve(pres, Representation(pres, M.dims, M.mats))
    assert len(graded.layers) == 3 and len(ungraded.layers) == 4
    assert graded.status == ungraded.status == PERIODIC
    assert dense_reference(pres, M) == (PERIODIC, None)
