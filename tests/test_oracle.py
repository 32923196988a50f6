import pytest

from monosing import oracle
from monosing.corpus import gorenstein_corpus, seeded_rng
from monosing.errors import InternalInvariantViolation, NotGorenstein
from monosing.oracle import (
    FINITE,
    PERIODIC,
    Representation,
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
from monosing.presentation import parse_presentation, presentation_to_text

from conftest import FIXTURE_NAMES, class_rule_corpus, load, nakayama


def tpath(pres, *names):
    return pres.quiver.path(names)


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
        assert ext_dim(M, A3, k) == 0

    S3 = simple_rep(lin, "3")  # projective: the sink simple
    assert ext_dim(S3, regular_rep(lin), 1) == 0

    H = regular_rep(her)
    for v in her.quiver.vertices:
        assert ext_dim(simple_rep(her, v), H, 2) == 0  # hereditary


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
    t = resolve(simple_rep(z3r2, "1"))
    assert t.status == PERIODIC  # simples over kZ_3/J^2 have infinite pd
    t = resolve(simple_rep(lin, "1"))
    assert t.status == FINITE and t.pd == 2


def test_gp_test(z3r2, lin, z2r3):
    M = path_module_rep(z3r2, z3r2.quiver.arrow_path("a1"))
    assert gorenstein_projective_test(M)
    S2 = simple_rep(lin, "2")
    assert not gorenstein_projective_test(S2)
    for v in z2r3.quiver.vertices:
        P = path_module_rep(z2r3, z2r3.quiver.trivial_path(v))
        assert gorenstein_projective_test(P)


def test_gp_test_requires_gorenstein():
    # 2 loops with radical square zero is not Gorenstein
    pres = parse_presentation(
        "vertex 1\narrow x 1 1\narrow y 1 1\n"
        "relation x x\nrelation x y\nrelation y x\nrelation y y\n"
    )
    prof = injective_dimension_profile(pres)
    assert prof.decided and not prof.gorenstein
    with pytest.raises(NotGorenstein):
        gorenstein_projective_test(simple_rep(pres, "1"))


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


def test_crosscheck_trips_on_a_class_listed_twice(z2r3, monkeypatch):
    # A.a and A.b over kZ_2/J^3 share a dimension vector; only their keys
    # tell a classification that lists A.b twice and A.a never from the true one
    import monosing.perfection as perfection
    from monosing.errors import MismatchDetected

    real = perfection.classify_stable_gproj
    a, b = (z2r3.quiver.arrow_path(name) for name in "ab")

    def doubled(pres):
        descriptors = real(pres)
        at_b = next(d for d in descriptors if d.generator == b)
        return [at_b if d.generator == a else d for d in descriptors]

    monkeypatch.setattr(perfection, "classify_stable_gproj", doubled)
    with pytest.raises(MismatchDetected) as exc:
        crosscheck_classification(z2r3)
    assert str(exc.value) == ("classification mismatch: homological [a, b, a·b, b·a] "
                              "vs perfect-path [b, b, a·b, b·a]")


def test_level_zero_crosscheck_builds_no_module(monkeypatch):
    # the kept keys are compared with the perfect paths' keys, and the
    # dimension vectors are the descriptors', so no class module is built
    pres = nakayama(12, 4)
    injective_dimension_profile(pres)
    builds = []
    real_init = Representation.__init__

    def init(self, *args, **kwargs):
        builds.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Representation, "__init__", init)
    assert crosscheck_classification(pres)["homological_classes"] == 12 * 3
    assert builds == []


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

    tri = glu.quiver.path(["t1", "t2", "t6"])
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


def test_gp_test_on_class_modules_takes_no_dense_step(z3r2, her, glu, monkeypatch):
    assert injective_dimension_profile(z3r2).level == 0
    assert injective_dimension_profile(her).level == 1
    assert injective_dimension_profile(glu).level == 1
    steps = counting(monkeypatch, "syzygy_step")
    resolved = counting(monkeypatch, "resolve")
    for M in non_projective_path_modules(z3r2):
        gorenstein_projective_test(M)
    assert resolved == []  # level 0: every module passes, nothing is resolved
    # over the hereditary A_2 every path module is projective; the simples
    # are the classes (v, {e_v}), and the source simple is not projective
    verdicts = [gorenstein_projective_test(simple_rep(her, v)) for v in her.quiver.vertices]
    assert False in verdicts  # Ext^1(S, A) != 0 was read
    # glu has path modules of infinite pd; each splits at its first cover
    glu_modules = list(non_projective_path_modules(glu))
    for M in glu_modules:
        gorenstein_projective_test(M)
    assert len(resolved) == len(her.quiver.vertices) + len(glu_modules)
    assert steps == []


def test_a_module_is_covered_once(glu, monkeypatch):
    # resolve, the class walk and stable Hom share the cover kept on a module
    from monosing.oracle import _class_rep

    injective_dimension_profile(glu)
    A = regular_rep(glu)
    covered = counting(monkeypatch, "projective_cover")
    for key in {glu.survivor_key(p) for p in glu.basis().nontrivial()}:
        M = _class_rep(glu, key)
        gorenstein_projective_test(M)
        ext_dim(M, A, 1)
        stable_hom_dim(M, M)
    assert len(covered) > 10
    assert len(covered) == len({id(args[0]) for args in covered})


def densely_resolved(pres):
    """The non-cyclic summands, both sides, that the profile still builds and
    resolves: those whose fibre certificate fails."""
    from monosing.oracle import _fibre_split, _injective_summand_key

    return [(pr, v) for pr in (pres, pres.opposite()) for v in pr.quiver.vertices
            if _injective_summand_key(pr, v) is None and not _fibre_split(pr, v)[3]]


def test_trace_report_resolves_each_summand_once(monkeypatch):
    # a cyclic summand is walked as its class, and so is every other one
    # whose fibre certificate holds; each remaining one is resolved once
    from monosing.oracle import (
        _injective_summand_key,
        injective_summand_rep,
        resolution_trace_report,
    )

    resolved = counting(monkeypatch, "resolve")
    noncyclic = dense = 0
    for name in ("lin", "glu", "loc1"):
        pres = load(name)
        resolved.clear()
        resolution_trace_report(pres)
        want = densely_resolved(pres)
        assert [args[0].pres for args in resolved] == [pr for pr, _ in want]
        assert [args[0].dims for args in resolved] == \
            [injective_summand_rep(pr, v).dims for pr, v in want]
        noncyclic += sum(_injective_summand_key(pr, v) is None
                         for pr in (pres, pres.opposite()) for v in pr.quiver.vertices)
        dense += len(want)
    # loc1's one failed certificate; its certified split whose classes
    # reach a cycle is walked too
    assert (noncyclic, dense) == (8, 1)


def test_profile_and_trace_report_share_each_resolution(monkeypatch):
    # the profile and then the trace report resolve each densely resolved
    # summand once between them, also past a side the profile cut short at
    # infinity
    from monosing.oracle import resolution_trace_report

    resolved = counting(monkeypatch, "resolve")
    counts = {}
    for name, pres in [(name, load(name)) for name in ("lin", "glu", "loc1")] + \
            [("heavy", heavy_draw())]:
        resolved.clear()
        injective_dimension_profile(pres)
        resolution_trace_report(pres)
        assert [args[0].pres for args in resolved] == \
            [pr for pr, _ in densely_resolved(pres)], name
        counts[name] = len(resolved)
    # the heavy draw's 11 non-cyclic summands all end finite by the fibre rule
    assert counts == {"lin": 0, "glu": 0, "loc1": 1, "heavy": 0}, counts


def test_trace_report_matches_the_dense_steps():
    # past the split the report counts class multisets; a dense resolution
    # to the same depth must give the same ranks and syzygy dimensions
    from monosing.corpus import random_presentation
    from monosing.oracle import injective_summand_rep, resolution_trace_report

    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(60)]
    repeated = 0
    for pres in presentations:
        report = resolution_trace_report(pres)
        for key, pr in (("id_of_regular", pres), ("pd_of_dual", pres.opposite())):
            for v, tr in report[key].items():
                ranks = tr["projective_ranks"]
                layers, _, syzygies = dense_resolution_reference(
                    injective_summand_rep(pr, v), len(ranks))
                assert ranks == [len(layer.gens) for layer in layers], (pr.quiver.vertices, v)
                assert tr["syzygy_dims"] == [S.total_dim for S in syzygies], (pr.quiver.vertices, v)
                repeated += any(r > 1 for r in ranks[1:])
    assert repeated > 20, repeated


def test_crosscheck_builds_no_regular_module_and_solves_nothing(z3r2, glu, monkeypatch):
    # the GP path classes are Omega^d of the path classes, read off the
    # class graph, so the crosscheck reads no Ext into A at any level
    from monosing import linalg

    assert injective_dimension_profile(z3r2).level == 0
    assert injective_dimension_profile(glu).level == 1  # resolves glu's non-cyclic summands
    builds = counting(monkeypatch, "regular_rep")
    solves = []
    real_nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace",
                        lambda *args: solves.append(args) or real_nullspace(*args))
    assert crosscheck_classification(z3r2)["homological_classes"] == 3
    assert crosscheck_classification(glu)["homological_classes"] == 12
    assert builds == [] and solves == []


def dense_resolution_reference(M, depth):
    """resolve(pres, M, depth=depth) as it was before the one Ext rule:
    ``depth`` dense steps, or fewer when the syzygy dies, with the image in
    P_(k-1) of each generator of P_k, the kernel vector it lifts, as a sparse
    vector {column: entry}.  Returns (layers, differentials, syzygies)."""
    from monosing.oracle import _module_cover, syzygy_step, top_lifts

    layers, diffs, syzygies = [], [], []
    cur, kernel = M, None
    while len(layers) < depth and not cur.is_zero():
        layer, _ = _module_cover(cur)
        layers.append(layer)
        lifts = top_lifts(cur)  # the generators of P_k, in the cover's order
        diffs.append(None if kernel is None else
                     [(v, kernel[v][j]) for v in cur.support for j in lifts[v]])
        _, _, cur, kernel = syzygy_step(cur)
        syzygies.append(cur)
    return layers, diffs, syzygies


def word_matrix_reference(N, word):
    """The dense matrix of a nonempty composition-order word on N: column j
    is the image of basis vector j under ``N.image``, the last arrow first."""
    from monosing import linalg as la

    q = N.pres.quiver
    cols = N.dims[q.source(word[-1])]
    m = la.zeros(N.dims[q.target(word[0])], cols)
    for j in range(cols):
        vec = {j: 1}
        for name in reversed(word):
            vec = N.image(name, vec)
        for i, x in vec.items():
            m[i][j] = x
    return m


def hom_complex_matrix_reference(layer_from, diffs, layer_to, N):
    """The matrix of Hom(P_(k-1), N) -> Hom(P_k, N) induced by d_k, as the
    oracle built it before the one Ext rule: Hom(P, N) is stacked per
    generator as N_v blocks, and ``diffs`` gives each generator of P_k its
    image as (vertex, sparse vector over layer_to.pbasis[vertex])."""
    from monosing import linalg as la

    col_offsets, off = [], 0
    for v, _ in layer_to.gens:
        col_offsets.append(off)
        off += N.dims[v]
    ncols = off
    row_offsets, off = [], 0
    for v, _ in layer_from.gens:
        row_offsets.append(off)
        off += N.dims[v]
    m = la.zeros(off, ncols)
    for gi, (v, _) in enumerate(layer_from.gens):
        w, vec = diffs[gi]
        assert w == v
        for pos, coeff in vec.items():
            gj, x = layer_to.pbasis[w][pos]
            tv = layer_to.gens[gj][0]
            block = (la.identity(N.dims[tv]) if x.is_trivial
                     else word_matrix_reference(N, x.arrows))
            for i in range(N.dims[v]):
                for j in range(N.dims[tv]):
                    m[row_offsets[gi] + i][col_offsets[gj] + j] += coeff * block[i][j]
    return m


def dense_ext_reference(dense, N, k):
    """Ext^k as _ext_from_trace read it before the one Ext rule: dim
    Hom(P_k, N) less the ranks of the Hom-complex maps into and out of it,
    ``dense`` a dense_resolution_reference of depth at least k + 2."""
    from monosing import linalg as la

    layers, diffs, syzygies = dense
    if len(layers) <= k and (not syzygies or syzygies[-1].is_zero()):  # pd < k
        return 0
    ranks = 0
    for step in (k, k + 1):
        if step < len(layers):
            d = hom_complex_matrix_reference(layers[step], diffs[step], layers[step - 1], N)
            ranks += la.rank(d) if d and d[0] else 0
    return sum(N.dims[v] for v, _ in layers[k].gens) - ranks


def ext_rule_cases():
    """(pres, modules, targets): path modules, injective summands and
    simples, into A and every simple, over the fixtures, loc1, 40 seeded
    draws and a few gentle and Nakayama algebras, and their opposites."""
    from monosing.corpus import random_gentle_presentation, random_presentation
    from monosing.oracle import injective_summand_rep

    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(40)]
    presentations += [random_gentle_presentation(rng) for _ in range(4)]
    presentations += [nakayama(n, m) for n, m in ((1, 4), (3, 3), (4, 2))]
    for pres in presentations + [pres.opposite() for pres in presentations]:
        vertices = pres.quiver.vertices
        modules = [path_module_rep(pres, p) for p in pres.basis().nontrivial()]
        modules += [injective_summand_rep(pres, v) for v in vertices]
        modules += [simple_rep(pres, v) for v in vertices]
        yield pres, modules, [regular_rep(pres)] + [simple_rep(pres, v) for v in vertices]


def test_ext_rule_matches_the_hom_complex():
    compared = nonzero = 0
    for pres, modules, targets in ext_rule_cases():
        for M in modules:
            dense = dense_resolution_reference(M, 5)
            for N in targets:
                for k in (1, 2, 3):
                    want = dense_ext_reference(dense, N, k)
                    assert ext_dim(M, N, k) == want, (pres.quiver.vertices, k)
                    compared += 1
                    nonzero += want != 0 and k >= 2 and N is not targets[0]
    # Ext^k(M, S) != 0 for some k >= 2 into a simple, so reading 0 would show
    assert compared > 5000 and nonzero > 100, (compared, nonzero)


def test_ext_rule_needs_its_hom_term(monkeypatch):
    # the rule without hom(X, N) disagrees with the Hom complex somewhere
    monkeypatch.setattr(oracle, "_ext1", lambda hom_omega, top, hom_x: hom_omega - top)
    pres, modules, targets = next(ext_rule_cases())
    wrong = 0
    for M in modules:
        dense = dense_resolution_reference(M, 3)
        wrong += any(ext_dim(M, N, 1) != dense_ext_reference(dense, N, 1) for N in targets)
    assert wrong


def test_a_trace_without_a_split_is_read_only_on_its_dense_steps():
    # a backstop trace has no classes: Ext past its dense steps is refused
    # rather than read off a second resolution
    import dataclasses
    import random

    from monosing.corpus import DEFAULT_SEED, random_presentation
    from monosing.oracle import _ext_from_trace, injective_summand_rep

    rng = random.Random(DEFAULT_SEED)
    pres = [random_presentation(rng) for _ in range(372)][371]
    D = injective_summand_rep(pres, "2")
    M = Representation(pres, D.dims, D.mats)  # splits only at Omega^3
    tr = resolve(M)
    backstop = dataclasses.replace(tr, classes=None, status=PERIODIC, pd=None)
    A = regular_rep(pres)
    dense = dense_resolution_reference(M, 5)
    for k in (1, 2, 3):
        assert _ext_from_trace(backstop, A, k) == dense_ext_reference(dense, A, k)
    with pytest.raises(InternalInvariantViolation, match="no split"):
        _ext_from_trace(backstop, A, 4)


def test_foreign_modules_raise_presentation_mismatch(z3r2, lin):
    from monosing.errors import PresentationMismatch

    foreign = simple_rep(lin, "1")  # z3r2 has a vertex "1" too
    S = simple_rep(z3r2, "1")
    for M, N in ((foreign, S), (S, foreign)):
        with pytest.raises(PresentationMismatch):
            ext_dim(M, N, 1)
    with pytest.raises(ValueError, match="k >= 1"):
        ext_dim(S, S, 0)


def test_level_bounded_verdicts_match_full_resolutions():
    # the GP verdict read off the full resolution by the one Ext rule must
    # agree with Ext^1..Ext^d from the Hom complex of a dense depth-(d+2)
    # resolution, the rule it replaced
    presentations = [load(name) for name in FIXTURE_NAMES]
    presentations += gorenstein_corpus(seeded_rng(), 20)
    levels = set()
    checked = 0
    for pres in presentations:
        d = injective_dimension_profile(pres).level
        levels.add(d)
        A = regular_rep(pres)
        for M in non_projective_path_modules(pres):
            full = resolve(M)
            assert full.status in (FINITE, PERIODIC)
            dense = dense_resolution_reference(M, d + 2)
            expected = (all(dense_ext_reference(dense, A, k) == 0 for k in range(1, d + 1))
                        and is_torsionless(M))
            assert gorenstein_projective_test(M) == expected
            checked += 1
    assert {0, 1, 2} <= levels
    assert checked >= 30


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
                    tr = resolve(M)
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
    graded = resolve(M)
    ungraded = resolve(Representation(pres, M.dims, M.mats))
    assert len(graded.layers) == 3 and len(ungraded.layers) == 4
    assert graded.status == ungraded.status == PERIODIC
    assert dense_reference(pres, M) == (PERIODIC, None)


def test_degree_shift_needs_graded_modules(z3r2):
    M = path_module_rep(z3r2, z3r2.quiver.arrow_path("a1"))
    ungraded = Representation(z3r2, M.dims, M.mats)
    with pytest.raises(ValueError, match="the source has no degrees"):
        stable_hom_dim(ungraded, M, degree_shift=0)
    with pytest.raises(ValueError, match="the target has no degrees"):
        stable_hom_dim(M, ungraded, degree_shift=0)
    assert stable_hom_dim(ungraded, M) == stable_hom_dim(M, M, degree_shift=0) == 1


def test_hom_by_generator_images_needs_a_generator(z3r2):
    from monosing.oracle import _iso_witness, hom_basis_from_cyclic

    A = regular_rep(z3r2)  # no key
    for call in (hom_basis_from_cyclic, _iso_witness):
        with pytest.raises(ValueError, match="no generator"):
            call(A, regular_rep(z3r2))
    assert A.key is None
    assert stable_hom_dim(A, A) == 0 and hom_dim(A, A) >= 1  # the family path serves it


def path_builder_reference(pres, p):
    """The cyclic module on p built from its basis {q'p}, as path_module_rep
    did before it became the class module of p's survivor key: dense 0/1
    matrices, an arrow sending each basis path to its left multiple or to 0."""
    basis, _ = pres.cyclic_module_basis(p)
    by_vertex, index = {}, {}
    for w in basis:
        placed = by_vertex.setdefault(w.target, [])
        index[w.arrows] = len(placed)
        placed.append((None, w))
    dims = {v: len(placed) for v, placed in by_vertex.items()}
    mats = {}
    for a in pres.quiver.arrows:
        if a.source in dims and a.target in dims:
            m = mats[a.name] = [[0] * dims[a.source] for _ in range(dims[a.target])]
            for j, (_, w) in enumerate(by_vertex[a.source]):
                i = index.get((a.name,) + w.arrows)
                if i is not None:
                    m[i][j] = 1
    labels = {v: tuple(w.arrows[: w.length - p.length] for _, w in by_vertex[v])
              for v in by_vertex}
    degrees = {v: tuple(len(act) for act in labels[v]) for v in labels}
    assert by_vertex[p.target][0] == (None, p)  # the generator comes first
    key = (p.target, frozenset(act for acts in labels.values() for act in acts))
    return Representation(pres, dims, mats, degrees=degrees, key=key)


def test_path_module_rep_matches_the_path_builder():
    from monosing.corpus import random_presentation

    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(100)]
    checked = 0
    for pres in presentations:
        for p in pres.basis():
            M, R = path_module_rep(pres, p), path_builder_reference(pres, p)
            assert (M.dims, M.mats, M.degrees, M.key) == \
                   (R.dims, R.mats, R.degrees, R.key), (str(p), pres.quiver.vertices)
            checked += 1
        q = next(iter(pres.basis()))
        assert path_module_rep(pres, q) is not path_module_rep(pres, q)  # a fresh module each call
    assert checked > 400


def test_graded_cyclic_hom_matches_hom_basis():
    from monosing.oracle import hom_basis, hom_basis_from_cyclic

    nonzero = 0
    for name in FIXTURE_NAMES:
        pres = load(name)
        modules = [path_module_rep(pres, p) for p in pres.basis()]
        for M in modules:
            for N in modules:
                for s in range(-2, 3):
                    ys, build = hom_basis_from_cyclic(M, N, degree_shift=s)
                    assert len(ys) == len(hom_basis(M, N, degree_shift=s))
                    for y in ys:  # every built family is a graded module map
                        fam = build(y)
                        for v in pres.quiver.vertices:
                            for i, row in enumerate(fam[v]):
                                for j, x in enumerate(row):
                                    assert not x or N.degrees[v][i] == M.degrees[v][j] + s
                    nonzero += bool(ys) and s != 0
    assert nonzero > 100


def dense_tilting_reference(pres, extra):
    """The tilting check's former dense procedure: W is the direct sum of the
    path modules A.p of infinite pd, one per nontrivial nonzero path, and
    Omega^d W .. Omega^(d+extra) W come from dense graded syzygy steps."""
    from monosing.oracle import direct_sum, syzygy_step

    d = injective_dimension_profile(pres).level
    chosen = [p for p in pres.basis().nontrivial()
              if resolve(path_module_rep(pres, p)).status == PERIODIC]
    cur = direct_sum(pres, [path_module_rep(pres, p) for p in chosen])
    for _ in range(d):
        _, _, cur, _ = syzygy_step(cur)
    out = [cur]
    for _ in range(extra):
        _, _, cur, _ = syzygy_step(cur)
        out.append(cur)
    return out


def class_omega(pres, summands):
    """Omega of a multiset of (class key, generator degree) summands, with
    the projective classes dropped."""
    from collections import Counter

    from monosing.oracle import _class_children

    out = Counter()
    for (key, d), mult in summands.items():
        for c, s in _class_children(pres, key):
            if not pres.key_is_projective(c):
                out[(c, d + s)] += mult
    return out


def test_tilting_class_pairs_match_the_dense_stable_hom():
    from collections import Counter

    from monosing.oracle import _class_stable_hom, _omega_classes

    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    presentations += [nakayama(n, m) for m in range(2, 5) for n in range(1, 9)]
    presentations += gorenstein_corpus(seeded_rng(), 100)
    checked = nonzero = 0
    for pres in presentations:
        prof = injective_dimension_profile(pres)
        if not prof.gorenstein:
            continue
        dense = dense_tilting_reference(pres, 3)
        # the same direct sums as multisets of (class key, generator degree)
        cur = Counter((key, 0) for key in map(pres.survivor_key, pres.basis().nontrivial())
                      if not pres.key_is_projective(key))
        for _ in range(prof.level):
            nxt = class_omega(pres, cur)
            assert set(nxt) == _omega_classes(pres, set(cur))
            cur = nxt
        classes = [cur]
        for _ in range(3):
            classes.append(class_omega(pres, classes[-1]))
        X0 = list(classes[0].elements())
        for Y_dense, Y in zip(dense, classes):
            for shift in (0, -1, -2, 1):
                want = stable_hom_dim(Y_dense, dense[0], degree_shift=shift)
                got = _class_stable_hom(pres, [(c, d + shift) for c, d in Y.elements()], X0)
                assert got == want, (pres.quiver.vertices, shift)
                nonzero += want != 0
        checked += 1
    assert checked >= 100 and nonzero >= 200, (checked, nonzero)


def test_class_stable_hom_counts_words_pair_by_pair():
    # the tilting check's count against the stable Hom of the built class
    # modules, one class pair and shift at a time, so that errors cannot
    # cancel in a sum
    from monosing.oracle import _class_rep, _class_stable_hom

    checked = nonzero = 0
    for pres in class_rule_corpus():
        keys = [key for key in dict.fromkeys(map(pres.survivor_key, pres.basis()))
                if not pres.key_is_projective(key)][:10]
        modules = {key: _class_rep(pres, key) for key in keys}
        for c in keys:
            for c0 in keys:
                for s in (-1, 0, 1, 2, 3):
                    want = stable_hom_dim(modules[c], modules[c0], degree_shift=s)
                    got = _class_stable_hom(pres, [(c, s)], [(c0, 0)])
                    assert got == want, (pres.quiver.vertices, c, c0, s)
                    checked += 1
                    nonzero += want != 0
    assert checked > 10000 and nonzero > 500, (checked, nonzero)


def family_stable_hom_reference(M, N, degree_shift=None):
    """stable_hom_dim from the dense hom_basis: families of Hom(M, N) and
    Hom(M, P_N), composed with the cover of N."""
    from monosing import linalg as la
    from monosing.oracle import _cover_matrix, hom_basis, projective_cover

    homs = hom_basis(M, N, degree_shift=degree_shift)
    if not homs:
        return 0
    layer, cover = projective_cover(N)
    common = [v for v in M.support if N.dims[v]]
    image = [[x for v in common for row in la.mat_mul(_cover_matrix(N, cover, v), g[v])
              for x in row]
             for g in hom_basis(M, layer.rep, degree_shift=degree_shift)]
    if not image:
        return len(homs)
    return len(homs) - la.rank(image)


def family_torsionless_reference(M):
    """is_torsionless from the dense hom_basis: one family per map M -> A,
    stacked at each support vertex."""
    from monosing import linalg as la
    from monosing.oracle import hom_basis

    fams = hom_basis(M, regular_rep(M.pres))
    for v in M.support:
        rows = [row for fam in fams for row in fam[v]]
        if not rows or la.rank(rows) < M.dims[v]:
            return False
    return True


def test_generator_images_match_the_family_path():
    from monosing.corpus import random_presentation

    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(50)]
    presentations += [nakayama(n, m) for n, m in ((1, 4), (3, 3), (2, 5), (5, 4))]
    counts = {"pairs": 0, "nonzero": 0, "torsionless": 0, "not torsionless": 0}
    for pres in presentations:
        keys = dict.fromkeys(pres.survivor_key(p) for p in pres.basis())
        # class modules embed in A; the simples give torsionless tests that fail
        modules = [oracle._class_rep(pres, key) for key in keys]
        modules += [simple_rep(pres, v) for v in pres.quiver.vertices]
        for M in modules:
            want = family_torsionless_reference(M)
            assert is_torsionless(M) == want, (pres.quiver.vertices, M.key)
            counts["torsionless" if want else "not torsionless"] += 1
            for N in modules:
                for s in (None, -2, -1, 0, 1, 2):
                    want = family_stable_hom_reference(M, N, s)
                    assert stable_hom_dim(M, N, s) == want, (pres.quiver.vertices, M.key, s)
                    counts["pairs"] += 1
                    counts["nonzero"] += want != 0
    assert counts["pairs"] > 20000 and counts["nonzero"] > 1000, counts
    assert counts["torsionless"] > 300 and counts["not torsionless"] > 30, counts


def test_stable_hom_from_modules_without_a_key_matches_the_family_path():
    # the regular module, every non-cyclic D(e_v A) and its first syzygy,
    # which keeps sparse columns: no source has a generator to read.  The
    # dense reference solves for dim M_v x dim N_v unknowns per vertex, so
    # modules above 40 dimensions are left out to bound its cost
    from monosing.corpus import random_presentation
    from monosing.oracle import _injective_summand_key, injective_summand_rep, syzygy_rep

    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(40)]
    pairs = nonzero = 0
    for pres in presentations:
        modules = [regular_rep(pres)]
        for v in pres.quiver.vertices:
            if _injective_summand_key(pres, v) is None:
                D = injective_summand_rep(pres, v)
                modules += [D, syzygy_rep(D)]
        modules = [M for M in modules if M.total_dim <= 40]
        assert all(M.key is None for M in modules)
        for M in modules:
            for N in modules:
                for s in (None, -1, 0, 1):
                    want = family_stable_hom_reference(M, N, s)
                    assert stable_hom_dim(M, N, s) == want, (pres.quiver.vertices, s)
                    pairs += 1
                    nonzero += want != 0
    assert pairs > 600 and nonzero > 60, (pairs, nonzero)


def test_hom_from_a_class_module_follows_its_generator(monkeypatch):
    from collections import Counter

    from monosing import linalg
    from monosing.oracle import hom_basis_from_cyclic

    # no coordinate of N_{v0} in the required degree: nothing to solve
    z3r2 = load("z3r2")
    M = path_module_rep(z3r2, z3r2.quiver.arrow_path("a1"))
    real_nullspace, real_zeros = linalg.nullspace, linalg.zeros
    calls = Counter()

    def nullspace(*args):
        calls["nullspace"] += 1
        return real_nullspace(*args)

    with monkeypatch.context() as m:
        m.setattr(linalg, "nullspace", nullspace)
        assert set(M.degrees[M.key[0]]) == {0}
        ys, _ = hom_basis_from_cyclic(M, M, degree_shift=3)
        assert ys == [] and stable_hom_dim(M, M, degree_shift=3) == 0
        assert calls == Counter()
        assert stable_hom_dim(M, M, degree_shift=0) == 1 and calls["nullspace"] > 0

    # a map family is filled on its source's support; other vertices read as zero
    def build_zeros(pres):
        M = oracle._class_rep(pres, pres.survivor_key(tpath(pres, "t1")))
        (y,), build = hom_basis_from_cyclic(M, M)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(linalg, "zeros", lambda *args: calls.update(["zeros"]) or real_zeros(*args))
            fam = build(y)
        assert M.support == ("2", "3") and fam["2"] == fam["3"] == [[1]]
        assert fam["1"] == [] and fam["4"] == []
        return calls["zeros"]

    assert build_zeros(nakayama(6, 3)) == build_zeros(nakayama(96, 3))

    # a tilting check counts words between class keys: it builds no class
    # module, takes no cover and solves nothing
    pres = nakayama(12, 4)
    injective_dimension_profile(pres)
    builds = counting(monkeypatch, "_class_rep")
    covered = counting(monkeypatch, "projective_cover")
    calls.clear()
    with monkeypatch.context() as m:
        m.setattr(linalg, "nullspace", nullspace)
        assert verify_omega_T_ext_vanishing(pres, 96)
    assert builds == covered == [] and calls == Counter()


def test_resolution_work_follows_the_support(monkeypatch):
    # the injective summand at vertex 1 of Z_n R_3 lives on three vertices;
    # building and resolving it must cost the same on 6 vertices as on 96
    from monosing import linalg
    from monosing.oracle import injective_summand_rep

    def work(pres):
        counts = {"zeros": 0, "builds": 0}
        real_zeros, real_init = linalg.zeros, Representation.__init__

        def zeros(*args):
            counts["zeros"] += 1
            return real_zeros(*args)

        def init(self, *args, **kwargs):
            counts["builds"] += 1
            real_init(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(linalg, "zeros", zeros)
            m.setattr(Representation, "__init__", init)
            tr = resolve(injective_summand_rep(pres, "1"))
        assert (tr.status, tr.pd) == (FINITE, 0)
        return counts

    small, large = work(nakayama(6, 3)), work(nakayama(96, 3))
    assert small == large and small["builds"] > 0


def dense_cover_reference(rep):
    """top_lifts, _build_projective and projective_cover as they were before
    modules carried their support: every vertex and arrow of the quiver."""
    from monosing import linalg as la
    from monosing.oracle import ProjectiveLayer

    pres = rep.pres
    q = pres.quiver
    gens = []
    for v in q.vertices:
        n = rep.dims[v]
        if n == 0:
            continue
        rad_cols = []
        for a in q.arrows_into[v]:
            m = rep.mats[a.name]
            for j in range(rep.dims[a.source]):
                rad_cols.append([m[i][j] for i in range(n)])
        stacked = [[col[i] for col in rad_cols] + [1 if k == i else 0 for k in range(n)]
                   for i in range(n)]
        for p in la.pivot_columns(stacked):
            if p >= len(rad_cols):
                j = p - len(rad_cols)
                gens.append((v, rep.degrees[v][j] if rep.degrees is not None else 0, j))
    pbasis = {v: [] for v in q.vertices}
    index = {}
    for gi, (v, _, _) in enumerate(gens):
        for x in pres.basis().from_vertex(v):
            index[(gi, x.arrows)] = len(pbasis[x.target])
            pbasis[x.target].append((gi, x))
    dims = {v: len(pbasis[v]) for v in q.vertices}
    mats = {}
    for a in q.arrows:
        m = la.zeros(dims[a.target], dims[a.source])
        for j, (gi, x) in enumerate(pbasis[a.source]):
            i = index.get((gi, (a.name,) + x.arrows))
            if i is not None:
                m[i][j] = 1
        mats[a.name] = m
    degrees = {v: tuple(gens[gi][1] + x.length for gi, x in pbasis[v]) for v in q.vertices}
    P = Representation(pres, dims, mats, degrees=degrees, validate=False)
    images = {}
    for gi, (v, _, j) in enumerate(gens):
        images[(gi, ())] = [int(i == j) for i in range(rep.dims[v])]
    cover = {}
    for v in q.vertices:
        m = la.zeros(rep.dims[v], dims[v])
        for col, (gi, x) in enumerate(pbasis[v]):
            word = x.arrows
            stack = []
            while (gi, word) not in images:
                stack.append(word)
                word = word[1:]
            while stack:
                word = stack.pop()
                images[(gi, word)] = la.mat_vec(rep.mats[word[0]], images[(gi, word[1:])])
            for i, val in enumerate(images[(gi, x.arrows)]):
                m[i][col] = val
        cover[v] = m
    layer = ProjectiveLayer(gens=[(v, d) for v, d, _ in gens], pbasis=pbasis, rep=P)
    return layer, cover


def dense_syzygy_reference(rep):
    """syzygy_step as it was before modules carried their support."""
    from monosing import linalg as la

    pres = rep.pres
    q = pres.quiver
    layer, cover = dense_cover_reference(rep)
    P = layer.rep
    kernel = {}
    for v in q.vertices:
        groups = {}
        for j in range(P.dims[v]):
            groups.setdefault(P.degrees[v][j] if rep.degrees is not None else None, []).append(j)
        kernel[v] = []
        for dkey in sorted(groups, key=lambda x: (x is not None, x)):
            idx = groups[dkey]
            sub = [[row[j] for j in idx] for row in cover[v]]
            for vec in la.nullspace(sub, len(idx)):
                full = [0] * P.dims[v]
                for pos, j in enumerate(idx):
                    full[j] = vec[pos]
                kernel[v].append(full)
        for vec in kernel[v]:  # minimality
            assert not any(vec[j] for j, (_, x) in enumerate(layer.pbasis[v]) if x.is_trivial)
    dims = {v: len(kernel[v]) for v in q.vertices}
    mats = {}
    for a in q.arrows:
        m = la.zeros(dims[a.target], dims[a.source])
        images = [(j, la.mat_vec(P.mats[a.name], vec)) for j, vec in enumerate(kernel[a.source])]
        images = [(j, img) for j, img in images if any(img)]
        if images:  # one solve per arrow, with every nonzero image as a right-hand side
            sols = la.solve_many(la.transpose(kernel[a.target]), [img for _, img in images])
            for (j, _), sol in zip(images, sols):
                for i in range(dims[a.target]):
                    m[i][j] = sol[i]
        mats[a.name] = m
    degrees = None
    if rep.degrees is not None:
        degrees = {v: tuple(P.degrees[v][next(i for i, x in enumerate(vec) if x)]
                            for vec in kernel[v]) for v in q.vertices}
    return Representation(pres, dims, mats, degrees=degrees, validate=False)


def module_data(M):
    arrows = M.pres.quiver.arrows
    return M.dims, {a.name: M.mats[a.name] for a in arrows}, M.degrees


def test_support_walks_match_the_dense_steps():
    # dense steps over the whole quiver, with the rule resolve used before it
    # took the cover's split before the kernel: the kernel dies (Finite) or
    # the size cap is hit; the syzygies syzygy_step builds, and those of
    # resolve's dense head, must be the dense ones, and the status and pd
    # must agree wherever the cap decides
    from monosing.corpus import random_presentation
    from monosing.oracle import injective_summand_rep, syzygy_step

    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(50)]
    outcomes = {}
    compared = 0
    for pres in presentations:
        for pr in (pres, pres.opposite()):
            for v in pr.quiver.vertices:
                for M in (injective_summand_rep(pr, v), simple_rep(pr, v)):
                    syzygies = []
                    cur = M
                    while cur.total_dim <= 60 and len(syzygies) < 8:
                        cur = dense_syzygy_reference(cur)
                        syzygies.append(cur)
                        if cur.is_zero():
                            break
                    cut = []
                    cur = M
                    while len(cut) < len(syzygies) and not cur.is_zero():
                        _, _, cur, _ = syzygy_step(cur)
                        cut.append(cur)
                    assert [module_data(S) for S in cut] == [module_data(S) for S in syzygies]
                    compared += len(cut)
                    tr = resolve(M)
                    for S, R in zip(tr.syzygies, syzygies):
                        assert module_data(S) == module_data(R)
                    if syzygies[-1].is_zero():
                        assert (tr.status, tr.pd) == (FINITE, len(syzygies) - 1)
                        outcomes[FINITE] = outcomes.get(FINITE, 0) + 1
                    else:
                        assert tr.status in (FINITE, PERIODIC)
                        outcomes[tr.status] = outcomes.get(tr.status, 0) + 1
    assert outcomes.get(FINITE, 0) > 300 and outcomes.get(PERIODIC, 0) > 80, outcomes
    assert compared > 1000, compared
    # the heavy draw's non-cyclic summands at step 1 only: their first
    # syzygies reach dimension 1,072, far past the cap above
    heavy = heavy_draw()
    noncyclic = 0
    for pr in (heavy, heavy.opposite()):
        for v in pr.quiver.vertices:
            if oracle._injective_summand_key(pr, v) is None:
                M = injective_summand_rep(pr, v)
                _, _, S, _ = syzygy_step(M)
                assert module_data(S) == module_data(dense_syzygy_reference(M))
                noncyclic += 1
    assert noncyclic == 11


def heavy_draw():
    """The 4th draw of random_presentation(Random(174011), 10, 16, 6): 9
    vertices, 15 arrows and one relation of length 4, whose 11 non-cyclic
    injective summands have first syzygies of dimension up to 1,072."""
    import random

    from monosing.corpus import random_presentation

    rng = random.Random(174011)
    return [random_presentation(rng, 10, 16, 6) for _ in range(4)][-1]


# sha256 of json.dumps(..., sort_keys=True) of the heavy draw's trace report
# and profile, pinned before the index maps
HEAVY_SHA256 = {
    "resolution_trace_report":
        "3d1daba4fc7261636e65dde4c4f7fbf585add3082a21d9570bd5c1dc2809df5a",
    "profile": "fdd98b9cdb3220e0b01667d1eddfa108fea7288c26c651e7ef9da3a7467db74e",
}


def test_every_non_cyclic_dual_summand_splits_within_two_kernels():
    # the resolution premise: a non-cyclic D(e_v A) is no sum of cyclic
    # modules, so its first cover certifies no split, and the cover after
    # one or two kernels does, on both sides of every input; so no verdict
    # rests on resolve's finite-pd backstop
    from collections import Counter

    from monosing.corpus import random_gentle_presentation, random_presentation

    rng = seeded_rng()
    presentations = class_rule_corpus() + [heavy_draw()]
    presentations += [random_presentation(rng, 6, 9, 4) for _ in range(150)]
    presentations += [random_presentation(rng, 8, 12, 5) for _ in range(50)]
    presentations += [random_gentle_presentation(rng, 12, 18) for _ in range(50)]
    kernels = Counter()
    for pres in presentations:
        for pr in (pres, pres.opposite()):
            for v in pr.quiver.vertices:
                if oracle._injective_summand_key(pr, v) is None:
                    trace = oracle._summand_trace(pr, v)
                    assert trace.classes is not None, (presentation_to_text(pr), v)
                    kernels[len(trace.syzygies)] += 1
    assert set(kernels) == {1, 2} and kernels[2] > 10, kernels


def test_the_fibre_rule_matches_the_dense_step():
    # the fibre rule reads P0, Omega^1's dimension and its top generators'
    # classes off the maximal paths into v; the dense step builds D(e_v A),
    # covers it and covers its kernel.  The ranks, the dimension and the top
    # count are invariants of the minimal resolution; the certificate holds
    # exactly when the dense cover of Omega^1 splits, and then the classes
    # come in the dense order, so the walk from them, periodic ones
    # included, is the dense trace
    from collections import Counter

    from monosing.corpus import random_gentle_presentation, random_presentation
    from monosing.oracle import (ResolutionTrace, _class_walk, _fibre_split,
                                 _injective_summand_key, _summand_trace,
                                 injective_summand_rep)

    rng = seeded_rng()
    presentations = class_rule_corpus()
    presentations += [random_presentation(rng) for _ in range(300)]
    presentations += [random_gentle_presentation(rng, 12, 18) for _ in range(100)]
    presentations += [random_presentation(rng, 6, 9, 4) for _ in range(300)]
    seen = Counter()
    for pres in presentations:
        for pr in (pres, pres.opposite()):
            for v in pr.quiver.vertices:
                if _injective_summand_key(pr, v) is not None:
                    continue
                gens, dim, classes, split = _fibre_split(pr, v)
                dense = resolve(injective_summand_rep(pr, v))
                where = (presentation_to_text(pr), v)
                assert gens == dense.layers[0].gens, where
                assert dim == dense.syzygies[0].total_dim, where
                assert Counter(u for u, _ in classes) == \
                    Counter(u for u, _ in dense.layers[1].gens), where
                assert split == (len(dense.syzygies) == 1), where
                seen["noncyclic"] += 1
                if not split:
                    seen["uncertified"] += 1
                    continue
                assert classes == dense.classes, where
                outcome = (dense.status, dense.pd, dense.detail)
                walk = _class_walk(pr, ResolutionTrace(module=None), classes, 2)
                assert (walk.status, walk.pd, walk.detail) == outcome, where
                trace = _summand_trace(pr, v)
                assert trace.module is None, where
                assert (trace.status, trace.pd, trace.detail) == outcome, where
                seen[walk.status] += 1
    # the floors fail, even without the top count above, when a group of
    # signed pairs with a zero member still gives a generator (no ground),
    # or when a fibre is not grouped by the arrow before q; the ordered
    # classes fail without the sort, or with the degree left out of it
    assert seen[FINITE] > 550 and seen[PERIODIC] > 220, seen
    assert seen[FINITE] + seen[PERIODIC] > 800, seen
    assert seen["uncertified"] < seen["noncyclic"] / 8, seen


def test_the_heavy_draw_reports_are_pinned():
    import hashlib
    import json

    from monosing.oracle import resolution_trace_report

    pres = heavy_draw()
    reports = {"profile": injective_dimension_profile(pres).to_json(),
               "resolution_trace_report": resolution_trace_report(pres)}
    for name, report in reports.items():
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == HEAVY_SHA256[name], name


def test_index_maps_give_the_dense_cover_and_kernel():
    # the same module with and without index maps, graded and ungraded, has
    # the same top lifts, cover and kernel basis, free columns included
    from monosing.oracle import (_cover_matrix, _kernel_blocks, injective_summand_rep,
                                 projective_cover, top_lifts)

    checked = 0
    for pres in class_rule_corpus():
        for pr in (pres, pres.opposite()):
            modules = [regular_rep(pr)] + [build(pr, v) for v in pr.quiver.vertices
                                           for build in (injective_summand_rep, simple_rep)]
            for M in modules:
                for degrees in (M.degrees, None):
                    mapped = Representation(pr, M.dims, degrees=degrees, maps=M.maps)
                    dense = Representation(pr, M.dims, M.mats, degrees=degrees)
                    assert dense.maps is None  # the dense matrices' sparse columns
                    assert top_lifts(mapped) == top_lifts(dense)
                    (layer, cover), (dense_layer, dense_cover) = \
                        projective_cover(mapped), projective_cover(dense)
                    assert layer.gens == dense_layer.gens
                    assert {v: _cover_matrix(mapped, cover, v) for v in cover} == \
                        {v: _cover_matrix(dense, dense_cover, v) for v in dense_cover}
                    assert _kernel_blocks(mapped, layer, cover) == \
                        _kernel_blocks(dense, dense_layer, dense_cover)
                    checked += 1
    assert checked > 2000, checked


def dense_top_lifts_reference(M):
    """top_lifts as it was on a module without maps: the identity columns
    that la.pivot_columns keeps in [images of the arrows into v | identity],
    stacked from the dense ``mats`` view."""
    from monosing import linalg as la

    lifts = {}
    for v in M.support:
        n = M.dims[v]
        into = [a.name for a in M.pres.quiver.arrows_into[v] if M.dims[a.source]]
        if not into:
            lifts[v] = list(range(n))
            continue
        stacked = [[x for a in into for x in M.mats[a][i]] + [int(k == i) for k in range(n)]
                   for i in range(n)]
        rad = len(stacked[0]) - n
        lifts[v] = [p - rad for p in la.pivot_columns(stacked) if p >= rad]
    return lifts


def test_sparse_top_lifts_and_covers_match_the_dense_reference(monkeypatch):
    # every module resolve covers, with maps or sparse columns, against the
    # dense rules on its mats view: the top lifts of [R | I], and each cover
    # column as mat_vec images of the top lift it grows from
    from monosing import linalg as la
    from monosing.corpus import random_presentation
    from monosing.oracle import _cover_matrix, injective_summand_rep, top_lifts

    covered = []
    real_cover = oracle._module_cover
    monkeypatch.setattr(oracle, "_module_cover",
                        lambda M: covered.append(M) or real_cover(M))
    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(50)]
    for pres in presentations + [heavy_draw()]:
        for pr in (pres, pres.opposite()):
            for v in pr.quiver.vertices:
                if oracle._injective_summand_key(pr, v) is None:
                    D = injective_summand_rep(pr, v)
                    resolve(D)
                    if pres in presentations:  # ungraded, a column module from step 1 on
                        resolve(Representation(pr, D.dims, D.mats))
    covered = list({id(M): M for M in covered}.values())  # syzygy_step reads the cover again
    forms = {"maps": 0, "columns": 0}
    columns = 0
    for M in covered:
        lifts = top_lifts(M)
        assert lifts == dense_top_lifts_reference(M)
        tops = [(u, j) for u in M.support for j in lifts[u]]  # per generator of P
        layer, cover = real_cover(M)
        for v, placed in layer.pbasis.items():
            dense = []
            for gi, x in placed:
                u, j = tops[gi]
                image = [int(i == j) for i in range(M.dims[u])]
                for a in reversed(x.arrows):
                    image = la.mat_vec(M.mats[a], image)
                dense.append(image)
            block = _cover_matrix(M, cover, v)
            assert [[row[j] for row in block] for j in range(len(placed))] == dense
            columns += len(placed)
        forms["maps" if M.maps is not None else "columns"] += 1
    assert forms["maps"] > 50 and forms["columns"] > 150, forms
    assert max(M.total_dim for M in covered) == 1072 and columns > 10000, columns


def test_a_copy_of_the_mats_view_is_the_module(glu):
    # mats is built in full from the primary form on first read, so a module
    # made from it is the same module, whichever form the original holds
    from monosing.oracle import _build_projective, _class_rep, injective_summand_rep, syzygy_step

    D = injective_summand_rep(glu, "1")
    _, _, S, _ = syzygy_step(injective_summand_rep(glu, "1"))
    modules = [_build_projective(glu, [("1", 0), ("2", 1)]).rep,
               _class_rep(glu, glu.survivor_key(glu.quiver.arrow_path("t1"))), D, S]
    assert [M.maps is not None for M in modules] == [True, True, True, False]
    for M in modules:
        copy = Representation(glu, M.dims, M.mats, degrees=M.degrees)  # validates
        assert copy.maps is None and module_data(copy) == module_data(M)


def test_index_maps_are_validated(z2r3):
    # a map must fit its ends, and every relation must act by zero through it
    dims = {"1": 1, "2": 1}
    with pytest.raises(InternalInvariantViolation, match="leaves the target space"):
        Representation(z2r3, dims, maps={"a": (1,)})
    with pytest.raises(InternalInvariantViolation, match="wrong length"):
        Representation(z2r3, dims, maps={"a": (0, None)})
    with pytest.raises(InternalInvariantViolation, match="relation .* acts nonzero"):
        Representation(z2r3, dims, maps={"a": (0,), "b": (0,)})  # a b a acts as 1
    M = Representation(z2r3, dims, maps={"a": (0,), "b": (None,)})
    assert M.mats["a"] == [[1]] and M.mats["b"] == [[0]]


def test_modules_with_index_maps_run_no_linear_algebra(monkeypatch):
    # D(e_v A) and the projectives carry index maps, and the cover, the
    # kernel and P's action on the kernel read them; a syzygy keeps sparse
    # columns, whose top lifts and cover are sparse too.  So the profile
    # calls neither mat_vec nor pivot_columns, and nullspace only for the
    # kernel of a cover that certified no split
    import sys

    from monosing import linalg
    from monosing.corpus import random_presentation

    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(50)]
    resolved = counting(monkeypatch, "resolve")
    calls = []  # (linalg function, caller, the module's cover certified no split)

    def watch(name):
        real = getattr(linalg, name)

        def wrapper(*args):
            frame = sys._getframe(1)
            local = frame.f_locals
            unsplit = (frame.f_code.co_name == "_kernel_blocks"
                       and local["rep"].maps is None
                       and oracle._summand_classes(local["rep"], local["layer"],
                                                   local["cover"]) is None)
            calls.append((name, frame.f_code.co_name, unsplit))
            return real(*args)

        monkeypatch.setattr(linalg, name, wrapper)

    for name in ("nullspace", "pivot_columns", "mat_vec"):
        watch(name)
    for pres in presentations:
        injective_dimension_profile(pres)
    assert resolved and all(M.maps is not None for (M,) in resolved)
    assert calls and all(call == ("nullspace", "_kernel_blocks", True) for call in calls), \
        {call for call in calls if not call[2]}


def test_the_profile_takes_dense_steps_without_a_solve(monkeypatch):
    # the action on each syzygy is read at the kernel's free columns
    from monosing import linalg
    from monosing.corpus import random_presentation

    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(50)]
    steps = counting(monkeypatch, "syzygy_step")
    solves = []
    real_solve_many = linalg.solve_many
    monkeypatch.setattr(linalg, "solve_many",
                        lambda *args: solves.append(args) or real_solve_many(*args))
    for pres in presentations:
        injective_dimension_profile(pres)
    assert solves == [] and len(steps) > 0, len(steps)


def fractional_kernel_module():
    """An ungraded module whose Omega at vertex 3 has the kernel basis
    (-1, 2, 0), (-1, 0, 2) over the paths d, c.a, c.b: free entries 2, and
    c sends the kernel vector (-1, 1) over a, b to (0, -1, 1), which has
    the coordinates -1/2 and 1/2."""
    pres = parse_presentation("vertex 1 2 3\narrow a 1 2\narrow b 1 2\n"
                              "arrow c 2 3\narrow d 1 3\n")
    return Representation(pres, {"1": 1, "2": 1, "3": 1},
                          {"a": [[1]], "b": [[1]], "c": [[1]], "d": [[2]]})


def test_free_entries_other_than_one_match_the_dense_step():
    from fractions import Fraction

    from monosing.oracle import syzygy_step

    M = fractional_kernel_module()
    _, _, om, _ = syzygy_step(M)
    assert om.mats["c"] == [[Fraction(-1, 2)], [Fraction(1, 2)]]
    assert module_data(om) == module_data(dense_syzygy_reference(M))


def test_a_kernel_not_closed_under_the_action_is_refused(monkeypatch):
    # drop the kernel vector (-1, 0, 2) at vertex 3, which c reaches
    real = oracle._kernel_blocks

    def dropped(rep, layer, cover):
        kernel = real(rep, layer, cover)
        kernel["3"] = kernel["3"][:1]
        return kernel

    monkeypatch.setattr(oracle, "_kernel_blocks", dropped)
    with pytest.raises(InternalInvariantViolation, match="not closed under the action"):
        oracle.syzygy_step(fractional_kernel_module())


def test_builders_refuse_a_vertex_off_the_quiver(z3r2):
    from monosing.errors import UnknownVertex
    from monosing.oracle import injective_summand_rep

    for build in (simple_rep, injective_summand_rep):
        with pytest.raises(UnknownVertex, match="'9'"):
            build(z3r2, "9")


def test_tilting_window_must_be_positive(z3r2):
    # shifts 1 .. window are tested, so a window below 1 would pass vacuously
    for window in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            verify_omega_T_ext_vanishing(z3r2, window)


def dense_class_children_reference(pres, key):
    """The class walk's step as it was before the children were read off
    the class module's cover: a dense syzygy step, then a second cover that
    must certify the syzygy's split."""
    from monosing.oracle import _summand_classes, projective_cover, syzygy_step

    if pres.key_is_projective(key):
        return []
    M = oracle._class_rep(pres, key)
    _, _, om, _ = syzygy_step(M)
    layer, cover = projective_cover(om)
    classes = _summand_classes(om, layer, cover)
    assert classes is not None
    return [(c, d) for c, (_, d) in zip(classes, layer.gens)]


def test_class_children_match_the_dense_step():
    # the same children, in the same order and with the same degrees, over
    # every class reachable from the path modules on both sides
    from monosing.corpus import random_gentle_presentation, random_presentation
    from monosing.oracle import _class_children

    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(100)]
    presentations += [random_gentle_presentation(rng) for _ in range(25)]
    presentations += [nakayama(n, m) for m in range(2, 7) for n in range(1, 9)]
    classes = splits = 0
    for pres in presentations:
        for pr in (pres, pres.opposite()):
            todo = list(dict.fromkeys(pr.survivor_key(p) for p in pr.basis()))
            seen = set(todo)
            while todo:
                key = todo.pop()
                children = _class_children(pr, key)
                assert children == dense_class_children_reference(pr, key), (pr.quiver.vertices, key)
                classes += 1
                splits += len(children) > 1
                for child, _ in children:
                    if child not in seen:
                        seen.add(child)
                        todo.append(child)
    assert classes > 2000 and splits > 40, (classes, splits)


def test_class_children_of_a_path_module(z2r3):
    from monosing.oracle import _class_children

    # A.a over kZ_2/J^3 is the class (2, {e_2, b}), whose syzygy is A.ab,
    # the simple at 2 in degree 2
    key = z2r3.survivor_key(z2r3.quiver.arrow_path("a"))
    assert key == ("2", frozenset({(), ("b",)}))
    assert _class_children(z2r3, key) == [(("2", frozenset({()})), 2)]


def reachable_classes(pres):
    """Every class key the class graph reaches from the survivor keys of the
    basis paths."""
    from monosing.oracle import _class_children

    todo = list(dict.fromkeys(map(pres.survivor_key, pres.basis())))
    seen = set(todo)
    while todo:
        for child, _ in _class_children(pres, todo.pop()):
            if child not in seen:
                seen.add(child)
                todo.append(child)
    return seen


def test_every_reachable_class_module_is_certified_by_its_cover():
    # the class module of a key is built so that its cover's nonzero columns
    # are the key's words, which is what lets the class walk read the
    # syzygy off the key alone
    from monosing.oracle import _class_rep, _summand_classes, projective_cover

    classes = 0
    for pres in class_rule_corpus():
        for pr in (pres, pres.opposite()):
            for key in reachable_classes(pr):
                M = _class_rep(pr, key)
                assert _summand_classes(M, *projective_cover(M)) == [key], (pr.quiver.vertices, key)
                classes += 1
    assert classes > 2000, classes


def test_class_walk_builds_no_module_and_takes_no_cover(z6r3, monkeypatch):
    builds = counting(monkeypatch, "_class_rep")
    covers = counting(monkeypatch, "projective_cover")
    for pres in (nakayama(12, 4), z6r3):
        assert injective_dimension_profile(pres).gorenstein
        assert global_dimension(pres) is None  # the simples recur under Omega
        assert pres._cache["monosing.oracle._class_children"]
    assert builds == [] and covers == []


def test_omega_permutes_the_gp_classes():
    # the syzygy of the path module on a perfect path is the path module on
    # another perfect path, and every GP class is reached once, so Omega of
    # a GP class can be placed by key lookup
    from monosing.oracle import _class_children
    from monosing.perfection import perfect_paths

    checked = moved = 0
    for pres in class_rule_corpus():
        if not injective_dimension_profile(pres).gorenstein:
            continue
        keys = [pres.survivor_key(p) for p in perfect_paths(pres).perfect_set()]
        gp = set(keys)
        assert len(gp) == len(keys), pres.quiver.vertices
        omega = {}
        for key in keys:
            children = _class_children(pres, key)
            assert len(children) == 1, (pres.quiver.vertices, key)
            (child, _), = children
            assert not pres.key_is_projective(child) and child in gp, (pres.quiver.vertices, key)
            omega[key] = child
        assert set(omega.values()) == gp, pres.quiver.vertices
        checked += 1
        moved += sum(child != key for key, child in omega.items())
    assert checked > 100 and moved > 100, (checked, moved)


def test_class_walk_takes_no_dense_step(monkeypatch):
    from monosing import linalg

    pres = nakayama(12, 4)
    steps = counting(monkeypatch, "syzygy_step")
    solves = []
    real_solve_many = linalg.solve_many
    monkeypatch.setattr(linalg, "solve_many",
                        lambda *args: solves.append(args) or real_solve_many(*args))
    assert verify_omega_T_ext_vanishing(pres, 2 * pres.dimension())
    assert len(pres._cache["monosing.oracle._class_children"]) > 10
    assert steps == [] and solves == []


def test_class_children_are_the_keys_of_the_minimal_killed_paths():
    # a killed path x whose right factor x[1:] survives generates the child
    # A.x, and y.x is killed exactly when it is nonzero, so the children of
    # a class are the survivor keys of those x, by t(x), in degree len(x)
    from monosing.oracle import _class_children

    classes = children_seen = 0
    for pres in class_rule_corpus():
        todo = list(dict.fromkeys(map(pres.survivor_key, pres.basis())))
        seen = set(todo)
        while todo:
            key = todo.pop()
            v, words = key
            minimal = [x for x in pres.basis().from_vertex(v)
                       if x.arrows not in words and x.arrows[1:] in words]
            minimal.sort(key=lambda x: pres.quiver.vertex_index(x.target))
            children = _class_children(pres, key)
            assert children == [(pres.survivor_key(x), x.length) for x in minimal], \
                (pres.quiver.vertices, key)
            classes += 1
            children_seen += len(children)
            for child, _ in children:
                if child not in seen:
                    seen.add(child)
                    todo.append(child)
    assert classes > 1000 and children_seen > 500, (classes, children_seen)


def injective_summand_reference(pres, v):
    """D(e_v A) as the dense builder makes it: the duals of the paths into
    v, an arrow a sending the dual of w to the dual of w without the arrow
    a it traverses first."""
    by_vertex = {}
    for w in pres.basis():
        if w.target == v:
            by_vertex.setdefault(w.source, []).append(w.arrows)
    dims = {u: len(words) for u, words in by_vertex.items()}
    mats = {}
    for a in pres.quiver.arrows:
        if a.source in dims and a.target in dims:
            m = [[0] * dims[a.source] for _ in range(dims[a.target])]
            for j, w in enumerate(by_vertex[a.source]):
                if w and w[-1] == a.name:
                    m[by_vertex[a.target].index(w[:-1])][j] = 1
            mats[a.name] = m
    return Representation(pres, dims, mats)


def test_injective_summands_are_the_dense_builders_modules():
    # D(e_v A), built by its own action, must be the dense builder's module
    # exactly: basis order, matrices and the
    # degrees -len(w), on both sides
    from monosing.oracle import injective_summand_rep

    checked = 0
    for pres in class_rule_corpus():
        for pr in (pres, pres.opposite()):
            for v in pr.quiver.vertices:
                D, ref = injective_summand_rep(pr, v), injective_summand_reference(pr, v)
                assert (D.dims, dict(D.mats)) == (ref.dims, dict(ref.mats)), \
                    (pr.quiver.vertices, v)
                degrees = dict.fromkeys(pr.quiver.vertices, ())
                for w in pr.basis().into_vertex(v):
                    degrees[w.source] += (-w.length,)
                assert D.degrees == degrees
                checked += 1
    assert checked > 900, checked


def dual_regular_pd_reference(pres):
    """The profile side as it was before cyclic summands became classes:
    every summand built and resolved."""
    worst = 0
    for v in pres.quiver.vertices:
        tr = resolve(injective_summand_reference(pres, v))
        if tr.status == PERIODIC:
            return oracle.SideStatus(PERIODIC, detail=f"summand at {v}: {tr.detail}")
        worst = max(worst, tr.pd)
    return oracle.SideStatus(FINITE, length=worst)


def summand_rule_mismatches(rule, presentations, counts):
    """The (presentation, vertex) pairs where ``rule(pres, v)``, a class key
    of D(e_v A) or None, disagrees with the dense reference: a key must be
    given exactly for a summand with a one-dimensional top, its class module
    must be isomorphic to D(e_v A), and its class walk must report the
    status, pd and detail of resolving D(e_v A)."""
    from monosing.oracle import _class_rep, _class_trace, _iso_witness, top_lifts

    bad = []
    for pres in presentations:
        for pr in (pres, pres.opposite()):
            for v in pr.quiver.vertices:
                D = injective_summand_reference(pr, v)
                key = rule(pr, v)
                cyclic = sum(map(len, top_lifts(D).values())) == 1
                counts["cyclic" if cyclic else "not cyclic"] += 1
                if key is None:
                    if cyclic:
                        bad.append((pr, v))
                    continue
                ref = resolve(D)
                tr = _class_trace(pr, key)
                if ((tr.status, tr.pd, tr.detail) != (ref.status, ref.pd, ref.detail)
                        or _iso_witness(_class_rep(pr, key),
                                        oracle.injective_summand_rep(pr, v)) is None):
                    bad.append((pr, v))
    return bad


def test_cyclic_injective_summands_are_read_as_classes():
    from monosing.oracle import _dual_regular_pd, _injective_summand_key

    presentations = class_rule_corpus()
    counts = {"cyclic": 0, "not cyclic": 0}
    assert summand_rule_mismatches(_injective_summand_key, presentations, counts) == []
    assert counts["cyclic"] > 800 and counts["not cyclic"] > 80, counts
    statuses = set()
    for pres in presentations:
        for pr in (pres, pres.opposite()):
            side = _dual_regular_pd(pr)
            assert side.to_json() == dual_regular_pd_reference(pr).to_json()
            statuses.add(side.status)
    assert statuses == {FINITE, PERIODIC}

    def without_the_count_check(pres, v):
        w = pres.basis().into_vertex(v)[-1]
        return (w.source, frozenset(w.arrows[k:] for k in range(w.length + 1)))

    # the longest path alone does not make the summand cyclic
    assert summand_rule_mismatches(without_the_count_check, presentations[:20],
                                   dict.fromkeys(counts, 0))


def test_global_dimension_walks_the_simples_as_classes():
    finite = infinite = 0
    for pres in class_rule_corpus():
        traces = [resolve(simple_rep(pres, v)) for v in pres.quiver.vertices]
        want = None if any(tr.status == PERIODIC for tr in traces) else max(tr.pd for tr in traces)
        assert global_dimension(pres) == want, pres.quiver.vertices
        finite += want is not None
        infinite += want is None
    assert finite > 50 and infinite > 50, (finite, infinite)


def test_nakayama_crosscheck_runs_no_rank_test_and_builds_no_summand(monkeypatch):
    pres = nakayama(12, 4)
    rank_tests = counting(monkeypatch, "is_torsionless")
    summands = counting(monkeypatch, "injective_summand_rep")
    assert crosscheck_classification(pres)["homological_classes"] == 12 * 3
    assert rank_tests == [] and summands == []


def test_gp_test_runs_no_rank_test(z3r2, lin, glu, monkeypatch):
    # Ext^{1..d}(M, A) = 0 alone decides; at level 0 every module passes
    # and nothing is resolved
    for pres in (z3r2, lin, glu):
        injective_dimension_profile(pres)
    rank_tests = counting(monkeypatch, "is_torsionless")
    resolved = counting(monkeypatch, "resolve")
    assert gorenstein_projective_test(simple_rep(z3r2, "1"))
    assert resolved == []
    # the source simple of lin has Ext^2(S_1, A) != 0
    assert not gorenstein_projective_test(simple_rep(lin, "1"))
    assert any(gorenstein_projective_test(M) for M in non_projective_path_modules(glu))
    assert resolved and rank_tests == []


def crosscheck_reference(pres):
    """The homological side of crosscheck_classification as it was before
    the key rule: Ext^{1..d} into A by the GP test and the rank test, on the
    class module of every nontrivial path, then an _iso_witness scan
    against every class found so far.  Returns (class count, sorted
    dimension vectors)."""
    from monosing.oracle import _class_rep, _iso_witness

    found = []
    for p in pres.basis().nontrivial():
        key = pres.survivor_key(p)
        if pres.key_is_projective(key):
            continue
        M = _class_rep(pres, key)
        if gorenstein_projective_test(M) and is_torsionless(M):
            found.append(M)
    classes = []
    for M in found:
        if not any(M.dims == N.dims and _iso_witness(M, N) is not None for N in classes):
            classes.append(M)
    return len(classes), sorted(tuple(sorted(N.dims.items())) for N in classes)


def test_crosscheck_keys_match_the_gp_test_and_iso_scan():
    from monosing.oracle import _class_rep, _iso_witness

    presentations = class_rule_corpus()
    presentations += [nakayama(n, m) for m in range(2, 6) for n in range(9, 13)]
    checked = levels = dropped = same_dims = 0
    for pres in presentations:
        keys = list(pres.path_classes())
        modules = {key: _class_rep(pres, key) for key in keys}
        assert all(map(is_torsionless, modules.values()))
        prof = injective_dimension_profile(pres)
        if not prof.gorenstein:
            continue
        report = crosscheck_classification(pres)
        count, dims = crosscheck_reference(pres)
        assert (report["homological_classes"], report["dim_vectors"]) == \
            (count, [dict(t) for t in dims]), pres.quiver.vertices
        checked += 1
        levels += prof.level > 0
        dropped += len(keys) - count
        # distinct keys are never isomorphic, even with one dimension vector
        for i, key in enumerate(keys):
            M = modules[key]
            for other in keys[i + 1:]:
                N = modules[other]
                if M.dims == N.dims:
                    assert _iso_witness(M, N) is None, (pres.quiver.vertices, key, other)
                    same_dims += 1
    assert checked > 100 and levels > 20 and same_dims > 10, (checked, levels, same_dims)
    assert dropped > 0, dropped  # Ext into A rules some keys out


def test_crosscheck_orders_dimension_vectors_as_the_dense_sort():
    # the sparse key sorts the descriptors as their dense tuples in vertex
    # name order did, "10" before "2" included, and the report lists every
    # vertex in name order
    from monosing.perfection import classify_stable_gproj

    presentations = class_rule_corpus()
    presentations += [nakayama(n, m) for n, m in ((10, 2), (11, 4), (12, 3), (13, 5), (21, 6))]
    checked = unequal = 0
    for pres in presentations:
        if not injective_dimension_profile(pres).gorenstein:
            continue
        comb = classify_stable_gproj(pres)
        dense = [dict(t) for t in sorted(tuple(sorted(d.dim_vector.items())) for d in comb)]
        report = crosscheck_classification(pres)["dim_vectors"]
        assert report == dense and [list(d) for d in report] == [list(d) for d in dense], \
            pres.quiver.vertices
        checked += 1
        unequal += len({tuple(d.values()) for d in dense}) > 1
    assert checked > 100 and unequal > 50, (checked, unequal)


def test_crosscheck_resolves_nothing_and_scans_no_isomorphism(glu, monkeypatch):
    # glu is level 1 and Z_12 R_4 level 0; at either level the GP path
    # classes are Omega^d of the path classes, read off the class graph,
    # so nothing is resolved, built or scanned
    z12r4 = nakayama(12, 4)
    for pres in (glu, z12r4):
        injective_dimension_profile(pres)  # the profile resolves glu's non-cyclic summands
    calls = {name: counting(monkeypatch, name)
             for name in ("resolve", "is_torsionless", "_iso_witness", "_class_rep")}
    assert crosscheck_classification(glu)["homological_classes"] == 12
    assert crosscheck_classification(z12r4)["homological_classes"] == 12 * 3
    assert calls == dict.fromkeys(calls, [])


def cyclic_corpus(n_max=4):
    """The basic n-cycles for n <= n_max with at most one relation, of
    length 2 to 5, starting at each vertex; at least one relation, so each
    is finite-dimensional."""
    from itertools import product

    presentations = []
    for n in range(1, n_max + 1):
        for lengths in product((0, 2, 3, 4, 5), repeat=n):
            if not any(lengths):
                continue
            lines = ["vertex " + " ".join(str(i + 1) for i in range(n))]
            lines += [f"arrow t{i + 1} {i + 1} {(i + 1) % n + 1}" for i in range(n)]
            lines += ["relation " + " ".join(f"t{(i + k) % n + 1}" for k in range(m))
                      for i, m in enumerate(lengths) if m]
            presentations.append(parse_presentation("\n".join(lines) + "\n"))
    return presentations


def ext_rule_gp_keys(pres, level):
    """The path classes K with Ext^k(K, A) = 0 for 1 <= k <= level, read off
    the class walk of each key: the crosscheck's rule before Omega^d."""
    from monosing.oracle import _class_trace, _ext_from_trace, _regular

    return [key for key in pres.path_classes()
            if not any(_ext_from_trace(_class_trace(pres, key), _regular(pres), k)
                       for k in range(1, level + 1))]


def test_gp_classes_are_the_keys_the_ext_rule_keeps():
    # every summand of a d-th syzygy is GP and Omega permutes the GP path
    # classes, so Omega^d of the path classes keeps exactly the keys with
    # Ext^{1..d} into A zero; at level >= 2 keys drop at more than one step
    from monosing.oracle import _gp_classes

    cyclic = cyclic_corpus()
    assert len(cyclic) == 776
    deep = 0
    for pres in class_rule_corpus() + cyclic:
        prof = injective_dimension_profile(pres)
        if not prof.gorenstein:
            continue
        want = ext_rule_gp_keys(pres, prof.level)
        assert {key for key, _ in _gp_classes(pres, prof.level)} == set(want), \
            (pres.quiver.vertices, pres.generators)
        deep += prof.level >= 2 and 0 < len(want) < len(pres.path_classes())
    assert deep > 50, deep


def test_every_module_the_gp_test_accepts_is_torsionless():
    # Ext^{1..d}(M, A) = 0 alone makes M GP, and a GP module embeds in a
    # projective, so the rank test must pass wherever the GP test does
    from monosing.oracle import _class_rep, injective_summand_rep

    accepted = rejected = 0
    for pres in class_rule_corpus() + cyclic_corpus():
        prof = injective_dimension_profile(pres)
        if not prof.gorenstein:
            continue
        vertices = pres.quiver.vertices
        modules = [simple_rep(pres, v) for v in vertices]
        modules += [injective_summand_rep(pres, v) for v in vertices]
        modules += [_class_rep(pres, key) for key in pres.path_classes()]
        for M in modules:
            if gorenstein_projective_test(M):
                assert is_torsionless(M), (vertices, pres.generators, M.dims)
                accepted += prof.level > 0
            else:
                rejected += 1
    assert accepted > 500 and rejected > 500, (accepted, rejected)
