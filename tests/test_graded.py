import random

import pytest

from monosing.corpus import random_presentation
from monosing.errors import DegreeOutOfRange, NotOneGorenstein
from monosing.gorenstein import is_one_gorenstein
from monosing.graded import (
    basic_syzygy_summands,
    graded_singularity_description,
    perfect_reduction,
    syzygy_of_T,
    truncation_summands,
    type_a_quiver,
)
from monosing.oracle import _iso_witness, path_module_rep, regular_rep
from monosing.perfection import perfect_paths


def tpath(pres, *names):
    return pres.quiver.path(names)


def test_truncation_degree_zero(z3r2):
    t = truncation_summands(z3r2, 0)
    for v, items in t.items():
        assert [(str(p), d) for p, d in items] == [(f"e_{v}", 0)]


def test_truncation_degree_one(z3r2):
    t = truncation_summands(z3r2, 1)
    assert [(str(p), d) for p, d in t["1"]] == [("e_1", -1), ("a1", 0)]


def test_truncation_drops_long_paths(z2r3):
    t = truncation_summands(z2r3, 1)
    assert [(str(p), d) for p, d in t["1"]] == [("e_1", -1), ("a", 0)]


def test_truncation_range(z3r2):
    with pytest.raises(DegreeOutOfRange):
        truncation_summands(z3r2, 2)  # top degree is 1
    with pytest.raises(DegreeOutOfRange):
        truncation_summands(z3r2, -1)


def test_syzygy_of_T_fixtures(z3r2, z2r3, her):
    assert [str(p) for p in syzygy_of_T(z3r2)] == ["a1", "a2", "a3"]
    assert {str(p) for p in syzygy_of_T(z2r3)} == {"a", "b", "a·b", "b·a"}
    assert [str(p) for p in syzygy_of_T(her)] == ["a"]
    # hereditary syzygies are projective and vanish under basic reduction
    assert basic_syzygy_summands(her) == []
    assert set(basic_syzygy_summands(z2r3)) <= set(syzygy_of_T(z2r3))


def test_degree_law(z2r3, glu):
    # top of every summand in strictly positive degree
    for pres in (z2r3, glu):
        omega_T = graded_singularity_description(pres)["omega_T"]
        assert [d["path"] for d in omega_T] == [str(p) for p in syzygy_of_T(pres)]
        assert all(d["shift"] == -1 and d["multiplicity"] == 1 for d in omega_T)


def test_perfect_reduction_fixed_points(z3r2, z2r3):
    ba = tpath(z2r3, "a", "b")  # composition b.a, a perfect path
    r = perfect_reduction(z2r3, ba)
    assert r.kind == "perfect" and r.path.arrows == ("b", "a")
    a1 = z3r2.quiver.arrow_path("a1")
    assert perfect_reduction(z3r2, a1).path == a1


def test_perfect_reduction_projective_and_glu(glu, z2r3):
    e = z2r3.quiver.trivial_path("1")
    assert perfect_reduction(z2r3, e).is_projective
    tri = tpath(glu, "t1", "t2", "t6")  # the nonzero triangle path at the glued vertex
    assert glu.is_nonzero(tri)
    r = perfect_reduction(glu, tri)
    assert r.kind == "perfect" and r.path.length <= 2


def test_perfect_reduction_requires_one_gorenstein(lin):
    with pytest.raises(NotOneGorenstein):
        perfect_reduction(lin, lin.quiver.arrow_path("a"))


def test_reduction_soundness_via_oracle():
    rng = random.Random(515253)
    seen = 0
    while seen < 8:
        pres = random_presentation(rng)
        if not is_one_gorenstein(pres).verdict:
            continue
        seen += 1
        proj_dims = {
            v: regular_rep(pres).dims for v in pres.quiver.vertices
        }
        for p in pres.basis():
            if p.is_trivial:
                continue
            r = perfect_reduction(pres, p)
            M = path_module_rep(pres, p)
            if r.is_projective:
                b, _ = pres.cyclic_module_basis(p)
                assert len(b) == len(pres.basis().from_vertex(p.target))
            else:
                N = path_module_rep(pres, r.path)
                assert M.dims == N.dims
                assert _iso_witness(M, N) is not None


def test_reduction_completeness(z3r2, z2r3, glu):
    # perfect reductions of the syzygy-of-T generators cover all perfect paths
    for pres in (z3r2, z2r3, glu):
        perfect = perfect_paths(pres).perfect_set()
        got = set()
        for p in syzygy_of_T(pres):
            r = perfect_reduction(pres, p)
            if not r.is_projective:
                got.add(r.path)
        assert got == perfect


def test_type_a_quiver_fixtures(z3r2, z2r3, glu, her):
    assert [[str(p) for p in c] for c in type_a_quiver(z3r2).chains] == [["a1"], ["a2"], ["a3"]]
    chains = {tuple(str(p) for p in c) for c in type_a_quiver(z2r3).chains}
    assert chains == {("a", "b·a"), ("b", "a·b")}
    qb = type_a_quiver(glu)
    assert sorted(len(c) for c in qb.chains) == [2] * 6
    assert qb.vertex_count() == 12
    assert type_a_quiver(her).chains == []


def test_type_a_structure(glu):
    qb = type_a_quiver(glu)
    seen = set()
    for chain in qb.chains:
        for p in chain:
            assert p not in seen  # vertex appears once: in/out degree <= 1, acyclic
            seen.add(p)
        for u, w in zip(chain, chain[1:]):
            assert w.arrows[: u.length] == u.arrows  # covering left-factor relation
    assert len(seen) == len(perfect_paths(glu).perfect_set())


def test_graded_descriptions(z3r2, z2r3, lin):
    assert graded_singularity_description(z3r2)["graded_singularity"] == (
        "D^b(mod B^op), B = k(A_1 x A_1 x A_1)"
    )
    assert graded_singularity_description(z2r3)["graded_singularity"] == (
        "D^b(mod B^op), B = k(A_2 x A_2)"
    )
    d = graded_singularity_description(lin)
    assert d["graded_singularity"] == "trivial (finite global dimension)"
    assert d["global_dimension"] == 2
