import random

import pytest

from monosing.corpus import random_gentle_presentation, random_presentation
from monosing.errors import TrivialPath, ZeroPath
from monosing.oracle import path_module_rep, stable_hom_dim, syzygy_rep
from monosing.oracle import _iso_witness
from monosing import perfection
from monosing.perfection import (
    annihilator_minimal,
    classify_stable_gproj,
    perfect_pairs,
    perfect_paths,
)
from monosing.corpus import seeded_rng
from conftest import FIXTURE_NAMES, class_rule_corpus, load, nakayama


def tpath(pres, *names):
    return pres.quiver.path(names)


def test_right_annihilators_z2r3(z2r3):
    ab = tpath(z2r3, "b", "a")  # composition a.b
    assert [str(q) for q in annihilator_minimal(z2r3, ab, "right")] == ["a"]


def test_left_annihilators_z2r3(z2r3):
    a = z2r3.quiver.arrow_path("a")
    # composition a.b displays as traversal b·a
    assert [str(q) for q in annihilator_minimal(z2r3, a, "left")] == ["b·a"]


def test_annihilators_lin(lin):
    a, b = lin.quiver.arrow_path("a"), lin.quiver.arrow_path("b")
    assert [str(q) for q in annihilator_minimal(lin, b, "right")] == ["a"]
    assert [str(q) for q in annihilator_minimal(lin, a, "left")] == ["b"]
    assert annihilator_minimal(lin, a, "right") == []


def test_annihilator_rejects_trivial_and_zero(z2r3):
    with pytest.raises(TrivialPath):
        annihilator_minimal(z2r3, z2r3.quiver.trivial_path("1"), "right")
    with pytest.raises(ZeroPath):
        annihilator_minimal(z2r3, tpath(z2r3, "a", "b", "a"), "left")


def test_perfect_pairs_z3r2(z3r2):
    got = {(str(p), str(q)) for p, q in perfect_pairs(z3r2)}
    assert got == {("a2", "a1"), ("a3", "a2"), ("a1", "a3")}


def test_perfect_pairs_lin(lin):
    assert [(str(p), str(q)) for p, q in perfect_pairs(lin)] == [("b", "a")]


def test_perfect_pairs_z2r3(z2r3):
    got = {(str(p), str(q)) for p, q in perfect_pairs(z2r3)}
    # traversal display: "b·a" is the composition a.b and vice versa
    assert got == {("b·a", "a"), ("a", "a·b"), ("a·b", "b"), ("b", "b·a")}


def test_perfect_cycles(z3r2, lin, glu):
    g = perfect_paths(z3r2)
    assert len(g.cycles) == 1 and len(g.cycles[0]) == 3
    assert {str(p) for p in g.perfect_set()} == {"a1", "a2", "a3"}

    assert perfect_paths(lin).cycles == []

    gg = perfect_paths(glu)
    assert len(gg.cycles) == 3
    assert len(gg.perfect_set()) == 12
    lengths = sorted(p.length for p in gg.perfect_set())
    assert lengths == [1] * 6 + [2] * 6


def test_cycle_lookup_matches_the_cycle_scan():
    # cycle_of and perfect_set read one index built with the graph; the
    # answers must be those of a scan over the cycles
    from monosing.corpus import seeded_rng

    rng = seeded_rng()
    corpus = [load(name) for name in FIXTURE_NAMES] + [nakayama(6, 3), nakayama(5, 4)]
    corpus += [random_presentation(rng) for _ in range(60)]
    corpus += [random_gentle_presentation(rng) for _ in range(30)]
    perfect = 0
    for pres in corpus:
        g = perfect_paths(pres)
        assert g.perfect_set() is g.perfect_set()
        assert g.perfect_set() == {p for cyc in g.cycles for p in cyc}
        for p in pres.basis():
            want = next((cyc for cyc in g.cycles if p in cyc), None)
            assert g.cycle_of(p) == want
            perfect += want is not None
    assert perfect > 50, perfect


def test_symmetric_certification(z2r3, glu):
    for pres in (z2r3, glu):
        for p, q in perfect_pairs(pres):
            assert annihilator_minimal(pres, p, "right") == [q]
            assert annihilator_minimal(pres, q, "left") == [p]


def test_classify_z3r2(z3r2):
    ds = classify_stable_gproj(z3r2)
    assert len(ds) == 3
    assert all(d.total_dimension == 1 for d in ds)
    assert all(not z3r2.key_is_projective(z3r2.survivor_key(d.generator)) for d in ds)


def test_classify_her(her):
    assert classify_stable_gproj(her) == []


def test_classify_z2r3_dim_vectors(z2r3):
    ds = classify_stable_gproj(z2r3)
    vecs = sorted(tuple(sorted(d.dim_vector.items())) for d in ds)
    assert vecs == sorted(
        [
            (("1", 0), ("2", 1)),
            (("1", 1), ("2", 0)),
            (("1", 1), ("2", 1)),
            (("1", 1), ("2", 1)),
        ]
    )


def test_descriptors_build_their_basis_only_when_read(monkeypatch):
    # the crosscheck reads each descriptor's generator and dimension vector,
    # which counts the survivor key's words by target vertex; the sorted
    # Path basis is built on first read, as the gproj report reads it, and
    # so is the dimension vector over every vertex
    from monosing.oracle import crosscheck_classification, injective_dimension_profile
    from monosing.presentation import MonomialPresentation

    calls = []
    real = MonomialPresentation.cyclic_module_basis
    monkeypatch.setattr(MonomialPresentation, "cyclic_module_basis",
                        lambda pres, p: calls.append(p) or real(pres, p))
    checked = 0
    for pres in class_rule_corpus():
        if not injective_dimension_profile(pres).gorenstein:
            continue
        crosscheck_classification(pres)
        assert len(calls) == checked
        for d in classify_stable_gproj(pres):
            basis, vec = real(pres, d.generator)
            # the report reads the nonzero entries; the full vector is built on first read
            nonzero = {v: n for v, n in vec.items() if n}
            assert d.nonzero_dims == nonzero and list(d.nonzero_dims) == list(nonzero)
            assert "dim_vector" not in vars(d)
            assert d.dim_vector == vec and list(d.dim_vector) == list(vec)
            assert d.basis == basis and d.basis is d.basis
            checked += 1
    assert len(calls) == checked > 100, checked


def test_tops_are_simple_at_target(glu):
    for d in classify_stable_gproj(glu):
        assert d.top_vertex == d.generator.target
        assert d.dim_vector[d.top_vertex] >= 1


def test_partial_injectivity_on_corpus():
    rng = random.Random(2468)
    for _ in range(20):
        pres = random_presentation(rng)
        pairs = perfect_pairs(pres)
        assert len({p for p, _ in pairs}) == len(pairs)
        assert len({q for _, q in pairs}) == len(pairs)


def test_syzygy_law_on_fixtures(z3r2, z2r3, glu):
    # For each perfect pair (p, q): Omega(Aq) is isomorphic to Ap.
    for pres in (z3r2, z2r3, glu):
        for p, q in perfect_pairs(pres):
            Ap = path_module_rep(pres, p)
            Om = syzygy_rep(path_module_rep(pres, q))
            assert Om.dims == Ap.dims
            assert stable_hom_dim(Ap, Om) >= 1 and stable_hom_dim(Om, Ap) >= 1
            assert _iso_witness(Ap, Om) is not None


def test_syzygy_law_on_corpus():
    rng = random.Random(60609)
    pairs_seen = 0
    for _ in range(120):
        if pairs_seen >= 20:
            break
        pres = random_presentation(rng)
        for p, q in perfect_pairs(pres):
            Ap = path_module_rep(pres, p)
            Om = syzygy_rep(path_module_rep(pres, q))
            assert Om.dims == Ap.dims, (str(p), str(q))
            assert _iso_witness(Ap, Om) is not None, (str(p), str(q))
            pairs_seen += 1
    assert pairs_seen >= 20


# -- annihilators against the basis scan -----------------------------------------


def reference_annihilator(pres, p, side):
    """L(p) or R(p) by scanning the whole basis for minimal killers of p."""
    out = []
    for q in pres.basis().paths:
        if q.is_trivial:
            continue
        if side == "right":
            if q.target != p.source or pres.word_is_nonzero(p.arrows + q.arrows):
                continue
            factors = [p.arrows + q.arrows[:i] for i in range(1, q.length)]
        else:
            if q.source != p.target or pres.word_is_nonzero(q.arrows + p.arrows):
                continue
            factors = [q.arrows[q.length - i :] + p.arrows for i in range(1, q.length)]
        if all(pres.word_is_nonzero(w) for w in factors):
            out.append(q)
    out.sort(key=pres.quiver.sort_key)
    return out


def reference_perfect_pairs(pres):
    pairs = []
    for p in pres.basis().nontrivial():
        r = reference_annihilator(pres, p, "right")
        if len(r) == 1 and reference_annihilator(pres, r[0], "left") == [p]:
            pairs.append((p, r[0]))
    return pairs


def annihilator_inputs():
    yield from (load(name) for name in FIXTURE_NAMES)
    yield from (nakayama(n, m) for m in range(2, 49) for n in range(1, 48 // m + 1))
    rng = random.Random(8086)
    yield from (random_presentation(rng) for _ in range(200))
    yield from (random_presentation(rng, max_vertices=5, max_arrows=8, max_rel_len=4)
                for _ in range(100))
    yield from (random_gentle_presentation(rng, max_vertices=10, max_arrows=16)
                for _ in range(100))


def test_annihilators_match_the_basis_scan():
    cases = 0
    for pres in annihilator_inputs():
        for p in pres.basis().nontrivial():
            for side in ("left", "right"):
                assert annihilator_minimal(pres, p, side) == reference_annihilator(
                    pres, p, side), (str(p), side)
                cases += 1
        assert perfect_pairs(pres) == reference_perfect_pairs(pres)
    assert cases > 10000


def test_perfect_pairs_match_the_all_paths_scan():
    # a perfect pair (p, q) has pq a minimal relation, so trying the left
    # halves of the relation splits misses no pair
    rng = seeded_rng()
    presentations = class_rule_corpus()
    presentations += [random_presentation(rng, 6, 9, 4) for _ in range(150)]
    presentations += [random_gentle_presentation(rng, 12, 18) for _ in range(50)]
    found = 0
    for pres in presentations:
        pairs = perfect_pairs(pres)
        assert pairs == reference_perfect_pairs(pres), pres.quiver.vertices
        found += len(pairs)
    assert found > 400, found


# -- the table of minimal halves against the per-word rule -------------------------


def splits_reference(pres):
    """``[side]``: each half of a relation split mapped to its other halves."""
    right, left = {}, {}
    for f in pres.minimal:
        w = f.arrows
        for k in range(1, len(w)):
            right.setdefault(w[:k], []).append(w[k:])
            left.setdefault(w[k:], []).append(w[:k])
    return {"right": right, "left": left}


def minimal_halves_reference(splits, word, side):
    """R (side="right") or L of a nonzero ``word`` by the per-word rule:
    gather the halves at every tail (head) of the word, then drop each one
    with a proper head (tail) among them."""
    far_half = splits[side]
    cands = set()
    for k in range(1, len(word) + 1):
        near = word[-k:] if side == "right" else word[:k]
        cands.update(far_half.get(near, ()))
    if side == "right":
        return [q for q in cands if not any(q[:i] in cands for i in range(1, len(q)))]
    return [q for q in cands if not any(q[i:] in cands for i in range(1, len(q)))]


def test_the_halves_table_matches_the_per_word_rule():
    rng = seeded_rng()
    inputs = list(annihilator_inputs()) + [nakayama(400, 8)]
    inputs += [random_presentation(rng, require_finite=False) for _ in range(150)]
    inputs += [random_presentation(rng, 6, 9, 5, require_finite=False) for _ in range(150)]
    keys = nontrivial = 0
    for pres in inputs:
        splits = splits_reference(pres)
        table = perfection._minimal_halves_table(pres)
        for side in ("right", "left"):
            assert table[side].keys() == splits[side].keys()
            for word, halves in table[side].items():
                want = minimal_halves_reference(splits, word, side)
                assert len(halves) == len(set(halves)) and set(halves) == set(want), (word, side)
                keys += 1
                nontrivial += len(want) > 1
    assert keys > 10000 and nontrivial > 500, (keys, nontrivial)


class ProbeCountingDict(dict):
    """A dict that counts its key lookups (not its iteration or stores)."""

    def __init__(self, items, probes):
        super().__init__(items)
        self.probes = probes

    def __getitem__(self, key):
        self.probes[0] += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.probes[0] += 1
        return super().__contains__(key)

    def get(self, key, default=None):
        self.probes[0] += 1
        return super().get(key, default)


def test_the_halves_table_probes_each_key_fewer_times_than_its_length(monkeypatch):
    # the failure of a key of length k is found among its k - 1 proper
    # tails (heads), and one probe reads its entry, so building both sides
    # probes the split and table dicts at most sum (|f|-1)(|f|-2)/2 times each
    probes = {"right": [0], "left": [0]}
    real = perfection._relation_splits
    monkeypatch.setattr(perfection, "_relation_splits", lambda pres: {
        side: ProbeCountingDict(index, probes[side]) for side, index in real(pres).items()})
    rng = seeded_rng()
    inputs = [nakayama(400, 8), nakayama(50, 2)] + class_rule_corpus()
    inputs += [random_presentation(rng, require_finite=False) for _ in range(100)]
    for pres in inputs:
        for counter in probes.values():
            counter[0] = 0
        perfection._minimal_halves_table(pres)
        bound = sum((f.length - 1) * (f.length - 2) // 2 for f in pres.minimal)
        assert probes["right"][0] <= bound and probes["left"][0] <= bound, (probes, bound)
