"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the corpus sweeps are seeded from MONO_SING_SEED (default fixed) so results
are reproducible.
"""

import contextlib
import io
import itertools

import pytest

from monosing.corpus import (
    gentle_corpus,
    gorenstein_corpus,
    involution_corpus,
    seeded_rng,
)
from monosing.gluing import Involution, glue, glue_is_finite_dimensional, equivalence_report
from monosing.gorenstein import (
    detect_self_injective_nakayama,
    gentle_check,
    is_one_gorenstein,
    relation_cycles,
    singularity_decomposition,
)
from monosing.graded import graded_singularity_description, type_a_quiver
from monosing.oracle import (
    crosscheck_classification,
    global_dimension,
    injective_dimension_profile,
    verify_omega_T_ext_vanishing,
)
from monosing.perfection import perfect_paths
from monosing.presentation import MonomialPresentation, Quiver, Arrow

from conftest import FIXTURE_NAMES, fixture_path, load


def verdict(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def gorenstein_instances():
    """The first 100 Gorenstein instances of the seeded corpus."""
    return gorenstein_corpus(seeded_rng(), 100)


def test_criterion_1_z3r2():
    pres = load("z3r2")
    ok = pres.dimension() == 6
    ok = ok and {str(p) for p in perfect_paths(pres).perfect_set()} == {"a1", "a2", "a3"}
    ok = ok and is_one_gorenstein(pres).verdict
    cycles = relation_cycles(pres)
    ok = ok and [(c.n, c.r) for c in cycles] == [(3, 2)]
    ok = ok and [str(d) for d in singularity_decomposition(pres)] == ["D^b(A_1)/[tau^3]"]
    ok = ok and [len(c) for c in type_a_quiver(pres).chains] == [1, 1, 1]
    prof = injective_dimension_profile(pres)
    ok = ok and prof.gorenstein and prof.level == 0
    verdict(1, ok, "Z3R2 exact fixture values")


def test_criterion_2_z2r3():
    pres = load("z2r3")
    ok = len(perfect_paths(pres).perfect_set()) == 4
    cycles = relation_cycles(pres)
    ok = ok and [(c.n, c.r) for c in cycles] == [(2, 3)]
    ok = ok and [str(d) for d in singularity_decomposition(pres)] == ["D^b(A_2)/[tau^2]"]
    ok = ok and sorted(len(c) for c in type_a_quiver(pres).chains) == [2, 2]
    verdict(2, ok, "Z2R3 exact fixture values")


def test_criterion_3_lin():
    pres = load("lin")
    v = is_one_gorenstein(pres)
    ok = not v.verdict
    f, p, _ = v.failing
    ok = ok and str(p) == "b"
    ok = ok and len(perfect_paths(pres).perfect_set()) == 0
    ok = ok and global_dimension(pres) == 2
    ok = ok and graded_singularity_description(pres)["graded_singularity"].startswith("trivial")
    verdict(3, ok, "LIN witness p=b, zero perfect paths, trivial singularity category")


def test_criterion_4_gluing_example():
    z6 = load("z6r3")
    E = Involution.from_pairs(z6.quiver.vertices, [("3", "6")])
    ok = glue_is_finite_dimensional(z6, E)[0]
    rep = equivalence_report(z6, E)
    ok = ok and rep.original["perfect_paths"] == 12 and rep.glued["perfect_paths"] == 12
    ok = ok and rep.original["one_gorenstein"] and rep.glued["one_gorenstein"]
    ok = ok and rep.original["orbit_descriptors"] == [(2, 6)]
    ok = ok and rep.glued["orbit_descriptors"] == [(2, 6)]
    ok = ok and rep.agreement == {"orbit_multiset": True, "gp_count": True, "gorenstein": True}
    verdict(4, ok, "Fig.9 -> Fig.10 gluing: 12 perfect paths, D^b(A_2)/[tau^6], flags true")


def test_criterion_5_oracle_equivalence_sweep(gorenstein_instances):
    mismatches = 0
    for pres in gorenstein_instances:
        report = crosscheck_classification(pres)  # raises MismatchDetected on failure
        if not report["match"]:
            mismatches += 1
    ok = mismatches == 0 and len(gorenstein_instances) >= 100
    verdict(5, ok, f"classification crosscheck on {len(gorenstein_instances)} "
                   f"Gorenstein instances, {mismatches} mismatches")


def test_criterion_6_tilting_vanishing_sweep(gorenstein_instances):
    failures = 0
    for pres in gorenstein_instances:
        if not verify_omega_T_ext_vanishing(pres, 2 * pres.dimension()):
            failures += 1
    ok = failures == 0
    verdict(6, ok, f"omega-T self-extension vanishing on {len(gorenstein_instances)} "
                   f"instances, window 2*dim, {failures} failures")


def test_criterion_7_gorenstein_preservation_sweep():
    pairs = involution_corpus(seeded_rng(), 50)
    disagreements = 0
    for pres, E in pairs:
        glued = glue(pres, E)
        p1 = injective_dimension_profile(pres)
        p2 = injective_dimension_profile(glued)
        if p1.gorenstein != p2.gorenstein:
            disagreements += 1
    ok = disagreements == 0 and len(pairs) >= 50
    verdict(7, ok, f"Gorenstein preservation under gluing on {len(pairs)} pairs, "
                   f"{disagreements} disagreements")


def test_criterion_8_gentle_agreement_sweep():
    instances = gentle_corpus(seeded_rng(), 30)
    disagreements = 0
    for pres in instances:
        g = gentle_check(pres)
        assert g.is_gentle
        if g.gentle_one_gorenstein != is_one_gorenstein(pres).verdict:
            disagreements += 1
    ok = disagreements == 0 and len(instances) >= 30
    verdict(8, ok, f"gentle cycle criterion agrees with the 1-Gorenstein test on "
                   f"{len(instances)} instances, {disagreements} disagreements")


def _cycle_quiver(n):
    vs = [str(i + 1) for i in range(n)]
    arrows = [Arrow(f"c{i + 1}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    return Quiver(vs, arrows)


def _window(q, n, start, length):
    names = [f"c{((start + k - 1) % n) + 1}" for k in range(length)]
    return q.path(names, order="traversal")


def test_criterion_9_nakayama_law_exhaustive():
    checked = exceptions = 0
    for n in range(1, 5):
        q = _cycle_quiver(n)
        wins = [(l, s) for l in range(2, 5) for s in range(1, n + 1)]
        paths = {w: _window(q, n, w[1], w[0]) for w in wins}

        def contains(big, small):
            bw, sw = paths[big].arrows, paths[small].arrows
            if len(sw) >= len(bw):
                return False
            return any(bw[i:i + len(sw)] == sw for i in range(len(bw) - len(sw) + 1))

        for bits in itertools.product([0, 1], repeat=len(wins)):
            chosen = [w for w, b in zip(wins, bits) if b]
            if not chosen:
                continue
            if any(contains(x, y) for x in chosen for y in chosen if x != y):
                continue
            pres = MonomialPresentation(q, [paths[w] for w in chosen])
            lengths = {w[0] for w in chosen}
            is_uniform = len(lengths) == 1 and len(chosen) == n
            v = is_one_gorenstein(pres).verdict
            if v != is_uniform:
                exceptions += 1
            elif v:
                m = lengths.pop()
                des = [(d.rank, d.period) for d in singularity_decomposition(pres)]
                if des != [(m - 1, n)] or detect_self_injective_nakayama(pres) != (n, m):
                    exceptions += 1
            checked += 1
    ok = exceptions == 0 and checked >= 100
    verdict(9, ok, f"Nakayama law on all {checked} admissible cyclic ideals (n <= 4), "
                   f"{exceptions} exceptions")


def _run_cli(argv):
    from monosing.cli import main

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_10_determinism():
    runs = []
    for name in FIXTURE_NAMES:
        for command in ["info", "basis", "perfect", "gproj", "gorenstein",
                        "singcat", "graded"]:
            runs.append([command, fixture_path(name)])
            runs.append([command, fixture_path(name), "--json"])
        for check in ["gorenstein", "classification", "tilting"]:
            runs.append(["oracle", fixture_path(name), "--check", check])
    runs.append(["glue", fixture_path("z6r3"), "--pairs", "3:6", "--report"])
    runs.append(["glue", fixture_path("her"), "--pairs", "1:2"])  # refusal path
    unstable = 0
    for argv in runs:
        outs = {_run_cli(list(argv)) for _ in range(3)}
        if len(outs) != 1:
            unstable += 1
    ok = unstable == 0
    verdict(10, ok, f"byte-identical output across 3 runs for {len(runs)} command "
                    f"invocations, {unstable} unstable")
