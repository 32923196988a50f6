import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import monosing
from monosing.cli import main
from monosing.corpus import DEFAULT_SEED, random_presentation
from monosing.oracle import injective_dimension_profile, resolution_trace_report
from monosing.presentation import parse_presentation, parse_presentation_file

from conftest import FIXTURE_NAMES, fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_singcat_z3r2(capsys):
    code, out, _ = run(capsys, "singcat", fixture_path("z3r2"))
    assert code == 0
    assert out == "D^b(A_1)/[tau^3]\n"


def test_singcat_lin_refuses(capsys):
    code, out, _ = run(capsys, "singcat", fixture_path("lin"))
    assert code == 1
    assert "not 1-Gorenstein" in out and "p=b" in out


def test_singcat_her_trivial(capsys):
    code, out, _ = run(capsys, "singcat", fixture_path("her"))
    assert code == 0
    assert out == "trivial\n"


def test_glue_report_flags(capsys):
    code, out, _ = run(capsys, "glue", "--pairs", "3:6", fixture_path("z6r3"), "--report")
    assert code == 0
    assert "orbit_multiset=True" in out
    assert "gp_count=True" in out
    assert "gorenstein=True" in out


def test_glue_emits_presentation(capsys):
    code, out, _ = run(capsys, "glue", "--pairs", "3:6", fixture_path("z6r3"))
    assert code == 0
    reparsed = parse_presentation(out)
    assert len(reparsed.quiver.vertices) == 5


def test_oracle_checks(capsys):
    code, out, _ = run(capsys, "oracle", "--check", "gorenstein", fixture_path("z2r3"))
    assert code == 0 and "True (level 0)" in out
    code, out, _ = run(capsys, "oracle", "--check", "classification", fixture_path("z2r3"))
    assert code == 0 and "True" in out
    code, out, _ = run(capsys, "oracle", "--check", "tilting", fixture_path("z2r3"),
                       "--window", "6")
    assert code == 0 and "True" in out


def test_loc1_profile_is_decided(capsys):
    # loc1 is draw 54 of random_presentation at the default corpus seed: a
    # local algebra whose dual regular resolutions grow without end, which a
    # dimension cap left undecided; the summand-class walk certifies
    # infinite pd on both sides
    path = fixture_path("loc1")
    pres = parse_presentation_file(path)
    rng = random.Random(DEFAULT_SEED)
    assert [random_presentation(rng) for _ in range(55)][54] == pres
    prof = injective_dimension_profile(pres)
    assert prof.decided and not prof.gorenstein and prof.level is None
    traces = resolution_trace_report(pres)
    assert [tr["status"] for side in traces.values() for tr in side.values()] == \
        ["PeriodicityDetected"] * 2
    code, out, _ = run(capsys, "gorenstein", path)
    assert code == 0 and "oracle        gorenstein=False level=None\n" in out
    code, out, _ = run(capsys, "oracle", "--check", "gorenstein", path)
    assert code == 0 and out == "gorenstein    False (level None)\n"
    code, out, _ = run(capsys, "graded", path)
    assert code == 0 and out.startswith("singularity   not Gorenstein")


@pytest.mark.parametrize("command", ["info", "basis", "perfect", "gproj", "gorenstein", "graded"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_commands_run_on_fixtures(capsys, command, name):
    code, out, err = run(capsys, command, fixture_path(name))
    assert code == 0, err
    assert out


@pytest.mark.parametrize("command", ["info", "perfect", "gorenstein", "graded", "singcat"])
def test_json_outputs_parse(capsys, command):
    code, out, _ = run(capsys, command, fixture_path("z2r3"), "--json")
    assert code == 0
    json.loads(out)


def test_documented_json_schemas(capsys):
    code, out, _ = run(capsys, "perfect", fixture_path("z2r3"), "--json")
    data = json.loads(out)
    assert set(data) == {"perfect_pairs", "cycles", "gp_modules", "cm_type"}
    assert all(len(pair) == 2 for pair in data["perfect_pairs"])
    assert all({"generator", "dim_vector"} <= set(m) for m in data["gp_modules"])

    code, out, _ = run(capsys, "gorenstein", fixture_path("z3r2"), "--json")
    data = json.loads(out)
    assert {"one_gorenstein", "witness", "cycles", "singularity", "nakayama",
            "gentle", "oracle"} <= set(data)
    assert all({"arrows", "n", "r"} <= set(c) for c in data["cycles"])
    assert all(d["type"] == "A" and {"rank", "period"} <= set(d)
               for d in data["singularity"])

    code, out, _ = run(capsys, "graded", fixture_path("z2r3"), "--json")
    data = json.loads(out)
    assert {"QB", "graded_singularity", "omega_T"} <= set(data)
    assert all({"path", "shift", "multiplicity"} <= set(s) for s in data["omega_T"])

    code, out, _ = run(capsys, "glue", fixture_path("z6r3"), "--pairs", "3:6",
                       "--report", "--json")
    data = json.loads(out)
    assert set(data["agreement"]) == {"orbit_multiset", "gp_count", "gorenstein"}


def test_json_echo_round_trips(capsys):
    code, out, _ = run(capsys, "info", fixture_path("glu"), "--json")
    data = json.loads(out)
    text = ["vertex " + " ".join(data["vertices"])]
    for a in data["arrows"]:
        text.append(f"arrow {a['id']} {a['src']} {a['tgt']}")
    for rel in data["relations"]:
        text.append("relation " + " ".join(rel))
    again = parse_presentation("\n".join(text))
    from conftest import load

    assert again == load("glu")


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "info", "no/such/file.quiver")
    assert code == 2
    assert "error" in err


def test_infinite_dimensional_aborts_with_witness(tmp_path, capsys):
    f = tmp_path / "free_cycle.quiver"
    f.write_text("vertex 1 2 3\narrow x 1 2\narrow y 2 3\narrow z 3 1\n")
    code, _, err = run(capsys, "info", str(f))
    assert code == 1
    assert "pumped" in err  # witness cycle reported on the diagnostic stream


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.quiver"
    bad.write_text("vertex 1\narrow a 1 1\nrelation a\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2


def test_byte_determinism_across_runs(capsys):
    for name in FIXTURE_NAMES:
        for command in ["info", "basis", "perfect", "gorenstein", "singcat", "graded"]:
            outs = set()
            for _ in range(3):
                code, out, _ = run(capsys, command, fixture_path(name))
                outs.add((code, out))
            assert len(outs) == 1, (name, command)


def test_byte_determinism_across_hash_seeds():
    # set iteration order follows the hash seed, so only separate processes
    # can show an output that depends on it; the two seeds run side by side
    src = str(Path(monosing.__file__).resolve().parents[1])
    calls = []
    for name in FIXTURE_NAMES:
        calls.append(["gorenstein", fixture_path(name), "--json"])
        for check in ("classification", "tilting"):
            calls.append(["oracle", fixture_path(name), "--check", check])
    # loc1's profile walks summand classes keyed by frozensets
    calls.append(["gorenstein", fixture_path("loc1"), "--json"])
    for argv in calls:
        procs = [subprocess.Popen([sys.executable, "-m", "monosing.cli", *argv],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
                 for seed in ("0", "1")]
        runs = [(proc.communicate(timeout=60)[0], proc.returncode) for proc in procs]
        assert runs[0][1] == 0 and runs[0][0], argv
        assert runs[0] == runs[1], argv
