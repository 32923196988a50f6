import json

import pytest

from monosing.cli import main
from monosing.presentation import parse_presentation

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


def test_oracle_cutoff_applies_to_one_call(capsys):
    # --cutoff must not outlive its call: a leaked cap makes every later
    # in-process call report glu as not Gorenstein
    from monosing import oracle

    code, out, _ = run(capsys, "oracle", "--check", "gorenstein", "--cutoff", "2",
                       fixture_path("glu"))
    assert code == 1 and "undecided (resolution cutoff reached)" in out
    code, out, _ = run(capsys, "gorenstein", fixture_path("glu"))
    assert code == 0 and "oracle        gorenstein=True level=1" in out
    assert oracle.DIM_CAP == 260


def test_gorenstein_reports_undecided_profile(capsys, monkeypatch):
    from monosing import oracle

    monkeypatch.setattr(oracle, "DIM_CAP", 2)
    code, out, _ = run(capsys, "gorenstein", fixture_path("glu"))
    assert code == 0
    assert "oracle        undecided (resolution cutoff reached)" in out
    assert "gorenstein=False" not in out


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
