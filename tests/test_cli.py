import hashlib
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
from monosing.presentation import dumps_json, parse_presentation, parse_presentation_file

from conftest import FIXTURE_NAMES, fixture_path


@pytest.fixture(autouse=True)
def reports_are_written_as_json_writes_them(monkeypatch):
    # every report a CLI test renders has the bytes of json.dumps at indent 2
    import monosing.cli

    def checked(data):
        out = dumps_json(data)
        assert out == json.dumps(data, indent=2) + "\n"
        return out

    monkeypatch.setattr(monosing.cli, "dumps_json", checked)


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


def test_glue_bar_refuses_an_infinite_gluing_with_its_chain(capsys):
    # the glued presentation is checked before the bar presentation is built,
    # so the refusal keeps the witness chain
    code, out, err = run(capsys, "glue", fixture_path("z6r3"), "--pairs", "1:2", "--bar")
    assert (code, out) == (1, "")
    assert err.startswith("refused:") and "witness chain: t1" in err


def test_glue_report_and_bar_exclude_each_other(capsys):
    # one view per call: the pair is a usage error, not a silently dropped flag
    with pytest.raises(SystemExit) as exit_info:
        main(["glue", fixture_path("z6r3"), "--pairs", "3:6", "--report", "--bar"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "not allowed with argument --report" in err


@pytest.mark.parametrize("spec", ["1-2", "1:99", "1:2,2:3", ":"])
def test_glue_pair_errors_are_input_errors(capsys, spec):
    # a malformed pair, an unknown vertex and a repeated vertex all exit 2
    code, out, err = run(capsys, "glue", fixture_path("z6r3"), "--pairs", spec)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_glue_pairs_ignore_whitespace_around_vertices(capsys):
    # vertex names hold no whitespace, so both sides of a pair are stripped
    expected = run(capsys, "glue", fixture_path("z6r3"), "--pairs", "3:6")
    assert expected[0] == 0
    for spec in (" 3 : 6", "3 :6 ", " 3:6,"):
        assert run(capsys, "glue", fixture_path("z6r3"), "--pairs", spec) == expected, spec


def test_gorenstein_text_runs_each_check_once(capsys, monkeypatch):
    # the text lines are rendered from the JSON report, so one text call runs
    # the Nakayama and gentle checks once each, wherever the CLI reaches them
    import monosing.cli as cli
    import monosing.gorenstein as gorenstein

    calls = []
    for name in ("detect_self_injective_nakayama", "gentle_check"):
        def counting(pres, name=name, real=getattr(gorenstein, name)):
            calls.append(name)
            return real(pres)

        for module in (gorenstein, cli):
            monkeypatch.setattr(module, name, counting, raising=False)
    code, out, _ = run(capsys, "gorenstein", fixture_path("glu"))
    assert code == 0 and "nakayama" in out and "gentle" in out
    assert sorted(calls) == ["detect_self_injective_nakayama", "gentle_check"]


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


def test_infinite_dimensional_refusal_is_fast_on_a_long_relation(tmp_path, capsys):
    # one vertex, five loops and a^10: the refusal needs the relation
    # automaton's 10 states, not one state per short nonzero word
    f = tmp_path / "a10.quiver"
    f.write_text("vertex 1\n" + "".join(f"arrow {x} 1 1\n" for x in "abcde")
                 + "relation" + " a" * 10 + "\n")
    code, out, err = run(capsys, "info", str(f))
    assert (code, out) == (1, "")
    assert "pumped" in err and "a·a·a·a·a·a·a·a·a·b" in err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.quiver"
    bad.write_text("vertex 1\narrow a 1 1\nrelation a\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2


def test_a_declaration_error_names_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.quiver"
    bad.write_text("vertex 1 2\narrow a 1 2\narrow a 2 1\n")
    code, out, err = run(capsys, "info", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: line 3: duplicate arrow 'a'\n"


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


@pytest.mark.parametrize("window", ["-3", "0"])
def test_tilting_window_below_one_is_rejected(capsys, window):
    # the check tests shifts 1 .. window, so a window below 1 would pass vacuously
    with pytest.raises(SystemExit) as exc:
        main(["oracle", fixture_path("z3r2"), "--check", "tilting", "--window", window])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--window" in err


def test_tilting_default_window_is_at_least_one(tmp_path, capsys):
    # a presentation with no vertices has dimension 0; the default window
    # 2 * dim A would be 0, which the check rejects
    empty = tmp_path / "empty.quiver"
    empty.write_text("")
    code, out, err = run(capsys, "oracle", str(empty), "--check", "tilting")
    assert (code, out, err) == (0, "vanishing     True (window 1)\n", "")


# sha256 of `oracle --check gorenstein --trace` stdout, plain and --json
TRACE_SHA256 = {
    "z3r2": ("a051c9fe0cf83430f389e65500ad81b8a28bcf0698de4e9add41c5fa9096d835",
             "244987464055fa1bc1a165e9cac5f64f00e60dcb0267d0e0f6113c0b3d69050a"),
    "z2r3": ("5dd454cb02fba232002d1ceb6b0d61039f8620842113c2884c25c7568603b5d6",
             "faecad4617bdd7f49a54a49f774e987f4818c81248e0476883d2ca982918344e"),
    "lin": ("0e6bc6dc4cb1ac558a7e50bd0c5facd834c8b2a50d3060f3dfd44b0fc8e01590",
            "86342682129f44ca7186e8b241cf8daec4a3e306284c36187bab01a3ad9f00f1"),
    "her": ("e64be322c07f2efe88273ed29cc66c4afe8a574d6d9995bb8ab1796b5d85b840",
            "6141c14c0a94795846babe1dd931eea5d3b73b4da42a2b77ad5f2e3a9ca9de8f"),
    "glu": ("c333a0f825bc22b8f1d81a952de21be0ebf2336454f7701bea3c0ac991cf2d23",
            "4d3161d2e42b752b08b32efcf156f1a9dbf1c6e9876ad5aa6479bd4fd7d3788b"),
    "z6r3": ("0bfe58a0dedd28e6791ba016544bef1eb626faea845bc21598e67ec119ccad1c",
             "f4d7435c3e18497c33fa0e4af5b63430d00b83751628b045a12f49bf88a1dca4"),
    "loc1": ("33f9e758bdced2a416f4805905e16ef9f05ce259a644dc683f7cf3953d1e3fa6",
             "21dfac00890ac794132664cc0ffa2054d3842ecb30277da866a5a36872c60735"),
    "z12r3": ("9f44fa5b766a1aad312d437f03806aa0454eb61735f7e24d8529872893293d7b",
              "11ed6c16d5492f679db6747511dbbe26922eeb3da5244b75155fea910bb1af22"),
}


# exit code and sha256 of `oracle --check classification` and `--check tilting`
# stdout, plain and --json; loc1 is refused by the crosscheck (empty stdout)
# and fails the tilting check
CHECK_SHA256 = {
    "z3r2": {
        "classification": (0, "064ddb10c99eed67882a6f6bda9dc5e997bfaca4d70638aa10317ad7537af138",
                          "ff7a2cea7e9054a85035cabdea5e3684af4114c2024ada9e5ad2bf67aaaa4fb0"),
        "tilting": (0, "095c387303e7e11a386298bf33e6edf8a899ee5d594e0c7cedea9ec7aec30c49",
                   "3fb955a8c2117a915b98e7c934fe16b884eb05fd929a9107440e7c6ba0196854"),
    },
    "z2r3": {
        "classification": (0, "34f33b47fded2ec287319b3f9b65fae3e160ba1be67524e0c6301e182a561bff",
                          "06c6a2d279f92661fd50af5cde8efb2e4c1e1652cf99d435303fb2152aba50f9"),
        "tilting": (0, "095c387303e7e11a386298bf33e6edf8a899ee5d594e0c7cedea9ec7aec30c49",
                   "3fb955a8c2117a915b98e7c934fe16b884eb05fd929a9107440e7c6ba0196854"),
    },
    "lin": {
        "classification": (0, "def33a1e6bcab3a46bf0700f9e480134481803411e696ce853ee6a0bd0220e0d",
                          "2557a0c60cee32e2dcc9236d2efe4b43b617a81d4d9a47a79782703094acdd22"),
        "tilting": (0, "b000a6be5800c6820edfd41ed49c01a977eaa3414394bd08eeb430a0f6d94a2a",
                   "91f97719e73f3ac4a4a59dc0ef085ae5c2b0144fa792785b8a23eeb5dbff7494"),
    },
    "her": {
        "classification": (0, "def33a1e6bcab3a46bf0700f9e480134481803411e696ce853ee6a0bd0220e0d",
                          "2557a0c60cee32e2dcc9236d2efe4b43b617a81d4d9a47a79782703094acdd22"),
        "tilting": (0, "ed5c9c772f3b6b041d21d8d5f4829096c9b2d77b2030e4075d1f0826eb32e3bf",
                   "bfad02afc20371bc05d13e53a3c2e8ee2ae8c2c0ed0d4a3820a86fbc451c59eb"),
    },
    "glu": {
        "classification": (0, "cfe00ac906c819b1df8a136dc609cfa5d5c5a5d77e0b90a28fd81a2a3ad79220",
                          "eecd0d802a71a6229f01d86334bd94aabe61a0ac7897165a2d26f65c9d48d7c9"),
        "tilting": (0, "810953b019557d9d1eb1bd50933b71ef29af935b50418854b26a98b3bda1866f",
                   "4195937b764af4ce7f5d06039aedcdc621378d11d734f9ee0a7bb27859dd4fca"),
    },
    "z6r3": {
        "classification": (0, "cfe00ac906c819b1df8a136dc609cfa5d5c5a5d77e0b90a28fd81a2a3ad79220",
                          "5d931a4a71f9c49e170a37790fb272fe1b9845aab4fb881d07ae7eecc3e99513"),
        "tilting": (0, "d0e99d124654c2d27ffb42f07ad9828d7d41ff8127295bbfa57331ac96ea4c1b",
                   "006339a88ef875bb23c3538edb53bd12d1716f4caa7e6511147ff4cd832ef138"),
    },
    "loc1": {
        "classification": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "tilting": (1, "0ce58f56c7f10946af14116c18893662641e34614cf37af47b734de99db30c16",
                   "07084361afad5cfe995629be42c671caf5c9f7c74dbfb27cbe724912d584a11d"),
    },
}


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["loc1"])
def test_check_bytes_are_pinned(capsys, name):
    for check, (expected_code, *expected) in CHECK_SHA256[name].items():
        digests = []
        for extra in ([], ["--json"]):
            code, out, _ = run(capsys, "oracle", fixture_path(name), "--check", check, *extra)
            assert code == expected_code, (check, extra)
            digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
        assert digests == expected, check


def test_trace_report_lists_every_dense_step(tmp_path, capsys):
    # resolve stops at a certified split without taking that step's kernel;
    # the report still prints P_0 .. P_pd and Omega^1 .. Omega^(pd+1) = 0 for
    # a finite trace, and the bytes it printed before
    from conftest import nakayama

    from monosing.presentation import presentation_to_text

    paths = {name: fixture_path(name) for name in FIXTURE_NAMES + ["loc1"]}
    paths["z12r3"] = tmp_path / "z12r3.quiver"
    paths["z12r3"].write_text(presentation_to_text(nakayama(12, 3)), encoding="utf-8")
    finite = 0
    for name, path in paths.items():
        report = resolution_trace_report(parse_presentation_file(path))
        for side in report.values():
            for tr in side.values():
                if tr["status"] == "Finite":
                    assert len(tr["projective_ranks"]) == tr["pd"] + 1, (name, tr)
                    assert len(tr["syzygy_dims"]) == tr["pd"] + 1, (name, tr)
                    assert tr["syzygy_dims"][-1] == 0, (name, tr)
                    finite += 1
                else:
                    assert tr["syzygy_dims"] and all(tr["syzygy_dims"]), (name, tr)
        digests = []
        for extra in ([], ["--json"]):
            code, out, _ = run(capsys, "oracle", str(path), "--check", "gorenstein", "--trace",
                               *extra)
            assert code == 0
            digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
        assert tuple(digests) == TRACE_SHA256[name], name
    assert finite > 40


# sha256 of `oracle --check gorenstein --trace --json` stdout on W_k, without
# and with the relation a0.a1, pinned while every non-cyclic injective
# summand was still built and resolved
W_LINE_TRACE_SHA256 = {
    (1, False): "9b93dc93f1223b57b9cfd7e4d7c239db30dd708b8a89fce98a33c677e77b4f31",
    (2, False): "f6e4af0b78e6d30ff7edb6e1c62cc449eda5b88eda15f9f5572e71f82734198f",
    (2, True): "813c93c915f7915a0da2014114deddad3c54541b2fd3c78d7ac83f9f42a4ae71",
    (3, False): "e0b55e64d5aac8f28d06b256e7904e07115f8f43a50e25447a717e26663fea9c",
    (3, True): "861a777260c61f15318b8339f3c641e09fc0317d879048c83db7303336c90590",
    (4, False): "e11f6a03c8ba8f4c923c898f8acff1fd248b6254e4a4e3b642737c77328ee27b",
    (4, True): "2a0fdde951434787d53596379144b930250519dab9da4699ee232fd17f2c0eca",
    (5, False): "1a35261a136dcf82c6acf0b311179f52933d16c33e8ad41df38b672326c992da",
    (5, True): "2cfbf3f7d043f207aec86ca646da102d88236a62cb16c00767e14c6dbc08bca4",
    (6, False): "644883ff8cad4002308ca60c7fc78fcaaae4572e112fb2fa392a01fd7b320d84",
    (6, True): "8dbdba530031c2ddd7c98088d74e6e3cdf651843bba6b148a11cb225510f88d8",
}


def unresolved_trace_sha256(tmp_path, capsys, monkeypatch, text):
    """The sha256 of `oracle --check gorenstein --trace --json` on the
    presentation ``text``, asserting that it resolves no module."""
    import monosing.oracle

    resolved = []
    real = monosing.oracle.resolve
    monkeypatch.setattr(monosing.oracle, "resolve", lambda rep: resolved.append(rep) or real(rep))
    path = tmp_path / "line.quiver"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "oracle", str(path), "--check", "gorenstein", "--trace", "--json")
    assert code == 0 and resolved == []
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("k, relation", sorted(W_LINE_TRACE_SHA256))
def test_w_line_trace_reports_are_pinned(tmp_path, capsys, monkeypatch, k, relation):
    # each side of W_k has k non-cyclic injective summands, and the fibre
    # rule ends every one of them finite, so nothing is resolved
    from conftest import w_line_text

    text = w_line_text(k, relation)
    assert unresolved_trace_sha256(tmp_path, capsys, monkeypatch, text) == \
        W_LINE_TRACE_SHA256[k, relation]


L_LINE_TRACE_SHA256 = {
    2: "3d23659f8b6f01a24e9ed8fb33ebf5a1da20135f53240a3c89916586979d60cf",
    3: "3c13f806019fdcfd89a9d799e8bbbde9369ed1001b93c4888e28e3c2604be928",
    4: "f6b4f3c758bfcdc6cfb331bef1491d41a2fe6ba1f64bc9b13ff28ba3be3c0563",
    5: "9b423d2470a31d52da449f4c9b8e64df6b12bc8c1fe760791e797fbe39fdafa0",
    6: "5c41465032b59caa4fcaac83aff4ab8843a3aa6dbfcd34c64aaeae1a5ff2d274",
}


@pytest.mark.parametrize("k", sorted(L_LINE_TRACE_SHA256))
def test_l_line_trace_reports_are_pinned(tmp_path, capsys, monkeypatch, k):
    # the loop at k // 2 makes 3 to 8 injective summands of L_k periodic;
    # the fibre rule certifies every non-cyclic one and lists its classes
    # in the dense order, so the periodic details are walked, not resolved
    from conftest import l_line_text

    assert unresolved_trace_sha256(tmp_path, capsys, monkeypatch, l_line_text(k)) == \
        L_LINE_TRACE_SHA256[k]


# sha256 of `oracle --check gorenstein --trace --json` stdout on the draws
# of random_presentation at corpus seed 174011 (the sweep workload's) where
# a fibre certificate fails, pinned while those summands were built and
# resolved
SWEEP_TRACE_SHA256 = {
    43: "a4a92a1f085beaa022c08883956bc49696768b5ed246c3931eaf5a2d59a0e10b",
    65: "da991ccae3a5466ebdc84d0af11d5a03a6f58118b83301269f0f6561cbde22c2",
    73: "d891e9b29857aab11f3a6e91fe4c15323c02663418ab5bb1e5827e6fc1f10fd6",
}


@pytest.mark.parametrize("draw", sorted(SWEEP_TRACE_SHA256))
def test_failed_fibre_certificate_trace_reports_are_pinned(tmp_path, capsys, monkeypatch, draw):
    # each draw has a non-cyclic injective summand whose fibre certificate
    # fails; its later syzygies are taken in path coordinates, so nothing
    # is resolved and the bytes are the dense resolution's
    from monosing.oracle import _fibre_split, _injective_summand_key
    from monosing.presentation import presentation_to_text

    rng = random.Random(174011)
    pres = [random_presentation(rng) for _ in range(draw + 1)][-1]
    assert any(_fibre_split(pr, v)[3] is not None
               for pr in (pres, pres.opposite()) for v in pr.quiver.vertices
               if _injective_summand_key(pr, v) is None)
    text = presentation_to_text(pres)
    assert unresolved_trace_sha256(tmp_path, capsys, monkeypatch, text) == \
        SWEEP_TRACE_SHA256[draw]


@pytest.mark.parametrize("check, flag", [("tilting", ["--trace"]),
                                         ("classification", ["--trace"]),
                                         ("gorenstein", ["--window", "3"]),
                                         ("classification", ["--window", "3"])])
def test_oracle_refuses_a_flag_its_check_does_not_read(capsys, check, flag):
    # --trace is read by the gorenstein check only, --window by tilting only
    code, out, err = run(capsys, "oracle", fixture_path("z3r2"), "--check", check, *flag)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and flag[0] in err and check in err


def test_trace_shares_the_profiles_opposite(capsys, monkeypatch):
    # the profile and the trace report resolve the same opposite presentation,
    # so `oracle --check gorenstein --trace` builds it once
    from monosing.presentation import MonomialPresentation

    pres = parse_presentation_file(fixture_path("z2r3"))
    assert pres.opposite() is pres.opposite()
    built = []
    real_init = MonomialPresentation.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(MonomialPresentation, "__init__", init)
    for name in ("z2r3", "glu"):
        built.clear()
        code, _, _ = run(capsys, "oracle", fixture_path(name), "--check", "gorenstein", "--trace")
        assert code == 0
        assert len(built) == 2, name  # the parsed file and its opposite


# main parses with one parser per process; these calls share it


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    import monosing.cli as cli

    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for _ in range(20):
        assert run(capsys, "info", fixture_path("z3r2"))[0] == 0
    assert len(builds) == 1


def test_default_window_after_an_explicit_window(capsys):
    # --window's default is None, so a call without it falls back to
    # max(1, 2 * dim A) even after a call that set it
    path = fixture_path("z3r2")
    window = max(1, 2 * parse_presentation_file(path).dimension())
    assert window != 3
    code, out, _ = run(capsys, "oracle", path, "--check", "tilting", "--window", "3")
    assert (code, out) == (0, "vanishing     True (window 3)\n")
    code, out, _ = run(capsys, "oracle", path, "--check", "tilting")
    assert (code, out) == (0, f"vanishing     True (window {window})\n")


def alone(capsys, *argv):
    """A call with a freshly built parser, as a one-shot process makes it."""
    import monosing.cli as cli

    cli._parser.cache_clear()
    return run(capsys, *argv)


def test_glue_views_do_not_leak_into_later_calls(capsys):
    calls = [("glue", fixture_path("z6r3"), "--pairs", "3:6", *view)
             for view in (["--report"], ["--bar"], [])]
    expected = [alone(capsys, *argv) for argv in calls]
    assert [run(capsys, *argv) for argv in calls] == expected
    assert len({out for _, out, _ in expected}) == 3


def test_usage_error_leaves_the_parser_intact(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", fixture_path("z3r2"), "--check", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    code, out, _ = run(capsys, "oracle", fixture_path("z3r2"), "--check", "tilting")
    expected_code, digest, _ = CHECK_SHA256["z3r2"]["tilting"]
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (expected_code, digest)


def test_help_is_the_parsers_help(capsys):
    from monosing.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()
