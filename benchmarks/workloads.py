"""The benchmark's workloads: inputs made from a seed, one timed operation
per input, and the correctness gate each answer must pass.

Every operation starts from text serialized during set-up, so no memo that a
presentation carries (basis, profile, resolution traces) survives from one
operation to the next.  The package is reached only through its public
functions, and ``--cutoff`` is never passed to the CLI because it rewrites
``oracle.DIM_CAP`` for the whole process.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_CLI = Path(__file__).resolve().parent / "cli_expected.json"

MODULES = ("errors", "linalg", "presentation", "perfection", "gorenstein", "graded",
           "oracle", "gluing", "corpus", "cli")

UNDECIDED = ("undecided",)


class GateViolation(Exception):
    """An answer that the correctness gate rejects."""


def loaded_modules():
    """The monosing modules in sys.modules, by name."""
    return {n: m for n, m in sys.modules.items() if n == "monosing" or n.startswith("monosing.")}


def load_package():
    """Import monosing afresh (dropping any earlier import) and return its modules."""
    for name in loaded_modules():
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("monosing." + m) for m in MODULES})


def _oracle_checks(pkg, pres):
    """Profile, then on a Gorenstein profile the classification crosscheck and
    the tilting check over the default window 2 * dim A."""
    oracle = pkg.oracle
    errors = pkg.errors
    try:
        prof = oracle.injective_dimension_profile(pres)
        if not prof.decided:
            return UNDECIDED
        if not prof.gorenstein:
            return ("not-gorenstein",)
        try:
            report = oracle.crosscheck_classification(pres)
        except errors.MismatchDetected as e:
            return ("mismatch", str(e))
        tilting = oracle.verify_omega_T_ext_vanishing(pres, 2 * pres.dimension())
        return ("gorenstein", prof.level, report["homological_classes"], tilting)
    except errors.UndecidedResolution:
        return UNDECIDED


class Workload:
    """``ops`` is a list of (op id, input); ``run`` times nothing itself."""

    name = None

    def run(self, text):
        return _oracle_checks(self.pkg, self.pkg.presentation.parse_presentation(text))

    def check(self, op_id, result):
        """Raise GateViolation for a wrong answer; True when it is undecided."""
        raise NotImplementedError

    def check_pass(self, results):
        """Gate over one whole pass; returns the number of undecided operations."""
        undecided = 0
        for op_id, result in results:
            if result[0] == "error":
                raise GateViolation(f"{self.name} op {op_id}: raised {result[1]}")
            undecided += bool(self.check(op_id, result))
        return undecided


class Sweep(Workload):
    """The first 133 draws of corpus.random_presentation at the corpus seed,
    which are the draws gorenstein_corpus(rng, 100) consumes at the default
    seed, in an order shuffled by the workload seed."""

    name = "sweep"
    DRAWS = 133

    def __init__(self, pkg, seed, corpus_seed, workdir):
        self.pkg = pkg
        rng = random.Random(corpus_seed)
        to_text = pkg.presentation.presentation_to_text
        self.ops = [(i, to_text(pkg.corpus.random_presentation(rng))) for i in range(self.DRAWS)]
        random.Random(seed).shuffle(self.ops)

    def check(self, op_id, result):
        if result[0] == "mismatch":
            raise GateViolation(f"sweep draw {op_id}: {result[1]}")
        if result[0] == "gorenstein" and result[3] is not True:
            raise GateViolation(f"sweep draw {op_id}: tilting check returned {result[3]}")
        return result == UNDECIDED


def nakayama_text(n, m):
    """kZ_n/J^m: the basic n-cycle with every path of length m as a relation."""
    lines = ["vertex " + " ".join(str(i + 1) for i in range(n))]
    lines += [f"arrow t{i + 1} {i + 1} {(i + 1) % n + 1}" for i in range(n)]
    lines += ["relation " + " ".join(f"t{(i + k) % n + 1}" for k in range(m)) for i in range(n)]
    return "\n".join(lines) + "\n"


class Nakayama(Workload):
    """Every self-injective Nakayama algebra Z_n R_m, m in 2..5, 6 <= n*m <= 48."""

    name = "nakayama"

    def __init__(self, pkg, seed, corpus_seed, workdir):
        self.pkg = pkg
        self.ops = [((n, m), nakayama_text(n, m))
                    for m in (2, 3, 4, 5) for n in range(1, 49) if 6 <= n * m <= 48]
        random.Random(seed).shuffle(self.ops)

    def check(self, op_id, result):
        n, m = op_id
        expected = ("gorenstein", 0, n * (m - 1), True)
        if result != expected:
            raise GateViolation(f"nakayama Z_{n}R_{m}: got {result}, expected {expected}")
        return False


class Cli(Workload):
    """In-process monosing.cli.main over the fixtures, four larger Nakayama
    algebras and six gentle presentations drawn at the corpus seed, plus two
    gluing calls, in an order shuffled by the workload seed."""

    name = "cli"
    FIXTURES = ("z3r2", "z2r3", "lin", "her", "glu", "z6r3")
    NAKAYAMA = ((12, 4), (24, 3), (48, 3), (32, 5))
    GENTLE = 6
    COMMANDS = ("info", "basis", "perfect", "gproj", "gorenstein", "singcat", "graded")

    def __init__(self, pkg, seed, corpus_seed, workdir):
        self.pkg = pkg
        files = {name: ROOT / "fixtures" / f"{name}.quiver" for name in self.FIXTURES}
        texts = {f"z{n}r{m}": nakayama_text(n, m) for n, m in self.NAKAYAMA}
        rng = random.Random(corpus_seed)
        for i in range(self.GENTLE):
            pres = pkg.corpus.random_gentle_presentation(rng, max_vertices=10, max_arrows=16)
            texts[f"gentle{i + 1}"] = pkg.presentation.presentation_to_text(pres)
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            files[name] = workdir / f"{name}.quiver"
            files[name].write_text(text, encoding="utf-8")
        self.ops = []
        for name, path in files.items():
            for command in self.COMMANDS:
                self._add([command, name], path)
                self._add([command, name, "--json"], path)
            self._add(["oracle", name, "--check", "gorenstein"], path)
        self._add(["glue", "z6r3", "--pairs", "3:6", "--report"], files["z6r3"])
        self._add(["glue", "z6r3", "--pairs", "3:6", "--bar"], files["z6r3"])
        random.Random(seed).shuffle(self.ops)
        try:
            with open(EXPECTED_CLI, encoding="utf-8") as fh:
                recorded = json.load(fh)
        except FileNotFoundError:  # only while record_cli.py writes it
            recorded = {"corpus_seed": None, "invocations": {}}
        self.expected = {k: tuple(v) for k, v in recorded["invocations"].items()
                         if corpus_seed == recorded["corpus_seed"] or not _is_gentle(k)}
        self.first_pass = None

    def _add(self, shown, path):
        argv = list(shown)
        argv[1] = str(path)
        self.ops.append((" ".join(shown), argv))

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(list(argv))
        text = out.getvalue()
        return ("exit", code, hashlib.sha256(text.encode("utf-8")).hexdigest(), text,
                err.getvalue())

    def check_pass(self, results):
        answers = {op_id: result[1:3] for op_id, result in results if result[0] == "exit"}
        if self.first_pass is None:
            self.first_pass = answers
        elif answers != self.first_pass:
            changed = sorted(k for k in answers if answers[k] != self.first_pass.get(k))
            raise GateViolation(f"cli output changed between passes: {changed[:3]}")
        self.gentle_verdicts = {}
        for op_id, result in results:
            words = op_id.split()
            if words[0] == "gorenstein" and words[2:] == ["--json"] and result[:2] == ("exit", 0):
                self.gentle_verdicts[words[1]] = json.loads(result[3])
        return super().check_pass(results)

    def check(self, op_id, result):
        _, code, digest, text, err = result
        undecided = ((code == 1 and ("cutoff" in err or "undecided" in err))
                     or '"decided": false' in text or "undecided" in text)
        if op_id in self.expected:
            if (code, digest) != self.expected[op_id]:
                raise GateViolation(f"cli {op_id!r}: exit {code} sha256 {digest[:12]}, "
                                    f"recorded {self.expected[op_id][0]} "
                                    f"{self.expected[op_id][1][:12]}")
            return undecided
        if not _is_gentle(op_id):
            raise GateViolation(f"cli {op_id!r}: no recorded answer in {EXPECTED_CLI.name}")
        # A seeded gentle input without a recorded answer: check the laws instead.
        command, name = op_id.split()[:2]
        if name not in self.gentle_verdicts:
            raise GateViolation(f"cli 'gorenstein {name} --json' gave no verdict")
        data = self.gentle_verdicts[name]
        one_gor = data["one_gorenstein"]
        if not data["gentle"]["is_gentle"] or data["gentle"]["criterion"] != one_gor:
            raise GateViolation(f"cli {op_id!r}: gentle cycle criterion disagrees with "
                                f"the 1-Gorenstein test")
        prof = data["oracle"]
        if prof["decided"]:
            # Geiss-Reiten: gentle algebras are Gorenstein; level <= 1 iff 1-Gorenstein.
            if not prof["gorenstein"] or (prof["level"] <= 1) != one_gor:
                raise GateViolation(f"cli {op_id!r}: oracle profile {prof} contradicts "
                                    f"1-Gorenstein={one_gor}")
        allowed = {0} | ({1} if undecided or (command == "singcat" and not one_gor) else set())
        if code not in allowed:
            raise GateViolation(f"cli {op_id!r}: exit {code}, expected one of {sorted(allowed)}")
        return undecided


def _is_gentle(op_id):
    return op_id.split()[1].startswith("gentle")


WORKLOADS = {w.name: w for w in (Sweep, Nakayama, Cli)}
