from pathlib import Path

import pytest

from monosing.corpus import random_gentle_presentation, random_presentation, seeded_rng
from monosing.presentation import parse_presentation, parse_presentation_file

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

FIXTURE_NAMES = ["z3r2", "z2r3", "lin", "her", "glu", "z6r3"]


def load(name):
    return parse_presentation_file(FIXTURES / f"{name}.quiver")


def nakayama(n, m):
    """kZ_n/J^m: the n-cycle with every path of length m as a relation."""
    lines = ["vertex " + " ".join(str(i + 1) for i in range(n))]
    lines += [f"arrow t{i + 1} {i + 1} {(i + 1) % n + 1}" for i in range(n)]
    lines += ["relation " + " ".join(f"t{(i + k) % n + 1}" for k in range(m))
              for i in range(n)]
    return parse_presentation("\n".join(lines) + "\n")


def w_line_text(k, relation=False):
    """W_k: the line 0 -> 1 -> ... -> k with two parallel arrows a_i, b_i
    per step and no relation, or the one relation a0.a1."""
    lines = ["vertex " + " ".join(str(i) for i in range(k + 1))]
    for i in range(k):
        lines += [f"arrow a{i} {i} {i + 1}", f"arrow b{i} {i} {i + 1}"]
    if relation:
        lines.append("relation a0 a1")
    return "\n".join(lines) + "\n"


def l_line_text(k):
    """L_k: W_k with a loop x at m = k // 2 and the relations x.x and
    a_{m-1}.x, so that many injective summands have infinite pd."""
    m = k // 2
    return w_line_text(k) + f"arrow x {m} {m}\nrelation x x\nrelation a{m - 1} x\n"


def three_kernel_text():
    """A presentation whose injective summand at vertex 5 splits only after
    three kernels: its dense trace has syzygy dims [20, 19, 17] and splits
    at Omega^3 into classes that reach a cycle of 4.  It is draw 140
    (0-based) of random_presentation(rng, 6, 9, 4) from random.Random(3),
    taken after 300 random_presentation and 100
    random_gentle_presentation(rng, 12, 18) draws."""
    return ("vertex 1 2 3 4 5 6\n"
            "arrow x1 3 2\narrow x2 4 1\narrow x3 5 4\narrow x4 1 3\n"
            "arrow x5 4 5\narrow x6 1 2\narrow x7 1 5\n"
            "relation x3 x5\nrelation x3 x2 x4 x1\nrelation x2 x7 x3 x5\n"
            "relation x2 x7 x3 x2\nrelation x5 x3 x2 x4\nrelation x7 x3 x2 x7\n")


def class_rule_corpus():
    """Fixtures, loc1, seeded and gentle draws and Z_n R_m with m <= 6."""
    presentations = [load(name) for name in FIXTURE_NAMES + ["loc1"]]
    rng = seeded_rng()
    presentations += [random_presentation(rng) for _ in range(100)]
    presentations += [random_gentle_presentation(rng) for _ in range(25)]
    presentations += [nakayama(n, m) for m in range(2, 7) for n in range(1, 9)]
    return presentations


@pytest.fixture
def z3r2():
    return load("z3r2")


@pytest.fixture
def z2r3():
    return load("z2r3")


@pytest.fixture
def lin():
    return load("lin")


@pytest.fixture
def her():
    return load("her")


@pytest.fixture
def glu():
    return load("glu")


@pytest.fixture
def z6r3():
    return load("z6r3")


def fixture_path(name):
    return str(FIXTURES / f"{name}.quiver")
