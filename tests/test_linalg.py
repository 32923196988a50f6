"""The sparse exact kernels of ``linalg`` against a dense Gauss-Jordan
reference over Fraction, on seeded random and hand-picked matrices."""

from fractions import Fraction
from math import lcm

import pytest

from monosing import linalg
from monosing.corpus import seeded_rng


def reference_rref(A, ncols):
    """Reduced row echelon form over Fraction: (rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in A]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def reference_kernel(rows, pivots, ncols):
    """Per non-pivot column f, the kernel vector that is 1 at f and 0 at the
    other non-pivot columns, scaled to be primitive integral."""
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, c in zip(rows, pivots):
            x[c] = -row[f]
        denom = lcm(*(v.denominator for v in x))
        out.append([int(v * denom) for v in x])
    return out


def reference_consistent(A, b, ncols):
    _, pivots = reference_rref([list(row) + [x] for row, x in zip(A, b)], ncols + 1)
    return ncols not in pivots


def dense_product(A, x):
    return [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in A]


def random_matrix(rng, m, n):
    density = rng.choice([0.05, 0.3, 0.8])

    def entry():
        if rng.random() > density:
            return 0
        x = rng.randint(-5, 5)
        return Fraction(x, rng.randint(1, 4)) if rng.random() < 0.25 else x

    A = [[entry() for _ in range(n)] for _ in range(m)]
    if m >= 2 and rng.random() < 0.3:
        A[-1] = list(A[0])  # a duplicate row
    if m >= 3 and rng.random() < 0.3:
        A[1] = [a - 2 * b for a, b in zip(A[0], A[-1])]  # a dependent row
    return A


HAND_PICKED = [
    ([], 3),  # no rows
    ([[], []], 0),  # no columns
    ([[0, 0, 0], [0, 0, 0]], 3),  # all zero
    ([[1, 2, 3], [2, 4, 6], [-1, -2, -3]], 3),  # rank 1, negative entries
    ([[1, -1, 0, 0], [1, -1, 0, 0], [0, 0, 3, -6]], 4),  # duplicate rows
    ([[Fraction(1, 2), Fraction(-1, 3)], [3, -2]], 2),  # Fractions, rank 1
    ([[0, 0, 5], [0, 7, 0], [2, 0, 0]], 3),  # full rank, pivots out of row order
]


def cases():
    rng = seeded_rng()
    out = list(HAND_PICKED)
    for _ in range(300):
        m, n = rng.randint(0, 8), rng.randint(0, 8)
        out.append((random_matrix(rng, m, n), n))
    return out


def test_kernels_match_the_reference():
    rng = seeded_rng()
    for A, n in cases():
        ref_rows, ref_pivots = reference_rref(A, n)
        r = len(ref_pivots)
        assert linalg.rank(A) == r, A
        if A:
            assert linalg.pivot_columns(A) == ref_pivots, A
        kernel = linalg.nullspace(A, n)
        assert len(kernel) == n - r, A
        for x in kernel:
            assert len(x) == n and all(type(v) is int for v in x), (A, x)
            assert dense_product(A, x) == [0] * len(A), (A, x)
        assert kernel == reference_kernel(ref_rows, ref_pivots, n), A
        v = [rng.choice([0, 0, 1, -3, Fraction(2, 3)]) for _ in range(n)]
        assert linalg.mat_vec(A, v) == dense_product(A, v), (A, v)
        if not A:
            continue
        bs = [dense_product(A, v)] + [[rng.randint(-2, 2) for _ in A] for _ in range(3)]
        for b, x in zip(bs, linalg.solve_many(A, bs)):
            if not reference_consistent(A, b, n):
                assert x is None, (A, b)
            else:
                assert x is not None and dense_product(A, x) == b, (A, b, x)


def test_nullspace_of_no_rows_needs_ncols():
    assert linalg.nullspace([], 2) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        linalg.nullspace([])


def test_every_solver_reaches_elimination_through_echelon(monkeypatch):
    # ``benchmarks/run.py --trace 1`` counts elimination by wrapping this name
    calls = []
    echelon = linalg.echelon

    def counting(A):
        calls.append(A)
        return echelon(A)

    monkeypatch.setattr(linalg, "echelon", counting)
    A = [[1, 0, 2], [0, 1, 1]]
    for solver in (linalg.rank, linalg.nullspace, linalg.pivot_columns,
                   lambda A: linalg.solve_many(A, [[1, 1]])):
        before = len(calls)
        solver(A)
        assert len(calls) == before + 1, solver
