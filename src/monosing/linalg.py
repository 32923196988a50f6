"""Small exact linear algebra over the rationals.

Matrices are lists of rows; entries are ints or Fractions and everything is
exact.  The elimination core clears denominators and runs fraction-free over
the integers with gcd row normalization, which is far faster than Fraction
arithmetic on the incidence-style matrices arising here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = 1
    return M


def shape(A):
    return (len(A), len(A[0]) if A else 0)


def mat_mul(A, B):
    m, k = shape(A)
    k2, n = shape(B)
    assert k == k2, f"shape mismatch {shape(A)} x {shape(B)}"
    out = zeros(m, n)
    for i in range(m):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(n):
                    if Bt[j]:
                        row[j] += a * Bt[j]
    return out


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v) if a and x) for row in A]


def is_zero_matrix(A):
    return all(all(x == 0 for x in row) for row in A)


def transpose(A):
    m, n = shape(A)
    return [[A[i][j] for i in range(m)] for j in range(n)]


def _int_rows(A):
    """Copies of the rows scaled to integers (denominators cleared)."""
    rows = []
    for row in A:
        if any(isinstance(x, Fraction) for x in row):
            denom = 1
            for x in row:
                if isinstance(x, Fraction):
                    denom = denom * x.denominator // gcd(denom, x.denominator)
            rows.append([int(x * denom) for x in row])
        else:
            rows.append(list(row))
    return rows


def _normalize_row(row):
    g = 0
    for x in row:
        if x:
            g = gcd(g, abs(x))
            if g == 1:
                return row
    if g > 1:
        return [x // g for x in row]
    return row


def echelon(A):
    """Integer row echelon form: returns (rows, pivot column list).

    Rows are gcd-normalized after each elimination to keep entries small;
    the row space is preserved exactly.
    """
    rows = _int_rows(A)
    m, n = shape(rows)
    pivots = []
    r = 0
    for c in range(n):
        pivot = None
        best = None
        for i in range(r, m):
            x = rows[i][c]
            if x:
                if best is None or abs(x) < best:
                    pivot, best = i, abs(x)
                    if best == 1:
                        break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(r + 1, m):
            x = rows[i][c]
            if x:
                ri = rows[i]
                rows[i] = _normalize_row([pv * a - x * b for a, b in zip(ri, prow)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def rank(A):
    if not A or not A[0]:
        return 0
    return len(echelon(A)[1])


def nullspace(A, ncols=None):
    """Basis of {x : Ax = 0} as a list of column vectors.

    ``ncols`` must be given when A may have no rows (the shape is lost).
    """
    m, n = shape(A)
    if m == 0 and ncols is not None:
        n = ncols
    if n == 0:
        return []
    if m == 0:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows, pivots = echelon(A)
    free = [j for j in range(n) if j not in set(pivots)]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        # back-substitution over the echelon rows, bottom-up
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            row = rows[r]
            s = sum(row[j] * v[j] for j in range(c + 1, n) if row[j] and v[j])
            v[c] = -Fraction(s, row[c]) if s else Fraction(0)
        # clear denominators so kernel vectors stay integral
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        basis.append([int(x * denom) for x in v])
    return basis


def solve_many(A, bs):
    """Solutions of Ax = b for each b in bs; None entries mark inconsistency."""
    m, n = shape(A)
    k = len(bs)
    aug = [list(A[i]) + [bs[t][i] for t in range(k)] for i in range(m)]
    rows, pivots = echelon(aug)
    out = []
    for t in range(k):
        col = n + t
        # inconsistent iff some row with zero A-part is nonzero in this b column
        if any(all(row[j] == 0 for j in range(n)) and row[col] != 0 for row in rows):
            out.append(None)
            continue
        x = [Fraction(0)] * n
        for r in range(len(rows) - 1, -1, -1):
            if pivots[r] >= n:
                continue
            c = pivots[r]
            row = rows[r]
            s = sum(row[j] * x[j] for j in range(c + 1, n) if row[j] and x[j])
            x[c] = Fraction(row[col] - s, row[c])
        out.append(x)
    return out


def pivot_columns(A):
    """Pivot columns of A (a column basis) via integer echelon."""
    if not A or not A[0]:
        return []
    return echelon(A)[1]


def is_invertible(A):
    m, n = shape(A)
    return m == n and (n == 0 or rank(A) == n)
