"""Small exact linear algebra over the rationals.

Matrices are dense lists of rows; entries are ints or Fractions and
everything is exact.  The matrices arising here are almost all zero, so the
kernels work over nonzero entries only: ``mat_vec`` sums over the nonzeros of
the vector, and elimination keeps each row as a dict ``{column: int}``.  The
elimination core clears denominators while it collects a row's nonzeros and
runs fraction-free over the integers with gcd row normalization, which is
far faster than Fraction arithmetic; back-substitution stays fraction-free
too and divides once at the end.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


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
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for row in A:
        s = 0
        for j, x in nonzero:
            a = row[j]
            if a:
                s += a * x
        out.append(s)
    return out


def transpose(A):
    m, n = shape(A)
    return [[A[i][j] for i in range(m)] for j in range(n)]


def _sparse_int_row(row):
    """The nonzeros of a dense row as {column: int}, denominators cleared."""
    sparse = {j: x for j, x in enumerate(row) if x}
    denom = None
    for x in sparse.values():
        if type(x) is not int:
            denom = lcm(denom or 1, x.denominator)
    if denom is not None:
        sparse = {j: x.numerator * (denom // x.denominator) for j, x in sparse.items()}
    return sparse


def _dot(u, v):
    """Sum of u[j] * v[j] over the columns both sparse rows hold."""
    if len(u) > len(v):
        u, v = v, u
    s = 0
    for j, a in u.items():
        b = v.get(j)
        if b:
            s += a * b
    return s


def echelon(A):
    """Integer row echelon form of a dense matrix: (sparse rows, pivot columns).

    Each returned row is a dict {column: int} whose least column is its
    pivot; the pivots increase.  For each pivot column the row with the
    smallest absolute entry there is chosen, and every other row with an
    entry in that column is eliminated fraction-free and gcd-normalized to
    keep entries small.  The row space is preserved exactly.
    """
    by_lead = {}  # least column -> rows whose first nonzero is there
    for row in A:
        sparse = _sparse_int_row(row)
        if sparse:
            by_lead.setdefault(min(sparse), []).append(sparse)
    leads = list(by_lead)
    heapify(leads)
    rows, pivots = [], []
    while leads:
        c = heappop(leads)
        group = by_lead.pop(c)
        p, best = 0, abs(group[0][c])
        for i in range(1, len(group)):
            if best == 1:
                break
            x = abs(group[i][c])
            if x < best:
                p, best = i, x
        prow = group.pop(p)
        pv = prow[c]
        for row in group:
            x = row[c]
            new = dict(row) if pv == 1 else {j: pv * a for j, a in row.items()}
            for j, b in prow.items():
                t = new.get(j, 0) - x * b
                if t:
                    new[j] = t
                else:
                    del new[j]
            if not new:
                continue
            g = gcd(*new.values())
            if g > 1:
                new = {j: a // g for j, a in new.items()}
            lead = min(new)
            if lead in by_lead:
                by_lead[lead].append(new)
            else:
                by_lead[lead] = [new]
                heappush(leads, lead)
        rows.append(prow)
        pivots.append(c)
    return rows, pivots


def rank(A):
    if not A or not A[0]:
        return 0
    return len(echelon(A)[1])


def _back_substitute(rows, pivots, v, col=None):
    """Fill in the pivot entries of the sparse integer vector v, bottom-up,
    so that v / scale solves every echelon row, its right-hand side being its
    entry in column ``col`` (0 without ``col``); returns scale.

    v starts with its non-pivot entries; it is rescaled in place whenever a
    pivot would not divide, so all arithmetic stays integral.
    """
    scale = 1
    for r in range(len(rows) - 1, -1, -1):
        row, c = rows[r], pivots[r]
        s = (row.get(col, 0) * scale if col is not None else 0) - _dot(row, v)
        if not s:
            continue
        # row[c] * v[c] must equal s; rescale v by row[c] / gcd to keep it integral
        p = row[c]
        g = gcd(s, p)
        k = p // g
        if k != 1:
            for j in v:
                v[j] *= k
            scale *= k
        v[c] = s // g
    return scale


def nullspace(A, ncols=None):
    """Basis of {x : Ax = 0} as a list of integral column vectors.

    ``ncols`` must be given when A may have no rows (the shape is lost);
    without it such an A raises ValueError.  Each vector is the primitive
    integral multiple, positive at its free column, of the kernel vector
    that is 1 at one non-pivot column and 0 at the others.
    """
    m, n = shape(A)
    if m == 0:
        if ncols is None:
            raise ValueError("nullspace of a matrix without rows needs ncols")
        n = ncols
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    if n == 0:
        return []
    rows, pivots = echelon(A)
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = {f: 1}
        # rows pivoting right of f have no entry in v's support, which stays at or left of f
        k = bisect_left(pivots, f)
        _back_substitute(rows[:k], pivots[:k], v)
        g = gcd(*v.values())
        if v[f] < 0:
            g = -g
        basis.append([v[j] // g if j in v else 0 for j in range(n)])
    return basis


def solve_many(A, bs):
    """Solutions of Ax = b for each b in bs; None entries mark inconsistency.

    Each solution is a list of Fractions, zero at the non-pivot columns.
    """
    m, n = shape(A)
    k = len(bs)
    aug = [list(A[i]) + [bs[t][i] for t in range(k)] for i in range(m)]
    rows, pivots = echelon(aug)
    r = next((r for r, c in enumerate(pivots) if c >= n), len(pivots))
    # rows from r on have a zero A-part, so b_t is consistent iff they avoid column n + t
    inconsistent = {j for row in rows[r:] for j in row}
    rows, pivots = rows[:r], pivots[:r]
    zero = Fraction(0)
    out = []
    for t in range(k):
        col = n + t
        if col in inconsistent:
            out.append(None)
            continue
        x = {}
        scale = _back_substitute(rows, pivots, x, col)
        out.append([Fraction(x[j], scale) if j in x else zero for j in range(n)])
    return out


def pivot_columns(A):
    """Pivot columns of A (a column basis) via integer echelon."""
    if not A or not A[0]:
        return []
    return echelon(A)[1]


def is_invertible(A):
    m, n = shape(A)
    return m == n and (n == 0 or rank(A) == n)
