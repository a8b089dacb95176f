"""Exact integer and rational linear algebra on small matrices.

Everything works on plain lists of Python ints / Fractions.  Matrices are
lists of rows.  The Smith normal form uses deterministic pivoting (smallest
absolute value, first position wins) so that derived bases are reproducible.
"""
from __future__ import annotations

from fractions import Fraction


def mat_copy(a):
    return [list(row) for row in a]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a):
    """Return (s, u, v) with u*a*v = s diagonal, u and v unimodular.

    Deterministic: pivot = smallest nonzero |entry| in the remaining block,
    ties broken by row-major position.
    """
    s = mat_copy(a)
    rows = len(s)
    cols = len(s[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in s:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst -= q * row src
        for k in range(cols):
            s[dst][k] -= q * s[src][k]
        for k in range(rows):
            u[dst][k] -= q * u[src][k]

    def add_col(dst, src, q):
        for row in s:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(rows, cols):
        # locate pivot
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(s[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        if best is None:
            break
        _, pi, pj = best
        swap_rows(t, pi)
        swap_cols(t, pj)
        if s[t][t] < 0:
            for k in range(cols):
                s[t][k] = -s[t][k]
            for k in range(rows):
                u[t][k] = -u[t][k]
        dirty = False
        for i in range(t + 1, rows):
            if s[i][t]:
                q = s[i][t] // s[t][t]
                add_row(i, t, q)
                if s[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if s[t][j]:
                q = s[t][j] // s[t][t]
                add_col(j, t, q)
                if s[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility of the remaining block
        fix = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if s[i][j] % s[t][t]:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            add_row(t, fix, -1)  # row t += row fix
            continue
        t += 1
    return s, u, v


def elementary_divisors(a):
    s, _, _ = smith_normal_form(a)
    n = min(len(s), len(s[0]) if s else 0)
    return [s[i][i] for i in range(n) if s[i][i]]


def integer_kernel_basis(a):
    """Saturated integral basis of ker(a : Z^cols -> Z^rows), as a list of columns."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    s, _, v = smith_normal_form(a)
    rank = 0
    for i in range(min(rows, cols)):
        if s[i][i]:
            rank += 1
    # kernel = span of columns rank..cols-1 of v
    return [[v[i][j] for i in range(cols)] for j in range(rank, cols)]


def row_reduce(a, cols=None):
    """Gauss-Jordan elimination over Q on the first `cols` columns of a.

    Returns (rows, pivots, det): the reduced rows as Fractions, the pivot
    column of each leading row, and the determinant factor, the product of
    the pivots signed by the row swaps.  Pivoting is deterministic (first
    nonzero entry at or below the current row).
    """
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    if cols is None:
        cols = len(m[0]) if rows else 0
    pivots = []
    det = Fraction(1)
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        p = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            det = -det
        det *= m[r][c]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots, det


def solve_rational(a, b):
    """One exact solution x of a*x = b over Q, or None.  a: rows list, b: vector."""
    cols = len(a[0]) if a else 0
    m, pivots, _ = row_reduce([list(row) + [b[i]] for i, row in enumerate(a)],
                              cols)
    if any(row[cols] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(m, pivots):
        x[c] = row[cols]
    return x


def invert_rational(a):
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(a)
    m, pivots, _ = row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)],
        n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in m]


def det_rational(a):
    _, pivots, det = row_reduce(a)
    return det if len(pivots) == len(a) else Fraction(0)


def rank_rational(a):
    return len(row_reduce(a)[1])


def complete_to_unimodular(cols, n):
    """Extend a saturated set of integer columns (each length n) to a basis of Z^n.

    Returns the full list of n columns (the given ones first).  Requires the
    given columns to span a saturated sublattice (all elementary divisors 1).
    """
    k = len(cols)
    if k == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    a = [[cols[j][i] for j in range(k)] for i in range(n)]  # n x k
    s, u, _ = smith_normal_form(a)
    for i in range(k):
        if abs(s[i][i]) != 1:
            raise ValueError("columns do not span a saturated sublattice")
    uinv = invert_rational(u)
    extra = []
    for j in range(k, n):
        col = [uinv[i][j] for i in range(n)]
        icol = [int(x) for x in col]
        if any(Fraction(ix) != x for ix, x in zip(icol, col)):
            raise ValueError("unimodular completion failed")
        extra.append(icol)
    return [list(c) for c in cols] + extra
