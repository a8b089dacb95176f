"""Exact integer and rational linear algebra on small matrices.

Matrices are lists of rows of Python ints or Fractions.  The Smith normal
form uses deterministic pivoting (smallest absolute value, first position
wins) so that derived bases are reproducible.  The rational routines share
one fraction-free Gauss-Jordan kernel, `row_reduce`, which eliminates on
integer rows; `Fraction`s are built only for the values they return.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a):
    """Return (s, u, v) with u*a*v = s diagonal, u and v unimodular.

    Deterministic: pivot = smallest nonzero |entry| in the remaining block,
    ties broken by row-major position.
    """
    s = [list(row) for row in a]
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


def smith_kernel(a):
    """(elementary divisors, saturated integral basis of ker(a : Z^cols ->
    Z^rows) as a list of columns), both read off one Smith form; a matrix
    with no rows has no columns either, so neither."""
    s, _, v = smith_normal_form(a)
    cols = len(v)
    divs = [s[i][i] for i in range(min(len(s), cols)) if s[i][i]]
    # kernel = span of the columns of v past the nonzero diagonal
    return divs, [[v[i][j] for i in range(cols)] for j in range(len(divs), cols)]


def integer_kernel_basis(a):
    """Saturated integral basis of ker(a), as a list of columns."""
    return smith_kernel(a)[1]


def row_reduce(a, cols):
    """Fraction-free Gauss-Jordan elimination on the first `cols` columns of a.

    Each row is scaled to integers by the lcm of its denominators.  Pivot p
    in row r, after pivot q, replaces every other row i by
    (p*row_i - row_i[c]*row_r) / q; the division is exact, as every entry
    stays an integer minor of the scaled matrix (Bareiss).  Returns (rows,
    pivots, p, scale): the integer rows, the pivot column of each leading
    row, the last pivot p (1 if none) and the product of the row scales
    signed by the row swaps.  Leading row i over p is row i of the reduced
    row echelon form over Q; a square matrix of full rank has determinant
    p / scale.  Pivoting takes the first nonzero entry at or below row r.
    """
    m, scale = [], 1
    for row in a:
        d = lcm(*[x.denominator for x in row])
        scale *= d
        m.append([x.numerator * (d // x.denominator) for x in row])
    rows = len(m)
    pivots = []
    p = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        for k in range(r, rows):
            if m[k][c]:
                break
        else:
            continue
        if k != r:
            m[r], m[k] = m[k], m[r]
            scale = -scale
        q, p, top = p, m[r][c], m[r]
        for i in range(rows):
            f = m[i][c]
            if i != r and (f or p != q):
                m[i] = [(p * x - f * y) // q for x, y in zip(m[i], top)]
        pivots.append(c)
    return m, pivots, p, scale


def solve_integer(a, b):
    """(x, p) with a*(x/p) = b over Q, x integers and p > 0, or None; free
    unknowns are 0.  a: rows list, b: vector."""
    cols = len(a[0]) if a else 0
    m, pivots, p, _ = row_reduce(
        [list(row) + [b[i]] for i, row in enumerate(a)], cols)
    if any(row[cols] for row in m[len(pivots):]):
        return None
    x = [0] * cols
    for row, c in zip(m, pivots):
        x[c] = row[cols] if p > 0 else -row[cols]
    return x, abs(p)


def solve_rational(a, b):
    """One exact solution x of a*x = b over Q, or None.  a: rows list, b: vector."""
    s = solve_integer(a, b)
    return None if s is None else [Fraction(x, s[1]) for x in s[0]]


def invert_rational(a):
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(a)
    m, pivots, p, _ = row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)],
        n)
    if len(pivots) < n:
        return None
    return [[Fraction(x, p) for x in row[n:]] for row in m]


def complete_to_unimodular(cols, n):
    """Extend a saturated set of integer columns (each length n) to a basis of Z^n.

    Returns the full list of n columns (the given ones first).  Requires the
    given columns to span a saturated sublattice (all elementary divisors 1).
    """
    k = len(cols)
    a = [[cols[j][i] for j in range(k)] for i in range(n)]  # n x k
    s, u, _ = smith_normal_form(a)
    for i in range(k):
        if abs(s[i][i]) != 1:
            raise ValueError("columns do not span a saturated sublattice")
    uinv = invert_rational(u)  # integral, as u is unimodular
    return [list(c) for c in cols] + \
        [[int(uinv[i][j]) for i in range(n)] for j in range(k, n)]
