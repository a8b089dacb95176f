from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from orbidisk import fans, linalg
from orbidisk.fan import kernel_data


small_int = st.integers(min_value=-9, max_value=9)
# entries as callers pass them: ints, and Fractions with small denominators
entry = st.one_of(small_int, st.fractions(min_value=-9, max_value=9,
                                          max_denominator=6))


def mat_strategy(rows, cols):
    return st.lists(st.lists(small_int, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def oracle_row_reduce(a, cols=None):
    """Gauss-Jordan over Fractions, each pivot row divided by its pivot
    (independent oracle for the fraction-free kernel).  Returns (rows,
    pivots, det) with det the product of the pivots signed by the swaps."""
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


def oracle_solve(a, b):
    cols = len(a[0]) if a else 0
    m, pivots, _ = oracle_row_reduce(
        [list(row) + [b[i]] for i, row in enumerate(a)], cols)
    if any(row[cols] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(m, pivots):
        x[c] = row[cols]
    return x


def oracle_invert(a):
    n = len(a)
    m, pivots, _ = oracle_row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)],
        n)
    return None if len(pivots) < n else [row[n:] for row in m]


def oracle_det(a):
    _, pivots, det = oracle_row_reduce(a)
    return det if len(pivots) == len(a) else Fraction(0)


def oracle_rank(a):
    return len(oracle_row_reduce(a)[1])


def reduce_det(a):
    """The determinant row_reduce yields: p / scale at full rank, else 0."""
    _, pivots, p, scale = linalg.row_reduce(a, len(a[0]))
    return Fraction(p, scale) if len(pivots) == len(a) else Fraction(0)


@st.composite
def rational_matrix(draw, shapes):
    """A matrix of one of `shapes` with `entry` entries; one row may be made
    zero or a rational combination of two others, so that ranks below the
    full one are common."""
    rows, cols = draw(st.sampled_from(shapes))
    a = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    kind = draw(st.sampled_from(["full", "zero", "combination"]))
    k = draw(st.integers(0, rows - 1))
    if kind == "zero":
        a[k] = [0] * cols
    elif kind == "combination" and rows >= 3:
        i, j = [x for x in range(rows) if x != k][:2]
        s, t = draw(entry), draw(entry)
        a[k] = [s * x + t * y for x, y in zip(a[i], a[j])]
    return a


ALL_SHAPES = [(2, 3), (4, 3), (3, 4), (2, 2), (3, 3), (4, 4), (1, 3), (3, 1)]
SQUARE = [(1, 1), (2, 2), (3, 3), (4, 4)]


def leibniz_det(a):
    """Determinant as the signed sum over permutations (independent oracle)."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j]
                           for i in range(n) for j in range(i + 1, n))
        term = sign
        for i, p in enumerate(perm):
            term *= a[i][p]
        total += term
    return total


def test_snf_identity():
    s, u, v = linalg.smith_normal_form([[1, 0], [0, 1]])
    assert s == [[1, 0], [0, 1]]


def test_snf_known():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    s, u, v = linalg.smith_normal_form(a)
    # oracle: d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = 4,
    # d1*d2*d3 = |det| = 624
    divs = [s[i][i] for i in range(3)]
    assert divs == [2, 2, 156]
    assert mat_mul(mat_mul(u, a), v) == s
    assert abs(oracle_det(u)) == 1
    assert abs(oracle_det(v)) == 1


@settings(max_examples=60, derandomize=True)
@given(mat_strategy(3, 4))
def test_snf_decomposition_random(a):
    s, u, v = linalg.smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == s
    assert abs(oracle_det(u)) == 1
    assert abs(oracle_det(v)) == 1
    # diagonal with divisibility
    for i in range(3):
        for j in range(4):
            if i != j:
                assert s[i][j] == 0
    diag = [s[i][i] for i in range(3)]
    for x, y in zip(diag, diag[1:]):
        if y != 0:
            assert x != 0 and y % x == 0


def test_kernel_basis_kp2():
    # rays of the local projective plane, columns
    rays = [[0, 1, 0, -1], [0, 0, 1, -1], [1, 1, 1, 1]]
    k = linalg.integer_kernel_basis(rays)
    assert len(k) == 1
    g = k[0]
    # the kernel is spanned by (-3,1,1,1) up to sign
    base = [-3, 1, 1, 1]
    assert g == base or g == [-x for x in base]


def test_kernel_basis_saturated():
    # the kernel of [2] in Z^1 -> Z^1 is 0, not (1/2)Z
    assert linalg.integer_kernel_basis([[2]]) == []
    # Z^0 has only 0: no rows, or rows of no entries, give no columns
    assert linalg.integer_kernel_basis([]) == []
    assert linalg.integer_kernel_basis([[], []]) == []
    # map Z^2 -> Z with matrix [2, 4]: kernel spanned by (2,-1)
    k = linalg.integer_kernel_basis([[2, 4]])
    assert len(k) == 1
    assert sorted(map(abs, k[0])) == [1, 2]


@settings(max_examples=60, derandomize=True)
@given(mat_strategy(2, 4))
def test_kernel_random(a):
    k = linalg.integer_kernel_basis(a)
    for g in k:
        assert all(sum(row[i] * g[i] for i in range(4)) == 0 for row in a)
    # rank-nullity over Q
    assert len(k) == 4 - oracle_rank(a)


def test_solve_rational():
    x = linalg.solve_rational([[2, 0], [0, 3]], [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 3)]
    assert linalg.solve_rational([[1, 0], [1, 0]], [0, 1]) is None
    # two rays in rank 3 and a vector outside their span: more rows than
    # pivots, so the rows past the pivots carry the inconsistency
    assert linalg.solve_rational([[1, 0], [0, 1], [0, 0]], [1, 1, 1]) is None
    assert linalg.solve_rational([[1, 0], [0, 1], [1, 1]], [1, 1, 1]) is None
    assert linalg.solve_rational([[1, 0], [0, 1], [1, 1]], [1, 1, 2]) == [1, 1]


def test_invert_rational():
    inv = linalg.invert_rational([[1, 2], [3, 4]])
    assert inv == [[Fraction(-2), Fraction(1)],
                   [Fraction(3, 2), Fraction(-1, 2)]]
    assert linalg.invert_rational([[1, 2], [2, 4]]) is None


@settings(max_examples=60, derandomize=True)
@given(st.sampled_from([3, 4]).flatmap(lambda n: mat_strategy(n, n)))
def test_row_reduction_random(a):
    # det, rank and inverse share one elimination; check each independently
    n = len(a)
    det = leibniz_det(a)
    assert reduce_det(a) == det
    assert (len(linalg.row_reduce(a, n)[1]) == n) == (det != 0)
    inv = linalg.invert_rational(a)
    if det == 0:
        assert inv is None
        return
    assert mat_mul(inv, a) == [[int(i == j) for j in range(n)]
                               for i in range(n)]
    b = [1, -2, 3, -4][:n]
    x = linalg.solve_rational(a, b)
    assert [sum(r * v for r, v in zip(row, x)) for row in a] == b


@settings(max_examples=100, derandomize=True)
@given(rational_matrix(ALL_SHAPES), st.data())
def test_solve_and_rank_match_fraction_oracle(a, data):
    # b either arbitrary (often inconsistent) or in the column span
    if data.draw(st.booleans()):
        b = data.draw(st.lists(entry, min_size=len(a), max_size=len(a)))
    else:
        x = data.draw(st.lists(entry, min_size=len(a[0]),
                               max_size=len(a[0])))
        b = [sum(r * v for r, v in zip(row, x)) for row in a]
    assert linalg.solve_rational(a, b) == oracle_solve(a, b)
    assert len(linalg.row_reduce(a, len(a[0]))[1]) == oracle_rank(a)


@settings(max_examples=100, derandomize=True)
@given(rational_matrix(SQUARE))
def test_invert_and_det_match_fraction_oracle(a):
    assert reduce_det(a) == oracle_det(a)
    assert linalg.invert_rational(a) == oracle_invert(a)


@settings(max_examples=100, derandomize=True)
@given(rational_matrix(ALL_SHAPES), st.data())
def test_row_reduce_is_the_reduced_echelon_form(a, data):
    # leading rows over the last pivot are the reduced row echelon form over
    # Q, on any number of leading columns; the rows past the pivots are
    # nonzero exactly where the oracle's are
    cols = data.draw(st.integers(0, len(a[0])))
    rows, pivots, p, _ = linalg.row_reduce(a, cols)
    want, want_pivots, _ = oracle_row_reduce(a, cols)
    assert pivots == want_pivots
    assert all(type(x) is int for row in rows for x in row)
    k = len(pivots)
    assert [[Fraction(x, p) for x in row] for row in rows[:k]] == want[:k]
    assert [[x != 0 for x in row] for row in rows[k:]] == \
        [[x != 0 for x in row] for row in want[k:]]


def test_kernel_builds_fractions_only_for_returned_values(monkeypatch):
    # on integer input the elimination is all ints: rank and the
    # determinant's p / scale build no Fraction, a solution one per unknown,
    # an inverse one per entry
    count = [0]

    def counting(*args):
        count[0] += 1
        return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", counting)
    a = [[2, 4, 4, 1], [-6, 6, 12, 0], [10, 4, 16, 3]]
    assert len(linalg.row_reduce(a, 4)[1]) == 3
    assert count[0] == 0
    x = linalg.solve_rational([row[:3] for row in a], [1, 2, 3])
    assert x is not None and count[0] <= 3
    count[0] = 0
    inv = linalg.invert_rational([row[:3] for row in a])
    assert inv is not None and count[0] <= 9
    count[0] = 0
    _, _, p, scale = linalg.row_reduce([row[:3] for row in a], 3)
    assert count[0] == 0 and Fraction(p, scale) == 624


def test_complete_to_unimodular():
    cols = [[1, 0, 1]]
    full = linalg.complete_to_unimodular(cols, 3)
    m = [[full[j][i] for j in range(3)] for i in range(3)]
    assert abs(oracle_det(m)) == 1
    with pytest.raises(ValueError):
        linalg.complete_to_unimodular([[2, 0]], 2)


@settings(max_examples=60, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda rows: mat_strategy(rows, 5)))
def test_complete_to_unimodular_random(a):
    # a kernel basis is saturated, so it always completes to a basis of Z^5
    cols = linalg.integer_kernel_basis(a)
    full = linalg.complete_to_unimodular(cols, 5)
    assert full[:len(cols)] == cols
    assert abs(oracle_det(full)) == 1


@pytest.mark.parametrize("name", fans.NAMES)
def test_kernel_data_builds_only_returned_fractions(monkeypatch, name):
    # every Fraction linalg builds while a bundled fan is parsed and its
    # lattice data derived is an entry of a solution or an inverse
    want = kernel_data(fans.load(name))
    built, returned = [0], [0]

    def counting(*args):
        built[0] += 1
        return Fraction(*args)

    def returning(f, size):
        def wrapper(*args):
            out = f(*args)
            returned[0] += size(out)
            return out
        return wrapper

    monkeypatch.setattr(linalg, "Fraction", counting)
    for fname, size in [("solve_rational", lambda x: len(x or ())),
                        ("invert_rational", lambda m: sum(map(len, m or ())))]:
        monkeypatch.setattr(linalg, fname,
                            returning(getattr(linalg, fname), size))
    assert kernel_data(fans.load(name)) == want
    assert built[0] == returned[0]
