from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from orbidisk import linalg


small_int = st.integers(min_value=-9, max_value=9)


def mat_strategy(rows, cols):
    return st.lists(st.lists(small_int, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


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
    assert abs(linalg.det_rational(u)) == 1
    assert abs(linalg.det_rational(v)) == 1


@settings(max_examples=60, derandomize=True)
@given(mat_strategy(3, 4))
def test_snf_decomposition_random(a):
    s, u, v = linalg.smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == s
    assert abs(linalg.det_rational(u)) == 1
    assert abs(linalg.det_rational(v)) == 1
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
    assert len(k) == 4 - linalg.rank_rational(a)


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
@given(mat_strategy(3, 3))
def test_row_reduction_random(a):
    # det, rank and inverse share one elimination; check each independently
    det = leibniz_det(a)
    assert linalg.det_rational(a) == det
    assert (linalg.rank_rational(a) == 3) == (det != 0)
    inv = linalg.invert_rational(a)
    if det == 0:
        assert inv is None
        return
    assert mat_mul(inv, a) == [[int(i == j) for j in range(3)]
                               for i in range(3)]
    b = [1, -2, 3]
    x = linalg.solve_rational(a, b)
    assert [sum(r * v for r, v in zip(row, x)) for row in a] == b


def test_complete_to_unimodular():
    cols = [[1, 0, 1]]
    full = linalg.complete_to_unimodular(cols, 3)
    m = [[full[j][i] for j in range(3)] for i in range(3)]
    assert abs(linalg.det_rational(m)) == 1
    with pytest.raises(ValueError):
        linalg.complete_to_unimodular([[2, 0]], 2)
