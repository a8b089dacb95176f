"""The interior column's mirror-map series against the constant-term formula.

For a fan of rank n at height 1, with interior ray (0, ..., 0, 1) and
boundary rays (v_i, 1), the interior column's series is

    g = -sum_m (-1)^m (m - 1)! / prod k_i! * y^beta(k)

over k in N^b with sum k_i v_i = 0 and m = sum k_i, where beta(k) pairs -m
with the interior ray and k_i with boundary ray i: (1/m) CT(W^m) for
W = sum a_i z^(v_i) with formal a_i (Batyrev, arXiv:alg-geom/9310003).

The oracle scans lattice points k directly.  It shares no code with the
class scan, the hypergeometric extraction or the inversion: it reads only
the fan's columns, its cones and the kernel coordinates of a pairing vector.
"""
from fractions import Fraction
from math import factorial, prod

import pytest

from orbidisk import fans
from orbidisk.fan import fan_from_dict, kernel_data
from orbidisk.invariants import disk_potentials
from orbidisk.mirrormap import toric_mirror_map
from orbidisk.series import Series, mono
from test_generalization import LOCAL_P3, LOCAL_QUADRIC
from test_linalg import oracle_solve

# the Hirzebruch surfaces F_1 and F_2 (semi-Fano: (0, 1) lies on the edge
# from (1, 0) to (-1, 2))
F1 = {"rank": 3,
      "rays": [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1], [-1, -1, 1]],
      "cones": [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 1, 4]]}
F2 = {"rank": 3,
      "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [-1, 2, 1], [0, -1, 1]],
      "cones": [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 1, 4]]}

# dP_2 with the interior ray last: the default basis depends on the ray
# order, and refuses every order that lists the interior ray first
DP2 = {"rank": 3,
       "rays": [[1, 0, 1], [1, 1, 1], [-1, -1, 1], [0, -1, 1], [0, 1, 1],
                [0, 0, 1]],
       "cones": [[0, 1, 5], [1, 4, 5], [2, 4, 5], [2, 3, 5], [0, 3, 5]]}

# the fans of these tests that are not bundled
CORPUS_FANS = {"local_quadric": LOCAL_QUADRIC, "f1": F1, "f2": F2, "dp2": DP2,
               "local_p3": LOCAL_P3}


def corpus_data(name):
    return kernel_data(fans.load(name) if name in fans.NAMES
                       else fan_from_dict(CORPUS_FANS[name]))


def constant_term_series(data, order):
    """(interior column, g) of a fan of rank n at height 1, to `order`.

    A maximal cone holds the interior ray and n - 1 boundary rays, a basis
    of Q^(n-1).  So each other boundary ray i has one rational relation
    beta_i: k_i = 1, with the cone's k_j solved from sum k_j v_j = 0 in one
    exact solve, and beta(k) = sum k_i beta_i over the other rays.  Its
    grade is sum ell_i k_i, with ell_i the grade of beta_i, so the scan
    walks those k_i under the grade bound and keeps the points where the
    cone's k_j are in N.
    """
    n = data.n
    cols = [data.fan.column(i) for i in range(data.m_prime)]
    assert all(c[-1] == 1 for c in cols)
    interior = cols.index((0,) * (n - 1) + (1,))
    cone = next(c for c in data.fan.cones if len(c) == n)
    basis = [i for i in cone if i != interior]
    others = [i for i in range(data.m) if i != interior and i not in basis]
    a = [[cols[j][row] for j in basis] for row in range(n - 1)]

    def relation(i):
        k = dict(zip(basis, oracle_solve(a, [-x for x in cols[i][:-1]])))
        out = [Fraction(k.get(j, int(j == i))) for j in range(data.m)]
        out[interior] = -sum(out)
        return out

    rel = {i: relation(i) for i in others}

    def pairings(k):
        return [sum(k[i] * rel[i][c] for i in others) for c in range(data.m)]

    ell = {i: data.grade(data.coords_from_pairings(rel[i])) for i in others}
    assert all(x > 0 for x in ell.values()), ell

    terms = {}

    def scan(j, room, k):
        if j == len(others):
            beta = pairings(k)
            ks = [beta[i] for i in range(data.m) if i != interior]
            if all(x >= 0 and x.denominator == 1 for x in ks) and any(ks):
                ks = list(map(int, ks))
                m = sum(ks)
                coords = data.coords_from_pairings(beta)
                terms[mono(*zip(data.y_vars(), coords))] = -Fraction(
                    (-1) ** m * factorial(m - 1),
                    prod(factorial(x) for x in ks))
            return
        i, x = others[j], 0
        while x * ell[i] <= room:
            scan(j + 1, room - x * ell[i], {**k, i: x})
            x += 1

    scan(0, Fraction(order), {})
    return interior, Series(data.y_weights(), order, terms)


@pytest.mark.parametrize("name, order, count", [
    ("kp2", 40, 40), ("local_quadric", 16, 152), ("f1", 16, 80),
    ("f2", 16, 56), ("dp2", 20, 62), ("local_p3", 40, 40)])
def test_interior_series_is_the_constant_term_series(name, order, count):
    data = corpus_data(name)
    interior, want = constant_term_series(data, order)
    got = toric_mirror_map(data, order).g[interior]
    assert len(want.terms) == count
    assert got.same_terms(want), got.first_difference(want)


def test_local_p3_constant_term_series_closed_form():
    # one boundary ray outside a cone: beta(k) = d times the generator, and
    # the formula reads -(4d - 1)!/(d!)^4
    data = corpus_data("local_p3")
    interior, want = constant_term_series(data, 40)
    assert interior == 0
    assert want.terms == {mono(("y1", d)): -Fraction(factorial(4 * d - 1),
                                                     factorial(d) ** 4)
                          for d in range(1, 41)}


@pytest.mark.parametrize("name, order", [
    ("kp2", 20), ("conifold", 10), ("local_quadric", 10), ("f1", 10),
    ("f2", 10), ("dp2", 10), ("local_p3", 20)])
def test_flat_relations_and_ray_potentials_are_integral(name, order):
    # on a fan without box elements every coefficient of each flat relation
    # q = y^class exp(...) and of each ray-disk potential is an integer
    data = corpus_data(name)
    assert not data.boxes
    mm = toric_mirror_map(data, order)
    series = [r.series for r in mm.relations] + \
        [dp.series for dp in disk_potentials(mm).values()]
    assert [r.kind for r in mm.relations] == ["flat"] * data.r
    for s in series:
        assert not s.is_zero()
        bad = {m: c for m, c in s.terms.items() if c.denominator != 1}
        assert bad == {}
