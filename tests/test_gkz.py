"""The forward mirror map against the GKZ system of its fan.

On a Calabi-Yau base each coordinate, log q_t and each twisted tau_j, solves
the (extended) GKZ system of the fan's columns (Hosono-Klemm-Theisen-Yau,
hep-th/9308122; Coates-Corti-Iritani-Tseng, arXiv:1310.4163).  For a class
l = sum_a n_a gamma_a with n >= 0, and theta_{D_i} = sum_a gamma_a[i] theta_{y_a},

    box_l = prod_{l_i > 0} prod_{k < l_i} (theta_{D_i} - k)
            - y^n prod_{l_i < 0} prod_{k < -l_i} (theta_{D_i} - k)

annihilates every coordinate.  The coordinates are exact through the map's
order, and so is the residual (y^n lifts its second term's order), so the
check runs through the order itself, not only through the order less the
grade of y^n.  This checks g without hyper.py: theta_{D_i} acts on y^k by the eigenvalue
sum_a gamma_a[i] k_a, and on log y^c as the s-derivative at s = 0 of the
eigenvalue polynomial on y^(s c).  The bar fans are not Calabi-Yau, so the
operator is not homogeneous there; they are left out.
"""
from fractions import Fraction
from math import prod

import pytest

from orbidisk import fans
from orbidisk.fan import fan_from_dict, kernel_data
from orbidisk.mirrormap import toric_mirror_map
from orbidisk.series import mono, mono_grade, mono_mul
from test_generalization import (A1_CHART, LOCAL_QUADRIC, WEIGHTED_BASIS,
                                 WEIGHTED_SURFACE)

F = Fraction
LOCAL_P3 = {"rank": 4,
            "rays": [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1],
                     [-1, -1, -1, 1]],
            "cones": [[0, 2, 3, 4], [0, 1, 3, 4], [0, 1, 2, 4], [0, 1, 2, 3]]}
C4_Z4 = {"rank": 4,
         "rays": [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [-1, -1, -1, 1]],
         "cones": [[0, 1, 2, 3]], "extra_vectors": [[0, 0, 0, 1]]}
FANS = {"c3": ("c3", None, 6), "conifold": ("conifold", None, 6),
        "kp2": ("kp2", None, 8), "c3z3": ("c3z3", None, F(13, 3)),
        "local_quadric": (LOCAL_QUADRIC, None, 5), "a1": (A1_CHART, None, 7),
        "weighted": (WEIGHTED_SURFACE, WEIGHTED_BASIS, 5),
        "local_p3": (LOCAL_P3, None, 4), "c4z4": (C4_Z4, None, F(17, 4))}


def _factors(ell, eigen, sign):
    """(eigenvalue, k) of each factor theta_{D_i} - k with sign * l_i > 0."""
    return [(eigen[i], k) for i, l in enumerate(ell) for k in range(sign * l)]


def _on_log(factors):
    """d/ds at s = 0 of prod (s * eigenvalue - k); the log term itself drops
    out, as some k is 0."""
    assert any(k == 0 for _, k in factors)
    return sum(e * prod(-k for j, (_, k) in enumerate(factors) if j != i)
               for i, (e, _) in enumerate(factors))


@pytest.mark.parametrize("name", FANS)
def test_gkz_annihilates_every_coordinate(name):
    fan, basis, order = FANS[name]
    fan = fans.load(fan) if isinstance(fan, str) else fan_from_dict(fan)
    data = kernel_data(fan, basis)
    mm, names = toric_mirror_map(data, order), data.y_vars()
    assert len(mm.relations) == data.r
    ns = [[int(a == b) for a in range(data.r)] for b in range(data.r)]
    for n in ns + [[1] * data.r] * (data.r > 1):
        ell = [sum(x * g[i] for x, g in zip(n, data.gamma))
               for i in range(data.m_prime)]
        assert sum(ell) == 0 and any(ell)        # Calabi-Yau, and l != 0
        y_n = mono(*zip(names, n))
        for a, rel in enumerate(mm.relations):  # flat relations q_{a+1} first
            flat = rel.kind == "flat"
            # log q_t = log y^c + correction; tau_j is its series
            series = rel.correction if flat else rel.series
            residual = {}
            for m, c in series.terms.items():
                eigen = [sum(g[i] * dict(m).get(v, 0) for v, g in zip(names, data.gamma))
                         for i in range(data.m_prime)]
                for sign, shift in ((1, ()), (-1, y_n)):
                    key = mono_mul(m, shift)
                    residual[key] = residual.get(key, 0) + sign * c * prod(
                        e - k for e, k in _factors(ell, eigen, sign))
            if flat:
                eigen = data.pairings_from_coords([int(b == a)
                                                   for b in range(data.r)])
                residual[()] = residual.get((), 0) + _on_log(_factors(ell, eigen, 1))
                residual[y_n] = residual.get(y_n, 0) - _on_log(_factors(ell, eigen, -1))
            bad = {m: c for m, c in residual.items()
                   if c and mono_grade(m, data.y_weights()) <= order}
            assert not bad, (rel.target, n, bad)
