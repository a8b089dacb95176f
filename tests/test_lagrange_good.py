"""Ray-disk potentials against the multivariate Lagrange-Good formula.

Write each flat relation as q_a = y_a * exp(C_a(y)), with
C_a = sum_j (D_j . e_a) g_j the pairing-weighted sum of the column series,
and a ray disk's potential before inversion as H(y) = exp(-g_i(y)).  Then,
by Good's multivariate Lagrange formula (I. J. Good, Proc. Cambridge
Philos. Soc. 56 (1960)),

    [q^alpha] H(y(q)) = [y^alpha] H * exp(-sum_a alpha_a C_a) * det(delta_ab + theta_b C_a)

with theta_b = y_b d/dy_b.  The extraction below runs on plain dicts
{exponent tuple: Fraction}: it reads the fan's pairings and the column
series g_j as coefficients, and shares no multiplication, no exp and no
inversion with orbidisk.series.  So a bug in the packed store, a Newton
round or a power table that the inversion's own round trip cannot see
(both go through the same store) shows here as a coefficient that differs.

On kp2, the local quadric, F_1 and dP_2 only the interior column carries
a series, g_interior, taken from the constant-term formula of
test_constant_term, so C_a = (D_interior . e_a) g_interior, the boundary-ray
potentials are 1, and the oracle shares no code with the class scan, the
extraction, g_series or the inversion.  On F_2 the boundary ray (0, 1)
lies on an edge and carries a series too, so the oracle reads the
package's column series there.
"""
from fractions import Fraction
from itertools import permutations

import pytest

from orbidisk.hyper import y_monomial
from orbidisk.invariants import disk_potentials
from orbidisk.mirrormap import toric_mirror_map
from orbidisk.series import mono
from test_constant_term import constant_term_series, corpus_data


def _plain(s, names):
    """A Series' terms as {exponent tuple over names: Fraction}; every
    exponent must be a non-negative integer for the pruning below."""
    out = {}
    for m, c in s.terms.items():
        e = dict(m)
        key = tuple(e.pop(v, Fraction(0)) for v in names)
        assert not e and all(x.denominator == 1 and x >= 0 for x in key)
        out[tuple(map(int, key))] = c
    return out


def _mul(a, b, cap):
    """a * b keeping the monomials <= cap in every exponent."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            if all(x <= c for x, c in zip(m, cap)):
                out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _exp(f, cap):
    """exp(f) = sum_k f^k / k! below cap, for f without a constant term."""
    one = (0,) * len(cap)
    assert one not in f
    out, term, k = {one: Fraction(1)}, {one: Fraction(1)}, 0
    while term:
        k += 1
        term = {m: c / k for m, c in _mul(term, f, cap).items()}
        for m, c in term.items():
            out[m] = out.get(m, 0) + c
    return out


def _add(*series):
    out = {}
    for s in series:
        for m, c in s.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _det(matrix, cap):
    """det of a square matrix of series, by the Leibniz expansion."""
    n, total = len(matrix), {}
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = {(0,) * len(cap): Fraction(sign)}
        for a in range(n):
            term = _mul(term, matrix[a][perm[a]], cap)
        total = _add(total, term)
    return total


def lagrange_good_potentials(data, order, g):
    """{ray disk: {alpha: coefficient}} of every ray disk of the fan, through
    every alpha of grade <= order, from the column series g ({column:
    Series}; a column it omits has series 0)."""
    names = sorted(data.y_weights())
    weights = [data.y_weights()[v] for v in names]
    r = data.r_prime
    units = [[int(b == a) for b in range(data.r)] for a in range(r)]
    # relation a leads with y_a: the a-th unit class is one y variable
    leads = [names.index(v) for (v, x), in (y_monomial(data, u) for u in units)]
    assert sorted(leads) == list(range(r)) == list(range(len(names)))
    g = {j: _plain(s, names) for j, s in g.items()}
    C = [None] * r
    for a, u in enumerate(units):
        pairings = data.pairings_from_coords(u)
        C[leads[a]] = _add(*({m: p * c for m, c in g[j].items()}
                             for j, p in enumerate(pairings) if p and j in g))
    alphas = [()]
    for w in weights:   # every alpha of grade <= order
        alphas = [al + (k,) for al in alphas
                  for k in range(int((order - sum(x * v for x, v in zip(al, weights))) / w) + 1)]
    top = tuple(max(al[i] for al in alphas) for i in range(r))
    det = _det([[_add({(0,) * r: Fraction(int(a == b))},
                      {m: c * m[b] for m, c in C[a].items() if m[b]})
                 for b in range(r)] for a in range(r)], top)
    heads = {disk: _mul(_exp({m: -c for m, c in g.get(disk[1], {}).items()}, top),
                        det, top)
             for disk in data.disks if disk[0] == "ray"}
    out = {disk: {} for disk in heads}
    for alpha in alphas:
        push = _exp(_add(*({m: -x * c for m, c in C[a].items()}
                           for a, x in enumerate(alpha) if x)), alpha)
        for disk, h in heads.items():
            out[disk][alpha] = sum(
                (c * push.get(tuple(x - y for x, y in zip(alpha, m)), 0)
                 for m, c in h.items() if all(y <= x for x, y in zip(alpha, m))),
                Fraction(0))
    return out, leads


@pytest.mark.parametrize("name, order", [
    ("kp2", 30), ("local_quadric", 10), ("f1", 10), ("f2", 10), ("dp2", 10)])
def test_ray_disk_potentials_match_lagrange_good(name, order):
    data = corpus_data(name)
    mm = toric_mirror_map(data, order)
    package = disk_potentials(mm)
    if name == "f2":
        g = mm.g
    else:
        interior, g_interior = constant_term_series(data, order)
        g = {interior: g_interior}
        for disk, dp in package.items():
            if disk != ("ray", interior):
                assert dp.series.terms == {mono(): 1}, disk
    oracle, leads = lagrange_good_potentials(data, order, g)
    targets = [r.target for r in mm.relations if r.kind == "flat"]
    assert set(oracle) == {d for d in package if d[0] == "ray"} and oracle
    for disk, expected in oracle.items():
        got = {}
        for m, c in package[disk].series.terms.items():
            e = dict(m)
            alpha = [0] * len(leads)
            for a, t in enumerate(targets):
                alpha[leads[a]] = e.pop(t, Fraction(0))
            assert not e
            got[tuple(alpha)] = c
        assert set(got) <= set(expected)
        wrong = [(a, got.get(a, 0), c) for a, c in sorted(expected.items())
                 if got.get(a, 0) != c]
        assert not wrong, (disk, wrong[:3])
    # the interior ray's potential carries the corrections
    assert max(sum(1 for c in e.values() if c) for e in oracle.values()) > order // 2
