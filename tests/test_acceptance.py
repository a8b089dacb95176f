"""Acceptance suite: one test per criterion, each printing a PASS line.

The expected values come from oracles independent of the library code paths:
plain univariate coefficient-list arithmetic for the corrected potential,
factorial closed forms for the ray series, bounding-box scans for box
elements, and grid scans for effective classes.
"""
import itertools
import json
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from orbidisk import fans, linalg
from orbidisk.cli import main
from orbidisk.effective import enumerate_effective
from orbidisk.fan import box_elements, kernel_data, validate_compactification
from orbidisk.hyper import relative_ifunction_oracle, z_extract
from orbidisk.invariants import (compare_potentials, disk_potential,
                                 disk_potentials, extract_invariants)
from orbidisk.mirrormap import (inverse_mirror_map, relative_mirror_map,
                                toric_mirror_map)
from orbidisk.series import Series, mono
from orbidisk.syz import GaugeChoice, mirror_potential
from test_effective import brute_force_effective
from test_syz import gauge_character

F = Fraction

BASE_FANS = ("c3", "conifold", "kp2", "c3z3")
PAIRS = (("c3", "c3_bar", ("ray", 2)),
         ("kp2", "kp2_bar", ("ray", 0)),
         ("c3z3", "c3z3_bar", ("box", 3)))


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


# ---------------------------------------------------------------------------
# independent univariate oracle: coefficient lists over Q


def poly_mul(a, b, n):
    out = [F(0)] * (n + 1)
    for i, x in enumerate(a):
        if x == 0 or i > n:
            continue
        for j, y in enumerate(b):
            if i + j > n:
                break
            out[i + j] += x * y
    return out


def poly_exp(a, n):
    assert a[0] == 0
    out = [F(0)] * (n + 1)
    out[0] = F(1)
    power = list(out)
    fact = 1
    for k in range(1, n + 1):
        power = poly_mul(power, a, n)
        fact *= k
        for i in range(n + 1):
            out[i] += power[i] / fact
    return out


def corrected_potential_oracle(n):
    """exp(-g(y(q))) for the local projective plane, by fixed-point lists."""
    g = [F(0)] * (n + 1)
    for k in range(1, n + 1):
        g[k] = F((-1) ** (k - 1) * factorial(3 * k - 1), factorial(k) ** 3)
    qy = poly_mul([F(0), F(1)] + [F(0)] * (n - 1),
                  poly_exp([-3 * c for c in g], n), n)
    # invert q(y) by fixed-point iteration on coefficient lists
    yq = [F(0), F(1)] + [F(0)] * (n - 1)
    for _ in range(n + 1):
        # y = q - sum_{k>=2} qy[k] y^k
        acc = [F(0), F(1)] + [F(0)] * (n - 1)
        power = list(yq)
        for k in range(2, n + 1):
            power = poly_mul(power, yq, n)
            for i in range(n + 1):
                acc[i] -= qy[k] * power[i]
        yq = acc
    # check the round trip
    comp = [F(0)] * (n + 1)
    power = [F(1)] + [F(0)] * n
    for k in range(0, n + 1):
        if k:
            power = poly_mul(power, yq, n)
        for i in range(n + 1):
            comp[i] += qy[k] * power[i]
    assert comp == [F(0), F(1)] + [F(0)] * (n - 1)
    g_at = [F(0)] * (n + 1)
    power = [F(1)] + [F(0)] * n
    for k in range(0, n + 1):
        if k:
            power = poly_mul(power, yq, n)
        for i in range(n + 1):
            g_at[i] += g[k] * power[i]
    return poly_exp([-c for c in g_at], n)


def test_criterion_1_kp2_potential(capsys):
    t0 = time.perf_counter()
    code = main(["invariants", "kp2", "--disk", "ray:0", "--order", "8",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    got = Series.from_json(rep["potential"]["series"])
    oracle = corrected_potential_oracle(8)
    # the local-plane disk numbers (Aganagic-Klemm-Vafa, hep-th/0105045;
    # Graber-Zaslow, hep-th/0109075)
    assert oracle == [F(1), F(-2), F(5), F(-32), F(286), F(-3038), F(35870),
                      F(-454880), F(6073311)]
    want = Series({"q1": F(1)}, 8,
                  {mono(("q1", k)): oracle[k] for k in range(9)})
    assert got == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    with capsys.disabled():
        report(1, f"local-plane potential 1 - 2q + 5q^2 - 32q^3 + 286q^4 "
                  f"- 3038q^5 + 35870q^6 - 454880q^7 + {oracle[8]}q^8 exact "
                  f"in {elapsed:.2f}s")


def test_criterion_2_c3z3_potential(capsys):
    t0 = time.perf_counter()
    data = kernel_data(fans.load("c3z3"))
    dp = disk_potential(data, ("box", 3), F(4, 3))
    t = lambda e: mono(("t3", e))
    assert dp.series.terms == {t(1): F(1), t(4): F(1, 648)}
    table = extract_invariants(dp)
    assert table.value([], [("b0,0,1", 4)]) == F(1, 27)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    with capsys.disabled():
        report(2, f"orbifold chart potential tau + tau^4/648 and "
                  f"4-insertion value 1/27 in {elapsed:.2f}s")


def test_criterion_3_trivial_fans(capsys):
    t0 = time.perf_counter()
    c3 = kernel_data(fans.load("c3"))
    for i in range(3):
        assert disk_potential(c3, ("ray", i), 10).series.terms == {(): F(1)}
    coni = kernel_data(fans.load("conifold"))
    mm = toric_mirror_map(coni, 10)
    assert all(s.is_zero() for s in mm.g.values())
    for dp in disk_potentials(coni, 10).values():
        table = extract_invariants(dp)
        for (alpha, _), val in table.entries.items():
            if any(alpha):
                pytest.fail(f"nonzero invariant at {alpha}: {val}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        report(3, f"affine chart and small resolution carry no corrections "
                  f"(orders to 10) in {elapsed:.2f}s")


def test_criterion_4_relative_oracle(capsys):
    t0 = time.perf_counter()
    for base, bar, disk in PAIRS:
        cd = validate_compactification(fans.load(base), fans.load(bar), disk)
        for bound in range(1, 7):
            sl, _ = relative_ifunction_oracle(cd, bound)
            assert sl.h0_z2.terms == {mono(("yinf", 1)): F(1)}
        order = F(7, 3) if disk[0] == "box" else 3
        compare_potentials(cd, order)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        report(4, f"compactified z^-2 extraction is the single expected "
                  f"monomial at bounds 1..6 and both potential routes agree "
                  f"in {elapsed:.2f}s")


def test_criterion_5_round_trip(capsys):
    order = 8
    for name in BASE_FANS:
        data = kernel_data(fans.load(name))
        mm = toric_mirror_map(data, order)
        inv = inverse_mirror_map(mm)
        for rel in mm.relations:
            back = rel.series.substitute(inv)
            assert back.same_terms(
                Series.variable(rel.target, back.weights, back.order))
    for base, bar, disk in PAIRS:
        cd = validate_compactification(fans.load(base), fans.load(bar), disk)
        mm = relative_mirror_map(cd, order)  # restriction asserted inside
        inv = inverse_mirror_map(mm)
        for rel in mm.relations:
            back = rel.series.substitute(inv)
            assert back.same_terms(
                Series.variable(rel.target, back.weights, back.order))
    with capsys.disabled():
        report(5, "forward/inverse identity to grade 8 on all bundled fans; "
                  "relative maps restrict to the plain ones")


def test_criterion_6_closed_forms(capsys):
    checked = 0
    jobs = [kernel_data(fans.load(n)) for n in BASE_FANS]
    for base, bar, disk in PAIRS:
        jobs.append(validate_compactification(fans.load(base), fans.load(bar),
                                              disk).bar)
    for data in jobs:
        inf = data.infinity_column
        for cls in enumerate_effective(data, 6):
            zf = z_extract(data, cls)
            kind = zf.classify(cls)
            if kind is None or kind[0] != "divisor":
                continue
            j = kind[1]
            p = cls.pairings[j]
            num = F((-1) ** (int(-p) - 1) * factorial(int(-p) - 1))
            den = F(1)
            for i, q in enumerate(cls.pairings):
                if i == j:
                    continue
                if i == inf:
                    assert q == 0
                    continue
                den *= factorial(int(q))
            assert zf.scalar == num / den
            checked += 1
    assert checked >= 10
    with capsys.disabled():
        report(6, f"{checked} ray-series coefficients equal their factorial "
                  f"closed form")


# ---------------------------------------------------------------------------
# criterion 7: property suites


def brute_force_boxes(fan):
    out = {}
    for cone in fan.cones:
        rays = [fan.rays[i] for i in cone]
        n = fan.rank
        lo = [sum(min(0, r[k]) for r in rays) for k in range(n)]
        hi = [sum(max(0, r[k]) for r in rays) for k in range(n)]
        for pt in itertools.product(*[range(l, h + 1)
                                      for l, h in zip(lo, hi)]):
            a = [[rays[j][i] for j in range(len(rays))] for i in range(n)]
            x = linalg.solve_rational(a, list(pt))
            if x is None:
                continue
            if all(0 <= c < 1 for c in x) and any(c > 0 for c in x):
                out[pt] = sum(x, F(0))
    return out


def random_series_pool(count, order=6):
    rng = random.Random(20240811)
    weights = {"a": F(1), "b": F(1)}
    pool = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            ea, eb = rng.randint(0, order), rng.randint(0, order)
            if ea + eb > order:
                continue
            c = F(rng.randint(-9, 9), rng.randint(1, 4))
            if c:
                m = mono(("a", ea), ("b", eb))
                terms[m] = terms.get(m, F(0)) + c
        pool.append(Series(weights, order, terms))
    return pool


def test_criterion_7_property_suites(capsys):
    # ring axioms and transcendental round trips on 102 random series
    pool = random_series_pool(102)
    for a, b, c in zip(pool[0::3], pool[1::3], pool[2::3]):
        assert ((a + b) + c).same_terms(a + (b + c))
        assert (a * b).same_terms(b * a)
        assert ((a * b) * c).same_terms(a * (b * c))
        assert (a * (b + c)).same_terms(a * b + a * c)
    for s in pool:
        s = s - s.constant_term()
        assert (s.exp() - 1).log_one_plus().same_terms(s)
        assert (s.log_one_plus().exp() - 1).same_terms(s)

    # box elements against the bounding-box scan, every bundled fan
    for name in BASE_FANS + tuple(p[1] for p in PAIRS):
        fan = fans.load(name)
        boxes, _ = box_elements(fan)
        assert {b.vector: b.age for b in boxes} == brute_force_boxes(fan)

    # enumerator completeness against the grid scan (kernel rank <= 2)
    for name, bound in (("kp2", 4), ("conifold", 4), ("c3z3", F(7, 3))):
        data = kernel_data(fans.load(name))
        fast = enumerate_effective(data, bound)
        slow = brute_force_effective(data, bound)
        assert [c.coords for c in fast] == [c.coords for c in slow]

    # defining relations as exact monomial identities + gauge covariance
    data = kernel_data(fans.load("kp2"))
    mp_a = mirror_potential(data, GaugeChoice.for_data(data, 0), 3)
    mp_b = mirror_potential(data, GaugeChoice(cone=(0, 2, 3)), 3)
    for sol in (mp_a.coefficients, mp_b.coefficients):
        for a in range(data.r):
            lhs = [sum(data.gamma[a][i] * sol[i][k] for i in range(4))
                   for k in range(data.r_prime)]
            want = [F(int(k == a)) for k in range(data.r_prime)]
            assert lhs == want
    u = gauge_character(data, mp_a.coefficients, mp_b.coefficients)
    for (ca, va, ra, sa), (cb, vb, rb, sb) in zip(mp_a.terms, mp_b.terms):
        assert (ca, va, ra) == (cb, vb, rb) and sa.same_terms(sb)
        col = data.column_vector(ca)
        for k in range(data.r_prime):
            pair = sum(F(u[k][t]) * col[t] for t in range(data.n))
            assert mp_b.coefficients[ca][k] - mp_a.coefficients[ca][k] == pair
    with capsys.disabled():
        report(7, "ring axioms and exp/log round trips on 102 series, box "
                  "and enumerator scans, coefficient relations and gauge "
                  "covariance")


def test_criterion_8_determinism(capsys, tmp_path):
    commands = [
        ["analyze", "c3z3", "--format", "json"],
        ["analyze", "kp2", "--format", "text"],
        ["mirror-map", "kp2", "--order", "4", "--format", "json"],
        ["invariants", "kp2", "--disk", "ray:0", "--order", "3",
         "--format", "json"],
        ["invariants", "c3z3", "--disk", "box:3", "--order", "4/3",
         "--format", "text"],
        ["syz", "c3z3", "--order", "4/3", "--format", "json"],
        ["oracle", "kp2", "--bar", "kp2_bar", "--disk", "ray:0",
         "--order", "3", "--format", "json"],
    ]
    for i, argv in enumerate(commands):
        outs = []
        for run in (0, 1):
            path = tmp_path / f"out-{i}-{run}"
            assert main(argv + ["--output", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
    with capsys.disabled():
        report(8, f"{len(commands)} commands byte-identical across repeated "
                  f"runs")
