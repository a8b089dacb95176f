"""End-to-end runs on fans outside the bundled set.

These exercise shapes the bundled fixtures do not: a rank-2 kernel with two
flat variables and a square 2x2 inversion, a surface orbifold chart whose
box coefficients have denominator 2, and two fans of dimension 4.  The
two-route potential comparison is the correctness anchor in every case.
"""
import json
from fractions import Fraction

import pytest

from orbidisk.cli import main
from orbidisk.effective import enumerate_effective
from orbidisk.fan import fan_from_dict, kernel_data, validate_compactification
from orbidisk.invariants import compare_potentials, disk_potential
from orbidisk.mirrormap import inverse_mirror_map, toric_mirror_map
from orbidisk.series import mono
from test_mirrormap import column_series

F = Fraction

LOCAL_QUADRIC = {
    "rank": 3,
    "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]],
    "cones": [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 1, 4]],
}

LOCAL_QUADRIC_BAR = {
    "rank": 3,
    "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1],
             [0, 0, -1]],
    "cones": [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 1, 4],
              [1, 2, 5], [2, 3, 5], [3, 4, 5], [1, 4, 5]],
}

A1_CHART = {
    "rank": 2,
    "rays": [[0, 1], [2, 1]],
    "cones": [[0, 1]],
    "extra_vectors": [[1, 1]],
}

A1_CHART_BAR = {
    "rank": 2,
    "rays": [[0, 1], [2, 1], [-1, -1]],
    "cones": [[0, 1], [0, 2], [1, 2]],
    "extra_vectors": [[1, 1]],
}

# dimension 4: local P^3, and C^4/Z_4 with its age-1 box element (0, 0, 0, 1)
LOCAL_P3 = {
    "rank": 4,
    "rays": [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1],
             [-1, -1, -1, 1]],
    "cones": [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4]],
}

LOCAL_P3_BAR = {
    "rank": 4,
    "rays": LOCAL_P3["rays"] + [[0, 0, 0, -1]],
    "cones": LOCAL_P3["cones"] + [[1, 2, 3, 5], [1, 2, 4, 5], [1, 3, 4, 5],
                                  [2, 3, 4, 5]],
}

C4Z4 = {
    "rank": 4,
    "rays": [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [-1, -1, -1, 1]],
    "cones": [[0, 1, 2, 3]],
    "extra_vectors": [[0, 0, 0, 1]],
}

C4Z4_BAR = {
    "rank": 4,
    "rays": C4Z4["rays"] + [[0, 0, 0, -1]],
    "cones": [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4],
              [1, 2, 3, 4]],
    "extra_vectors": [[0, 0, 0, 1]],
}


def test_local_quadric_rank_two():
    data = kernel_data(fan_from_dict(LOCAL_QUADRIC))
    assert data.r == 2 and data.r_prime == 2
    classes = enumerate_effective(data, 2)
    # the two flat generators plus their grade-2 combinations
    assert [tuple(c.coords) for c in classes] == [
        (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    g = column_series(data, 3)
    g0 = g[0]
    y1, y2 = mono(("y1", 1)), mono(("y2", 1))
    # first coefficients of the two-variable ray series: -(2a+2b-1)!/(a!b!)^2
    assert g0.coefficient(y1) == -1
    assert g0.coefficient(y2) == -1
    assert g0.coefficient(mono(("y1", 1), ("y2", 1))) == -6
    assert g0.coefficient(mono(("y1", 2))) == F(-3, 2)
    for j in (1, 2, 3, 4):
        assert g[j].is_zero()


def test_local_quadric_round_trip():
    data = kernel_data(fan_from_dict(LOCAL_QUADRIC))
    mm = toric_mirror_map(data, 4)
    inv = inverse_mirror_map(mm)
    from orbidisk.series import Series
    for rel in mm.relations:
        back = rel.series.substitute(inv)
        assert back.same_terms(Series.variable(rel.target, back.weights,
                                               back.order))


def test_local_quadric_oracle():
    cd = validate_compactification(fan_from_dict(LOCAL_QUADRIC),
                                   fan_from_dict(LOCAL_QUADRIC_BAR),
                                   ("ray", 0))
    assert cd.complete_certificate["facets_paired"] is True
    dp, oracle = compare_potentials(cd, 3)
    # symmetric in the two flat variables; starts with the expected signs
    q1 = mono(("q1", 1))
    q2 = mono(("q2", 1))
    assert dp.series.coefficient(q1) == dp.series.coefficient(q2) == 1
    assert dp.series.constant_term() == 1
    swapped = {}
    for m, c in dp.series.terms.items():
        d = dict(m)
        sm = mono(("q1", d.get("q2", 0)), ("q2", d.get("q1", 0)))
        swapped[sm] = c
    assert swapped == dp.series.terms


def test_local_p3_oracle():
    cd = validate_compactification(fan_from_dict(LOCAL_P3),
                                   fan_from_dict(LOCAL_P3_BAR), ("ray", 0))
    assert cd.complete_certificate["facets_paired"] is True
    dp, oracle = compare_potentials(cd, 4)
    q = lambda e: mono(("q1", e))
    assert dp.series.terms == {q(0): 1, q(1): 6, q(2): 189, q(3): 14366,
                               q(4): 1518750}


def test_c4z4_oracle():
    cd = validate_compactification(fan_from_dict(C4Z4),
                                   fan_from_dict(C4Z4_BAR), ("box", 4))
    assert cd.complete_certificate["facets_paired"] is True
    dp, oracle = compare_potentials(cd, 3)
    t = lambda e: mono(("t4", e))
    assert dp.series.terms == {t(1): 1, t(5): F(-1, 30720),
                               t(9): F(-499, 23781703680)}


def test_a1_chart_orbifold():
    data = kernel_data(fan_from_dict(A1_CHART))
    assert data.gamma == [[-1, -1, 2]]
    boxes = [(b.vector, b.age) for b in data.boxes]
    assert ((1, 1), F(1)) in boxes
    g2 = column_series(data, 2)[2]
    u = lambda e: mono(("y1", e))
    # twisted series u + u^3/24 + u^5/1920 with u = y^(1/2):
    # k-th coefficient (prod_{a in (-k/2,0), <a>=1/2} a)^2 / k!
    assert g2.coefficient(u(F(1, 2))) == 1
    assert g2.coefficient(u(F(3, 2))) == F(1, 24)
    # k = 5: ((-3/2)(-1/2))^2 / 5! = (9/16)/120 = 3/640
    g2_deep = column_series(data, F(5, 2))[2]
    assert g2_deep.coefficient(u(F(5, 2))) == F(3, 640)


def test_a1_chart_potential_and_oracle():
    data = kernel_data(fan_from_dict(A1_CHART))
    dp = disk_potential(toric_mirror_map(data, F(3, 2)), ("box", 2))
    t = lambda e: mono(("t2", e))
    # invert tau = u + u^3/24: u = tau - tau^3/24 + ...
    assert dp.series.terms == {t(1): F(1), t(3): F(-1, 24)}
    cd = validate_compactification(fan_from_dict(A1_CHART),
                                   fan_from_dict(A1_CHART_BAR), ("box", 2))
    dp2, oracle = compare_potentials(cd, F(5, 2))
    assert dp2.series.coefficient(t(5)) == oracle.coefficient(t(5))
    # u = tau - tau^3/24 + c tau^5 with c + 3/640 - 1/192 = 0 (hand inversion)
    assert dp2.series.coefficient(t(5)) == F(1, 1920)


def test_a1_smooth_disks_trivial():
    data = kernel_data(fan_from_dict(A1_CHART))
    for i in (0, 1):
        dp = disk_potential(toric_mirror_map(data, 3), ("ray", i))
        assert dp.series.terms == {(): F(1)}


WEIGHTED_SURFACE = {
    "rank": 3,
    "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [-1, -2, 1]],
    "cones": [[0, 1, 2], [0, 2, 3], [0, 1, 3]],
    "extra_vectors": [[0, -1, 1]],
}
WEIGHTED_BASIS = [[0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]
WEIGHTED_SURFACE_BAR = {
    "rank": 3,
    "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [-1, -2, 1], [0, 0, -1]],
    "cones": [[0, 1, 2], [0, 2, 3], [0, 1, 3],
              [1, 2, 4], [2, 3, 4], [1, 3, 4]],
    "extra_vectors": [[0, -1, 1]],
}


def test_weighted_surface_needs_adapted_basis():
    from orbidisk.errors import ValidationError
    data = kernel_data(fan_from_dict(WEIGHTED_SURFACE))
    with pytest.raises(ValidationError, match="nef basis"):
        enumerate_effective(data, 2)


def test_weighted_surface_mixed_variables():
    # both a flat and a twisted variable, with half-integer class pairings
    data = kernel_data(fan_from_dict(WEIGHTED_SURFACE),
                       basis_p=WEIGHTED_BASIS)
    assert data.r == 2 and data.r_prime == 1
    mm = toric_mirror_map(data, 3)
    y1, y2 = "y1", "y2"
    # compact-divisor series: coefficients follow the factorial closed form
    assert mm.g[0].coefficient(mono((y1, 1))) == -3
    assert mm.g[0].coefficient(mono((y1, 1), (y2, 1))) == -1
    assert mm.g[0].coefficient(mono((y1, 2))) == F(-105, 2)
    assert mm.g[0].coefficient(mono((y1, 2), (y2, 1))) == -20
    assert mm.g[0].coefficient(mono((y1, 3))) == -1540
    # twisted series starts at the dual class with a half-integer exponent
    assert mm.g[4].terms == {mono((y1, F(1, 2)), (y2, 1)): F(1)}
    for j in (1, 2, 3):
        assert mm.g[j].is_zero()


@pytest.mark.parametrize("argv", [
    ["mirror-map"], ["invariants", "--disk", "ray:0"], ["syz"],
], ids=["mirror-map", "invariants", "syz"])
def test_weighted_surface_unsplit_basis_refused(capsys, tmp_path, argv):
    # the swapped rows put the extra column's class on the flat prefix: the
    # basis is unimodular but not split, and only the mirror map refuses it
    doc = dict(WEIGHTED_SURFACE, basis_p=WEIGHTED_BASIS[::-1])
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["basis"] == {
        "origin": "user", "split_ok": False}
    assert main([argv[0], str(path), *argv[1:], "--order", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "kernel basis is not adapted to the extra vectors" in \
        json.loads(err)["error"]["message"]


def test_weighted_surface_oracle():
    # full two-route agreement, fractional flat exponents included
    fan = fan_from_dict(WEIGHTED_SURFACE)
    cd = validate_compactification(fan, fan_from_dict(WEIGHTED_SURFACE_BAR),
                                   ("ray", 0), WEIGHTED_BASIS)
    assert cd.complete_certificate["facets_paired"] is True
    dp, oracle = compare_potentials(cd, 2)
    q1 = lambda e: mono(("q1", e))
    assert dp.series.coefficient(q1(1)) == 3
    assert dp.series.coefficient(mono(("q1", F(1, 2)), ("t4", 1))) == 1
    assert dp.series.coefficient(q1(2)) == 21


def test_weighted_surface_boundary_disk_rejected():
    # compactifying along a boundary direction introduces a new age-1 sector;
    # the validator must refuse rather than compute nonsense
    from orbidisk.errors import ValidationError
    bar = {
        "rank": 3,
        "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [-1, -2, 1], [0, 1, -1]],
        "cones": [[0, 1, 2], [0, 2, 3], [0, 1, 3], [1, 2, 4], [2, 3, 4]],
        "extra_vectors": [[0, -1, 1]],
    }
    with pytest.raises(ValidationError, match="age-1"):
        validate_compactification(fan_from_dict(WEIGHTED_SURFACE),
                                  fan_from_dict(bar), ("box", 4),
                                  WEIGHTED_BASIS)


def test_a1_sine_closed_form():
    # the surface-chart twisted series and its inverse have elementary closed
    # forms: g(u) = 2 arcsin(u/2) and u(tau) = 2 sin(tau/2); the factorial
    # expansions below are the textbook series coefficients
    from math import factorial

    def arcsin2_coeff(k):
        # coefficient of u^(2k+1) in 2 arcsin(u/2)
        return F(factorial(2 * k),
                 16 ** k * factorial(k) ** 2 * (2 * k + 1))

    def sin2_coeff(k):
        # coefficient of tau^(2k+1) in 2 sin(tau/2)
        return F((-1) ** k, 4 ** k * factorial(2 * k + 1))

    data = kernel_data(fan_from_dict(A1_CHART))
    order = F(9, 2)
    g2 = column_series(data, order)[2]
    u = lambda e: mono(("y1", e))
    for k in range(5):
        assert g2.coefficient(u(F(2 * k + 1, 2))) == arcsin2_coeff(k)
    dp = disk_potential(toric_mirror_map(data, order), ("box", 2))
    t = lambda e: mono(("t2", e))
    for k in range(5):
        assert dp.series.coefficient(t(2 * k + 1)) == sin2_coeff(k)
