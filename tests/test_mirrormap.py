from fractions import Fraction
from math import factorial

import pytest

from orbidisk import fans
from orbidisk.effective import enumerate_effective
from orbidisk.errors import ValidationError
from orbidisk.fan import kernel_data, fan_from_dict, validate_compactification
from orbidisk.hyper import coefficient_slice
from orbidisk.mirrormap import (g_series, inverse_mirror_map,
                                relative_mirror_map, toric_mirror_map)
from orbidisk.series import Series, mono

F = Fraction


def data_for(name):
    return kernel_data(fans.load(name))


def column_series(data, order):
    """Every column's mirror-map series at one order, from one slice."""
    sl = coefficient_slice(data, enumerate_effective(data, order), order)
    return g_series(data, sl.sector_series, sl.divisor_series, order)


def closed_form_g0_kp2(k):
    """(-1)^(k-1) (3k-1)! / (k!)^3 -- independent factorial oracle."""
    return F((-1) ** (k - 1) * factorial(3 * k - 1), factorial(k) ** 3)


# ---------------------------------------------------------------------------
# g-series


def test_g_series_trivial_fans():
    for name in ("c3", "conifold"):
        data = data_for(name)
        g = column_series(data, 10)
        assert sorted(g) == list(range(data.m_prime))
        for j in range(data.m_prime):
            assert g[j].is_zero()


def test_g_series_kp2():
    data = data_for("kp2")
    g = column_series(data, 4)
    g0 = g[0]
    want = {mono(("y1", k)): closed_form_g0_kp2(k) for k in range(1, 5)}
    assert g0.terms == want
    assert g0.coefficient(mono(("y1", 1))) == 2
    assert g0.coefficient(mono(("y1", 2))) == -15
    assert g0.coefficient(mono(("y1", 3))) == F(560, 3)
    for j in (1, 2, 3):
        assert g[j].is_zero()


def test_g_series_c3z3():
    data = data_for("c3z3")
    g = column_series(data, F(4, 3))
    g3 = g[3]
    y = lambda e: mono(("y1", e))
    assert g3.terms == {y(F(1, 3)): 1, y(F(4, 3)): F(-1, 648)}
    for j in (0, 1, 2):
        assert g[j].is_zero()


def test_g_series_c3z3_deeper():
    # k = 7 term: three factors prod_{a in (-7/3,0)} a = (-4/3)(-1/3) each,
    # cubed, times 1/7!: (4/9)^3 / 5040 = 4/229635
    data = data_for("c3z3")
    g3 = column_series(data, F(7, 3))[3]
    assert g3.coefficient(mono(("y1", F(7, 3)))) == F(4, 229635)


# ---------------------------------------------------------------------------
# forward maps


def test_toric_mirror_map_c3():
    mm = toric_mirror_map(data_for("c3"), 5)
    assert mm.relations == []


def test_toric_mirror_map_kp2():
    mm = toric_mirror_map(data_for("kp2"), 3)
    rel = mm.relation_for("q1")
    assert rel.kind == "flat"
    assert rel.monomial == mono(("y1", 1))
    # log q = log y - 3 g0(y)
    want = column_series(data_for("kp2"), 3)[0] * (-3)
    assert rel.correction.same_terms(want)


def test_toric_mirror_map_c3z3():
    mm = toric_mirror_map(data_for("c3z3"), F(4, 3))
    assert [r.target for r in mm.relations] == ["t3"]
    rel = mm.relation_for("t3")
    assert rel.kind == "twisted"
    y = lambda e: mono(("y1", e))
    assert rel.series.terms == {y(F(1, 3)): 1, y(F(4, 3)): F(-1, 648)}


def test_mirror_map_requires_cy():
    # the fan of P^2: no covector pairs to 1 with all three rays
    doc = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
           "cones": [[0, 1], [1, 2], [0, 2]]}
    data = kernel_data(fan_from_dict(doc))
    assert data.cy_covector is None
    with pytest.raises(ValidationError, match="not Calabi-Yau"):
        toric_mirror_map(data, 2)


# ---------------------------------------------------------------------------
# inverses


def test_inverse_c3():
    mm = toric_mirror_map(data_for("c3"), 5)
    assert inverse_mirror_map(mm) == {}


def test_inverse_kp2():
    mm = toric_mirror_map(data_for("kp2"), 4)
    inv = inverse_mirror_map(mm)
    q = lambda e: mono(("q1", e))
    assert inv["y1"].terms == {q(1): 1, q(2): 6, q(3): 9, q(4): 56}


def test_inverse_c3z3():
    mm = toric_mirror_map(data_for("c3z3"), 2)
    inv = inverse_mirror_map(mm)
    t = lambda e: mono(("t3", e))
    # y = (tau + tau^4/648 + ...)^3 = tau^3 + tau^6/216 + ...
    y1 = inv["y1"]
    assert y1.coefficient(t(3)) == 1
    assert y1.coefficient(t(6)) == F(1, 216)


@pytest.mark.parametrize("name", ["c3", "conifold", "kp2", "c3z3"])
def test_round_trip_to_grade_8(name):
    data = data_for(name)
    mm = toric_mirror_map(data, 8)
    inv = inverse_mirror_map(mm)
    for rel in mm.relations:
        back = rel.series.substitute(inv)
        target = Series.variable(rel.target, back.weights, back.order)
        assert back.same_terms(target)


# ---------------------------------------------------------------------------
# relative maps


def test_relative_map_c3():
    cd = validate_compactification(fans.load("c3"), fans.load("c3_bar"),
                                   ("ray", 2))
    mm = relative_mirror_map(cd, 4)
    rel = mm.relation_for("qinf")
    assert rel.monomial == mono(("yinf", 1))
    assert rel.correction.is_zero()


def test_relative_map_kp2():
    cd = validate_compactification(fans.load("kp2"), fans.load("kp2_bar"),
                                   ("ray", 0))
    mm = relative_mirror_map(cd, 3)
    rel = mm.relation_for("qinf")
    assert rel.monomial == mono(("yinf", 1))
    base_g0 = column_series(cd.base, 3)[0]
    got = {m: c for m, c in rel.correction.terms.items()}
    assert got == base_g0.terms
    # restriction: the plain flat relation agrees with the base mirror map
    base_mm = toric_mirror_map(cd.base, 3)
    assert mm.relation_for("q1").correction.same_terms(
        base_mm.relation_for("q1").correction)


def test_relative_map_c3z3():
    cd = validate_compactification(fans.load("c3z3"), fans.load("c3z3_bar"),
                                   ("box", 3))
    mm = relative_mirror_map(cd, 2)
    rel = mm.relation_for("qinf")
    # flat compactified variable carries the dual-class twist
    assert rel.monomial == mono(("yinf", 1), ("y1", F(-1, 3)))
    # ray series all vanish, so the correction is zero
    assert rel.correction.is_zero()
    # twisted relation named after the base column
    t3 = mm.relation_for("t3")
    assert t3.series.coefficient(mono(("y1", F(1, 3)))) == 1


@pytest.mark.parametrize("base,disk,order,target,kind", [
    ("kp2", ("ray", 0), 3, "q1", "flat"),
    ("c3z3", ("box", 3), 2, "t3", "twisted"),
])
def test_relative_map_refuses_base_mismatch(monkeypatch, base, disk, order,
                                            target, kind):
    # every flat and twisted relation is compared with the base map's; a
    # perturbed base relation is refused and named
    from orbidisk import mirrormap
    from orbidisk.errors import ConsistencyError
    cd = validate_compactification(fans.load(base), fans.load(base + "_bar"),
                                   disk)
    plain = mirrormap.toric_mirror_map

    def perturbed(data, order, classes=None):
        mm = plain(data, order, classes)
        rels = [mirrormap.Relation(r.target, r.kind, r.series * 2)
                if r.target == target else r for r in mm.relations]
        return mirrormap.MirrorMap(mm.data, mm.order, mm.g, rels)

    monkeypatch.setattr(mirrormap, "toric_mirror_map", perturbed)
    with pytest.raises(ConsistencyError,
                       match=f"{kind} relation differs") as e:
        relative_mirror_map(cd, order)
    assert e.value.datum == target


def test_relative_inverse_round_trip():
    cd = validate_compactification(fans.load("kp2"), fans.load("kp2_bar"),
                                   ("ray", 0))
    mm = relative_mirror_map(cd, 5)
    inv = inverse_mirror_map(mm)
    # the base variable inverts exactly as in the plain map
    q = lambda e: mono(("q1", e))
    assert inv["y1"].coefficient(q(1)) == 1
    assert inv["y1"].coefficient(q(2)) == 6
    assert inv["y1"].coefficient(q(3)) == 9
    assert inv["y1"].coefficient(q(4)) == 56
    # yinf = qinf * exp(-g0(y(q))): coefficient of qinf q^1 is -2
    assert inv["yinf"].coefficient(mono(("qinf", 1), ("q1", 1))) == -2
