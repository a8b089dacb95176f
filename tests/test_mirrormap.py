from fractions import Fraction
from math import factorial

import pytest

from orbidisk import fans
from orbidisk.effective import enumerate_effective
from orbidisk.errors import ValidationError
from orbidisk.fan import kernel_data, fan_from_dict, validate_compactification
from orbidisk.hyper import relative_ifunction_oracle, y_monomial
from orbidisk.mirrormap import (cone_sum, g_series, inverse_mirror_map,
                                relative_mirror_map, toric_mirror_map)
from orbidisk.series import Series, mono

F = Fraction


def data_for(name):
    return kernel_data(fans.load(name))


def relation(mm, target):
    return {r.target: r for r in mm.relations}[target]


def column_series(data, order):
    """Every column's mirror-map series at one order."""
    return g_series(data, enumerate_effective(data, order), order)


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
    rel = relation(mm, "q1")
    assert rel.kind == "flat"
    assert rel.series.factor_unit()[0] == mono(("y1", 1))
    # log q = log y - 3 g0(y)
    want = column_series(data_for("kp2"), 3)[0] * (-3)
    assert rel.correction.same_terms(want)


def test_toric_mirror_map_c3z3():
    mm = toric_mirror_map(data_for("c3z3"), F(4, 3))
    assert [r.target for r in mm.relations] == ["t3"]
    rel = relation(mm, "t3")
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


def _quadric_data():
    from test_generalization import LOCAL_QUADRIC
    return kernel_data(fan_from_dict(LOCAL_QUADRIC))


@pytest.mark.parametrize("name, lo, hi", [
    ("c3", 1, 3), ("c3", 4, 5),            # hi = lo + w_inf of c3_bar ray:2
    ("conifold", 2, 5), ("conifold", 3, 4),
    ("kp2", 1, 2), ("kp2", 3, 4), ("kp2", 2, 7),   # w_inf of kp2_bar is 1
    ("c3z3", F(1, 3), F(4, 3)), ("c3z3", F(4, 3), 2),  # w_inf 2/3
    ("c3z3", 2, F(8, 3)), ("c3z3", F(7, 3), 4),
    ("local_quadric", 2, 3), ("local_quadric", 1, 4),
])
def test_truncate_equals_map_built_at_lower_order(name, lo, hi):
    # a map built high and truncated is the map built low: the same column
    # series, relations and class list
    data = _quadric_data() if name == "local_quadric" else data_for(name)
    got = toric_mirror_map(data, hi).truncate(lo)
    want = toric_mirror_map(data, lo)
    assert got.order == want.order == F(lo)
    assert got.g == want.g
    assert got.relations == want.relations
    assert got.classes == want.classes


@pytest.mark.parametrize("name, hi, lo", [
    ("kp2", 2, F(1, 2)),
    ("c3z3", F(4, 3), F(1, 6)),
])
def test_truncate_below_leading_grade_refused_as_toric_mirror_map(name, hi,
                                                                   lo):
    data = data_for(name)
    with pytest.raises(ValidationError) as built:
        toric_mirror_map(data, lo)
    with pytest.raises(ValidationError) as truncated:
        toric_mirror_map(data, hi).truncate(lo)
    assert str(truncated.value) == str(built.value)
    assert truncated.value.datum == built.value.datum
    assert truncated.value.as_dict() == built.value.as_dict()


@pytest.mark.parametrize("base, disk, lo, hi", [
    ("kp2", ("ray", 0), 4, 6), ("kp2", ("ray", 0), 1, 3),
    ("c3z3", ("box", 3), F(4, 3), F(8, 3)),
])
def test_truncated_relative_map_is_the_map_of_the_truncated_base(base, disk,
                                                                  lo, hi):
    # truncate keeps every relation it holds, qinf's too, so the result is
    # the relative map of the truncated base and inverts
    cd = validate_compactification(fans.load(base), fans.load(base + "_bar"),
                                   disk)
    mm = toric_mirror_map(cd.base, hi)
    got = relative_mirror_map(cd, mm).truncate(lo)
    assert got == relative_mirror_map(cd, mm.truncate(lo))
    assert "qinf" in [r.target for r in got.relations]
    assignment = inverse_mirror_map(got)
    assert sorted(assignment) == sorted(cd.bar.y_vars())


# ---------------------------------------------------------------------------
# relative maps


def test_relative_map_c3():
    cd = validate_compactification(fans.load("c3"), fans.load("c3_bar"),
                                   ("ray", 2))
    mm = relative_mirror_map(cd, toric_mirror_map(cd.base, 4))
    rel = relation(mm, "qinf")
    assert rel.series.factor_unit()[0] == mono(("yinf", 1))
    assert rel.correction.is_zero()


def test_relative_map_kp2():
    cd = validate_compactification(fans.load("kp2"), fans.load("kp2_bar"),
                                   ("ray", 0))
    mm = relative_mirror_map(cd, toric_mirror_map(cd.base, 3))
    rel = relation(mm, "qinf")
    assert rel.series.factor_unit()[0] == mono(("yinf", 1))
    base_g0 = column_series(cd.base, 3)[0]
    got = {m: c for m, c in rel.correction.terms.items()}
    assert got == base_g0.terms
    # restriction: the plain flat relation agrees with the base mirror map
    base_mm = toric_mirror_map(cd.base, 3)
    assert relation(mm, "q1").correction.same_terms(
        relation(base_mm, "q1").correction)


def test_relative_map_c3z3():
    cd = validate_compactification(fans.load("c3z3"), fans.load("c3z3_bar"),
                                   ("box", 3))
    mm = relative_mirror_map(cd, toric_mirror_map(cd.base, 2))
    rel = relation(mm, "qinf")
    # flat compactified variable carries the dual-class twist
    assert rel.series.factor_unit()[0] == mono(("yinf", 1), ("y1", F(-1, 3)))
    # ray series all vanish, so the correction is zero
    assert rel.correction.is_zero()
    # twisted relation named after the base column
    t3 = relation(mm, "t3")
    assert t3.series.coefficient(mono(("y1", F(1, 3)))) == 1


# the oracle pairs of the corpus: base, bar, disk and basis, by bundled name
# or by the name of a fan of test_generalization
ORACLE_PAIRS = [
    ("c3", "c3_bar", ("ray", 2), None),
    ("kp2", "kp2_bar", ("ray", 0), None),
    ("c3z3", "c3z3_bar", ("box", 3), None),
    ("LOCAL_QUADRIC", "LOCAL_QUADRIC_BAR", ("ray", 0), None),
    ("A1_CHART", "A1_CHART_BAR", ("box", 2), None),
    ("WEIGHTED_SURFACE", "WEIGHTED_SURFACE_BAR", ("ray", 0), "WEIGHTED_BASIS"),
    ("LOCAL_P3", "LOCAL_P3_BAR", ("ray", 0), None),
    ("C4Z4", "C4Z4_BAR", ("box", 4), None),
]


def oracle_pair(base, bar, disk, basis_p):
    import test_generalization as gen

    def load(name):
        return fan_from_dict(getattr(gen, name)) if name.isupper() \
            else fans.load(name)
    return validate_compactification(load(base), load(bar), disk,
                                     basis_p and getattr(gen, basis_p))


@pytest.mark.parametrize("base,bar,disk,basis_p", ORACLE_PAIRS)
def test_relative_map_leads_with_constructed_beta_bar(base, bar, disk,
                                                      basis_p):
    # the compactification gives beta_bar in the bar's basis: its
    # coordinates pair back to the validated pairing vector, and the qinf
    # relation leads with yinf times the inverse dual-class monomial
    cd = oracle_pair(base, bar, disk, basis_p)
    b = cd.bar
    assert b.pairings_from_coords(cd.beta_bar_coords) == cd.beta_bar
    # D_inf, the bar basis's last vector, is 1 at the added ray and at the
    # disk's column (shifted past the added ray) and 0 elsewhere
    inf = b.infinity_column
    col = disk[1] + (disk[1] >= inf)
    assert b.gamma[-1] == [int(c in (inf, col)) for c in range(b.m_prime)]
    # beta_bar = D_inf - dual meets D_inf once, vanishes on every extra
    # column and has anticanonical degree 2 (an age-1 dual class sums to 0)
    assert cd.beta_bar[inf] == 1 and sum(cd.beta_bar) == 2
    assert not any(cd.beta_bar[j] for j in b.extra_columns())
    mm = relative_mirror_map(cd, toric_mirror_map(cd.base, 2))
    # z_extract never forces the added ray's column: its series is zero
    assert mm.g[inf].is_zero()
    dual = cd.base.disk_class(disk)[3]
    assert relation(mm, "qinf").series.factor_unit()[:2] == (
        mono(("yinf", 1), *((v, -x) for v, x in zip(b.y_vars(), dual))), 1)


@pytest.mark.parametrize("order", [2, 5])
@pytest.mark.parametrize("base,bar,disk,basis_p", ORACLE_PAIRS)
def test_relative_map_identities(base, bar, disk, basis_p, order):
    # five identities that the construction of the second route gives on
    # every input, so the run does not check them
    from test_hyper import z2_degree0
    cd = oracle_pair(base, bar, disk, basis_p)
    b = cd.bar
    # (e) each twisted column series holds its dual class with coefficient
    # 1: the dual class generates every maximal cone holding its box's cone
    for data in (cd.base, b):
        g = column_series(data, order)
        for j in data.extra_columns():
            dual = data.disk_class(("box", j))[3]
            assert g[j].coefficient(y_monomial(data, dual)) == 1, j
    base_mm = toric_mirror_map(cd.base, order)
    # (d) the z^-2 degree-0 part is the monomial of D_inf with coefficient 1
    y_inf = y_monomial(b, [0] * (b.r - 1) + [1])
    assert z2_degree0(b, relative_ifunction_oracle(cd, base_mm)) == {y_inf: 1}
    mm = relative_mirror_map(cd, base_mm)
    own = list(mm.relations)
    rel_inf = own.pop(b.r_prime)
    assert rel_inf.target == "qinf"
    # (a) every other relation is the base map's: the z^-1 series come from
    # the classes that miss D_inf, which are the base classes
    assert [r.target for r in own] == [r.target for r in base_mm.relations]
    for got, want in zip(own, base_mm.relations):
        assert got.series.same_terms(want.series), got.target
    # (b) qinf's correction is the cone-weighted sum of the base ray series
    cone, coeffs = cd.base.disk_class(disk)[:2]
    assert rel_inf.correction.same_terms(cone_sum(base_mm, cone, coeffs))
    # (c) the inverse takes y^D_inf to qinf times a series without qinf
    _, (image,) = inverse_mirror_map(
        mm, Series.monomial(y_inf, b.y_weights(), order))
    assert image.terms
    assert all(dict(m).get("qinf") == 1 for m in image.terms)


def test_relative_map_refuses_foreign_base():
    # the base map must be built on the compactification's own base fan
    cd = validate_compactification(fans.load("kp2"), fans.load("kp2_bar"),
                                   ("ray", 0))
    with pytest.raises(ValidationError, match="base map is not built") as e:
        relative_mirror_map(cd, toric_mirror_map(data_for("c3"), 3))
    assert e.value.operation == "relative_mirror_map"
    assert e.value.exit_code == 2


def test_relative_inverse_round_trip():
    cd = validate_compactification(fans.load("kp2"), fans.load("kp2_bar"),
                                   ("ray", 0))
    mm = relative_mirror_map(cd, toric_mirror_map(cd.base, 5))
    inv = inverse_mirror_map(mm)
    # the base variable inverts exactly as in the plain map
    q = lambda e: mono(("q1", e))
    assert inv["y1"].coefficient(q(1)) == 1
    assert inv["y1"].coefficient(q(2)) == 6
    assert inv["y1"].coefficient(q(3)) == 9
    assert inv["y1"].coefficient(q(4)) == 56
    # yinf = qinf * exp(-g0(y(q))): coefficient of qinf q^1 is -2
    assert inv["yinf"].coefficient(mono(("qinf", 1), ("q1", 1))) == -2
