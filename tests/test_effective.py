import itertools
from fractions import Fraction
from math import gcd

import pytest

from orbidisk import fans
from orbidisk.effective import (EffClass, dual_class, enumerate_effective,
                                is_effective, sector)
from orbidisk.errors import ValidationError
from orbidisk.fan import (fan_from_dict, kernel_data, validate_compactification,
                          zero_box)
from orbidisk.hyper import y_monomial
from test_generalization import LOCAL_QUADRIC
from test_mirrormap import column_series

F = Fraction


def data_for(name, **kw):
    return kernel_data(fans.load(name), **kw)


# Fraction reference of the class layer: production runs on int numerators
# over one class denominator, these restate each value from its definition
# with Fraction arithmetic (test oracle)


def pairings_reference(data, coords) -> tuple:
    """Pairing with every column of d = sum_a coords_a gamma_a."""
    return tuple(sum((F(c) * g[i] for c, g in zip(coords, data.gamma)), F(0))
                 for i in range(data.m_prime))


def effective_reference(data, pairings) -> bool:
    """The columns pairing outside Z>=0 are rays spanning a cone."""
    bad = {i for i, p in enumerate(pairings) if not _is_nonneg_int(F(p))}
    if any(data.is_extra(i) for i in bad):
        return False
    return any(bad <= set(c) for c in data.max_cones)


def sector_reference(data, pairings):
    """Ray-wise fractional parts of the negated pairings, as a box element
    (of an admissible class: its fractional rays span a cone)."""
    support, coeffs = [], []
    for i, p in enumerate(pairings):
        f = -F(p) - (-F(p)).__floor__()
        if f != 0:
            assert not data.is_extra(i)
            support.append(i)
            coeffs.append(f)
    if not support:
        return zero_box(data.n)
    assert any(set(support) <= set(c) for c in data.max_cones)
    vec = tuple(sum((data.column_vector(i)[k] * c
                     for i, c in zip(support, coeffs)), F(0))
                for k in range(data.n))
    assert all(x.denominator == 1 for x in vec)
    (box,) = [b for b in data.boxes if b.vector == tuple(map(int, vec))]
    return box


def eff_class_reference(data, coords) -> EffClass:
    coords = tuple(F(c) for c in coords)
    pairings = pairings_reference(data, coords)
    return EffClass(coords=coords, pairings=pairings,
                    grade=sum(coords, F(0)),
                    sector=sector_reference(data, pairings))


def brute_force_effective(data, bound, denominator=None) -> list:
    """Independent grid enumeration for small kernel ranks (test oracle).

    Scans all coordinate tuples with the box-denominator cleared inside a box
    large enough to contain every class of grade <= bound, keeping those that
    pass the membership predicate restated above.
    """
    bound = F(bound)
    r = data.r
    if r == 0:
        return []
    assert r <= 2, "grid oracle only supports kernel rank <= 2"
    if denominator is None:
        denominator = 1
        for b in data.boxes:
            for c in b.coefficients:
                denominator = denominator * c.denominator // gcd(
                    denominator, c.denominator)
    lim = int(bound * denominator) * (data.m_prime + 2)
    out = []
    for combo in itertools.product(range(-lim, lim + 1), repeat=r):
        coords = [F(k, denominator) for k in combo]
        if all(c == 0 for c in coords):
            continue
        grade = sum(coords, F(0))
        if grade <= 0 or grade > bound:
            continue
        if effective_reference(data, pairings_reference(data, coords)):
            out.append(eff_class_reference(data, coords))
    out.sort(key=lambda c: (c.grade, c.coords))
    return out


# filters restating which classes feed each mirror-map column, straight from
# the definitions; production reads the columns off one coefficient slice


def _is_nonneg_int(x):
    return x.denominator == 1 and x >= 0


def _is_neg_int(x):
    return x.denominator == 1 and x < 0


def _degree_zero(data, cls) -> bool:
    """Vanishing of the anticanonical pairing (sum over every column)."""
    return sum(cls.pairings) == 0


def filter_g_smooth(data, classes, j) -> list:
    """Classes feeding the ray-indexed series: trivial sector, the chosen ray
    pairing a negative integer, every other column a nonnegative integer, and
    anticanonical degree zero."""
    out = []
    for cls in classes:
        if not cls.sector.is_zero():
            continue
        if not _degree_zero(data, cls):
            continue
        if not _is_neg_int(cls.pairings[j]):
            continue
        if all(_is_nonneg_int(p) for i, p in enumerate(cls.pairings) if i != j):
            out.append(cls)
    return out


def filter_g_orbi(data, classes, j) -> list:
    """Classes feeding the twisted-sector series of extra column j: sector
    equal to that box element, no column pairing to a negative integer
    (fractional negative pairings are admitted), anticanonical degree zero."""
    target = data.column_vector(j)
    out = []
    for cls in classes:
        if cls.sector.is_zero() or cls.sector.vector != tuple(target):
            continue
        if not _degree_zero(data, cls):
            continue
        if any(_is_neg_int(p) for p in cls.pairings):
            continue
        out.append(cls)
    return out


def test_enumerate_c3_empty():
    assert enumerate_effective(data_for("c3"), 10) == []


def test_enumerate_kp2():
    data = data_for("kp2")
    classes = enumerate_effective(data, 3)
    assert [list(c.pairings) for c in classes] == [
        [-3, 1, 1, 1], [-6, 2, 2, 2], [-9, 3, 3, 3]]
    assert [c.grade for c in classes] == [1, 2, 3]
    assert all(c.sector.is_zero() for c in classes)


def test_enumerate_conifold():
    data = data_for("conifold")
    classes = enumerate_effective(data, 2)
    assert [list(c.pairings) for c in classes] == [
        [1, -1, -1, 1], [2, -2, -2, 2]]


def test_enumerate_c3z3():
    data = data_for("c3z3")
    classes = enumerate_effective(data, F(5, 3))
    assert [list(c.pairings) for c in classes] == [
        [F(-1, 3), F(-1, 3), F(-1, 3), 1],
        [F(-2, 3), F(-2, 3), F(-2, 3), 2],
        [-1, -1, -1, 3],
        [F(-4, 3), F(-4, 3), F(-4, 3), 4],
        [F(-5, 3), F(-5, 3), F(-5, 3), 5],
    ]
    assert [c.grade for c in classes] == [F(k, 3) for k in range(1, 6)]


def test_enumerate_compactified_c3z3():
    cd = validate_compactification(fans.load("c3z3"), fans.load("c3z3_bar"),
                                   ("box", 3))
    classes = enumerate_effective(cd.bar, 2)
    pair_set = {tuple(c.pairings) for c in classes}
    # the disk class itself is effective (fractional rays span the big cone)
    assert tuple(cd.beta_bar) in pair_set
    # the compactifying class too
    assert tuple(cd.d_infinity) in pair_set
    # a class invisible from the base sits in the wider cone: 3 * disk class
    assert (F(1), F(1), F(1), F(3), F(0)) in pair_set
    for c in classes:
        assert c.grade > 0
        assert is_effective(cd.bar, c.pairings)


def test_sector_values():
    data = data_for("c3z3")
    classes = enumerate_effective(data, F(4, 3))
    s1 = classes[0].sector
    assert s1.vector == (0, 0, 1) and s1.age == 1
    s2 = classes[1].sector
    assert s2.vector == (0, 0, 2) and s2.age == 2
    assert classes[2].sector.is_zero()


def test_sector_kp2_trivial():
    data = data_for("kp2")
    assert sector(data, [-3, 1, 1, 1]).is_zero()


def test_sector_rejects_non_cone_support():
    data = data_for("conifold")
    # fractional pairings on rays 0 and 3, which span no cone together
    with pytest.raises(Exception):
        sector(data, [F(1, 2), 1, 1, F(1, 2)])


def test_membership_predicate():
    data = data_for("kp2")
    assert is_effective(data, [-3, 1, 1, 1])
    assert not is_effective(data, [3, -1, -1, -1])
    # fractional pairing on a ray is fine when its support spans a cone
    dataz = data_for("c3z3")
    assert is_effective(dataz, [F(-1, 3), F(-1, 3), F(-1, 3), 1])
    # fractional pairing on the extra column is not
    assert not is_effective(dataz, [F(-1, 3), F(-1, 3), F(-1, 3), F(1, 2)])


def _rank_two_data(name):
    if name == "local_quadric":
        return kernel_data(fan_from_dict(LOCAL_QUADRIC))
    if name == "c3z3_bar":
        return validate_compactification(fans.load("c3z3"),
                                         fans.load("c3z3_bar"),
                                         ("box", 3)).bar
    return data_for(name)


@pytest.mark.parametrize("name,bound", [
    ("kp2", 4), ("conifold", 4), ("c3z3", F(7, 3)), ("local_quadric", 3),
    ("c3z3_bar", 2)])
def test_brute_force_completeness(name, bound):
    # whole classes: coordinates, pairings, grade and sector
    data = _rank_two_data(name)
    fast = enumerate_effective(data, bound)
    slow = brute_force_effective(data, bound)
    assert fast and fast == slow


def test_additivity_closure():
    data = data_for("kp2")
    bound = 4
    classes = enumerate_effective(data, bound)
    keys = {c.coords for c in classes}
    for a in classes:
        for b in classes:
            s = tuple(x + y for x, y in zip(a.coords, b.coords))
            grade = sum(s, F(0))
            if grade <= bound:
                assert s in keys
            pairings = data.pairings_from_coords(s)
            assert data.grade(s) == a.grade + b.grade
            if is_effective(data, pairings) and grade <= bound:
                assert s in keys


def test_grade_positive_abort():
    # a sign-flipped user basis makes the effective generator's grade
    # negative; enumeration must refuse rather than run off
    data = kernel_data(fans.load("kp2"), basis_p=[[0, -1, 0, 0]])
    assert data.gamma == [[3, -1, -1, -1]]
    with pytest.raises(ValidationError):
        enumerate_effective(data, 3)


def test_pointed_line_fan_enumerates():
    # the complete rank-1 fan has a pointed effective cone; no abort
    from orbidisk.fan import fan_from_dict
    doc = {"rank": 1, "rays": [[1], [-1]], "cones": [[0], [1]]}
    data = kernel_data(fan_from_dict(doc))
    classes = enumerate_effective(data, 3)
    assert [list(c.pairings) for c in classes] == [[1, 1], [2, 2], [3, 3]]


# ---------------------------------------------------------------------------
# dual classes and filters


def test_dual_class_c3z3():
    data = data_for("c3z3")
    d = dual_class(data, 3)
    assert list(d.pairings) == [F(-1, 3), F(-1, 3), F(-1, 3), 1]
    assert d.grade == F(1, 3)
    assert d.sector.vector == (0, 0, 1)


def test_filters_conifold_empty():
    data = data_for("conifold")
    classes = enumerate_effective(data, 5)
    for j in range(4):
        assert filter_g_smooth(data, classes, j) == []


def test_filters_kp2():
    data = data_for("kp2")
    classes = enumerate_effective(data, 4)
    got = filter_g_smooth(data, classes, 0)
    assert [c.pairings[0] for c in got] == [-3, -6, -9, -12]
    for j in (1, 2, 3):
        assert filter_g_smooth(data, classes, j) == []


def test_filters_c3z3():
    data = data_for("c3z3")
    classes = enumerate_effective(data, F(8, 3))
    orb = filter_g_orbi(data, classes, 3)
    # fractional part 1/3 forces pairings (-k/3, ., ., k) with k = 1 mod 3
    assert [c.pairings[3] for c in orb] == [1, 4, 7]
    for j in (0, 1, 2):
        assert filter_g_smooth(data, classes, j) == []


@pytest.mark.parametrize("name,bound", [
    ("kp2", 4), ("conifold", 5), ("c3z3", F(8, 3)), ("local_quadric", 3)])
def test_filters_match_g_series(name, bound):
    # the classes each filter selects are exactly the monomials g_series puts
    # in that column
    if name == "local_quadric":
        data = kernel_data(fan_from_dict(LOCAL_QUADRIC))
    else:
        data = data_for(name)
    classes = enumerate_effective(data, bound)
    g = column_series(data, bound)
    for j in range(data.m_prime):
        pick = filter_g_smooth if j < data.m else filter_g_orbi
        want = {y_monomial(data, c) for c in pick(data, classes, j)}
        assert set(g[j].terms) == want


def test_filter_reverification():
    data = data_for("kp2")
    classes = enumerate_effective(data, 4)
    for c in filter_g_smooth(data, classes, 0):
        p = c.pairings
        assert p[0].denominator == 1 and p[0] < 0
        assert all(q.denominator == 1 and q >= 0
                   for i, q in enumerate(p) if i != 0)
        assert c.sector.is_zero()
        assert sum(p, F(0)) == 0


def test_fan_relation_and_denominators():
    # every enumerated class satisfies the exact kernel relation, and its
    # coordinate denominators divide the box-coefficient lcm
    from math import lcm
    for name, bound in (("kp2", 4), ("conifold", 4), ("c3z3", F(7, 3))):
        data = data_for(name)
        box_lcm = 1
        for b in data.boxes:
            for c in b.coefficients:
                box_lcm = lcm(box_lcm, c.denominator)
        for cls in enumerate_effective(data, bound):
            for k in range(data.n):
                s = sum(cls.pairings[i] * data.column_vector(i)[k]
                        for i in range(data.m_prime))
                assert s == 0
            for c in cls.coords:
                assert box_lcm % c.denominator == 0


def test_sector_zero_iff_integral():
    # the sector vanishes exactly when every pairing is an integer
    data = data_for("c3z3")
    for cls in enumerate_effective(data, 3):
        integral = all(p.denominator == 1 for p in cls.pairings)
        assert cls.sector.is_zero() == integral
