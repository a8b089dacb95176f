from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from orbidisk import fans
from orbidisk.effective import eff_class, enumerate_effective, sector
from orbidisk.errors import ConsistencyError, ValidationError
from orbidisk.fan import (ToricData, fan_from_dict, kernel_data,
                          validate_compactification)
from orbidisk.hyper import (ZFactors, _factor, relative_ifunction_oracle,
                            y_monomial, z_extract)
from orbidisk.mirrormap import g_series, toric_mirror_map
from orbidisk.series import Series, mono
from test_effective import (brute_force_effective, eff_class_reference,
                            sector_reference)
from test_generalization import (LOCAL_QUADRIC, LOCAL_QUADRIC_BAR,
                                 WEIGHTED_BASIS, WEIGHTED_SURFACE,
                                 WEIGHTED_SURFACE_BAR)

F = Fraction


# ---------------------------------------------------------------------------
# Fraction reference of the forward layer: production multiplies int
# numerators over one denominator per class; these iterate the progressions
# in Fractions and add one single-term Series per class (test oracle)


def hyper_factor_reference(p) -> tuple:
    """(z-exponent, scalar, forced divisor) of the column factor at p."""
    p = F(p)
    scalar, count = F(1), 0
    a = p
    while a > 0:
        scalar /= a
        count -= 1
        a -= 1
    a = p + 1
    while a < 0:
        scalar *= a
        count += 1
        a += 1
    return F(count), scalar, int(p < 0 and p.denominator == 1)


def column_factor(p) -> tuple:
    """_factor at p's numerator and denominator, as hyper_factor_reference."""
    p = F(p)
    num, den, count, forced = _factor(p.numerator, p.denominator)
    return F(count), F(num, den), forced


def z_extract_reference(data, cls) -> ZFactors:
    inf_col = data.infinity_column
    z_exp, scalar, forced, inf_pair = F(0), F(1), [], None
    for i, p in enumerate(cls.pairings):
        if i == inf_col:
            inf_pair = p
            assert p >= 0 and p.denominator == 1
            if p > 0:
                z_exp -= 1
                scalar /= p
            continue
        f_z, f_scalar, f_forced = hyper_factor_reference(p)
        z_exp += f_z
        scalar *= f_scalar
        if f_forced:
            forced.append(i)
    toric_sum = sum((p for i, p in enumerate(cls.pairings) if i != inf_col),
                    F(0))
    expected = -toric_sum - cls.sector.age - len(forced)
    assert z_exp == expected - (inf_pair is not None and inf_pair > 0)
    return ZFactors(z_exp, scalar, tuple(forced))


def closed_form_reference(pairings, j, skip=()):
    k = int(-pairings[j])
    den = F(1)
    for i, q in enumerate(pairings):
        if i != j and i not in skip:
            assert q.denominator == 1 and q >= 0
            den *= factorial(int(q))
    return F((-1) ** (k - 1) * factorial(k - 1)) / den


def slice_kind(zf, cls):
    """Where one class's extraction lands: ("divisor", column) or ("sector",
    box vector) for a z^-1 term with at most one forced column, ("h0z2",)
    for a z^-2 term of the untwisted sector with none, else None."""
    nf = len(zf.forced_columns)
    if zf.z_exponent == -1 and nf <= 1:
        return ("divisor", zf.forced_columns[0]) if nf else \
            ("sector", cls.sector.vector)
    if zf.z_exponent == -2 and nf == 0 and cls.sector.is_zero():
        return ("h0z2",)
    return None


def g_series_reference(data, classes, order) -> dict:
    """{column: Series} of the z^-1 extractions: each class's single-term
    Series added to its ray, or to the extra column whose vector is its
    sector's box vector."""
    weights = data.y_weights()
    g = dict.fromkeys(range(data.m_prime), Series.zero(weights, order))
    skip = () if data.infinity_column is None else (data.infinity_column,)
    for cls in classes:
        zf = z_extract_reference(data, cls)
        kind = slice_kind(zf, cls)
        if kind is None or kind[0] == "h0z2":
            continue
        if kind[0] == "divisor":
            j = kind[1]
            assert zf.scalar == closed_form_reference(cls.pairings, j, skip)
        else:
            (j,) = [j for j in data.extra_columns()
                    if tuple(data.column_vector(j)) == kind[1]]
        g[j] = g[j] + Series.monomial(y_monomial(data, cls.coords), weights,
                                      order) * zf.scalar
    return g


def z2_degree0(data, classes) -> dict:
    """{monomial: coefficient} of the z^-2 degree-0 part of the classes'
    extractions: on a compactification, of relative_ifunction_oracle's
    classes, y^D_inf with coefficient 1."""
    out = {}
    for cls in classes:
        zf = z_extract(data, cls)
        if slice_kind(zf, cls) == ("h0z2",):
            out[y_monomial(data, cls.coords)] = zf.scalar
    return out


YINF = {mono(("yinf", 1)): F(1)}


def _forward_case(name):
    """(data, bound): the bundled fans at bound 6 (c3z3_bar, which enumerates
    only through its compactification, is covered below), the three bar fans
    at the bound their oracle enumerates for order 10 (4 on c3), the local
    quadric at 7, and the weighted surface, whose pairings are halves."""
    if name in fans.NAMES:
        return kernel_data(fans.load(name)), 6
    if name == "local_quadric":
        return kernel_data(fan_from_dict(LOCAL_QUADRIC)), 7
    if name == "weighted_surface":
        return kernel_data(fan_from_dict(WEIGHTED_SURFACE),
                           basis_p=WEIGHTED_BASIS), 4
    base, disk, order = {"c3_oracle": ("c3", ("ray", 2), 4),
                         "kp2_oracle": ("kp2", ("ray", 0), 10),
                         "c3z3_oracle": ("c3z3", ("box", 3), 10)}[name]
    cd = validate_compactification(fans.load(base), fans.load(base + "_bar"),
                                   disk)
    bar = cd.bar
    return bar, order + bar.grade(cd.beta_bar_coords)


@pytest.mark.parametrize("name", [
    "c3", "conifold", "kp2", "c3z3", "c3_bar", "kp2_bar", "c3_oracle",
    "kp2_oracle", "c3z3_oracle", "local_quadric", "weighted_surface"])
def test_forward_layer_matches_fraction_reference(name):
    data, bound = _forward_case(name)
    classes = enumerate_effective(data, bound)
    assert classes == [eff_class_reference(data, c.coords) for c in classes]
    for cls in classes:
        assert eff_class(data, cls.coords) == cls
        assert sector(data, cls.pairings) == sector_reference(data,
                                                              cls.pairings)
        assert z_extract(data, cls) == z_extract_reference(data, cls)
        for p in cls.pairings:
            assert column_factor(p) == hyper_factor_reference(p)
    assert g_series(data, classes, bound) == \
        g_series_reference(data, classes, bound)


def test_c3z3_bar_plain_fan_refuses():
    # without its compactification the bar fan's default basis is not nef
    with pytest.raises(ValidationError, match="negative coordinate"):
        enumerate_effective(kernel_data(fans.load("c3z3_bar")), 6)


# ---------------------------------------------------------------------------
# factor expansion


def test_factor_zero():
    assert column_factor(0) == (0, 1, 0)


def test_factor_positive_integer():
    assert column_factor(3) == (-3, F(1, 6), 0)


def test_factor_negative_three():
    # iterate a in {-2, -1}; a = 0 leaves the bare divisor
    assert column_factor(-3) == (2, 2, 1)


def test_factor_negative_four_thirds():
    # single a = -1/3 in (-4/3, 0)
    assert column_factor(F(-4, 3)) == (1, F(-1, 3), 0)


def test_factor_positive_fractional():
    # a in {1/2, 3/2}: scalar 1/(1/2 * 3/2) = 4/3, weight -2
    assert column_factor(F(3, 2)) == (-2, F(4, 3), 0)


def test_factor_fractional_in_unit_interval():
    # no a in (-1/3, 0): empty product
    assert column_factor(F(-1, 3)) == (0, 1, 0)


@settings(max_examples=80, derandomize=True)
@given(st.integers(min_value=1, max_value=8))
def test_factor_matches_closed_forms(k):
    from math import factorial
    assert column_factor(k) == (-k, F(1, factorial(k)), 0)
    down = F((-1) ** (k - 1) * factorial(k - 1))
    assert column_factor(-k) == (k - 1, down, 1)


# ---------------------------------------------------------------------------
# per-class extraction


def test_z_extract_kp2_line():
    data = kernel_data(fans.load("kp2"))
    cls = eff_class(data, [1])
    zf = z_extract(data, cls)
    assert zf.z_exponent == -1
    assert zf.forced_columns == (0,)
    assert zf.scalar == 2
    assert slice_kind(zf, cls) == ("divisor", 0)


def test_z_extract_c3z3_twisted():
    data = kernel_data(fans.load("c3z3"))
    cls = eff_class(data, [F(1, 3)])
    zf = z_extract(data, cls)
    assert zf.z_exponent == -1 and zf.forced_columns == ()
    assert zf.scalar == 1
    assert slice_kind(zf, cls) == ("sector", (0, 0, 1))


def test_z_extract_discards_two_divisors():
    data = kernel_data(fans.load("conifold"))
    cls = eff_class(data, [1])
    zf = z_extract(data, cls)
    assert len(zf.forced_columns) == 2
    assert slice_kind(zf, cls) is None


def test_z_extract_compactified_unit():
    cd = validate_compactification(fans.load("kp2"), fans.load("kp2_bar"),
                                   ("ray", 0))
    bar = cd.bar
    # D_inf, the bar basis's last vector
    cls = eff_class(bar, [0] * (bar.r - 1) + [1])
    zf = z_extract(bar, cls)
    assert zf.z_exponent == -2
    assert zf.scalar == 1
    assert slice_kind(zf, cls) == ("h0z2",)


@settings(max_examples=20, derandomize=True)
@given(st.integers(min_value=1, max_value=12))
def test_z_weight_lemma_kp2(k):
    # z-weight + surviving divisor count = -(sum of pairings) - age
    data = kernel_data(fans.load("kp2"))
    cls = eff_class(data, [k])
    zf = z_extract(data, cls)
    assert zf.z_exponent + len(zf.forced_columns) == \
        -sum(cls.pairings) - cls.sector.age


def test_z_weight_lemma_c3z3():
    data = kernel_data(fans.load("c3z3"))
    for k in range(1, 10):
        cls = eff_class(data, [F(k, 3)])
        zf = z_extract(data, cls)
        assert zf.z_exponent + len(zf.forced_columns) == \
            -sum(cls.pairings) - cls.sector.age


# ---------------------------------------------------------------------------
# summed slices and the compactified oracle


def test_slice_kp2():
    data = kernel_data(fans.load("kp2"))
    classes = enumerate_effective(data, 3)
    g = g_series(data, classes, 3)
    y = lambda e: mono(("y1", e))
    assert g[0].terms == {y(1): F(2), y(2): F(-15), y(3): F(560, 3)}
    assert all(g[j].is_zero() for j in (1, 2, 3))
    assert z2_degree0(data, classes) == {}


def test_slice_c3z3():
    data = kernel_data(fans.load("c3z3"))
    g = g_series(data, enumerate_effective(data, F(4, 3)), F(4, 3))
    assert g[3].terms == {mono(("y1", F(1, 3))): F(1),
                          mono(("y1", F(4, 3))): F(-1, 648)}
    assert all(g[j].is_zero() for j in (0, 1, 2))


def test_oracle_compactified_c3():
    cd = validate_compactification(fans.load("c3"), fans.load("c3_bar"),
                                   ("ray", 2))
    classes = relative_ifunction_oracle(cd, toric_mirror_map(cd.base, 4))
    assert z2_degree0(cd.bar, classes) == YINF
    assert all(s.is_zero() for s in g_series(cd.bar, classes, 4).values())


def test_oracle_compactified_kp2():
    cd = validate_compactification(fans.load("kp2"), fans.load("kp2_bar"),
                                   ("ray", 0))
    classes = relative_ifunction_oracle(cd, toric_mirror_map(cd.base, 3))
    assert z2_degree0(cd.bar, classes) == YINF
    g = g_series(cd.bar, classes, 3)
    assert g[0].terms == {mono(("y1", 1)): F(2), mono(("y1", 2)): F(-15),
                          mono(("y1", 3)): F(560, 3)}
    # no series attaches to the added ray
    assert g[4].is_zero()


def test_oracle_compactified_c3z3():
    cd = validate_compactification(fans.load("c3z3"), fans.load("c3z3_bar"),
                                   ("box", 3))
    classes = relative_ifunction_oracle(cd, toric_mirror_map(cd.base, 2))
    assert z2_degree0(cd.bar, classes) == YINF
    # the extra column sits past the added ray at column 3
    g = g_series(cd.bar, classes, 2)
    assert g[4].coefficient(mono(("y1", F(1, 3)))) == 1
    assert g[4].coefficient(mono(("y1", F(4, 3)))) == F(-1, 648)
    assert all(g[j].is_zero() for j in range(4))


@pytest.mark.parametrize("base,bar,disk", [
    ("c3", "c3_bar", ("ray", 2)),
    ("kp2", "kp2_bar", ("ray", 0)),
    ("c3z3", "c3z3_bar", ("box", 3)),
])
@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 6])
def test_oracle_single_monomial_every_bound(base, bar, disk, bound):
    cd = validate_compactification(fans.load(base), fans.load(bar), disk)
    classes = relative_ifunction_oracle(cd, toric_mirror_map(cd.base, bound))
    assert z2_degree0(cd.bar, classes) == YINF


@pytest.mark.parametrize("base,bar,disk", [
    ("kp2", "kp2_bar", ("ray", 0)),
    ("c3z3", "c3z3_bar", ("box", 3)),
])
def test_oracle_refuses_base_classes_off_the_zero_infinity_slice(base, bar,
                                                                 disk):
    # the compactified classes that miss the added divisor must be exactly
    # the classes the base map was summed over
    from orbidisk.errors import ConsistencyError
    from orbidisk.mirrormap import MirrorMap
    cd = validate_compactification(fans.load(base), fans.load(bar), disk)
    mm = toric_mirror_map(cd.base, 3)
    short = MirrorMap(mm.data, mm.order, mm.g, mm.relations, mm.classes[:-1])
    with pytest.raises(ConsistencyError, match="zero-infinity slice"):
        relative_ifunction_oracle(cd, short)


def test_oracle_z1_rebuilds_relations():
    # the flat-relation corrections re-assemble from the Fraction reference
    # of the z^-1 column series
    from orbidisk.mirrormap import relative_mirror_map
    from orbidisk.series import Series

    cd = validate_compactification(fans.load("kp2"), fans.load("kp2_bar"),
                                   ("ray", 0))
    base = toric_mirror_map(cd.base, 3)
    g = g_series_reference(cd.bar, relative_ifunction_oracle(cd, base), 3)
    mm = relative_mirror_map(cd, base)
    zero = Series.zero(cd.bar.y_weights(), 3)
    for rel in mm.relations:
        if rel.kind != "flat":
            continue
        # the class of q_a is the a-th unit vector, that of qinf is beta_bar
        pair = cd.beta_bar if rel.target == "qinf" else \
            cd.bar.pairings_from_coords([int(b == int(rel.target[1:]) - 1)
                                         for b in range(cd.bar.r)])
        want = zero
        for j in range(cd.bar.m):
            if pair[j]:
                want = want + g[j] * pair[j]
        assert rel.correction.same_terms(want)
    # twisted pieces are the extra column's series themselves
    cd = validate_compactification(fans.load("c3z3"), fans.load("c3z3_bar"),
                                   ("box", 3))
    base = toric_mirror_map(cd.base, 2)
    t3 = next(r for r in relative_mirror_map(cd, base).relations
              if r.kind == "twisted")
    g = g_series_reference(cd.bar, relative_ifunction_oracle(cd, base), 2)
    assert t3.series.same_terms(g[4])


# ---------------------------------------------------------------------------
# the D-infinity cap of the compactified enumeration


def uncapped_reference(data, bound) -> list:
    """Every nonzero nonnegative combination of each cone's generators with
    grade <= bound, D-infinity uncapped: the scan before the cap, in
    Fractions (test oracle for kernel ranks the grid of
    brute_force_effective cannot reach)."""
    found = set()

    def scan(gens, i, room, coords):
        if i == len(gens):
            found.add(coords)
            return
        while room >= 0:
            scan(gens, i + 1, room, coords)
            coords = tuple(a + b for a, b in zip(coords, gens[i]))
            room -= sum(gens[i])

    zero = (F(0),) * data.r
    for _, _, gens in data.anticones:
        scan(gens, 0, F(bound), zero)
    found.discard(zero)
    return sorted((eff_class_reference(data, c) for c in found),
                  key=lambda c: (c.grade, c.coords))


# every oracle pair of the tests, at the order its compare_potentials runs
ORACLE_PAIRS = {
    "c3": (fans.load("c3"), fans.load("c3_bar"), ("ray", 2), None, 4),
    "kp2": (fans.load("kp2"), fans.load("kp2_bar"), ("ray", 0), None, 4),
    "c3z3": (fans.load("c3z3"), fans.load("c3z3_bar"), ("box", 3), None,
             F(7, 3)),
    "local_quadric": (fan_from_dict(LOCAL_QUADRIC),
                      fan_from_dict(LOCAL_QUADRIC_BAR), ("ray", 0), None, 3),
    "weighted_surface": (fan_from_dict(WEIGHTED_SURFACE),
                         fan_from_dict(WEIGHTED_SURFACE_BAR), ("ray", 0),
                         WEIGHTED_BASIS, 2),
}


@pytest.mark.parametrize("name", sorted(ORACLE_PAIRS))
def test_cap_drops_only_classes_past_the_slice(name):
    base, bar_fan, disk, basis_p, order = ORACLE_PAIRS[name]
    cd = validate_compactification(base, bar_fan, disk, basis_p)
    bar, inf = cd.bar, cd.bar.infinity_column
    # the bound relative_ifunction_oracle enumerates at: order + w_inf
    bound = order + bar.grade(cd.beta_bar_coords)
    ref = brute_force_effective(bar, bound) if bar.r <= 2 else \
        uncapped_reference(bar, bound)
    # the premise: z-exponent -p_inf - age - #forced - [p_inf > 0], so a
    # class meeting D-infinity twice never reaches z^-1 or z^-2
    for cls in ref:
        zf = z_extract(bar, cls)
        p = cls.pairings[inf]
        assert zf.z_exponent == \
            -p - cls.sector.age - len(zf.forced_columns) - (p > 0)
    capped = enumerate_effective(bar, bound)
    assert len(capped) < len(ref)
    assert capped == [c for c in ref if c.pairings[inf] <= 1]
    assert g_series(bar, capped, bound) == g_series(bar, ref, bound)
    assert z2_degree0(bar, capped) == z2_degree0(bar, ref)


@pytest.mark.parametrize("pair, grade, pairing", [
    (("kp2", "kp2_bar", ("ray", 0)), 1, -3),
    (("c3z3", "c3z3_bar", ("box", 3)), F(2, 3), F(1, 3)),
], ids=["negative", "fractional"])
def test_cap_refuses_a_generator_off_the_nonnegative_integers(pair, grade,
                                                              pairing):
    # mark ray 0 as the added one: a generator inside the bound whose pairing
    # with it is not in Z>=0 would make the cap inexact, and z_extract's
    # bookkeeping does not hold for its class; below every generator's grade
    # nothing steps
    bar = validate_compactification(*map(fans.load, pair[:2]), pair[2]).bar
    marked = ToricData(**{**{f: getattr(bar, f) for f in bar._fields},
                          "infinity_column": 0})
    with pytest.raises(ConsistencyError,
                       match="pairs badly with the added divisor") as exc:
        enumerate_effective(marked, grade)
    assert exc.value.datum == pairing
    assert enumerate_effective(marked, F(1, 6)) == []
