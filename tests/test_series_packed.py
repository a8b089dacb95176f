"""The packed monomial store of orbidisk.series: one int per monomial, in
balanced signed fields of series.F bits, and the field bound series.BOUND
that keeps packing one to one (the series module docstring)."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbidisk import series
from orbidisk.errors import ValidationError
from orbidisk.series import BOUND, F, Series, mono

NAMES = ("a", "b", "c", "d", "e")
# every value the store accepts: -BOUND <= x < BOUND
FIELD = st.integers(-BOUND, BOUND - 1)


def vectors(n):
    return st.lists(FIELD, min_size=n, max_size=n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, len(NAMES)).flatmap(lambda n: st.tuples(vectors(n), vectors(n))))
def test_pack_round_trips_and_keeps_tuple_order(pair):
    a, b = pair
    names = NAMES[:len(a)]
    pa, pb = series._pack(names, a, 1), series._pack(names, b, 1)
    assert series._unpack(pa, len(a)) == a
    assert (pa < pb) == (a < b) and (pa == pb) == (a == b)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, len(NAMES)).flatmap(lambda n: st.tuples(vectors(n), vectors(n))))
def test_a_sum_of_two_fields_decodes_exactly_and_the_store_check_sees_it(pair):
    # a kernel pair adds two packed monomials; the sum of their ints is the
    # packed sum of the vectors, and _piece refuses it exactly when a field
    # leaves [-BOUND, BOUND)
    a, b = pair
    names, n = NAMES[:len(a)], len(a)
    total = [x + y for x, y in zip(a, b)]
    m = series._pack(names, a, 1) + series._pack(names, b, 1)
    assert series._unpack(m, n) == total
    fits = all(-BOUND <= x < BOUND for x in total)
    if fits:
        assert series._piece(1, {m: 1}, names, 1) == (1, {m: 1})
    else:
        with pytest.raises(ValidationError, match="outside the field range"):
            series._piece(1, {m: 1}, names, 1)


def test_field_width_and_bound():
    assert F == 32 and BOUND == 2 ** 30


def _refused(run):
    with pytest.raises(ValidationError) as info:
        run()
    assert info.value.exit_code == 2 and "outside the field range" in str(info.value)
    return info.value.datum


def test_constructor_refuses_an_exponent_outside_the_field_range():
    w = {"x": 1, "y": 2}
    for edge, order in [(mono(("x", -BOUND), ("y", BOUND // 2)), 2),   # grade 0
                        (mono(("y", BOUND - 1)), 2 * BOUND)]:
        assert Series(w, order, {edge: 1}).terms == {edge: 1}
    datum = _refused(lambda: Series(w, 2, {mono(("x", -BOUND - 1), ("y", BOUND // 2 + 1)): 1}))
    assert datum == ["x", str(-BOUND - 1)]
    assert _refused(lambda: Series(w, 2 * BOUND, {mono(("y", BOUND)): 1})) == ["y", str(BOUND)]
    # the range is on the exponent times e: halves double every field
    datum = _refused(lambda: Series(w, 2, {mono(("x", Fraction(-BOUND - 1, 2)),
                                                ("y", BOUND // 4 + 1)): 1}))
    assert datum == ["x", f"{-BOUND - 1}/2"]


def test_mul_monomial_refuses_a_shift_or_a_result_outside_the_field_range():
    x = Series.variable("x", {"x": 1}, 2)
    assert x.mul_monomial(mono(("x", BOUND - 2))).terms == {mono(("x", BOUND - 1)): 1}
    assert _refused(lambda: x.mul_monomial(mono(("x", BOUND)))) == ["x", str(BOUND)]
    assert _refused(lambda: x.mul_monomial(mono(("x", BOUND - 1)))) == ["x", str(BOUND)]


def test_substitute_refuses_a_lead_outside_the_field_range():
    # x -> y^2 shifts the term x^(BOUND/2) by y^BOUND
    image = {"x": Series.monomial(mono(("y", 2)), {"y": 1}, 2 * BOUND)}
    below = Series({"x": 1}, BOUND, {mono(("x", BOUND // 2 - 1)): 1})
    assert below.substitute(image).terms == {mono(("y", BOUND - 2)): 1}
    at = Series({"x": 1}, BOUND, {mono(("x", BOUND // 2)): 1})
    assert _refused(lambda: at.substitute(image)) == ["y", str(BOUND)]


def test_products_that_outgrow_the_bound_are_refused_not_wrapped():
    # y/x has grade 0, so its powers keep every term: the fields grow with
    # the power and no truncation stops them
    s = Series({"x": 1, "y": 1}, 1, {mono(("x", -1), ("y", 1)): -1})
    k = BOUND - 1
    assert s.pow_int(k).terms == {mono(("x", -k), ("y", k)): -1}
    assert _refused(lambda: s.pow_int(BOUND)) == ["y", str(BOUND)]


def test_rescaling_to_a_larger_e_is_refused_outside_the_field_range():
    w = {"x": 1, "y": 1}
    big = Series(w, 2, {mono(("x", -(BOUND // 2)), ("y", BOUND // 2)): 1})
    half = Series.monomial(mono(("x", Fraction(1, 2))), w, 2)
    assert _refused(lambda: big * half) == ["y", str(BOUND // 2)]
