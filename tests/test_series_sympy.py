"""SymPy as an independent oracle for the series kernels.

Each Series is mapped to a SymPy expression by sending every variable v of
weight w to v * t^(w * den), den the common denominator of the weights, so
that grade g becomes the power t^(g * den).  exp, log(1 + s) and s^alpha are
then expanded by SymPy's series() in t and compared term by term up to the
Series' order; substitution is compared against plain polynomial expansion.
SymPy is used only here, never by the package.
"""
from fractions import Fraction
from math import floor, lcm

import pytest
from hypothesis import given, settings, strategies as st

sp = pytest.importorskip("sympy")

from orbidisk.series import Series, mono, mono_grade  # noqa: E402

F = Fraction
T = sp.Symbol("t", positive=True)
SYMS = {v: sp.Symbol(v, positive=True) for v in ("x", "y", "q", "p")}

GRADINGS = [
    {"x": F(1)},
    {"x": F(1, 2)},
    {"x": F(1), "y": F(1)},
    {"x": F(1), "y": F(2)},
    {"x": F(1, 2), "y": F(1, 3)},
]


def rat(c):
    return sp.Rational(c.numerator, c.denominator)


def denominator(weights):
    return lcm(*(w.denominator for w in weights.values()))


def to_sympy(s, den):
    """sum c * prod v^e * t^(grade * den) over the terms of s."""
    out = sp.Integer(0)
    for m, c in s.terms.items():
        term = rat(c) * T ** rat(mono_grade(m, s.weights) * den)
        for v, e in m:
            term *= SYMS[v] ** rat(e)
        out += term
    return out


def up_to(expr, top):
    """Terms of expr whose power of t is at most top."""
    return sp.Add(*(a for a in sp.Add.make_args(sp.expand(expr))
                    if a.as_coeff_exponent(T)[1] <= top))


def assert_matches(ours, oracle, den):
    top = rat(ours.order * den)
    assert sp.expand(to_sympy(ours, den) - up_to(oracle, top)) == 0


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(
    lambda c: c != 0)


@st.composite
def positive_series(draw, max_terms=3):
    """A series with zero constant term over one of GRADINGS."""
    weights = draw(st.sampled_from(GRADINGS))
    order = draw(st.sampled_from([F(2), F(3), F(5, 2)]))
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=max_terms))):
        m = mono(*((v, draw(st.integers(min_value=0, max_value=3)))
                   for v in weights))
        if m:
            terms[m] = draw(coeffs)
    return Series(weights, order, terms)


def series_in_t(expr, s):
    """SymPy series() of expr in t through the order of s."""
    den = denominator(s.weights)
    return sp.series(expr, T, 0, floor(s.order * den) + 1).removeO()


@settings(max_examples=6, derandomize=True, deadline=None)
@given(positive_series())
def test_exp_matches_sympy(s):
    den = denominator(s.weights)
    assert_matches(s.exp(), series_in_t(sp.exp(to_sympy(s, den)), s), den)


@settings(max_examples=6, derandomize=True, deadline=None)
@given(positive_series())
def test_log_one_plus_matches_sympy(s):
    den = denominator(s.weights)
    oracle = series_in_t(sp.log(1 + to_sympy(s, den)), s)
    assert_matches(s.log_one_plus(), oracle, den)


@settings(max_examples=6, derandomize=True, deadline=None)
@given(positive_series(max_terms=2), st.sampled_from([(), ("x",), ("x", "y")]),
       st.sampled_from([F(-1), F(1, 2), F(-1, 3), F(2, 3)]))
def test_pow_frac_matches_sympy(u, lead, alpha):
    # s = m * (1 + u) for a monomial m; the oracle is m^alpha * (1 + u)^alpha.
    # A negative power of a non-constant monomial has negative grade.
    m = mono(*((v, 1) for v in lead if v in u.weights and alpha > 0))
    s = (1 + u).mul_monomial(m)
    den = denominator(u.weights)
    lead_t = to_sympy(Series.monomial(m, u.weights, s.order), den)
    oracle = lead_t ** rat(alpha) * series_in_t(
        (1 + to_sympy(u, den)) ** rat(alpha), u)
    assert_matches(s.pow_frac(alpha), oracle, den)


@st.composite
def substitution(draw):
    """x, y (weights 1, 1/2) as sparse, repeated powers, sent to series in
    q, p (weights 1/2, 1/3) of grade at least the weight they replace."""
    sw = {"x": F(1), "y": F(1, 2)}
    tw = {"q": F(1, 2), "p": F(1, 3)}
    exps = draw(st.lists(st.sampled_from(
        [(3, 0), (10, 0), (2, 5), (0, 1), (1, 0), (3, 1), (0, 7)]),
        min_size=1, max_size=4, unique=True))
    order = draw(st.sampled_from([F(3), F(11, 2), F(10)]))
    s = Series(sw, 20, {mono(("x", a), ("y", b)): draw(coeffs)
                        for a, b in exps})
    qp = [mono(("q", 2)), mono(("q", 1), ("p", 3)), mono(("p", 6)),
          mono(("q", 3)), mono(("q", 2), ("p", 2))]
    img_x = Series(tw, order, {k: draw(coeffs) for k in
                               draw(st.lists(st.sampled_from(qp), min_size=1,
                                             max_size=3, unique=True))})
    img_y = Series(tw, order, {mono(("q", 1)): 1, mono(("p", 3)): draw(coeffs),
                               mono(("q", 1), ("p", 1)): draw(coeffs)})
    return s, {"x": img_x, "y": img_y}


@settings(max_examples=6, derandomize=True, deadline=None)
@given(substitution())
def test_substitute_matches_sympy(case):
    s, images = case
    ours = s.substitute(images)
    den = 6
    expr = to_sympy(s, 1).subs(T, 1).subs(
        {SYMS[v]: to_sympy(img, den) for v, img in images.items()},
        simultaneous=True)
    assert ours.order == min(img.order for img in images.values())
    assert_matches(ours, expr, den)


@settings(max_examples=6, derandomize=True, deadline=None)
@given(coeffs, coeffs)
def test_mixed_exponent_denominators_match_sympy(c1, c2):
    # operands in thirds and in halves are rescaled to sixths; the results
    # must still be the plain products and the fractional power
    w = {"x": F(1), "y": F(1, 2)}
    den = denominator(w)
    thirds = Series(w, 3, {mono(("x", F(1, 3))): c1,
                           mono(("x", F(2, 3)), ("y", 1)): c2})
    halves = Series(w, 3, {mono(("x", F(1, 2))): 1, mono(("y", F(3, 2))): c2})
    assert_matches(thirds * halves, to_sympy(thirds, den) * to_sympy(halves, den),
                   den)
    x_half = SYMS["x"] ** sp.Rational(1, 2) * T ** rat(F(1, 2) * den)
    assert_matches(thirds.mul_monomial(mono(("x", F(1, 2)))),
                   to_sympy(thirds, den) * x_half, den)
    # x -> q + c2 q^2 at x^(2/3): q^(2/3) (1 + c2 q)^(2/3)
    s = Series({"x": F(1)}, 3, {mono(("x", F(2, 3))): c1, mono(("x", 1)): 1})
    img = Series({"q": F(1)}, F(7, 3), {mono(("q", 1)): 1, mono(("q", 2)): c2})
    ours = s.substitute({"x": img})
    qt = SYMS["q"] * T
    oracle = (rat(c1) * qt ** sp.Rational(2, 3)
              * series_in_t((1 + rat(c2) * qt) ** sp.Rational(2, 3), img)
              + to_sympy(img, 1))
    assert_matches(ours, oracle, 1)
