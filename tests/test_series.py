from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbidisk.errors import ConsistencyError, ValidationError
from orbidisk.series import (Series, invert_map, mono, mono_grade, mono_mul,
                             mono_pow, var_key)

F = Fraction
W1 = {"y": F(1)}


def S(order, terms, weights=W1):
    return Series(weights, order, terms)


def y(e=1):
    return mono(("y", e))


def q(e=1):
    return mono(("q", e))


# ---------------------------------------------------------------------------
# monomials


def test_mono_canonical():
    m = mono(("b", 2), ("a", 1), ("c", 0))
    assert m == (("a", F(1)), ("b", F(2)))
    assert mono_mul(m, mono(("a", -1))) == (("b", F(2)),)
    assert mono_pow(m, F(1, 2)) == (("a", F(1, 2)), ("b", F(1)))


def test_var_key_order():
    vs = ["y2", "y1", "yinf", "q1", "t3", "qinf"]
    assert sorted(vs, key=var_key) == ["q1", "qinf", "t3", "y1", "y2", "yinf"]


# ---------------------------------------------------------------------------
# ring operations: worked examples


def test_mul_difference_of_squares():
    one_plus = S(2, {(): 1, y(): 2})
    one_minus = S(2, {(): 1, y(): -2})
    prod = one_plus * one_minus
    assert prod.terms == {(): F(1), y(2): F(-4)}


def test_mul_truncation_contract():
    s = S(1, {(): 1, y(): 1})
    assert (s * s).terms == {(): F(1), y(): F(2)}  # y^2 truncated


def test_rational_exponents_add():
    a = S(2, {y(F(1, 3)): 1})
    b = S(2, {y(F(2, 3)): 1})
    assert (a * b).terms == {y(1): F(1)}


def test_grading_mismatch_rejected():
    a = S(2, {y(): 1})
    b = Series({"y": F(2)}, 2, {y(): 1})
    with pytest.raises(ValidationError):
        a + b
    with pytest.raises(ValidationError):
        a * b


def test_same_terms_refuses_a_reweighted_variable():
    a = Series({"x": F(1)}, 2, {mono(("x", 1)): 1})
    b = Series({"x": F(2)}, 2, {mono(("x", 1)): 1})
    with pytest.raises(ConsistencyError, match="variable x"):
        a.same_terms(b)
    # gradings over different variables compare their terms
    c = Series({"x": F(1), "z": F(1)}, 2, {mono(("x", 1)): 1})
    assert a.same_terms(c) and c.same_terms(a)


# ---------------------------------------------------------------------------
# exp / log


def test_exp_zero():
    assert S(3, {}).exp().terms == {(): F(1)}


def test_exp_example():
    # exp(-2q + 3q^2) at order 2 = 1 - 2q + 5q^2  (hand: 1 + s + s^2/2)
    s = Series({"q": F(1)}, 2, {q(): -2, q(2): 3})
    assert s.exp().terms == {(): F(1), q(): F(-2), q(2): F(5)}


def test_exp_quartic():
    s = S(4, {y(): 1})
    e = s.exp()
    assert e.terms == {(): F(1), y(): F(1), y(2): F(1, 2), y(3): F(1, 6),
                       y(4): F(1, 24)}


def test_exp_rejects_constant():
    with pytest.raises(ValidationError):
        S(2, {(): 1}).exp()


def test_exp_log_reject_grade_zero_monomial():
    # x/y has grade 0 under equal weights: exp and log are not defined as
    # truncated series, and the grade-operator recurrences would divide by 0
    s = Series({"x": F(1), "y": F(1)}, 3, {mono(("x", 1), ("y", -1)): 1})
    for op in (s.exp, s.log_one_plus):
        with pytest.raises(ValidationError, match=r"x\*y\^\(-1\) has grade 0"):
            op()


def test_log_zero():
    assert S(3, {}).log_one_plus().terms == {}


def test_log_example():
    # log(1 - 2q) at order 3 = -2q - 2q^2 - 8/3 q^3
    s = Series({"q": F(1)}, 3, {q(): -2})
    assert s.log_one_plus().terms == {q(): F(-2), q(2): F(-2), q(3): F(-8, 3)}


def test_exp_log_round_trip_specific():
    s = S(6, {y(): 3, y(2): F(-1, 2), y(5): 7})
    assert (s.exp() - 1).log_one_plus().same_terms(s)
    assert (s.log_one_plus().exp() - 1).same_terms(s)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_rename():
    s = S(3, {y(): 2, y(2): -15})
    target = Series({"q": F(1)}, 3, {q(): 1})
    out = s.substitute({"y": target})
    assert out.terms == {q(): F(2), q(2): F(-15)}


def test_substitute_shift():
    s = S(2, {y(): 2})
    img = Series({"q": F(1)}, 2, {q(): 1, q(2): 6})
    assert s.substitute({"y": img}).terms == {q(): F(2), q(2): F(12)}


def test_substitute_mirror_example():
    # g = 2y - 15y^2 + 560/3 y^3 at y = q + 6q^2 + 9q^3
    # gives 2q - 3q^2 + 74/3 q^3
    g = S(3, {y(): 2, y(2): -15, y(3): F(560, 3)})
    img = Series({"q": F(1)}, 3, {q(): 1, q(2): 6, q(3): 9})
    out = g.substitute(img and {"y": img})
    assert out.terms == {q(): F(2), q(2): F(-3), q(3): F(74, 3)}


def test_substitute_unsound_image_rejected():
    s = S(2, {y(): 1})
    img = Series({"q": F(1, 2)}, 2, {mono(("q", F(1, 2))): 1})
    # image grade 1/4 < weight(y) = 1
    with pytest.raises(ValidationError):
        s.substitute({"y": img})


def test_pow_frac():
    # (y^3 + y^6/216)^(1/3) = y (1 + y^3/216)^(1/3) = y + y^4/648 + ...
    s = S(7, {y(3): 1, y(6): F(1, 216)})
    u = s.pow_frac(F(1, 3))
    assert u.terms[y(1)] == 1
    assert u.terms[y(4)] == F(1, 648)


# ---------------------------------------------------------------------------
# inversion


def test_invert_identity():
    rel = S(4, {y(): 1})
    out = invert_map([("q", rel)], 4)
    assert out["y"].terms == {q(): F(1)}


def test_invert_mirror_map():
    # forward: q = y exp(-6y + 45y^2 - 560y^3 + 17325/2 y^4)
    # (exact coefficient arithmetic of the local projective plane)
    # hand fixed-point: y = q + 6q^2 + 9q^3 + 56q^4
    corr = S(4, {y(): -6, y(2): 45, y(3): -560, y(4): F(17325, 2)})
    rel = Series.variable("y", W1, 4) * corr.exp()
    out = invert_map([("q", rel)], 4)
    assert out["y"].terms == {q(): F(1), q(2): F(6), q(3): F(9), q(4): F(56)}


def test_invert_one_step():
    # tau = y - y^4/648  ->  y = tau + tau^4/648
    rel = S(4, {y(): 1, y(4): F(-1, 648)})
    out = invert_map([("t", rel)], 4)
    assert out["y"].terms == {mono(("t", 1)): F(1), mono(("t", 4)): F(1, 648)}


def test_invert_monomial_leading():
    # t = y^(1/3) (1 - y/648): fractional leading exponents invert exactly
    rel = Series(W1, F(4, 3), {y(F(1, 3)): 1, y(F(4, 3)): F(-1, 648)})
    out = invert_map([("t", rel)], 4)
    yq = out["y"]
    # y = t^3 (1 - y/648)^-3 = t^3 + t^6/216 + ...
    assert yq.terms[mono(("t", 3))] == 1
    assert yq.terms[mono(("t", 6))] == F(1, 216)


def test_invert_round_trip_verified():
    corr = S(3, {y(): 6, y(2): -27, y(3): 326})
    rel = Series.variable("y", W1, 3) * corr.exp()
    out = invert_map([("q", rel)], 3)
    # composite check is internal; re-check externally
    back = rel.substitute(out)
    assert back.same_terms(Series.variable("q", {"q": F(1)}, 3))


def test_invert_rejects_singular():
    relas = [("u", S(3, {y(): 1})), ("v", S(3, {y(): 1, y(2): 1}))]
    two = {"y": F(1), "z": F(1)}
    relas = [("u", Series(two, 3, {mono(("y", 1)): 1})),
             ("v", Series(two, 3, {mono(("y", 1)): 1}))]
    with pytest.raises(Exception):
        invert_map(relas, 3)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    s = Series({"q": F(1), "t": F(1, 3)}, F(7, 3),
               {mono(("q", 1), ("t", F(1, 3))): F(-3, 7), (): F(2)})
    d = s.to_json()
    s2 = Series.from_json(d)
    assert s2 == s
    assert s2.to_json() == d


# ---------------------------------------------------------------------------
# property suites (ring axioms, transcendental round trips)

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def random_series(draw, vars_=("a", "b"), max_order=6):
    weights = {v: F(1) for v in vars_}
    n = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n):
        exps = [draw(st.integers(min_value=0, max_value=max_order))
                for _ in vars_]
        if sum(exps) > max_order:
            continue
        c = draw(coeffs)
        m = mono(*zip(vars_, exps))
        if c != 0:
            terms[m] = terms.get(m, F(0)) + c
    return Series(weights, max_order, terms)


@settings(max_examples=40, derandomize=True)
@given(random_series(), random_series(), random_series())
def test_ring_axioms(a, b, c):
    assert ((a + b) + c).same_terms(a + (b + c))
    assert (a + b).same_terms(b + a)
    assert (a * b).same_terms(b * a)
    assert ((a * b) * c).same_terms(a * (b * c))
    assert (a * (b + c)).same_terms(a * b + a * c)


@settings(max_examples=40, derandomize=True)
@given(random_series())
def test_exp_log_round_trip(s):
    s = s - s.constant_term()
    assert (s.exp() - 1).log_one_plus().same_terms(s)


@settings(max_examples=40, derandomize=True)
@given(random_series())
def test_log_exp_round_trip(s):
    s = s - s.constant_term()
    assert (s.log_one_plus().exp() - 1).same_terms(s)


@settings(max_examples=30, derandomize=True)
@given(random_series())
def test_serialization_round_trip_random(s):
    assert Series.from_json(s.to_json()) == s


# ---------------------------------------------------------------------------
# inversion against oracles that share no code with invert_map


def _list_mul(a, b, n):
    """Product of two coefficient lists, truncated to length n."""
    out = [F(0)] * n
    for i, x in enumerate(a[:n]):
        for j, z in enumerate(b[:n - i]):
            out[i + j] += x * z
    return out


def lagrange_inverse(u, order):
    """[q^n] y = (1/n) [y^(n-1)] u(y)^(-n) for q = y u(y), u[0] = 1, as
    {n: coefficient} for n = 1..order (Lagrange inversion)."""
    inv = [F(1)] + [F(0)] * (order - 1)
    for k in range(1, order):
        inv[k] = -sum(u[j] * inv[k - j] for j in range(1, min(k, len(u) - 1) + 1))
    out, power = {}, [F(1)] + [F(0)] * (order - 1)
    for n in range(1, order + 1):
        power = _list_mul(power, inv, order)
        if power[n - 1]:
            out[n] = power[n - 1] / n
    return out


@st.composite
def rank_one_unit(draw, max_order=8):
    order = draw(st.integers(min_value=2, max_value=max_order))
    tail = draw(st.lists(coeffs, min_size=order - 1, max_size=order - 1))
    return order, [F(1)] + tail


@settings(max_examples=10, derandomize=True, deadline=None)
@given(rank_one_unit())
def test_invert_rank_one_against_lagrange(case):
    order, u = case
    rel = S(order, {y(k + 1): c for k, c in enumerate(u)})
    out = invert_map([("q", rel)], order)["y"]
    assert out.order >= order
    got = {m: c for m, c in out.terms.items() if out.grade_of(m) <= order}
    assert got == {q(n): c for n, c in lagrange_inverse(u, order).items()}


def _dict_mul(a, b, n):
    """Product of two {(i, j): coefficient} polynomials, total degree <= n."""
    out = {}
    for (i, j), x in a.items():
        for (k, l), z in b.items():
            if i + j + k + l <= n:
                out[i + k, j + l] = out.get((i + k, j + l), 0) + x * z
    return {e: c for e, c in out.items() if c}


def triangular_fixed_point(u1, u2, order):
    """y1, y2 in q1, q2 for q1 = y1 u1(y1, y2), q2 = y2 u2(y1, y2), as
    {(i, j): coefficient} to total degree order, by the plain fixed point
    y_k = q_k / u_k(y1, y2) run order times from y_k = q_k."""
    def compose(u, y1, y2):
        out = {}
        for (a, b), c in u.items():
            term = {(0, 0): c}
            for _ in range(a):
                term = _dict_mul(term, y1, order)
            for _ in range(b):
                term = _dict_mul(term, y2, order)
            for e, x in term.items():
                out[e] = out.get(e, 0) + x
        return out

    def unit_inverse(v):
        # 1 / v = sum_k (1 - v)^k for v with constant term 1
        x = {e: -c for e, c in v.items() if e != (0, 0)}
        out, power = {(0, 0): F(1)}, {(0, 0): F(1)}
        for _ in range(order):
            power = _dict_mul(power, x, order)
            for e, c in power.items():
                out[e] = out.get(e, 0) + c
        return out

    y1, y2 = {(1, 0): F(1)}, {(0, 1): F(1)}
    for _ in range(order):
        y1, y2 = (_dict_mul({(1, 0): F(1)}, unit_inverse(compose(u1, y1, y2)), order),
                  _dict_mul({(0, 1): F(1)}, unit_inverse(compose(u2, y1, y2)), order))
    return y1, y2


@st.composite
def triangular_units(draw, max_order=5):
    order = draw(st.integers(min_value=2, max_value=max_order))
    exps = [(a, d - a) for d in range(1, order) for a in range(d + 1)]
    units = []
    for _ in range(2):
        u = {(0, 0): F(1)}
        for e in exps:
            c = draw(st.one_of(st.just(F(0)), coeffs))
            if c:
                u[e] = c
        units.append(u)
    return order, units


@settings(max_examples=10, derandomize=True, deadline=None)
@given(triangular_units())
def test_invert_rank_two_against_fixed_point(case):
    order, (u1, u2) = case
    w2 = {"y1": F(1), "y2": F(1)}
    rels = [(t, Series(w2, order, {mono(("y1", a + da), ("y2", b + db)): c
                                   for (a, b), c in u.items()}))
            for t, u, (da, db) in (("q1", u1, (1, 0)), ("q2", u2, (0, 1)))]
    out = invert_map(rels, order)
    for v, want in zip(("y1", "y2"), triangular_fixed_point(u1, u2, order)):
        s = out[v]
        assert s.order >= order
        got = {(int(dict(m).get("q1", 0)), int(dict(m).get("q2", 0))): c
               for m, c in s.terms.items() if s.grade_of(m) <= order}
        assert got == want


GRADINGS = [{"a": F(1), "b": F(1)}, {"a": F(1), "b": F(1, 2)},
            {"a": F(2, 3), "b": F(1, 2)}]


@st.composite
def graded_series(draw, weights):
    """Up to five terms a^i b^j (i, j <= 3) at order 3 or 7/2."""
    order = draw(st.sampled_from([F(3), F(7, 2)]))
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        i, j = (draw(st.integers(min_value=0, max_value=3)) for _ in "ab")
        terms[mono(("a", i), ("b", j))] = draw(coeffs)
    return Series(weights, order, terms)


def assert_stored_by_grade(s):
    for g, piece in s.pieces.items():
        assert 0 <= g <= s.order
        assert piece
        for m, c in piece.items():
            assert mono_grade(m, s.weights) == g
            assert c != 0


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.data())
def test_operations_store_terms_by_grade(data):
    # every operation's result keeps each term under its own grade, within
    # [0, order], with no zero coefficient and no empty piece; and its store
    # is canonical, the one the constructor builds from its terms
    w = data.draw(st.sampled_from(GRADINGS))
    a, b = data.draw(graded_series(w)), data.draw(graded_series(w))
    u = a - a.constant_term()
    unit = 1 + u
    ab = mono(("a", 1), ("b", 2))
    # a^(1/2) and a^2/b need the images' leading monomials factored out
    source = Series(w, 3, {mono(("a", 1), ("b", 1)): 2, mono(("a", F(1, 2))): 1,
                           mono(("a", 2), ("b", -1)): F(-1, 3)})
    images = {v: unit.mul_monomial(mono((v, 1))) for v in w}
    # operands whose exponent denominators differ (thirds, halves), and
    # results whose exponents or coefficients then share a factor
    thirds = Series(w, 3, {mono(("a", F(1, 3))): 1,
                           mono(("a", F(2, 3)), ("b", 1)): F(1, 2)})
    root = Series(w, 3, {mono(("a", F(1, 2))): 2, mono(("b", F(1, 2))): -1})
    mixed = Series(w, 3, {mono(("a", F(2, 3))): 1, mono(("a", F(1, 2)), ("b", 1)): -2})
    results = [a + b, a - a, a * b, a * F(-2, 3), a.mul_monomial(ab, F(5, 2)),
               a.truncate(F(3, 2)), u.exp(), u.log_one_plus(),
               unit.pow_frac(F(-1, 3)), images["a"].pow_frac(F(1, 2)),
               images["b"].factor_unit()[2], a.substitute(images),
               source.substitute(images), thirds * root, root * root,
               thirds.mul_monomial(mono(("a", F(1, 2)))), thirds + root - root,
               (a * F(3, 2)) * F(2, 3), mixed.substitute(images)]
    for s in results:
        assert_stored_by_grade(s)
        assert Series(s.weights, s.order, s.terms) == s


def test_negative_grade_refused():
    # neither outside input nor a result may hold a term of negative grade
    with pytest.raises(ValidationError, match="negative grade"):
        S(3, {y(-1): 1})
    with pytest.raises(ValidationError, match=r"y\^\(-1\) has negative grade"):
        S(3, {y(): 1, y(2): 1}).pow_frac(-1)


def test_substitute_unassigned_variable():
    s = S(2, {y(): 1})
    with pytest.raises(ValidationError):
        s.substitute({})
