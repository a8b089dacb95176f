from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from orbidisk.errors import ConsistencyError, ValidationError
from orbidisk.series import (Series, invert_map, mono, mono_grade, mono_mul,
                             mono_pow, mono_str, var_key)

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
    assert mono_pow(m, 0) == ()


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


def test_invert_round_trip_failure_names_target_order_and_monomial(monkeypatch):
    # one coefficient of the final assignment perturbed before the check:
    # the error names the target, the order checked and the first monomial
    # where the relation misses its target
    corr = S(4, {y(): -6, y(2): 45, y(3): -560, y(4): F(17325, 2)})
    rel = Series.variable("y", W1, 4) * corr.exp()
    substitute = Series.substitute

    def perturbed(self, assignment, *more):
        if self is rel:   # the round-trip check, after the Newton rounds
            img = assignment["y"]
            assignment = {"y": img + Series.monomial(q(3), img.weights, img.order)}
        return substitute(self, assignment, *more)

    monkeypatch.setattr(Series, "substitute", perturbed)
    # with series to evaluate at the inverse too: they share the check's
    # pass, and the error comes before any image is returned
    for more in ((), (corr, Series.monomial(y(F(1, 3)), W1, 4))):
        with pytest.raises(ConsistencyError,
                           match="inversion round trip failed for q") as err:
            invert_map([("q", rel)], 4, *more)
        assert err.value.datum == {"target": "q", "order": "4", "monomial": "q^3"}


@pytest.mark.parametrize("case", ["kp2", "quadric", "c3z3", "c3"])
def test_invert_images_share_the_check_pass(case):
    # the series handed to invert_map come back as their images at the
    # inverse, from the round-trip check's pass: each equals its own
    # substitution at the returned assignment, terms and order, and the
    # assignment is the one invert_map returns alone (c3 has no relations)
    from test_generalization import LOCAL_QUADRIC
    from orbidisk.hyper import y_monomial
    from orbidisk.mirrormap import cone_sum
    mm = _forward_map(LOCAL_QUADRIC if case == "quadric" else case,
                      F(7, 3) if case == "c3z3" else 5)
    data, rels = mm.data, [(r.target, r.series) for r in mm.relations]
    disks = data.disks.values()
    more = [Series.monomial(y_monomial(data, dual), data.y_weights(), mm.order)
            for _, _, _, dual in disks]
    more += [cone_sum(mm, cone, coeffs) for cone, coeffs, _, _ in disks]
    if case == "c3z3":   # the box disk's head monomial has exponents in thirds
        assert any(e.denominator == 3 for s in more for m in s.terms for _, e in m)
    assert (len(rels) == 0) == (case == "c3")
    alone = invert_map(rels, mm.order)
    assign, images = invert_map(rels, mm.order, *more)
    assert assign.keys() == alone.keys()
    for v, s in alone.items():
        assert assign[v].same_terms(s) and assign[v].order == s.order
    assert len(images) == len(more)
    for s, image in zip(more, images):
        want = s.substitute(assign)
        assert image.same_terms(want) and image.order == want.order


def test_invert_without_relations_refuses_variables():
    # no relation, no source variable: a constant is its own image, and a
    # series in variables has nothing to be evaluated at
    c = Series({}, 3, {(): 5})
    assert invert_map([], 3) == {}
    assign, (image,) = invert_map([], 3, c)
    assert assign == {} and image.same_terms(c) and image.order == 3
    with pytest.raises(ValidationError, match="no relation inverts"):
        invert_map([], 3, c, S(3, {y(): 1}))


def test_invert_negative_exponent_unit():
    # q1 = y1, q2 = y2 (1 + y2^2 / y1): x2 + x2^3 / q1 = q2, so by Lagrange
    # x2 = sum_k (-1)^k C(3k, k) / (2k + 1) q2^(2k+1) q1^-k, of grade k + 1
    w2 = {"y1": F(1), "y2": F(1)}
    rels = [("q1", Series(w2, 6, {mono(("y1", 1)): 1})),
            ("q2", Series(w2, 6, {mono(("y2", 1)): 1,
                                  mono(("y1", -1), ("y2", 3)): 1}))]
    x2 = invert_map(rels, 6)["y2"]
    assert x2.order == 6
    assert x2.terms == {mono(("q1", -k), ("q2", 2 * k + 1)):
                        F((-1) ** k * comb(3 * k, k), 2 * k + 1) for k in range(6)}


def test_invert_check_compares_through_the_claimed_order(monkeypatch):
    # q1 = y1, q2 = y2 (1 + y2^2 / y1) at order 6: y2's image is claimed to
    # order 6, and the term y2^3 / y1 has leads of grade 2, so the round-trip
    # check compares through 6 and sees a wrong q2^6 coefficient planted in
    # y2's image (a check that lost y1's weight stopped at 5)
    w2 = {"y1": F(1), "y2": F(1)}
    rels = [("q1", Series(w2, 6, {mono(("y1", 1)): 1})),
            ("q2", Series(w2, 6, {mono(("y2", 1)): 1,
                                  mono(("y1", -1), ("y2", 3)): 1}))]
    substitute = Series.substitute

    def perturbed(self, assignment, *more):
        if any(self is r for _, r in rels):   # the round-trip check
            img = assignment["y2"]
            wrong = Series.monomial(mono(("q2", 6)), img.weights, img.order)
            assignment = {**assignment, "y2": img + wrong}
        return substitute(self, assignment, *more)

    monkeypatch.setattr(Series, "substitute", perturbed)
    with pytest.raises(ConsistencyError, match="round trip failed for q2") as err:
        invert_map(rels, 6)
    assert err.value.datum == {"target": "q2", "order": "6", "monomial": "q2^6"}


def test_invert_order_honest_when_units_couple():
    # q1 = y1 (1 + y2) is known to order 10 but q2 = y2 (1 + y1) only to 3,
    # so y1 = q1 / (1 + y2) is known to 1 + 3 only: terms of q2's relation
    # above its order must not reach y1 below the order it claims
    w2 = {"y1": F(1), "y2": F(1)}
    r1 = Series(w2, 10, {mono(("y1", 1)): 1, mono(("y1", 1), ("y2", 1)): 1})
    r2 = {mono(("y2", 1)): 1, mono(("y1", 1), ("y2", 1)): 1}
    out = invert_map([("q1", r1), ("q2", Series(w2, 3, r2))], 3)
    assert (out["y1"].order, out["y2"].order) == (4, 3)
    r2_more = {**r2, mono(("y1", 3), ("y2", 1)): 5}
    more = invert_map([("q1", r1), ("q2", Series(w2, 6, r2_more))], 3)
    assert out["y1"].same_terms(more["y1"])


def test_invert_rejects_singular():
    relas = [("u", S(3, {y(): 1})), ("v", S(3, {y(): 1, y(2): 1}))]
    two = {"y": F(1), "z": F(1)}
    relas = [("u", Series(two, 3, {mono(("y", 1)): 1})),
             ("v", Series(two, 3, {mono(("y", 1)): 1}))]
    with pytest.raises(Exception):
        invert_map(relas, 3)


# ---------------------------------------------------------------------------
# serialization


def series_from_json(d):
    """Reference parser of Series.to_json's document (the package writes
    series and never reads them back)."""
    weights = {v: F(w) for v, w in d["grading"].items()}
    terms = {mono(*((v, F(e)) for v, e in t["exponents"].items())):
             F(t["coeff"]) for t in d["terms"]}
    return Series(weights, F(d["order"]), terms)


def test_json_round_trip():
    s = Series({"q": F(1), "t": F(1, 3)}, F(7, 3),
               {mono(("q", 1), ("t", F(1, 3))): F(-3, 7), (): F(2)})
    d = s.to_json()
    s2 = series_from_json(d)
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
    assert series_from_json(s.to_json()) == s


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
    got = {m: c for m, c in out.terms.items() if mono_grade(m, out.weights) <= order}
    assert got == {q(n): c for n, c in lagrange_inverse(u, order).items()}


def _dict_mul(a, b, n):
    """Product of two {(i, j): coefficient} series, total degree <= n."""
    out, b = {}, sorted(b.items(), key=lambda t: sum(t[0]))
    for (i, j), x in a.items():
        for (k, l), z in b:
            if i + j + k + l > n:
                break
            out[i + k, j + l] = out.get((i + k, j + l), 0) + x * z
    return {e: c for e, c in out.items() if c}


def _binomial(v, a, n):
    """(1 + v)^a = sum_k C(a, k) v^k to total degree n, v of positive degree."""
    out, power, c, k = {(0, 0): F(1)}, {(0, 0): F(1)}, F(1), 0
    while True:
        k += 1
        c, power = c * (a - k + 1) / k, _dict_mul(power, v, n)
        if not (c and power):
            return out
        for e, x in power.items():
            out[e] = out.get(e, 0) + c * x


def triangular_fixed_point(u1, u2, order):
    """y1, y2 in q1, q2 for q1 = y1 u1(y1, y2), q2 = y2 u2(y1, y2), as
    {(i, j): coefficient} to total degree order, by the plain fixed point
    y_k = q_k / u_k(y1, y2) run from y_k = q_k.  A unit term y1^a y2^b
    may have negative a or b in sixths, but positive degree a + b: with
    y_k = q_k (1 + v_k) it is q1^a q2^b (1 + v1)^a (1 + v2)^b, each power a
    binomial series, so each round fixes v_k one least degree further.
    Inside, exponents are counted in sixths."""
    n = 6 * (order - 1)   # v_k to degree n gives y_k to degree order
    v = [{}, {}]
    while True:
        powers = {}   # (k, a) -> (1 + v_k)^a
        units = []
        for u in (u1, u2):
            at = {}
            for (a, b), c in u.items():
                for key in ((0, a), (1, b)):
                    if key not in powers:
                        powers[key] = _binomial(v[key[0]], key[1], n)
                term = _dict_mul(powers[0, a], powers[1, b], n - 6 * (a + b))
                for (i, j), x in term.items():
                    e = (i + int(6 * a), j + int(6 * b))
                    at[e] = at.get(e, 0) + c * x
            at.pop((0, 0))   # u_k(y) = 1 + at
            units.append(at)
        last, v = v, [{e: x for e, x in _binomial(at, -1, n).items() if e != (0, 0)}
                      for at in units]
        if v == last:
            return tuple({(F(i + 6 * (k == 0), 6), F(j + 6 * (k == 1), 6)): x
                          for (i, j), x in _binomial(vk, 1, n).items()}
                         for k, vk in enumerate(v))


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


def _rank_two_relations(units, order):
    w2 = {"y1": F(1), "y2": F(1)}
    return [(t, Series(w2, order, {mono(("y1", a + da), ("y2", b + db)): c
                                   for (a, b), c in u.items()}))
            for t, u, (da, db) in (("q1", units[0], (1, 0)), ("q2", units[1], (0, 1)))]


def _q_exponents(s, order):
    """The terms of a series in q1, q2 up to order, keyed by exponent pairs."""
    return {(dict(m).get("q1", F(0)), dict(m).get("q2", F(0))): c
            for m, c in s.terms.items() if mono_grade(m, s.weights) <= order}


@settings(max_examples=10, derandomize=True, deadline=None)
@given(triangular_units())
def test_invert_rank_two_against_fixed_point(case):
    order, units = case
    out = invert_map(_rank_two_relations(units, order), order)
    for v, want in zip(("y1", "y2"), triangular_fixed_point(*units, order)):
        assert out[v].order >= order
        assert _q_exponents(out[v], order) == want


@st.composite
def signed_fractional_units(draw):
    """Two units of one to three terms y1^a y2^(d - a) each: a negative,
    fractional or integral, the degree d in halves up to order - 1, at
    order 3 or 4."""
    order = draw(st.sampled_from([3, 4]))
    exps = st.sampled_from([F(-1), F(-1, 2), F(1, 3), F(1, 2), F(1), F(2)])
    degrees = st.sampled_from([F(k, 2) for k in range(1, 2 * order - 1)])
    units = []
    for _ in range(2):
        u = {(0, 0): F(1)}
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            a, d = draw(exps), draw(degrees)
            u[a, d - a] = draw(coeffs.filter(bool))
        units.append(u)
    return order, units


@settings(max_examples=25, derandomize=True, deadline=None)
@given(signed_fractional_units())
def test_invert_signed_fractional_against_fixed_point(case):
    # units with negative and fractional exponents: through every order it
    # claims, Newton's inverse agrees with the plain fixed point
    order, units = case
    out = invert_map(_rank_two_relations(units, order), order)
    for v, want in zip(("y1", "y2"), triangular_fixed_point(*units, order)):
        assert out[v].order >= order
        assert _q_exponents(out[v], order) == want


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
    results = [a + b, a - a, a * b, a * F(-2, 3), a.mul_monomial(ab) * F(5, 2),
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


def test_unweighted_variable_refused():
    # a term or a monomial factor in a variable the grading leaves out
    with pytest.raises(ValidationError, match="variable y has no weight") as e:
        Series({"x": 1}, 2, {mono(("y", 1)): 1})
    assert (e.value.operation, e.value.datum) == ("grading", "y")
    x = Series({"x": 1}, 2, {mono(("x", 1)): 1})
    with pytest.raises(ValidationError, match="variable y has no weight") as e:
        x.mul_monomial(mono(("x", 1), ("y", 1)))
    assert (e.value.operation, e.value.datum) == ("grading", "y")


def test_substitute_unassigned_variable():
    s = S(2, {y(): 1})
    with pytest.raises(ValidationError):
        s.substitute({})


# ---------------------------------------------------------------------------
# Newton inversion against a stepped fixed-point reference: equal terms and
# equal orders on every bundled map and the generalization fans


def stepped_inverse_reference(relations, order):
    """The fixed point source = base * prod (1 + unit)^-inv by stepped
    rounds: round r works on assignments truncated to their weight plus
    (r+1) * step, step the least unit grade, and gains step.  It builds the
    same base monomials at the same top order as invert_map, and shares no
    code with its rounds."""
    from orbidisk.linalg import invert_rational

    src_weights = relations[0][1].weights
    sources = sorted(src_weights, key=var_key)
    factored = [(t, *s.factor_unit()) for t, s in relations]
    inv = invert_rational([[dict(m).get(v, F(0)) for v in sources]
                           for _, m, _, _ in factored])
    weights = {t: mono_grade(m, src_weights) for t, m, _, _ in factored}
    top = F(order) + max(src_weights.values()) + 1
    base_mono = {v: mono(*((factored[t][0], inv[b][t]) for t in range(len(factored))))
                 for b, v in enumerate(sources)}
    base = {v: Series.monomial(m, weights, top) for v, m in base_mono.items()}
    assign = dict(base)
    steps = [unit.min_grade() for _, _, _, unit in factored if not unit.is_zero()]
    if not steps:
        return assign
    step, r = min(steps), 0
    while True:
        caps = {v: src_weights[v] + (r + 1) * step for v in sources}
        if all(caps[v] >= top or caps[v] > assign[v].order for v in sources):
            return assign
        known = {v: s.truncate(caps[v]) if caps[v] < s.order else s
                 for v, s in assign.items()}
        units_at = [unit.substitute(known) for _, _, _, unit in factored]
        for b, v in enumerate(sources):
            prod = None
            for t, u in enumerate(units_at):
                if u.is_zero() or inv[b][t] == 0:
                    continue
                f = (1 + u).pow_frac(-inv[b][t])
                prod = f if prod is None else prod * f
            assign[v] = base[v] if prod is None else prod.mul_monomial(base_mono[v])
        r += 1


def _forward_map(fan, order, basis_p=None):
    from orbidisk import fans
    from orbidisk.fan import fan_from_dict, kernel_data
    from orbidisk.mirrormap import toric_mirror_map
    fan = fans.load(fan) if isinstance(fan, str) else fan_from_dict(fan)
    return toric_mirror_map(kernel_data(fan, basis_p), order)


def _relative_map(base, bar, disk, order):
    # the map oracle_potential inverts: the bar map at order + w_inf
    from orbidisk import fans
    from orbidisk.fan import validate_compactification
    from orbidisk.mirrormap import relative_mirror_map, toric_mirror_map
    cd = validate_compactification(fans.load(base), fans.load(bar), disk)
    w_inf = cd.bar.grade(cd.beta_bar_coords)
    return relative_mirror_map(cd, toric_mirror_map(cd.base,
                                                    F(order) + w_inf))


def _newton_cases():
    from test_generalization import (A1_CHART, LOCAL_QUADRIC, WEIGHTED_BASIS,
                                     WEIGHTED_SURFACE)
    for fan in ("c3", "conifold", "kp2"):
        for order in range(1, 9):
            yield f"{fan}-{order}", lambda f=fan, o=order: _forward_map(f, o)
    for k in range(1, 25):
        yield f"c3z3-{k}/3", lambda k=k: _forward_map("c3z3", F(k, 3))
    for order in range(1, 7):
        yield f"quadric-{order}", lambda o=order: _forward_map(LOCAL_QUADRIC, o)
        yield f"a1-{order}", lambda o=order: _forward_map(A1_CHART, o)
    for order in (F(3, 2), 2, F(5, 2), 3, 4, 5, 6):
        yield f"weighted-{order}", lambda o=order: _forward_map(
            WEIGHTED_SURFACE, o, WEIGHTED_BASIS)
    for order in range(1, 7):
        yield f"c3-bar-{order}", lambda o=order: _relative_map(
            "c3", "c3_bar", ("ray", 2), o)
        yield f"kp2-bar-{order}", lambda o=order: _relative_map(
            "kp2", "kp2_bar", ("ray", 0), o)
    for k in range(1, 19):
        yield f"c3z3-bar-{k}/3", lambda k=k: _relative_map(
            "c3z3", "c3z3_bar", ("box", 3), F(k, 3))


NEWTON_CASES = dict(_newton_cases())


@pytest.mark.parametrize("case", sorted(NEWTON_CASES))
def test_invert_matches_stepped_reference(case):
    mm = NEWTON_CASES[case]()
    rels = [(r.target, r.series) for r in mm.relations]
    got = invert_map(rels, mm.order)
    want = stepped_inverse_reference(rels, mm.order) if rels else {}
    assert set(got) == set(want)
    for v in want:
        assert got[v].order == want[v].order, v
        assert got[v] == want[v], v


def _theta(s, v):
    """theta_v s = v ds/dv, term by term through the constructor."""
    return Series(s.weights, s.order,
                  {m: c * dict(m).get(v, 0) for m, c in s.terms.items()})


@st.composite
def fractional_source(draw, weights):
    """Up to six terms a^i b^j with i, j in halves and thirds, of grade in
    (0, 3], at order 3 or 7/2."""
    exps = st.sampled_from([F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2)])
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        m = mono(("a", draw(exps)), ("b", draw(exps)))
        if 0 < mono_grade(m, weights) <= 3:
            terms[m] = draw(coeffs)
    return Series(weights, draw(st.sampled_from([F(3), F(7, 2)])), terms)


def test_substitute_order_counts_each_terms_leads():
    # a^(1/2) under a -> a (1 + b), known to relative order 1: exact through
    # 1/2 + 1, below the image's order 2, as a b^3 left out of the image
    # changes the coefficient of a^(1/2) b^3, of grade 2
    w = {"a": F(1), "b": F(1, 2)}
    s = Series(w, 3, {mono(("a", F(1, 2))): 1})
    known = {mono(("a", 1)): 1, mono(("a", 1), ("b", 1)): 1}
    lo = s.substitute({"a": Series(w, 2, known)})
    hi = s.substitute({"a": Series(w, 3, {**known, mono(("a", 1), ("b", 3)): 1})})
    assert (lo.order, hi.order) == (F(3, 2), F(5, 2)) and lo.same_terms(hi)
    m = mono(("a", F(1, 2)), ("b", 3))
    assert s.substitute({"a": Series(w, 3, known)}).coefficient(m) != hi.coefficient(m)
    # a^-1 b^3 under a -> a (1 + b) to 2: the leads' grade 2 keeps the term
    # b^3 / a, where truncating b^3 at 2 before dividing by a lost it
    w = {"a": F(1), "b": F(1)}
    s = Series(w, 3, {mono(("a", -1), ("b", 3)): 1})
    out = s.substitute({"a": Series(w, 2, {mono(("a", 1)): 1, mono(("a", 1), ("b", 1)): 1}),
                        "b": Series.variable("b", w, 5)})
    assert out.order == 2 and out.terms == {mono(("a", -1), ("b", 3)): F(1)}


@st.composite
def terms_above(draw, weights, low, high, exps):
    """Up to four terms a^i b^j, i and j drawn from exps, of grade in
    (low, high]."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        m = mono(("a", draw(exps)), ("b", draw(exps)))
        if low < mono_grade(m, weights) <= high:
            terms[m] = draw(coeffs)
    return terms


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_substitute_exact_through_its_order(data):
    # the terms a series and its images leave out above their orders are
    # unknown: a result must not depend on them through the order it claims.
    # Sources hold negative and fractional exponents, so a term's image can
    # start below or above the grade of its variables' images
    w = data.draw(st.sampled_from(GRADINGS))
    signed = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(2)])
    s = Series(w, 3, data.draw(terms_above(w, 0, 3, signed)))
    u = data.draw(graded_series(w))
    u = (u - u.constant_term()).truncate(data.draw(st.sampled_from([F(1), F(3, 2), F(3)])))
    whole = st.integers(min_value=0, max_value=6)
    s_hi = Series(w, 5, {**s.terms, **data.draw(terms_above(w, 3, 5, signed))})
    u_hi = Series(w, u.order + 2, {**u.terms, **data.draw(terms_above(w, u.order,
                                                                      u.order + 2, whole))})
    lo, hi = ({v: (1 + x).mul_monomial(mono((v, 1))) for v in w} for x in (u, u_hi))
    got, more = s.substitute(lo), s_hi.substitute(hi)
    assert more.order >= got.order
    assert got.same_terms(more), mono_str(got.first_difference(more)[1])


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.data())
def test_substitute_euler_images(data):
    # one pass substitutes s, its Euler images theta_v s and a second source
    # into the same images; each result equals its own single substitute,
    # order included.  Images a * (1 + u) need the fractional-power path.
    w = data.draw(st.sampled_from(GRADINGS))
    s, other = data.draw(fractional_source(w)), data.draw(fractional_source(w))
    tail = data.draw(graded_series(w))
    u = tail - tail.constant_term()
    images = {v: (1 + u).mul_monomial(mono((v, 1))) for v in w}
    series = [s, *(_theta(s, v) for v in w), other]
    got = s.substitute(images, *series[1:])
    assert len(got) == len(series)
    for x, img in zip(series, got):
        assert img == x.substitute(images)


# ---------------------------------------------------------------------------
# refusals: each input is refused with its message

WXY = {"x": F(1), "y": F(1)}
X, Y = (Series.variable(v, WXY, 4) for v in "xy")
T = Series.variable("t", {"t": F(1)}, 4)


@pytest.mark.parametrize("call, want", [
    (lambda: Series({"x": 0}, 2), "weight of x must be positive"),
    (lambda: X.truncate(5), "cannot extend a series beyond its known order"),
    (lambda: X.pow_int(-1), "negative integer power"),
    (lambda: (X * 2).pow_frac(F(1, 2)),
     "fractional power needs leading coefficient 1"),
    (lambda: Series.zero(WXY, 4).factor_unit(), "cannot factor the zero series"),
    (lambda: (X + Y).factor_unit(), "leading monomial is not unique"),
    (lambda: X.substitute({"x": T}, T), "grading mismatch between operands"),
    (lambda: (X * Y).substitute({"x": T, "y": Series.variable("s", {"s": 1}, 4)}),
     "assigned series use different gradings"),
    (lambda: Series.monomial(mono(("x", F(1, 2))), WXY, 4).substitute(
        {"x": T * 2}), "unique lead of coefficient 1"),
    (lambda: invert_map([("q1", X)], 4), "1 relations for 2 source variables"),
    (lambda: invert_map([("q1", X), ("q1", Y)], 4), "duplicate target variable"),
    (lambda: invert_map([("q1", X), ("q2", Series.variable(
        "y", {"x": 1, "y": 2}, 4))], 4), "relations use different source gradings"),
    (lambda: invert_map([("q1", X * 2), ("q2", Y)], 4), "leading coefficient 2"),
    (lambda: invert_map([("q1", Series.monomial(mono(("x", 1), ("y", -1)),
                                                WXY, 4)), ("q2", Y)], 4),
     "non-positive weight 0"),
], ids=["weight-0", "truncate-up", "pow-negative", "pow-frac-lead-2",
        "factor-zero", "factor-two-leads", "substitute-more-grading",
        "substitute-image-gradings", "substitute-half-power-lead-2",
        "invert-count", "invert-duplicate-target", "invert-source-gradings",
        "invert-lead-2", "invert-weight-0"])
def test_series_refusals(call, want):
    with pytest.raises(ValidationError) as e:
        call()
    assert want in str(e.value)


@pytest.mark.parametrize("call, want", [
    (lambda: 1 - X, {(): F(1), mono(("x", 1)): F(-1)}),
    (lambda: (X + Y).pow_int(0), {(): F(1)}),
    (lambda: (1 + X).pow_frac(2),
     {(): F(1), mono(("x", 1)): F(2), mono(("x", 2)): F(1)}),
    (lambda: X.pow_frac(0), {(): F(1)}),
], ids=["rsub", "pow-int-0", "pow-frac-2", "pow-frac-0"])
def test_series_edge_values(call, want):
    s = call()
    assert s.terms == want
    assert s.order == 4
