"""Exact multivariate truncated power series with rational exponents.

A series stores its terms by grade, grade -> {monomial -> Fraction}, with a
positive weight per variable (the grading) and a truncation order: terms of
grade > order are absent and undefined, terms of grade <= order are exact.  A
term's grade is computed once, when the constructor takes it from outside;
the operations know the grades of their results, since grades add under
multiplication.  All arithmetic is over Q; nothing here ever touches a float.

Monomials are stored as sorted tuples of (variable, exponent) pairs with no
zero exponents, so they are hashable and canonically ordered.

The kernels that carry the cost of the formal inversion:

- _mul_into multiplies two pieces; a product runs it once per pair of pieces
  whose grades sum to at most the order, and so do the recurrences below.
- substitute keeps one power table per variable for each call: the integer
  powers the terms use, built in increasing exponent order, each from the
  last lower one times the image to the gap; each term's coefficient is
  multiplied in as a scalar.
- exp and log_one_plus work grade by grade through the recurrences of the
  grading operator D (D m = grade(m) * m): g E_g = sum_h h f_h E_{g-h} for
  E = exp(f), and L_g = s_g - (1/g) sum_{0<h<g} (g-h) s_h L_{g-h} for
  L = log(1 + s).  Both need every term of positive grade.
- invert_map runs one loop and one check.  The loop is the fixed point in
  precision-stepped rounds: each round truncates the current assignment to
  the precision it can have gained so far.  The check evaluates the
  relations at the result and requires the target variables back exactly.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor, lcm

from .errors import ValidationError, ConsistencyError

MODULE = "series-engine"


def _err(op, msg, datum=None):
    return ValidationError(MODULE, op, msg, datum)


def var_key(v: str):
    """Canonical variable order: alphabetic prefix, finite indices, 'inf' last."""
    i = 0
    while i < len(v) and not (v[i].isdigit() or v[i:] == "inf"):
        i += 1
    prefix, suffix = v[:i], v[i:]
    if suffix == "inf":
        return (prefix, 1, 0)
    return (prefix, 0, int(suffix) if suffix else -1)


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def frac_str(x: Fraction) -> str:
    x = frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    """A rational from a string or an integer; a bool is refused."""
    if isinstance(s, (str, int)) and not isinstance(s, bool):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise _err("parse", f"not a rational: {s!r}", s)


# ---------------------------------------------------------------------------
# monomials

ONE_MONO: tuple = ()


def mono(*pairs) -> tuple:
    """Build a monomial from (var, exponent) pairs; zero exponents dropped."""
    items = [(v, frac(e)) for v, e in pairs if frac(e) != 0]
    items.sort(key=lambda p: var_key(p[0]))
    return tuple(items)


def mono_mul(a: tuple, b: tuple) -> tuple:
    d = dict(a)
    for v, e in b:
        e2 = d.get(v, Fraction(0)) + e
        if e2 == 0:
            d.pop(v, None)
        else:
            d[v] = e2
    return tuple(sorted(d.items(), key=lambda p: var_key(p[0])))


def mono_pow(m: tuple, k) -> tuple:
    k = frac(k)
    if k == 0:
        return ONE_MONO
    return tuple((v, e * k) for v, e in m)


def mono_grade(m: tuple, weights: dict) -> Fraction:
    return sum((weights[v] * e for v, e in m), Fraction(0))


def _mul_into(acc: dict, a: dict, b: dict):
    """acc += a * b for term maps, untruncated: the product of two grade
    pieces is a single grade piece."""
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            acc[m] = acc.get(m, 0) + ca * cb


def _grades_upto(gens, order) -> list:
    """Sorted sums of one or more of the positive grades gens, up to order:
    every positive grade a power series in those grades can have."""
    den = lcm(*(h.denominator for h in gens))
    steps = sorted({int(h * den) for h in gens})
    top = floor(order * den)
    reached = [True] + [False] * top
    for g in range(top + 1):
        if reached[g]:
            for h in steps:
                if g + h > top:
                    break
                reached[g + h] = True
    return [Fraction(g, den) for g in range(1, top + 1) if reached[g]]


def mono_str(m: tuple) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        if e == 1:
            parts.append(v)
        elif e.denominator == 1 and e > 0:
            parts.append(f"{v}^{e.numerator}")
        else:
            parts.append(f"{v}^({frac_str(e)})")
    return "*".join(parts)


# ---------------------------------------------------------------------------


class Series:
    """Truncated series: exact coefficients up to a grade bound.

    weights: var -> positive Fraction, the grading of each variable.
    order:   grade bound (inclusive).
    pieces:  grade -> {monomial -> nonzero Fraction}, every grade in
             [0, order] and no piece empty; terms is a flat copy.
    Operations build their results with _make, which grades nothing.
    """

    __slots__ = ("weights", "order", "pieces")

    def __init__(self, weights: dict, order, terms: dict | None = None):
        self.weights = {v: frac(w) for v, w in weights.items()}
        for v, w in self.weights.items():
            if w <= 0:
                raise _err("grading", f"weight of {v} must be positive", w)
        self.order = frac(order)
        self.pieces = {}
        for m, c in (terms or {}).items():
            c = frac(c)
            if c == 0:
                continue
            g = mono_grade(m, self.weights)
            if g < 0:
                raise _err("grading", f"monomial {mono_str(m)} has negative grade", g)
            if g <= self.order:
                self.pieces.setdefault(g, {})[m] = c

    @classmethod
    def _make(cls, weights, order, pieces):
        """A series on an operand's checked weights from pieces keyed by
        their grades: the one place that drops pieces above order, zero
        coefficients and empty pieces."""
        s = object.__new__(cls)
        s.weights, s.order, s.pieces = weights, order, {}
        for g, piece in pieces.items():
            if g <= order:
                piece = {m: c for m, c in piece.items() if c}
                if piece:
                    s.pieces[g] = piece
        return s

    @property
    def terms(self) -> dict:
        return {m: c for piece in self.pieces.values() for m, c in piece.items()}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, weights, order):
        return cls(weights, order)

    @classmethod
    def constant(cls, c, weights, order):
        return cls(weights, order, {ONE_MONO: frac(c)})

    @classmethod
    def variable(cls, v, weights, order):
        return cls(weights, order, {mono((v, 1)): Fraction(1)})

    @classmethod
    def monomial(cls, m, c, weights, order):
        return cls(weights, order, {m: frac(c)})

    # -- helpers ------------------------------------------------------------

    def _check_compatible(self, other, op):
        if self.weights != other.weights:
            raise _err(op, "grading mismatch between operands",
                       (self.weights, other.weights))

    def grade_of(self, m):
        return mono_grade(m, self.weights)

    def coefficient(self, m) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def constant_term(self) -> Fraction:
        return self.pieces.get(0, {}).get(ONE_MONO, Fraction(0))

    def is_zero(self) -> bool:
        return not self.pieces

    def min_grade(self):
        """Smallest grade among stored terms, or None for the zero series."""
        return min(self.pieces, default=None)

    def sorted_terms(self):
        return [(m, p[m]) for _, p in sorted(self.pieces.items())
                for m in sorted(p)]

    def _terms_upto(self, bound) -> dict:
        return {m: c for g, p in self.pieces.items() if g <= bound
                for m, c in p.items()}

    def same_terms(self, other) -> bool:
        """Exact equality of coefficients up to min(self.order, other.order);
        a variable of both gradings must weigh the same in each."""
        for v, w in self.weights.items():
            if other.weights.get(v, w) != w:
                raise ConsistencyError(MODULE, "same_terms",
                                       f"variable {v} is weighted differently "
                                       "in the two gradings", v)
        bound = min(self.order, other.order)
        return self._terms_upto(bound) == other._terms_upto(bound)

    def first_difference(self, other):
        """First (grade, monomial, coeff_self, coeff_other) where the two differ."""
        bound = min(self.order, other.order)
        for g in sorted(set(self.pieces) | set(other.pieces)):
            if g > bound:
                break
            a, b = self.pieces.get(g, {}), other.pieces.get(g, {})
            diffs = [(g, m, a.get(m, Fraction(0)), b.get(m, Fraction(0)))
                     for m in set(a) | set(b) if a.get(m) != b.get(m)]
            if diffs:
                return min(diffs)
        return None

    def __eq__(self, other):
        return (isinstance(other, Series) and self.weights == other.weights
                and self.order == other.order and self.pieces == other.pieces)

    def __hash__(self):
        raise TypeError("Series is not hashable")

    def __repr__(self):
        return f"Series({self.text()}, order={frac_str(self.order)})"

    def text(self) -> str:
        if not self.pieces:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            cs = frac_str(c)
            ms = mono_str(m)
            if ms == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(ms)
            elif cs == "-1":
                parts.append(f"-{ms}")
            else:
                parts.append(f"{cs}*{ms}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    # -- ring operations ----------------------------------------------------

    def __neg__(self):
        return Series._make(self.weights, self.order,
                            {g: {m: -c for m, c in p.items()}
                             for g, p in self.pieces.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _constant(self.weights, self.order, other)
        self._check_compatible(other, "add")
        out = {g: dict(p) for g, p in self.pieces.items()}
        for g, p in other.pieces.items():
            acc = out.setdefault(g, {})
            for m, c in p.items():
                acc[m] = acc.get(m, 0) + c
        return Series._make(self.weights, min(self.order, other.order), out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _constant(self.weights, self.order, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            return Series._make(self.weights, self.order,
                                {g: {m: c * x for m, x in p.items()}
                                 for g, p in self.pieces.items()})
        self._check_compatible(other, "mul")
        order = min(self.order, other.order)
        out = {}
        for ga, pa in self.pieces.items():
            for gb, pb in other.pieces.items():
                if ga + gb <= order:
                    _mul_into(out.setdefault(ga + gb, {}), pa, pb)
        return Series._make(self.weights, order, out)

    __rmul__ = __mul__

    def mul_monomial(self, m: tuple, c=1):
        """Multiply by an exact monomial; the truncation bound shifts with it."""
        g, c = mono_grade(m, self.weights), frac(c)
        low = self.min_grade()
        if low is not None and low + g < 0:
            bad = mono_mul(min(self.pieces[low]), m)
            raise _err("grading", f"monomial {mono_str(bad)} has negative grade",
                       low + g)
        return Series._make(self.weights, self.order + g,
                            {ga + g: {mono_mul(ma, m): ca * c for ma, ca in p.items()}
                             for ga, p in self.pieces.items()})

    def truncate(self, order):
        order = frac(order)
        if order > self.order:
            raise _err("truncate", "cannot extend a series beyond its known order",
                       (self.order, order))
        return Series._make(self.weights, order, self.pieces)

    def pow_int(self, k: int):
        """self^k by repeated squaring; k = 1 returns self itself."""
        if k < 0:
            raise _err("pow", "negative integer power of a general series", k)
        if k == 0:
            return _constant(self.weights, self.order, 1)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # -- transcendental operations ------------------------------------------

    def _check_positive_grades(self, op):
        """The grading-operator recurrences divide by grades."""
        if self.pieces.get(0):
            m = mono_str(min(self.pieces[0]))
            raise _err(op, f"every term needs a positive grade; {m} has grade 0", m)

    def exp(self):
        """exp of a series with zero constant term, exact to self.order.

        E = exp(f) solves D(E) = E * D(f) for the grading operator D, which
        multiplies each monomial by its grade.  Grade by grade:
        g * E_g = sum_h h * f_h * E_{g-h}.
        """
        if self.constant_term() != 0:
            raise _err("exp", "exp requires zero constant term", self.constant_term())
        self._check_positive_grades("exp")
        # grade h -> h * f_h
        scaled = {h: {m: h * c for m, c in fh.items()}
                  for h, fh in self.pieces.items()}
        out = {Fraction(0): {ONE_MONO: Fraction(1)}}
        for g in _grades_upto(self.pieces, self.order):
            acc = {}
            for h, hf in scaled.items():
                rest = out.get(g - h)
                if rest:
                    _mul_into(acc, hf, rest)
            piece = {m: c / g for m, c in acc.items() if c}
            if piece:
                out[g] = piece
        return Series._make(self.weights, self.order, out)

    def log_one_plus(self):
        """log(1 + s) for s with zero constant term, exact to self.order.

        L = log(1 + s) solves (1 + s) * D(L) = D(s) for the grading operator
        D.  Grade by grade: L_g = s_g - (1/g) sum_{0<h<g} (g-h) s_h L_{g-h}.
        """
        if self.constant_term() != 0:
            raise _err("log", "log_one_plus requires zero constant term",
                       self.constant_term())
        self._check_positive_grades("log")
        out = {}
        scaled = {}   # grade k -> k * L_k
        for g in _grades_upto(self.pieces, self.order):
            acc = {}
            for h, sh in self.pieces.items():
                rest = scaled.get(g - h)
                if rest:
                    _mul_into(acc, sh, rest)
            piece = dict(self.pieces.get(g, {}))
            for m, c in acc.items():
                piece[m] = piece.get(m, 0) - c / g
            piece = {m: c for m, c in piece.items() if c}
            if piece:
                out[g] = piece
                scaled[g] = {m: g * c for m, c in piece.items()}
        return Series._make(self.weights, self.order, out)

    def pow_frac(self, alpha):
        """Raise to a rational power.

        Integer alpha >= 0 works on any series.  Otherwise the series must
        factor as monomial * (1 + positive-grade), with leading coefficient 1.
        """
        alpha = frac(alpha)
        if alpha.denominator == 1 and alpha >= 0:
            return self.pow_int(int(alpha))
        lead_m, lead_c, unit = self.factor_unit("pow")
        if lead_c != 1:
            raise _err("pow", "fractional power needs leading coefficient 1", lead_c)
        res = (unit.log_one_plus() * alpha).exp()
        return res.mul_monomial(mono_pow(lead_m, alpha))

    def factor_unit(self, op="factor"):
        """Write self = c * m * (1 + u) with u of positive grade.

        Returns (m, c, u).  Requires a unique minimal-grade term.
        """
        if self.is_zero():
            raise _err(op, "cannot factor the zero series")
        g0 = self.min_grade()
        leads = self.pieces[g0]
        if len(leads) > 1:
            raise _err(op, "leading monomial is not unique",
                       [mono_str(m) for m in sorted(leads)])
        (lead_m, lead_c), = leads.items()
        inv_m = mono_pow(lead_m, -1)
        unit = Series._make(self.weights, self.order - g0,
                            {g - g0: {mono_mul(m, inv_m): c / lead_c
                                      for m, c in p.items()}
                             for g, p in self.pieces.items() if g != g0})
        return lead_m, lead_c, unit

    # -- substitution ---------------------------------------------------------

    def substitute(self, assignment: dict):
        """Simultaneous substitution var -> Series.

        Every variable occurring in self must be assigned.  Soundness of the
        truncation requires each image's minimal grade to be at least the
        weight of the variable it replaces; this is checked.
        """
        terms = self.terms
        used = sorted({v for m in terms for v, _ in m}, key=var_key)
        for v in used:
            if v not in assignment:
                raise _err("substitute", f"unassigned variable {v}", v)
        images = {v: assignment[v] for v in used}
        pool = list(images.values()) or list(assignment.values())
        tw = pool[0].weights if pool else self.weights
        torder = min((s.order for s in images.values()), default=self.order)
        for v, s in images.items():
            if s.weights != tw:
                raise _err("substitute", "assigned series use different gradings", v)
            mg = s.min_grade()
            if mg is not None and mg < self.weights[v]:
                raise _err("substitute",
                           f"image of {v} has grade {mg} below its weight "
                           f"{self.weights[v]}; truncation would be unsound", v)
        order = min(self.order, torder)
        # one power table per variable: the positive integer powers the
        # terms use, built in increasing exponent order, each from the last
        # lower one times the image to the gap.  The images needed at
        # fractional or negative exponents are factored once; their pure
        # monomial parts combine by exponent arithmetic so that interim
        # negative grades cancel before any series is built, and their unit
        # parts enter as exp(e * log(unit)), one per (variable, exponent)
        needed, factored = {}, {}
        for m in terms:
            for v, e in m:
                if e.denominator == 1 and e >= 0:
                    needed.setdefault(v, set()).add(int(e))
                elif v not in factored:
                    lead_m, lead_c, unit = images[v].factor_unit("substitute")
                    if lead_c != 1:
                        raise _err("substitute",
                                   f"image of {v} must have leading "
                                   f"coefficient 1 for fractional powers",
                                   lead_c)
                    factored[v] = (lead_m, unit)
        powers = {}
        for v, exps in needed.items():
            img = images[v]
            if img.order > order:
                img = img.truncate(order)
            last_e, last = 0, None
            for e in sorted(exps):
                gap = img.pow_int(e - last_e)
                last = gap if last is None else last * gap
                powers[v, e] = last
                last_e = e
        logs, frac_powers = {}, {}
        out_order = order
        acc = {}
        for m, c in terms.items():
            term = None
            mono_acc = ONE_MONO
            for v, e in m:
                if e.denominator == 1 and e >= 0:
                    f = powers[v, int(e)]
                else:
                    lead_m, unit = factored[v]
                    mono_acc = mono_mul(mono_acc, mono_pow(lead_m, e))
                    if unit.is_zero():
                        continue
                    f = frac_powers.get((v, e))
                    if f is None:
                        if v not in logs:
                            logs[v] = unit.log_one_plus()
                        f = frac_powers[v, e] = (logs[v] * e).exp()
                term = f if term is None else term * f
            if term is None:
                term = _constant(tw, order, 1)
            elif term.order > order:
                term = term.truncate(order)
            if mono_acc:
                term = term.mul_monomial(mono_acc)
                if term.order > order:
                    term = term.truncate(order)
            out_order = min(out_order, term.order)
            for g, p in term.pieces.items():
                piece = acc.setdefault(g, {})
                for tm, tc in p.items():
                    piece[tm] = piece.get(tm, 0) + c * tc
        return Series._make(tw, out_order, acc)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "grading": {v: frac_str(w) for v, w in
                        sorted(self.weights.items(), key=lambda kv: var_key(kv[0]))},
            "order": frac_str(self.order),
            "terms": [
                {"exponents": {v: frac_str(e) for v, e in m},
                 "coeff": frac_str(c)}
                for m, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, d) -> "Series":
        weights = {v: parse_frac(w) for v, w in d["grading"].items()}
        terms = {}
        for t in d["terms"]:
            m = mono(*((v, parse_frac(e)) for v, e in t["exponents"].items()))
            terms[m] = parse_frac(t["coeff"])
        return cls(weights, parse_frac(d["order"]), terms)


def _constant(weights, order, c) -> Series:
    """The constant series c on weights a series already holds."""
    return Series._make(weights, order, {Fraction(0): {ONE_MONO: frac(c)}})


# ---------------------------------------------------------------------------
# formal inversion of triangular coordinate changes


def invert_map(relations, order):
    """Invert a formal coordinate change given by target = series-in-sources.

    relations: list of (target_variable, Series in the source variables).
    Each relation must factor as (monomial in sources) * (unit series with
    constant term 1); the matrix of leading exponents must be invertible.
    Each target variable takes the grade of its leading monomial, so the
    base solution (the monomial part of each source) has the source's weight.

    The answer is the fixed point of source = base * prod (1 + unit)^-inv,
    reached in one loop.  Each round gains at least `step`, the smallest
    grade of a unit correction, so the rounds are precision-stepped: before
    round r every assignment is truncated to its weight plus (r+1) * step,
    and early rounds work on short series.  The loop stops once every
    assignment is known exact through its order or the cap reaches the base
    order.

    Returns {source_variable: Series in the target variables}.  One exact
    check follows the loop: the relations evaluated at the result must give
    back the target variables, so a round that went wrong ends in a
    ConsistencyError.
    """
    from .linalg import invert_rational

    op = "invert_map"
    if not relations:
        return {}
    src_weights = relations[0][1].weights
    sources = sorted(src_weights, key=var_key)
    if len(relations) != len(sources):
        raise _err(op, f"{len(relations)} relations for {len(sources)} source variables",
                   sources)
    targets = [t for t, _ in relations]
    if len(set(targets)) != len(targets):
        raise _err(op, "duplicate target variable", targets)

    factored = []
    for t, s in relations:
        if s.weights != src_weights:
            raise _err(op, "relations use different source gradings", t)
        m, c, unit = s.factor_unit(op)
        if c != 1:
            raise _err(op, f"relation for {t} has leading coefficient {c}, want 1", t)
        factored.append((t, m, unit))

    exp_matrix = [[dict(m).get(v, Fraction(0)) for v in sources]
                  for _, m, _ in factored]
    inv = invert_rational(exp_matrix)
    if inv is None:
        raise _err(op, "non-triangular system: leading exponent matrix is singular",
                   exp_matrix)

    weights = {t: mono_grade(m, src_weights) for t, m, _ in factored}
    for t, w in weights.items():
        if w <= 0:
            raise _err(op, f"target {t} would have non-positive weight {w}", t)

    order = frac(order)
    # a base monomial is exact to any order; orders of the corrected
    # assignments then settle to what the relation data honestly supports
    # (weight of the variable plus the smallest relative unit order involved),
    # which can exceed the requested order and is needed for verification
    top = order + max(src_weights.values()) + 1
    base_mono = {}
    base = {}
    for b, v in enumerate(sources):
        m = mono(*((factored[t][0], inv[b][t]) for t in range(len(factored))))
        base_mono[v] = m
        base[v] = Series.monomial(m, 1, weights, top)

    assign = dict(base)
    steps = [unit.min_grade() for _, _, unit in factored if not unit.is_zero()]
    if steps:
        step = min(steps)
        # The base monomial of v has grade src_weights[v] and every unit
        # correction has grade >= step, so a round turns assignments exact
        # below weight + k into ones exact below weight + k + step.  Before
        # round r they are exact below weight + (r+1)*step: truncating there
        # drops only terms that are still wrong.
        r = 0
        while True:
            caps = {v: src_weights[v] + (r + 1) * step for v in sources}
            if all(caps[v] >= top or caps[v] > assign[v].order
                   for v in sources):
                break
            known = {v: s.truncate(caps[v]) if caps[v] < s.order else s
                     for v, s in assign.items()}
            units_at = [unit.substitute(known) for _, _, unit in factored]
            for b, v in enumerate(sources):
                # multiply the unit corrections at their relative order, then
                # shift by the base monomial: the product of a unit known to
                # relative order k with a monomial of grade w is exact to k + w
                prod = None
                for t, u in enumerate(units_at):
                    if u.is_zero() or inv[b][t] == 0:
                        continue
                    f = (1 + u).pow_frac(-inv[b][t])
                    prod = f if prod is None else prod * f
                assign[v] = (base[v] if prod is None
                             else prod.mul_monomial(base_mono[v]))
            r += 1

    # verify round trip: relation series evaluated at the assignment give back
    # exactly the target variables
    for (t, s), (_, m, unit) in zip(relations, factored):
        lhs = s.substitute(assign)
        rhs = Series.variable(t, weights, lhs.order)
        if not lhs.same_terms(rhs):
            raise ConsistencyError(MODULE, op,
                                   f"inversion failed to stabilize for {t}",
                                   lhs.first_difference(rhs))
    return assign
