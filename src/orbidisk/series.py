"""Exact multivariate truncated power series with rational exponents.

A series has a positive weight per variable (the grading) and a truncation
order: terms of grade > order are absent and undefined, terms of grade <=
order are exact.  All arithmetic is over Q; nothing here ever touches a float.

The store is packed.  Variables are in var_key order, W is the lcm of the
weight denominators, and e, per series, is the least positive integer with
every exponent times e integral.  A monomial is one int: its exponents
times e, x_i, as sum x_i * 2^(F * (n-1-i)) in balanced fields of F = 32
bits, field 0 most significant.  Packing is linear, so monomials multiply
by adding ints, and int order is the order of the exponent tuples.  A grade
g is the int key g * e * W, so grades add and compare as ints; a grade
piece is (den, {monomial: int numerator}) with den > 0 coprime to the
numerators.  _make keeps the store canonical, so equal series have equal
stores; operands with different e meet at their lcm.  Names and Fractions
appear only at the boundary: the constructor (which grades each term
once), terms, pieces, sorted_terms, text, to_json, same_terms,
first_difference and the lead monomial factor_unit returns.

Every field lies in [-BOUND, BOUND), BOUND = 2^30.  A value entering the
store (the constructor's terms, mul_monomial's shift, substitute's leads,
a store rescaled to a larger e) outside it is refused with exit 2, naming
its variable, as is a field of a new piece in _piece.  An operation adds
two stored fields (a kernel pair, a shift, a lead taken off) before its
result is checked, so a checked field is in [-2^31, 2^31): there packing
is one to one, decoding exact and the check sees it.

Where the formal inversion spends its time:
- _mul_into, the one kernel of products, sums, exp/log and substitute,
  adds each pair product of a piece and a store into its output piece.
- substitute takes several series to one assignment in one pass: each
  image is split once as lead * w, one power table per variable holds the
  integer powers of w, and each term's product of w powers is built once.
- exp and log_one_plus run the recurrences of the grading operator D
  (D m = grade(m) * m) on the keys, grade by grade.
- invert_map runs Newton rounds, each about doubling the known order; the
  last one and the exact round-trip check, whose pass also yields the
  images its callers read off the inverse, cost most of it.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod

from .errors import ValidationError, ConsistencyError, frac, frac_str

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


# ---------------------------------------------------------------------------
# named monomials


def mono(*pairs) -> tuple:
    """Build a monomial from (var, exponent) pairs; zero exponents dropped."""
    items = [(v, frac(e)) for v, e in pairs if frac(e) != 0]
    items.sort(key=lambda p: var_key(p[0]))
    return tuple(items)


def mono_mul(a: tuple, b: tuple) -> tuple:
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return mono(*d.items())


def mono_pow(m: tuple, k) -> tuple:
    k = frac(k)
    if k == 0:
        return ()
    return tuple((v, e * k) for v, e in m)


def mono_grade(m: tuple, weights: dict) -> Fraction:
    """The grade of m; a variable the grading does not weight is refused."""
    try:
        return sum((weights[v] * e for v, e in m), Fraction(0))
    except KeyError as exc:
        raise _err("grading", f"variable {exc.args[0]} has no weight",
                   exc.args[0]) from None


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
# packed pieces

F = 32                  # bits per field of a packed monomial
BOUND = 1 << F - 2      # every field of a stored monomial lies in [-BOUND, BOUND)
_ONE = {0: 1}           # the numerators of the piece 1


def _pack(names, xs, e: int) -> int:
    """The fields xs, one per variable of names, as one int; a field outside
    [-BOUND, BOUND), an exponent times e, is refused and named."""
    m = 0
    for v, x in zip(names, xs):
        if not -BOUND <= x < BOUND:
            raise _err("exponent", f"exponent {frac_str(Fraction(x, e))} of {v} times "
                       f"{e} is outside the field range [-2^{F - 2}, 2^{F - 2})",
                       [v, frac_str(Fraction(x, e))])
        m = (m << F) + x
    return m


def _unpack(m: int, n: int) -> list:
    """The n balanced fields of a packed monomial, field 0 first."""
    xs = [0] * n
    for i in range(n - 1, 0, -1):
        xs[i] = x = (m + (1 << F - 1) & (1 << F) - 1) - (1 << F - 1)
        m = (m - x) >> F
    return [m] + xs[1:]


@cache
def _masks(n: int) -> tuple:
    """(off, hi): m + off & hi is 0 iff m's fields, in [-2^31, 2^31), are in range."""
    ones = sum(1 << F * j for j in range(n))
    return ones << F - 2, ones << F - 1


def _key(grade: Fraction, unit: int) -> int:
    """floor(grade * unit): the key of a grade, or the top key of an order."""
    return grade.numerator * unit // grade.denominator


def _mul_into(out: dict, k: int, d: int, a: dict, store: dict, top: int):
    """out += (a / d at key k) * store through key top, for the numerators
    a of one piece.  The product of two grade pieces is one grade piece;
    out[key] is [den, numerators] over the lcm of the dens it has taken."""
    for kb, (db, b) in store.items():
        kk = k + kb
        if kk > top:
            break
        piece, dd = out.get(kk), d * db
        if piece is None:
            piece = out[kk] = [dd, {}]
        den, acc = piece
        if den % dd:
            r = dd // gcd(den, dd)
            piece[0] = den = den * r
            for m in acc:
                acc[m] *= r
        f = den // dd
        for ma, ca in a.items():
            ca *= f
            for mb, cb in b.items():
                m = ma + mb
                acc[m] = acc.get(m, 0) + ca * cb


def _piece(den: int, nums: dict, names, e: int):
    """A piece in lowest terms without zero numerators, or None if empty;
    a field outside [-BOUND, BOUND) is refused (module docstring)."""
    off, hi = _masks(len(names))
    for m in nums:
        if m + off & hi:
            _pack(names, _unpack(m, len(names)), e)
    if 0 in nums.values():
        nums = {m: n for m, n in nums.items() if n}
    if den != 1 and nums:
        r = gcd(den, *nums.values())
        if r != 1:
            den //= r
            nums = {m: n // r for m, n in nums.items()}
    return (den, nums) if nums else None


def _least_e(store: dict, e: int, n: int) -> tuple:
    """(e, store) at the least exponent denominator the store needs."""
    r = e
    for m in (m for _, nums in store.values() for m in nums):
        if r == 1:
            return e, store
        r = gcd(r, *_unpack(m, n))
    return (e, store) if r == 1 else (e // r, {k // r: (d, {m // r: c for m, c in nums.items()})
                                               for k, (d, nums) in store.items()})


def _canon(pieces: dict, e: int, top: int, names) -> tuple:
    """(e, store): the pieces of key <= top in lowest terms and in key
    order, at the least exponent denominator they need."""
    store = {}
    for k in sorted(pieces):
        piece = _piece(*pieces[k], names, e) if k <= top else None
        if piece:
            store[k] = piece
    return (e, store) if e == 1 else _least_e(store, e, len(names))


def _scaled(store: dict, f: int, names, e: int) -> dict:
    """A store with its exponent denominator multiplied by f, to e."""
    if f == 1:
        return store
    return {k * f: (d, {_pack(names, [x * f for x in _unpack(m, len(names))], e): c
                        for m, c in nums.items()})
            for k, (d, nums) in store.items()}


# ---------------------------------------------------------------------------


class Series:
    """Truncated series: exact coefficients up to a grade bound.

    weights: var -> positive Fraction, the grading of each variable.
    order:   grade bound (inclusive).
    pieces:  grade -> {monomial -> nonzero Fraction}, every grade in
             [0, order] and no piece empty; terms is a flat copy.  Both are
             named views built from the packed store (module docstring).
    """

    __slots__ = ("weights", "order", "_names", "_W", "_e", "_p")

    def __init__(self, weights: dict, order, terms: dict | None = None):
        self.weights = {v: frac(w) for v, w in weights.items()}
        for v, w in self.weights.items():
            if w <= 0:
                raise _err("grading", f"weight of {v} must be positive", w)
        self.order = frac(order)
        self._names = names = tuple(sorted(self.weights, key=var_key))
        self._W = W = lcm(*(w.denominator for w in self.weights.values()))
        terms = terms or {}
        e = lcm(*(frac(x).denominator for m in terms for _, x in m))
        out, top, one = {}, _key(self.order, e * W), {0: (1, _ONE)}
        for m, c in terms.items():
            if (c := frac(c)) == 0:
                continue
            gr = mono_grade(m, self.weights)
            if gr < 0:
                raise _err("grading", f"monomial {mono_str(m)} has negative grade", gr)
            if gr <= self.order:
                xs = [sum(int(x * e) for w, x in m if w == v) for v in names]
                _mul_into(out, _key(gr, e * W), c.denominator,
                          {_pack(names, xs, e): c.numerator}, one, top)
        self._e, self._p = _canon(out, e, top, names)

    def _make(self, order, e, pieces, kept=False):
        """A series on self's grading from pieces keyed at exponent denominator
        e: the one place that drops pieces above order, zero numerators and
        empty pieces, refuses a field past the bound, and reduces dens and e;
        kept pieces, canonical already, are only re-checked for e."""
        s = object.__new__(Series)
        s.weights, s.order, s._names, s._W = self.weights, order, self._names, self._W
        s._e, s._p = _least_e(pieces, e, len(self._names)) if kept else \
            _canon(pieces, e, _key(order, e * self._W), self._names)
        return s

    def _named(self, m: int) -> tuple:
        names, e = self._names, self._e
        return tuple((v, Fraction(x, e)) for v, x in zip(names, _unpack(m, len(names))) if x)

    @property
    def pieces(self) -> dict:
        unit = self._e * self._W
        return {Fraction(k, unit): {self._named(m): Fraction(n, d)
                                    for m, n in nums.items()}
                for k, (d, nums) in self._p.items()}

    @property
    def terms(self) -> dict:
        return {self._named(m): Fraction(n, d)
                for d, nums in self._p.values() for m, n in nums.items()}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, weights, order):
        return cls(weights, order)

    @classmethod
    def variable(cls, v, weights, order):
        return cls(weights, order, {mono((v, 1)): Fraction(1)})

    @classmethod
    def monomial(cls, m, weights, order):
        return cls(weights, order, {m: Fraction(1)})

    # -- helpers ------------------------------------------------------------

    def _common(self, other, op):
        """(e, self's store, other's store) at the lcm of their e."""
        if self.weights is not other.weights and self.weights != other.weights:
            raise _err(op, "grading mismatch between operands",
                       (self.weights, other.weights))
        e, names = lcm(self._e, other._e), self._names
        return e, _scaled(self._p, e // self._e, names, e), \
            _scaled(other._p, e // other._e, names, e)

    def coefficient(self, m) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def constant_term(self) -> Fraction:
        p = self._p.get(0)
        return Fraction(p[1].get(0, 0), p[0]) if p else Fraction(0)

    def is_zero(self) -> bool:
        return not self._p

    def min_grade(self):
        """Smallest grade among stored terms, or None for the zero series."""
        if not self._p:
            return None
        return Fraction(next(iter(self._p)), self._e * self._W)

    def sorted_terms(self):
        return [t for _, p in sorted(self.pieces.items()) for t in sorted(p.items())]

    def same_terms(self, other) -> bool:
        """Exact equality of coefficients up to min(self.order, other.order);
        a variable of both gradings must weigh the same in each."""
        for v, w in self.weights.items():
            if other.weights.get(v, w) != w:
                raise ConsistencyError(MODULE, "same_terms",
                                       f"variable {v} is weighted differently "
                                       "in the two gradings", v)
        return self.first_difference(other) is None

    def first_difference(self, other):
        """First (grade, monomial, coeff_self, coeff_other) where the two differ."""
        bound = min(self.order, other.order)
        mine, theirs = self.pieces, other.pieces
        for g in sorted(set(mine) | set(theirs)):
            if g > bound:
                break
            a, b = mine.get(g, {}), theirs.get(g, {})
            diffs = [(g, m, a.get(m, Fraction(0)), b.get(m, Fraction(0)))
                     for m in set(a) | set(b) if a.get(m) != b.get(m)]
            if diffs:
                return min(diffs)
        return None

    def __eq__(self, other):
        return (isinstance(other, Series) and self.weights == other.weights
                and self.order == other.order and self._e == other._e
                and self._p == other._p)

    def __hash__(self):
        raise TypeError("Series is not hashable")

    def __repr__(self):
        return f"Series({self.text()}, order={frac_str(self.order)})"

    def text(self) -> str:
        out = ""
        for m, c in self.sorted_terms():
            ms, cs = mono_str(m), frac_str(abs(c))
            t = cs if ms == "1" else ms if cs == "1" else f"{cs}*{ms}"
            out = (f"{out} {'-' if c < 0 else '+'} {t}" if out
                   else "-" + t if c < 0 else t)
        return out or "0"

    # -- ring operations ----------------------------------------------------

    def __neg__(self):
        return self._make(self.order, self._e, {k: (d, {m: -n for m, n in nums.items()})
                                                for k, (d, nums) in self._p.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _constant(self, self.order, other)
        e, a, b = self._common(other, "add")
        order, out = min(self.order, other.order), {}
        for store in (a, b):
            _mul_into(out, 0, 1, _ONE, store, _key(order, e * self._W))
        return self._make(order, e, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _constant(self, self.order, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c, out = frac(other), {}
            _mul_into(out, 0, c.denominator, {0: c.numerator}, self._p,
                      _key(self.order, self._e * self._W))
            return self._make(self.order, self._e, out)
        e, a, b = self._common(other, "mul")
        order = min(self.order, other.order)
        top = _key(order, e * self._W)
        out = {}
        for ka, (da, pa) in a.items():   # in key order
            if ka > top:
                break
            _mul_into(out, ka, da, pa, b, top)
        return self._make(order, e, out)

    __rmul__ = __mul__

    def mul_monomial(self, m: tuple):
        """Multiply by an exact monomial; the truncation bound shifts with it."""
        g = mono_grade(m, self.weights)
        low = self.min_grade()
        if low is not None and low + g < 0:
            bad = mono_mul(min(self.pieces[low]), m)
            raise _err("grading", f"monomial {mono_str(bad)} has negative grade",
                       low + g)
        e, names = lcm(self._e, *(frac(x).denominator for _, x in m)), self._names
        shift = _pack(names, [sum(int(x * e) for w, x in m if w == v) for v in names], e)
        dk = _key(g, e * self._W)
        return self._make(self.order + g, e,
                          {k + dk: (d, {ma + shift: n for ma, n in nums.items()})
                           for k, (d, nums) in _scaled(self._p, e // self._e, names, e).items()})

    def truncate(self, order):
        order = frac(order)
        if order > self.order:
            raise _err("truncate", "cannot extend a series beyond its known order",
                       (self.order, order))
        return _at(self, order)

    def pow_int(self, k: int):
        """self^k by repeated squaring; k = 1 returns self itself."""
        if k < 0:
            raise _err("pow", "negative integer power of a general series", k)
        if k == 0:
            return _constant(self, self.order, 1)
        result, base = None, self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # -- transcendental operations ------------------------------------------

    def _check_positive_grades(self, op, name):
        """exp and log need a zero constant term; their recurrences divide by grades."""
        if self.constant_term() != 0:
            raise _err(op, f"{name} requires zero constant term", self.constant_term())
        if 0 in self._p:
            m = mono_str(min(self.pieces[0]))
            raise _err(op, f"every term needs a positive grade; {m} has grade 0", m)

    def exp(self):
        """exp of a series with zero constant term, exact to self.order.

        E = exp(f) solves D(E) = E * D(f) for the grading operator D, which
        multiplies each monomial by its grade.  Grade by grade:
        g * E_g = sum_h h * f_h * E_{g-h}.
        """
        self._check_positive_grades("exp", "exp")
        return self._recur({0: (1, _ONE)}, False)

    def log_one_plus(self):
        """log(1 + s) for s with zero constant term, exact to self.order.

        L = log(1 + s) solves (1 + s) * D(L) = D(s) for the grading operator
        D.  Grade by grade: g * L_g = g * s_g - sum_h s_h * (g-h) L_{g-h}.
        """
        self._check_positive_grades("log", "log_one_plus")
        return self._recur({}, True)

    def _recur(self, out, log):
        """exp(self), or with log log(1 + self), from the pieces in out, by its
        recurrence; each piece found is multiplied into the keys above it."""
        top, names, e = _key(self.order, self._e * self._W), self._names, self._e
        acc, ds = {}, {h: (d, {m: h * n for m, n in nums.items()})
                       for h, (d, nums) in self._p.items()}
        step = {h: (d, {m: -n for m, n in nums.items()})
                for h, (d, nums) in self._p.items()} if log else ds
        _mul_into(acc, 0, 1, _ONE, ds, top)
        for g in range(1, top + 1):
            part = acc.pop(g, None)
            piece = part and _piece(part[0] * g, part[1], names, e)
            if piece:
                out[g] = piece
                _mul_into(acc, g, piece[0], {m: g * n for m, n in piece[1].items()}
                          if log else piece[1], step, top)
        return self._make(self.order, e, out, True)

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

        Returns (m, c, u), m named.  Requires a unique minimal-grade term.
        """
        if self.is_zero():
            raise _err(op, "cannot factor the zero series")
        k0 = next(iter(self._p))
        d0, leads = self._p[k0]
        if len(leads) > 1:
            raise _err(op, "leading monomial is not unique",
                       [mono_str(m) for m in sorted(map(self._named, leads))])
        (lead_m, n0), = leads.items()
        dn, nd = (n0, d0) if n0 > 0 else (-n0, -d0)   # divide by n0 / d0, den > 0
        unit = self._make(self.order - self.min_grade(), self._e,
                          {k - k0: (d * dn, {m - lead_m: n * nd for m, n in nums.items()})
                           for k, (d, nums) in self._p.items() if k != k0})
        return self._named(lead_m), Fraction(n0, d0), unit

    # -- substitution ---------------------------------------------------------

    def substitute(self, assignment: dict, *more):
        """Simultaneous substitution var -> Series into self and, in the same
        pass, into each series of more on self's grading: the image of self,
        or with more the list of all the images.

        Every variable occurring must be assigned, to an image of least grade
        at least its weight.  Each image is y^lead * w, lead one of its
        least-grade monomials (1 for a zero image); a result is exact through
        the least of its own order, its images' orders and, per term and w
        factor, the term's leads' grade plus w's order.
        """
        op, series = "substitute", (self, *more)
        if any(s.weights != self.weights for s in more):
            raise _err(op, "grading mismatch between operands", [s.weights for s in series])
        names, E = self._names, lcm(*(s._e for s in series))
        stores = [_scaled(s._p, E // s._e, names, E) for s in series]
        monos = [[m for _, nums in p.values() for m in nums] for p in stores]
        fields = {m: _unpack(m, len(names)) for ms in monos for m in ms}
        powers = {(i, x) for xs in fields.values() for i, x in enumerate(xs) if x}
        used = sorted({i for i, _ in powers})
        fractional = {i for i, x in powers if x % E or x < 0}   # these need w = 1 + u
        for i in used:
            if names[i] not in assignment:
                raise _err(op, f"unassigned variable {names[i]}", names[i])
        images = {i: assignment[names[i]] for i in used}
        like = next(iter(images.values() or assignment.values()), self)
        # leads are ints over D = E * T, T the lcm of the images' e; grades are keys
        T, W, lead, gkey, ws = lcm(*(s._e for s in images.values())), like._W, {}, {}, {}
        D, unit, n = E * T, E * T * W, len(like._names)
        for i, s in images.items():
            v, k0, f = names[i], next(iter(s._p), 0), T // s._e
            if s.weights != like.weights:
                raise _err(op, "assigned series use different gradings", v)
            g = Fraction(k0, s._e * W)
            if s._p and g < self.weights[v]:
                raise _err(op, f"image of {v} has grade {g} below its weight "
                           f"{self.weights[v]}; truncation would be unsound", v)
            m0 = min(s._p[k0][1]) if s._p else 0
            if i in fractional and s._p.get(k0) != (1, {m0: 1}):
                raise _err(op, f"image of {v} must have a unique lead of coefficient "
                           "1 for powers other than positive integers", v)
            lead[i], gkey[i] = [x * f for x in _unpack(m0, n)], k0 * f
            ws[i] = s._make(s.order - g, s._e, {k - k0: (d, {m - m0: c for m, c in nums.items()})
                                                for k, (d, nums) in s._p.items()})
        term = {m: sum(x * gkey[i] for i, x in enumerate(xs) if x)   # its leads' grade
                for m, xs in fields.items()}
        orders = [min([s.order] + [min(images[i].order, ws[i].order + Fraction(
            min(term[m] for m in ms if fields[m][i]), unit))
            for i in used if any(fields[m][i] for m in ms)]) for s, ms in zip(series, monos)]
        # the order each term's w product and each w power is needed to
        need, want = {}, {}
        for o, ms in zip(orders, monos):
            for m in ms:
                r = _key(o, unit) - term[m]
                if r >= need.get(m, 0):
                    need[m] = r
                    want.update({(i, x): max(want.get((i, x), 0), r)
                                 for i, x in enumerate(fields[m]) if x})
        # one power table per variable, each entry the last lower one times w
        # to the gap, so kept to the highest order a higher one needs
        top, factors, last = {}, {}, {}
        for i, x in sorted(want, reverse=True):
            top[i] = want[i, x] = max(want[i, x], top.get(i, 0))
        logs = {i: (_at(ws[i], Fraction(top[i], unit)) - 1).log_one_plus()
                for i in fractional if i in top}
        for (i, x), r in sorted(want.items()):
            if x > 0 and not x % E:
                k, p = last.get(i, (0, None))
                gap = ws[i].pow_int(x // E - k)
                r = Fraction(r, unit)
                p = factors[i, x] = _at(gap, r) if p is None else _at(p, r) * gap
                last[i] = (x // E, p)
            else:
                factors[i, x] = (_at(logs[i], Fraction(r, unit)) * Fraction(x, E)).exp()
        # each term's w product, to be shifted by its leads into each result
        prods = {}
        for m, r in need.items():
            xs = fields[m]
            fs = [factors[i, x] for i, x in enumerate(xs) if x]
            p = prod(fs[1:], start=_at(fs[0], Fraction(r, unit))) if fs else \
                _constant(like, 0, 1)
            prods[m] = (term[m], _scaled(p._p, D // p._e, like._names, D), _pack(
                like._names, [sum(x * lead[i][j] for i, x in enumerate(xs) if x)
                              for j in range(n)], D))
        out = []
        for o, store in zip(orders, stores):
            acc, cap = {}, _key(o, unit)
            for d, nums in store.values():
                for m, c in nums.items():
                    if m in prods:
                        g, pieces, shift = prods[m]
                        _mul_into(acc, g, d, {shift: c}, pieces, cap)
            out.append(like._make(o, D, acc))
        return out if more else out[0]

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"grading": {v: frac_str(w) for v, w in
                            sorted(self.weights.items(), key=lambda kv: var_key(kv[0]))},
                "order": frac_str(self.order),
                "terms": [{"exponents": {v: frac_str(e) for v, e in m}, "coeff": frac_str(c)}
                          for m, c in self.sorted_terms()]}


def _constant(like: Series, order, c) -> Series:
    """The constant series c on the grading of the series like."""
    c = frac(c)
    return like._make(order, 1, {0: (c.denominator, {0: c.numerator})})


# ---------------------------------------------------------------------------
# formal inversion of triangular coordinate changes


def _at(s: Series, order) -> Series:
    """s with its order set to order: s itself at its own, truncated below
    it (its kept pieces as they are), lifted above it without re-grading a
    term, where the caller knows the absent terms do not matter."""
    if order == s.order:
        return s
    top = _key(order, s._e * s._W)
    return s._make(order, s._e, {k: p for k, p in s._p.items() if k <= top}, True)


def _theta(s: Series, i: int, order) -> Series:
    """theta_v s = v ds/dv for the i-th variable v of s's grading, each term
    scaled by its exponent of v, at order as _at sets it."""
    n = len(s._names)
    return s._make(order, s._e, {k: (d * s._e, {m: c * _unpack(m, n)[i]
                                                for m, c in nums.items()})
                                 for k, (d, nums) in s._p.items()})


def invert_map(relations, order, *more):
    """Invert a formal coordinate change given by target = series-in-sources.

    relations: list of (target_variable, Series in the source variables).
    Each relation must factor as (monomial in sources) * (unit series with
    constant term 1); the matrix A of leading exponents must be invertible.
    Each target variable takes the grade of its leading monomial, so the
    base solution (the monomial part of each source) has the source's weight.

    Newton's method on log-corrections.  With x_v = base_v * exp(L_v) the
    relations say G = L + A^-1 log(1 + U) = 0, U_t = u_t(x) for the units
    u_t.  A round solves (I - M) D = G with M_vw = -sum_t A^-1_vt
    (theta_w u_t)(x) / (1 + U_t), theta_w = w d/dw, and sets L -= D; errors
    of L from grade s on leave errors from grade 2s + step on, step the
    least grade of a unit term.  L = 0 errs from step on, so one round
    reaches any order below 3 * step, and a round from L exact through p
    reaches 2p + step: the orders run p_k = (p_{k+1} - step) / 2 back from
    the top one until one is below 3 * step.  One substitution pass per
    round gives every log(1 + U_t) and theta_w log(1 + u_t) at x, which is
    (theta_w u_t)(x) / (1 + U_t).  G has grade >= s, so M is
    computed to order p - s only and lifted to p: its terms above p - s
    only reach grades above p in (I - M)^-1 G.

    A source no unit corrects is its base monomial, exact to order + max
    weight + 1.  Any other is known to its weight plus the least order its
    units support: a unit's own order, and for each of its terms, the
    term's grade plus the least order of the sources the term holds.

    Returns {source_variable: Series in the target variables}; with more,
    (that, the images of more's series, on the sources' grading), from the
    pass of one exact check: the relations evaluated at the result must give
    back the target variables, so a wrong inversion ends in a
    ConsistencyError that names the target, the order and the first wrong
    monomial, before any image is returned.
    """
    from .linalg import invert_rational

    op = "invert_map"
    if not relations:   # no sources: a series of more is its own image
        if any(s.weights for s in more):
            raise _err(op, "no relation inverts the variables of a series")
        return ({}, list(more)) if more else {}
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
    top = order + max(src_weights.values()) + 1
    n = len(sources)
    base_mono = [mono(*((factored[t][0], inv[b][t]) for t in range(n)))
                 for b in range(n)]
    units = [unit for _, _, unit in factored]
    live = [t for t in range(n) if not units[t].is_zero()]
    # the relative order each source is known to (docstring); one pass per
    # source settles it, since every grade is positive.  A unit's terms
    # enter only as the sources each holds, at the least grade holding them
    held = {}
    for t in live:
        u, least = units[t], {}
        for k, (_, nums) in u._p.items():
            for m in nums:
                least.setdefault(tuple(v for v, x in zip(sources, _unpack(m, n)) if x), k)
        held[t] = [(Fraction(k, u._e * u._W), vs) for vs, k in least.items()]
    rel = {v: top - w for v, w in src_weights.items()}
    for _ in sources:
        rel = {v: min([top - src_weights[v]] + [min([units[t].order] + [
            g + min(rel[c] for c in vs) for g, vs in held[t]])
            for t in live if inv[b][t]]) for b, v in enumerate(sources)}
    logs = [units[t].log_one_plus() for t in live]
    L = [Series.zero(weights, top)] * n
    if live:
        step = min(units[t].min_grade() for t in live)
        plan = [max(rel[v] for b, v in enumerate(sources) if any(inv[b][t] for t in live))]
        while plan[-1] >= 3 * step:
            plan.append((plan[-1] - step) / 2)
        known = step   # L = 0 is wrong from grade step on
        for p in reversed(plan):
            L = [_at(l, p) for l in L]
            x = {v: L[b].exp().mul_monomial(base_mono[b]) for b, v in enumerate(sources)}
            # every log(1 + U_t) to p and theta_w log(1 + u_t) at x to
            # p - known, from one pass
            U = _at(logs[0], p).substitute(
                x, *(_at(l, p) for l in logs[1:]),
                *(_theta(l, c, p - known) for l in logs for c in range(n)))
            G = [L[b] + sum(U[j] * inv[b][t] for j, t in enumerate(live) if inv[b][t])
                 for b in range(n)]
            B = [[sum((U[len(live) + j * n + c] * inv[b][t]
                       for j, t in enumerate(live) if inv[b][t]),
                      Series.zero(weights, p - known)) + int(b == c)
                  for c in range(n)] for b in range(n)]
            # Gauss-Jordan on [B | G] with unit pivots; a multiplier from B,
            # known to p - known, meets G of grade >= known lifted to p
            for k in range(n):
                pivot = B[k][k].pow_frac(-1)
                B[k], G[k] = [e * pivot for e in B[k]], G[k] * _at(pivot, p)
                for i in range(n):
                    if i != k:
                        f = B[i][k]
                        B[i] = [a - f * e for a, e in zip(B[i], B[k])]
                        G[i] = G[i] - _at(f, p) * G[k]
            L = [l - d for l, d in zip(L, G)]
            known = p
    assign = {v: _at(L[b], rel[v]).exp().mul_monomial(base_mono[b])
              for b, v in enumerate(sources)}

    # verify round trip: relation series evaluated at the assignment give back
    # exactly the target variables
    series = [s for _, s in relations] + list(more)
    images = series[0].substitute(assign, *series[1:])
    for (t, _), lhs in zip(relations, images if len(series) > 1 else [images]):
        rhs = Series.variable(t, weights, lhs.order)
        if not lhs.same_terms(rhs):
            raise ConsistencyError(MODULE, op, f"inversion round trip failed for {t}",
                                   {"target": t, "order": frac_str(lhs.order),
                                    "monomial": mono_str(lhs.first_difference(rhs)[1])})
    return (assign, images[n:]) if more else assign
