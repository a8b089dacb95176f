"""Hypergeometric factor expansion and coefficient extraction.

Each divisor column of a class contributes a factor

    prod_{a <= 0, <a> = <p>} (D + a z)  /  prod_{a <= p, <a> = <p>} (D + a z)

with p the pairing of the class with that column.  After cancelling the common
tail the factor is an explicit finite product; we track its exact scalar, its
z-exponent and whether a bare divisor factor survives (the a = 0 term of an
integer p <= -1).  Terms with two or more surviving divisor factors are
discarded: no consumer reads past divisor-linear data, and the divisor-linear
corrections hidden in the denominators first show up in weight-2 cohomology at
z^-2, which nothing downstream consumes either.

In compactified mode the added ray's factor combines with the relative
modification into 1/(D + (D.d) z): a single 1/((D.d) z) scalar when the
pairing is positive, and 1 when it vanishes (empty products are 1).

The factors run on ints: z_extract takes a class's pairings as int numerators
P over their common denominator N, multiplies the int ratios num/den of its
columns and makes one Fraction per class, the ZFactors scalar.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod

from .errors import ConsistencyError, Value
from .series import Series, frac, mono

MODULE = "ifunction-engine"


class FactorExpansion(Value):
    z_exponent: Fraction
    scalar: Fraction
    forced_divisor: int  # 0 or 1


def _factor(P, N) -> tuple:
    """(num, den, z-count, forced), all ints, of the factor at p = P/N with
    scalar num/den: p > 0 divides by p, p - 1, ... while positive; p < 0 keeps
    the numerator terms p + 1, p + 2, ... while negative, and a bare divisor
    (its a = 0 term) when p is an integer."""
    up, down = range(P, 0, -N), range(P + N, 0, N)
    return (prod(down) * N ** len(up), prod(up) * N ** len(down),
            len(down) - len(up), int(P < 0 and P % N == 0))


def hyper_factor(p) -> FactorExpansion:
    """Expand one column factor: _factor at p's numerator and denominator."""
    p = frac(p)
    num, den, count, forced = _factor(p.numerator, p.denominator)
    return FactorExpansion(Fraction(count), Fraction(num, den), forced)


class ZFactors(Value):
    """Combined factor data of one class."""
    z_exponent: Fraction
    scalar: Fraction
    forced_columns: tuple

    def classify(self, cls):
        """One of ("sector", box), ("divisor", column), ("h0z2",), or None."""
        nf = len(self.forced_columns)
        if nf == 0 and self.z_exponent == -1:
            return ("sector", cls.sector)
        if nf == 1 and self.z_exponent == -1:
            return ("divisor", self.forced_columns[0])
        if nf == 0 and self.z_exponent == -2 and cls.sector.is_zero():
            return ("h0z2",)
        return None


def z_extract(data, cls) -> ZFactors:
    """Multiply the factor expansions of one effective class of `data`; on
    a compactified fan the infinity ray gets the combined relative factor."""
    inf_col = data.infinity_column
    N = lcm(*(p.denominator for p in cls.pairings))
    P = [p.numerator * (N // p.denominator) for p in cls.pairings]
    num, den, z_exp, forced = 1, 1, 0, []
    for i, p in enumerate(P):
        if i != inf_col:
            a, b, count, f = _factor(p, N)
        elif p < 0 or p % N:
            raise ConsistencyError(MODULE, "z_extract",
                                   "class pairs badly with the added divisor",
                                   cls.pairings[i])
        else:
            a, b, count, f = (N, p, -1, 0) if p else (1, 1, 0, 0)
        num, den, z_exp = num * a, den * b, z_exp + count
        if f:
            forced.append(i)

    # exponent bookkeeping: total z-weight plus surviving divisor count is
    # fixed by the anticanonical pairing and the sector age
    inf = 0 if inf_col is None else P[inf_col]
    age, shift = cls.sector.age, len(forced) + (inf > 0)
    if ((z_exp + shift) * N + sum(P) - inf) * age.denominator != \
            -age.numerator * N:
        raise ConsistencyError(MODULE, "z_extract",
                               "z-weight bookkeeping violated",
                               {"got": Fraction(z_exp), "want":
                                Fraction(inf - sum(P), N) - age - shift})
    return ZFactors(Fraction(z_exp), Fraction(num, den), tuple(forced))


def y_monomial(data, cls):
    """Monomial of a class in the y-variables (one per kernel basis vector)."""
    return mono(*zip(data.y_vars(), cls.coords))


class Slice(Value):
    """z^-1 and z^-2 coefficient data summed over enumerated classes."""
    sector_series: dict   # box vector -> Series
    divisor_series: dict  # column -> Series
    h0_z2: Series


def closed_form_ray_coefficient(pairings, j, skip=()):
    """Coefficient of a ray-series class in closed form:
    (-1)^(p-1) (-p-1)! / prod_{i != j} (pairing_i)! for pairing p < 0 at j."""
    p = frac(pairings[j])
    qs = [frac(q) for i, q in enumerate(pairings) if i != j and i not in skip]
    assert p.denominator == 1 and p < 0
    assert all(q.denominator == 1 and q >= 0 for q in qs)
    k = -p.numerator
    return Fraction((-1) ** (k - 1) * factorial(k - 1),
                    prod(factorial(q.numerator) for q in qs))


def coefficient_slice(data, classes, order) -> Slice:
    """Accumulate the z^-1 / z^-2 extractions of a list of classes: the terms
    of each series in one dict, then each Series built once.  Every
    divisor-linear coefficient is checked against its closed form."""
    inf_col = data.infinity_column
    # divisor-linear terms never pair with the added divisor
    skip = () if inf_col is None else (inf_col,)
    sectors, divisors, h0_z2 = {}, {}, {}
    for cls in classes:
        zf = z_extract(data, cls)
        kind = zf.classify(cls)
        if kind is None:
            continue
        if kind[0] == "sector":
            terms = sectors.setdefault(kind[1].vector, {})
        elif kind[0] == "divisor":
            assert inf_col is None or cls.pairings[inf_col] == 0
            expected = closed_form_ray_coefficient(cls.pairings, kind[1],
                                                   skip=skip)
            if zf.scalar != expected:
                raise ConsistencyError(MODULE, "coefficient_slice",
                                       "ray coefficient disagrees with its "
                                       "closed form",
                                       {"pairings": cls.pairings,
                                        "got": zf.scalar, "want": expected})
            terms = divisors.setdefault(kind[1], {})
        else:
            terms = h0_z2
        terms[y_monomial(data, cls)] = zf.scalar
    weights, order = data.y_weights(), frac(order)
    return Slice({k: Series(weights, order, t) for k, t in sectors.items()},
                 {k: Series(weights, order, t) for k, t in divisors.items()},
                 Series(weights, order, h0_z2))


def relative_ifunction_oracle(cd, bound):
    """Sum the extractions over the compactified effective classes.

    Returns (Slice, base_classes): the slice of the compactified fan and the
    base fan's own enumeration at the same bound.  The z^-2 part valued in
    the added divisor's degree-0 cohomology must be the single monomial of
    the compactifying class with coefficient one; anything else means the
    fan or the enumeration is inconsistent.
    """
    from .effective import enumerate_effective, eff_class

    op = "relative_ifunction_oracle"
    bound = frac(bound)
    bar = cd.bar
    classes = enumerate_effective(bar, bound)
    sl = coefficient_slice(bar, classes, bound)

    inf_col = bar.infinity_column
    # the zero-infinity-pairing slice of the compactified enumeration must be
    # exactly the base enumeration: a class with an empty bad set is effective
    # for both, and a fractional one invisible to the base would mean its
    # support spans only an added cone, which the construction excludes
    base_classes = enumerate_effective(cd.base, bound)
    embedded = {
        tuple(cd.base_to_bar_pairings(c.pairings)) for c in base_classes}
    flat = {tuple(c.pairings) for c in classes if c.pairings[inf_col] == 0}
    if embedded != flat:
        raise ConsistencyError(MODULE, op,
                               "zero-infinity slice of the compactified "
                               "enumeration differs from the base enumeration",
                               sorted(embedded ^ flat)[:3])

    d_inf_cls = eff_class(bar, bar.coords_from_pairings(cd.d_infinity))
    expect = Series.monomial(y_monomial(bar, d_inf_cls), 1, bar.y_weights(),
                             bound)
    if bound >= d_inf_cls.grade and not sl.h0_z2.same_terms(expect):
        raise ConsistencyError(
            MODULE, op,
            "z^-2 degree-0 extraction is not the single compactifying "
            "monomial", sl.h0_z2.first_difference(expect))
    return sl, base_classes
