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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ConsistencyError
from .series import Series, frac, mono

MODULE = "ifunction-engine"


@dataclass(frozen=True)
class FactorExpansion:
    z_exponent: Fraction
    scalar: Fraction
    forced_divisor: int  # 0 or 1


def hyper_factor(p) -> FactorExpansion:
    """Expand one column factor by literal iteration over the progression.

    p > 0 divides by p, p - 1, ... while they are positive; p < 0 keeps the
    numerator terms p + 1, p + 2, ... while they are negative.  A negative
    integer p also leaves a bare divisor (its numerator term a = 0).
    """
    p = frac(p)
    scalar, count = Fraction(1), 0
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
    return FactorExpansion(Fraction(count), scalar,
                           int(p < 0 and p.denominator == 1))


@dataclass(frozen=True)
class ZFactors:
    """Combined factor data of one class."""
    z_exponent: Fraction
    scalar: Fraction
    forced_columns: tuple
    infinity_pairing: Fraction | None

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
    """Multiply the factor expansions of one effective class.

    `data` is the toric data the class lives on; on a compactified fan the
    infinity ray gets the combined relative factor.
    """
    inf_col = data.infinity_column
    z_exp = Fraction(0)
    scalar = Fraction(1)
    forced = []
    inf_pair = None
    for i, p in enumerate(cls.pairings):
        p = frac(p)
        if i == inf_col:
            inf_pair = p
            if p < 0 or p.denominator != 1:
                raise ConsistencyError(MODULE, "z_extract",
                                       "class pairs badly with the added divisor",
                                       p)
            if p > 0:
                z_exp -= 1
                scalar /= p
            continue
        f = hyper_factor(p)
        z_exp += f.z_exponent
        scalar *= f.scalar
        if f.forced_divisor:
            forced.append(i)

    # exponent bookkeeping: total z-weight plus surviving divisor count is
    # fixed by the anticanonical pairing and the sector age
    toric_sum = sum((frac(p) for i, p in enumerate(cls.pairings) if i != inf_col),
                    Fraction(0))
    expected = -toric_sum - cls.sector.age - len(forced)
    if inf_pair is not None and inf_pair > 0:
        expected -= 1
    if z_exp != expected:
        raise ConsistencyError(MODULE, "z_extract",
                               "z-weight bookkeeping violated",
                               {"got": z_exp, "want": expected})
    return ZFactors(z_exponent=z_exp, scalar=scalar,
                    forced_columns=tuple(forced), infinity_pairing=inf_pair)


def y_monomial(data, cls):
    """Monomial of a class in the y-variables (one per kernel basis vector)."""
    names = data.y_vars()
    return mono(*((names[a], cls.coords[a]) for a in range(data.r)))


@dataclass(frozen=True)
class Slice:
    """z^-1 and z^-2 coefficient data summed over enumerated classes."""
    sector_series: dict   # box vector -> Series
    divisor_series: dict  # column -> Series
    h0_z2: Series


def closed_form_ray_coefficient(pairings, j, skip=()):
    """Coefficient of a ray-series class in closed form:
    (-1)^(p-1) (-p-1)! / prod_{i != j} (pairing_i)! for pairing p < 0 at j."""
    p = frac(pairings[j])
    assert p.denominator == 1 and p < 0
    num = Fraction((-1) ** (int(-p) - 1)) * factorial(int(-p) - 1)
    den = Fraction(1)
    for i, q in enumerate(pairings):
        if i == j or i in skip:
            continue
        q = frac(q)
        assert q.denominator == 1 and q >= 0
        den *= factorial(int(q))
    return num / den


def coefficient_slice(data, classes, order) -> Slice:
    """Accumulate the z^-1 / z^-2 extractions of a list of classes.

    Every divisor-linear coefficient is checked against its closed form.
    """
    weights = data.y_weights()
    sectors, divisors = {}, {}
    h0_z2 = Series.zero(weights, frac(order))
    for cls in classes:
        zf = z_extract(data, cls)
        kind = zf.classify(cls)
        if kind is None:
            continue
        term = Series.monomial(y_monomial(data, cls), zf.scalar, weights,
                               frac(order))
        if kind[0] == "sector":
            key = kind[1].vector
            sectors[key] = sectors.get(
                key, Series.zero(weights, frac(order))) + term
        elif kind[0] == "divisor":
            key = kind[1]
            skip = ()
            if data.infinity_column is not None:
                # divisor-linear terms never pair with the added divisor
                assert cls.pairings[data.infinity_column] == 0
                skip = (data.infinity_column,)
            expected = closed_form_ray_coefficient(cls.pairings, key,
                                                   skip=skip)
            if zf.scalar != expected:
                raise ConsistencyError(MODULE, "coefficient_slice",
                                       "ray coefficient disagrees with its "
                                       "closed form",
                                       {"pairings": cls.pairings,
                                        "got": zf.scalar, "want": expected})
            divisors[key] = divisors.get(
                key, Series.zero(weights, frac(order))) + term
        else:
            h0_z2 = h0_z2 + term
    return Slice(sector_series=sectors, divisor_series=divisors, h0_z2=h0_z2)


def relative_ifunction_oracle(cd, bound):
    """Sum the extractions over the compactified effective classes.

    Returns {"z1_sectors", "z1_divisors", "z2_h0", "base_classes"}: the
    slice of the compactified fan and the base fan's own enumeration at the
    same bound.  The z^-2 part valued in the added divisor's degree-0
    cohomology must be the single monomial of the compactifying class with
    coefficient one; anything else means the fan or the enumeration is
    inconsistent.
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
    return {"z1_sectors": sl.sector_series,
            "z1_divisors": sl.divisor_series,
            "z2_h0": sl.h0_z2,
            "base_classes": base_classes}
