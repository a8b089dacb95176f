"""Hypergeometric factor expansion and coefficient extraction.

Each divisor column of a class contributes a factor

    prod_{a <= 0, <a> = <p>} (D + a z)  /  prod_{a <= p, <a> = <p>} (D + a z)

with p the pairing of the class with that column.  After cancelling the common
tail the factor is an explicit finite product; we track its exact scalar, its
z-exponent and whether a bare divisor factor survives (the a = 0 term of an
integer p <= -1).  mirrormap.g_series reads only the z^-1 terms with at
most one surviving divisor factor: no consumer reads past divisor-linear
data, and the divisor-linear corrections hidden in the denominators first
show up in weight-2 cohomology at z^-2, which no run consumes either.

In compactified mode the added ray's factor combines with the relative
modification into 1/(D + (D.d) z): a single 1/((D.d) z) scalar when the
pairing is positive, and 1 when it vanishes (empty products are 1).

The factors run on ints: z_extract takes a class's pairings as int numerators
P over their common denominator N, multiplies the int ratios num/den of its
columns and makes one Fraction per class, the ZFactors scalar.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .errors import ConsistencyError, Value
from .series import mono

MODULE = "ifunction-engine"


def _factor(P, N) -> tuple:
    """(num, den, z-count, forced), all ints, of the factor at p = P/N with
    scalar num/den: p > 0 divides by p, p - 1, ... while positive; p < 0 keeps
    the numerator terms p + 1, p + 2, ... while negative, and a bare divisor
    (its a = 0 term) when p is an integer."""
    up, down = range(P, 0, -N), range(P + N, 0, N)
    return (prod(down) * N ** len(up), prod(up) * N ** len(down),
            len(down) - len(up), int(P < 0 and P % N == 0))


class ZFactors(Value):
    """Combined factor data of one class."""
    z_exponent: Fraction
    scalar: Fraction
    forced_columns: tuple


def z_extract(data, cls) -> ZFactors:
    """Multiply the factor expansions of one effective class of `data`; on
    a compactified fan the infinity ray gets the combined relative factor.
    The class meets D-infinity in Z>=0, as every class enumerate_effective
    returns does: it refuses a generator that does not."""
    inf_col = data.infinity_column
    N = lcm(*(p.denominator for p in cls.pairings))
    P = [p.numerator * (N // p.denominator) for p in cls.pairings]
    num, den, z_exp, forced = 1, 1, 0, []
    for i, p in enumerate(P):
        if i != inf_col:
            a, b, count, f = _factor(p, N)
        else:
            a, b, count, f = (N, p, -1, 0) if p else (1, 1, 0, 0)
        num, den, z_exp = num * a, den * b, z_exp + count
        if f:
            forced.append(i)

    return ZFactors(Fraction(z_exp), Fraction(num, den), tuple(forced))


def y_monomial(data, coords):
    """Monomial of a class in the y-variables, from its coordinates (one per
    kernel basis vector)."""
    return mono(*zip(data.y_vars(), coords))


def relative_ifunction_oracle(cd, base) -> list:
    """The compactified effective classes at the order of `base`, the base
    fan's mirror map, whose z^-1 extractions mirrormap.g_series sums.

    The enumeration holds only the classes with p_inf = D_inf . class <= 1:
    a column's z-count plus its forced flag is -ceil(p), so every class has
    the z-exponent -p_inf - age - #forced - [p_inf > 0], and one that meets
    D_inf twice or more lies below z^-2.  The p_inf = 0 classes are checked
    against `base`.  The p_inf = 1 classes reach z^-2 at most; the tests
    assert that their z^-2 degree-0 part is y^D_inf with coefficient 1: by
    the Calabi-Yau covector a class of that part pairs 1 with one base
    column, the one opposite the added ray, so it is D_inf.
    """
    from .effective import enumerate_effective

    bar = cd.bar
    classes = enumerate_effective(bar, base.order)
    inf_col = bar.infinity_column
    # the zero-infinity-pairing slice of the compactified enumeration must be
    # exactly the classes `base` was built from: a class with an empty bad set is effective
    # for both, and a fractional one invisible to the base would mean its
    # support spans only an added cone, which the construction excludes
    embedded = {
        tuple(cd.base_to_bar_pairings(c.pairings)) for c in base.classes}
    flat = {tuple(c.pairings) for c in classes if c.pairings[inf_col] == 0}
    if embedded != flat:
        raise ConsistencyError(MODULE, "relative_ifunction_oracle",
                               "zero-infinity slice of the compactified "
                               "enumeration differs from the base enumeration",
                               sorted(embedded ^ flat)[:3])
    return classes
