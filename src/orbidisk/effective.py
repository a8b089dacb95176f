"""Enumeration of effective classes up to a grading bound.

An effective class pairs integrally and nonnegatively with every extra-vector
divisor, and the columns where it pairs outside Z>=0 must span a cone of the
fan.  That forces, for some full-dimensional cone, the pairings on the
complementary columns to be nonnegative integers; those pairings are dual
coordinates, so enumeration reduces to a finite scan of integer multiplier
tuples per cone, merged and deduplicated.

The scan runs on ints over the class denominator L, the lcm of the
coordinate denominators of the anticone generators (3 on c3z3 and its bar, 1
on the other bundled fans).  A class is the int tuple C of its coordinates
times L, its pairings P_i = sum_a C_a gamma_a[i] (gamma is integral) and its
grade sum(C) are ints over the same L, and the sector has one int core on
(L, P).  An EffClass gets its Fractions after the sort.

On a compactification the enumeration stops at classes that meet the added
divisor D-infinity at most once (p-infinity = D-infinity . class <= 1).  Every
compactified class has z-exponent -p-infinity - age - #forced - [p-infinity >
0] (a column's z-count plus its forced flag is -ceil(p)).  A run reads only
z^-1, where the classes with p-infinity = 0 land; those with p-infinity = 1
reach z^-2 at most, where the tests check the D-infinity identity, and
those with p-infinity >= 2 lie below it.  The
scan carries each anticone generator's D-infinity pairing as a second budget
beside its grade, which is exact because every generator inside the bound
pairs with D-infinity in Z>=0; one that does not is refused.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from operator import add, mul

from .errors import ValidationError, ConsistencyError, Value, frac
from .fan import BoxElement, ToricData, zero_box

MODULE = "class-enumerator"


class EffClass(Value):
    coords: tuple     # coordinates in the kernel basis
    pairings: tuple   # pairing with every divisor column
    grade: Fraction
    sector: BoxElement


def _over(xs, L=1) -> tuple:
    """(L', ints): rationals over L', the lcm of L and their denominators."""
    xs = list(map(frac, xs))
    L = lcm(L, *(x.denominator for x in xs))
    return L, tuple(x.numerator * (L // x.denominator) for x in xs)


def _pairings(data, C) -> tuple:
    # int coordinates to int pairings; all 0 when the kernel is trivial
    cols = zip(*data.gamma) if C else [()] * data.m_prime
    return tuple(sum(map(mul, C, col)) for col in cols)


def _sector(data, L, P) -> BoxElement:
    coeffs = {i: -p % L for i, p in enumerate(P) if p % L}
    if not coeffs:
        return zero_box(data.n)
    if data.is_extra(max(coeffs)):
        raise ValidationError(MODULE, "sector", "fractional pairing on an "
                              "extra-vector column: class is not admissible",
                              min(i for i in coeffs if data.is_extra(i)))
    if not any(coeffs.keys() <= set(c) for c, _, _ in data.anticones):
        raise ValidationError(MODULE, "sector",
                              "fractional-support rays do not span a cone",
                              list(coeffs))
    vec = [sum(map(mul, coeffs.values(), xs))
           for xs in zip(*map(data.column_vector, coeffs))]
    if any(v % L for v in vec):
        raise ValidationError(MODULE, "sector",
                              "sector vector is not integral",
                              tuple(Fraction(v, L) for v in vec))
    # integral, with coefficients in (0, 1) on the rays of a cone: a box
    # element of that cone, so data.boxes lists it
    ivec = tuple(v // L for v in vec)
    return next(b for b in data.boxes if b.vector == ivec)


def _make(C, P, sec, of) -> EffClass:
    """The class of int coordinates C and pairings P; of(n) = n / L."""
    return EffClass(tuple(map(of, C)), tuple(map(of, P)), of(sum(C)), sec)


def sector(data: ToricData, pairings) -> BoxElement:
    """Box element attached to a class: ray-wise fractional parts of the
    negated pairings, located in the cone its support spans."""
    return _sector(data, *_over(pairings))


def eff_class(data: ToricData, coords) -> EffClass:
    L, C = _over(coords)
    P = _pairings(data, C)
    return _make(C, P, _sector(data, L, P), lambda v: Fraction(v, L))


def is_effective(data: ToricData, pairings) -> bool:
    """Membership test straight from the definition: the columns pairing
    outside Z>=0 lie in one cone, so none is extra."""
    L, P = _over(pairings)
    bad = {i for i, p in enumerate(P) if p < 0 or p % L}
    return any(bad.issubset(c) for c, _, _ in data.anticones)


def _scan(gens, grades, meets, i, room, spare, coords, found):
    """Record in found every coords + sum_{k >= i} mu_k gens[k] with mu >= 0,
    sum_{k >= i} mu_k grades[k] <= room and sum_{k >= i} mu_k meets[k] <=
    spare, in lexicographic mu order; every generator whose grade fits the
    room has meets >= 0."""
    if i == len(gens):
        found[coords] = None
        return
    g, w, d = gens[i], grades[i], meets[i]
    while room >= 0 and spare >= 0:
        _scan(gens, grades, meets, i + 1, room, spare, coords, found)
        coords = tuple(map(add, coords, g))
        room, spare = room - w, spare - d


def enumerate_effective(data: ToricData, bound) -> list:
    """All nonzero effective classes with grade <= bound, in canonical order;
    on a compactification (data.infinity_column set) only those that meet
    D-infinity at most once.  Each is a nonnegative integer combination of
    one maximal cone's anticone generators, so it is effective by design.

    Aborts when the grading fails to be positive on some admissible generator,
    or (plain fans) when an enumerated class has a negative coordinate: both
    mean the kernel basis was not adapted to the effective cone and a nef
    basis must be supplied.  On a compactification a generator inside the
    bound whose D-infinity pairing is not in Z>=0 is a ConsistencyError: the
    cap would be inexact, and hyper.z_extract takes only classes that meet
    D-infinity in Z>=0.
    """
    op = "enumerate_effective"
    bound = frac(bound)
    if data.r == 0 or bound <= 0:
        return []
    L = lcm(*(x.denominator for _, _, gens in data.anticones
              for g in gens for x in g))
    top = bound.numerator * L // bound.denominator
    inf = data.infinity_column
    # gamma's D-infinity column and the budget D-infinity . class <= 1, over
    # L; on a plain fan every generator meets D-infinity 0 times
    dinf = [0 if inf is None else row[inf] for row in data.gamma]
    spare = 0 if inf is None else L
    found = {}
    for cone, _, gens in data.anticones:
        ints = tuple(_over(g, L)[1] for g in gens)
        grades = tuple(map(sum, ints))
        meets = tuple(sum(map(mul, C, dinf)) for C in ints)
        for g, w, d in zip(gens, grades, meets):
            if w <= 0:
                raise ValidationError(
                    MODULE, op,
                    "grading is not positive on an admissible class; supply a "
                    "nef basis via basis_p", {"cone": cone, "generator": g,
                                              "grade": str(Fraction(w, L))})
            if w <= top and (d < 0 or d % L):
                raise ConsistencyError(MODULE, op, "class pairs badly with "
                                       "the added divisor", Fraction(d, L))
        _scan(ints, grades, meets, 0, top, spare, (0,) * data.r, found)
    found.pop((0,) * data.r, None)
    rows, sectors = [], {}
    of = cache(lambda v: Fraction(v, L))  # classes share their Fractions
    for C in found:
        P = _pairings(data, C)
        key = tuple(p % L for p in P)  # the sector depends on P mod L only
        sec = sectors.get(key) or sectors.setdefault(key, _sector(data, L, P))
        if data.infinity_column is None and min(C) < 0:
            raise ValidationError(
                MODULE, op,
                "enumerated effective class has a negative coordinate; supply "
                "a nef basis via basis_p", tuple(map(of, C)))
        rows.append((sum(C), C, P, sec))
    rows.sort()  # by (grade, C); C is unique, so no tie reaches P or sec
    return [_make(C, P, sec, of) for _, C, P, sec in rows]
