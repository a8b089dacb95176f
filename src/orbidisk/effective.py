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
grade sum(C) are ints over the same L, and membership and the sector each
have one int core on (L, P).  An EffClass gets its Fractions after the sort.
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
        raise ConsistencyError(MODULE, "sector",
                               "sector vector is not integral",
                               tuple(Fraction(v, L) for v in vec))
    ivec = tuple(v // L for v in vec)
    for b in data.boxes:
        if b.vector == ivec:
            return b
    raise ConsistencyError(MODULE, "sector",
                           "sector vector is not a known box element", ivec)


def _effective(data, L, P) -> bool:
    # the columns pairing outside Z>=0 lie in one cone, so none is extra
    bad = {i for i, p in enumerate(P) if p < 0 or p % L}
    return any(bad.issubset(c) for c, _, _ in data.anticones)


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
    """Membership test straight from the definition."""
    return _effective(data, *_over(pairings))


def _scan(gens, grades, i, room, coords, found):
    """Record in found every coords + sum_{k >= i} mu_k gens[k] with mu >= 0
    and sum_{k >= i} mu_k grades[k] <= room, in lexicographic mu order."""
    if i == len(gens):
        found[coords] = None
        return
    g, w = gens[i], grades[i]
    while room >= 0:
        _scan(gens, grades, i + 1, room, coords, found)
        coords = tuple(map(add, coords, g))
        room -= w


def enumerate_effective(data: ToricData, bound) -> list:
    """All nonzero effective classes with grade <= bound, in canonical order.

    Aborts when the grading fails to be positive on some admissible generator,
    or (plain fans) when an enumerated class has a negative coordinate: both
    mean the kernel basis was not adapted to the effective cone and a nef
    basis must be supplied.
    """
    op = "enumerate_effective"
    bound = frac(bound)
    if data.r == 0 or bound <= 0:
        return []
    L = lcm(*(x.denominator for _, _, gens in data.anticones
              for g in gens for x in g))
    top = bound.numerator * L // bound.denominator
    found = {}
    for cone, _, gens in data.anticones:
        ints = tuple(_over(g, L)[1] for g in gens)
        grades = tuple(map(sum, ints))
        for g, w in zip(gens, grades):
            if w <= 0:
                raise ValidationError(
                    MODULE, op,
                    "grading is not positive on an admissible class; supply a "
                    "nef basis via basis_p", {"cone": cone, "generator": g,
                                              "grade": str(Fraction(w, L))})
        _scan(ints, grades, 0, top, (0,) * data.r, found)
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
        if not _effective(data, L, P):
            raise ConsistencyError(MODULE, op,
                                   "enumerated class fails the membership test",
                                   tuple(map(of, P)))
        rows.append((sum(C), C, P, sec))
    rows.sort()  # by (grade, C); C is unique, so no tie reaches P or sec
    return [_make(C, P, sec, of) for _, C, P, sec in rows]
