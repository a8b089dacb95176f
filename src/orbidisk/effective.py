"""Enumeration of effective classes up to a grading bound.

An effective class pairs integrally and nonnegatively with every extra-vector
divisor, and the columns where it pairs outside Z>=0 must span a cone of the
fan.  That forces, for some full-dimensional cone, the pairings on the
complementary columns to be nonnegative integers; those pairings are dual
coordinates, so enumeration reduces to a finite scan of integer multiplier
tuples per cone, merged and deduplicated.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError, ConsistencyError
from .fan import BoxElement, ToricData, zero_box
from .series import frac

MODULE = "class-enumerator"


@dataclass(frozen=True)
class EffClass:
    coords: tuple     # coordinates in the kernel basis
    pairings: tuple   # pairing with every divisor column
    grade: Fraction
    sector: BoxElement

    def is_zero(self):
        return all(c == 0 for c in self.coords)


def _is_nonneg_int(x: Fraction) -> bool:
    return x.denominator == 1 and x >= 0


def sector(data: ToricData, pairings) -> BoxElement:
    """Box element attached to a class: ray-wise fractional parts of the
    negated pairings, located in the cone its support spans."""
    op = "sector"
    pairings = [frac(p) for p in pairings]
    support = []
    coeffs = []
    for i, p in enumerate(pairings):
        f = (-p) - (-p).__floor__()
        if f != 0:
            if data.is_extra(i):
                raise ValidationError(MODULE, op,
                                      "fractional pairing on an extra-vector "
                                      "column: class is not admissible", i)
            support.append(i)
            coeffs.append(f)
    if not support:
        return zero_box(data.n)
    if not any(set(support) <= set(c) for c in data.max_cones):
        raise ValidationError(MODULE, op,
                              "fractional-support rays do not span a cone",
                              support)
    vec = tuple(
        sum(int(data.column_vector(i)[k]) * c for i, c in zip(support, coeffs))
        for k in range(data.n))
    ivec = tuple(int(x) for x in vec)
    if any(Fraction(i) != x for i, x in zip(ivec, vec)):
        raise ConsistencyError(MODULE, op, "sector vector is not integral", vec)
    for b in data.boxes:
        if b.vector == ivec:
            return b
    raise ConsistencyError(MODULE, op,
                           "sector vector is not a known box element", ivec)


def eff_class(data: ToricData, coords) -> EffClass:
    coords = tuple(frac(c) for c in coords)
    pairings = tuple(data.pairings_from_coords(coords))
    return EffClass(coords=coords, pairings=pairings,
                    grade=data.grade(coords), sector=sector(data, pairings))


def dual_class(data: ToricData, j) -> EffClass:
    """The effective class dual to extra column j."""
    pairings = data.dual_class_pairings(j)
    return eff_class(data, data.coords_from_pairings(pairings))


def is_effective(data: ToricData, pairings) -> bool:
    """Membership test straight from the definition."""
    pairings = [frac(p) for p in pairings]
    bad = [i for i, p in enumerate(pairings) if not _is_nonneg_int(p)]
    if any(data.is_extra(i) for i in bad):
        return False
    return any(set(bad) <= set(c) for c in data.max_cones)


def enumerate_effective(data: ToricData, bound) -> list:
    """All nonzero effective classes with grade <= bound, in canonical order.

    Aborts when the grading fails to be positive on some admissible generator,
    or (plain fans) when an enumerated class has a negative coordinate: both
    mean the kernel basis was not adapted to the effective cone and a nef
    basis must be supplied.
    """
    op = "enumerate_effective"
    bound = frac(bound)
    r = data.r
    if r == 0 or bound <= 0:
        return []
    found = {}
    for cone, _, gens in data.anticones:
        grades = [data.grade(g) for g in gens]
        for g, w in zip(gens, grades):
            if w <= 0:
                raise ValidationError(
                    MODULE, op,
                    "grading is not positive on an admissible class; supply a "
                    "nef basis via basis_p", {"cone": cone, "generator": g,
                                              "grade": str(w)})
        # scan multiplier tuples mu >= 0 with sum mu_i * grade_i <= bound
        def scan(i, coords, used):
            if i == r:
                if used == 0:
                    return
                key = tuple(coords)
                if key not in found:
                    found[key] = None
                return
            top = int((bound - used) / grades[i])
            for mu in range(top + 1):
                scan(i + 1,
                     [c + mu * g for c, g in zip(coords, gens[i])],
                     used + mu * grades[i])

        scan(0, [Fraction(0)] * r, Fraction(0))
    out = []
    for key in found:
        cls = eff_class(data, key)
        if cls.grade <= 0 or cls.grade > bound:
            continue
        if data.infinity_column is None and any(c < 0 for c in cls.coords):
            raise ValidationError(
                MODULE, op,
                "enumerated effective class has a negative coordinate; supply "
                "a nef basis via basis_p", cls.coords)
        if not is_effective(data, cls.pairings):
            raise ConsistencyError(MODULE, op,
                                   "enumerated class fails the membership test",
                                   cls.pairings)
        out.append(cls)
    out.sort(key=lambda c: (c.grade, c.coords))
    return out
