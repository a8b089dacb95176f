"""Instanton-corrected mirror potential and its Landau-Ginzburg presentation.

The coefficient of each lattice exponent is a monomial in the flat variables,
pinned down by the exponent relations of the kernel basis once a gauge is
chosen (the torus action lets the coefficients on one full-dimensional cone be
set to 1).  The lattice exponents are reduced to n-1 effective coordinates by
splitting the lattice along the Calabi-Yau covector.
"""
from __future__ import annotations

from fractions import Fraction

from . import linalg
from .effective import dual_class
from .errors import ConsistencyError, ValidationError, Value
from .fan import ToricData
from .invariants import disk_potentials
from .series import frac, frac_str

MODULE = "syz-builder"


class GaugeChoice(Value):
    cone: tuple  # ray indices of a listed full-dimensional cone

    @classmethod
    def for_data(cls, data: ToricData, cone_index=0):
        cones = data.max_cones
        if not (0 <= cone_index < len(cones)):
            raise ValidationError(MODULE, "gauge", f"no maximal cone {cone_index}",
                                  cone_index)
        return cls(cone=tuple(cones[cone_index]))


def _q_exponents_of_dual(data: ToricData, j):
    """Flat-variable exponent vector of the dual-class monomial of extra j."""
    d = dual_class(data, j)
    return [d.coords[a] for a in range(data.r_prime)]


def solve_coefficient_system(data: ToricData, gauge: GaugeChoice) -> dict:
    """Monomial coefficients per column, as flat-variable exponent vectors.

    Gauge-fixed columns get the empty exponent vector (coefficient 1).  The
    exponent relations determine the rest uniquely: the unknowns are the
    gauge cone's anticone, and its generators invert the relation block.
    """
    op = "solve_coefficient_system"
    gauge_cone = sorted(gauge.cone)
    entry = next((e for e in data.anticones if sorted(e[0]) == gauge_cone), None)
    if entry is None:
        raise ValidationError(MODULE, op, "gauge cone is not a listed maximal cone",
                              gauge.cone)
    _, unknowns, gens = entry
    r, rp = data.r, data.r_prime
    rhs = _relation_rhs(data)
    sol = {i: [Fraction(0)] * rp for i in range(data.m_prime)}
    for u, g in zip(unknowns, gens):
        sol[u] = [sum(g[row] * rhs[row][k] for row in range(r))
                  for k in range(rp)]
    _verify_coefficient_relations(data, sol, rhs)
    return sol


def _relation_rhs(data: ToricData) -> list:
    """Right-hand side per relation row, one exponent slot per flat variable:
    the unit vector on a flat row, minus the dual-class exponents of the
    extra columns on the others."""
    r, rp = data.r, data.r_prime
    duals = {j: _q_exponents_of_dual(data, j) for j in data.extra_columns()
             if any(data.gamma[row][j] for row in range(rp, r))}
    rhs = []
    for row in range(r):
        vec = [Fraction(int(k == row)) for k in range(rp)]
        if row >= rp:
            for j, dq in duals.items():
                vec = [x - data.gamma[row][j] * d for x, d in zip(vec, dq)]
        rhs.append(vec)
    return rhs


def _verify_coefficient_relations(data: ToricData, sol, rhs):
    """Substitute the solved exponents back into the defining relations."""
    op = "solve_coefficient_system"
    r, rp = data.r, data.r_prime
    for row in range(r):
        lhs = [Fraction(0)] * rp
        cols = range(data.m) if row < rp else range(data.m_prime)
        for i in cols:
            mia = data.gamma[row][i]
            if mia:
                for k in range(rp):
                    lhs[k] += mia * sol[i][k]
        if lhs != rhs[row]:
            raise ConsistencyError(MODULE, op,
                                   "solved coefficients violate a defining "
                                   "relation", {"row": row, "lhs": lhs,
                                                "want": rhs[row]})


def covector_splitting(data: ToricData):
    """(basis of the covector's kernel sublattice, section vector w).

    Every lattice exponent b splits as w + (b - w) with the difference in the
    kernel sublattice; its coordinates there are the reduced exponents."""
    op = "mirror_potential"
    v = data.cy_covector
    if v is None:
        raise ValidationError(MODULE, op, "Calabi-Yau covector required", None)
    n = data.n
    s, u, vm = linalg.smith_normal_form([list(v)])
    if abs(s[0][0]) != 1:
        raise ConsistencyError(MODULE, op, "covector is not primitive", v)
    basis = [[vm[i][j] for i in range(n)] for j in range(1, n)]  # ker of v
    sign = s[0][0] * u[0][0]
    w = [sign * vm[i][0] for i in range(n)]
    if sum(vi * wi for vi, wi in zip(v, w)) != 1:
        raise ConsistencyError(MODULE, op, "covector section failed", w)
    return basis, w


def reduced_exponent(data: ToricData, basis, w, b):
    """Coordinates of b - w over the kernel sublattice basis."""
    n = data.n
    target = [b[i] - w[i] for i in range(n)]
    a = [[basis[j][i] for j in range(len(basis))] for i in range(n)]
    x = linalg.solve_rational(a, target)
    if x is None or any(c.denominator != 1 for c in x):
        raise ConsistencyError(MODULE, "mirror_potential",
                               "exponent does not reduce integrally", b)
    return [int(c) for c in x]


class MirrorPotential(Value):
    data: ToricData
    gauge: GaugeChoice
    coefficients: dict        # column -> exponent vector over flat variables
    terms: list               # (column, lattice vector, reduced, series)
    basis: list               # kernel sublattice basis (columns)
    section: list             # w


def mirror_potential(data: ToricData, gauge: GaugeChoice,
                     order) -> MirrorPotential:
    """Assemble the corrected potential from the disk potentials of every ray
    and every extra vector."""
    order = frac(order)
    potentials = disk_potentials(data, order)
    sol = solve_coefficient_system(data, gauge)
    basis, w = covector_splitting(data)
    terms = []
    for (_, i), dp in potentials.items():
        vec = tuple(data.column_vector(i))
        red = reduced_exponent(data, basis, w, vec)
        terms.append((i, vec, tuple(red), dp.series.truncate(
            min(order, dp.series.order))))
    return MirrorPotential(data=data, gauge=gauge, coefficients=sol,
                           terms=terms, basis=basis, section=w)


def emit_lg_model(mp: MirrorPotential) -> dict:
    """Serialized Landau-Ginzburg presentation uv = G, superpotential u."""
    data = mp.data
    q_names = [f"q{a + 1}" for a in range(data.r_prime)]
    doc = {
        "equation": "uv = G",
        "W": "u",
        "gauge": {"cone": list(mp.gauge.cone)},
        "covector_basis": {
            "kernel_basis": [list(b) for b in mp.basis],
            "section": list(mp.section),
            "covector": list(data.cy_covector),
        },
        "terms": [],
    }
    for i, vec, red, series in mp.terms:
        coeff = {q_names[k]: frac_str(e)
                 for k, e in enumerate(mp.coefficients[i]) if e != 0}
        doc["terms"].append({
            "column": i,
            "exponent": list(vec),
            "reduced_exponent": list(red),
            "C": coeff,
            "series": series.to_json(),
        })
    return doc

