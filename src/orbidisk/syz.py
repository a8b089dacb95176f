"""Instanton-corrected mirror potential and its Landau-Ginzburg presentation.

The coefficient of each lattice exponent is a monomial in the flat variables,
pinned down by the exponent relations of the kernel basis once a gauge is
chosen (the torus action lets the coefficients on one full-dimensional cone be
set to 1).  The lattice exponents are reduced to n-1 effective coordinates by
splitting the lattice along the Calabi-Yau covector.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul

# the series layers are bound as modules and read at call time, so a
# refused --gauge compiles none of them
from . import invariants, linalg, mirrormap
from .errors import ValidationError, Value, frac_str
from .fan import ToricData

MODULE = "syz-builder"


def _gauge_entry(data: ToricData, k):
    """The anticone-table entry of gauge k, the index of a maximal cone."""
    if not (0 <= k < len(data.anticones)):
        raise ValidationError(MODULE, "gauge", f"no maximal cone {k}", k)
    return data.anticones[k]


def solve_coefficient_system(data: ToricData, k) -> dict:
    """Monomial coefficients per column, as flat-variable exponent vectors,
    in the gauge of maximal cone k, the index into data.anticones.

    Gauge-fixed columns get the empty exponent vector (coefficient 1).  The
    exponent relations determine the rest uniquely: the unknowns are the
    gauge cone's anticone, and its generators invert the relation block.
    A flat row's relation runs over the rays only, and the solution meets
    it only where the extra columns vanish on the flat rows: any basis that
    is not split is refused.
    """
    _, unknowns, gens = _gauge_entry(data, k)
    data.require_split(MODULE, "solve_coefficient_system")
    r, rp = data.r, data.r_prime
    rhs = _relation_rhs(data)
    sol = {i: [Fraction(0)] * rp for i in range(data.m_prime)}
    for u, g in zip(unknowns, gens):
        sol[u] = [sum(g[row] * rhs[row][c] for row in range(r))
                  for c in range(rp)]
    return sol


def _relation_rhs(data: ToricData) -> list:
    """Right-hand side per relation row, one exponent slot per flat variable:
    the unit vector on a flat row, minus the dual-class exponents of the
    extra columns on the others."""
    r, rp = data.r, data.r_prime
    # flat-variable exponents of the dual-class monomials, off the disk table
    duals = {j: data.disk_class(("box", j))[3][:rp] for j in data.extra_columns()
             if any(data.gamma[row][j] for row in range(rp, r))}
    rhs = []
    for row in range(r):
        vec = [Fraction(int(k == row)) for k in range(rp)]
        if row >= rp:
            for j, dq in duals.items():
                vec = [x - data.gamma[row][j] * d for x, d in zip(vec, dq)]
        rhs.append(vec)
    return rhs


def covector_splitting(data: ToricData):
    """(basis of the covector's kernel sublattice, section vector w, the
    rows that reduce an exponent).

    Every lattice exponent b splits as w + (b - w) with the difference in the
    kernel sublattice; its coordinates there are the reduced exponents.  The
    covector pairs to 1 with a column, so its Smith diagonal is +-1 and the
    Smith form's unimodular vm has +-w and the basis as its columns: rows
    1..n-1 of its inverse vanish on w and take b to those coordinates."""
    op = "mirror_potential"
    v = data.cy_covector
    if v is None:
        raise ValidationError(MODULE, op, "Calabi-Yau covector required", None)
    n = data.n
    s, u, vm = linalg.smith_normal_form([list(v)])
    basis = [[vm[i][j] for i in range(n)] for j in range(1, n)]  # ker of v
    sign = s[0][0] * u[0][0]
    w = [sign * vm[i][0] for i in range(n)]
    rows = [[int(x) for x in row] for row in linalg.invert_rational(vm)[1:]]
    return basis, w, rows


class MirrorPotential(Value):
    data: ToricData
    gauge: tuple              # ray indices of the gauge cone
    coefficients: dict        # column -> exponent vector over flat variables
    terms: list               # (column, lattice vector, reduced, series)
    basis: list               # kernel sublattice basis (columns)
    section: list             # w


def mirror_potential(data: ToricData, k, order) -> MirrorPotential:
    """Assemble the corrected potential from the disk potentials of every ray
    and every extra vector, in the gauge of maximal cone k.  A k outside the
    anticone table is refused before any series work."""
    gauge = _gauge_entry(data, k)[0]
    potentials = invariants.disk_potentials(
        mirrormap.toric_mirror_map(data, order))
    sol = solve_coefficient_system(data, k)
    basis, w, rows = covector_splitting(data)
    terms = []
    for (_, i), dp in potentials.items():
        vec = tuple(data.column_vector(i))
        red = tuple(sum(map(mul, row, vec)) for row in rows)
        terms.append((i, vec, red, dp.series))
    return MirrorPotential(data=data, gauge=gauge, coefficients=sol,
                           terms=terms, basis=basis, section=w)


def emit_lg_model(mp: MirrorPotential) -> dict:
    """Landau-Ginzburg presentation uv = G, superpotential u: a document of
    JSON values, except that each term holds its Series (serialized through
    Series.to_json)."""
    data = mp.data
    q_names = data.q_vars()
    doc = {
        "equation": "uv = G",
        "W": "u",
        "gauge": {"cone": list(mp.gauge)},
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
            "series": series,
        })
    return doc

