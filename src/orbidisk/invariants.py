"""Disk potentials, individual invariants, and the two-route cross-check.

The potential of a basic disk class is y^dual * exp(-sum_i c_i g_i(y)) with y
replaced by the inverse mirror map: the sum runs over the rays i of the
disk's cone with their coefficients c_i, and y^dual is the monomial of its
dual class.  A ray disk is its own cone with coefficient 1 and no dual class,
so its potential is exp(-g_i) and starts at 1; a box disk's starts at its
twisted variable.  The same series is reproduced along an independent route
on the compactified fan: invert the relative mirror map and read off the
compactifying monomial divided by its flat variable.  The two must agree
exactly, term by term; both rest on one base mirror map, built at the
compactified order.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import ConsistencyError, ValidationError, Value, frac, frac_str
from .fan import CompactifiedData, ToricData
from .hyper import y_monomial
from .mirrormap import (MirrorMap, cone_sum, inverse_mirror_map,
                        relative_mirror_map, toric_mirror_map)
from .series import Series, mono, mono_pow, mono_str

MODULE = "invariants"


class DiskPotential(Value):
    disk: tuple             # ("ray", i) or ("box", j)
    series: Series          # in flat/twisted variables
    normalization: str      # "1+delta" or "tau+delta"
    data: ToricData

    def to_json(self):
        return {
            "disk": f"{self.disk[0]}:{self.disk[1]}",
            "normalization": self.normalization,
            "series": self.series.to_json(),
        }


def disk_potential(mirror: MirrorMap, disk) -> DiskPotential:
    """Generating series of the invariants attached to one basic disk class,
    ("ray", i) or ("box", j), read off a mirror map at its order."""
    return _potentials(mirror, [disk])[tuple(disk)]


def disk_potentials(mirror: MirrorMap) -> dict:
    """{disk: DiskPotential} for every disk of the disk table (each ray and
    each extra column, in column order), all read off one mirror map and its
    inverse."""
    return _potentials(mirror, list(mirror.data.disks))


def _potentials(mirror: MirrorMap, disks) -> dict:
    """{disk: DiskPotential} for a list of disks: their head monomials and
    cone sums go to the inverse in the pass that checks it.  Each starts at
    1 or at its tau with coefficient 1: the inverse takes a box disk's head,
    the lead of tau = y^dual (1 + u), to tau (1 + positive grade), and exp of
    a cone sum starts at 1."""
    data, out = mirror.data, {}
    classes = [data.disk_class(disk) for disk in disks]
    heads = [Series.monomial(y_monomial(data, dual), data.y_weights(),
                             mirror.order) for _, _, _, dual in classes]
    expos = [cone_sum(mirror, cone, coeffs) for cone, coeffs, _, _ in classes]
    _, images = inverse_mirror_map(mirror, *heads, *expos)
    for (kind, idx), head, expo in zip(disks, images, images[len(disks):]):
        normalization = "1+delta" if kind == "ray" else "tau+delta"
        out[kind, idx] = DiskPotential(disk=(kind, idx),
                                       series=head * (-expo).exp(),
                                       normalization=normalization, data=data)
    return out


# ---------------------------------------------------------------------------
# invariant extraction


class InvariantTable(Value):
    disk: tuple
    entries: dict   # (alpha tuple, ((label, count), ...)) -> Fraction
    data: ToricData

    def value(self, alpha, insertions=()):
        """The entry at alpha and the (label, count) insertions as given, so
        a fractional alpha or count finds none; 0 where there is none."""
        key = (tuple(alpha), tuple(sorted((l, k) for l, k in insertions)))
        return self.entries.get(key, Fraction(0))

    def to_json(self):
        rows = []
        for (alpha, ins), val in sorted(self.entries.items()):
            rows.append({"alpha": list(alpha),
                         "insertions": {l: k for l, k in ins},
                         "value": frac_str(val)})
        return rows


def extract_invariants(dp: DiskPotential) -> InvariantTable:
    """Unpack a potential into individual invariant values.

    The coefficient of q^alpha prod tau_v^{k_v} carries the invariant with
    l = sum k_v insertions divided by prod k_v! (unordered insertions), so the
    table entry multiplies the factorials back in.
    """
    op = "extract_invariants"
    data = dp.data
    # an insertion is labelled by its box element, the extra column's vector
    tau_boxes = {data.tau_name(j):
                 "b" + ",".join(map(str, data.column_vector(j)))
                 for j in data.extra_columns()}
    q_names = data.q_vars()
    entries = {}
    for m, coeff in dp.series.terms.items():
        alpha = [Fraction(0)] * len(q_names)
        counts = {}
        for v, e in m:
            if v in tau_boxes:
                counts[tau_boxes[v]] = e
            elif v in q_names:
                alpha[q_names.index(v)] = e
            else:
                raise ConsistencyError(MODULE, op,
                                       f"unexpected variable {v} in potential",
                                       v)
        exps = (*alpha, *counts.values())
        if any(e < 0 for e in exps):
            raise ConsistencyError(MODULE, op,
                                   "non-representable exponent in potential "
                                   "monomial", m)
        if any(e.denominator != 1 for e in exps):
            raise ValidationError(MODULE, op, "the invariant table holds "
                                  "integral exponents only; the potential has "
                                  f"the monomial {mono_str(m)}", m)
        mult = Fraction(1)
        for k in counts.values():
            mult *= factorial(int(k))
        key = (tuple(int(a) for a in alpha),
               tuple(sorted((l, int(k)) for l, k in counts.items())))
        entries[key] = coeff * mult
    return InvariantTable(disk=dp.disk, entries=entries, data=data)


# ---------------------------------------------------------------------------
# the independent route through the compactified fan


def oracle_potential(cd: CompactifiedData, base: MirrorMap) -> Series:
    """The same potential out of the compactified mirror map alone, at the
    order of the base fan's mirror map `base` less the weight of qinf.
    Inverts the relative mirror map, evaluates the compactifying-class
    monomial under the inverse and strips its flat variable.  The image is
    qinf times a series in the other variables, as the tests assert over the
    corpus: qinf's relation is the only one that holds yinf, and the
    monomial of D_inf is yinf.
    """
    bar = cd.bar
    qinf = bar.q_vars()[bar.r_prime]
    mm = relative_mirror_map(cd, base)
    head = y_monomial(bar, cd.d_infinity_coords)
    _, (val,) = inverse_mirror_map(
        mm, Series.monomial(head, bar.y_weights(), base.order))
    out = val.mul_monomial(mono_pow(mono((qinf, 1)), -1))
    # re-express without the qinf variable (stripping it lowered the order)
    weights = {v: w for v, w in out.weights.items() if v != qinf}
    return Series(weights, out.order, dict(out.terms))


def compare_potentials(cd: CompactifiedData, order):
    """Both derivations of the potential; they must agree exactly.

    One base mirror map, built at the bar order order + w_inf, serves both
    routes; route 1 truncates it to `order`.  Returns (disk_potential,
    oracle_series) or raises ConsistencyError at the first difference.
    """
    op = "compare_potentials"
    order = frac(order)
    w_inf = cd.bar.grade(cd.beta_bar_coords)
    if w_inf <= 0:
        raise ConsistencyError(MODULE, op,
                               "disk class has non-positive grade", w_inf)
    base = toric_mirror_map(cd.base, order + w_inf)
    dp = disk_potential(base.truncate(order), cd.disk)
    oracle = oracle_potential(cd, base)
    if not dp.series.same_terms(oracle):
        raise ConsistencyError(MODULE, op,
                               "potential disagrees with its compactified "
                               "derivation", dp.series.first_difference(oracle))
    return dp, oracle
