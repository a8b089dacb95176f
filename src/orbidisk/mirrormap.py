"""Mirror-map series, forward coordinate change, and its formal inverse.

The building blocks are one scalar series per column: rays pick up the
divisor-linear z^-1 extraction, extra vectors the twisted-sector one.  Each
flat coordinate variable corresponds to a curve class c, and its relation is

    log q_c = sum_b (p_b . c) log y_b + sum_{j in rays} (divisor_j . c) g_j(y)

with the tau relation tau_v = g_v(y) for every extra vector.  On compactified
data the added variable's curve class is the compactified disk class; the
non-infinity relations must restrict to the base fan's mirror map, which the
caller builds once at the compactified order and which is asserted.
"""
from __future__ import annotations

from fractions import Fraction

from .effective import enumerate_effective
from .errors import ConsistencyError, ValidationError, Value, frac, frac_str
from .fan import CompactifiedData, ToricData, verify_semi_fano
from .hyper import coefficient_slice, relative_ifunction_oracle, y_monomial
from .series import Series, invert_map, mono_grade

MODULE = "mirror-maps"


def g_series(data: ToricData, sector_series, divisor_series, order) -> dict:
    """Scalar mirror-map series of every column, {column: Series}, from the
    z^-1 pieces of one coefficient slice: a ray takes its divisor series, an
    extra vector the sector series of its box element."""
    zero = Series.zero(data.y_weights(), frac(order))
    g = {j: divisor_series.get(j, zero) for j in range(data.m)}
    for j in data.extra_columns():
        g[j] = sector_series.get(tuple(data.column_vector(j)), zero)
    return g


class Relation(Value):
    """One forward relation: target = monomial(y) * exp(correction(y)),
    or target = series(y) for twisted-sector targets."""
    target: str
    kind: str              # "flat" or "twisted"
    series: Series         # the full right-hand side
    monomial: tuple = ()   # flat only
    correction: Series | None = None  # flat only

    def to_json(self):
        d = {"target": self.target, "kind": self.kind,
             "series": self.series.to_json()}
        return d


class MirrorMap(Value):
    data: ToricData
    order: Fraction
    g: dict                      # column -> Series
    relations: list
    classes: list                # the effective classes g was summed over

    def truncate(self, order) -> MirrorMap:
        """The same map at a lower order: g truncated and the relations
        reassembled from it, so an order below a relation's leading grade is
        refused exactly as toric_mirror_map refuses it."""
        order = frac(order)
        g = {j: s.truncate(order) for j, s in self.g.items()}
        return MirrorMap(self.data, order, g, _relations(self.data, g, order),
                         [c for c in self.classes if c.grade <= order])

    def to_json(self):
        return {
            "order": str(self.order),
            "g": {str(j): s.to_json() for j, s in sorted(self.g.items())},
            "relations": [r.to_json() for r in self.relations],
        }


def cone_sum(mm: MirrorMap, cone, coeffs) -> Series:
    """sum_i c_i g_i of a map's column series over a disk's cone."""
    out = Series.zero(mm.data.y_weights(), mm.order)
    for i, c in zip(cone, coeffs):
        out = out + mm.g[i] * c
    return out


def _flat_relation(data: ToricData, target, curve_coords, g, order) -> Relation:
    """Assemble target = prod_b y_b^{p_b.c} * exp(sum_j (D_j.c) g_j)."""
    weights = data.y_weights()
    curve_coords = [frac(x) for x in curve_coords]
    m = y_monomial(data, curve_coords)
    grade = mono_grade(m, weights)
    if grade > order:
        raise _order_refused(data, target, grade, order)
    pairings = data.pairings_from_coords(curve_coords)
    corr = Series.zero(weights, frac(order))
    for j in range(data.m):  # rays of this fan, including an added ray
        c = frac(pairings[j])
        if c != 0 and not g[j].is_zero():
            corr = corr + g[j] * c
    series = Series.monomial(m, weights, frac(order)) * corr.exp()
    return Relation(target=target, kind="flat", series=series, monomial=m,
                    correction=corr)


def _order_refused(data: ToricData, relation, grade, order) -> ValidationError:
    """The refusal of an order below the grade of a relation's leading
    monomial, where the relation's series is zero and cannot be inverted.  It
    names the least order at which no relation is zero."""
    weights = data.y_weights()
    grades = [weights[v] for v in data.y_vars()[:data.r_prime]]
    grades += [mono_grade(y_monomial(data, data.disk_class(("box", j))[3]),
                          weights) for j in data.extra_columns()]
    least = frac_str(max(grades))
    return ValidationError(MODULE, "toric_mirror_map",
                           f"order {frac_str(order)} is below {frac_str(grade)}, "
                           f"the grade of the leading monomial of the relation "
                           f"for {relation}; the least order that works is {least}",
                           {"relation": relation, "least_order": least})


def _twisted_relations(data: ToricData, g, order):
    out = []
    for j in data.extra_columns():
        gj = g[j]
        expect = y_monomial(data, data.disk_class(("box", j))[3])
        if gj.is_zero():
            grade = mono_grade(expect, data.y_weights())
            if grade > order:
                raise _order_refused(data, f"{data.tau_name(j)} (column {j})",
                                     grade, order)
            raise ConsistencyError(MODULE, "toric_mirror_map",
                                   f"twisted series of column {j} vanished; "
                                   "raise the order", j)
        lead_m, lead_c, _ = gj.factor_unit()
        if lead_m != expect or lead_c != 1:
            raise ConsistencyError(MODULE, "toric_mirror_map",
                                   "twisted series does not start at its dual "
                                   "class with coefficient 1",
                                   {"lead": lead_m, "expect": expect})
        out.append(Relation(target=data.tau_name(j), kind="twisted", series=gj))
    return out


def _relations(data: ToricData, g, order) -> list:
    """The relations of `data` assembled from its column series g: one flat
    relation per plain q variable, then one twisted relation per extra
    column."""
    flat = [_flat_relation(data, q, [Fraction(int(b == a))
                                     for b in range(data.r)], g, order)
            for a, q in enumerate(data.q_vars()[:data.r_prime])]
    return flat + _twisted_relations(data, g, order)


def toric_mirror_map(data: ToricData, order) -> MirrorMap:
    """Forward mirror map of a Calabi-Yau semi-Fano fan, summed over
    enumerate_effective(data, order)."""
    op = "toric_mirror_map"
    if data.cy_covector is None:
        raise ValidationError(MODULE, op,
                              "fan is not Calabi-Yau: no covector pairs to 1 "
                              "with every ray and extra vector", None)
    verify_semi_fano(data)
    if not data.split_ok:
        raise ValidationError(MODULE, op,
                              "kernel basis is not adapted to the extra "
                              "vectors (their divisor classes must vanish on "
                              "the flat prefix); supply basis_p", None)
    order = frac(order)
    classes = enumerate_effective(data, order)
    sl = coefficient_slice(data, classes, order)
    g = g_series(data, sl.sector_series, sl.divisor_series, order)
    return MirrorMap(data, order, g, _relations(data, g, order), classes)


def relative_mirror_map(cd: CompactifiedData, base: MirrorMap) -> MirrorMap:
    """Forward mirror map of the compactified pair at the order of `base`,
    the base fan's mirror map.

    Computed with the same machinery on the compactified fan, from the z^-1
    pieces of the relative I-function oracle (which runs its own checks),
    plus the qinf relation of the compactified disk class; afterwards the
    other relations are asserted to coincide with those of `base`, and the
    qinf relation to be that of the disk class: its monomial is yinf over the
    dual-class monomial, and its correction the cone-weighted sum of the base
    ray series (a ray disk: yinf, and the ray's own series).
    """
    op = "relative_mirror_map"
    if base.data != cd.base:
        raise ValidationError(MODULE, op, "base map is not built on the base "
                              "fan of the compactification", None)
    order = base.order
    bar = cd.bar
    sl, classes = relative_ifunction_oracle(cd, base)
    g = g_series(bar, sl.sector_series, sl.divisor_series, order)
    own = _relations(bar, g, order)
    rel_inf = _flat_relation(bar, bar.q_vars()[bar.r_prime],
                             bar.coords_from_pairings(cd.beta_bar), g, order)
    relations = own[:bar.r_prime] + [rel_inf] + own[bar.r_prime:]

    # the added ray's own series must vanish: its pairing with every
    # enumerated class is nonnegative
    if not g[bar.infinity_column].is_zero():
        raise ConsistencyError(MODULE, op,
                               "added ray acquired a nonzero series",
                               g[bar.infinity_column].to_json())

    # restriction consistency with the base mirror map, relation by relation
    for got, want in zip(own, base.relations, strict=True):
        if got.target != want.target or not got.series.same_terms(want.series):
            raise ConsistencyError(MODULE, op,
                                   f"{got.kind} relation differs from the base "
                                   "mirror map", got.target)

    # the qinf relation of the disk class
    kind, idx = cd.disk
    cone, coeffs, _, dual = cd.base.disk_class(cd.disk)
    want = y_monomial(bar, [-x for x in dual] + [1])   # yinf / y^dual
    if rel_inf.monomial != want:
        raise ConsistencyError(MODULE, op,
                               f"{kind}-disk relation monomial is not yinf "
                               "over the dual-class monomial",
                               rel_inf.monomial)
    if not rel_inf.correction.same_terms(cone_sum(base, cone, coeffs)):
        raise ConsistencyError(MODULE, op,
                               f"{kind}-disk correction is not the "
                               "cone-weighted base ray sum", idx)
    expo = mono_grade(want, bar.y_weights())
    if expo <= 0:
        raise ConsistencyError(MODULE, op, "compactified flat variable has "
                               "non-positive weight", expo)
    return MirrorMap(bar, order, g, relations, classes)


def inverse_mirror_map(mm: MirrorMap, *more):
    """Formal inverse assignment y_b -> series in the flat/twisted variables,
    at the order of the map.

    Delegates to the generic Newton inversion, whose round-trip check also
    takes the y-series of more: with more, returns (assignment, images).
    """
    rels = [(r.target, r.series) for r in mm.relations]
    return invert_map(rels, mm.order, *more)
