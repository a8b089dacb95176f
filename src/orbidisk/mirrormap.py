"""Mirror-map series, forward coordinate change, and its formal inverse.

The building blocks are one scalar series per column: rays pick up the
divisor-linear z^-1 extraction, extra vectors the twisted-sector one.  Each
flat coordinate variable corresponds to a curve class c, and its relation is

    log q_c = sum_b (p_b . c) log y_b + sum_{j in rays} (divisor_j . c) g_j(y)

with the tau relation tau_v = g_v(y) for every extra vector.  On compactified
data the added variable's curve class is the compactified disk class; the
non-infinity relations must restrict to the plain mirror map of the base fan,
which is asserted.
"""
from __future__ import annotations

from fractions import Fraction

from .effective import dual_class, enumerate_effective
from .errors import ConsistencyError, ValidationError, Value
from .fan import CompactifiedData, ToricData, verify_semi_fano
from .hyper import coefficient_slice, relative_ifunction_oracle, y_monomial
from .series import Series, frac, frac_str, invert_map, mono, mono_grade

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
    curve_class: tuple = ()  # flat only: coordinates of the curve class

    def to_json(self):
        d = {"target": self.target, "kind": self.kind,
             "series": self.series.to_json()}
        return d


class MirrorMap(Value):
    data: ToricData
    order: Fraction
    g: dict                      # column -> Series
    relations: list

    def relation_for(self, target):
        for rel in self.relations:
            if rel.target == target:
                return rel
        raise KeyError(target)

    def to_json(self):
        return {
            "order": str(self.order),
            "g": {str(j): s.to_json() for j, s in sorted(self.g.items())},
            "relations": [r.to_json() for r in self.relations],
        }


def _require_cy_semifano(data: ToricData, op):
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


def _flat_relation(data: ToricData, target, curve_coords, g, order) -> Relation:
    """Assemble target = prod_b y_b^{p_b.c} * exp(sum_j (D_j.c) g_j)."""
    weights = data.y_weights()
    names = data.y_vars()
    curve_coords = [frac(x) for x in curve_coords]
    m = mono(*((names[b], curve_coords[b]) for b in range(data.r)))
    grade = mono_grade(m, weights)
    if grade > order:
        raise _order_refused(data, target, grade, order)
    pairings = data.pairings_from_coords(curve_coords)
    corr = Series.zero(weights, frac(order))
    for j in range(data.m):  # rays of this fan, including an added ray
        c = frac(pairings[j])
        if c != 0 and not g[j].is_zero():
            corr = corr + g[j] * c
    series = Series.monomial(m, 1, weights, frac(order)) * corr.exp()
    return Relation(target=target, kind="flat", series=series, monomial=m,
                    correction=corr, curve_class=tuple(curve_coords))


def _order_refused(data: ToricData, relation, grade, order) -> ValidationError:
    """The refusal of an order below the grade of a relation's leading
    monomial, where the relation's series is zero and cannot be inverted.  It
    names the least order at which no relation is zero."""
    weights = data.y_weights()
    grades = [weights[v] for v in data.y_vars()[:data.r_prime]]
    grades += [mono_grade(y_monomial(data, dual_class(data, j)), weights)
               for j in data.extra_columns()]
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
        if gj.is_zero():
            grade = mono_grade(y_monomial(data, dual_class(data, j)), data.y_weights())
            if grade > order:
                raise _order_refused(data, f"{data.tau_name(j)} (column {j})",
                                     grade, order)
            raise ConsistencyError(MODULE, "toric_mirror_map",
                                   f"twisted series of column {j} vanished; "
                                   "raise the order", j)
        lead_m, lead_c, _ = gj.factor_unit()
        dual = dual_class(data, j)
        expect = y_monomial(data, dual)
        if lead_m != expect or lead_c != 1:
            raise ConsistencyError(MODULE, "toric_mirror_map",
                                   "twisted series does not start at its dual "
                                   "class with coefficient 1",
                                   {"lead": lead_m, "expect": expect})
        out.append(Relation(target=data.tau_name(j), kind="twisted", series=gj))
    return out


def _forward(data: ToricData, sl, order):
    """(g, flat relations, twisted relations) of `data` from the coefficient
    slice `sl`: one flat relation per plain q variable, one twisted relation
    per extra column."""
    g = g_series(data, sl.sector_series, sl.divisor_series, order)
    flat = [_flat_relation(data, f"q{a + 1}",
                           [Fraction(int(b == a)) for b in range(data.r)],
                           g, order)
            for a in range(data.r_prime)]
    return g, flat, _twisted_relations(data, g, order)


def toric_mirror_map(data: ToricData, order, classes=None) -> MirrorMap:
    """Forward mirror map of a Calabi-Yau semi-Fano fan.

    `classes`, when given, must be enumerate_effective(data, order).
    """
    op = "toric_mirror_map"
    _require_cy_semifano(data, op)
    order = frac(order)
    if classes is None:
        classes = enumerate_effective(data, order)
    g, flat, twisted = _forward(data, coefficient_slice(data, classes, order),
                                order)
    return MirrorMap(data=data, order=order, g=g, relations=flat + twisted)


def relative_mirror_map(cd: CompactifiedData, order) -> MirrorMap:
    """Forward mirror map of the compactified pair.

    Computed with the same machinery on the compactified fan, from the z^-1
    pieces of the relative I-function oracle (which runs its own checks),
    plus the qinf relation of the compactified disk class; afterwards the
    other relations are asserted to coincide with the plain mirror map of the
    base fan, and the infinity relation matches the disk-class case split:
    for a ray disk it is the base ray series on top of the new flat variable,
    for a box disk the dual-class monomial migrates into the relation and its
    correction is the cone-weighted sum of ray series.
    """
    op = "relative_mirror_map"
    _require_cy_semifano(cd.base, op)
    order = frac(order)
    bar = cd.bar
    sl, base_classes = relative_ifunction_oracle(cd, order)
    g, flat, twisted = _forward(bar, sl, order)
    rel_inf = _flat_relation(bar, "qinf", bar.coords_from_pairings(cd.beta_bar),
                             g, order)
    relations = flat + [rel_inf] + twisted

    # the added ray's own series must vanish: its pairing with every
    # enumerated class is nonnegative
    if not g[cd.infinity_ray].is_zero():
        raise ConsistencyError(MODULE, op,
                               "added ray acquired a nonzero series",
                               g[cd.infinity_ray].to_json())

    # restriction consistency with the base mirror map, relation by relation
    base_mm = toric_mirror_map(cd.base, order, classes=base_classes)
    for got, want in zip(flat + twisted, base_mm.relations, strict=True):
        if got.target != want.target or not got.series.same_terms(want.series):
            raise ConsistencyError(MODULE, op,
                                   f"{got.kind} relation differs from the base "
                                   "mirror map", got.target)

    # disk-class case split
    kind, idx = cd.disk
    names = bar.y_vars()
    if kind == "ray":
        if rel_inf.monomial != mono((names[-1], 1)):
            raise ConsistencyError(MODULE, op,
                                   "ray-disk relation has a nontrivial "
                                   "monomial part", rel_inf.monomial)
        base_g = base_mm.g[idx]
        if not rel_inf.correction.same_terms(base_g):
            raise ConsistencyError(MODULE, op,
                                   "ray-disk correction is not the base ray "
                                   "series", idx)
    else:
        dual = dual_class(cd.base, idx)
        expo = mono_grade(rel_inf.monomial, bar.y_weights())
        want_mono = mono((names[-1], 1),
                         *((names[b], -dual.coords[b])
                           for b in range(cd.base.r)))
        if rel_inf.monomial != want_mono:
            raise ConsistencyError(MODULE, op,
                                   "box-disk relation monomial is not the "
                                   "dual-class twist of the new variable",
                                   {"got": rel_inf.monomial,
                                    "want": want_mono})
        support, coeffs = cd.base.extra_cone_data(idx)
        want = Series.zero(bar.y_weights(), order)
        for i, c in zip(support, coeffs):
            want = want + g[cd.col_map[i]] * c
        if not rel_inf.correction.same_terms(want):
            raise ConsistencyError(MODULE, op,
                                   "box-disk correction is not the "
                                   "cone-weighted ray sum", idx)
        if expo <= 0:
            raise ConsistencyError(MODULE, op,
                                   "compactified flat variable has "
                                   "non-positive weight", expo)
    return MirrorMap(data=bar, order=order, g=g, relations=relations)


def inverse_mirror_map(mm: MirrorMap) -> dict:
    """Formal inverse assignment y_b -> series in the flat/twisted variables,
    at the order of the map.

    Delegates to the generic fixed-point inversion; the round trip is
    verified there.
    """
    rels = [(r.target, r.series) for r in mm.relations]
    return invert_map(rels, mm.order)
