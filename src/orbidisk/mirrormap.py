"""Mirror-map series, forward coordinate change, and its formal inverse.

The building blocks are one scalar series per column: rays pick up the
divisor-linear z^-1 extraction, extra vectors the twisted-sector one.  Each
flat coordinate variable corresponds to a curve class c, and its relation is

    log q_c = sum_b (p_b . c) log y_b + sum_{j in rays} (divisor_j . c) g_j(y)

with the tau relation tau_v = g_v(y) for every extra vector.  On compactified
data the added variable's curve class is the compactified disk class; the
other relations restrict to those of the base fan's mirror map, which the
caller builds once at the compactified order, as the tests assert.
"""
from __future__ import annotations

from fractions import Fraction

from .effective import enumerate_effective
from .errors import ConsistencyError, ValidationError, Value, frac, frac_str
from .fan import CompactifiedData, ToricData, verify_semi_fano
from .hyper import relative_ifunction_oracle, y_monomial, z_extract
from .series import Series, invert_map

MODULE = "mirror-maps"


def g_series(data: ToricData, classes, order) -> dict:
    """Scalar mirror-map series of every column, {column: Series}: the z^-1
    extractions of `classes`.  A class with one forced column adds to that
    ray's series, one with none to the extra column of its sector's box
    vector; each column's terms are gathered in one dict and its Series
    built once.  A divisor-linear coefficient, of a class pairing -k at its
    column and q_i >= 0 with the others, is (-1)^(k-1) (k-1)! / prod q_i!:
    _factor's product in closed form, which the tests assert over the
    corpus."""
    extra = {tuple(data.column_vector(j)): j for j in data.extra_columns()}
    terms = {j: {} for j in range(data.m_prime)}
    for cls in classes:
        zf = z_extract(data, cls)
        forced = zf.forced_columns
        if zf.z_exponent != -1 or len(forced) > 1:
            continue
        j = forced[0] if forced else extra.get(cls.sector.vector)
        if j is not None:
            terms[j][y_monomial(data, cls.coords)] = zf.scalar
    weights, order = data.y_weights(), frac(order)
    return {j: Series(weights, order, t) for j, t in terms.items()}


class Relation(Value):
    """One forward relation: target = y^class * exp(correction(y)), or
    target = series(y) for twisted-sector targets."""
    target: str
    kind: str              # "flat" or "twisted"
    series: Series         # the full right-hand side
    correction: Series | None = None  # flat only

    def to_json(self):
        return {"target": self.target, "kind": self.kind,
                "series": self.series.to_json()}


class MirrorMap(Value):
    data: ToricData
    order: Fraction
    g: dict                      # column -> Series
    relations: list
    classes: list                # the effective classes g was summed over

    def truncate(self, order) -> MirrorMap:
        """The same map at a lower order: the column series, relations and
        corrections it holds, truncated, so a relative map keeps its qinf
        relation.  Each relation's lead is its least-grade term, so an order
        below it is refused exactly as toric_mirror_map refuses it."""
        order = frac(order)
        columns = iter(self.data.extra_columns())
        _refuse_below_leads(order, [
            (r.target, None if r.kind == "flat" else next(columns),
             r.series.min_grade()) for r in self.relations])
        return MirrorMap(
            self.data, order, {j: s.truncate(order) for j, s in self.g.items()},
            [Relation(r.target, r.kind, r.series.truncate(order),
                      r.correction and r.correction.truncate(order))
             for r in self.relations],
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


def _refuse_below_leads(order, leads):
    """Refuse an order below the grade of a relation's leading monomial,
    which would leave that relation zero; leads are (target, extra column or
    None, grade) in relation order.  The refusal names the first such
    relation and the least order that works."""
    for target, j, grade in leads:
        if grade > order:
            name = target if j is None else f"{target} (column {j})"
            least = max(grade for _, _, grade in leads)
            raise ValidationError(
                MODULE, "toric_mirror_map",
                f"order {frac_str(order)} is below {frac_str(grade)}, the grade "
                f"of the leading monomial of the relation for {name}; the "
                f"least order that works is {frac_str(least)}",
                {"relation": name, "least_order": frac_str(least)})


def _relations(data: ToricData, g, order, inf=None) -> list:
    """The relations of `data` assembled from its column series g, in
    relation order: one flat relation per plain q variable, then qinf's on a
    compactification, whose class has coordinates `inf`, then one twisted
    relation per extra column.  Each leads with the y-monomial of its class:
    the a-th basis vector for q_a, inf for qinf, the dual class of column j
    for its tau.  An order below a lead's grade would leave that relation
    zero, so it is refused before any series work, naming the first such
    relation and the least order that works (`_refuse_below_leads`).

    A flat relation is target = y^class * exp(sum_j (D_j.class) g_j); a
    twisted one is tau_j = g_j, which must lead with its dual class (the
    tests assert that g_j holds it with coefficient 1)."""
    q = data.q_vars()
    leads = [(q[a], None, [Fraction(int(b == a)) for b in range(data.r)])
             for a in range(data.r_prime)]
    if inf is not None:
        leads.append((q[data.r_prime], None, inf))
    leads += [(data.tau_name(j), j, data.disk_class(("box", j))[3])
              for j in data.extra_columns()]
    _refuse_below_leads(order, [(target, j, data.grade(coords))
                                for target, j, coords in leads])
    weights = data.y_weights()
    out = []
    for target, j, coords in leads:
        m = y_monomial(data, coords)
        if j is None:
            pairings = data.pairings_from_coords(coords)
            corr = Series.zero(weights, order)
            for i in range(data.m):  # rays of this fan, including an added ray
                if pairings[i] != 0 and not g[i].is_zero():
                    corr = corr + g[i] * pairings[i]
            out.append(Relation(target, "flat",
                                Series.monomial(m, weights, order) * corr.exp(),
                                corr))
            continue
        lead_m, lead_c, _ = g[j].factor_unit()
        if lead_m != m or lead_c != 1:
            raise ConsistencyError(MODULE, "toric_mirror_map",
                                   "twisted series does not start at its dual "
                                   "class with coefficient 1",
                                   {"lead": lead_m, "expect": m})
        out.append(Relation(target, "twisted", g[j]))
    return out


def toric_mirror_map(data: ToricData, order) -> MirrorMap:
    """Forward mirror map of a Calabi-Yau semi-Fano fan, summed over
    enumerate_effective(data, order)."""
    op = "toric_mirror_map"
    if data.cy_covector is None:
        raise ValidationError(MODULE, op,
                              "fan is not Calabi-Yau: no covector pairs to 1 "
                              "with every ray and extra vector", None)
    verify_semi_fano(data)
    data.require_split(MODULE, op)
    order = frac(order)
    classes = enumerate_effective(data, order)
    g = g_series(data, classes, order)
    return MirrorMap(data, order, g, _relations(data, g, order), classes)


def relative_mirror_map(cd: CompactifiedData, base: MirrorMap) -> MirrorMap:
    """Forward mirror map of the compactified pair at the order of `base`,
    the base fan's mirror map.

    Computed with the same machinery on the compactified fan: g_series over
    the relative I-function oracle's classes, with the qinf relation leading
    with beta_bar.  The tests assert over the corpus that the other relations
    are those of `base` (a class that meets D_inf has no z^-1 term) and that
    the qinf correction is the cone-weighted sum of the base ray series.
    """
    if base.data != cd.base:
        raise ValidationError(MODULE, "relative_mirror_map", "base map is not "
                              "built on the base fan of the compactification",
                              None)
    order = base.order
    bar = cd.bar
    classes = relative_ifunction_oracle(cd, base)
    # z_extract never forces the added ray's column, so its series is zero
    g = g_series(bar, classes, order)
    return MirrorMap(bar, order, g,
                     _relations(bar, g, order, cd.beta_bar_coords), classes)


def inverse_mirror_map(mm: MirrorMap, *more):
    """Formal inverse assignment y_b -> series in the flat/twisted variables,
    at the order of the map.

    Delegates to the generic Newton inversion, whose round-trip check also
    takes the y-series of more: with more, returns (assignment, images).
    """
    rels = [(r.target, r.series) for r in mm.relations]
    return invert_map(rels, mm.order, *more)
