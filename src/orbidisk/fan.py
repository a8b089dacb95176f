"""Stacky fans and the lattice data derived from them.

A stacky fan is given by primitive ray vectors, simplicial cones (as index
sets) and optional extra vectors inside the support.  From it we derive the
kernel lattice of the ray map, divisor pairings, box elements with their ages,
anticones, the basic disk classes with their cones and dual classes, the
Calabi-Yau covector and the semi-Fano certificate, plus the validated
compactification data used by the relative pipeline.

Column convention: the m' columns are the rays 0..m-1 followed by the extra
vectors m..m'-1.  A class d in the kernel (tensored with Q) is identified with
its pairing vector (divisor_i . d)_i, which is just d written in Z^{m'}.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from . import linalg
from .errors import ValidationError, ConsistencyError, Value, frac, frac_str, index

MODULE = "fan-core"


def _verr(op, msg, datum=None):
    return ValidationError(MODULE, op, msg, datum)


# ---------------------------------------------------------------------------
# stacky fans


class StackyFan(Value):
    """A validated stacky fan.  `eliminations` is derived from the rays and
    cones when the fan is parsed: one (p, T) per listed cone, from a single
    fraction-free elimination of its s rays beside the identity.  p > 0 and T
    is an integer rank x rank matrix; for any vector v the first s entries of
    T v are p times v's coefficients over the cone's rays, and the others
    vanish exactly when v lies in their span.  Validation, minimal cones and
    box enumeration read this table, so no cone is eliminated twice.  The
    one Smith form of the n x m' column matrix shows that the columns
    generate Z^n, and its saturated kernel basis is `kernel`."""
    rank: int
    rays: tuple            # tuple of integer vectors
    cones: tuple           # tuple of sorted index tuples
    extra_vectors: tuple   # tuple of integer vectors
    eliminations: tuple    # (p, T) per cone, as above
    kernel: tuple          # kernel basis of the columns, as above
    labels: tuple = ()

    @property
    def m(self):
        return len(self.rays)

    @property
    def m_prime(self):
        return len(self.rays) + len(self.extra_vectors)

    def column(self, i):
        """Vector of column i (ray or extra)."""
        if i < self.m:
            return self.rays[i]
        return self.extra_vectors[i - self.m]

    def columns(self):
        return list(self.rays) + list(self.extra_vectors)

    def to_dict(self):
        d = {
            "rank": self.rank,
            "rays": [list(r) for r in self.rays],
            "cones": [list(c) for c in self.cones],
        }
        if self.extra_vectors:
            d["extra_vectors"] = [list(v) for v in self.extra_vectors]
        if self.labels:
            d["labels"] = list(self.labels)
        return d


def _membership(cone, t, v):
    """p times v's coefficients over the rays of a listed cone whose
    elimination matrix is t, when v lies in their nonnegative span; None
    otherwise."""
    x = [sum(map(mul, row, v)) for row in t]
    s = len(cone)
    return None if any(x[s:]) or min(x[:s], default=0) < 0 else x[:s]


def parse_stacky_fan(document: str) -> StackyFan:
    """Parse and validate the JSON fan-file format."""
    op = "parse_stacky_fan"
    try:
        raw = json.loads(document)
    except (ValueError, RecursionError) as e:  # integers past 4300 digits too
        raise _verr(op, f"malformed document: {e}", document[:80])
    return fan_from_dict(raw)


def _json_int(x):
    """A JSON integer as it is; a float, bool or string is refused."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


def fan_from_dict(raw: dict) -> StackyFan:
    op = "parse_stacky_fan"
    if not isinstance(raw, dict):
        raise _verr(op, "document must be a JSON object", raw)
    unknown = [k for k in raw
               if k not in ("rank", "rays", "cones", "extra_vectors", "labels")]
    if unknown:
        raise _verr(op, f"unknown fan-document key {unknown[0]!r}", unknown)
    try:
        rank = _json_int(raw["rank"])
        rays = [tuple(_json_int(x) for x in r) for r in raw["rays"]]
        cones = [tuple(sorted(_json_int(i) for i in c)) for c in raw["cones"]]
        extra = [tuple(_json_int(x) for x in v)
                 for v in raw.get("extra_vectors", [])]
    except (KeyError, TypeError, ValueError) as e:
        raise _verr(op, f"malformed document: {e}", raw)
    labels = raw.get("labels", [])
    if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)
            and len(labels) in (0, len(rays))):
        raise _verr(op, f"labels must be a list of {len(rays)} strings, one per ray",
                    labels)
    if rank < 1:
        raise _verr(op, "rank must be a positive integer", rank)
    for r in rays + extra:
        if len(r) != rank:
            raise _verr(op, f"vector {r} does not have rank {rank} entries", r)
    return validate_fan(rank, tuple(rays), tuple(cones), tuple(extra),
                        tuple(labels))


def validate_fan(n, rays, cones, extra, labels) -> StackyFan:
    """The fan of the parsed fields, once every check passes.  Each listed
    cone's rays are eliminated once, after its index checks, and the column
    matrix is put in Smith form once; the fan keeps both (see StackyFan)."""
    op = "parse_stacky_fan"
    # rays primitive, nonzero, pairwise distinct
    for r in rays:
        if all(x == 0 for x in r):
            raise _verr(op, "zero ray", r)
        if gcd(*r) != 1:
            raise _verr(op, f"non-primitive ray {r}", r)
    if len(set(rays)) != len(rays):
        raise _verr(op, "duplicate ray", rays)
    if not cones:
        raise _verr(op, "fan lists no cones", cones)
    # before any elimination, whose cost grows as the rank squared
    if len(rays) + len(extra) < n:
        raise _verr(op, f"{len(rays) + len(extra)} ray and extra vectors "
                    f"cannot generate a rank {n} lattice", n)
    # cones simplicial with valid indices, each listed once
    table = []
    for c in cones:
        if len(set(c)) != len(c):
            raise _verr(op, f"repeated index in cone {c}", c)
        if any(i < 0 or i >= len(rays) for i in c):
            raise _verr(op, f"cone {c} uses an invalid ray index", c)
        s = len(c)
        m, pivots, p, _ = linalg.row_reduce(
            [[rays[i][k] for i in c] + [int(k == j) for j in range(n)]
             for k in range(n)], s)
        if len(pivots) != s:
            raise _verr(op, f"non-simplicial cone {c}: rays are dependent", c)
        if cones.count(c) > 1:
            raise _verr(op, f"cone {c} is listed twice", c)
        sign = 1 if p > 0 else -1
        table.append((sign * p, tuple(tuple(sign * x for x in row[s:])
                                      for row in m)))
    divs, kernel = linalg.smith_kernel([[c[i] for c in rays + extra]
                                        for i in range(n)])
    fan = StackyFan(n, rays, cones, extra, tuple(table),
                    tuple(map(tuple, kernel)), labels)
    _check_fan_pairs(fan)
    # extra vectors inside the support
    for v in extra:
        if minimal_cone(fan, v) is None:
            raise _verr(op, f"extra vector {v} lies outside the fan support", v)
    # columns generate Z^n
    if len(divs) != n or any(abs(d) != 1 for d in divs):
        raise _verr(op, "ray and extra vectors do not generate the full lattice",
                    divs)
    return fan


def _check_fan_pairs(fan: StackyFan):
    """Pairwise checks of the listed cones, read off the elimination table:
    a ray of one cone that the other does not share must lie outside the
    other, and two full-dimensional cones sharing a facet must sit on
    opposite sides of it.  That two cones meet in a common face is not
    checked.  (Coverage questions are handled downstream.)
    """
    op = "parse_stacky_fan"
    n = fan.rank
    for (c1, (_, t1)), (c2, (_, t2)) in itertools.combinations(
            zip(fan.cones, fan.eliminations), 2):
        shared = set(c1) & set(c2)
        for c, d, t in ((c1, c2, t2), (c2, c1, t1)):
            for i in set(c) - shared:
                if _membership(d, t, fan.rays[i]) is not None:
                    raise _verr(op, f"ray {i} of cone {c} lies inside cone {d} "
                                    "but is not a shared ray", (c1, c2))
        # row k of t1 vanishes on the shared facet and pairs to p > 0 with
        # c1's other ray, in every rank
        if len(c1) == len(c2) == n and len(shared) == n - 1:
            k = next(k for k, i in enumerate(c1) if i not in shared)
            r2 = next(i for i in c2 if i not in shared)
            if sum(map(mul, t1[k], fan.rays[r2])) > 0:
                raise _verr(op, f"cones {c1} and {c2} overlap across facet "
                                f"{sorted(shared)}", (c1, c2))


def minimal_cone(fan: StackyFan, vector):
    """(cone ray indices, coefficients) of the minimal listed-cone face
    containing `vector`, or None if outside the support."""
    best = None
    for c, (p, t) in zip(fan.cones, fan.eliminations):
        x = _membership(c, t, vector)
        if x is None:
            continue
        support = tuple(i for i, xi in zip(c, x) if xi)
        if best is None or len(support) < len(best[0]):
            best = (support, tuple(Fraction(xi, p) for xi in x if xi))
    return best


# ---------------------------------------------------------------------------
# box elements


class BoxElement(Value):
    vector: tuple
    cone: tuple         # ray indices of the minimal cone
    coefficients: tuple  # Fractions in (0, 1), one per ray of `cone`
    age: Fraction

    def is_zero(self):
        return not self.cone


def zero_box(n) -> BoxElement:
    return BoxElement(tuple([0] * n), (), (), Fraction(0))


BOX_GROUP_BOUND = 100_000  # the largest box group a cone may have


def _box_of_cone(fan: StackyFan, cone):
    """All box elements of one simplicial cone, via the Smith form U A V = S
    of its ray matrix A: residues of the finite group (coefficient lattice)
    /Z^s, each the integer vector A V k / d, enumerated as integer numerators
    over the lcm of the divisors once the group's order is in bounds."""
    n = fan.rank
    rays = [fan.rays[i] for i in cone]
    s = len(rays)
    a = [[rays[j][i] for j in range(s)] for i in range(n)]  # n x s
    snf, _, v = linalg.smith_normal_form(a)
    divisors = [abs(snf[i][i]) for i in range(s)]
    if (order := prod(divisors)) > BOX_GROUP_BOUND:
        bits = order.bit_length()  # order >= 2^(bits-1) > 10^(0.3 (bits-1))
        shown = order if bits <= 10_000 else f"above 10^{(bits - 1) * 3 // 10}"
        raise _verr("box_elements", f"cone {list(cone)} has a box group of "
                    f"order {shown}, above {BOX_GROUP_BOUND}", list(cone))
    den = lcm(*divisors)
    steps = [[v[i][j] * (den // d) for i in range(s)]
             for j, d in enumerate(divisors)]
    out = []
    for combo in itertools.product(*map(range, divisors)):
        c = [sum(k * step[i] for k, step in zip(combo, steps)) % den
             for i in range(s)]  # numerators of coefficients in [0, 1)
        if not any(c):
            continue
        vec = [sum(ray[i] * ci for ray, ci in zip(rays, c)) for i in range(n)]
        support = tuple(i for i, ci in zip(cone, c) if ci)
        coeffs = tuple(Fraction(ci, den) for ci in c if ci)
        out.append(BoxElement(tuple(x // den for x in vec), support, coeffs,
                              Fraction(sum(c), den)))
    return out


def box_elements(fan: StackyFan):
    """All nonzero box elements of the fan, deduplicated and sorted by (age,
    vector), plus the age-1 subset.  Each keeps its minimal cone.  A cone's
    pivot p is a maximal minor of its ray matrix, and the order of its box
    group is the gcd of those minors, so only the cones with p > 1 are
    enumerated.  Comparing the age-1 set with the declared extra vectors is
    `kernel_data`'s job."""
    seen = {}
    for cone, (p, _) in zip(fan.cones, fan.eliminations):
        if p == 1:
            continue
        for b in _box_of_cone(fan, cone):
            prev = seen.get(b.vector)
            if prev is None or len(b.cone) < len(prev.cone):
                seen[b.vector] = b
    boxes = sorted(seen.values(), key=lambda b: (b.age, b.vector))
    return boxes, [b for b in boxes if b.age == 1]


# ---------------------------------------------------------------------------
# derived toric data


class ToricData(Value):
    fan: StackyFan
    gamma: list                  # kernel basis, columns of Z^{m'} (length r)
    anticones: tuple             # (cone, anticone, generators) per maximal cone
    boxes: list
    age1_boxes: list
    disks: dict                  # basic disk class -> see _disk_table
    cy_covector: list | None
    basis_origin: str = "default"
    split_ok: bool = True
    infinity_column: int | None = None  # the added ray of a compactification

    @property
    def n(self):
        return self.fan.rank

    @property
    def m(self):
        return self.fan.m

    @property
    def m_prime(self):
        return self.fan.m_prime

    @property
    def r(self):
        return len(self.gamma)

    @property
    def r_prime(self):
        # plain q variables: the added ray of a compactification brings qinf
        return self.fan.m - self.fan.rank - (self.infinity_column is not None)

    def column_vector(self, i):
        return self.fan.column(i)

    def is_extra(self, i):
        return i >= self.fan.m

    def extra_columns(self):
        return range(self.fan.m, self.fan.m_prime)

    # -- variables -----------------------------------------------------------

    def y_vars(self):
        inf = self.infinity_column is not None
        return [f"y{a + 1}" for a in range(self.r - inf)] + ["yinf"] * inf

    def q_vars(self):
        """The flat variables: one per plain curve class, then qinf on a
        compactification, as y_vars ends with yinf."""
        inf = self.infinity_column is not None
        return [f"q{a + 1}" for a in range(self.r_prime)] + ["qinf"] * inf

    def y_weights(self):
        """Weight 1 per y variable: `grade` is the weighted coordinate sum
        these weights define."""
        return {v: Fraction(1) for v in self.y_vars()}

    def tau_name(self, j):
        # the base column: a compactification adds its ray before the extras
        return f"t{j - (self.infinity_column is not None)}"

    # -- pairings and coordinates ---------------------------------------------

    def pairings_from_coords(self, coords):
        """Pairing vector (divisor_i . d)_i of d = sum coords_a * gamma_a."""
        out = []
        for i in range(self.m_prime):
            out.append(sum(frac(c) * self.gamma[a][i]
                           for a, c in enumerate(coords)))
        return out

    def coords_from_pairings(self, pairings):
        """Coordinates of a pairing vector in the gamma basis (exact)."""
        return _kernel_coords(self.gamma, pairings)

    def grade(self, coords):
        return sum((frac(c) for c in coords), Fraction(0))

    def require_split(self, module, op):
        """Refuse a basis that is not split_ok: the mirror map and the
        coefficient system read the flat prefix as the curve classes."""
        if not self.split_ok:
            raise ValidationError(module, op, "kernel basis is not adapted to "
                                  "the extra vectors (their divisor classes "
                                  "must vanish on the flat prefix); supply "
                                  "basis_p", None)

    def disk_class(self, disk):
        """The disk table's entry for ("ray", i) or ("box", j)."""
        if tuple(disk) not in self.disks:
            raise _verr("disk_class", f"no basic disk class {disk!r}", disk)
        return self.disks[tuple(disk)]


def _anticones(fan, gamma):
    """(cone, anticone, generators) for every maximal cone.

    The anticone is the rays outside the cone followed by every extra vector:
    m' - n columns, one per vector of gamma, which both callers supply.
    The divisors it indexes form a basis of the dual kernel space: a kernel
    vector that vanishes on them is a relation among the cone's independent
    rays, so it is zero and each block inverts.  The generators are the
    dual vectors in gamma coordinates (generator k pairs to 1 with anticone
    column k and to 0 with the others), and they span the effective classes
    attached to the cone.  Anticones are upward closed, so these minimal
    ones decide the family.
    """
    r = len(gamma)
    out = []
    for cone in fan.cones:
        if len(cone) != fan.rank:
            continue
        comp = tuple(sorted(set(range(fan.m)) - set(cone))) + \
            tuple(range(fan.m, fan.m_prime))
        sub = [[gamma[a][i] for a in range(r)] for i in comp]
        inv = linalg.invert_rational(sub)
        # columns of inv = generator coordinates
        gens = tuple(tuple(inv[a][k] for a in range(r)) for k in range(r))
        out.append((tuple(cone), comp, gens))
    return tuple(out)


def _default_kernel_basis(fan: StackyFan):
    """Deterministic kernel basis adapted to the extra-vector split and,
    where cheaply possible, oriented so effective classes have nonnegative
    coordinates, starting from the fan's Smith-form kernel basis.  Returns (basis, anticone table on that basis).  The split always exists:
    the rays of a fan with a full-dimensional cone span Q^n, so the kernel's
    extra coordinates have full rank m' - m, and the kernel vectors with zero
    extra coordinates form a saturated sublattice of rank r' = m - n."""
    kernel = fan.kernel
    r = len(kernel)
    m, mp = fan.m, fan.m_prime
    r_prime = m - fan.rank
    if mp > m and r_prime > 0:
        # that sublattice first, then a unimodular completion: duals of the
        # completed part stay supported on the extra divisor classes
        e_rows = [[kernel[b][j] for b in range(r)] for j in range(m, mp)]
        inner = linalg.integer_kernel_basis(e_rows)
        full = linalg.complete_to_unimodular(inner, r)
        kernel = [[sum(full[b][c] * kernel[c][i] for c in range(r))
                   for i in range(mp)] for b in range(r)]
    # orient: flip basis vectors so the effective generators get nonnegative
    # coordinates where a sign flip suffices; flipping basis vector b only
    # negates coordinate b of every generator, so the table carries over
    table = _anticones(fan, kernel)
    gens = [g for _, _, gg in table for g in gg]
    sign = [-1 if any(g[b] < 0 for g in gens) and all(g[b] <= 0 for g in gens)
            else 1 for b in range(r)]
    kernel = [[s * x for x in row] for s, row in zip(sign, kernel)]
    table = tuple((cone, comp, tuple(tuple(map(mul, sign, g)) for g in gg))
                  for cone, comp, gg in table)
    return kernel, table


def _kernel_coords(gamma, pairings):
    """Coordinates of a pairing vector in the kernel basis gamma (exact); a
    vector outside its span is refused."""
    g = [[v[i] for v in gamma] for i in range(len(pairings))]
    x = linalg.solve_rational(g, [frac(p) for p in pairings])
    if x is None:
        raise _verr("coords_from_pairings",
                    "pairing vector is not in the kernel", pairings)
    return x


def _disk_table(fan: StackyFan, gamma, age1_boxes) -> dict:
    """{disk: (cone, coefficients, dual pairings, dual coordinates)}, rays
    first.  A ray is its own cone with the zero dual class; extra column j
    takes the minimal cone of its age-1 box element, and its dual class pairs
    to 1 with j and to minus the cone coefficients with the cone's rays.
    Solving for the coordinates in gamma checks that the class lies in the
    kernel.  A column that is no age-1 box gets no entry; the callers refuse
    it."""
    mp = fan.m_prime
    zero = (Fraction(0),) * mp, (Fraction(0),) * len(gamma)
    table = {("ray", i): ((i,), (Fraction(1),), *zero) for i in range(fan.m)}
    age1 = {b.vector: b for b in age1_boxes}
    for j in range(fan.m, mp):
        b = age1.get(fan.column(j))
        if b is not None:
            dual = [Fraction(int(i == j)) for i in range(mp)]
            for i, c in zip(b.cone, b.coefficients):
                dual[i] = -c
            table[("box", j)] = (b.cone, b.coefficients, tuple(dual),
                                 tuple(_kernel_coords(gamma, dual)))
    return table


def _toric_data(fan: StackyFan, gamma, anticones=None,
                **bookkeeping) -> ToricData:
    """ToricData of `fan` on the kernel basis `gamma`, with its boxes, its
    anticone and disk tables and the `bookkeeping` fields.  The anticone
    table is built here unless the caller already holds it for gamma."""
    gamma = [list(g) for g in gamma]
    boxes, age1 = box_elements(fan)
    if anticones is None:
        anticones = _anticones(fan, gamma)
    return ToricData(fan=fan, gamma=gamma, anticones=anticones, boxes=boxes,
                     age1_boxes=age1, disks=_disk_table(fan, gamma, age1),
                     **bookkeeping)


def kernel_data(fan: StackyFan, basis_p=None) -> ToricData:
    """Derive the toric data of a stacky fan.

    basis_p, when given, is a list of r rational row vectors of length m'
    (lifts of a dual-lattice basis); it must induce a unimodular change of
    kernel basis.  Otherwise a deterministic default is constructed.  The
    extra vectors, when any are listed, must be exactly the age-1 box
    elements, whether or not the fan is Calabi-Yau (ValidationError).
    """
    op = "kernel_data"
    if not any(len(c) == fan.rank for c in fan.cones):
        raise _verr(op, "fan has no full-dimensional cone", fan.cones)
    if basis_p is None:
        gamma, anticones = _default_kernel_basis(fan)
        origin = "default"
    else:
        kernel = fan.kernel
        r = len(kernel)
        if len(basis_p) != r:
            raise _verr(op, f"basis_p must have {r} rows", basis_p)
        rows = [[frac(x) for x in row] for row in basis_p]
        if any(len(row) != fan.m_prime for row in rows):
            raise _verr(op, "basis_p rows must have one entry per column", basis_p)
        # pairing of each supplied functional with the SNF kernel basis
        pm = [[sum(rows[a_][i] * kernel[b][i] for i in range(fan.m_prime))
               for b in range(r)] for a_ in range(r)]
        # an integer matrix is unimodular exactly when its inverse is integral
        inv = linalg.invert_rational(pm)
        if inv is None or any(x.denominator != 1 for m in (pm, inv)
                              for row in m for x in row):
            raise _verr(op, "supplied basis is not unimodular over the dual lattice",
                        basis_p)
        gamma = [[int(sum(inv[c][b] * kernel[c][i] for c in range(r)))
                  for i in range(fan.m_prime)] for b in range(r)]
        origin = "user"
        anticones = None

    # extra divisors must have no component along the distinguished prefix of
    # the basis (their classes die in the quotient); the mirror map refuses it
    split_ok = not any(gamma[a][j] for a in range(fan.m - fan.rank)
                       for j in range(fan.m, fan.m_prime))

    data = _toric_data(fan, gamma, anticones,
                       cy_covector=calabi_yau_covector(fan),
                       basis_origin=origin, split_ok=split_ok)
    declared = sorted(fan.extra_vectors)
    computed = sorted(b.vector for b in data.age1_boxes)
    if declared and declared != computed:
        raise _verr(op, "declared extra vectors do not match the age-1 box set",
                    {"declared": declared, "computed": computed})
    return data


def calabi_yau_covector(fan: StackyFan):
    """Integer covector pairing to 1 with every ray and extra vector, or None."""
    cols = fan.columns()  # one row per column vector, unknowns in Z^n
    s = linalg.solve_integer(cols, [1] * len(cols))
    if s is None or any(x % s[1] for x in s[0]):
        return None
    return [x // s[1] for x in s[0]]


def verify_semi_fano(data: ToricData):
    """Decide the semi-Fano property by exact feasibility.

    For every minimal anticone the sum of all divisor classes is written in
    the divisor classes it indexes; the unique multipliers, its pairings with
    the anticone's generators, must be >= 0.  Returns {cone: multipliers};
    raises ConsistencyError with the violating anticone otherwise.
    """
    op = "verify_semi_fano"
    # the divisor-class sum in dual coordinates: component a = sum_i gamma_a[i]
    rho = [sum(g) for g in data.gamma]
    witnesses = {}
    for cone, comp, gens in data.anticones:
        lam = [sum(x * p for x, p in zip(g, rho)) for g in gens]
        if any(x < 0 for x in lam):
            raise ConsistencyError(
                MODULE, op, "sum of divisor classes leaves the Kahler cone "
                f"closure at anticone {comp}",
                {"anticone": comp, "multipliers": [frac_str(x) for x in lam]})
        witnesses[cone] = lam
    return witnesses


# ---------------------------------------------------------------------------
# compactification


class CompactifiedData(Value):
    base: ToricData
    bar: ToricData
    disk: tuple                 # ("ray", i0) or ("box", j0) in base columns
    d_infinity: list            # pairing vector over bar columns
    beta_bar: list              # pairing vector over bar columns
    d_infinity_coords: list     # the bar's last kernel basis vector
    beta_bar_coords: list       # D_inf minus the dual class, in that basis
    complete_certificate: dict

    def base_to_bar_pairings(self, pairings):
        return [frac(p) for p in
                _bar_columns(pairings, self.bar.infinity_column)]


def _bar_columns(vec, inf_col):
    """A vector over base columns in the bar's column order, which lists the
    base rays, then the added ray at inf_col, then the extras: a zero is
    inserted at the infinity column."""
    return [*vec[:inf_col], 0, *vec[inf_col:]]


def parse_disk_selector(text: str, data: ToricData):
    op = "disk_selector"
    try:
        kind, _, idx = text.partition(":")
        idx = index(idx)
    except ValueError:
        raise _verr(op, f"bad disk selector {text!r}; want ray:<i> or box:<j>", text)
    if kind == "ray":
        if not (0 <= idx < data.m):
            raise _verr(op, f"ray index {idx} out of range", idx)
        return ("ray", idx)
    if kind == "box":
        if not (data.m <= idx < data.m_prime):
            raise _verr(op, f"box index {idx} is not an extra-vector column", idx)
        return ("box", idx)
    raise _verr(op, f"bad disk selector kind {kind!r}", text)


def _facet_pairing_complete(fan: StackyFan):
    """True when every facet of every full-dimensional cone is shared by
    exactly two of them (no boundary)."""
    n = fan.rank
    maxc = [c for c in fan.cones if len(c) == n]
    count = {}
    for c in maxc:
        for facet in itertools.combinations(c, n - 1):
            count[facet] = count.get(facet, 0) + 1
    return bool(maxc) and all(v == 2 for v in count.values())


def validate_compactification(base_fan: StackyFan, bar_fan: StackyFan,
                              disk, basis_p=None) -> CompactifiedData:
    """Validate a user-supplied compactified fan against its base.

    The bar fan must list the base rays first (same order), then the added
    ray opposite to the disk direction, and carry the same extra vectors.
    Structural failures raise; the sign-test coverage of ray negatives is
    recorded as a certificate (convenience fans like an affine chart plus one
    opposite ray are accepted even though their support is a half-space).
    """
    op = "validate_compactification"
    base = kernel_data(base_fan, basis_p)
    if isinstance(disk, str):
        disk = parse_disk_selector(disk, base)
    kind, idx = disk
    dual, dual_coords = base.disk_class(disk)[2:]  # refuses a missing disk
    b_inf = tuple(-x for x in base_fan.column(idx))

    if bar_fan.rank != base_fan.rank:
        raise _verr(op, "rank mismatch between fan and compactified fan",
                    (base_fan.rank, bar_fan.rank))
    if tuple(bar_fan.rays[:base_fan.m]) != tuple(base_fan.rays):
        raise _verr(op, "compactified fan must list the base rays first, in order",
                    bar_fan.rays)
    if bar_fan.m != base_fan.m + 1 or tuple(bar_fan.rays[base_fan.m]) != b_inf:
        raise _verr(op, f"missing ray {b_inf} opposite the disk direction",
                    bar_fan.rays)
    if tuple(bar_fan.extra_vectors) != tuple(base_fan.extra_vectors):
        raise _verr(op, "compactified fan must carry the base extra vectors",
                    bar_fan.extra_vectors)
    for c in base_fan.cones:
        if tuple(c) not in set(bar_fan.cones):
            raise _verr(op, f"base cone {c} missing from the compactified fan", c)
    inf_col = base_fan.m
    if not any(inf_col in c for c in bar_fan.cones):
        raise _verr(op, "incomplete fan: the added ray lies in no cone", b_inf)

    certificate = {
        "facets_paired": _facet_pairing_complete(bar_fan),
        "covers_ray_negatives": all(
            minimal_cone(bar_fan, tuple(-x for x in r)) is not None
            for r in bar_fan.rays),
    }

    # bar kernel basis: extended base basis plus the compactifying class,
    # the only vector nonzero at the added column
    d_inf = _bar_columns([int(c == idx) for c in range(base_fan.m_prime)],
                         inf_col)
    d_inf[inf_col] = 1
    gamma_bar = [_bar_columns(g, inf_col) for g in base.gamma] + [d_inf]

    bar = _toric_data(bar_fan, gamma_bar, cy_covector=None,
                      basis_origin="compactified", split_ok=base.split_ok,
                      infinity_column=inf_col)
    base_age1 = sorted(b.vector for b in base.age1_boxes)
    bar_age1 = sorted(b.vector for b in bar.age1_boxes)
    if base_age1 != bar_age1:
        raise _verr(op, "compactified fan has different age-1 box elements than "
                        "the base fan",
                    {"base": base_age1, "bar": bar_age1})

    # beta_bar: D_inf minus the disk's dual class (zero for a ray disk), so it
    # meets D_inf once, is 0 on the extras and sums to 2 (a dual class to 0)
    beta_bar = [frac(x) - y for x, y in zip(d_inf, _bar_columns(dual, inf_col))]
    return CompactifiedData(
        base=base, bar=bar, disk=(kind, idx),
        d_infinity=[frac(x) for x in d_inf], beta_bar=beta_bar,
        d_infinity_coords=[Fraction(0)] * base.r + [Fraction(1)],
        beta_bar_coords=[-x for x in dual_coords] + [Fraction(1)],
        complete_certificate=certificate)
