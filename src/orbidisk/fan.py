"""Stacky fans and the lattice data derived from them.

A stacky fan is given by primitive ray vectors, simplicial cones (as index
sets) and optional extra vectors inside the support.  From it we derive the
kernel lattice of the ray map, divisor pairings, box elements with their ages,
anticones, the Calabi-Yau covector and the semi-Fano certificate, plus the
validated compactification data used by the relative pipeline.

Column convention: the m' columns are the rays 0..m-1 followed by the extra
vectors m..m'-1.  A class d in the kernel (tensored with Q) is identified with
its pairing vector (divisor_i . d)_i, which is just d written in Z^{m'}.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import ValidationError, ConsistencyError, Value
from .series import frac, frac_str

MODULE = "fan-core"


def _verr(op, msg, datum=None):
    return ValidationError(MODULE, op, msg, datum)


# ---------------------------------------------------------------------------
# stacky fans


class StackyFan(Value):
    rank: int
    rays: tuple            # tuple of integer vectors
    cones: tuple           # tuple of sorted index tuples
    extra_vectors: tuple   # tuple of integer vectors
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


def cone_membership(rays, vector):
    """Coefficients of `vector` over the linearly independent `rays`, if the
    vector lies in their nonnegative span; None otherwise."""
    n = len(vector)
    a = [[rays[j][i] for j in range(len(rays))] for i in range(n)]
    x = linalg.solve_rational(a, list(vector))
    if x is None or any(c < 0 for c in x):
        return None
    return x


def parse_stacky_fan(document: str) -> StackyFan:
    """Parse and validate the JSON fan-file format."""
    op = "parse_stacky_fan"
    try:
        raw = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as e:
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
    fan = StackyFan(rank, tuple(rays), tuple(cones), tuple(extra), tuple(labels))
    validate_fan(fan)
    return fan


def validate_fan(fan: StackyFan):
    op = "parse_stacky_fan"
    n = fan.rank
    # rays primitive, nonzero, pairwise distinct
    for r in fan.rays:
        if all(x == 0 for x in r):
            raise _verr(op, "zero ray", r)
        g = 0
        for x in r:
            g = gcd(g, abs(x))
        if g != 1:
            raise _verr(op, f"non-primitive ray {r}", r)
    if len(set(fan.rays)) != len(fan.rays):
        raise _verr(op, "duplicate ray", fan.rays)
    if not fan.cones:
        raise _verr(op, "fan lists no cones", fan.cones)
    # cones simplicial with valid indices
    for c in fan.cones:
        if len(set(c)) != len(c):
            raise _verr(op, f"repeated index in cone {c}", c)
        if any(i < 0 or i >= fan.m for i in c):
            raise _verr(op, f"cone {c} uses an invalid ray index", c)
        vecs = [fan.rays[i] for i in c]
        if linalg.rank_rational([list(v) for v in vecs]) != len(c):
            raise _verr(op, f"non-simplicial cone {c}: rays are dependent", c)
    _check_fan_pairs(fan)
    # extra vectors inside the support
    for v in fan.extra_vectors:
        if minimal_cone(fan, v) is None:
            raise _verr(op, f"extra vector {v} lies outside the fan support", v)
    # columns generate Z^n
    cols = fan.columns()
    a = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
    divs = linalg.elementary_divisors(a)
    if len(divs) != n or any(abs(d) != 1 for d in divs):
        raise _verr(op, "ray and extra vectors do not generate the full lattice",
                    divs)


def _check_fan_pairs(fan: StackyFan):
    """Pairwise consistency of the listed cones.

    Checks that shared rays account for any containment among the listed
    cones, and that two full-dimensional cones sharing a facet sit on opposite
    sides of it.  (Coverage questions are handled downstream.)
    """
    op = "parse_stacky_fan"
    n = fan.rank
    for c1, c2 in itertools.combinations(fan.cones, 2):
        shared = set(c1) & set(c2)
        for c, d in ((c1, c2), (c2, c1)):
            for i in set(c) - shared:
                if cone_membership([fan.rays[j] for j in d], fan.rays[i]) is not None:
                    raise _verr(op, f"ray {i} of cone {c} lies inside cone {d} "
                                    "but is not a shared ray", (c1, c2))
        if len(c1) == n and len(c2) == n and len(shared) == n - 1:
            facet = sorted(shared)
            a = [list(fan.rays[i]) for i in facet]
            normal = linalg.integer_kernel_basis(a)
            if len(normal) != 1:
                continue
            eta = normal[0]
            r1 = next(i for i in c1 if i not in shared)
            r2 = next(i for i in c2 if i not in shared)
            s1 = sum(e * x for e, x in zip(eta, fan.rays[r1]))
            s2 = sum(e * x for e, x in zip(eta, fan.rays[r2]))
            if s1 * s2 > 0:
                raise _verr(op, f"cones {c1} and {c2} overlap across facet {facet}",
                            (c1, c2))


def minimal_cone(fan: StackyFan, vector):
    """(cone ray indices, coefficients) of the minimal listed-cone face
    containing `vector`, or None if outside the support."""
    best = None
    for c in fan.cones:
        x = cone_membership([fan.rays[i] for i in c], vector)
        if x is None:
            continue
        support = tuple(i for i, xi in zip(c, x) if xi != 0)
        coeffs = tuple(xi for xi in x if xi != 0)
        if best is None or len(support) < len(best[0]):
            best = (support, coeffs)
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

    def label(self):
        return "b" + ",".join(str(x) for x in self.vector)


def zero_box(n) -> BoxElement:
    return BoxElement(tuple([0] * n), (), (), Fraction(0))


def _box_of_cone(fan: StackyFan, cone):
    """All box elements of one simplicial cone, via the Smith normal form of
    its ray matrix: residues of the finite group (coefficient lattice)/Z^s."""
    n = fan.rank
    rays = [fan.rays[i] for i in cone]
    s = len(rays)
    a = [[rays[j][i] for j in range(s)] for i in range(n)]  # n x s
    snf, _, v = linalg.smith_normal_form(a)
    divisors = [snf[i][i] for i in range(s)]
    out = []
    ranges = [range(abs(d)) for d in divisors]
    for combo in itertools.product(*ranges):
        chat = [Fraction(k, abs(d)) for k, d in zip(combo, divisors)]
        c = [sum(Fraction(v[i][j]) * chat[j] for j in range(s)) for i in range(s)]
        c = [ci - ci.__floor__() for ci in c]  # reduce to [0,1)
        vec = tuple(sum(int(rays[j][i]) * c[j] for j in range(s)) for i in range(n))
        ivec = tuple(int(x) for x in vec)
        if any(Fraction(iv) != x for iv, x in zip(ivec, vec)):
            raise ConsistencyError(MODULE, "box_elements",
                                   "non-integral box candidate", vec)
        if all(x == 0 for x in ivec) and all(ci == 0 for ci in c):
            continue
        support = tuple(i for i, ci in zip(cone, c) if ci != 0)
        coeffs = tuple(ci for ci in c if ci != 0)
        age = sum(c, Fraction(0))
        out.append(BoxElement(ivec, support, coeffs, age))
    return out


def box_elements(fan: StackyFan):
    """All nonzero box elements of the fan, deduplicated and sorted by (age,
    vector), plus the age-1 subset.  Each keeps its minimal cone.  Comparing
    the age-1 set with the declared extra vectors is `kernel_data`'s job."""
    seen = {}
    for cone in fan.cones:
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
    cy_covector: list | None
    basis_origin: str = "default"
    split_ok: bool = True
    # compactified bookkeeping (None for plain fans)
    infinity_column: int | None = None
    q_count: int | None = None          # number of plain q variables
    tau_names: dict = {}

    @property
    def n(self):
        return self.fan.rank

    @property
    def max_cones(self):
        return [cone for cone, _, _ in self.anticones]

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
        if self.q_count is not None:
            return self.q_count
        return self.fan.m - self.fan.rank

    def column_vector(self, i):
        return self.fan.column(i)

    def is_extra(self, i):
        return i >= self.fan.m

    def extra_columns(self):
        return range(self.fan.m, self.fan.m_prime)

    # -- variables -----------------------------------------------------------

    def y_vars(self):
        names = []
        for a in range(self.r):
            if self.infinity_column is not None and a == self.r - 1:
                names.append("yinf")
            else:
                names.append(f"y{a + 1}")
        return names

    def y_weights(self):
        """Weight 1 per y variable: `grade` is the weighted coordinate sum
        these weights define."""
        return {v: Fraction(1) for v in self.y_vars()}

    def tau_name(self, j):
        if j in self.tau_names:
            return self.tau_names[j]
        return f"t{j}"

    # -- pairings and coordinates ---------------------------------------------

    def pairings_from_coords(self, coords):
        """Pairing vector (divisor_i . d)_i of d = sum coords_a * gamma_a."""
        out = []
        for i in range(self.m_prime):
            out.append(sum(frac(c) * self.gamma[a][i]
                           for a, c in enumerate(coords)))
        return out

    def coords_from_pairings(self, pairings):
        """Coordinates of a pairing vector in the gamma basis (exact); a
        vector outside the span of the kernel basis is refused."""
        g = [[self.gamma[a][i] for a in range(self.r)]
             for i in range(self.m_prime)]
        x = linalg.solve_rational(g, [frac(p) for p in pairings])
        if x is None:
            raise ConsistencyError(MODULE, "coords_from_pairings",
                                   "pairing vector is not in the kernel",
                                   pairings)
        return x

    def grade(self, coords):
        return sum((frac(c) for c in coords), Fraction(0))

    # -- dual classes ------------------------------------------------------------

    def extra_cone_data(self, j):
        """(ray indices, coefficients) of the minimal cone containing extra j,
        read off the age-1 box element `box_elements` already solved: the
        extra vectors are exactly the age-1 set (`kernel_data` checks it, and
        `validate_compactification` that the bar fan has the base's)."""
        if not (self.m <= j < self.m_prime):
            raise _verr("dual_class", f"index {j} is not an extra vector column", j)
        vec = self.fan.column(j)
        for b in self.age1_boxes:
            if b.vector == vec:
                return b.cone, b.coefficients
        raise ConsistencyError(MODULE, "dual_class", f"extra vector {vec} is "
                               "not an age-1 box element", vec)

    def dual_class_pairings(self, j):
        """Pairing vector of the dual class attached to extra column j:
        1 at j, minus the cone coefficient at each ray of its minimal cone,
        0 elsewhere.  Lies in the kernel automatically."""
        support, coeffs = self.extra_cone_data(j)
        v = [Fraction(0)] * self.m_prime
        v[j] = Fraction(1)
        for i, c in zip(support, coeffs):
            v[i] = -c
        # sanity: the vector is a kernel element
        n = self.n
        for k in range(n):
            s = sum(v[i] * self.fan.column(i)[k] for i in range(self.m_prime))
            if s != 0:
                raise ConsistencyError(MODULE, "dual_class",
                                       "dual class failed the kernel relation", v)
        return v


def _anticones(fan, gamma):
    """(cone, anticone, generators) for every maximal cone.

    The anticone is the rays outside the cone followed by every extra vector.
    The divisors it indexes form a basis of the dual kernel space; the
    generators are the dual vectors in gamma coordinates (generator k pairs
    to 1 with anticone column k and to 0 with the others), and they span the
    effective classes attached to the cone.  Anticones are upward closed, so
    these minimal ones decide the family.
    """
    r = len(gamma)
    out = []
    for cone in fan.cones:
        if len(cone) != fan.rank:
            continue
        comp = tuple(sorted(set(range(fan.m)) - set(cone))) + \
            tuple(range(fan.m, fan.m_prime))
        if len(comp) != r:
            raise ConsistencyError(MODULE, "kernel_data",
                                   "anticone size does not match kernel rank",
                                   (cone, comp))
        sub = [[gamma[a][i] for a in range(r)] for i in comp]
        inv = linalg.invert_rational(sub)
        if inv is None:
            raise ConsistencyError(MODULE, "kernel_data",
                                   "singular local system at cone", cone)
        # columns of inv = generator coordinates
        gens = tuple(tuple(inv[a][k] for a in range(r)) for k in range(r))
        out.append((tuple(cone), comp, gens))
    return tuple(out)


def _default_kernel_basis(fan: StackyFan, kernel):
    """Deterministic kernel basis adapted to the extra-vector split and,
    where cheaply possible, oriented so effective classes have nonnegative
    coordinates.  `kernel` is the Smith-form kernel basis of the columns."""
    r = len(kernel)
    if r == 0:
        return [], True
    m, mp = fan.m, fan.m_prime
    r_prime = m - fan.rank
    split_ok = True
    if mp > m and r_prime > 0:
        # sublattice of kernel vectors with zero extra coordinates, then a
        # unimodular completion: duals of the completed part stay supported
        # on the extra divisor classes
        e_rows = [[kernel[b][j] for b in range(r)] for j in range(m, mp)]
        inner = linalg.integer_kernel_basis(e_rows)
        if len(inner) == r_prime:
            try:
                full = linalg.complete_to_unimodular(inner, r)
                kernel = [
                    [sum(full[b][c] * kernel[c][i] for c in range(r))
                     for i in range(mp)]
                    for b in range(r)
                ]
            except ValueError:
                split_ok = False
        else:
            split_ok = False
    # orient: flip basis vectors so the effective generators get nonnegative
    # coordinates where a sign flip suffices
    gens = [g for _, _, gg in _anticones(fan, kernel) for g in gg]
    for b in range(r):
        vals = [g[b] for g in gens]
        if any(v < 0 for v in vals) and all(v <= 0 for v in vals):
            kernel[b] = [-x for x in kernel[b]]
    return kernel, split_ok


def _toric_data(fan: StackyFan, gamma, op, **bookkeeping) -> ToricData:
    """ToricData of `fan` on the kernel basis `gamma`, with its boxes, its
    anticone table and the `bookkeeping` fields, once gamma is checked: each
    vector in the kernel, m' - n of them, elementary divisors all +-1."""
    for g in gamma:
        for k in range(fan.rank):
            if sum(g[i] * fan.column(i)[k] for i in range(fan.m_prime)) != 0:
                raise ConsistencyError(MODULE, op, "kernel relation violated", g)
    divs = linalg.elementary_divisors(gamma)
    if len(gamma) != fan.m_prime - fan.rank or len(divs) != len(gamma) or \
            any(abs(d) != 1 for d in divs):
        raise ConsistencyError(MODULE, op, "kernel basis is not saturated",
                               {"gamma": gamma, "divisors": divs})
    gamma = [list(g) for g in gamma]
    boxes, age1 = box_elements(fan)
    return ToricData(fan=fan, gamma=gamma, anticones=_anticones(fan, gamma),
                     boxes=boxes, age1_boxes=age1, **bookkeeping)


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
    cols = fan.columns()
    kernel = linalg.integer_kernel_basis(
        [[cols[j][i] for j in range(len(cols))] for i in range(fan.rank)])

    if basis_p is None:
        gamma, split_ok = _default_kernel_basis(fan, kernel)
        origin = "default"
    else:
        r = len(kernel)
        if len(basis_p) != r:
            raise _verr(op, f"basis_p must have {r} rows", basis_p)
        rows = [[frac(x) for x in row] for row in basis_p]
        if any(len(row) != fan.m_prime for row in rows):
            raise _verr(op, "basis_p rows must have one entry per column", basis_p)
        # pairing of each supplied functional with the SNF kernel basis
        pm = [[sum(rows[a_][i] * kernel[b][i] for i in range(fan.m_prime))
               for b in range(r)] for a_ in range(r)]
        if any(x.denominator != 1 for row in pm for x in row) or \
                abs(linalg.det_rational(pm)) != 1:
            raise _verr(op, "supplied basis is not unimodular over the dual lattice",
                        basis_p)
        inv = linalg.invert_rational(pm)
        gamma = [[int(sum(inv[c][b] * kernel[c][i] for c in range(r)))
                  for i in range(fan.m_prime)] for b in range(r)]
        origin = "user"
        split_ok = True

    # extra divisors must have no component along the distinguished prefix of
    # the basis (their classes die in the quotient); reject otherwise
    if any(gamma[a][j] for a in range(fan.m - fan.rank)
           for j in range(fan.m, fan.m_prime)):
        split_ok = False

    data = _toric_data(fan, gamma, op, cy_covector=calabi_yau_covector(fan),
                       basis_origin=origin, split_ok=split_ok)
    declared = sorted(fan.extra_vectors)
    computed = sorted(b.vector for b in data.age1_boxes)
    if declared and declared != computed:
        raise _verr(op, "declared extra vectors do not match the age-1 box set",
                    {"declared": declared, "computed": computed})
    return data


def calabi_yau_covector(fan: StackyFan):
    """Integer covector pairing to 1 with every ray and extra vector, or None."""
    cols = fan.columns()
    a = [list(c) for c in cols]  # one row per column vector, unknowns in Z^n
    x = linalg.solve_rational(a, [1] * len(cols))
    if x is None:
        return None
    ix = [int(v) for v in x]
    if any(Fraction(i) != v for i, v in zip(ix, x)):
        return None
    return ix


def verify_calabi_yau(fan: StackyFan):
    """CY covector, or a ValidationError describing infeasibility."""
    v = calabi_yau_covector(fan)
    if v is None:
        raise _verr("verify_calabi_yau",
                    "no covector pairs to 1 with every ray and extra vector",
                    fan.rays)
    return v


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
    infinity_ray: int           # bar ray index of the added ray
    d_infinity: list            # pairing vector over bar columns
    beta_bar: list              # pairing vector over bar columns
    col_map: dict               # base column -> bar column
    complete_certificate: dict = {}

    def base_to_bar_pairings(self, pairings):
        out = [Fraction(0)] * self.bar.m_prime
        for c, p in enumerate(pairings):
            out[self.col_map[c]] = frac(p)
        return out


def parse_disk_selector(text: str, data: ToricData):
    op = "disk_selector"
    try:
        kind, _, idx = text.partition(":")
        idx = int(idx)
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
    b_disk = base_fan.column(idx)
    b_inf = tuple(-x for x in b_disk)

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
    inf_ray = base_fan.m
    if not any(inf_ray in c for c in bar_fan.cones):
        raise _verr(op, "incomplete fan: the added ray lies in no cone", b_inf)

    certificate = {
        "facets_paired": _facet_pairing_complete(bar_fan),
        "covers_ray_negatives": all(
            minimal_cone(bar_fan, tuple(-x for x in r)) is not None
            for r in bar_fan.rays),
    }

    # column order of the bar fan: base rays, infinity ray, extras
    col_map = {}
    for c in range(base_fan.m):
        col_map[c] = c
    for j in range(base_fan.m, base_fan.m_prime):
        col_map[j] = j + 1

    # bar kernel basis: extended base basis plus the compactifying class
    mp_bar = bar_fan.m_prime
    inf_col = inf_ray
    gamma_bar = []
    for g in base.gamma:
        gext = [0] * mp_bar
        for c, x in enumerate(g):
            gext[col_map[c]] = x
        gamma_bar.append(gext)
    d_inf = [0] * mp_bar
    d_inf[col_map[idx]] = 1
    d_inf[inf_col] = 1
    gamma_bar.append(d_inf)

    tau_names = {col_map[j]: f"t{j}" for j in base.extra_columns()}
    bar = _toric_data(bar_fan, gamma_bar, op, cy_covector=None,
                      basis_origin="compactified", split_ok=base.split_ok,
                      infinity_column=inf_col, q_count=base.r_prime,
                      tau_names=tau_names)
    base_age1 = sorted(b.vector for b in base.age1_boxes)
    bar_age1 = sorted(b.vector for b in bar.age1_boxes)
    if base_age1 != bar_age1:
        raise _verr(op, "compactified fan has different age-1 box elements than "
                        "the base fan",
                    {"base": base_age1, "bar": bar_age1})

    # beta_bar
    if kind == "ray":
        beta_bar = list(d_inf)
    else:
        dual = base.dual_class_pairings(idx)
        beta_bar = list(d_inf)
        for c, x in enumerate(dual):
            beta_bar[col_map[c]] -= x
        beta_bar = [frac(x) for x in beta_bar]

    cd = CompactifiedData(base=base, bar=bar, disk=(kind, idx),
                          infinity_ray=inf_ray, d_infinity=[frac(x) for x in d_inf],
                          beta_bar=beta_bar, col_map=col_map,
                          complete_certificate=certificate)

    # decomposition checks
    if beta_bar[inf_col] != 1:
        raise ConsistencyError(MODULE, op,
                               "the compactifying divisor does not meet the disk "
                               "class once", beta_bar)
    # age-1 extras make the all-column sum equal the anticanonical pairing
    c1 = sum(beta_bar, Fraction(0))
    if c1 != 2:
        raise ConsistencyError(MODULE, op,
                               f"anticanonical degree of the disk class is {c1}, "
                               "want 2", beta_bar)
    if kind == "box":
        for j in bar.extra_columns():
            if beta_bar[j] != 0:
                raise ConsistencyError(MODULE, op,
                                       "disk class pairs nontrivially with an "
                                       "extra divisor", beta_bar)
    return cd
