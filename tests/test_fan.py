import functools
import importlib
import itertools
import json
import pkgutil
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import orbidisk
from orbidisk import fans, linalg
from orbidisk.errors import ConsistencyError, ValidationError, Value
from orbidisk.fan import (_box_of_cone, _toric_data, box_elements,
                          calabi_yau_covector, fan_from_dict, kernel_data,
                          minimal_cone, parse_stacky_fan,
                          validate_compactification, verify_semi_fano)
from test_fan_fuzz import fan_documents
from test_linalg import oracle_det, oracle_rank, oracle_solve

F = Fraction


def load(name):
    return fans.load(name)


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_c3():
    fan = load("c3")
    assert fan.m == fan.m_prime == 3
    assert fan.rank == 3


def test_parse_kp2():
    fan = load("kp2")
    assert fan.m == fan.m_prime == 4


def test_parse_c3z3():
    fan = load("c3z3")
    assert fan.m == 3 and fan.m_prime == 4
    # membership of the extra vector solved exactly
    support, coeffs = minimal_cone(fan, (0, 0, 1))
    assert support == (0, 1, 2)
    assert list(coeffs) == [F(1, 3)] * 3


def test_reject_non_primitive_ray():
    doc = {"rank": 2, "rays": [[2, 0], [0, 1]], "cones": [[0, 1]]}
    with pytest.raises(ValidationError):
        fan_from_dict(doc)


def test_reject_duplicate_ray():
    doc = {"rank": 2, "rays": [[1, 0], [1, 0]], "cones": [[0, 1]]}
    with pytest.raises(ValidationError):
        fan_from_dict(doc)


def test_reject_non_simplicial_cone():
    doc = {"rank": 2, "rays": [[1, 0], [-1, 0]], "cones": [[0, 1]]}
    with pytest.raises(ValidationError):
        fan_from_dict(doc)


def test_reject_extra_outside_support():
    doc = {"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]],
           "extra_vectors": [[-1, -1]]}
    with pytest.raises(ValidationError):
        fan_from_dict(doc)


def test_reject_sublattice():
    # rays span an index-2 sublattice of Z^2
    doc = {"rank": 2, "rays": [[1, 1], [1, -1]], "cones": [[0], [1]]}
    with pytest.raises(ValidationError):
        fan_from_dict(doc)


def test_reject_overlapping_cones():
    # two 2-dimensional cones sharing the facet (1,0) on the same side
    doc = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 2]],
           "cones": [[0, 1], [0, 2]]}
    with pytest.raises(ValidationError):
        fan_from_dict(doc)


def test_parse_malformed_json():
    # truncated, and nested past the decoder's recursion limit
    for document in ("{not json", "[" * 100000 + "]" * 100000):
        with pytest.raises(ValidationError, match="malformed document"):
            parse_stacky_fan(document)


def test_parse_refuses_basis_p():
    # a fan document carries no basis: only the fan-file loader reads one
    doc = json.loads(fans.read("kp2"))
    doc["basis_p"] = [[0, 1, 0, 0]]
    with pytest.raises(ValidationError, match="unknown fan-document key 'basis_p'"):
        parse_stacky_fan(json.dumps(doc))


# ---------------------------------------------------------------------------
# kernel data


def test_kernel_c3():
    data = kernel_data(load("c3"))
    assert data.r == 0
    assert data.gamma == []


def test_kernel_kp2():
    data = kernel_data(load("kp2"))
    assert data.gamma == [[-3, 1, 1, 1]]
    assert data.r_prime == 1


def test_kernel_conifold():
    data = kernel_data(load("conifold"))
    assert data.gamma == [[1, -1, -1, 1]]


def test_kernel_c3z3():
    data = kernel_data(load("c3z3"))
    # oriented so the effective generator has a nonnegative coordinate
    assert data.gamma == [[-1, -1, -1, 3]]
    assert data.r_prime == 0


def test_kernel_relation_property():
    for name in ("c3", "conifold", "kp2", "c3z3"):
        fan = load(name)
        data = kernel_data(fan)
        for g in data.gamma:
            for k in range(fan.rank):
                assert sum(g[i] * fan.column(i)[k]
                           for i in range(fan.m_prime)) == 0
        # saturation: the chosen vectors span the full SNF kernel
        cols = fan.columns()
        a = [[cols[j][i] for j in range(len(cols))] for i in range(fan.rank)]
        snf_kernel = linalg.integer_kernel_basis(a)
        assert len(snf_kernel) == len(data.gamma)


@st.composite
def split_fans(draw):
    """A Calabi-Yau simplex at height 1, star-subdivided at one or two of its
    other lattice points; every lattice point left over is an extra vector,
    an age-1 box element of the fan."""
    n = draw(st.integers(2, 4))
    point = st.tuples(*[st.integers(-3, 3)] * (n - 1)).map(lambda v: (*v, 1))
    rays = draw(st.lists(point, min_size=n, max_size=n, unique=True))
    assume(oracle_rank(rays) == n)
    box = itertools.product(*[range(min(c), max(c) + 1)
                              for c in list(zip(*rays))[:-1]])
    points = [(*v, 1) for v in box if (*v, 1) not in rays
              and cone_membership_reference(rays, (*v, 1)) is not None]
    assume(points)
    cones = [tuple(range(n))]
    for p in draw(st.lists(st.sampled_from(points), min_size=1, max_size=2,
                           unique=True)):
        rays.append(p)
        star = []
        for c in cones:
            x = cone_membership_reference([rays[i] for i in c], p)
            if x is None:
                star.append(c)
            else:
                star += [tuple(sorted(c[:k] + (len(rays) - 1,) + c[k + 1:]))
                         for k, a in enumerate(x) if a]
        cones = star
    extra = [p for p in points if p not in rays]
    assume(extra)
    return {"rank": n, "rays": rays, "cones": cones, "extra_vectors": extra}


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(split_fans())
def test_default_basis_splits_off_the_extra_vectors(doc):
    # the rays span Q^n, so the default basis always adapts to the extra
    # columns: its first r' = m - n vectors vanish on them
    try:
        fan = fan_from_dict(doc)
    except ValidationError:
        assume(False)  # rays and extra vectors generate a sublattice
    data = kernel_data(fan)
    assert data.r_prime == fan.m - fan.rank > 0 and fan.m_prime > fan.m
    assert data.split_ok
    assert all(g[j] == 0 for g in data.gamma[:data.r_prime]
               for j in range(fan.m, fan.m_prime))


def test_user_basis_good():
    # supply the dual description of the kernel basis as explicit rows
    data = kernel_data(load("kp2"), basis_p=[[0, 1, 0, 0]])
    assert data.gamma == [[-3, 1, 1, 1]]
    assert data.basis_origin == "user"


def test_user_basis_not_unimodular():
    # an index-2 sublattice, and two equal rows on kernel rank 2 (singular)
    for name, basis_p in [("kp2", [[0, 2, 0, 0]]),
                          ("kp2_bar", [[0, 1, 0, 0, 0], [0, 1, 0, 0, 0]])]:
        with pytest.raises(ValidationError, match="not unimodular"):
            kernel_data(load(name), basis_p=basis_p)


# ---------------------------------------------------------------------------
# box elements


def test_box_c3_empty():
    boxes, age1 = box_elements(load("c3"))
    assert boxes == [] and age1 == []


def test_box_conifold_empty():
    boxes, _ = box_elements(load("conifold"))
    assert boxes == []


def test_box_c3z3():
    boxes, age1 = box_elements(load("c3z3"))
    assert [(b.vector, b.age) for b in boxes] == [
        ((0, 0, 1), F(1)), ((0, 0, 2), F(2))]
    assert boxes[0].coefficients == (F(1, 3), F(1, 3), F(1, 3))
    assert boxes[1].coefficients == (F(2, 3), F(2, 3), F(2, 3))
    assert [b.vector for b in age1] == [(0, 0, 1)]


def test_extras_not_age1_refused():
    # kernel_data compares the declared extras with the age-1 box set
    doc = json.loads(fans.read("c3z3"))
    doc["extra_vectors"] = [[0, 0, 2]]  # age-2 box declared as extra
    fan = fan_from_dict(doc)
    assert [b.vector for b in box_elements(fan)[1]] == [(0, 0, 1)]
    with pytest.raises(ValidationError, match="age-1 box set") as e:
        kernel_data(fan)
    assert e.value.datum == {"declared": [(0, 0, 2)], "computed": [(0, 0, 1)]}


def brute_force_boxes(fan):
    """Scan integer points of the coefficient cube per cone, solving each by
    the Fraction Gauss-Jordan oracle (test oracle)."""
    out = {}
    for cone in fan.cones:
        rays = [fan.rays[i] for i in cone]
        n = fan.rank
        lo = [sum(min(0, r[k]) for r in rays) for k in range(n)]
        hi = [sum(max(0, r[k]) for r in rays) for k in range(n)]
        for pt in itertools.product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
            a = [[rays[j][i] for j in range(len(rays))] for i in range(n)]
            x = oracle_solve(a, list(pt))
            if x is None:
                continue
            if all(0 <= c < 1 for c in x) and any(c > 0 for c in x):
                out[pt] = sum(x, F(0))
    return out


def c3_zk_chart(k):
    """C^3/Z_k with weights (1, k-2, 1)/k: one cone, and its age-1 box
    element (0, 0, 1) as the extra vector that completes the lattice."""
    return {"rank": 3, "rays": [[1, 0, 1], [0, 1, 1], [-1, 2 - k, 1]],
            "cones": [[0, 1, 2]], "extra_vectors": [[0, 0, 1]]}


def box_fixture(name):
    """A bundled fan, a fan of test_generalization or a c3z<k>_chart."""
    import test_generalization
    if name in fans.NAMES:
        return load(name)
    if name.endswith("_chart"):
        return fan_from_dict(c3_zk_chart(int(name[3:-len("_chart")])))
    return fan_from_dict(getattr(test_generalization, name))


@pytest.mark.parametrize("name", [
    "c3", "conifold", "kp2", "c3z3", "c3_bar", "kp2_bar", "c3z3_bar",
    "LOCAL_QUADRIC", "LOCAL_QUADRIC_BAR", "A1_CHART", "A1_CHART_BAR",
    "WEIGHTED_SURFACE", "WEIGHTED_SURFACE_BAR",
    *[f"c3z{k}_chart" for k in range(2, 8)]])
def test_box_brute_force_equivalence(name):
    fan = box_fixture(name)
    boxes, _ = box_elements(fan)
    got = {b.vector: b.age for b in boxes}
    want = brute_force_boxes(fan)
    assert got == want
    # each candidate of a cone is its ray matrix times V k / d from the Smith
    # form U A V = S, an integer vector: the coefficients give it exactly
    for cone in fan.cones:
        for b in _box_of_cone(fan, cone):
            assert b.vector == tuple(
                sum(fan.rays[i][k] * c for i, c in zip(b.cone, b.coefficients))
                for k in range(fan.rank))


def test_box_soundness():
    fan = load("c3z3")
    boxes, _ = box_elements(fan)
    for b in boxes:
        for k in range(fan.rank):
            s = sum(F(fan.rays[i][k]) * c
                    for i, c in zip(b.cone, b.coefficients))
            assert s == b.vector[k]
        assert sum(b.coefficients, F(0)) == b.age
        assert all(0 <= c < 1 for c in b.coefficients)


# ---------------------------------------------------------------------------
# the elimination table against the per-question solves it replaced


def cone_membership_reference(rays, vector):
    """Coefficients of `vector` over the independent `rays` by one
    solve_integer, if it lies in their nonnegative span; None otherwise."""
    a = [[ray[i] for ray in rays] for i in range(len(vector))]
    s = linalg.solve_integer(a, vector)
    if s is None or any(x < 0 for x in s[0]):
        return None
    return [F(x, s[1]) for x in s[0]]


def minimal_cone_reference(rays, cones, vector):
    best = None
    for c in cones:
        x = cone_membership_reference([rays[i] for i in c], vector)
        if x is None:
            continue
        support = tuple(i for i, xi in zip(c, x) if xi != 0)
        coeffs = tuple(xi for xi in x if xi != 0)
        if best is None or len(support) < len(best[0]):
            best = (support, coeffs)
    return best


def validate_fan_reference(doc):
    """fan_from_dict's checks after its field parsing, each question solved
    afresh: a cone's rank by the Fraction oracle, each membership by
    solve_integer and a shared facet's side by its Smith-form normal.
    Raises the ValidationError fan_from_dict raises."""
    def refuse(message, datum):
        raise ValidationError("fan-core", "parse_stacky_fan", message, datum)

    n = doc["rank"]
    rays = tuple(tuple(r) for r in doc["rays"])
    cones = tuple(tuple(sorted(c)) for c in doc["cones"])
    for r in rays:
        if all(x == 0 for x in r):
            refuse("zero ray", r)
        if gcd(*r) != 1:
            refuse(f"non-primitive ray {r}", r)
    if len(set(rays)) != len(rays):
        refuse("duplicate ray", rays)
    if not cones:
        refuse("fan lists no cones", cones)
    extra = [tuple(v) for v in doc.get("extra_vectors", [])]
    if len(rays) + len(extra) < n:
        refuse(f"{len(rays) + len(extra)} ray and extra vectors cannot "
               f"generate a rank {n} lattice", n)
    for c in cones:
        if len(set(c)) != len(c):
            refuse(f"repeated index in cone {c}", c)
        if any(i < 0 or i >= len(rays) for i in c):
            refuse(f"cone {c} uses an invalid ray index", c)
        if oracle_rank([rays[i] for i in c]) != len(c):
            refuse(f"non-simplicial cone {c}: rays are dependent", c)
        if cones.count(c) > 1:
            refuse(f"cone {c} is listed twice", c)
    for c1, c2 in itertools.combinations(cones, 2):
        shared = set(c1) & set(c2)
        for c, d in ((c1, c2), (c2, c1)):
            for i in set(c) - shared:
                if cone_membership_reference([rays[j] for j in d],
                                             rays[i]) is not None:
                    refuse(f"ray {i} of cone {c} lies inside cone {d} "
                           "but is not a shared ray", (c1, c2))
        if len(c1) == len(c2) == n > 1 and len(shared) == n - 1:
            facet = sorted(shared)
            eta, = linalg.integer_kernel_basis([rays[i] for i in facet])
            r1 = next(i for i in c1 if i not in shared)
            r2 = next(i for i in c2 if i not in shared)
            s1 = sum(e * x for e, x in zip(eta, rays[r1]))
            s2 = sum(e * x for e, x in zip(eta, rays[r2]))
            if s1 * s2 > 0:
                refuse(f"cones {c1} and {c2} overlap across facet {facet}",
                       (c1, c2))
    for v in extra:
        if minimal_cone_reference(rays, cones, v) is None:
            refuse(f"extra vector {v} lies outside the fan support", v)
    cols = list(rays) + extra
    snf, _, _ = linalg.smith_normal_form([[col[i] for col in cols]
                                          for i in range(n)])
    divs = [snf[i][i] for i in range(min(n, len(cols))) if snf[i][i]]
    if len(divs) != n or any(abs(d) != 1 for d in divs):
        refuse("ray and extra vectors do not generate the full lattice", divs)


def box_elements_reference(fan):
    """box_elements with every listed cone run through the Smith-form
    enumeration."""
    seen = {}
    for cone in fan.cones:
        for b in _box_of_cone(fan, cone):
            prev = seen.get(b.vector)
            if prev is None or len(b.cone) < len(prev.cone):
                seen[b.vector] = b
    boxes = sorted(seen.values(), key=lambda b: (b.age, b.vector))
    return boxes, [b for b in boxes if b.age == 1]


def refusal(check, doc):
    try:
        check(doc)
    except ValidationError as e:
        return str(e), e.datum
    return None


def assert_table_matches_reference(doc):
    """Same verdict, message and datum as the reference; on an accepted fan,
    the table's defining identities, the same box elements and the same
    minimal cone for every ray, its negative, every extra vector, every sum
    of two rays and the zero vector."""
    assert refusal(fan_from_dict, doc) == refusal(validate_fan_reference, doc)
    if refusal(fan_from_dict, doc):
        return
    fan = fan_from_dict(doc)
    for c, (p, t) in zip(fan.cones, fan.eliminations):
        assert p > 0 and len(t) == fan.rank
        for j, i in enumerate(c):
            x = [sum(map(mul, row, fan.rays[i])) for row in t]
            assert x == [p * (k == j) for k in range(fan.rank)]
        assert oracle_rank(t) == fan.rank
    assert box_elements(fan) == box_elements_reference(fan)
    queries = [*fan.rays, *(tuple(-x for x in r) for r in fan.rays),
               *fan.extra_vectors, (0,) * fan.rank,
               *(tuple(map(sum, zip(a, b)))
                 for a, b in itertools.combinations(fan.rays, 2))]
    for v in queries:
        assert minimal_cone(fan, v) == \
            minimal_cone_reference(fan.rays, fan.cones, v)


EDGE_DOCS = {
    "line": {"rank": 1, "rays": [[1], [-1]], "cones": [[0], [1]]},
    "kp2_with_faces": {**json.loads(fans.read("kp2")),
                       "cones": [[0, 1, 2], [0, 2, 3], [0, 1, 3], [0, 1],
                                 [0], [1, 2]]},
    "c3z3_with_face": {**json.loads(fans.read("c3z3")),
                       "cones": [[0, 1, 2], [0, 1]]},
    "lower_dimensional_only": {"rank": 3, "rays": [[1, 0, 0], [0, 1, 0],
                                                   [0, 0, 1], [1, 1, 2]],
                               "cones": [[0, 1], [2], [3]]},
    "empty_cone": {"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[], [0, 1]]},
    "ray_inside_cone": {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]],
                        "cones": [[0, 1], [2]]},
    "one_side_of_facet": {"rank": 3,
                          "rays": [[1, 0, 0], [0, 1, 0], [0, 1, -2],
                                   [-2, 2, -1]],
                          "cones": [[0, 1, 2], [0, 1, 3]]},
    "interiors_overlap": {"rank": 3,
                          "rays": [[-2, 3, 1], [-3, 3, 1], [1, 0, 1],
                                   [-3, -2, 1], [0, 0, 1], [0, 3, 1]],
                          "cones": [[0, 1, 2], [3, 4, 5]]},
    "non_simplicial": {"rank": 2, "rays": [[1, 0], [-1, 0]],
                       "cones": [[0, 1]]},
    "extra_outside": {"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]],
                      "extra_vectors": [[-1, -1]]},
}


@pytest.mark.parametrize("name", [
    *fans.NAMES, "LOCAL_QUADRIC", "LOCAL_QUADRIC_BAR", "A1_CHART",
    "A1_CHART_BAR", "WEIGHTED_SURFACE", "WEIGHTED_SURFACE_BAR",
    *[f"c3z{k}_chart" for k in range(2, 8)], *EDGE_DOCS])
def test_elimination_table_matches_reference(name):
    import test_generalization
    if name in fans.NAMES:
        doc = json.loads(fans.read(name))
    elif name.endswith("_chart"):
        doc = c3_zk_chart(int(name[3:-len("_chart")]))
    else:
        doc = EDGE_DOCS.get(name) or getattr(test_generalization, name)
    assert_table_matches_reference(doc)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(fan_documents())
def test_elimination_table_matches_reference_on_random_fans(doc):
    assert_table_matches_reference(doc)


def test_each_listed_cone_is_eliminated_once(monkeypatch):
    # loading the seven bundled fans eliminates each listed cone once and
    # takes one Smith form per fan, for the lattice check; box enumeration
    # takes a Smith form only for the cones with box elements, and the
    # compactification's ray-negative certificate eliminates nothing
    from orbidisk import fan as fan_module
    calls = []
    for name in ("row_reduce", "smith_normal_form"):
        def counted(*args, name=name, f=getattr(linalg, name)):
            calls.append(name)
            return f(*args)
        monkeypatch.setattr(linalg, name, counted)
    loaded = [load(name) for name in fans.NAMES]
    assert sum(len(f.cones) for f in loaded) == calls.count("row_reduce") == 19
    assert calls.count("smith_normal_form") == 7
    calls.clear()
    for f in loaded:
        box_elements(f)
    assert calls == ["smith_normal_form"] * 2
    inside = []
    solve = fan_module.minimal_cone

    def watched(*args):
        before = len(calls)
        out = solve(*args)
        inside.append(len(calls) - before)
        return out

    monkeypatch.setattr(fan_module, "minimal_cone", watched)
    validate_compactification(load("kp2"), load("kp2_bar"), "ray:0")
    assert inside == [0] * 5  # one per ray of kp2_bar


def test_kernel_data_takes_one_smith_form_of_the_columns(monkeypatch):
    # the fan keeps the Smith form its lattice check took, and kernel_data
    # reads the kernel basis off it: parsing a fan and deriving its data
    # puts the column matrix in Smith form once, default basis or basis_p
    from test_generalization import (LOCAL_QUADRIC, WEIGHTED_BASIS,
                                     WEIGHTED_SURFACE)
    seen = []
    snf = linalg.smith_normal_form

    def counted(a):
        seen.append(a)
        return snf(a)
    monkeypatch.setattr(linalg, "smith_normal_form", counted)
    cases = [(json.loads(fans.read(name)), None) for name in fans.NAMES]
    cases += [(LOCAL_QUADRIC, None), (WEIGHTED_SURFACE, WEIGHTED_BASIS)]
    for doc, basis_p in cases:
        seen.clear()
        data = kernel_data(fan_from_dict(doc), basis_p)
        cols = data.fan.columns()
        a = [[c[i] for c in cols] for i in range(data.n)]
        assert sum(x == a for x in seen) == 1, doc


# ---------------------------------------------------------------------------
# Calabi-Yau covector and semi-Fano certificate


def test_cy_c3():
    assert calabi_yau_covector(load("c3")) == [1, 1, 1]


def test_cy_kp2():
    assert calabi_yau_covector(load("kp2")) == [0, 0, 1]


def test_cy_infeasible():
    doc = {"rank": 2, "rays": [[1, 0], [-1, 0], [0, 1]],
           "cones": [[0, 2], [1, 2]]}
    fan = fan_from_dict(doc)
    assert calabi_yau_covector(fan) is None


def test_semi_fano_c3():
    data = kernel_data(load("c3"))
    assert verify_semi_fano(data) == {(0, 1, 2): []}


def test_semi_fano_kp2():
    data = kernel_data(load("kp2"))
    w = verify_semi_fano(data)
    # divisor-class sum is zero, so every anticone certifies with zeros
    assert all(lam == [F(0)] for lam in w.values())
    assert len(w) == 3


def test_semi_fano_weighted_chart():
    # all heights 1 so the CY covector exists; the feasibility solver decides
    doc = {"rank": 3,
           "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [-1, -2, 1]],
           "cones": [[0, 1, 2], [0, 2, 3], [0, 1, 3]]}
    fan = fan_from_dict(doc)
    assert calabi_yau_covector(fan) == [0, 0, 1]
    data = kernel_data(fan)
    assert data.gamma == [[-4, 1, 2, 1]]
    w = verify_semi_fano(data)
    assert len(w) == 3


# ---------------------------------------------------------------------------
# dual classes


def test_dual_class_c3z3():
    data = kernel_data(load("c3z3"))
    cone, coeffs, pairings, coords = data.disk_class(("box", 3))
    assert (cone, coeffs) == ((0, 1, 2), (F(1, 3),) * 3)
    assert pairings == (F(-1, 3), F(-1, 3), F(-1, 3), F(1))
    assert data.pairings_from_coords(coords) == list(pairings)


def test_dual_class_extra_on_ray():
    # an extra vector equal to a ray is no age-1 box element: refused, so no
    # dual class is ever formed for it
    doc = {"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]],
           "extra_vectors": [[1, 0]]}
    fan = fan_from_dict(doc)
    assert box_elements(fan) == ([], [])
    with pytest.raises(ValidationError, match="age-1 box set") as e:
        kernel_data(fan)
    assert e.value.datum == {"declared": [(1, 0)], "computed": []}


def test_dual_class_bad_index():
    data = kernel_data(load("c3z3"))
    with pytest.raises(ValidationError):
        data.disk_class(("box", 1))


# ---------------------------------------------------------------------------
# compactification


def test_compactify_kp2():
    cd = validate_compactification(load("kp2"), load("kp2_bar"), ("ray", 0))
    assert cd.bar.gamma == [[-3, 1, 1, 1, 0], [1, 0, 0, 0, 1]]
    assert cd.beta_bar == [1, 0, 0, 0, 1]
    assert cd.beta_bar[cd.bar.infinity_column] == 1
    assert cd.complete_certificate["facets_paired"] is True
    assert cd.complete_certificate["covers_ray_negatives"] is True


def test_compactify_refuses_disk_outside_the_fan():
    for disk in (("ray", 9), ("box", 1)):
        with pytest.raises(ValidationError) as e:
            validate_compactification(load("kp2"), load("kp2_bar"), disk)
        assert e.value.operation == "disk_class"


def test_compactify_c3():
    cd = validate_compactification(load("c3"), load("c3_bar"), ("ray", 2))
    assert cd.bar.gamma == [[0, 0, 1, 1]]
    assert cd.d_infinity == [0, 0, 1, 1]
    # a chart compactified by one opposite ray covers only a half-space
    assert cd.complete_certificate["facets_paired"] is False


def test_compactify_c3z3():
    cd = validate_compactification(load("c3z3"), load("c3z3_bar"), ("box", 3))
    # columns: rays 0,1,2, added ray, extra vector
    assert cd.bar.gamma == [[-1, -1, -1, 0, 3], [0, 0, 0, 1, 1]]
    assert cd.d_infinity == [0, 0, 0, 1, 1]
    assert cd.beta_bar == [F(1, 3), F(1, 3), F(1, 3), F(1), F(0)]
    assert cd.complete_certificate["facets_paired"] is True


def test_compactify_missing_infinity_cone():
    doc = json.loads(fans.read("kp2_bar"))
    doc["cones"] = [c for c in doc["cones"] if 4 not in c]
    bar = fan_from_dict(doc)
    with pytest.raises(ValidationError, match="incomplete"):
        validate_compactification(load("kp2"), bar, ("ray", 0))


def test_compactify_missing_ray():
    with pytest.raises(ValidationError):
        validate_compactification(load("kp2"), load("kp2"), ("ray", 0))


def test_compactify_wrong_disk():
    # the added ray must be opposite the selected disk ray
    with pytest.raises(ValidationError):
        validate_compactification(load("kp2"), load("kp2_bar"), ("ray", 1))


# ---------------------------------------------------------------------------
# the kernel basis


def saturated_basis_reference(fan, gamma):
    """Whether gamma is a basis of the kernel lattice (test oracle): written
    in the Smith-form kernel basis, the vectors must be integral, as many as
    its vectors, and change basis with determinant +-1."""
    cols = fan.columns()
    kernel = linalg.integer_kernel_basis(
        [[cols[j][i] for j in range(len(cols))] for i in range(fan.rank)])
    if len(kernel) != len(gamma):
        return False
    gmat = [[kernel[b][i] for b in range(len(kernel))]
            for i in range(fan.m_prime)]
    tmat = []
    for g in gamma:
        x = linalg.solve_rational(gmat, g)
        if x is None or any(v.denominator != 1 for v in x):
            return False
        tmat.append(x)
    return not tmat or abs(oracle_det(tmat)) == 1


def basis_variants(gamma):
    """gamma and its neighbours: each vector doubled, negated, repeated,
    dropped, pushed off the kernel, replaced by its sum with another vector
    (still a basis) and replaced by another vector."""
    r = len(gamma)
    out = [gamma]
    for a in range(r):
        def swap(v):
            return gamma[:a] + [v] + gamma[a + 1:]
        g = gamma[a]
        out += [swap([2 * x for x in g]), swap([-x for x in g]),
                gamma + [g], gamma[:a] + gamma[a + 1:],
                swap([g[0] + 1] + g[1:])]
        for b in range(r):
            if b != a:
                out += [swap([x + y for x, y in zip(g, gamma[b])]),
                        swap(gamma[b])]
    return out


@functools.lru_cache(maxsize=None)
def bar_data():
    """{id: bar ToricData} for the bundled oracle pairs and the
    generalization pairs."""
    from test_generalization import (A1_CHART, A1_CHART_BAR, LOCAL_QUADRIC,
                                     LOCAL_QUADRIC_BAR, WEIGHTED_BASIS,
                                     WEIGHTED_SURFACE, WEIGHTED_SURFACE_BAR)
    cases = {base + "_bar": validate_compactification(
        load(base), load(base + "_bar"), disk).bar
        for base, disk in (("c3", "ray:2"), ("kp2", "ray:0"),
                           ("c3z3", "box:3"))}
    for name, base, bar, disk, basis_p in (
            ("local_quadric_bar", LOCAL_QUADRIC, LOCAL_QUADRIC_BAR,
             ("ray", 0), None),
            ("a1_chart_bar", A1_CHART, A1_CHART_BAR, ("box", 2), None),
            ("weighted_surface_bar", WEIGHTED_SURFACE, WEIGHTED_SURFACE_BAR,
             ("ray", 0), WEIGHTED_BASIS)):
        cases[name] = validate_compactification(
            fan_from_dict(base), fan_from_dict(bar), disk, basis_p).bar
    return cases


@pytest.mark.parametrize("case", ["c3_bar", "kp2_bar", "c3z3_bar",
                                  "local_quadric_bar", "a1_chart_bar",
                                  "weighted_surface_bar"])
def test_toric_data_agrees_with_smith_reference(case):
    # the reference tells a basis from its neighbours: it accepts gamma, its
    # negations and its sums, and refuses the rest; _toric_data, which takes
    # its basis as given, builds the bar's boxes on each accepted one
    bar = bar_data()[case]
    accepted = [gamma for gamma in basis_variants(bar.gamma)
                if saturated_basis_reference(bar.fan, gamma)]
    assert len(accepted) == 1 + bar.r + bar.r * (bar.r - 1)
    for gamma in accepted:
        data = _toric_data(bar.fan, gamma, cy_covector=None)
        assert data.gamma == gamma
        assert (data.boxes, data.age1_boxes) == (bar.boxes, bar.age1_boxes)


# anticone family membership


def in_anticone_family(data, index_set):
    """Membership of an index set in the upward-closed anticone family."""
    s = set(index_set)
    return any(set(comp) <= s for _, comp, _ in data.anticones)


def test_anticone_upward_closure():
    data = kernel_data(load("kp2"))
    minimal = [comp for _, comp, _ in data.anticones]
    assert sorted(minimal) == [(1,), (2,), (3,)]
    assert in_anticone_family(data, (1, 2))
    assert in_anticone_family(data, (3,))
    assert not in_anticone_family(data, ())


# ---------------------------------------------------------------------------
# the anticone table


@functools.lru_cache(maxsize=None)
def table_data():
    """{id: ToricData} for the bundled base fans, the generalization fans,
    the bar data of every pair in bar_data() and one fan that is not
    semi-Fano: the corpus of the identity tests."""
    from test_generalization import (A1_CHART, LOCAL_QUADRIC, WEIGHTED_BASIS,
                                     WEIGHTED_SURFACE)
    cases = [(name, kernel_data(load(name)))
             for name in ("c3", "conifold", "kp2", "c3z3")]
    cases.append(("local_quadric", kernel_data(fan_from_dict(LOCAL_QUADRIC))))
    cases.append(("a1_chart", kernel_data(fan_from_dict(A1_CHART))))
    cases.append(("weighted_surface",
                  kernel_data(fan_from_dict(WEIGHTED_SURFACE),
                              basis_p=WEIGHTED_BASIS)))
    cases += bar_data().items()
    # a (-3)-curve: the divisor-class sum is negative, so not semi-Fano
    cases.append(("minus_three_curve", kernel_data(fan_from_dict(
        {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 3]],
         "cones": [[0, 1], [1, 2]]}))))
    return dict(cases)


TABLE_IDS = ["c3", "conifold", "kp2", "c3z3", "c3_bar", "kp2_bar", "c3z3_bar",
             "local_quadric", "local_quadric_bar", "a1_chart", "a1_chart_bar",
             "weighted_surface", "weighted_surface_bar", "minus_three_curve"]


@pytest.mark.parametrize("case", TABLE_IDS)
def test_anticone_generators_dual(case):
    data = table_data()[case]
    assert [c for c, _, _ in data.anticones] == \
        [tuple(c) for c in data.fan.cones if len(c) == data.n]
    for cone, comp, gens in data.anticones:
        assert comp == tuple(i for i in range(data.m) if i not in cone) + \
            tuple(data.extra_columns())
        # m - n rays and m' - m extras: one column per kernel basis vector
        assert len(comp) == len(gens) == data.r == data.m_prime - data.n
        for k, g in enumerate(gens):
            for l, col in enumerate(comp):
                pairing = sum(g[a] * data.gamma[a][col] for a in range(data.r))
                assert pairing == (k == l)


@pytest.mark.parametrize("case", TABLE_IDS)
def test_kernel_basis_is_saturated(case):
    # every ToricData's gamma lies in the kernel of the columns and is a
    # basis of the kernel lattice: the default bases, the weighted basis_p
    # (by kernel_data's integrality check) and the bars (D_inf is the only
    # vector nonzero at the added column)
    data = table_data()[case]
    for g in data.gamma:
        for k in range(data.n):
            assert sum(g[i] * data.fan.column(i)[k]
                       for i in range(data.m_prime)) == 0
    assert saturated_basis_reference(data.fan, data.gamma)


@pytest.mark.parametrize("case", ["c3z3_bar", "a1_chart_bar",
                                  "weighted_surface", "weighted_surface_bar"])
def test_extra_vector_split_completes(case):
    # the corpus fans with extra vectors and r' = m - n > 0:
    # _default_kernel_basis completes the kernel vectors that vanish on the
    # extra columns to a basis of the kernel without a check, since they
    # form a saturated sublattice
    fan = table_data()[case].fan
    assert fan.m_prime > fan.m > fan.rank
    cols = fan.columns()
    kernel = linalg.integer_kernel_basis(
        [[c[i] for c in cols] for i in range(fan.rank)])
    inner = linalg.integer_kernel_basis(
        [[k[j] for k in kernel] for j in range(fan.m, fan.m_prime)])
    assert len(inner) == fan.m - fan.rank
    full = linalg.complete_to_unimodular(inner, len(kernel))
    assert full[:len(inner)] == inner
    assert abs(oracle_det(full)) == 1


def semi_fano_reference(data):
    """The semi-Fano multipliers by a direct solve of each anticone system."""
    rho = [sum(g) for g in data.gamma]
    out = {}
    for cone, _, _ in data.anticones:
        comp = [i for i in range(data.m) if i not in cone] + \
            list(data.extra_columns())
        sub = [[data.gamma[a][i] for i in comp] for a in range(data.r)]
        out[cone] = linalg.solve_rational(sub, rho) if sub else []
    return out


@pytest.mark.parametrize("case", TABLE_IDS)
def test_semi_fano_matches_direct_solve(case):
    data = table_data()[case]
    want = semi_fano_reference(data)
    bad = [(c, lam) for c, lam in want.items() if any(x < 0 for x in lam)]
    if not bad:
        assert verify_semi_fano(data) == want
        return
    with pytest.raises(ConsistencyError) as e:
        verify_semi_fano(data)
    assert e.value.datum["multipliers"] == [str(x) for x in bad[0][1]]


@pytest.mark.parametrize("case", TABLE_IDS)
def test_extra_cone_data_matches_minimal_cone(case):
    # the disk table: every ray is its own cone with the zero dual class, and
    # every extra column has the cone minimal_cone would solve afresh and a
    # kernel dual class, 1 at the column and minus the cone coefficients
    data = table_data()[case]
    rays = [("ray", i) for i in range(data.m)]
    boxes = [("box", j) for j in data.extra_columns()]
    assert list(data.disks) == rays + boxes
    for disk in rays:
        assert data.disks[disk] == ((disk[1],), (1,), (0,) * data.m_prime,
                                    (0,) * data.r)
    for disk in boxes:
        j = disk[1]
        cone, coeffs, pairings, coords = data.disks[disk]
        assert (cone, coeffs) == minimal_cone(data.fan, data.fan.column(j))
        want = [0] * data.m_prime
        want[j] = 1
        for i, c in zip(cone, coeffs):
            want[i] = -c
        assert list(pairings) == want
        for k in range(data.n):
            assert sum(p * data.fan.column(i)[k]
                       for i, p in enumerate(pairings)) == 0
        assert data.pairings_from_coords(coords) == want


@pytest.mark.parametrize("argv,calls", [
    ("oracle c3z3 --bar c3z3_bar --disk box:3 --order 10", 2),
    ("invariants c3z3 --disk box:3", 1),
    ("syz c3z3", 1),
])
def test_dual_classes_solved_once(monkeypatch, capsys, argv, calls):
    # each extra column's dual class is solved when its ToricData is built,
    # on the base and on the bar; the oracle reads beta_bar and D_inf in the
    # bar's basis from the compactification and solves for nothing else
    from orbidisk import fan
    from orbidisk.cli import main
    count = [0]
    solve = fan._kernel_coords

    def counted(gamma, pairings):
        count[0] += 1
        return solve(gamma, pairings)

    monkeypatch.setattr(fan, "_kernel_coords", counted)
    assert main(argv.split(" ")) == 0
    capsys.readouterr()
    assert count[0] == calls


@pytest.mark.parametrize("name", fans.NAMES)
def test_anticone_table_built_once(monkeypatch, name):
    # the default basis orients the Smith kernel by sign flips, and a flip
    # negates one coordinate of every generator, so the table it reads is
    # carried over to the final basis (test_anticone_generators_dual checks
    # the carried table)
    from orbidisk import fan
    calls = []
    build = fan._anticones

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(fan, "_anticones", counted)
    data = kernel_data(load(name))
    assert len(calls) == 1
    assert data.anticones == build(data.fan, data.gamma)


def test_fan_with_listed_faces():
    # explicitly listed faces are tolerated and change nothing
    doc = json.loads(fans.read("kp2"))
    doc["cones"] += [[0, 1], [0], [1, 2]]
    fan = fan_from_dict(doc)
    data = kernel_data(fan)
    assert data.gamma == [[-3, 1, 1, 1]]
    assert len(data.anticones) == 3
    boxes, _ = box_elements(fan)
    assert boxes == []


def test_fan_face_of_orbifold_cone():
    doc = json.loads(fans.read("c3z3"))
    doc["cones"] += [[0, 1]]
    fan = fan_from_dict(doc)
    boxes, age1 = box_elements(fan)
    assert [b.vector for b in boxes] == [(0, 0, 1), (0, 0, 2)]


# ---------------------------------------------------------------------------
# immutable values


def value_classes():
    """Every `Value` subclass defined in one of the package's modules."""
    found = []
    for info in pkgutil.iter_modules(orbidisk.__path__):
        mod = importlib.import_module(f"orbidisk.{info.name}")
        found += [obj for obj in vars(mod).values()
                  if isinstance(obj, type) and issubclass(obj, Value)
                  and obj is not Value
                  and obj.__module__ == mod.__name__]
    return found


def test_every_value_is_frozen():
    assert len(value_classes()) >= 10
    box = box_elements(load("c3z3"))[0][0]
    for value, field in ((kernel_data(load("kp2")), "gamma"), (box, "age")):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, [])
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


def test_coords_from_pairings():
    data = kernel_data(load("kp2"))
    assert data.coords_from_pairings(data.pairings_from_coords([F(5, 2)])) \
        == [F(5, 2)]


def test_coords_from_pairings_refuses_a_vector_off_the_kernel():
    # not a kernel vector: an input error, not read off a subset of its
    # entries
    data = kernel_data(load("kp2"))
    with pytest.raises(ValidationError,
                       match="pairing vector is not in the kernel") as e:
        data.coords_from_pairings([1, 0, 0, 0])
    assert (e.value.exit_code, e.value.module, e.value.operation,
            e.value.datum) == (2, "fan-core", "coords_from_pairings",
                                [1, 0, 0, 0])
