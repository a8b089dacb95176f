import functools
import importlib
import itertools
import json
import pkgutil
from fractions import Fraction

import pytest

import orbidisk
from orbidisk import fans, linalg
from orbidisk.errors import ConsistencyError, ValidationError, Value
from orbidisk.fan import (_toric_data, box_elements, calabi_yau_covector,
                          fan_from_dict, kernel_data, parse_stacky_fan,
                          validate_compactification, verify_calabi_yau,
                          verify_semi_fano)

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
    from orbidisk.fan import minimal_cone
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


def test_user_basis_good():
    # supply the dual description of the kernel basis as explicit rows
    data = kernel_data(load("kp2"), basis_p=[[0, 1, 0, 0]])
    assert data.gamma == [[-3, 1, 1, 1]]
    assert data.basis_origin == "user"


def test_user_basis_not_unimodular():
    with pytest.raises(ValidationError):
        kernel_data(load("kp2"), basis_p=[[0, 2, 0, 0]])


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
    """Scan integer points of the coefficient cube per cone (test oracle)."""
    out = {}
    for cone in fan.cones:
        rays = [fan.rays[i] for i in cone]
        n = fan.rank
        lo = [sum(min(0, r[k]) for r in rays) for k in range(n)]
        hi = [sum(max(0, r[k]) for r in rays) for k in range(n)]
        for pt in itertools.product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
            a = [[rays[j][i] for j in range(len(rays))] for i in range(n)]
            x = linalg.solve_rational(a, list(pt))
            if x is None:
                continue
            if all(0 <= c < 1 for c in x) and any(c > 0 for c in x):
                out[pt] = sum(x, F(0))
    return out


@pytest.mark.parametrize("name", ["c3", "conifold", "kp2", "c3z3",
                                  "kp2_bar", "c3z3_bar"])
def test_box_brute_force_equivalence(name):
    fan = load(name)
    boxes, _ = box_elements(fan)
    got = {b.vector: b.age for b in boxes}
    want = brute_force_boxes(fan)
    assert got == want


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
# Calabi-Yau covector and semi-Fano certificate


def test_cy_c3():
    assert verify_calabi_yau(load("c3")) == [1, 1, 1]


def test_cy_kp2():
    assert verify_calabi_yau(load("kp2")) == [0, 0, 1]


def test_cy_infeasible():
    doc = {"rank": 2, "rays": [[1, 0], [-1, 0], [0, 1]],
           "cones": [[0, 2], [1, 2]]}
    fan = fan_from_dict(doc)
    assert calabi_yau_covector(fan) is None
    with pytest.raises(ValidationError):
        verify_calabi_yau(fan)


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
    v = data.dual_class_pairings(3)
    assert v == [F(-1, 3), F(-1, 3), F(-1, 3), F(1)]


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
        data.dual_class_pairings(1)


# ---------------------------------------------------------------------------
# compactification


def test_compactify_kp2():
    cd = validate_compactification(load("kp2"), load("kp2_bar"), ("ray", 0))
    assert cd.bar.gamma == [[-3, 1, 1, 1, 0], [1, 0, 0, 0, 1]]
    assert cd.beta_bar == [1, 0, 0, 0, 1]
    assert cd.beta_bar[cd.infinity_ray] == 1
    assert cd.complete_certificate["facets_paired"] is True
    assert cd.complete_certificate["covers_ray_negatives"] is True


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
# the checked ToricData builder


def saturated_basis_reference(fan, gamma):
    """The bar-basis check validate_compactification used to run (test
    oracle): written in the Smith-form kernel basis, the vectors must be
    integral, as many as its vectors, and change basis with determinant
    +-1."""
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
    return not tmat or abs(linalg.det_rational(tmat)) == 1


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
    cases = {name: table_data()[name]
             for name in ("c3_bar", "kp2_bar", "c3z3_bar")}
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
    bar = bar_data()[case]
    accepted = 0
    for gamma in basis_variants(bar.gamma):
        want = saturated_basis_reference(bar.fan, gamma)
        try:
            data = _toric_data(bar.fan, gamma, "test", cy_covector=None)
        except ConsistencyError:
            assert not want, gamma
            continue
        assert want, gamma
        assert data.gamma == gamma
        assert (data.boxes, data.age1_boxes) == (bar.boxes, bar.age1_boxes)
        accepted += 1
    assert accepted == 1 + bar.r + bar.r * (bar.r - 1)


def test_toric_data_refuses_bad_basis():
    fan = load("kp2")
    assert _toric_data(fan, [[-3, 1, 1, 1]], "test",
                       cy_covector=None).anticones == \
        kernel_data(fan).anticones
    for gamma, match in (([[-6, 2, 2, 2]], "saturated"),
                         ([[-3, 1, 1, 1], [-3, 1, 1, 1]], "saturated"),
                         ([[-3, 1, 1, 2]], "kernel relation")):
        with pytest.raises(ConsistencyError, match=match):
            _toric_data(fan, gamma, "test", cy_covector=None)
    # as many vectors as the kernel rank, but dependent
    bar = bar_data()["kp2_bar"]
    with pytest.raises(ConsistencyError, match="saturated"):
        _toric_data(bar.fan, [bar.gamma[1]] * 2, "test", cy_covector=None)


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
    """{id: ToricData} for the bundled base fans, the bar data of the bundled
    oracle pairs, the generalization fans and one fan that is not
    semi-Fano."""
    from test_generalization import (LOCAL_QUADRIC, WEIGHTED_BASIS,
                                     WEIGHTED_SURFACE)
    cases = [(name, kernel_data(load(name)))
             for name in ("c3", "conifold", "kp2", "c3z3")]
    for base, disk in (("c3", "ray:2"), ("kp2", "ray:0"), ("c3z3", "box:3")):
        cd = validate_compactification(load(base), load(base + "_bar"), disk)
        cases.append((base + "_bar", cd.bar))
    cases.append(("local_quadric", kernel_data(fan_from_dict(LOCAL_QUADRIC))))
    cases.append(("weighted_surface",
                  kernel_data(fan_from_dict(WEIGHTED_SURFACE),
                              basis_p=WEIGHTED_BASIS)))
    # a (-3)-curve: the divisor-class sum is negative, so not semi-Fano
    cases.append(("minus_three_curve", kernel_data(fan_from_dict(
        {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 3]],
         "cones": [[0, 1], [1, 2]]}))))
    return dict(cases)


TABLE_IDS = ["c3", "conifold", "kp2", "c3z3", "c3_bar", "kp2_bar", "c3z3_bar",
             "local_quadric", "weighted_surface", "minus_three_curve"]


@pytest.mark.parametrize("case", TABLE_IDS)
def test_anticone_generators_dual(case):
    data = table_data()[case]
    assert data.max_cones == [tuple(c) for c in data.fan.cones
                              if len(c) == data.n]
    for cone, comp, gens in data.anticones:
        assert comp == tuple(i for i in range(data.m) if i not in cone) + \
            tuple(data.extra_columns())
        assert len(gens) == data.r
        for k, g in enumerate(gens):
            for l, col in enumerate(comp):
                pairing = sum(g[a] * data.gamma[a][col] for a in range(data.r))
                assert pairing == (k == l)


def semi_fano_reference(data):
    """The semi-Fano multipliers by a direct solve of each anticone system."""
    rho = [sum(g) for g in data.gamma]
    out = {}
    for cone in data.max_cones:
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
    # the age-1 box table answers what minimal_cone would solve afresh
    from orbidisk.fan import minimal_cone
    data = table_data()[case]
    for j in data.extra_columns():
        assert data.extra_cone_data(j) == \
            minimal_cone(data.fan, data.fan.column(j))


def test_fan_with_listed_faces():
    # explicitly listed faces are tolerated and change nothing
    doc = json.loads(fans.read("kp2"))
    doc["cones"] += [[0, 1], [0], [1, 2]]
    fan = fan_from_dict(doc)
    data = kernel_data(fan)
    assert data.gamma == [[-3, 1, 1, 1]]
    assert len(data.max_cones) == 3
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
    # not a kernel vector: refused, not read off a subset of its entries
    with pytest.raises(ConsistencyError):
        data.coords_from_pairings([1, 0, 0, 0])
