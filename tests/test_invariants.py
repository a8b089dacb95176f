import functools
from fractions import Fraction

import pytest

from orbidisk import fans
from orbidisk.errors import ConsistencyError, ValidationError
from orbidisk.fan import (fan_from_dict, kernel_data, parse_disk_selector,
                          validate_compactification)
from orbidisk.invariants import (DiskPotential, compare_potentials,
                                 disk_potential, disk_potentials,
                                 extract_invariants, oracle_potential)
from orbidisk.mirrormap import (inverse_mirror_map, relative_mirror_map,
                                toric_mirror_map)
from orbidisk.series import Series, mono

F = Fraction


def data_for(name):
    return kernel_data(fans.load(name))


def cd_for(base, bar, disk):
    return validate_compactification(fans.load(base), fans.load(bar), disk)


def bar_base(cd, order):
    """The base map oracle_potential reads for a potential at `order`: built
    at the bar order, order + w_inf."""
    w_inf = cd.bar.grade(cd.beta_bar_coords)
    return toric_mirror_map(cd.base, F(order) + w_inf)


# ---------------------------------------------------------------------------
# potentials


def test_potential_c3_trivial():
    data = data_for("c3")
    for i in range(3):
        dp = disk_potential(toric_mirror_map(data, 6), ("ray", i))
        assert dp.series.terms == {(): F(1)}
        assert dp.normalization == "1+delta"


def test_potential_conifold_trivial():
    data = data_for("conifold")
    for i in range(4):
        dp = disk_potential(toric_mirror_map(data, 10), ("ray", i))
        assert dp.series.terms == {(): F(1)}


def test_potential_kp2():
    data = data_for("kp2")
    dp = disk_potential(toric_mirror_map(data, 3), ("ray", 0))
    q = lambda e: mono(("q1", e))
    assert dp.series.terms == {(): F(1), q(1): F(-2), q(2): F(5), q(3): F(-32)}


def test_potential_kp2_order4():
    data = data_for("kp2")
    dp = disk_potential(toric_mirror_map(data, 4), ("ray", 0))
    assert dp.series.coefficient(mono(("q1", 4))) == 286


def test_potential_kp2_outer_rays():
    data = data_for("kp2")
    for i in (1, 2, 3):
        dp = disk_potential(toric_mirror_map(data, 4), ("ray", i))
        assert dp.series.terms == {(): F(1)}


def test_potential_c3z3():
    data = data_for("c3z3")
    dp = disk_potential(toric_mirror_map(data, F(4, 3)), ("box", 3))
    t = lambda e: mono(("t3", e))
    assert dp.series.terms == {t(1): F(1), t(4): F(1, 648)}
    assert dp.normalization == "tau+delta"


def test_potential_c3z3_deeper():
    # grade 7/3 term: u = tau + u^4/648 - 4 u^7 / 229635 inverts to
    # tau + tau^4/648 - 29 tau^7 / 3674160  (hand computation)
    data = data_for("c3z3")
    dp = disk_potential(toric_mirror_map(data, F(7, 3)), ("box", 3))
    assert dp.series.coefficient(mono(("t3", 7))) == F(-29, 3674160)


def test_potential_selector_string():
    data = data_for("kp2")
    dp = disk_potential(toric_mirror_map(data, 2),
                        parse_disk_selector("ray:0", data))
    assert dp.series.coefficient(mono(("q1", 1))) == -2


@functools.cache
def potential_corpus():
    """{id: ToricData} for every Calabi-Yau semi-Fano fan, bundled or of the
    test modules, on a split basis: the corpus of the potential and
    coefficient identities."""
    from test_constant_term import CORPUS_FANS
    from test_fan import c3_zk_chart
    from test_generalization import (A1_CHART, C4Z4, WEIGHTED_BASIS,
                                     WEIGHTED_SURFACE)
    cases = {name: data_for(name) for name in ("c3", "conifold", "kp2",
                                                 "c3z3")}
    for name, doc in CORPUS_FANS.items():
        cases[name] = kernel_data(fan_from_dict(doc))
    cases["a1_chart"] = kernel_data(fan_from_dict(A1_CHART))
    cases["c4z4"] = kernel_data(fan_from_dict(C4Z4))
    cases["weighted_surface"] = kernel_data(fan_from_dict(WEIGHTED_SURFACE),
                                            WEIGHTED_BASIS)
    for k in (2, 3):
        cases[f"c3z{k}_chart"] = kernel_data(fan_from_dict(c3_zk_chart(k)))
    return cases


CORPUS_IDS = ["c3", "conifold", "kp2", "c3z3", "local_quadric", "f1", "f2",
              "dp2", "a1_chart", "weighted_surface", "c3z2_chart",
              "c3z3_chart", "local_p3", "c4z4"]


@pytest.mark.parametrize("case", CORPUS_IDS)
def test_each_potential_starts_at_its_lead(case):
    # a ray potential starts at 1 and a box potential at its tau, each with
    # coefficient 1: the inverse takes a box disk's dual-class monomial to
    # its tau times 1 plus positive grade, and exp of a cone sum starts at 1
    data = potential_corpus()[case]
    assert sorted(potential_corpus()) == sorted(CORPUS_IDS)
    assert data.cy_covector is not None and data.split_ok
    for (kind, idx), dp in disk_potentials(toric_mirror_map(data, 3)).items():
        lead = mono() if kind == "ray" else mono((data.tau_name(idx), 1))
        assert dp.series.factor_unit()[:2] == (lead, 1), (kind, idx)


# ---------------------------------------------------------------------------
# invariant tables


def test_invariants_kp2():
    dp = disk_potential(toric_mirror_map(data_for("kp2"), 4), ("ray", 0))
    table = extract_invariants(dp)
    assert table.value([0]) == 1
    assert table.value([1]) == -2
    assert table.value([2]) == 5
    assert table.value([3]) == -32
    assert table.value([4]) == 286
    assert table.value([5]) == 0


def test_invariant_value_takes_keys_as_given():
    # a fractional or float alpha or count names no entry; an integral
    # Fraction finds the int's entry
    dp = disk_potential(toric_mirror_map(data_for("kp2"), 4), ("ray", 0))
    table = extract_invariants(dp)
    assert table.value([F(1, 2)]) == 0
    assert table.value([1.9]) == 0
    assert table.value([F(2)]) == table.value([2]) == 5
    dp = disk_potential(toric_mirror_map(data_for("c3z3"), F(4, 3)),
                        ("box", 3))
    table = extract_invariants(dp)
    assert table.value([], [("b0,0,1", F(4))]) == F(1, 27)
    assert table.value([], [("b0,0,1", 4.5)]) == 0


def test_invariants_c3z3():
    dp = disk_potential(toric_mirror_map(data_for("c3z3"), F(4, 3)),
                        ("box", 3))
    table = extract_invariants(dp)
    # coefficient 1/648 times 4! = 1/27
    assert table.value([], [("b0,0,1", 4)]) == F(1, 27)
    assert table.value([], [("b0,0,1", 1)]) == 1


def test_invariants_conifold_vanish():
    data = data_for("conifold")
    for i in range(4):
        table = extract_invariants(
            disk_potential(toric_mirror_map(data, 10), ("ray", i)))
        for (alpha, ins), val in table.entries.items():
            if any(alpha):
                assert val == 0
        assert table.value([0]) == 1


def test_invariants_json():
    dp = disk_potential(toric_mirror_map(data_for("c3z3"), F(4, 3)),
                        ("box", 3))
    rows = extract_invariants(dp).to_json()
    assert {"alpha": [], "insertions": {"b0,0,1": 4},
            "value": "1/27"} in rows


def test_negative_exponent_is_inconsistent():
    # a potential with a negative flat exponent means the mirror-map layers
    # disagree, not that the input is out of the table's reach: exit 3
    data = data_for("kp2_bar")
    m = mono(("q1", -1), ("q2", 2))
    dp = DiskPotential(("ray", 0), Series({"q1": 1, "q2": 1}, 3, {m: 1}),
                       "1+delta", data)
    with pytest.raises(ConsistencyError, match="non-representable") as e:
        extract_invariants(dp)
    assert e.value.datum == m


def insertion_label_reference(data, j):
    """The label of extra column j's insertion: its age-1 box element, found
    by scanning the box table."""
    (box,) = [b for b in data.age1_boxes
              if b.vector == tuple(data.column_vector(j))]
    return "b" + ",".join(str(x) for x in box.vector)


def _names_data(case):
    from orbidisk.fan import fan_from_dict
    from test_generalization import (LOCAL_QUADRIC, WEIGHTED_BASIS,
                                     WEIGHTED_SURFACE)
    if case == "local_quadric":
        return kernel_data(fan_from_dict(LOCAL_QUADRIC))
    if case == "weighted_surface":
        return kernel_data(fan_from_dict(WEIGHTED_SURFACE), WEIGHTED_BASIS)
    return data_for(case)


@pytest.mark.parametrize("case", ["c3", "conifold", "kp2", "c3z3",
                                  "local_quadric", "weighted_surface"])
def test_flat_names_come_from_q_vars(case):
    # relations, potentials and invariant tables all name the flat variables
    # by data.q_vars() and the twisted ones by data.tau_name
    data = _names_data(case)
    taus = [data.tau_name(j) for j in data.extra_columns()]
    names = data.q_vars() + taus
    assert data.q_vars() == [f"q{a + 1}" for a in range(data.r_prime)]
    mm = toric_mirror_map(data, 2)
    assert [rel.target for rel in mm.relations] == names
    labels = {data.tau_name(j): insertion_label_reference(data, j)
              for j in data.extra_columns()}
    for dp in disk_potentials(mm).values():
        assert set(dp.series.weights) <= set(names)
        assert all(v in names for m in dp.series.terms for v, _ in m)
        if any(e.denominator != 1 for m in dp.series.terms for _, e in m):
            # a fractional exponent has no table entry: refused as a limit
            with pytest.raises(ValidationError, match="integral exponents"):
                extract_invariants(dp)
            continue
        table = extract_invariants(dp)
        for m in dp.series.terms:
            alpha = tuple(int(dict(m).get(q, 0)) for q in data.q_vars())
            ins = tuple(sorted((labels[v], int(e)) for v, e in m if v in taus))
            assert (alpha, ins) in table.entries


@pytest.mark.parametrize("base,bar,disk", [
    ("c3", "c3_bar", ("ray", 2)),
    ("kp2", "kp2_bar", ("ray", 0)),
    ("c3z3", "c3z3_bar", ("box", 3)),
])
def test_relative_names_come_from_q_vars(base, bar, disk):
    cd = cd_for(base, bar, disk)
    mm = relative_mirror_map(cd, bar_base(cd, 2))
    rp = cd.bar.r_prime
    assert cd.bar.q_vars() == cd.base.q_vars() + ["qinf"]
    assert cd.bar.q_vars()[rp] == "qinf"
    assert [rel.target for rel in mm.relations] == \
        cd.bar.q_vars() + [cd.bar.tau_name(j) for j in cd.bar.extra_columns()]


# ---------------------------------------------------------------------------
# the compactified derivation


def test_oracle_c3():
    cd = cd_for("c3", "c3_bar", ("ray", 2))
    s = oracle_potential(cd, bar_base(cd, 4))
    assert s.terms == {(): F(1)}


def test_oracle_kp2():
    cd = cd_for("kp2", "kp2_bar", ("ray", 0))
    s = oracle_potential(cd, bar_base(cd, 3))
    q = lambda e: mono(("q1", e))
    assert s.terms == {(): F(1), q(1): F(-2), q(2): F(5), q(3): F(-32)}


def test_oracle_c3z3():
    cd = cd_for("c3z3", "c3z3_bar", ("box", 3))
    s = oracle_potential(cd, bar_base(cd, F(4, 3)))
    t = lambda e: mono(("t3", e))
    assert s.terms == {t(1): F(1), t(4): F(1, 648)}


@pytest.mark.parametrize("base,bar,disk,order", [
    ("c3", "c3_bar", ("ray", 2), 4),
    ("kp2", "kp2_bar", ("ray", 0), 4),
    ("c3z3", "c3z3_bar", ("box", 3), F(7, 3)),
])
def test_compare_potentials(base, bar, disk, order):
    cd = cd_for(base, bar, disk)
    dp, oracle = compare_potentials(cd, order)
    assert dp.series.same_terms(oracle)


def test_compare_potentials_computes_each_artefact_once(monkeypatch):
    # one base mirror map, built at the bar order and read by both routes:
    # one enumeration and one slice of each fan, one semi-Fano certificate,
    # and one extraction per enumerated class
    import sys
    from orbidisk import effective, fan, hyper, mirrormap

    calls = {}

    def counted(name, fn, tally=None):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name] += 1
            if tally:
                tally(out)
            return out
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("orbidisk")
                    and getattr(mod, name, None) is fn):
                monkeypatch.setattr(mod, name, wrapper)

    def on_enumerate(out):
        calls["classes"] += len(out)

    counted("toric_mirror_map", mirrormap.toric_mirror_map)
    counted("enumerate_effective", effective.enumerate_effective, on_enumerate)
    counted("verify_semi_fano", fan.verify_semi_fano)
    counted("coefficient_slice", hyper.coefficient_slice)
    counted("z_extract", hyper.z_extract)
    for base, disk in (("c3", ("ray", 2)), ("kp2", ("ray", 0)),
                       ("c3z3", ("box", 3))):
        calls.update(dict.fromkeys(
            ("toric_mirror_map", "enumerate_effective", "verify_semi_fano",
             "coefficient_slice", "z_extract", "classes"), 0))
        compare_potentials(cd_for(base, base + "_bar", disk), 2)
        assert calls["toric_mirror_map"] == 1, base
        assert calls["enumerate_effective"] == 2, base
        assert calls["verify_semi_fano"] == 1, base
        assert calls["coefficient_slice"] == 2, base
        assert calls["z_extract"] == calls["classes"], base
    assert calls["classes"] > 0


def _data_of(case):
    from orbidisk.fan import fan_from_dict
    from test_generalization import LOCAL_QUADRIC
    fan = fans.load("kp2") if case == "kp2" else fan_from_dict(LOCAL_QUADRIC)
    return kernel_data(fan)


def _potential_of(case, order):
    disk_potential(toric_mirror_map(_data_of(case), order), ("ray", 0))


def _count_substitutes(monkeypatch):
    from orbidisk import series

    calls = [0]
    substitute = series.Series.substitute

    def counted(self, assignment, *more):
        calls[0] += 1
        return substitute(self, assignment, *more)

    monkeypatch.setattr(series.Series, "substitute", counted)
    return calls


@pytest.mark.parametrize("case, order, ceiling", [
    # substitution passes while inverting the mirror map: 12 and 10 with
    # one stepped round per grade step; 4 and 6 with one pass per unit per
    # Newton round (orders 2, 5, 11 on kp2 at 12; 3/2, 4 on the quadric)
    # and one per relation in the round-trip check.  One pass per round,
    # the Euler images included, and one for the check make 4 and 3; 7 at
    # kp2 order 80, where the stepped rounds made 80
    ("kp2", 12, 4),
    ("local_quadric", 5, 3),
    ("kp2", 80, 7),
], ids=["kp2-12", "local_quadric-5", "kp2-80"])
def test_inversion_substitute_count(monkeypatch, case, order, ceiling):
    mm = toric_mirror_map(_data_of(case), order)
    calls = _count_substitutes(monkeypatch)
    inverse_mirror_map(mm)
    assert 0 < calls[0] <= ceiling


def _potential_runs(case):
    """(map inverted, the entry point under test) for one pass-count case."""
    if case == "oracle-kp2":
        from orbidisk.mirrormap import relative_mirror_map
        cd = cd_for("kp2", "kp2_bar", ("ray", 0))
        base = bar_base(cd, 4)
        return relative_mirror_map(cd, base), lambda: oracle_potential(cd, base)
    from orbidisk.invariants import disk_potentials
    kind, _, name = case.rpartition("-")
    data = data_for(name) if name == "c3z3" else _data_of(name)
    mm = toric_mirror_map(data, F(7, 3) if name == "c3z3" else 5)
    if kind == "potentials":
        return mm, lambda: disk_potentials(mm)
    disk = ("box", 3) if name == "c3z3" else ("ray", 0)
    return mm, lambda: disk_potential(mm, disk)


@pytest.mark.parametrize("case", [
    "kp2", "local_quadric", "c3z3", "potentials-kp2", "potentials-c3z3",
    "oracle-kp2"])
def test_potential_substitutes_once(monkeypatch, case):
    # a potential is read off the pass that checks the inverse: the head
    # monomial and cone sum of each disk (of every disk, for
    # disk_potentials) and the oracle's compactifying monomial add no
    # substitution pass to those inverse_mirror_map makes alone (one more
    # per disk before)
    mm, run = _potential_runs(case)
    calls = _count_substitutes(monkeypatch)
    inverse_mirror_map(mm)
    alone = calls[0]
    run()
    assert alone > 0 and calls[0] == 2 * alone


@pytest.mark.parametrize("case, order, ceiling", [
    # term pairs multiplied: 71,266 with a fresh pow_int per substituted
    # term, exp/log summed power by power and full-precision inversion
    # rounds; 2,642 with power tables, grading-operator recurrences and
    # stepped rounds, counted in _mul_into, the one multiplication kernel
    ("kp2", 12, 5_300),
    # 59,359 before; 1,887 now
    ("local_quadric", 5, 3_800),
], ids=["kp2-12", "local_quadric-5"])
def test_disk_potential_operation_count(monkeypatch, case, order, ceiling):
    # a guard on the series kernel's work: undoing the power caching in
    # substitute, the exp/log recurrences or the stepped inversion rounds
    # multiplies the term pairs several times over
    from orbidisk import series

    pairs = [0]
    mul_into = series._mul_into

    def counted_mul_into(acc, a, b):
        pairs[0] += len(a) * len(b)
        return mul_into(acc, a, b)

    monkeypatch.setattr(series, "_mul_into", counted_mul_into)
    _potential_of(case, order)
    assert 0 < pairs[0] <= ceiling


@pytest.mark.parametrize("case, order, ceiling", [
    # mono_grade calls: 3,758 when every series operation re-graded its
    # terms; 40 now that the grades are the keys of the stored pieces
    ("kp2", 12, 80),
    # 5,128 before; 48 now
    ("local_quadric", 5, 100),
], ids=["kp2-12", "local_quadric-5"])
def test_disk_potential_grade_count(monkeypatch, case, order, ceiling):
    # a term is graded once, when it enters the series layer from outside
    from orbidisk import series

    calls = [0]
    mono_grade = series.mono_grade

    def counted(m, weights):
        calls[0] += 1
        return mono_grade(m, weights)

    monkeypatch.setattr(series, "mono_grade", counted)
    _potential_of(case, order)
    assert 0 < calls[0] <= ceiling


@pytest.mark.parametrize("case, disk, order", [
    ("kp2", ("ray", 0), 12),
    ("local_quadric", ("ray", 0), 5),
    ("c3z3", ("box", 3), F(4, 3)),   # exponents in thirds
], ids=["kp2-12", "local_quadric-5", "c3z3-4/3"])
def test_disk_potential_kernel_stays_packed(monkeypatch, case, disk, order):
    # the multiplication kernel sees packed pieces only: monomials are
    # tuples of int exponents and coefficients int numerators, so no name,
    # no var_key sort and no Fraction enters the inner loop
    from orbidisk import series

    calls = [0]
    mul_into = series._mul_into

    def checked(acc, a, b):
        mul_into(acc, a, b)
        for piece in (a, b, acc):
            for m, n in piece.items():
                assert type(m) is tuple and all(type(x) is int for x in m)
                assert type(n) is int
        calls[0] += 1

    monkeypatch.setattr(series, "_mul_into", checked)
    data = data_for("c3z3") if case == "c3z3" else _data_of(case)
    disk_potential(toric_mirror_map(data, order), disk)
    assert calls[0] > 0


@pytest.mark.parametrize("case", ["c3z3-oracle-4/3", "local_quadric-5"])
def test_forward_layer_stays_integral(monkeypatch, case):
    # the class scan and the hypergeometric factor core see ints only:
    # Fractions enter the forward layer at EffClass and ZFactors, never in
    # its inner loops
    from orbidisk import effective, hyper

    calls = {"scan": 0, "factor": 0}
    scan, factor = effective._scan, hyper._factor

    def ints(x):
        return type(x) is int or (type(x) is tuple and all(map(ints, x)))

    def checked_scan(gens, grades, meets, i, room, spare, coords, found):
        assert all(map(ints, (gens, grades, meets, i, room, spare, coords)))
        calls["scan"] += 1
        scan(gens, grades, meets, i, room, spare, coords, found)

    def checked_factor(P, N):
        out = factor(P, N)
        assert ints((P, N)) and ints(out)
        calls["factor"] += 1
        return out

    monkeypatch.setattr(effective, "_scan", checked_scan)
    monkeypatch.setattr(hyper, "_factor", checked_factor)
    if case.startswith("c3z3"):
        compare_potentials(cd_for("c3z3", "c3z3_bar", ("box", 3)), F(4, 3))
    else:
        disk_potential(toric_mirror_map(_data_of("local_quadric"), 5),
                       ("ray", 0))
    assert calls["scan"] and calls["factor"]
