from fractions import Fraction
from operator import mul

import pytest

from orbidisk import fans, invariants, linalg, mirrormap, syz
from orbidisk.effective import enumerate_effective
from orbidisk.errors import ValidationError
from orbidisk.fan import fan_from_dict, kernel_data, verify_semi_fano
from orbidisk.series import mono
from orbidisk.syz import (emit_lg_model, mirror_potential,
                          solve_coefficient_system)
from test_fan import TABLE_IDS, table_data
from test_generalization import WEIGHTED_BASIS, WEIGHTED_SURFACE
from test_invariants import CORPUS_IDS, potential_corpus
from test_linalg import oracle_rank

F = Fraction


def data_for(name):
    return kernel_data(fans.load(name))


def gauge_character(data, sol_a, sol_b):
    """Covector family relating two gauge solutions.

    Returns u with sol_b[i] - sol_a[i] = <u, column_i> for every column, one
    exponent vector per flat variable; fails if no such character exists.
    """
    rows = [list(data.column_vector(i)) for i in range(data.m_prime)]
    out = []
    for k in range(data.r_prime):
        x = linalg.solve_rational(
            rows, [sol_b[i][k] - sol_a[i][k] for i in range(data.m_prime)])
        assert x is not None, f"gauge solutions differ by no character ({k})"
        out.append(x)
    return out


def coefficient_reference(data, cone):
    """The gauge-fixed coefficients by a direct inversion of the relation
    block on the columns outside the gauge cone."""
    r, rp = data.r, data.r_prime
    unknowns = [i for i in range(data.m) if i not in cone] + \
        list(data.extra_columns())
    sol = {i: [F(0)] * rp for i in range(data.m_prime)}
    if r == 0:
        return sol
    a = [[data.gamma[row][u] for u in unknowns] for row in range(r)]
    assert oracle_rank(a) == r
    ainv = linalg.invert_rational(a)
    rhs = syz._relation_rhs(data)
    for ui, u in enumerate(unknowns):
        sol[u] = [sum(ainv[ui][row] * rhs[row][k] for row in range(r))
                  for k in range(rp)]
    return sol


@pytest.mark.parametrize("case", TABLE_IDS)
def test_coefficients_match_direct_inversion(case):
    data = table_data()[case]
    for k, (cone, _, _) in enumerate(data.anticones):
        assert solve_coefficient_system(data, k) == \
            coefficient_reference(data, cone)


@pytest.mark.parametrize("case", CORPUS_IDS)
def test_solved_coefficients_satisfy_every_relation(case):
    # a flat row's relation runs over the rays, the others over every
    # column: the anticone generators invert the relation block, and on a
    # split basis the flat rows vanish at the extra columns
    data = potential_corpus()[case]
    rhs = syz._relation_rhs(data)
    for k in range(len(data.anticones)):
        sol = solve_coefficient_system(data, k)
        for a, (row, want) in enumerate(zip(data.gamma, rhs, strict=True)):
            cols = data.m if a < data.r_prime else data.m_prime
            assert [sum(row[i] * sol[i][c] for i in range(cols))
                    for c in range(data.r_prime)] == want, (k, a)


def test_unsplit_basis_refused():
    # the flat rows hold only on a split basis: any other is refused with
    # exit 2, as toric_mirror_map refuses it
    unsplit = kernel_data(fan_from_dict(WEIGHTED_SURFACE), WEIGHTED_BASIS[::-1])
    assert not unsplit.split_ok
    with pytest.raises(ValidationError) as e:
        solve_coefficient_system(unsplit, 0)
    assert e.value.exit_code == 2
    assert e.value.operation == "solve_coefficient_system"
    assert "kernel basis is not adapted to the extra vectors" in str(e.value)


@pytest.mark.parametrize("name", ["kp2", "c3z3", "conifold"])
def test_consumers_read_anticone_table(monkeypatch, name):
    # once kernel_data has run, no consumer inverts an anticone block again
    data = data_for(name)
    calls = {"invert_rational": 0, "solve_rational": 0}

    def counted(fname):
        original = getattr(linalg, fname)

        def wrapper(*args):
            calls[fname] += 1
            return original(*args)
        return wrapper

    for fname in calls:
        monkeypatch.setattr(linalg, fname, counted(fname))
    verify_semi_fano(data)
    assert calls == {"invert_rational": 0, "solve_rational": 0}
    assert enumerate_effective(data, 6)
    for k in range(len(data.anticones)):
        solve_coefficient_system(data, k)
    assert calls["invert_rational"] == 0


# ---------------------------------------------------------------------------
# coefficient solving


def test_coefficients_c3():
    data = data_for("c3")
    sol = solve_coefficient_system(data, 0)
    assert sol == {0: [], 1: [], 2: []}


def test_coefficients_kp2():
    data = data_for("kp2")
    sol = solve_coefficient_system(data, 0)
    assert sol[0] == [0] and sol[1] == [0] and sol[2] == [0]
    assert sol[3] == [1]  # C_3 = q


def test_coefficients_c3z3():
    data = data_for("c3z3")
    sol = solve_coefficient_system(data, 0)
    # no flat variables at all: every coefficient is the empty monomial
    assert all(v == [] for v in sol.values())


def test_coefficients_second_gauge_kp2():
    data = data_for("kp2")
    sol = solve_coefficient_system(data, 1)
    assert sol[1] == [1]  # C_1 = q in this gauge
    assert sol[0] == [0] and sol[2] == [0] and sol[3] == [0]


def test_gauge_must_be_listed(monkeypatch):
    # a gauge is an index into data.anticones: -1 does not select the last
    # cone, and a refused gauge builds no mirror map, so it is refused ahead
    # of the mirror map's own refusals
    calls = []

    def counted(*args, _original=mirrormap.toric_mirror_map):
        calls.append(args)
        return _original(*args)
    # syz reads mirrormap.toric_mirror_map at call time
    monkeypatch.setattr(mirrormap, "toric_mirror_map", counted)
    data = data_for("kp2")
    assert len(data.anticones) == 3
    unsplit = kernel_data(fan_from_dict(WEIGHTED_SURFACE), WEIGHTED_BASIS[::-1])
    for d, k in ((data, -1), (data, 3), (unsplit, len(unsplit.anticones))):
        for call in (lambda: solve_coefficient_system(d, k),
                     lambda: mirror_potential(d, k, 2)):
            with pytest.raises(ValidationError) as e:
                call()
            assert str(e.value) == f"[syz-builder/gauge] no maximal cone {k}"
            assert e.value.datum == k
    assert calls == []


def test_relations_hold_exactly():
    # prod C_i^{m_ia} = q_a as exponent identities
    data = data_for("kp2")
    sol = solve_coefficient_system(data, 0)
    lhs = [sum(data.gamma[0][i] * sol[i][0] for i in range(4))]
    assert lhs == [1]


def test_gauge_character_kp2():
    data = data_for("kp2")
    a = solve_coefficient_system(data, 0)
    b = solve_coefficient_system(data, 1)
    u = gauge_character(data, a, b)
    # changing gauge multiplies each coefficient by the character pairing
    for i in range(data.m_prime):
        col = data.column_vector(i)
        for k in range(data.r_prime):
            pair = sum(F(u[k][t]) * col[t] for t in range(data.n))
            assert b[i][k] - a[i][k] == pair


# ---------------------------------------------------------------------------
# assembled potentials


def test_mirror_potential_c3():
    data = data_for("c3")
    mp = mirror_potential(data, 0, 4)
    assert len(mp.terms) == 3
    for _, vec, red, series in mp.terms:
        assert series.terms == {(): F(1)}
    doc = emit_lg_model(mp)
    assert doc["equation"] == "uv = G"
    assert doc["W"] == "u"
    assert all(t["C"] == {} for t in doc["terms"])


def test_mirror_potential_kp2():
    data = data_for("kp2")
    mp = mirror_potential(data, 0, 3)
    by_col = {t[0]: t for t in mp.terms}
    q = lambda e: mono(("q1", e))
    assert by_col[0][3].terms == {(): F(1), q(1): F(-2), q(2): F(5),
                                  q(3): F(-32)}
    assert by_col[1][3].terms == {(): F(1)}
    assert by_col[2][3].terms == {(): F(1)}
    assert by_col[3][3].terms == {(): F(1)}
    assert mp.coefficients[3] == [1]
    # covector reduction: the compact ray reduces to the origin
    assert by_col[0][2] == (0, 0)
    doc = emit_lg_model(mp)
    assert len(doc["terms"]) == 4


def test_mirror_potential_c3z3():
    data = data_for("c3z3")
    mp = mirror_potential(data, 0, F(4, 3))
    by_col = {t[0]: t for t in mp.terms}
    t = lambda e: mono(("t3", e))
    assert by_col[3][3].terms == {t(1): F(1), t(4): F(1, 648)}
    for i in (0, 1, 2):
        assert by_col[i][3].terms == {(): F(1)}
    doc = emit_lg_model(mp)
    assert len(doc["terms"]) == 4


@pytest.mark.parametrize("name, order", [("kp2", 3), ("c3z3", F(4, 3))],
                         ids=["kp2-3", "c3z3-4/3"])
def test_mirror_potential_builds_one_map_and_one_inverse(monkeypatch, name,
                                                         order):
    # syz builds the map, invariants inverts it
    calls = []
    for mod, fn in ((mirrormap, "toric_mirror_map"),
                    (invariants, "inverse_mirror_map")):
        def counted(*args, _fn=fn, _original=getattr(mod, fn)):
            calls.append(_fn)
            return _original(*args)
        monkeypatch.setattr(mod, fn, counted)
    data = data_for(name)
    mirror_potential(data, 0, order)
    assert sorted(calls) == ["inverse_mirror_map", "toric_mirror_map"]


def test_reduction_covector():
    data = data_for("kp2")
    mp = mirror_potential(data, 0, 2)
    v = data.cy_covector
    # section pairs to 1, kernel basis pairs to 0
    assert sum(a * b for a, b in zip(v, mp.section)) == 1
    for col in mp.basis:
        assert sum(a * b for a, b in zip(v, col)) == 0
    # reduced coordinates reproduce each exponent: b = w + sum red_k basis_k
    for _, vec, red, _ in mp.terms:
        for k in range(data.n):
            s = mp.section[k] + sum(r * mp.basis[j][k]
                                    for j, r in enumerate(red))
            assert s == vec[k]


@pytest.mark.parametrize("case", ["c3", "conifold", "kp2", "c3z3",
                                  "local_quadric", "a1_chart",
                                  "weighted_surface"])
def test_covector_splitting_identities(case):
    # the covector pairs to 1 with a column, so it is primitive (Smith
    # diagonal +-1), the section pairs to 1 with it, the basis spans its
    # kernel and the reduction rows are the dual coordinates of that basis
    data = table_data()[case]
    v = data.cy_covector
    assert abs(linalg.smith_normal_form([list(v)])[0][0][0]) == 1
    basis, w, rows = syz.covector_splitting(data)
    assert sum(map(mul, v, w)) == 1
    assert all(sum(map(mul, v, b)) == 0 for b in basis)
    assert [[sum(map(mul, row, x)) for x in (w, *basis)] for row in rows] == \
        [[int(k == j + 1) for k in range(data.n)] for j in range(data.n - 1)]


def test_gauge_covariance_term_sets():
    # the reduced potential is gauge independent after the character shift
    data = data_for("kp2")
    order = 3
    mp_a = mirror_potential(data, 0, order)
    mp_b = mirror_potential(data, 1, order)
    u = gauge_character(data, mp_a.coefficients, mp_b.coefficients)
    for (ca, va, ra, sa), (cb, vb, rb, sb) in zip(mp_a.terms, mp_b.terms):
        assert (ca, va, ra) == (cb, vb, rb)
        assert sa.same_terms(sb)
        col = data.column_vector(ca)
        for k in range(data.r_prime):
            pair = sum(F(u[k][t]) * col[t] for t in range(data.n))
            assert mp_b.coefficients[ca][k] - mp_a.coefficients[ca][k] == pair
