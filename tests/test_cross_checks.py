"""Every exit-3 cross-check of the package, and a case that fires it.

`sites()` scans `src/orbidisk` with `ast` for each `raise ConsistencyError`
and keys it by module, enclosing function and the first five words of its
message (`{}` stands for an interpolated value).  CASES maps each key to a
case that reaches that raise.  The guard fails if a site has no case, if a
case names a site that no longer exists, or if a case's error comes from
anywhere but its own raise.  An identity that holds for every input is
asserted over the test corpus instead, not checked on every run, and no
`assert` statement checks anything in the package: `python -O` strips them.
"""
import ast
import functools
import re
import traceback
from pathlib import Path

import pytest

import orbidisk
from orbidisk import fans, invariants
from orbidisk.effective import enumerate_effective
from orbidisk.errors import ConsistencyError
from orbidisk.fan import (fan_from_dict, kernel_data,
                          validate_compactification, verify_semi_fano)
from orbidisk.hyper import relative_ifunction_oracle
from orbidisk.invariants import (DiskPotential, compare_potentials,
                                 extract_invariants)
from orbidisk.mirrormap import MirrorMap, toric_mirror_map
from orbidisk.series import Series, invert_map, mono

SRC = Path(orbidisk.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

# C^3/Z_5 with both age-1 boxes listed: the twisted series of (0, -1, 1)
# does not start at its dual class, and mirror-map exits 3
C3Z5_CHART = {"rank": 3, "rays": [[1, 0, 1], [0, 1, 1], [-1, -3, 1]],
              "cones": [[0, 1, 2]], "extra_vectors": [[0, 0, 1], [0, -1, 1]]}


def _message(node) -> str:
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}"
                       for v in node.values)
    return node.value


@functools.cache
def sites() -> list:
    """[((module, function, message start), (path, line))] for every
    `raise ConsistencyError(module, operation, message, ...)` in the
    package."""
    found = []

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, path, child.name)
                continue
            exc = getattr(child, "exc", None) if isinstance(child, ast.Raise) \
                else None
            if isinstance(exc, ast.Call) and \
                    getattr(exc.func, "id", None) == "ConsistencyError":
                start = " ".join(_message(exc.args[2]).split()[:5])
                found.append(((path.stem, function, start),
                              (path, child.lineno)))
            visit(child, path, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    return found


CASES = {}


def fires(module, function, start):
    def register(case):
        assert (module, function, start) not in CASES
        CASES[module, function, start] = case
        return case
    return register


def data(name):
    return kernel_data(fans.load(name))


def compactified(base, disk):
    return validate_compactification(fans.load(base), fans.load(base + "_bar"),
                                     disk)


def replaced(value, **fields):
    """A copy of a package value with some fields tampered."""
    return type(value)(**{**vars(value), **fields})


# -- effective ----------------------------------------------------------------


@fires("effective", "enumerate_effective", "class pairs badly with the")
def _(monkeypatch):
    # ray 0 marked as the added one: its generator pairs -3 with it
    bar = compactified("kp2", ("ray", 0)).bar
    enumerate_effective(replaced(bar, infinity_column=0), 1)


# -- fan ----------------------------------------------------------------------


@fires("fan", "verify_semi_fano", "sum of divisor classes leaves")
def _(monkeypatch):
    verify_semi_fano(kernel_data(fan_from_dict(
        {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 3]],
         "cones": [[0, 1], [1, 2]]})))


# -- hyper --------------------------------------------------------------------


@fires("hyper", "relative_ifunction_oracle",
       "zero-infinity slice of the compactified")
def _(monkeypatch):
    cd = compactified("kp2", ("ray", 0))
    mm = toric_mirror_map(cd.base, 3)
    relative_ifunction_oracle(cd, MirrorMap(mm.data, mm.order, mm.g,
                                            mm.relations, mm.classes[:-1]))


# -- invariants ---------------------------------------------------------------


@fires("invariants", "extract_invariants",
       "unexpected variable {} in potential")
def _(monkeypatch):
    extract_invariants(DiskPotential(
        ("ray", 0), Series({"z": 1}, 3, {mono(("z", 1)): 1}), "1+delta",
        data("kp2")))


@fires("invariants", "extract_invariants",
       "non-representable exponent in potential monomial")
def _(monkeypatch):
    m = mono(("q1", -1), ("q2", 2))
    extract_invariants(DiskPotential(
        ("ray", 0), Series({"q1": 1, "q2": 1}, 3, {m: 1}), "1+delta",
        data("kp2_bar")))


@fires("invariants", "compare_potentials", "disk class has non-positive grade")
def _(monkeypatch):
    cd = compactified("kp2", ("ray", 0))
    compare_potentials(replaced(cd, beta_bar_coords=[0, 0]), 1)


@fires("invariants", "compare_potentials",
       "potential disagrees with its compactified")
def _(monkeypatch):
    route1 = invariants.disk_potential

    def doubled(mm, disk):
        dp = route1(mm, disk)
        return replaced(dp, series=dp.series * 2)
    monkeypatch.setattr(invariants, "disk_potential", doubled)
    compare_potentials(compactified("c3z3", ("box", 3)), 1)


# -- mirrormap ----------------------------------------------------------------


@fires("mirrormap", "_relations", "twisted series does not start")
def _(monkeypatch):
    toric_mirror_map(kernel_data(fan_from_dict(C3Z5_CHART)), 2)


# -- series -------------------------------------------------------------------


@fires("series", "same_terms", "variable {} is weighted differently")
def _(monkeypatch):
    Series({"x": 1}, 2, {mono(("x", 1)): 1}).same_terms(
        Series({"x": 2}, 2, {mono(("x", 1)): 1}))


@fires("series", "invert_map", "inversion round trip failed for")
def _(monkeypatch):
    # q = y with a wrong q^2 planted in y's image before the round trip
    rel = Series.variable("y", {"y": 1}, 3)
    substitute = Series.substitute

    def planted(self, assignment, *more):
        img = assignment["y"]
        wrong = Series.monomial(mono(("q", 2)), img.weights, img.order)
        return substitute(self, {"y": img + wrong}, *more)
    monkeypatch.setattr(Series, "substitute", planted)
    invert_map([("q", rel)], 3)


# -- the guard ----------------------------------------------------------------


def test_every_check_has_a_case():
    found = [key for key, _ in sites()]
    assert len(found) == len(set(found)), "two sites share a key"
    assert [key for key in found if key not in CASES] == [], \
        "an exit-3 check that no case fires"
    assert [key for key in CASES if key not in found] == [], \
        "a case for a check that no longer exists"


@pytest.mark.parametrize("site", list(CASES), ids=".".join)
def test_case_fires_its_check(monkeypatch, site):
    where = dict(sites()).get(site)
    assert where is not None, "no such check"
    with pytest.raises(ConsistencyError) as e:
        CASES[site](monkeypatch)
    frame = traceback.extract_tb(e.tb)[-1]
    assert (Path(frame.filename).resolve(), frame.name, frame.lineno) == \
        (where[0], site[1], where[1])


def test_readme_names_every_check():
    # README lists the checks a run makes, one line per site, each line
    # opening with the site's module.function
    text = README.read_text(encoding="utf-8")
    block = text.split("makes these checks:\n", 1)[1].split("\n\n")[0]
    listed = re.findall(r"^- `(\w+\.\w+)`", block, re.MULTILINE)
    assert sorted(listed) == sorted(f"{module}.{function}"
                                    for (module, function, _), _ in sites())


def test_no_assert_in_the_package():
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == [], "a check that python -O strips"
