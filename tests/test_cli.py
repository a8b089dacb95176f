import json
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

from orbidisk import fans
from orbidisk.cli import SPEC, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fan_path(tmp_path, name):
    p = tmp_path / f"{name}.json"
    p.write_text(fans.read(name))
    return str(p)


def readme_block(section, lang):
    """The first `lang` code block under README's `## section` heading."""
    root = os.path.dirname(os.path.dirname(__file__))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        text = f.read().split(f"## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", text, re.S).group(1)


def test_readme_commands_run(capsys):
    commands = readme_block("Command line", "sh").splitlines()
    assert len(commands) == 6
    for line in commands:
        prog, *argv = shlex.split(line)
        code, out, err = run(capsys, *argv)
        assert (prog, code, err) == ("orbidisk", 0, "") and out, line


def test_readme_fan_file_runs(capsys, tmp_path):
    path = tmp_path / "fan.json"
    path.write_text(readme_block("Fan files", "json"), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0, err
    assert json.loads(out)["fan"]["labels"] == ["a", "b", "c"]


def test_analyze_c3z3(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", fan_path(tmp_path, "c3z3"),
                         "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["boxes"] == [
        {"vector": [0, 0, 1], "age": "1", "cone": [0, 1, 2],
         "coefficients": ["1/3", "1/3", "1/3"]},
        {"vector": [0, 0, 2], "age": "2", "cone": [0, 1, 2],
         "coefficients": ["2/3", "2/3", "2/3"]},
    ]
    assert rep["cy_covector"] == [0, 0, 1]
    assert rep["semi_fano"]["holds"] is True


def test_analyze_text(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", fan_path(tmp_path, "c3z3"))
    assert code == 0
    assert "box [0, 0, 1] age 1" in out
    assert "Calabi-Yau covector" in out


def test_bundled_name_resolution(capsys):
    code, out, _ = run(capsys, "analyze", "kp2", "--format", "json")
    assert code == 0
    assert json.loads(out)["kernel_basis"] == [[-3, 1, 1, 1]]


def test_mirror_map_kp2(capsys):
    code, out, _ = run(capsys, "mirror-map", "kp2", "--order", "4",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    inv = rep["inverse"]["y1"]["terms"]
    assert {"exponents": {"q1": "2"}, "coeff": "6"} in inv
    assert {"exponents": {"q1": "4"}, "coeff": "56"} in inv


def test_invariants_kp2(capsys):
    code, out, _ = run(capsys, "invariants", "kp2", "--disk", "ray:0",
                       "--order", "3", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert {"alpha": [3], "insertions": {}, "value": "-32"} in rep["invariants"]


def test_invariants_text(capsys):
    code, out, _ = run(capsys, "invariants", "c3z3", "--disk", "box:3",
                       "--order", "4/3")
    assert code == 0
    assert "value=1/27" in out


def test_syz_kp2(capsys):
    code, out, _ = run(capsys, "syz", "kp2", "--order", "3",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["equation"] == "uv = G"
    assert len(rep["terms"]) == 4
    c3 = next(t for t in rep["terms"] if t["column"] == 3)
    assert c3["C"] == {"q1": "1"}


def test_oracle_kp2(capsys):
    code, out, _ = run(capsys, "oracle", "kp2", "--bar", "kp2_bar",
                       "--disk", "ray:0", "--order", "3")
    assert code == 0
    assert out.startswith("MATCH")
    assert "1 - 2*q1 + 5*q1^2 - 32*q1^3" in out


def test_oracle_solves_each_minimal_cone_once(capsys, monkeypatch):
    # extra columns read their minimal cone off the age-1 box table; what is
    # left is validate_fan's one extra vector per fan and the bar fan's
    # ray-negative certificate, one call per ray of c3z3_bar, and each reads
    # the fan's elimination table without eliminating again
    from orbidisk import fan, linalg
    calls, eliminations = [], []
    solve, reduce = fan.minimal_cone, linalg.row_reduce

    def counted(*args):
        before = len(eliminations)
        out = solve(*args)
        calls.append(len(eliminations) - before)
        return out

    def reduced(*args):
        eliminations.append(args)
        return reduce(*args)

    monkeypatch.setattr(fan, "minimal_cone", counted)
    monkeypatch.setattr(linalg, "row_reduce", reduced)
    code, out, _ = run(capsys, "oracle", "c3z3", "--bar", "c3z3_bar",
                       "--disk", "box:3", "--order", "10")
    assert code == 0 and out.startswith("MATCH")
    assert calls == [0] * (1 + 1 + 4)


def test_import_loads_no_dataclasses():
    # dataclasses, and inspect behind it, cost a start-up's import and the
    # exec of every generated method; modules `site` loads do not count
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

    def loaded(statement):
        probe = f"import sys; {statement}; print(*sorted(sys.modules))"
        child = subprocess.run([sys.executable, "-c", probe],
                               env={**os.environ, "PYTHONPATH": src},
                               capture_output=True, text=True, check=True)
        return set(child.stdout.split())

    added = loaded("import orbidisk.cli") - loaded("pass")
    assert "orbidisk.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_import_loads_no_resources_or_tempfile():
    # bundled-fan lookup and --output need neither module at start-up; run
    # without `site`, whose .pth files may import both before orbidisk does
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    probe = "import sys, orbidisk.cli; print(*sorted(sys.modules))"
    child = subprocess.run([sys.executable, "-S", "-c", probe],
                           env={**os.environ, "PYTHONPATH": src},
                           capture_output=True, text=True, check=True)
    loaded = set(child.stdout.split())
    assert "orbidisk.cli" in loaded and "site" not in loaded
    assert loaded & {"importlib.resources", "tempfile"} == set()


def test_extras_not_age1_exit_code(capsys, tmp_path):
    # declared extras that are not the age-1 box set are refused up front
    c3z3 = json.loads(fans.read("c3z3"))
    on_ray = {"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]],
              "extra_vectors": [[1, 0]]}
    for name, doc in (("age2", {**c3z3, "extra_vectors": [[0, 0, 2]]}),
                      ("on_ray", on_ray)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        for argv in (("analyze", str(path)),
                     ("invariants", str(path), "--disk", "ray:0")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "age-1 box set" in err


def test_validation_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "rank": 2, "rays": [[2, 0], [0, 1]], "cones": [[0, 1]]}))
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "non-primitive" in err


def test_local_f3_refused_as_not_semi_fano(capsys, tmp_path):
    # a (-3)-curve puts a boundary ray beyond a facet of the support
    from test_fan import LOCAL_F3
    path = tmp_path / "f3.json"
    path.write_text(json.dumps(LOCAL_F3))
    for argv in (("analyze", str(path)),
                 ("invariants", str(path), "--disk", "ray:0", "--order", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        payload = json.loads(err)["error"]
        assert payload["operation"] == "verify_semi_fano"
        assert payload["datum"] == repr(
            {"cone": [0, 1, 2], "facet": [1, 2], "column": 3})


def test_missing_file_exit_code(capsys):
    code, out, err = run(capsys, "analyze", "/nonexistent/xyz.json")
    assert code == 2


def test_disk_required_validation(capsys):
    code, out, err = run(capsys, "invariants", "kp2", "--disk", "ray:9",
                         "--order", "2")
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("argv", [
    ("analyze", "c3z3", "--format", "json"),
    ("mirror-map", "kp2", "--order", "3", "--format", "json"),
    ("invariants", "kp2", "--disk", "ray:0", "--order", "3",
     "--format", "json"),
    ("syz", "c3z3", "--order", "4/3", "--format", "json"),
    ("oracle", "c3z3", "--bar", "c3z3_bar", "--disk", "box:3",
     "--order", "4/3", "--format", "json"),
])
def test_byte_determinism(capsys, argv):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_output_file_atomic(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "c3", "--format", "json",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["kernel_rank"] == 0
    leftovers = [p for p in tmp_path.iterdir() if p.name != "report.json"]
    assert leftovers == []


def test_output_through_symlink_keeps_the_link(tmp_path, capsys):
    # the link's target is replaced, the link stays a link; a dangling
    # link gets its target created
    for name in ("old.json", "new.json"):
        target, link = tmp_path / name, tmp_path / f"link-{name}"
        if name == "old.json":
            target.write_text("stale\n")
        link.symlink_to(target)
        code, out, _ = run(capsys, "analyze", "c3", "--format", "json",
                           "--output", str(link))
        assert code == 0 and out == ""
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert json.loads(target.read_text())["kernel_rank"] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link-new.json", "link-old.json", "new.json", "old.json"]


def test_output_to_fifo_reaches_its_reader(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    # daemon, so a writer that never opens the FIFO fails the test below
    # instead of hanging the run
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    code, out, _ = run(capsys, "analyze", "c3", "--format", "json",
                       "--output", str(fifo))
    reader.join(timeout=30)
    assert code == 0 and out == ""
    assert not reader.is_alive() and stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert json.loads(got[0])["kernel_rank"] == 0


def test_output_file_mode(tmp_path, capsys):
    # a new file gets the umask's mode, a replaced file keeps its own
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    old.write_text("stale\n")
    old.chmod(0o604)
    umask = os.umask(0o027)
    try:
        for target in (new, old):
            assert run(capsys, "analyze", "c3", "--output", str(target))[0] == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert stat.S_IMODE(old.stat().st_mode) == 0o604
    assert old.read_text() == new.read_text()


def test_output_path_unwritable(tmp_path, capsys):
    # a missing parent directory, and a directory as the target; the
    # temporary file of the second lands in tmp_path and must be removed
    (tmp_path / "outdir").mkdir()
    for target in (tmp_path / "nodir" / "x.json", tmp_path / "outdir"):
        code, out, err = run(capsys, "analyze", "kp2", "--format", "json",
                             "--output", str(target))
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["module"] == "cli"
        assert str(target) in error["message"]
    assert [p.name for p in tmp_path.iterdir()
            if p.name.startswith(".orbidisk-")] == []


def test_series_round_trip_through_cli(capsys):
    from test_series import series_from_json
    code, out, _ = run(capsys, "invariants", "c3z3", "--disk", "box:3",
                       "--order", "4/3", "--format", "json")
    rep = json.loads(out)
    s = series_from_json(rep["potential"]["series"])
    assert s.to_json() == rep["potential"]["series"]


def test_consistency_error_exit_code(capsys, monkeypatch):
    from orbidisk import invariants
    from orbidisk.errors import ConsistencyError

    def boom(cd, order):
        raise ConsistencyError("invariants", "compare_potentials",
                               "potential disagrees", ("q1", 1))

    monkeypatch.setattr(invariants, "compare_potentials", boom)
    code = main(["oracle", "kp2", "--bar", "kp2_bar", "--disk", "ray:0",
                 "--order", "2"])
    err = capsys.readouterr().err
    assert code == 3
    payload = json.loads(err)["error"]
    assert payload["module"] == "invariants"
    assert payload["operation"] == "compare_potentials"
    assert "datum" in payload


def test_oracle_mismatch_exits_3_naming_the_first_difference(capsys,
                                                             monkeypatch):
    # route 1's potential doubled: the two routes differ first at its lead
    from orbidisk import fan, invariants
    cd = fan.validate_compactification(fans.load("c3z3"),
                                       fans.load("c3z3_bar"), "box:3")
    dp, oracle = invariants.compare_potentials(cd, 4)
    route1 = invariants.disk_potential

    def doubled(mm, disk):
        got = route1(mm, disk)
        return invariants.DiskPotential(got.disk, got.series * 2,
                                        got.normalization, got.data)

    monkeypatch.setattr(invariants, "disk_potential", doubled)
    code, out, err = run(capsys, "oracle", "c3z3", "--bar", "c3z3_bar",
                         "--disk", "box:3", "--order", "4")
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert (error["module"], error["operation"]) == \
        ("invariants", "compare_potentials")
    first = (dp.series * 2).first_difference(oracle)
    assert first[:2] == (Fraction(1, 3), (("t3", 1),))  # grade, monomial
    assert error["datum"] == repr(first)


def test_c3z5_chart_mirror_map_exits_3(capsys, tmp_path):
    # both age-1 boxes of C^3/Z_5 listed: the twisted series of (0, -1, 1)
    # leads with y1^(2/5), not its dual class y1^(2/5) y2
    from test_cross_checks import C3Z5_CHART
    path = tmp_path / "c3z5.json"
    path.write_text(json.dumps(C3Z5_CHART))
    code, out, err = run(capsys, "mirror-map", str(path), "--order", "2")
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert (error["module"], error["operation"]) == \
        ("mirror-maps", "toric_mirror_map")
    assert error["message"].endswith(
        "twisted series does not start at its dual class with coefficient 1")


def test_order_must_be_positive(capsys):
    code, _, err = run(capsys, "invariants", "kp2", "--disk", "ray:0",
                       "--order", "0")
    assert code == 2
    assert "order must be positive" in err
    code, _, err = run(capsys, "mirror-map", "kp2", "--order", "-2")
    assert code == 2


def test_order_is_refused_before_any_fan_loads(capsys, monkeypatch):
    # a bad --order is refused ahead of the fan file, the kernel data and
    # the compactification: a missing fan is never reached
    from orbidisk import cli

    def never(*args):
        raise AssertionError("a fan was loaded")

    monkeypatch.setattr(cli, "load_fan_file", never)
    for argv in (("mirror-map", "nosuchfan"),
                 ("invariants", "nosuchfan", "--disk", "ray:0"),
                 ("syz", "nosuchfan"),
                 ("oracle", "nosuchfan", "--bar", "nosuchbar", "--disk",
                  "ray:0")):
        for order, want in (("0", "order must be positive"),
                            ("abc", "not a rational")):
            code, out, err = run(capsys, *argv, "--order", order)
            assert (code, out) == (2, "")
            assert want in json.loads(err)["error"]["message"]


def test_fractional_potential_is_refused_as_a_table_limit(capsys, tmp_path):
    # WEIGHTED_SURFACE's ray:0 potential has a half-integral flat exponent,
    # which no invariant-table key holds: exit 2, naming the limit and the
    # monomial; its other disks still print their tables
    from test_generalization import WEIGHTED_BASIS, WEIGHTED_SURFACE
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(dict(WEIGHTED_SURFACE, basis_p=WEIGHTED_BASIS)))
    code, out, err = run(capsys, "invariants", str(path), "--disk", "ray:0",
                         "--order", "2")
    assert (code, out) == (2, "")
    payload = json.loads(err)["error"]
    assert (payload["module"], payload["operation"]) == \
        ("invariants", "extract_invariants")
    assert "table holds integral exponents only" in payload["message"]
    assert payload["message"].endswith("the monomial q1^(1/2)*t4")
    for disk in ("ray:1", "box:4"):
        code, out, err = run(capsys, "invariants", str(path), "--disk", disk,
                             "--order", "2")
        assert (code, err) == (0, "") and "alpha=" in out


@pytest.mark.parametrize("argv, relation, least", [
    (("mirror-map", "kp2", "--order", "1/2"), "q1", "1"),
    (("mirror-map", "conifold", "--order", "1/2"), "q1", "1"),
    (("syz", "kp2", "--order", "1/2"), "q1", "1"),
    (("oracle", "kp2", "--bar", "kp2_bar", "--disk", "ray:0", "--order", "1/2"),
     "q1", "1"),
    (("mirror-map", "c3z3", "--order", "1/6"), "t3 (column 3)", "1/3"),
], ids=["mirror-map-kp2", "mirror-map-conifold", "syz-kp2", "oracle-kp2",
        "mirror-map-c3z3"])
def test_order_below_first_relation(capsys, argv, relation, least):
    # a relation whose leading monomial lies above the order would be the
    # zero series: refused as input, naming the relation and the least order
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    message = json.loads(err)["error"]["message"]
    assert f"relation for {relation};" in message
    assert message.endswith(f"the least order that works is {least}")
    # an order at that bound works, and a fan without relations takes any
    code, _, _ = run(capsys, *argv[:-1], least)
    assert code == 0
    code, _, _ = run(capsys, "mirror-map", "c3", "--order", "1/6")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("nosuchcmd",), (), ("analyze", "kp2", "--format", "xml"),
    ("invariants", "kp2", "--order", "2"), ("mirror-map", "kp2", "--bogus"),
], ids=["unknown-command", "no-arguments", "bad-format", "missing-disk",
        "unknown-option"])
def test_malformed_argv_is_structured(capsys, argv):
    # a malformed command line is a structured error: JSON on stderr, exit
    # code 2, returned from main rather than raised as SystemExit
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert (payload["module"], payload["operation"]) == ("cli", "argv")
    assert "usage:" not in err


@pytest.mark.parametrize("argv, where", [
    (("invariants", "kp2", "--disk", "ray:+0_0"), ("fan-core", "disk_selector")),
    (("invariants", "kp2", "--disk", "ray:00"), ("fan-core", "disk_selector")),
    (("invariants", "kp2", "--disk", "ray:\u0660"), ("fan-core", "disk_selector")),
    (("invariants", "kp2", "--disk", "ray: 1"), ("fan-core", "disk_selector")),
    (("syz", "kp2", "--gauge", " 1"), ("cli", "argv")),
    (("syz", "kp2", "--gauge", "-0"), ("cli", "argv")),
    (("syz", "kp2", "--gauge", "1_0"), ("cli", "argv")),
], ids=["sign-underscore", "leading-zero", "arabic-indic-zero", "space",
        "gauge-space", "gauge-minus-zero", "gauge-underscore"])
def test_index_is_plain_ascii_digits(capsys, argv, where):
    # an index is 0 or ASCII digits without a leading zero; the signs,
    # spaces, underscores, leading zeros and other digits int() takes are
    # refused with a structured error, not read as another index
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert (payload["module"], payload["operation"]) == where
    if "--gauge" in argv:   # the refusal names the type: an index is expected
        assert payload["message"].endswith(
            f"argument --gauge: invalid index value: {argv[-1]!r}")


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: orbidisk") and err == ""
    return out


def test_help_still_exits_zero(capsys):
    # the help is read from the table the parser reads: every command with
    # its help line, and each command's options, required or with a default
    text = help_text(capsys, "-h")
    for command, (line, options) in SPEC.items():
        assert re.search(rf"^  {command} +{re.escape(line)}$", text, re.M)
        sub = help_text(capsys, command, "--help")
        assert sub.startswith(f"usage: orbidisk {command} <fan>")
        assert line in sub
        for option, (default, required, _) in options.items():
            row = re.search(rf"^  {option} +(.*)$", sub, re.M)
            assert row, (command, option)
            if required:
                assert row.group(1).endswith("(required)")
            elif default is not None:
                assert row.group(1).endswith(f"(default {default})")


# the grammar is -?digits or -?digits/digits in ASCII, whatever else
# Fraction would read
@pytest.mark.parametrize("order", [
    "abc", "1/0", "\u0663", "\uff13", "1_0", " 2", "+2", "1e3", "2.5"],
    ids=["abc", "1/0", "arabic-indic-3", "fullwidth-3", "1_0", "space-2",
         "+2", "1e3", "2.5"])
def test_order_must_be_rational(capsys, order):
    code, _, err = run(capsys, "invariants", "kp2", "--disk", "ray:0",
                       "--order", order)
    assert code == 2
    assert "not a rational" in json.loads(err)["error"]["message"]


def test_malformed_fan_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    # truncated, nested past the decoder's recursion limit, and an integer
    # past Python's 4300-digit limit in a ray and in a basis_p entry
    big = "9" * 4400
    kp2 = json.loads(fans.read("kp2"))
    for document, want in (
            ('{"rank": 2,', "malformed fan file"),
            ("[" * 100000 + "]" * 100000, "malformed fan file"),
            ('{"rank": 2, "rays": [[1, 0], [0, %s]], "cones": [[0, 1]]}' % big,
             "malformed fan file"),
            (json.dumps(dict(kp2, basis_p=[[big, 1, 1, 1]])), "not a rational")):
        bad.write_text(document)
        code, out, err = run(capsys, "analyze", str(bad))
        assert code == 2 and out == ""
        assert want in json.loads(err)["error"]["message"]


def test_fewer_vectors_than_rank_refused_before_elimination(capsys, tmp_path):
    # each listed cone is eliminated beside a rank x rank identity, whose
    # memory grows as the rank squared, so the count of vectors is checked
    # first
    wide = tmp_path / "wide.json"
    wide.write_text('{"rank": 100000, "rays": [], "cones": [[]]}')
    start = time.process_time()
    code, out, err = run(capsys, "analyze", str(wide))
    assert time.process_time() - start < 1
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"].endswith(
        "0 ray and extra vectors cannot generate a rank 100000 lattice")


@pytest.mark.parametrize("digits,shown", [(3000, "9" * 3000),
                                           (4200, "above 10^4185")])
def test_huge_box_group_refused_before_enumeration(capsys, tmp_path, digits,
                                                   shown):
    # cone [0, 1, 3] has a box group of order X = 10^digits - 1: it is
    # refused before its elements are enumerated, and an order past Python's
    # int-to-text limit is shown by its size
    x = 10 ** digits - 1
    path = tmp_path / "huge.json"
    path.write_text('{"rank": 3, "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], '
                    f'[-1, -{x}, 1]], ' +
                    '"cones": [[0, 1, 2], [0, 2, 3], [0, 1, 3]]}')
    start = time.process_time()
    code, out, err = run(capsys, "analyze", str(path))
    assert time.process_time() - start < 1
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert (error["operation"], error["datum"]) == \
        ("box_elements", "[0, 1, 3]")
    assert error["message"].endswith(
        f"cone [0, 1, 3] has a box group of order {shown}, above 100000")


def test_fan_file_is_utf8_whatever_the_locale(tmp_path):
    # JSON text is UTF-8 (RFC 8259); under the C locale without UTF-8 mode
    # the locale's encoding is ASCII
    doc = dict(json.loads(fans.read("kp2")), labels=["\u00e9", "b", "c", "d"])
    path = tmp_path / "kp2.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    probe = "import sys, orbidisk.cli; sys.exit(orbidisk.cli.main(sys.argv[1:]))"
    child = subprocess.run(
        [sys.executable, "-c", probe, "analyze", str(path), "--format", "json"],
        env={**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0",
             "PYTHONCOERCECLOCALE": "0"},
        capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["fan"]["labels"] == doc["labels"]


def test_unreadable_fan_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"rank": 3, "labels": ["\xff"]}')
    for path in (bad, tmp_path):   # invalid UTF-8, and a directory
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert "cannot read fan file" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("field, value, want", [
    ("basis_p", 5, "basis_p must be a list of rows"),
    ("basis_p", [5], "basis_p must be a list of rows"),
    ("basis_p", [[0, True, 0, 0]], "not a rational"),
    ("basis_p", [["1_0", 1, 1, 1]], "not a rational"),
    ("extra_vectors", 5, "malformed document"),
    ("extra_vectors", [["a", 0, 1]], "'a' is not an integer"),
    ("labels", 5, "labels must be a list"),
    ("labels", ["a"], "labels must be a list"),
    ("labels", [1, 2, 3, 4], "labels must be a list"),
    ("rays", [[0, 0, 1], [1.7, 0, 1], [0, 1, 1], [-1, -1, 1]], "1.7 is not"),
    ("rays", [[0, 0, 1], [True, False, True], [0, 1, 1], [-1, -1, 1]],
     "True is not"),
    ("rays", [[0, 0, 1], ["1", "0", "1"], [0, 1, 1], [-1, -1, 1]], "'1' is not"),
    ("rank", 3.9, "3.9 is not"),
    ("cones", [[0, 1, 2], [0, 2, 3], [0, 1.0, 3]], "1.0 is not"),
    # misspelt keys are refused, not read as absent
    ("basis", [[-3, 1, 1, 1]], "unknown fan-document key 'basis'"),
    ("extra_vector", [[0, 0, 1]], "unknown fan-document key 'extra_vector'"),
    ("rank", 0, "rank must be a positive integer"),
    ("rays", [[0, 0, 1], [1, 0], [0, 1, 1], [-1, -1, 1]],
     "vector (1, 0) does not have rank 3 entries"),
    ("rays", [[0, 0, 1], [0, 0, 0], [0, 1, 1], [-1, -1, 1]], "zero ray"),
    ("cones", [], "fan lists no cones"),
    ("cones", [[0, 1, 2], [0, 2, 3], [0, 3, 3]], "repeated index in cone"),
    ("cones", [[0, 1, 2], [0, 2, 3], [0, 3, 4]], "uses an invalid ray index"),
    ("cones", [[0, 1, 2], [0, 2, 3], [0, 1, 3], [2, 1, 0]],
     "cone (0, 1, 2) is listed twice"),
    # kp2 has kernel rank 1 and four columns
    ("basis_p", [[-3, 1, 1, 1], [-3, 1, 1, 1]], "basis_p must have 1 rows"),
    ("basis_p", [[-3, 1, 1]], "basis_p rows must have one entry per column"),
], ids=["basis_p=5", "basis_p=[5]", "basis_p=[[0,true,0,0]]",
        "basis_p=[[1_0,1,1,1]]",
        "extra_vectors=5", "extra_vectors=[[a,0,1]]",
        "labels=5", "labels=[a]", "labels=[1,2,3,4]",
        "rays[1]=[1.7,0,1]", "rays[1]=[true,false,true]",
        "rays[1]=[str,str,str]", "rank=3.9", "cones[2]=[0,1.0,3]",
        "basis=[[-3,1,1,1]]", "extra_vector=[[0,0,1]]", "rank=0",
        "rays[1]=[1,0]", "rays[1]=[0,0,0]", "cones=[]", "cones[2]=[0,3,3]",
        "cones[2]=[0,3,4]", "cones+=[2,1,0]", "basis_p=two-rows",
        "basis_p=[[-3,1,1]]"])
def test_malformed_fan_field(capsys, tmp_path, field, value, want):
    # kp2 has four rays; each field is refused as input, never a traceback
    doc = json.loads(fans.read("kp2"))
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["module"] and error["operation"]
    assert want in error["message"]


@pytest.mark.parametrize("document, want", [
    ("[1, 2]", "document must be a JSON object"),
    # rank 3: cones [0,1,2] and [0,1,3] lie on one side of their shared facet
    (json.dumps({"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 1, -2],
                                     [-2, 2, -1]],
                 "cones": [[0, 1, 2], [0, 1, 3]]}), "overlap across facet"),
], ids=["not-an-object", "facet-overlap"])
def test_malformed_fan_document(capsys, tmp_path, document, want):
    bad = tmp_path / "bad.json"
    bad.write_text(document)
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert want in json.loads(err)["error"]["message"]


def _bar_without(name, key, drop=None):
    doc = json.loads(fans.read(name))
    if drop is None:
        del doc[key]
    else:
        doc[key].remove(drop)
    return doc


@pytest.mark.parametrize("base, bar, disk, want", [
    ("kp2", {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
             "cones": [[0, 1], [1, 2], [0, 2]]}, "ray:0", "rank mismatch"),
    ("c3z3", _bar_without("c3z3_bar", "extra_vectors"), "box:3",
     "must carry the base extra vectors"),
    ("kp2", _bar_without("kp2_bar", "cones", [0, 1, 2]), "ray:0",
     "base cone (0, 1, 2) missing"),
    # the bar's kernel basis is built from the base's, so a basis_p is refused
    ("kp2", dict(json.loads(fans.read("kp2_bar")),
                 basis_p=[[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]), "ray:0",
     "a --bar fan takes no basis_p"),
], ids=["rank-2-bar", "c3z3_bar-without-extras", "kp2_bar-without-cone",
        "kp2_bar-with-basis_p"])
def test_oracle_refuses_bar(capsys, tmp_path, base, bar, disk, want):
    path = tmp_path / "bar.json"
    path.write_text(json.dumps(bar))
    code, out, err = run(capsys, "oracle", base, "--bar", str(path),
                         "--disk", disk, "--order", "2")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["module"] and error["operation"]
    assert want in error["message"]


@pytest.mark.parametrize("path", ["/nonexistent/dir/kp2.json", "kp2.json"])
def test_bundled_fan_only_from_bare_name(capsys, tmp_path, monkeypatch, path):
    # a path that does not exist never falls back to the bundled fan of the
    # same basename
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "analyze", path)
    assert code == 2
    assert out == ""
    assert "no such fan file" in json.loads(err)["error"]["message"]
