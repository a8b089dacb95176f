import json
import os
import subprocess
import sys

import pytest

from orbidisk import fans
from orbidisk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fan_path(tmp_path, name):
    p = tmp_path / f"{name}.json"
    p.write_text(fans.read(name))
    return str(p)


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
    # ray-negative certificate, one call per ray of c3z3_bar
    from orbidisk import fan
    calls = []
    solve = fan.minimal_cone

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(fan, "minimal_cone", counted)
    code, out, _ = run(capsys, "oracle", "c3z3", "--bar", "c3z3_bar",
                       "--disk", "box:3", "--order", "10")
    assert code == 0 and out.startswith("MATCH")
    assert len(calls) == 1 + 1 + 4


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
    from orbidisk.series import Series
    code, out, _ = run(capsys, "invariants", "c3z3", "--disk", "box:3",
                       "--order", "4/3", "--format", "json")
    rep = json.loads(out)
    s = Series.from_json(rep["potential"]["series"])
    assert s.to_json() == rep["potential"]["series"]


def test_consistency_error_exit_code(capsys, monkeypatch):
    from orbidisk import cli
    from orbidisk.errors import ConsistencyError

    def boom(cd, order):
        raise ConsistencyError("invariants", "compare_potentials",
                               "potential disagrees", ("q1", 1))

    monkeypatch.setattr(cli, "compare_potentials", boom)
    code = main(["oracle", "kp2", "--bar", "kp2_bar", "--disk", "ray:0",
                 "--order", "2"])
    err = capsys.readouterr().err
    assert code == 3
    payload = json.loads(err)["error"]
    assert payload["module"] == "invariants"
    assert payload["operation"] == "compare_potentials"
    assert "datum" in payload


def test_order_must_be_positive(capsys):
    code, _, err = run(capsys, "invariants", "kp2", "--disk", "ray:0",
                       "--order", "0")
    assert code == 2
    assert "order must be positive" in err
    code, _, err = run(capsys, "mirror-map", "kp2", "--order", "-2")
    assert code == 2


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
    # argparse's own errors become a structured error: JSON on stderr, exit
    # code 2, returned from main rather than raised as SystemExit
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert (payload["module"], payload["operation"]) == ("cli", "argv")
    assert "usage:" not in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: orbidisk")


@pytest.mark.parametrize("order", ["abc", "1/0"])
def test_order_must_be_rational(capsys, order):
    code, _, err = run(capsys, "invariants", "kp2", "--disk", "ray:0",
                       "--order", order)
    assert code == 2
    assert "not a rational" in json.loads(err)["error"]["message"]


def test_malformed_fan_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    # truncated, and nested past the decoder's recursion limit
    for document in ('{"rank": 2,', "[" * 100000 + "]" * 100000):
        bad.write_text(document)
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "malformed fan file" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("field, value", [
    ("basis_p", 5), ("basis_p", [5]), ("basis_p", [[0, True, 0, 0]]),
    ("extra_vectors", 5), ("extra_vectors", [["a", 0, 1]]),
    ("labels", 5), ("labels", ["a"]), ("labels", [1, 2, 3, 4]),
    ("rays", [[0, 0, 1], [1.7, 0, 1], [0, 1, 1], [-1, -1, 1]]),
    ("rays", [[0, 0, 1], [True, False, True], [0, 1, 1], [-1, -1, 1]]),
    ("rays", [[0, 0, 1], ["1", "0", "1"], [0, 1, 1], [-1, -1, 1]]),
    ("rank", 3.9),
    ("cones", [[0, 1, 2], [0, 2, 3], [0, 1.0, 3]]),
], ids=["basis_p=5", "basis_p=[5]", "basis_p=[[0,true,0,0]]",
        "extra_vectors=5", "extra_vectors=[[a,0,1]]",
        "labels=5", "labels=[a]", "labels=[1,2,3,4]",
        "rays[1]=[1.7,0,1]", "rays[1]=[true,false,true]",
        "rays[1]=[str,str,str]", "rank=3.9", "cones[2]=[0,1.0,3]"])
def test_malformed_fan_field(capsys, tmp_path, field, value):
    # kp2 has four rays; each field is refused as input, never a traceback
    doc = json.loads(fans.read("kp2"))
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["module"] and error["operation"] and error["message"]


@pytest.mark.parametrize("path", ["/nonexistent/dir/kp2.json", "kp2.json"])
def test_bundled_fan_only_from_bare_name(capsys, tmp_path, monkeypatch, path):
    # a path that does not exist never falls back to the bundled fan of the
    # same basename
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "analyze", path)
    assert code == 2
    assert out == ""
    assert "no such fan file" in json.loads(err)["error"]["message"]
