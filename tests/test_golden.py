"""Golden outputs, run in-process through cli.main from the repository root.
The exit code and the SHA-256 of stdout must equal the recorded ones.

Three records: every invocation of perfbench/expected.json (only read
here); tests/golden_lattice.json, which pins the lattice data the benchmark
does not show: `analyze --format json` on every bundled fan and on
perfbench/local_quadric.json, and `syz --order 4 --format json --gauge k`
for every maximal cone k of the four bundled base fans and the quadric;
and tests/golden_oracle.json, which pins the oracle at depth on the three
bundled pairs (c3z3 box:3 at order 20, kp2 ray:0 at order 30, c3 ray:2 at
order 12), where the compactified enumeration runs far past the
benchmark's orders.  A fourth, tests/golden_errors.json, pins the exit code
and the stderr bytes of refusals: the six of the sweep_small workload, three
oracle runs refused before or at the base map and an --order that is no
rational, with stdout empty."""
import hashlib
import json
import os

import pytest

from orbidisk.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def recorded(*path):
    with open(os.path.join(ROOT, *path)) as f:
        return json.load(f)["invocations"]


RECORDED = recorded("perfbench", "expected.json")
LATTICE = recorded("tests", "golden_lattice.json")
ORACLE = recorded("tests", "golden_oracle.json")
ERRORS = recorded("tests", "golden_errors.json")


def run_invocation(capsys, monkeypatch, key):
    monkeypatch.chdir(ROOT)
    code = main(key.split(" "))
    out = capsys.readouterr().out
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_recorded_invocation(capsys, monkeypatch, key):
    assert run_invocation(capsys, monkeypatch, key) == RECORDED[key]


@pytest.mark.parametrize("key", sorted(LATTICE))
def test_lattice_invocation(capsys, monkeypatch, key):
    assert run_invocation(capsys, monkeypatch, key) == LATTICE[key]


@pytest.mark.parametrize("key", sorted(ORACLE))
def test_oracle_invocation(capsys, monkeypatch, key):
    assert run_invocation(capsys, monkeypatch, key) == ORACLE[key]


@pytest.mark.parametrize("key", sorted(ERRORS))
def test_refusal_stderr(capsys, monkeypatch, key):
    monkeypatch.chdir(ROOT)
    code = main(key.split(" "))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == \
        (ERRORS[key]["exit"], "", ERRORS[key]["stderr"])
