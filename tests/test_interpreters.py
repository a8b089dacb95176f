"""The recorded outputs under the other interpreters the package supports.

pyproject.toml asks for Python >= 3.10.  Five invocations of
perfbench/expected.json (the argv of the three single-run workloads, one
text-format line of the sweep and one refusal) run in fresh processes the
way perfbench/run.py runs them: `python -c CLI_ENTRY argv` from the
repository root, on src/, with its pinned environment.  Each python3.N,
N = 10 ... 13, that is on PATH, starts, and is not the running version must
give the recorded exit code and stdout digest.  A launcher that is on PATH
but cannot start its version (a pyenv shim for a version not selected) is
left out; with no interpreter left the test is skipped.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# perfbench/run.py's CLI_ENTRY and CHILD_ENV
CLI_ENTRY = "import sys; from orbidisk.cli import main; sys.exit(main())"
ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
       "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}

KEYS = [
    "invariants kp2 --disk ray:0 --order 20 --format json",
    "invariants perfbench/local_quadric.json --disk ray:0 --order 7 "
    "--format json",
    "oracle c3z3 --bar c3z3_bar --disk box:3 --order 10 --format json",
    "syz kp2 --order 4 --format text",
    "oracle kp2 --bar c3z3_bar --disk ray:0",
]

with open(os.path.join(ROOT, "perfbench", "expected.json")) as f:
    RECORDED = json.load(f)["invocations"]


@pytest.fixture(scope="module")
def interpreters():
    found = []
    for minor in range(10, 14):
        path = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or path is None:
            continue
        probe = subprocess.run(
            [path, "-c", "import sys; print(*sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60)
        if probe.returncode == 0 and probe.stdout.split() == ["3", str(minor)]:
            found.append(path)
    if not found:
        pytest.skip("no other python3.10 ... python3.13 on PATH")
    return found


@pytest.mark.parametrize("key", KEYS)
def test_recorded_invocation_on_other_interpreters(interpreters, key):
    for python in interpreters:
        proc = subprocess.run([python, "-c", CLI_ENTRY, *key.split(" ")],
                              cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=120)
        got = {"exit": proc.returncode,
               "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}
        assert got == RECORDED[key], (python, proc.stderr.decode())
