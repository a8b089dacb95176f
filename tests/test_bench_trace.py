"""The benchmark's traced run as a test.

`perfbench/run.py --trace 1` checks the workload's outputs and, through its
tracer, that every declared per-layer metric is non-zero and every declared
span edge is seen.  Running it here makes a refactor that drops a declared
span or call edge fail the suite, not only the benchmark.  Each run takes
a second or two (`sweep_small`, 36 invocations, a few) and writes only the
git-ignored `.perfbench/`.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["c3z3_oracle", "kp2_deep",
                                      "quadric_rank2", "sweep_small"])
def test_traced_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] > 0
