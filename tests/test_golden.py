"""Golden outputs: every invocation recorded in perfbench/expected.json, run
in-process through cli.main from the repository root.  The exit code and the
SHA-256 of stdout must equal the recorded ones; the file is only read."""
import hashlib
import json
import os

import pytest

from orbidisk.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "perfbench", "expected.json")) as f:
    RECORDED = json.load(f)["invocations"]


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_recorded_invocation(capsys, monkeypatch, key):
    monkeypatch.chdir(ROOT)
    code = main(key.split(" "))
    out = capsys.readouterr().out
    assert {"exit": code,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()} \
        == RECORDED[key]
