"""The CLI runs without the cyclic garbage collector and exits frozen.

cli.main, run as the program (argv None), turns the collector off for the
rest of the process: its scans cost CPU that the passes do not need,
because they leave no cyclic garbage.  Turning it off does not stop the
full collections that interpreter finalization runs (CPython calls them
whether or not the collector is enabled), so main also calls gc.freeze()
once the report or the error is written: the finalizer's collections never
scan the frozen objects, and the OS takes them back with the process.

These tests keep that true.  Each command runs in-process with the
collector off, and a gc.collect() afterwards must find nothing for a text
report.  A JSON document (a report, or the error of a refusal on stderr)
may leave the stdlib encoder's closure cycle and nothing more.  The count
must not grow with the order, so a cycle made per term or per pass fails
here before it can grow memory in a real run.  Child processes check that
main() leaves the collector off and the heap frozen after a success, a
refusal and --help, and that a frozen exit loses no byte of a report on a
pipe or in an --output file.  main(argv) with a list leaves the collector
as it found it and freezes nothing.
"""
import gc
import hashlib
import json
import os
import subprocess
import sys

import pytest

from orbidisk.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUADRIC = "perfbench/local_quadric.json"
CHILD_ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}

with open(os.path.join(ROOT, "perfbench", "expected.json")) as f:
    RECORDED = json.load(f)["invocations"]
CORPUS = sorted(RECORDED)

# (command at the lower order, the same command at the higher one)
DEEP = [
    ("invariants kp2 --disk ray:0 --order {}", 20, 60),
    (f"invariants {QUADRIC} --disk ray:0 --order {{}}", 7, 14),
    ("oracle c3z3 --bar c3z3_bar --disk box:3 --order {}", 10, 16),
]


@pytest.fixture
def collector_off():
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()


def unreachable(run):
    """Objects in cycles that run(), with the collector off, leaves behind."""
    gc.collect()
    run()
    return gc.collect()


def cycles_of(capsys, monkeypatch, key):
    """(exit code, cyclic garbage count, whether stdout or stderr is JSON)."""
    monkeypatch.chdir(ROOT)
    codes = []
    count = unreachable(lambda: codes.append(main(key.split(" "))))
    out, err = capsys.readouterr()
    return codes[0], count, err != "" or "--format json" in key


def encoder_cycle():
    # main renders a report or an error with one json.dumps call like this
    return unreachable(lambda: json.dumps({"a": [1, {"b": "c"}]},
                                          sort_keys=True, indent=2))


def test_encoder_cycle_is_small(collector_off):
    # the allowance below is one encoder's closures, not a loose bound
    assert 0 < encoder_cycle() < 50


@pytest.mark.parametrize("key", CORPUS)
def test_command_leaves_no_cycles(capsys, monkeypatch, collector_off, key):
    _, count, is_json = cycles_of(capsys, monkeypatch, key)
    assert count <= (encoder_cycle() if is_json else 0)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("template, low, high", DEEP)
def test_cycles_do_not_grow_with_order(capsys, monkeypatch, collector_off,
                                       template, low, high, fmt):
    counts = []
    for order in (low, high):
        key = template.format(order) + f" --format {fmt}"
        code, count, _ = cycles_of(capsys, monkeypatch, key)
        assert code == 0
        counts.append(count)
    assert counts[0] == counts[1] <= (encoder_cycle() if fmt == "json" else 0)


# a success, a refusal (exit 2) and --help (SystemExit 0)
CONTRACT = [(["analyze", "kp2"], 0),
            (["mirror-map", "conifold", "--order", "0"], 2),
            (["analyze", "--help"], "help")]


def call(argv=None):
    try:
        return main(argv)
    except SystemExit as e:
        assert e.code == 0
        return "help"


def test_program_turns_the_collector_off():
    # main() reads sys.argv and owns the process: the collector stays off,
    # and the heap is frozen once main is done, so the young generations
    # hold only what the probe made since (an unfrozen run leaves over ten
    # thousand objects there)
    probe = f"""\
import contextlib, gc, io, sys
from orbidisk.cli import main
out = []
for argv in {[argv for argv, _ in CONTRACT]!r}:
    gc.enable()
    sys.argv = ["orbidisk", *argv]
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            got = main()
        except SystemExit as e:
            got = "help" if e.code == 0 else e.code
    out.append([got, gc.isenabled(), gc.get_freeze_count() > 0,
                len(gc.get_objects()) < 50])
print(out)
"""
    child = subprocess.run([sys.executable, "-c", probe], env=CHILD_ENV,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout == \
        f"{[[want, False, True, True] for _, want in CONTRACT]}\n"


CLI_ENTRY = "import sys; from orbidisk.cli import main; sys.exit(main())"
FROZEN_EXITS = ["analyze kp2 --format text",
                "invariants kp2 --disk ray:0 --order 20 --format json",
                "oracle c3z3 --bar c3z3_bar --disk box:3 --order 4 "
                "--format text",
                "mirror-map conifold --order 0"]


def run_program(key, *more):
    return subprocess.run([sys.executable, "-c", CLI_ENTRY, *key.split(" "),
                           *more], cwd=ROOT, env=CHILD_ENV,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("key", FROZEN_EXITS)
def test_frozen_exit_writes_the_whole_report(key):
    child = run_program(key)
    assert {"exit": child.returncode,
            "stdout_sha256": hashlib.sha256(child.stdout).hexdigest()} == \
        RECORDED[key]


def test_frozen_exit_writes_the_whole_output_file(tmp_path):
    key = FROZEN_EXITS[1]
    out = tmp_path / "report.json"
    child = run_program(key, "--output", str(out))
    assert (child.returncode, child.stdout) == (0, b"")
    assert out.read_bytes() == run_program(key).stdout


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, want", CONTRACT)
def test_main_with_argv_leaves_the_collector_alone(capsys, argv, want,
                                                   enabled):
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert call(argv) == want
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
