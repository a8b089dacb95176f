"""Each layer module loads the first time one of its attributes is read.

orbidisk/__init__.py registers the layers in sys.modules without running
them, so a command compiles only the layers it calls.  A registered module
that has not run yet is not of type ModuleType.  Every check runs in a fresh
interpreter on this checkout's src/.
"""
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the modules the benchmark's tracer reads from sys.modules
TRACED = {"cli", "fan", "linalg", "effective", "hyper", "mirrormap", "series",
          "invariants", "syz"}

# argparse, gettext and locale (which argparse's messages loaded) are
# looked for after the import and after the run: the command line is read
# from cli.SPEC
RUN = """\
import contextlib, io, json, sys, types
import orbidisk.cli
ARGPARSE = ("argparse", "gettext", "locale")
registered = sorted(n[9:] for n in sys.modules if n.startswith("orbidisk."))
argparse = [m for m in ARGPARSE if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = orbidisk.cli.main(sys.argv[1:])
unloaded = sorted(n[9:] for n, m in sys.modules.items()
                  if n.startswith("orbidisk.") and type(m) is not types.ModuleType)
argparse += [m for m in ARGPARSE if m in sys.modules]
print(json.dumps({"exit": code, "registered": registered,
                  "unloaded": unloaded, "argparse": argparse}))
"""


def child(code, *argv):
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         env={**os.environ,
                              "PYTHONPATH": os.path.join(ROOT, "src")},
                         capture_output=True, text=True, check=True)
    return out.stdout


@pytest.mark.parametrize("argv, unloaded", [
    ("analyze kp2",
     {"series", "effective", "hyper", "mirrormap", "invariants", "syz"}),
    ("mirror-map kp2 --order 2", {"invariants", "syz"}),
    ("invariants kp2 --disk ray:0 --order 2", {"syz"}),
    ("syz kp2 --order 2", set()),
    ("oracle kp2 --bar kp2_bar --disk ray:0 --order 2", {"syz"}),
])
def test_command_loads_only_its_layers(argv, unloaded):
    report = json.loads(child(RUN, *argv.split(" ")))
    assert report["exit"] == 0
    assert TRACED <= set(report["registered"])
    assert set(report["unloaded"]) == unloaded
    assert report["argparse"] == []


def test_refused_order_loads_no_layer():
    # parse_order runs before any fan is read: nothing past cli compiles
    report = json.loads(child(RUN, "mirror-map", "conifold", "--order", "0"))
    assert report["exit"] == 2 and report["argparse"] == []
    assert set(report["unloaded"]) == TRACED - {"cli"}


def test_refused_gauge_loads_no_series_layer():
    # syz reads invariants and mirrormap at call time, so a gauge refused
    # before the mirror map runs only fan, linalg and syz
    report = json.loads(child(RUN, "syz", "conifold", "--gauge", "7"))
    assert report["exit"] == 2 and report["argparse"] == []
    assert set(report["unloaded"]) == TRACED - {"cli", "fan", "linalg", "syz"}


def test_package_names_resolve():
    names = json.loads(child("""\
import json, orbidisk
print(json.dumps({n: getattr(orbidisk, n).__module__
                  for n in orbidisk.__all__}))
"""))
    assert len(names) == 32
    assert {m.split(".")[0] for m in names.values()} == {"orbidisk"}
    out = child("""\
import orbidisk
try:
    orbidisk.no_such_name
except AttributeError as e:
    print(e)
""")
    assert out == "module 'orbidisk' has no attribute 'no_such_name'\n"


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md")) as f:
        readme = f.read()
    library = readme.split("## Library", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    check = ("assert table.value([], [('b0,0,1', 4)]) == Fraction(1, 27)\n"
             "assert pots[('box', 3)] == pot\n"
             "print('ok')\n")
    assert child(example + check) == "ok\n"
