#!/usr/bin/env python3
"""The orbidisk benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kp2_deep --seed 1 --seconds 25 --trace 0

--trace 0 runs the workload's CLI invocations as child processes of this
one, one at a time (a closed loop with one client), on the checkout's
src/, in passes for about --seconds, and checks every output.  It reports
cpu_s, the median CPU time of one pass at a reference CPU speed (see
PROBE_REFERENCE), setup_s, the median time a fresh process takes to import
orbidisk.cli and load the workload's fans, peak_rss_mb, the largest peak
RSS of any child, and the error rate, failed / attempted invocations.
--trace 1 runs the same argv in-process through orbidisk.cli.main,
alternating untraced and traced passes, and reports per-layer metrics from
the spans (see tracer.py) and the tracing overhead.
--workload all runs every workload in an order fixed by --seed; the seed
also fixes the order of the sweep_small invocations.
--record rewrites expected.json (exit codes and stdout digests) from src/.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Exit code 0: every
check passed; 1: an output or tracer check failed; 2: the checkout is not
runnable (no src/orbidisk, or a pinned input differs).
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

from tracer import (LAYER_NAMES, MissedBinding, Tracer, parent_names,
                    summarize, write_spans)

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(BENCH, "expected.json")
QUADRIC = "perfbench/local_quadric.json"

# Children import the package from this checkout's src/ and never write
# bytecode, so every process compiles the package afresh (part of setup_s
# on every commit); environment() reports any bytecode already in src/.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": SRC,
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}
PINNED_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED")

# the installed console script is orbidisk.cli:main
CLI_ENTRY = "import sys; from orbidisk.cli import main; sys.exit(main())"
SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import orbidisk.cli
from orbidisk.fan import kernel_data
for path in sys.argv[1:]:
    fan, basis_p = orbidisk.cli.load_fan_file(path)
    kernel_data(fan, basis_p)
t1 = time.perf_counter()
print(json.dumps({"setup_s": t1 - t0, "file": orbidisk.cli.__file__}))
"""
STARTUP_PROBE = "import orbidisk.cli"

SETUP_PER_PASS = 3   # fresh processes per pass; setup_s is their median

# The CPU of a shared machine slows down by up to half for seconds at a time
# (another tenant's load on the same core), and a whole run can fall into a
# slow spell, so raw times differ by a third from run to run.  While each
# child runs, this process, pinned to the same CPU, times a fixed loop every
# PROBE_PERIOD, and the child's time is reported in units of that loop:
# seconds on a CPU where one probe takes PROBE_REFERENCE (at_reference_speed).
PROBE_LOOP = 400     # iterations, about a millisecond
PROBE_STEP = Fraction(1, 3)
PROBE_PERIOD = 0.01
PROBE_REFERENCE = 0.001
STARTUP_PROBES = 3
MIN_PASSES = 3       # untraced passes per run, even past --seconds
MIN_TRACED = 2       # traced passes: counts must repeat across them


# Disk numbers of local P^2 (Aganagic-Klemm-Vafa, hep-th/0105045;
# Graber-Zaslow, hep-th/0109075): coefficients of q^0 .. q^8.
KP2_DISK_NUMBERS = [1, -2, 5, -32, 286, -3038, 35870, -454880, 6073311]


def check_kp2_disk_numbers(doc):
    terms = {tuple(t["exponents"].items()): t["coeff"]
             for t in doc["potential"]["series"]["terms"]}
    got = [terms.get((("q1", str(k)),) if k else ()) for k in range(9)]
    want = [str(c) for c in KP2_DISK_NUMBERS]
    return None if got == want else f"kp2 disk numbers {got} != {want}"


def check_c3z3_box_potential(doc):
    """Acceptance criterion 2: the box:3 potential begins tau + tau^4/648."""
    head = doc["disk_potential"]["series"]["terms"][:2]
    want = [{"coeff": "1", "exponents": {"t3": "1"}},
            {"coeff": "1/648", "exponents": {"t3": "4"}}]
    if not doc["match"] or head != want:
        return f"c3z3 box:3 potential begins {head}, want {want}"
    return None


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    exit: int = 0
    check: object = None   # literature check: parsed stdout -> error or None

    @property
    def key(self):
        return " ".join(self.argv)


def _sweep():
    """Every bundled base fan x analyze / mirror-map / syz / invariants for
    each valid disk, the three bundled oracle pairs, json and text formats
    alternating, at order 4; then inputs that must be refused with exit 2."""
    disks = {"c3": ["ray:0", "ray:1", "ray:2"],
             "conifold": ["ray:0", "ray:1", "ray:2", "ray:3"],
             "kp2": ["ray:0", "ray:1", "ray:2", "ray:3"],
             "c3z3": ["ray:0", "ray:1", "ray:2", "box:3"]}
    base = []
    for fan, fan_disks in disks.items():
        base.append(("analyze", fan))
        base.append(("mirror-map", fan, "--order", "4"))
        base.append(("syz", fan, "--order", "4"))
        for d in fan_disks:
            base.append(("invariants", fan, "--disk", d, "--order", "4"))
    for fan, bar, d in (("c3", "c3_bar", "ray:2"), ("kp2", "kp2_bar", "ray:0"),
                        ("c3z3", "c3z3_bar", "box:3")):
        base.append(("oracle", fan, "--bar", bar, "--disk", d, "--order", "4"))
    out = [Invocation(argv + ("--format", ("json", "text")[i % 2]))
           for i, argv in enumerate(base)]
    refused = [("invariants", "c3", "--disk", "ray:3"),
               ("invariants", "kp2", "--disk", "box:3", "--format", "json"),
               ("mirror-map", "conifold", "--order", "0"),
               ("analyze", "nosuchfan"),
               ("oracle", "kp2", "--bar", "c3z3_bar", "--disk", "ray:0"),
               ("syz", "conifold", "--gauge", "7")]
    return out + [Invocation(argv, exit=2) for argv in refused]


WORKLOADS = {
    "kp2_deep": [Invocation(("invariants", "kp2", "--disk", "ray:0",
                             "--order", "20", "--format", "json"),
                            check=check_kp2_disk_numbers)],
    "quadric_rank2": [Invocation(("invariants", QUADRIC, "--disk", "ray:0",
                                  "--order", "7", "--format", "json"))],
    "c3z3_oracle": [Invocation(("oracle", "c3z3", "--bar", "c3z3_bar",
                                "--disk", "box:3", "--order", "10",
                                "--format", "json"),
                               check=check_c3z3_box_potential)],
    "sweep_small": _sweep(),
}
# fan files each workload loads; setup_s loads them in a fresh process
FANS = {
    "kp2_deep": ["kp2"],
    "quadric_rank2": [QUADRIC],
    "c3z3_oracle": ["c3z3", "c3z3_bar"],
    "sweep_small": ["c3", "conifold", "kp2", "c3z3",
                    "c3_bar", "kp2_bar", "c3z3_bar"],
}

# Per-layer metrics the traced run must see non-zero on each workload.
_SERIES = ["series.mul.calls", "series.mul.pairs", "series.mul.self_s",
           "series.pow_int.calls", "series.pow_int.self_s",
           "series.substitute.calls", "series.substitute.self_s",
           "series.exp.calls", "series.exp.self_s",
           "series.log_one_plus.calls", "series.log_one_plus.self_s",
           "series.pow_frac.calls", "series.invert_map.s",
           "series.invert_map.substitutes"]
_MIRRORMAP = ["mirrormap.toric_mirror_map.calls", "mirrormap.toric_mirror_map.s",
              "mirrormap.relative_mirror_map.s", "mirrormap.g_series.calls",
              "mirrormap.g_series.self_s", "mirrormap.inverse_mirror_map.s"]
_HYPER = ["hyper.z_extract.calls", "hyper.z_extract.self_s",
          "hyper.relative_ifunction_oracle.s"]
_EFFECTIVE = ["effective.enumerate_effective.calls",
              "effective.enumerate_effective.s", "effective.classes"]
_FAN = ["fan.kernel_data.calls", "fan.kernel_data.s",
        "fan.verify_semi_fano.calls", "fan.verify_semi_fano.s",
        "fan.validate_compactification.s"]
_SYZ = ["syz.mirror_potential.s", "syz.emit_lg_model.s"]
_CLI = ["cli.load_fan_file.s", "cli.render.s", "cli.write_output.s"]
_INVARIANTS = ["invariants.disk_potential.s", "invariants.extract_invariants.s",
               "invariants.oracle_potential.s",
               "invariants.compare_potentials.s"]
LAYER_METRICS = (_SERIES + _MIRRORMAP + _HYPER + _EFFECTIVE + _FAN + _SYZ
                 + _CLI + _INVARIANTS
                 + [f"{layer}.errors" for layer in LAYER_NAMES])
_INVERT = _SERIES + ["mirrormap.inverse_mirror_map.s",
                     "invariants.disk_potential.s"]
DECLARED = {
    "kp2_deep": _INVERT + ["invariants.extract_invariants.s"],
    "quadric_rank2": _INVERT + ["invariants.extract_invariants.s"],
    "c3z3_oracle": _INVERT + _MIRRORMAP + _HYPER + _EFFECTIVE + [
        "invariants.oracle_potential.s", "invariants.compare_potentials.s"],
    "sweep_small": _FAN + _SYZ + _CLI + ["cli.errors", "fan.errors"],
}
# (span, parent) pairs that prove a binding is traced: the `1 + u` in
# invert_map reaches Series.__radd__, relative_ifunction_oracle imports
# enumerate_effective lazily, and main dispatches through cli.COMMANDS
EDGES = {
    "kp2_deep": [("series.add", "series.invert_map")],
    "quadric_rank2": [("series.add", "series.invert_map")],
    "c3z3_oracle": [("series.add", "series.invert_map"),
                    ("effective.enumerate_effective",
                     "hyper.relative_ifunction_oracle"),
                    ("cli.cmd_oracle", "cli.main")],
    "sweep_small": [("cli.cmd_analyze", "cli.main"),
                    ("cli.cmd_syz", "cli.main")],
}

# ---------------------------------------------------------------------------
# checks and environment


def problems_of(inv, code, out: bytes, err: str, expected):
    """Everything wrong with one invocation's result; [] when it is right."""
    found = []
    if code != inv.exit:
        found.append(f"exit {code}, want {inv.exit}")
    if "Traceback" in err:
        found.append("traceback on stderr")
    elif inv.exit == 0 and err:
        found.append("stderr not empty")
    elif inv.exit != 0:
        try:
            if "error" not in json.loads(err):
                found.append("stderr is not a structured error")
        except ValueError:
            found.append("stderr is not a structured error")
    if expected is not None:
        got = {"exit": code, "stdout_sha256": hashlib.sha256(out).hexdigest()}
        if got != expected.get(inv.key):
            found.append(f"{got} != recorded {expected.get(inv.key)}")
    if inv.check and code == 0:
        msg = inv.check(json.loads(out))
        if msg:
            found.append(msg)
    return found


def pin_inputs():
    """Refuse to run unless src/ holds the package and the bench-owned local
    quadric equals LOCAL_QUADRIC in tests/test_generalization.py."""
    if not os.path.isfile(os.path.join(SRC, "orbidisk", "cli.py")):
        return f"no orbidisk package under {SRC}"
    test = os.path.join(ROOT, "tests", "test_generalization.py")
    if not os.path.isfile(test):
        return f"missing {test}"
    with open(test) as f:
        tree = ast.parse(f.read())
    pinned = next((ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "LOCAL_QUADRIC"
                           for t in node.targets)), None)
    with open(os.path.join(ROOT, QUADRIC)) as f:
        ours = json.load(f)
    if pinned != ours:
        return f"{QUADRIC} differs from LOCAL_QUADRIC in {test}"
    return None


def commit():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if not os.path.isfile(path):
        return f"unknown ({ref[5:]} is packed)"
    with open(path) as f:
        return f.read().strip()


def environment():
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit(),
            **{k: CHILD_ENV[k] for k in PINNED_ENV},
            "pyc_in_src": sum(f.endswith(".pyc") for _, _, files in
                              os.walk(SRC) for f in files)}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    out: bytes
    err: str
    wall: float
    user: float         # user and system CPU seconds of the child
    system: float
    maxrss_kb: int
    probes: list        # speed-probe times taken while the child ran


def speed_probe():
    """CPU seconds of a fixed loop of Fraction products summed into a dict,
    the kind of work the package does; a plain integer loop tracks the
    package's slowdowns far less closely."""
    start = time.thread_time()
    acc = {}
    for i in range(PROBE_LOOP):
        key = (i & 31, "y")
        acc[key] = acc.get(key, 0) + PROBE_STEP * i
    return time.thread_time() - start


def run_child(args, scratch):
    """Run python with args on src/ and wait for it, probing the speed of
    the CPU every PROBE_PERIOD meanwhile; reap it with wait4 for its exit
    code, CPU time and peak RSS."""
    out, err = scratch
    for f in scratch:
        f.seek(0)
        f.truncate()
    probes = []
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=CHILD_ENV,
                            stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    exited = os.pidfd_open(proc.pid)
    try:
        while True:
            probes.append(speed_probe())
            if select.select([exited], [], [], PROBE_PERIOD)[0]:
                break
    finally:
        os.close(exited)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out.seek(0)
    err.seek(0)
    return Child(proc.returncode, out.read(), err.read().decode(), wall,
                 usage.ru_utime, usage.ru_stime, usage.ru_maxrss, probes)


def pin_to_one_cpu():
    """Speed probes only describe a child that shares their CPU; children
    inherit the affinity."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def at_reference_speed(samples):
    """Scale each (seconds, probes) sample to a CPU on which one speed probe
    takes PROBE_REFERENCE: seconds * PROBE_REFERENCE / mean(probes)."""
    return [sec * PROBE_REFERENCE / statistics.fmean(probes)
            for sec, probes in samples]


def child_cpu(children):
    """CPU seconds of the children: user time at the reference speed plus
    system time as measured.  Start-up work in the kernel (exec, page
    faults) does not slow down with the probe loop, so scaling it too
    would overcorrect short children in a slow spell."""
    user = at_reference_speed([(c.user, c.probes) for c in children])
    return sum(user) + sum(c.system for c in children)


@contextlib.contextmanager
def scratch_files():
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        yield out, err


def probe_setup(fans, scratch):
    child = run_child(["-c", SETUP_PROBE, *fans], scratch)
    if child.code != 0:
        raise RuntimeError(f"setup probe failed: {child.err}")
    result = json.loads(child.out)
    if not os.path.abspath(result["file"]).startswith(SRC + os.sep):
        raise RuntimeError(f"orbidisk imported from {result['file']}, "
                           f"not from {SRC}")
    return result["setup_s"], child.probes


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)["invocations"]


def order_of(workload, seed):
    invs = list(WORKLOADS[workload])
    if workload == "sweep_small":
        random.Random(seed).shuffle(invs)
    return invs


def more_passes(passes, start, seconds, minimum):
    """Whether to run another pass: until the minimum, then while the next
    pass is expected to end within the run's seconds."""
    if len(passes) < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed * (len(passes) + 1) / len(passes) <= seconds


def report(problems, inv):
    for p in problems:
        print(f"FAIL {inv.key}: {p}", file=sys.stderr)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def measure(workload, seed, seconds):
    invs = order_of(workload, seed)
    expected = load_expected()
    pin_to_one_cpu()
    setup, passes, peak_kb, attempted, failed = [], [], 0, 0, 0
    start = time.perf_counter()
    with scratch_files() as scratch:
        while more_passes(passes, start, seconds, MIN_PASSES):
            # setup probes are spread over the run like the passes
            setup += [probe_setup(FANS[workload], scratch)
                      for _ in range(SETUP_PER_PASS)]
            children = []
            for inv in invs:
                child = run_child(["-c", CLI_ENTRY, *inv.argv], scratch)
                children.append(child)
                peak_kb = max(peak_kb, child.maxrss_kb)
                attempted += 1
                problems = problems_of(inv, child.code, child.out, child.err,
                                       expected)
                if problems:
                    failed += 1
                    report(problems, inv)
            passes.append(children)
    cpu = [child_cpu(p) for p in passes]
    wall = [sum(c.wall for c in p) for p in passes]
    raw = [sum(c.user + c.system for c in p) for p in passes]
    setup_s = at_reference_speed(setup)
    q1, med, q3 = quartiles(cpu)
    s1, smed, s3 = quartiles(setup_s)
    print(f"{workload} cpu_s        median {med:.4f} s  q1 {q1:.4f}  "
          f"q3 {q3:.4f}  n={len(cpu)} runs of {len(invs)} invocations")
    print(f"{workload} setup_s      median {smed:.4f} s  q1 {s1:.4f}  "
          f"q3 {s3:.4f}  n={len(setup_s)} fresh processes")
    print(f"{workload} peak_rss_mb  max {peak_kb / 1024:.2f} MB  "
          f"n={attempted} child processes")
    print(f"{workload} error_rate   {failed / attempted:.4f} ratio  "
          f"n={attempted} ({failed} failed)")
    probes = sorted(p for c in itertools.chain(*passes) for p in c.probes)
    print(f"{workload} unscaled: wall {statistics.median(wall):.4f} s, "
          f"cpu {statistics.median(raw):.4f} s, setup "
          f"{statistics.median(t for t, _ in setup):.4f} s (medians); "
          f"speed probe min {probes[0] * 1e3:.3f} ms, median "
          f"{statistics.median(probes) * 1e3:.3f} ms, n={len(probes)}")
    return attempted, failed, {"cpu_s": med, "setup_s": smed,
                               "peak_rss_mb": peak_kb / 1024}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def import_in_process():
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import orbidisk.cli
    if not os.path.abspath(orbidisk.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"orbidisk imported from {orbidisk.cli.__file__}")
    return orbidisk.cli


class ProbeThread(threading.Thread):
    """Takes a speed probe every PROBE_PERIOD while the main thread runs the
    package in-process; the interpreter lock makes the two take turns on the
    one CPU, as a child and this process do in run_child."""

    def __init__(self):
        super().__init__(daemon=True)
        self.probes = []
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(PROBE_PERIOD):
            self.probes.append(speed_probe())


def in_process_pass(cli, invs, probe):
    """Run each argv through cli.main; return the main thread's CPU time
    inside main at the reference speed, and the (invocation, exit code,
    stdout, stderr) of each."""
    first = len(probe.probes)
    probe.probes.append(speed_probe())
    total, results = 0.0, []
    for inv in invs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.thread_time()
            code = cli.main(list(inv.argv))
            total += time.thread_time() - start
        results.append((inv, code, out.getvalue().encode(), err.getvalue()))
    factor = PROBE_REFERENCE / statistics.fmean(probe.probes[first:])
    return total * factor, factor, results


def traced(workload, seed, seconds):
    invs = order_of(workload, seed)
    expected = load_expected()
    pin_to_one_cpu()
    with scratch_files() as scratch:
        startup = statistics.median(
            child_cpu([run_child(["-c", STARTUP_PROBE], scratch)])
            for _ in range(STARTUP_PROBES))
    cli = import_in_process()

    tracer = Tracer()
    probe = ProbeThread()
    plain, timed, summaries = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    probe.start()
    try:
        while more_passes(timed, start, seconds, MIN_TRACED):
            t_plain, _, results = in_process_pass(cli, invs, probe)
            first = len(tracer.spans)
            try:
                tracer.install(len(timed) + 1)
                t_traced, factor, traced_results = in_process_pass(
                    cli, invs, probe)
            finally:
                tracer.remove()
            plain.append(t_plain)
            timed.append(t_traced)
            spans = tracer.spans[first:]
            summaries.append({k: v if isinstance(v, int) else v * factor
                              for k, v in
                              summarize(spans, tracer.names).items()})
            for inv, code, out, err in results + traced_results:
                attempted += 1
                problems = problems_of(inv, code, out, err, expected)
                if problems:
                    failed += 1
                    report(problems, inv)
    except MissedBinding as e:
        return 0, 0, {}, [str(e)]
    finally:
        probe.done.set()
        probe.join()

    selftest = []
    counts = [{k: v for k, v in s.items() if isinstance(v, int)}
              for s in summaries]
    if any(c != counts[0] for c in counts):
        diff = sorted(k for k in counts[0]
                      if any(c[k] != counts[0][k] for c in counts))
        selftest.append(f"counts differ between traced passes: {diff}")
    values = {k: (v if isinstance(v, int)
                  else statistics.median(s[k] for s in summaries))
              for k, v in summaries[0].items()}
    for name in DECLARED[workload]:
        if not values.get(name):
            selftest.append(f"{name} is {values.get(name)} on {workload}")
    for child, parent in EDGES[workload]:
        if parent not in parent_names(spans, child):
            selftest.append(f"no {child} span under {parent}")

    overhead = statistics.median(t - p for t, p in zip(timed, plain))
    untraced = statistics.median(plain)
    values["trace.overhead_s"] = overhead
    values["startup.s"] = startup * len(invs)
    span_file = os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl")
    write_spans(span_file, tracer.spans)

    total = values["startup.s"] + sum(values[f"{layer}.self_s"]
                                      for layer in LAYER_NAMES)
    print(f"{workload} {len(timed)} traced passes: untraced {untraced:.4f} s, "
          f"traced {statistics.median(timed):.4f} s, overhead "
          f"{overhead:.4f} s ({overhead / untraced:.1%}); "
          f"{len(tracer.spans)} spans in {span_file}")
    print(f"{workload} share of start-up plus traced self time "
          f"({total:.4f} s):")
    print(f"  {'startup':<11} {values['startup.s'] / total:6.1%}  "
          f"(interpreter start + import orbidisk.cli, {len(invs)} x "
          f"{startup:.4f} s)")
    for layer in LAYER_NAMES:
        print(f"  {layer:<11} {values[f'{layer}.self_s'] / total:6.1%}")
    for name in LAYER_METRICS:
        v = values[name]
        shown = f"{v}" if isinstance(v, int) else f"{v:.6f} s"
        print(f"{workload} {name:<40} {shown}")
    return attempted, failed, values, selftest


# ---------------------------------------------------------------------------


def record():
    """Write expected.json from the current src/; every exit code and
    literature check must already hold."""
    out, bad = {}, 0
    with scratch_files() as scratch:
        for workload, invs in WORKLOADS.items():
            for inv in invs:
                child = run_child(["-c", CLI_ENTRY, *inv.argv], scratch)
                problems = problems_of(inv, child.code, child.out, child.err,
                                       None)
                if problems:
                    bad += 1
                    report(problems, inv)
                out[inv.key] = {"exit": child.code, "stdout_sha256":
                                hashlib.sha256(child.out).hexdigest()}
    if bad:
        return 1
    with open(EXPECTED, "w") as f:
        json.dump({"environment": environment(), "invocations": out}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(out)} invocations in {EXPECTED}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    broken = pin_inputs()
    if broken:
        print(f"perfbench: {broken}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        p.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment()
    print(f"# orbidisk benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# " + ", ".join(f"{k} {v}" for k, v in env.items()))

    workloads = [args.workload]
    if args.workload == "all":
        workloads = list(WORKLOADS)
        random.Random(args.seed).shuffle(workloads)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        prefix = f"{workload}." if args.workload == "all" else ""
        if args.trace:
            a, f_, values, selftest = traced(workload, args.seed, args.seconds)
            for msg in selftest:
                print(f"TRACER SELF-TEST FAILED: {msg}", file=sys.stderr)
            if selftest:
                return 1
        else:
            a, f_, values = measure(workload, args.seed, args.seconds)
        attempted += a
        failed += f_
        for m in declared:
            metrics[prefix + m["name"]] = {"value": values[m["name"]],
                                           "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
