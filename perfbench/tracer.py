"""In-memory span tracer for the orbidisk benchmark.

The tracer lives outside the package: it wraps the public functions of each
orbidisk module from here, records one span per call and puts the originals
back afterwards.  A span is (run id, span id, parent span id, name, start,
end, raised an OrbidiskError, work count); spans of one pass share a run id.
Start and end read the thread's CPU clock, so time the interpreter gives to
another thread is not charged to the span.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import time
import types
from collections import defaultdict

# orbidisk module -> layer name; linalg is the fan layer's arithmetic
LAYERS = {
    "cli": "cli", "fan": "fan", "linalg": "fan", "effective": "effective",
    "hyper": "hyper", "mirrormap": "mirrormap", "series": "series",
    "invariants": "invariants", "syz": "syz",
}
LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values()))

# The series layer is traced at the Series operations and at invert_map.
# Its module-level monomial helpers and the accessors (grade_of, coefficient,
# is_zero, ...) run inside the multiplication loop, where a span would cost
# more than the work it times; their time is self time of the caller.
SERIES_METHODS = {
    "__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub", "__neg__": "neg",
    "mul_monomial": "mul_monomial", "truncate": "truncate",
    "pow_int": "pow_int", "pow_frac": "pow_frac", "exp": "exp",
    "log_one_plus": "log_one_plus", "factor_unit": "factor_unit",
    "substitute": "substitute", "same_terms": "same_terms", "text": "text",
    "to_json": "to_json",
}
SERIES_FUNCTIONS = ("invert_map",)

# span names whose metrics carry a different name
RENAMED = {"cli.render_text": "cli.render"}


def _mul_pairs(args, result):
    """Term pairs the multiplication loop visits: |a| * |b|, a scalar
    counting as one term."""
    a, b = args
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _classes(args, result):
    return len(result)


WORK = {"series.mul": ("series.mul.pairs", _mul_pairs),
        "effective.enumerate_effective": ("effective.classes", _classes)}


class MissedBinding(RuntimeError):
    """A traced function is still reachable unwrapped."""


class Tracer:
    """Wraps the package while installed; spans accumulate in .spans."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []
        self._ids = itertools.count(1)
        self._undo = []
        pkg = sys.modules["orbidisk"]
        self._error = sys.modules["orbidisk.errors"].OrbidiskError
        self._modules = [pkg] + [sys.modules[f"orbidisk.{m}"] for m in LAYERS]
        self.targets = self._targets()
        self.names = sorted(set(self.targets.values()))

    def _targets(self):
        """original function -> span name, for every traced function."""
        out = {}
        for short, layer in LAYERS.items():
            mod = sys.modules[f"orbidisk.{short}"]
            if short == "series":
                for attr in SERIES_FUNCTIONS:
                    out[getattr(mod, attr)] = f"series.{attr}"
                for attr, name in SERIES_METHODS.items():
                    out[mod.Series.__dict__[attr]] = f"series.{name}"
                continue
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    out[obj] = RENAMED.get(name, name)
        return out

    def _wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, \
            time.thread_time
        error = self._error
        work = WORK.get(name, (None, None))[1]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            failed = False
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except error:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                n = work(args, result) if work and not failed else 0
                spans.append((tracer.run, sid, parent, name, start, end,
                              failed, n))
        traced.traced_name = name
        return traced

    # -- installing -----------------------------------------------------------

    def _namespaces(self):
        """Every place the package binds functions: module globals, the
        attributes of its classes, and containers held in module globals
        (cli.COMMANDS maps command names to functions)."""
        for mod in self._modules:
            yield vars(mod), mod
            for obj in list(vars(mod).values()):
                if isinstance(obj, type) and obj.__module__.startswith("orbidisk"):
                    yield dict(obj.__dict__), obj
                elif isinstance(obj, dict):
                    yield obj, obj

    def _set(self, holder, key, value):
        if isinstance(holder, dict):
            holder[key] = value
        else:
            setattr(holder, key, value)

    def install(self, run):
        """Wrap every binding of every traced function, then prove that no
        unwrapped binding is left."""
        self.run = run
        wrappers = {f: self._wrap(name, f) for f, name in self.targets.items()}
        seen = set()
        for ns, holder in self._namespaces():
            if id(holder) in seen:
                continue
            seen.add(id(holder))
            for key, obj in list(ns.items()):
                if type(obj) is types.FunctionType and obj in wrappers:
                    self._set(holder, key, wrappers[obj])
                    self._undo.append((holder, key, obj))
        # the JSON rendering cli does goes through its own json binding
        cli = sys.modules["orbidisk.cli"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(json.__dict__)
        proxy.dumps = self._wrap("cli.render", json.dumps)
        self._undo.append((cli, "json", cli.json))
        cli.json = proxy
        self.check_coverage()

    def remove(self):
        while self._undo:
            holder, key, obj = self._undo.pop()
            self._set(holder, key, obj)

    def check_coverage(self):
        """Raise MissedBinding if an original is reachable from the package:
        module globals, class attributes, containers in globals (one level),
        and the defaults and closures of the package's functions."""
        originals = set(self.targets)
        missed = []

        def look(where, obj):
            if type(obj) is types.FunctionType and obj in originals:
                missed.append(f"{where} -> {self.targets[obj]}")

        for mod in self._modules:
            for key, obj in vars(mod).items():
                where = f"{mod.__name__}.{key}"
                look(where, obj)
                if isinstance(obj, type) and obj.__module__.startswith("orbidisk"):
                    for k, v in obj.__dict__.items():
                        look(f"{where}.{k}", getattr(v, "__func__", v))
                elif isinstance(obj, (dict, list, tuple, set, frozenset)):
                    items = obj.values() if isinstance(obj, dict) else obj
                    for v in items:
                        look(f"{where}[...]", v)
                if isinstance(obj, types.FunctionType) and \
                        not hasattr(obj, "traced_name"):
                    for v in (obj.__defaults__ or ()):
                        look(f"{where} default", v)
                    for v in (obj.__kwdefaults__ or {}).values():
                        look(f"{where} default", v)
                    for cell in (obj.__closure__ or ()):
                        look(f"{where} closure", cell.cell_contents)
        if missed:
            raise MissedBinding("unwrapped bindings: " + "; ".join(missed))


def summarize(spans, names):
    """Per-layer metrics of one pass from its spans.

    <name>.calls, <name>.s (time of the outermost span of that name, so
    nested calls are not counted twice) and <name>.self_s (span time minus
    the time of its child spans) for every traced name; <layer>.self_s and
    <layer>.errors (OrbidiskErrors raised inside the layer, counted at the
    deepest span they passed) for every layer; and the work counts.
    """
    info = {sid: (name, parent) for _, sid, parent, name, *_ in spans}
    child = defaultdict(float)
    error_parents = set()
    for _, sid, parent, name, start, end, failed, _ in spans:
        child[parent] += end - start
        if failed:
            error_parents.add(parent)
    out = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for layer in LAYER_NAMES:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = 0
    for metric, _ in WORK.values():
        out[metric] = 0
    out["series.invert_map.substitutes"] = 0
    for _, sid, parent, name, start, end, failed, n in spans:
        dur = end - start
        own = dur - child[sid]
        layer = name.split(".", 1)[0]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        out[f"{layer}.self_s"] += own
        up = parent
        while up and info[up][0] != name:
            up = info[up][1]
        if not up:
            out[f"{name}.s"] += dur
        if failed and sid not in error_parents:
            out[f"{layer}.errors"] += 1
        if name in WORK:
            out[WORK[name][0]] += n
        if name == "series.substitute" and parent and \
                info[parent][0] == "series.invert_map":
            out["series.invert_map.substitutes"] += 1
    return out


def parent_names(spans, name):
    """Names of the direct parents of spans called name."""
    info = {sid: n for _, sid, _, n, *_ in spans}
    return {info.get(parent, "<root>") for _, _, parent, n, *_ in spans
            if n == name}


def write_spans(path, spans):
    """One JSON array per span, after a header line naming the fields."""
    with open(path, "w") as f:
        f.write(json.dumps(["run", "span", "parent", "name", "start", "end",
                            "error", "work"]) + "\n")
        for s in spans:
            f.write(json.dumps(s) + "\n")
