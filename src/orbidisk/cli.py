"""Command-line surface for the whole pipeline.

Commands: analyze, mirror-map, invariants, syz, oracle.  Output is canonical
JSON (sorted keys, stable term order) or a plain-text report; identical inputs
produce byte-identical output.  Exit codes: 0 success, 2 validation error,
3 mathematical-consistency failure.
"""
from __future__ import annotations

import gc
import json
import os
import re
import stat
import sys
import types

# the layers are bound as modules and read at call time: each loads the
# first time a command uses it (see __init__)
from . import fan, fans, invariants, mirrormap, syz
from .errors import OrbidiskError, ValidationError, frac_str, index, parse_frac

MODULE = "cli"


def parse_order(text):
    order = parse_frac(text)
    if order <= 0:
        raise ValidationError(MODULE, "run", "order must be positive", text)
    return order


def load_fan_file(path):
    """(fan, basis_p) from a fan file path or a bundled fan name.

    A bundled fan resolves only from its bare name (kp2, not dir/kp2.json),
    and only when no file of that name exists.
    """
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as f:
                document = f.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ValidationError(MODULE, "load",
                                  f"cannot read fan file {path}: {e}", path)
    elif path in fans.NAMES:
        document = fans.read(path)
    else:
        raise ValidationError(MODULE, "load", f"no such fan file: {path}",
                              path)
    try:
        raw = json.loads(document)
    except (ValueError, RecursionError) as e:  # integers past 4300 digits too
        raise ValidationError(MODULE, "load",
                              f"malformed fan file {path}: {e}", path)
    basis_p = None
    if isinstance(raw, dict) and "basis_p" in raw:
        rows = raw.pop("basis_p")
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise ValidationError(MODULE, "load", "basis_p must be a list of rows",
                                  rows)
        basis_p = [[parse_frac(x) for x in row] for row in rows]
    return fan.fan_from_dict(raw), basis_p


# ---------------------------------------------------------------------------
# the command line: one table, read the way argparse read it (importing
# argparse and building its parser took 3.5 ms of each run's CPU on a
# 2-vCPU VM)

DESCRIPTION = ("disk potentials, mirror maps and Landau-Ginzburg mirrors "
               "of toric Calabi-Yau orbifolds")
FORMATS = ("json", "text")
_DISK = {"--disk": (None, True, "disk class selector, ray:<i> or box:<j>")}
_ORDER = {"--order": ("4", False, "grade bound for all series (rational)")}
_OUTPUT = {"--format": ("text", False, " or ".join(FORMATS)),
           "--output": (None, False, "path (default stdout)")}
# command -> (help line, {option: (default, required, help line)}); besides
# its options each command takes -h/--help and one positional, the fan
SPEC = {
    "analyze": ("validate a fan and report its derived lattice data",
                _OUTPUT),
    "mirror-map": ("forward and inverse mirror map", {**_ORDER, **_OUTPUT}),
    "invariants": ("disk potential and invariant table",
                   {**_DISK, **_ORDER, **_OUTPUT}),
    "syz": ("corrected mirror potential and Landau-Ginzburg document",
            {**_ORDER, "--gauge": (0, False, "index of the gauge cone"),
             **_OUTPUT}),
    "oracle": ("compare the potential against its compactified derivation",
               {"--bar": (None, True, "compactified fan file"), **_DISK,
                **_ORDER, **_OUTPUT}),
}
_HELP = ("-h", "--help")
# a token like this is a value, never an option
_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def _refuse(message):
    """A malformed command line is a ValidationError (exit 2, reported on
    stderr as JSON like every other), not a usage text."""
    raise ValidationError(MODULE, "argv", message)


def _classify(token, names):
    """How a token before `--` reads against the option strings `names`:
    None for a positional; (option, the text after '=' or None) for an
    option or a unique prefix of a long one, where -hX is -h with X
    attached; (None, None) for an option no name matches.  A prefix that
    matches two names is refused."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    head, eq, value = token.partition("=")
    if eq and head in names:
        return head, value
    if token[1] == "-":
        matches = [n for n in names if n.startswith(head)]
        attached = value if eq else None
    else:
        matches = ["-h"] if token[:2] == "-h" else []
        attached = token[2:]
    if len(matches) > 1:
        _refuse(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], attached
    if re.match(_NUMBER, token) or " " in token:
        return None
    return None, None


def _help(command, option, attached):
    """Print the help of `command` (None: of the program) and exit 0.  A
    value attached to -h is more h flags (-hh); any other is refused."""
    rest = attached.lstrip("h") if option == "-h" and attached else attached
    if attached is not None and (rest or not attached):
        _refuse(f"argument -h/--help: ignored explicit argument {rest!r}")
    if command is None:
        text, rows = DESCRIPTION, {c: line for c, (line, _) in SPEC.items()}
    else:
        text, options = SPEC[command]
        rows = {"<fan>": "fan file path or bundled fan name"}
        for option, (default, required, line) in options.items():
            rows[option] = line + (" (required)" if required else "" if
                                   default is None else f" (default {default})")
    width = max(map(len, rows))
    sys.stdout.write(f"usage: orbidisk {command or '<command>'} <fan> "
                     f"[options]\n\n{text}\n\n" + "".join(
                         f"  {k:<{width}}  {v}\n" for k, v in rows.items()))
    raise SystemExit(0)


def _value(option, text):
    if option == "--gauge":
        try:
            return index(text)
        except ValueError:
            _refuse(f"argument --gauge: invalid index value: {text!r}")
    if option == "--format" and text not in FORMATS:
        _refuse(f"argument --format: invalid choice: {text!r} (choose from "
                f"{', '.join(map(repr, FORMATS))})")
    return text


def parse_argv(argv):
    """The command line as a namespace: command, fan and the command's
    options, defaults filled in.

    Read as argparse read it: `--opt value` or `--opt=value`, any unique
    prefix of an option, `--` ends the options, a negative number is a
    value, and -h/--help prints the help and raises SystemExit(0) when the
    scan reaches it.  A malformed line is refused with argparse's message
    and in its order: the tokens before the command, the command, an
    ambiguous prefix anywhere, the options left to right, the required
    arguments, and last the unrecognized ones.
    """
    extras, i = [], 0
    while i < len(argv) and argv[i] != "--":
        kind = _classify(argv[i], _HELP)
        if kind is None:
            break
        if kind[0]:
            _help(None, *kind)   # it does not return
        extras.append(argv[i])
        i += 1
    if argv[i:] in ([], ["--"]):
        _refuse("the following arguments are required: command")
    command, tokens = argv[i], argv[i + 1:]
    if command not in SPEC:
        _refuse(f"argument command: invalid choice: {command!r} (choose "
                f"from {', '.join(map(repr, SPEC))})")
    options = SPEC[command][1]
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_classify(t, (*_HELP, *options)) for t in tokens[:cut]]
    fan = fan_at = None
    given, j = {}, 0
    while j < cut:
        kind = kinds[j]
        if kind is None and fan is None:
            fan, fan_at = tokens[j], j
        elif kind is None or kind[0] is None:
            extras.append(tokens[j])
        elif kind[0] in _HELP:
            _help(command, *kind)
        else:
            option, text = kind
            if text is None:
                j += 1
                if j == cut or kinds[j] is not None:
                    _refuse(f"argument {option}: expected one argument")
                text = tokens[j]
            given[option] = _value(option, text)
        j += 1
    # after `--` every token is a positional; the `--` itself goes with a
    # fan next to it
    rest = tokens[cut:]
    if rest and (fan is None or fan_at == cut - 1):
        del rest[0]
    if fan is None and rest:
        fan = rest.pop(0)
    missing = ["fan"] if fan is None else []
    missing += [o for o, (_, required, _) in options.items()
                if required and o not in given]
    if missing:
        _refuse(f"the following arguments are required: {', '.join(missing)}")
    if extras + rest:
        _refuse(f"unrecognized arguments: {' '.join(extras + rest)}")
    return types.SimpleNamespace(command=command, fan=fan, **{
        o[2:]: given.get(o, default) for o, (default, *_) in options.items()})


# ---------------------------------------------------------------------------
# command bodies (each returns a report of values; main serializes each
# package value through its to_json)


def cmd_analyze(args):
    stacky, basis_p = load_fan_file(args.fan)
    data = fan.kernel_data(stacky, basis_p)
    boxes, age1 = data.boxes, data.age1_boxes
    report = {
        "fan": stacky.to_dict(),
        "kernel_basis": [list(g) for g in data.gamma],
        "kernel_rank": data.r,
        "flat_rank": data.r_prime,
        "boxes": [{"vector": list(b.vector), "age": frac_str(b.age),
                   "cone": list(b.cone),
                   "coefficients": [frac_str(c) for c in b.coefficients]}
                  for b in boxes],
        "age_one_boxes": [list(b.vector) for b in age1],
        "anticones": [list(comp) for _, comp, _ in data.anticones],
        "calabi_yau": data.cy_covector is not None,
        "basis": {"origin": data.basis_origin, "split_ok": data.split_ok},
    }
    if data.cy_covector is not None:
        report["cy_covector"] = list(data.cy_covector)
        fan.verify_semi_fano(data)
        # witnesses: the divisor-class sum's multiplier on each anticone
        # generator, 0 on every Calabi-Yau fan
        report["semi_fano"] = {
            "holds": True,
            "witnesses": {",".join(map(str, c)): ["0"] * len(gens)
                          for c, _, gens in data.anticones},
        }
    return report


def cmd_mirror_map(args):
    order = parse_order(args.order)
    data = fan.kernel_data(*load_fan_file(args.fan))
    mm = mirrormap.toric_mirror_map(data, order)
    inv = mirrormap.inverse_mirror_map(mm)
    return {"order": frac_str(order), "forward": mm, "inverse": inv}


def cmd_invariants(args):
    order = parse_order(args.order)
    data = fan.kernel_data(*load_fan_file(args.fan))
    disk = fan.parse_disk_selector(args.disk, data)
    dp = invariants.disk_potential(mirrormap.toric_mirror_map(data, order),
                                   disk)
    table = invariants.extract_invariants(dp)
    return {"order": frac_str(order), "potential": dp, "invariants": table}


def cmd_syz(args):
    order = parse_order(args.order)
    data = fan.kernel_data(*load_fan_file(args.fan))
    return syz.emit_lg_model(syz.mirror_potential(data, args.gauge, order))


def cmd_oracle(args):
    order = parse_order(args.order)
    stacky, basis_p = load_fan_file(args.fan)
    bar, bar_basis = load_fan_file(args.bar)
    if bar_basis is not None:  # the bar's kernel basis extends the base's
        raise ValidationError(MODULE, "load", "a --bar fan takes no basis_p", args.bar)
    cd = fan.validate_compactification(stacky, bar, args.disk, basis_p)
    dp, oracle = invariants.compare_potentials(cd, order)
    return {
        "order": frac_str(order),
        "match": True,
        "disk_potential": dp,
        "oracle_potential": oracle,
        "completeness": cd.complete_certificate,
    }


COMMANDS = {
    "analyze": cmd_analyze,
    "mirror-map": cmd_mirror_map,
    "invariants": cmd_invariants,
    "syz": cmd_syz,
    "oracle": cmd_oracle,
}


# ---------------------------------------------------------------------------
# rendering


def render_text(command, report) -> str:
    lines = []
    if command == "analyze":
        lines.append(f"rank {report['fan']['rank']}, "
                     f"{len(report['fan']['rays'])} rays, "
                     f"{len(report['fan'].get('extra_vectors') or [])} extra "
                     f"vectors, kernel rank {report['kernel_rank']}")
        for g in report["kernel_basis"]:
            lines.append(f"kernel basis vector: {g}")
        for b in report["boxes"]:
            lines.append(f"box {b['vector']} age {b['age']} in cone "
                         f"{b['cone']} coefficients {b['coefficients']}")
        if not report["boxes"]:
            lines.append("no box elements")
        lines.append("anticones: " + "; ".join(
            "{" + ",".join(map(str, a)) + "}" for a in report["anticones"]))
        if report["calabi_yau"]:
            lines.append(f"Calabi-Yau covector: {report['cy_covector']}")
            lines.append("semi-Fano: holds")
        else:
            lines.append("not Calabi-Yau")
    elif command == "mirror-map":
        for rel in report["forward"].relations:
            lines.append(f"{rel.target} = {rel.series.text()}")
        for v, s in sorted(report["inverse"].items()):
            lines.append(f"{v} = {s.text()}")
    elif command == "invariants":
        pot = report["potential"]
        lines.append(f"disk {pot.disk[0]}:{pot.disk[1]} ({pot.normalization}): "
                     f"{pot.series.text()}")
        for (alpha, ins), value in sorted(report["invariants"].entries.items()):
            ins = ",".join(f"{k}:{v}" for k, v in ins) or "-"
            lines.append(f"alpha={list(alpha)} insertions={ins} "
                         f"value={frac_str(value)}")
    elif command == "syz":
        lines.append(report["equation"] + f"   W = {report['W']}")
        lines.append(f"gauge cone {report['gauge']['cone']}")
        for t in report["terms"]:
            c = "*".join(f"{k}^{v}" for k, v in sorted(t["C"].items())) or "1"
            lines.append(f"z^{t['exponent']} (reduced {t['reduced_exponent']}): "
                         f"C = {c}, series = {t['series'].text()}")
    elif command == "oracle":
        lines.append("MATCH")
        lines.append("disk potential:   "
                     + report["disk_potential"].series.text())
        lines.append("oracle potential: " + report["oracle_potential"].text())
    return "\n".join(lines) + "\n"


def write_output(text: str, path):
    """Write text to stdout (path None) or to path.

    A symlink is followed: its target is written and the link kept.  An
    existing target that is not a regular file (a FIFO, a device) is
    written in place.  A regular file is replaced whole through a temporary
    file beside it, so a reader never sees half a report; a replaced file
    keeps its mode and a new one gets the umask's.
    """
    if path is None:
        sys.stdout.write(text)
        return
    target = os.path.realpath(path)
    try:
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(target, "w") as f:
                f.write(text)
            return
        tmp = os.path.join(os.path.dirname(target),
                           f".orbidisk-{os.getpid()}-{os.urandom(6).hex()}")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as f:
                if mode is not None:
                    os.fchmod(f.fileno(), stat.S_IMODE(mode))
                f.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise ValidationError(MODULE, "write",
                              f"cannot write output {path}: {e.strerror or e}",
                              path)


def main(argv=None) -> int:
    """Run one command; return its exit code.

    With argv None main is the program: it reads sys.argv and owns the
    process.  It turns the cyclic garbage collector off, since the passes
    leave no cyclic garbage (tests/test_gc.py) and its scans are pure cost.
    Once the report or the error is written it freezes the heap: the full
    collections of interpreter finalization run even with the collector
    off, and they skip frozen objects, which the OS takes back with the
    process.  The exit code, atexit handlers and the stdio flush are as
    before.  main(argv) with a list leaves the collector as it found it
    and freezes nothing.
    """
    if argv is None:
        gc.disable()
    try:
        args = parse_argv(sys.argv[1:] if argv is None else list(argv))
        report = COMMANDS[args.command](args)
        if args.format == "json":
            text = json.dumps(report, sort_keys=True, indent=2,
                              default=lambda v: v.to_json()) + "\n"
        else:
            text = render_text(args.command, report)
        write_output(text, args.output)
    except OrbidiskError as e:
        err = {"error": e.as_dict()}
        sys.stderr.write(json.dumps(err, sort_keys=True, indent=2) + "\n")
        return e.exit_code
    finally:
        if argv is None:
            gc.freeze()
    return 0


if __name__ == "__main__":
    sys.exit(main())
