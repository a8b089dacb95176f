"""Command-line surface for the whole pipeline.

Commands: analyze, mirror-map, invariants, syz, oracle.  Output is canonical
JSON (sorted keys, stable term order) or a plain-text report; identical inputs
produce byte-identical output.  Exit codes: 0 success, 2 validation error,
3 mathematical-consistency failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

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
    except (json.JSONDecodeError, RecursionError) as e:
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


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a ValidationError (exit 2, reported on
    stderr as JSON like every other), not argparse's usage text."""

    def error(self, message):
        raise ValidationError(MODULE, "argv", message)


def build_parser():
    p = _Parser(
        prog="orbidisk",
        description="disk potentials, mirror maps and Landau-Ginzburg mirrors "
                    "of toric Calabi-Yau orbifolds")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, disk=False, bar=False, order=True, gauge=False):
        sp.add_argument("fan", help="fan file path or bundled fan name")
        if bar:
            sp.add_argument("--bar", required=True,
                            help="compactified fan file")
        if disk:
            sp.add_argument("--disk", required=True,
                            help="disk class selector, ray:<i> or box:<j>")
        if order:
            sp.add_argument("--order", default="4",
                            help="grade bound for all series (rational)")
        if gauge:
            sp.add_argument("--gauge", type=index, default=0,
                            help="index of the gauge cone (default first)")
        sp.add_argument("--format", choices=("json", "text"), default="text")
        sp.add_argument("--output", default=None, help="path (default stdout)")

    common(sub.add_parser("analyze", help="validate a fan and report its "
                                          "derived lattice data"), order=False)
    common(sub.add_parser("mirror-map", help="forward and inverse mirror map"))
    common(sub.add_parser("invariants", help="disk potential and invariant "
                                             "table"), disk=True)
    common(sub.add_parser("syz", help="corrected mirror potential and "
                                      "Landau-Ginzburg document"), gauge=True)
    common(sub.add_parser("oracle", help="compare the potential against its "
                                         "compactified derivation"),
           disk=True, bar=True)
    return p


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
        witnesses = fan.verify_semi_fano(data)
        report["semi_fano"] = {
            "holds": True,
            "witnesses": {",".join(map(str, c)): [frac_str(x) for x in lam]
                          for c, lam in witnesses.items()},
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
    if path is None:
        sys.stdout.write(text)
        return
    import tempfile
    d = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".orbidisk-")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise ValidationError(MODULE, "write",
                              f"cannot write output {path}: {e.strerror or e}",
                              path)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
