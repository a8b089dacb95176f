"""cli.parse_argv against argparse, its test-only reference.

`reference()` is the argparse parser the CLI used before the table in
cli.SPEC replaced it (importing argparse and building the parser took 3.5
ms of each run's CPU on a 2-vCPU VM).  Three corpora go through both
parsers: the command lines of test_cli_fuzz, random tokens over every
option spelling, and an edge list.  Each outcome must be the same: equal
parsed values, the same refusal message, or help printed for the same
command and exit 0.

One deliberate difference: argparse drops a `--` given as an option's value
(`--output=--`) and stores an empty list, on which the commands crashed
with a traceback; the reference here keeps the string "--", as parse_argv
does, so `--gauge=--` and `--format=--` are refused and the rest are read
as any other value.
"""
import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from orbidisk.cli import SPEC, parse_argv
from orbidisk.errors import ValidationError, index
from test_cli_fuzz import argvs


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError("cli", "argv", message)

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def reference():
    """The parser of the CLI before parse_argv, as it was built."""
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


REFERENCE = reference()


def outcome(parse, argv):
    """('parsed', values), ('refused', message) or ('help', command or
    None, exit code)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            values = vars(parse(list(argv)))
    except SystemExit as e:
        usage = out.getvalue().split()
        assert usage[:2] == ["usage:", "orbidisk"]
        return "help", usage[2] if usage[2] in SPEC else None, e.code
    except ValidationError as e:
        assert (e.module, e.operation) == ("cli", "argv")
        return "refused", str(e)
    return "parsed", values


def same(argv):
    want = outcome(REFERENCE.parse_args, argv)
    assert outcome(parse_argv, argv) == want, argv
    return want


# every spelling of every option: full, each prefix (unique or not), with
# the value attached by '='
LONG = sorted({o for _, options in SPEC.values() for o in options}
              | {"--help"})
SPELLINGS = sorted({o[:k] for o in LONG for k in range(3, len(o) + 1)})
VALUES = ["4", "1/2", "json", "text", "xml", "0", "7", "-0", "ray:0",
          "kp2_bar", "", "x y", "-1", "-1/2", "-1.5", "-x", "--", "-", "h"]
TOKENS = st.one_of(
    st.sampled_from(SPELLINGS),
    st.builds("{}={}".format, st.sampled_from(SPELLINGS + ["-h", "--"]),
              st.sampled_from(VALUES)),
    st.sampled_from(VALUES + sorted(SPEC) + [
        "kp2", "c3", "nosuchcmd", "-h", "-hh", "-hx", "-hxh", "-h x", "--h",
        "--help", "--bogus", "---", "-- x", "--1", "-.5", "-1\n", "-٣"]))


@st.composite
def token_lines(draw):
    """Tokens before the command, the command (mostly a real one), the
    fan (mostly present) and tokens after it."""
    before = draw(st.lists(TOKENS, max_size=2)) if draw(st.integers(0, 4)) \
        == 0 else []
    command = draw(st.one_of(st.sampled_from(sorted(SPEC)), TOKENS))
    fan = draw(st.sampled_from([["kp2"], ["c3"], []]))
    return before + [command] + fan + draw(st.lists(TOKENS, max_size=6))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(argvs())
def test_fuzz_command_lines_parse_alike(argv):
    same(argv)


@settings(max_examples=700, derandomize=True, deadline=None)
@given(token_lines())
def test_random_tokens_parse_alike(argv):
    same(argv)


EDGES = [
    # (argv, the outcome: a parsed value, a refusal message or help)
    ("mirror-map kp2 --order 4", {"order": "4"}),
    ("mirror-map kp2 --order=1/2", {"order": "1/2"}),
    ("mirror-map kp2 --ord 3", {"order": "3"}),
    ("mirror-map kp2 --ord=3", {"order": "3"}),
    ("mirror-map kp2 --order -1", {"order": "-1"}),
    ("mirror-map kp2 --order=-1/2", {"order": "-1/2"}),
    ("mirror-map kp2 --order=", {"order": ""}),
    ("mirror-map kp2 --order=--", {"order": "--"}),
    ("mirror-map kp2 --output=--", {"output": "--"}),
    ("mirror-map kp2 --order=a=b", {"order": "a=b"}),
    ("mirror-map kp2 --order 2 --order 3", {"order": "3"}),
    ("mirror-map -- kp2", {"fan": "kp2"}),
    ("mirror-map kp2 --", {"fan": "kp2"}),
    ("mirror-map --order 2 -- -kp2", {"fan": "-kp2"}),
    ("mirror-map -- --", {"fan": "--"}),
    ("mirror-map -", {"fan": "-"}),
    ("mirror-map -1", {"fan": "-1"}),
    ("analyze kp2 --o x", {"output": "x"}),
    ("syz kp2 --gauge 3 --g 2", {"gauge": 2}),
    ("syz kp2 --format json", {"format": "json"}),
    ("oracle kp2 --disk ray:0 --bar kp2_bar", {"bar": "kp2_bar"}),
    ("invariants kp2 --order 2",
     "the following arguments are required: --disk"),
    ("oracle --order 2", "the following arguments are required: fan, --bar, "
                         "--disk"),
    ("", "the following arguments are required: command"),
    ("--", "the following arguments are required: command"),
    ("-x", "the following arguments are required: command"),
    ("-- mirror-map kp2", "argument command: invalid choice: '--' (choose "
     "from 'analyze', 'mirror-map', 'invariants', 'syz', 'oracle')"),
    ("nosuchcmd -h", "argument command: invalid choice: 'nosuchcmd' (choose "
     "from 'analyze', 'mirror-map', 'invariants', 'syz', 'oracle')"),
    ("--order 4 mirror-map kp2", "argument command: invalid choice: '4' "
     "(choose from 'analyze', 'mirror-map', 'invariants', 'syz', 'oracle')"),
    ("analyze kp2 --format xml",
     "argument --format: invalid choice: 'xml' (choose from 'json', 'text')"),
    ("analyze kp2 --format=--",
     "argument --format: invalid choice: '--' (choose from 'json', 'text')"),
    ("syz kp2 --gauge -0", "argument --gauge: invalid index value: '-0'"),
    ("syz kp2 --gauge=--", "argument --gauge: invalid index value: '--'"),
    ("mirror-map kp2 --bogus", "unrecognized arguments: --bogus"),
    ("--bogus mirror-map kp2 x -- y",
     "unrecognized arguments: --bogus x -- y"),
    ("mirror-map kp2 --order 2 -- x", "unrecognized arguments: -- x"),
    ("invariants kp2 --disk ray:0 --", "unrecognized arguments: --"),
    ("mirror-map kp2 -1/2", "unrecognized arguments: -1/2"),
    ("mirror-map kp2 --o 3", "ambiguous option: --o could match --order, "
                             "--output"),
    ("mirror-map -h kp2 --o=3", "ambiguous option: --o=3 could match "
                                "--order, --output"),
    ("analyze kp2 --=x", "ambiguous option: --=x could match --help, "
                         "--format, --output"),
    ("mirror-map kp2 --order", "argument --order: expected one argument"),
    ("mirror-map kp2 --order --format json",
     "argument --order: expected one argument"),
    ("mirror-map kp2 --order -1/2", "argument --order: expected one argument"),
    ("mirror-map kp2 --order -- 2", "argument --order: expected one argument"),
    ("mirror-map kp2 --order -x -h",
     "argument --order: expected one argument"),
    ("mirror-map --format xml -h",
     "argument --format: invalid choice: 'xml' (choose from 'json', 'text')"),
    ("mirror-map kp2 -hx",
     "argument -h/--help: ignored explicit argument 'x'"),
    ("mirror-map kp2 --help=", "argument -h/--help: ignored explicit "
                               "argument ''"),
    ("-hxh mirror-map", "argument -h/--help: ignored explicit argument 'xh'"),
    ("-h", ("help", None)),
    ("--he nosuchcmd", ("help", None)),
    ("--bogus -hh", ("help", None)),
    ("-h=h", ("help", None)),
    ("mirror-map -h", ("help", "mirror-map")),
    ("oracle --bogus --he", ("help", "oracle")),
    ("syz kp2 --order 2 --gauge x -h",
     "argument --gauge: invalid index value: 'x'"),
    ("syz kp2 -h --gauge x", ("help", "syz")),
    ("syz kp2 --bogus -hhh", ("help", "syz")),
    ("syz kp2 -- -h", "unrecognized arguments: -h"),
]


@pytest.mark.parametrize("argv, want", EDGES, ids=[e[0] for e in EDGES])
def test_edge_cases(argv, want):
    got = same(argv.split())
    if isinstance(want, dict):
        assert got[0] == "parsed" and want.items() <= got[1].items()
    elif isinstance(want, str):
        assert got == ("refused", f"[cli/argv] {want}")
    else:
        assert got == (*want, 0)
