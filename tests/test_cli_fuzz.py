"""Random command lines over the bundled fans.

Each argv is a command, a bundled fan (or a missing one), and a draw of the
options: disk selectors with indices out of range, wrong kinds and
non-integers, any pair of bundled fans as --bar, small and negative --gauge
values, and --order strings that are small rationals or malformed.  An option
the command does not take is sometimes added and a required one sometimes
left out.  Whatever the argv, the command exits 0, 2 or 3, writes nothing to
stderr on success, and otherwise writes one structured JSON error, never a
traceback.
"""
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from orbidisk import fans
from orbidisk.cli import main

# the options each command takes, besides --format
OPTIONS = {
    "analyze": (),
    "mirror-map": ("--order",),
    "invariants": ("--disk", "--order"),
    "syz": ("--order", "--gauge"),
    "oracle": ("--bar", "--disk", "--order"),
}
ORDERS = ["1", "2", "3", "1/2", "1/3", "2/3", "4/3", "5/2", "abc", "1/0", "0",
          "-2", "", "1/" + "9" * 4400]
DISKS = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["ray", "box", "cone", ""]),
              st.integers(-2, 7)),
    st.sampled_from(["ray:1.5", "box:x", "ray:", "ray", ":0", "box:3:1",
                     "ray: 1", "", "box:1/2"]))
# the bundled oracle pairs and the disk each compactifies
PAIRS = [("c3", "c3_bar", "ray:2"), ("kp2", "kp2_bar", "ray:0"),
         ("c3z3", "c3z3_bar", "box:3")]


def either(value, strategy):
    return st.one_of(st.just(value), strategy)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    # each of fan, --bar and --disk is a bundled pair's half the time, and
    # --gauge the first cone
    fan, bar, disk = draw(st.sampled_from(PAIRS))
    values = {"--bar": either(bar, st.sampled_from(fans.NAMES)),
              "--disk": either(disk, DISKS),
              "--order": st.sampled_from(ORDERS),
              "--gauge": either("0", st.integers(-3, 12).map(str))}
    argv = [command, draw(either(fan, st.sampled_from(fans.NAMES
                                                      + ("nosuchfan",))))]
    for option, value in values.items():
        # mostly the options the command takes; one in twenty flips that
        if (option in OPTIONS[command]) != (draw(st.integers(0, 19)) == 0):
            argv += [option, draw(value)]
    return argv + ["--format", draw(st.sampled_from(["json", "text"]))]


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs())
def test_argv_runs_or_is_refused(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), argv
    if code == 0:
        assert err == "" and out, argv
    else:
        assert out == "" and "Traceback" not in err, argv
        assert set(json.loads(err)) == {"error"}, argv
