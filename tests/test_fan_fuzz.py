"""Random small fan documents through the command line.

Each document is a rank 2-4 fan with at most six rays, entries in [-3, 3],
random cones and sometimes one extra vector; most are refused while they are
parsed or while their lattice data is derived, the rest run.  Whatever the
document, a command exits 0, 2 or 3, and a refusal writes one structured JSON
error to stderr, never a traceback.
"""
import json
from math import gcd

from hypothesis import HealthCheck, given, settings, strategies as st

from orbidisk.cli import main

COMMANDS = [
    ["analyze"],
    ["invariants", "--disk", "ray:0", "--order", "2"],
    ["syz", "--order", "2"],
]


def primitive(v):
    g = gcd(*v)
    return [x // g for x in v]


@st.composite
def fan_documents(draw):
    rank = draw(st.integers(2, 4))
    vector = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    ray = vector.filter(any).map(primitive)
    unit = [[int(i == j) for i in range(rank)] for j in range(rank)]
    if draw(st.booleans()):
        # rays at height 1, as in a Calabi-Yau fan
        ray = vector.map(lambda v: v[:-1] + [1])
        unit = [[*u[:-1], 1] for u in unit]
    rays = draw(st.lists(ray, min_size=1, max_size=6, unique_by=tuple))
    cones = []
    if draw(st.booleans()):
        # a unimodular cone first: more documents get past the lattice checks
        rays = (unit + [r for r in rays if r not in unit])[:6]
        cones = [list(range(rank))]
    m = len(rays)
    cone = st.integers(1, min(rank, m)).flatmap(
        lambda k: st.lists(st.integers(0, m - 1), min_size=k, max_size=k,
                           unique=True))
    cones += draw(st.lists(cone, min_size=1, max_size=5))
    doc = {"rank": rank, "rays": rays, "cones": cones}
    if draw(st.booleans()):
        doc["extra_vectors"] = [draw(vector)]
    return doc


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fan_documents())
def test_fan_documents_run_or_are_refused(tmp_path, capsys, doc):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        argv = [command[0], str(path), *command[1:]]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (argv, doc)
        if code:
            assert out == ""
            error = json.loads(err)["error"]
            assert {"module", "operation", "message"} <= set(error)
        else:
            assert err == "" and out
