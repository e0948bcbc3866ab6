"""Each output check accepts the program's output and rejects a corrupted
copy of it. Run from the root of a source checkout:

    python3 -m pytest -q clibench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import networkx as nx
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tokenslide.cli import main  # noqa: E402


def output(command):
    buf = io.StringIO()
    sys.stdin = io.StringIO(command.stdin)
    try:
        with contextlib.redirect_stdout(buf):
            assert main(list(command.argv)) == 0
    finally:
        sys.stdin = sys.__stdin__
    return buf.getvalue()


def rejects(command, text):
    with pytest.raises(checks.CheckError):
        checks.check(command, text)


def base(g, seed=3):
    return workloads.relabeled(g, random.Random(seed))[0]


@pytest.mark.parametrize("k", [3, None])
def test_build_json_dropped_edge(k):
    cmd = workloads._build("b", base(nx.cycle_graph(9)), k, "json")
    text = output(cmd)
    checks.check(cmd, text)
    out = json.loads(text)
    out["edges"].pop(len(out["edges"]) // 2)
    rejects(cmd, json.dumps(out))


def test_build_dot_dropped_edge():
    cmd = workloads._build("b", base(nx.path_graph(12)), 4, "dot")
    text = output(cmd)
    checks.check(cmd, text)
    lines = text.splitlines(keepends=True)
    edge = next(i for i, line in enumerate(lines) if " -- " in line)
    rejects(cmd, "".join(lines[:edge] + lines[edge + 1:]))


def test_build_json_wrong_label():
    cmd = workloads._build("b", base(nx.path_graph(10)), 3, "json")
    out = json.loads(output(cmd))
    out["nodes"][0], out["nodes"][1] = out["nodes"][1], out["nodes"][0]
    rejects(cmd, json.dumps(out))


def test_decompose_dropped_node():
    cmd = workloads.build_workload(random.Random(1))[-1]
    text = output(cmd)
    checks.check(cmd, text)
    out = json.loads(text)
    out["parts"][2]["nodes"].pop()
    rejects(cmd, json.dumps(out))


@pytest.fixture(scope="module")
def analyzed():
    cmds = {k: workloads._analyze(f"a{k}", base(nx.path_graph(n)), k)
            for n, k in ((12, 3), (16, 2))}
    return {k: (cmd, json.loads(output(cmd))) for k, cmd in cmds.items()}


@pytest.mark.parametrize("k", [2, 3])
def test_analyze_accepts(analyzed, k):
    cmd, out = analyzed[k]
    checks.check(cmd, json.dumps(out))


@pytest.mark.parametrize("field,value", [
    ("diameter", lambda d: d + 1),
    ("girth", lambda g: g + 2),
    ("clique", lambda c: c + 1),
    ("chromatic", lambda c: 1),
])
def test_analyze_wrong_number(analyzed, field, value):
    cmd, out = analyzed[2]
    rejects(cmd, json.dumps({**out, field: value(out[field])}))


@pytest.mark.parametrize("k", [2, 3])
def test_analyze_flipped_planarity(analyzed, k):
    cmd, out = analyzed[k]
    rejects(cmd, json.dumps({**out, "planar": not out["planar"]}))


def test_analyze_witness_not_kuratowski(analyzed):
    cmd, out = analyzed[3]
    assert out["planar_witness"] is not None
    rejects(cmd, json.dumps({**out, "planar_witness":
                             out["planar_witness"][:-1]}))


def test_search_flipped_planarity():
    cmd = workloads.survey_workload(random.Random(1))[0]
    text = output(cmd)
    checks.check(cmd, text)
    out = json.loads(text)
    v = out["verdicts"][0]
    v["ts_planar"] = not v["ts_planar"]
    rejects(cmd, json.dumps(out))


def test_gen_connected_duplicate():
    cmd = workloads.Command("g", ("gen", "--connected", "5"),
                            ("gen_connected", {"n": 5}))
    lines = output(cmd).splitlines()
    checks.check(cmd, "\n".join(lines))
    rejects(cmd, "\n".join(lines[:-1] + lines[:1]))


def geom_command(points):
    text = json.dumps([list(p) for p in points])
    return workloads.Command(
        "geo", ("geom", "--points", text, "--check", "--triangulations",
                "--flip-graph", "--delaunay", "--check-ts-iso"),
        ("geom_all", {"points": points, "convex": True}))


def test_geometry_missing_triangulation():
    pts = workloads.similar_copy([(x, x * x) for x in range(7)],
                                 random.Random(5))
    cmd = geom_command(pts)
    out = json.loads(output(cmd))
    assert len(out["triangulations"]) == 42
    checks.check(cmd, json.dumps(out))
    rejects(cmd, json.dumps({**out, "triangulations":
                             out["triangulations"][1:]}))
    fg = out["flip_graph"]
    rejects(cmd, json.dumps({**out, "flip_graph": {**fg, "edges":
                                                   fg["edges"][1:]}}))
    rejects(cmd, json.dumps({**out, "delaunay": out["delaunay"][1:]}))


def test_lawson_bounds():
    pts = workloads.similar_copy(workloads.POINT_SETS["hull6"],
                                 random.Random(2))
    start = checks.geom.random_triangulation(pts, random.Random(4))
    cmd = workloads.Command(
        "l", ("geom", "--points", json.dumps([list(p) for p in pts]),
              "--lawson", json.dumps([list(s) for s in start])),
        ("lawson", {"points": pts, "start": start}))
    flips = json.loads(output(cmd))["lawson_flips"]
    checks.check(cmd, json.dumps({"lawson_flips": flips}))
    rejects(cmd, json.dumps({"lawson_flips": 100}))


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.make_commands(name, 7)
        assert a == workloads.make_commands(name, 7)
        assert [c.name for c in a] == [c.name for c in
                                       workloads.make_commands(name, 8)]


def test_covered():
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.covered([]) == 0
