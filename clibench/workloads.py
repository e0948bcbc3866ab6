"""Seeded inputs for the benchmark's workloads.

Every workload is a list of `Command`s: a CLI argv, optional stdin text,
and what its checker needs to know. The seed only relabels the inputs
(a vertex permutation of each base graph, a similarity transform of each
point set, a random starting triangulation for Lawson), so every seed
asks for nearly the same work and the timings of different seeds are
comparable.

Inputs are built with networkx and plain Python, never with tokenslide.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import networkx as nx

import geom


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    check: tuple  # (checker name, keyword arguments) for checks.CHECKS
    stdin: str = ""


def graph6(g):
    """graph6 text of g, whose nodes are 0..n-1."""
    return nx.to_graph6_bytes(g, nodes=range(g.number_of_nodes()),
                              header=False).decode().strip()


def edge_list(g):
    return sorted((min(u, v), max(u, v)) for u, v in g.edges())


def relabeled(g, rng):
    """g under a random vertex permutation, with nodes 0..n-1."""
    perm = list(range(g.number_of_nodes()))
    rng.shuffle(perm)
    h = nx.Graph()
    h.add_nodes_from(range(len(perm)))
    h.add_edges_from((perm[u], perm[v]) for u, v in g.edges())
    return h, perm


def _build(name, g, k, fmt):
    argv = ["build", "--graph6", graph6(g)]
    argv += ["--all"] if k is None else ["--k", str(k)]
    if fmt == "dot":
        argv += ["--format", "dot"]
    return Command(name, tuple(argv),
                   ("build", {"edges": edge_list(g), "n": g.number_of_nodes(),
                              "k": k, "fmt": fmt}))


def build_workload(rng):
    # (name, base, k or None for --all, output format); TS_6(P_28) has
    # 100,947 nodes and 447,678 edges, the others 10^3..10^4 nodes
    plan = [
        ("build-P28-k6-dot", nx.path_graph(28), 6, "dot"),
        ("build-P24-k5-json", nx.path_graph(24), 5, "json"),
        ("build-C22-k4-json", nx.cycle_graph(22), 4, "json"),
        ("build-C20-all-json", nx.cycle_graph(20), None, "json"),
        ("build-P16-all-dot", nx.path_graph(16), None, "dot"),
    ]
    cmds = [_build(name, relabeled(g, rng)[0], k, fmt)
            for name, g, k, fmt in plan]
    # join of P_11 and C_11 along three vertices each: TS_4 has 3,099 nodes
    g1, p1 = relabeled(nx.path_graph(11), rng)
    g2, p2 = relabeled(nx.cycle_graph(11), rng)
    h1 = sorted(p1[v] for v in (0, 4, 8))
    h2 = sorted(p2[v] for v in (1, 5, 9))
    spec = {"g1": {"n": 11, "edges": [list(e) for e in edge_list(g1)],
                   "names": None},
            "g2": {"n": 11, "edges": [list(e) for e in edge_list(g2)],
                   "names": None},
            "h1": h1, "h2": h2, "k": 4}
    cmds.append(Command("decompose-P11-C11-k4", ("decompose", "--stdin"),
                        ("decompose", {"spec": spec}),
                        stdin=json.dumps(spec)))
    return cmds


def _analyze(name, g, k):
    argv = ["analyze", "--graph6", graph6(g)]
    argv += ["--ts-all"] if k is None else ["--ts", str(k)]
    return Command(name, tuple(argv),
                   ("analyze", {"edges": edge_list(g), "n": g.number_of_nodes(),
                                "k": k}))


def analyze_workload(rng):
    # non-planar slide graphs (Kuratowski witness), planar ones of several
    # hundred nodes (diameter, clique and colouring searches), and TS;
    # all stay below the ~1,000 nodes at which clique_number recurses too deep
    plan = [
        ("analyze-P12-ts3", nx.path_graph(12), 3),
        ("analyze-C12-ts3", nx.cycle_graph(12), 3),
        ("analyze-P40-ts2", nx.path_graph(40), 2),
        ("analyze-P36-ts2", nx.path_graph(36), 2),
        ("analyze-C10-ts-all", nx.cycle_graph(10), None),
    ]
    return [_analyze(name, relabeled(g, rng)[0], k) for name, g, k in plan]


def survey_workload(rng):
    star, _ = relabeled(nx.star_graph(4), rng)  # K_{1,4}
    return [
        Command("search-trees8", ("search", "trees8"),
                ("search", {"name": "trees8"})),
        Command("search-planar6", ("search", "planar6"),
                ("search", {"name": "planar6"})),
        Command("gen-connected7", ("gen", "--connected", "7"),
                ("gen_connected", {"n": 7})),
        Command("realize-search-K14", ("realize", "--search", graph6(star),
                                       "--k", "2", "--max-n", "7"),
                ("realize_none", {"edges": edge_list(star), "n": 5, "k": 2,
                                  "max_n": 7})),
    ]


# fixed 10-point sets in general position: convex position (1,430
# triangulations), hull of 3 (1,653) and hull of 6 (1,053)
POINT_SETS = {
    "convex": [(x, x * x) for x in range(10)],
    "hull3": [(1, 40), (4, 37), (36, 24), (8, 22), (9, 11), (1, 2), (15, 27),
              (2, 26), (18, 20), (24, 24)],
    "hull6": [(6, 10), (34, 39), (3, 27), (8, 23), (13, 23), (35, 21),
              (16, 20), (40, 32), (6, 29), (31, 25)],
}


def similar_copy(points, rng):
    """Points times a random Gaussian integer, then shifted.

    Multiplying by a + bi rotates and scales, which keeps every
    orientation and every circle, so triangulations and the Delaunay
    triangulation are those of the original. The point order is kept:
    it orders the crossing graph's vertices, and the work of enumerating
    its stable sets depends on that order (by up to 1.8 times).
    """
    a, b = 0, 0
    while a == 0 and b == 0:
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
    dx, dy = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
    return [(a * x - b * y + dx, b * x + a * y + dy) for x, y in points]


def geometry_workload(rng):
    cmds = []
    for name, base in POINT_SETS.items():
        pts = similar_copy(base, rng)
        text = json.dumps([list(p) for p in pts])
        cmds.append(Command(
            f"geom-{name}-all", ("geom", "--points", text, "--check",
                                 "--triangulations", "--flip-graph",
                                 "--delaunay", "--check-ts-iso"),
            ("geom_all", {"points": pts, "convex": name == "convex"})))
        start = geom.random_triangulation(pts, rng)
        cmds.append(Command(
            f"geom-{name}-lawson", ("geom", "--points", text, "--lawson",
                                    json.dumps([list(s) for s in start])),
            ("lawson", {"points": pts, "start": start})))
        cmds.append(Command(
            f"geom-{name}-lawson-delaunay",
            ("geom", "--points", text, "--lawson",
             json.dumps([list(s) for s in geom.delaunay(pts)])),
            ("lawson", {"points": pts, "start": geom.delaunay(pts)})))
    return cmds


WORKLOADS = {
    "build": build_workload,
    "analyze": analyze_workload,
    "survey": survey_workload,
    "geometry": geometry_workload,
}


def make_commands(workload, seed):
    """The workload's commands for this seed; equal seeds give equal inputs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))

