"""Output checks, written apart from the program.

Each check recomputes what the output must be from the definitions (with
plain Python, networkx and the benchmark's own geometry) or tests a
property the method must have. None compares against stored output.
A check raises CheckError with the reason when the output is wrong.
"""

from __future__ import annotations

import json
from collections import defaultdict
from itertools import combinations
from math import comb

import networkx as nx

import geom


class CheckError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# slide graphs from the definition


def stable_sets(n, edges, k=None):
    """Independent k-sets (all non-empty sizes, smallest first, for None),
    each a sorted tuple, in lexicographic order within a size."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    out = []
    for size in ([k] if k is not None else range(1, n + 1)):
        found = []
        for c in combinations(range(n), size):
            m = 0
            for v in c:
                m |= 1 << v
            if not any(nbr[v] & m for v in c):
                found.append(c)
        if not found:
            break
        out += found
    return out


def slide_edges(n, edges, sets):
    """Index pairs (i < j) of sets that differ by one token moving along
    one base edge."""
    index = {}
    for i, s in enumerate(sets):
        index[sum(1 << v for v in s)] = i
    nbr = [[] for _ in range(n)]
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    out = set()
    for m, i in index.items():
        for u in range(n):
            if not m >> u & 1:
                continue
            for v in nbr[u]:
                if m >> v & 1:
                    continue
                j = index.get(m ^ (1 << u) | (1 << v))
                if j is not None:
                    out.add((min(i, j), max(i, j)))
    return out


def label_text(members, n):
    """The CLI's set label: 1-based members, joined by '-' once n > 9."""
    return ("" if n <= 9 else "-").join(str(v + 1) for v in members)


def check_build(text, n, edges, k, fmt):
    sets = stable_sets(n, edges, k)
    expect = slide_edges(n, edges, sets)
    if fmt == "json":
        out = json.loads(text)
        require(out["kind"] == ("TS" if k is None else "TSk"),
                f"kind is {out['kind']}")
        require(out["base"]["n"] == n and
                sorted(map(tuple, out["base"]["edges"])) == edges,
                "base graph differs from the input")
        require([tuple(x) for x in out["nodes"]] == sets,
                f"{len(out['nodes'])} node labels, expected the {len(sets)} "
                "independent sets in sorted order")
        got = [tuple(e) for e in out["edges"]]
    else:
        lines = text.splitlines()
        require(lines[0] == "graph G {" and lines[-1] == "}", "not a DOT graph")
        labels, got = [], []
        for line in lines[1:-1]:
            if "--" in line:
                a, b = line.strip().rstrip(";").split(" -- ")
                got.append((int(a[1:]), int(b[1:])))
            else:
                i = len(labels)
                require(i < len(sets) and line == f'  n{i} [label="'
                        f'{label_text(sets[i], n)}"];',
                        f"node line {line!r} out of place")
                labels.append(line)
        require(len(labels) == len(sets),
                f"{len(labels)} nodes, expected {len(sets)}")
    require(len(got) == len(set(got)), "an edge is listed twice")
    require(set(got) == expect,
            f"{len(got)} edges, expected the {len(expect)} slide edges")


def check_decompose(text, spec):
    out = json.loads(text)
    n1, n2, k = spec["g1"]["n"], spec["g2"]["n"], spec["k"]
    n = n1 + n2
    edges = [tuple(e) for e in spec["g1"]["edges"]]
    edges += [(u + n1, v + n1) for u, v in spec["g2"]["edges"]]
    edges += [(u, v + n1) for u in spec["h1"] for v in spec["h2"]]
    sets = stable_sets(n, edges, k)
    slides = slide_edges(n, edges, sets)
    require(out["k"] == k and out["join_nodes"] == n, "k or join size wrong")
    require(out["full_nodes"] == len(sets),
            f"full_nodes {out['full_nodes']}, expected {len(sets)}")
    require(out["full_edges"] == len(slides),
            f"full_edges {out['full_edges']}, expected {len(slides)}")
    require([p["s"] for p in out["parts"]] == [k, 0] + list(range(1, k)),
            "parts are not ordered s = k, 0, 1..k-1")
    seen = []
    for part in out["parts"]:
        for lab in part["nodes"]:
            members = tuple(int(x) - 1 for x in lab.split("-"))
            require(sum(1 for v in members if v < n1) == part["s"],
                    f"node {lab} has the wrong share of G1 in part s="
                    f"{part['s']}")
            seen.append(members)
    require(len(seen) == len(set(seen)) and set(seen) == set(sets),
            "parts do not partition the independent k-sets")
    require(sum(p["edges"] for p in out["parts"]) + len(out["cross_edges"])
            == len(slides), "part edges plus cross edges miss slide edges")


# ---------------------------------------------------------------------------
# analyze


def minimal_nonplanar(h):
    if nx.check_planarity(h)[0]:
        return False
    for e in list(h.edges()):
        h.remove_edge(*e)
        planar = nx.check_planarity(h)[0]
        h.add_edge(*e)
        if not planar:
            return False
    return True


def check_analyze(text, n, edges, k):
    out = json.loads(text)
    sets = stable_sets(n, edges, k)
    g = nx.Graph()
    g.add_nodes_from(range(len(sets)))
    g.add_edges_from(slide_edges(n, edges, sets))
    require(out["nodes"] == g.number_of_nodes(), "node count wrong")
    require(out["edges"] == g.number_of_edges(), "edge count wrong")
    comps = nx.number_connected_components(g)
    require(out["component_count"] == comps, "component count wrong")
    require(out["connected"] == (comps == 1), "connectivity wrong")
    diam = nx.diameter(g) if comps == 1 else "infinite"
    require(out["diameter"] == diam, f"diameter {out['diameter']}, "
            f"expected {diam}")
    girth = nx.girth(g)
    require(out["girth"] == ("infinite" if girth == float("inf") else girth),
            f"girth {out['girth']}, expected {girth}")
    clique = max(len(c) for c in nx.find_cliques(g))
    require(out["clique"] == clique, f"clique {out['clique']}, "
            f"expected {clique}")
    colouring = nx.greedy_color(g, strategy="largest_first")
    require(all(colouring[u] != colouring[v] for u, v in g.edges()),
            "checker's own colouring is not proper")
    chi = out["chromatic"]
    if g.number_of_edges() == 0:
        require(chi == 1, "edgeless graph needs one colour")
    elif nx.is_bipartite(g):
        require(chi == 2, f"bipartite graph reported {chi} colours")
    else:
        require(max(clique, 3) <= chi <= max(colouring.values()) + 1,
                f"chromatic {chi} outside [{max(clique, 3)}, "
                f"{max(colouring.values()) + 1}]")
    planar = nx.check_planarity(g)[0]
    require(out["planar"] == planar, f"planar {out['planar']}, "
            f"expected {planar}")
    witness = out["planar_witness"]
    if planar:
        require(witness is None, "planar graph with a witness")
    else:
        require(witness is not None, "non-planar graph without a witness")
        w = nx.Graph([tuple(e) for e in witness])
        require(all(g.has_edge(u, v) for u, v in w.edges()),
                "witness uses a non-edge")
        require(minimal_nonplanar(w), "witness is not a minimal "
                "non-planar subgraph")
    require(out["eulerian"] == (g.number_of_nodes() == 0 or nx.is_eulerian(g)),
            "eulerian wrong")
    require(out["components_eulerian"] ==
            all(d % 2 == 0 for _, d in g.degree()),
            "components_eulerian wrong")


# ---------------------------------------------------------------------------
# survey


def pairwise_non_isomorphic(graphs):
    buckets = defaultdict(list)
    for g in graphs:
        key = (sorted(d for _, d in g.degree()),
               sorted(nx.triangles(g).values()))
        buckets[repr(key)].append(g)
    return all(not nx.is_isomorphic(a, b)
               for group in buckets.values()
               for a, b in combinations(group, 2))


def from_graph6(text):
    return nx.from_graph6_bytes(text.encode())


SEARCHES = {
    # name: (verdict count, vertex count, what each graph must be)
    "trees8": (23, 8, nx.is_tree),
    "planar6": (99, 6, lambda g: nx.is_connected(g) and
                nx.check_planarity(g)[0]),
}


def check_search(text, name):
    out = json.loads(text)
    count, order, kind = SEARCHES[name]
    verdicts = out["verdicts"]
    require(out["name"] == name, "wrong search name")
    require(len(verdicts) == count,
            f"{len(verdicts)} verdicts, expected {count}")
    graphs = []
    for v in verdicts:
        g = from_graph6(v["graph6"])
        require(g.number_of_nodes() == order and kind(g),
                f"{v['graph6']} is not a graph of the {name} family")
        graphs.append(g)
        n, edges = order, [tuple(e) for e in g.edges()]
        sets = stable_sets(n, edges)
        ts = nx.Graph()
        ts.add_nodes_from(range(len(sets)))
        ts.add_edges_from(slide_edges(n, edges, sets))
        require(v["ts_nodes"] == len(sets) and
                v["ts_edges"] == ts.number_of_edges(),
                f"slide-graph size of {v['graph6']} wrong")
        require(v["ts_planar"] == nx.check_planarity(ts)[0],
                f"planarity of TS({v['graph6']}) wrong")
    require(pairwise_non_isomorphic(graphs), "two verdicts are isomorphic")
    planar = sum(1 for v in verdicts if v["ts_planar"])
    require(out["summary"] == {"planar": planar, "nonplanar": count - planar},
            "summary does not tally the verdicts")


CONNECTED_GRAPHS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def check_gen_connected(text, n):
    graphs = [from_graph6(line) for line in text.split()]
    require(len(graphs) == CONNECTED_GRAPHS[n],
            f"{len(graphs)} graphs, expected {CONNECTED_GRAPHS[n]}")
    require(all(g.number_of_nodes() == n and nx.is_connected(g)
                for g in graphs), "a graph is not connected on n vertices")
    require(pairwise_non_isomorphic(graphs), "two graphs are isomorphic")


def check_realize_none(text, n, edges, k, max_n):
    out = json.loads(text)
    require(out == {"found": False, "max_n": max_n},
            f"expected no realizer, got {out}")
    target = nx.Graph(edges)
    for g in nx.graph_atlas_g():
        m = g.number_of_nodes()
        if not 1 <= m <= max_n:
            continue
        g_edges = list(g.edges())
        sets = stable_sets(m, g_edges, k)
        if len(sets) != n:
            continue
        ts = nx.Graph()
        ts.add_nodes_from(range(n))
        ts.add_edges_from(slide_edges(m, g_edges, sets))
        require(not nx.is_isomorphic(ts, target),
                f"atlas graph with edges {g_edges} realizes the target")


# ---------------------------------------------------------------------------
# geometry


def _faces(segs, pts):
    present = set(segs)
    for a, b, c in combinations(range(len(pts)), 3):
        if {(a, b), (a, c), (b, c)} <= present and not any(
                geom.orient(pts[a], pts[b], pts[d]) ==
                geom.orient(pts[b], pts[c], pts[d]) ==
                geom.orient(pts[c], pts[a], pts[d])
                for d in range(len(pts)) if d not in (a, b, c)):
            yield a, b, c


def check_geom_all(text, points, convex):
    out = json.loads(text)
    pts = [tuple(p) for p in points]
    n = len(pts)
    size = 3 * n - 3 - geom.hull_size(pts)
    require(geom.general_position(pts), "benchmark input not in general "
            "position")
    require(out["general_position"] == {"ok": True, "collinear": None,
                                        "cocircular": None},
            "general-position verdict wrong")

    tris = [frozenset(tuple(s) for s in t) for t in out["triangulations"]]
    for t in tris:
        require(len(t) == size, f"a triangulation has {len(t)} segments, "
                f"expected {size}")
        require(not any(geom.cross(pts, s, u) for s, u in combinations(t, 2)),
                "a triangulation has crossing segments")
    require(len(set(tris)) == len(tris), "a triangulation is listed twice")
    own = geom.triangulations(pts)
    require(set(tris) == own, f"{len(tris)} triangulations, expected "
            f"{len(own)}")
    if convex:
        require(len(tris) == comb(2 * (n - 2), n - 2) // (n - 1),
                "convex position needs Catalan(n-2) triangulations")

    fg = out["flip_graph"]
    # segment names as the CLI writes them: "ij" 1-based, "i-j" once n > 9
    crossing = [tuple(int(x) - 1 for x in (name.split("-") if n > 9 else name))
                for name in fg["base"]["names"]]
    fixed = frozenset(geom.segments(n)) - set(crossing)
    nodes = [fixed | {crossing[i] for i in node} for node in fg["nodes"]]
    require(len(nodes) == len(own) and set(nodes) == own,
            "flip-graph nodes are not the triangulations")
    flips = set()
    for i, j in fg["edges"]:
        require(len(nodes[i] ^ nodes[j]) == 2,
                "a flip-graph edge does not swap exactly one segment")
        flips.add((min(i, j), max(i, j)))
    by_rest = defaultdict(list)
    for t in own:
        for s in t:
            by_rest[t - {s}].append(t)
    expect = sum(len(v) * (len(v) - 1) // 2 for v in by_rest.values())
    require(len(flips) == len(fg["edges"]) == expect,
            f"{len(fg['edges'])} flip edges, expected {expect}")

    dt = sorted(tuple(s) for s in out["delaunay"])
    require(dt == geom.delaunay(pts), "Delaunay triangulation differs")
    require(all(geom.in_circle(pts[a], pts[b], pts[c], pts[d]) <= 0
                for a, b, c in _faces(dt, pts)
                for d in range(n) if d not in (a, b, c)),
            "Delaunay triangulation fails the empty-circle test")

    require(out["ts_iso"] == {"isomorphic": True, "alpha": size - len(fixed),
                              "triangulations": len(own)},
            f"ts_iso wrong: {out['ts_iso']}")


def check_lawson(text, points, start):
    flips = json.loads(text)["lawson_flips"]
    pts = [tuple(p) for p in points]
    missing = len(set(map(tuple, start)) - set(geom.delaunay(pts)))
    # each flip swaps one segment, and Lawson never brings a flipped-out
    # segment back, so it needs at least `missing` and at most C(n, 2)
    require(missing <= flips <= comb(len(pts), 2),
            f"{flips} Lawson flips, expected {missing}..{comb(len(pts), 2)}")
    if missing == 0:
        require(flips == 0, "Lawson from the Delaunay triangulation flipped")


CHECKS = {
    "build": check_build,
    "decompose": check_decompose,
    "analyze": check_analyze,
    "search": check_search,
    "gen_connected": check_gen_connected,
    "realize_none": check_realize_none,
    "geom_all": check_geom_all,
    "lawson": check_lawson,
}


def check(command, text):
    """Raise CheckError unless text is a correct output of command."""
    name, kwargs = command.check
    CHECKS[name](text, **kwargs)
