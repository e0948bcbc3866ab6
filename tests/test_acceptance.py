"""Acceptance suite: twelve end-to-end checks with stated time limits.

Each test prints one line, "ACCEPTANCE <n>: PASS|FAIL - <detail>", and
collects every sub-failure before asserting so a red run names all the
offending cases at once.
"""

import random
import time
from itertools import combinations

from tokenslide import (
    INFINITE,
    JoinSpec,
    NoneUpTo,
    Realization,
    alpha,
    build_Lk,
    build_TS,
    build_TSk,
    check_disconnection,
    chromatic_number,
    complement,
    complete,
    components_eulerian,
    cycle,
    decompose_join,
    delaunay,
    edge_intersection_graph,
    enumerate_connected_graphs,
    enumerate_graphs,
    flip_graph,
    girth,
    is_connected,
    is_eulerian,
    is_isomorphic,
    is_planar,
    lawson_distance,
    make_graph,
    path,
    realize_complete,
    realize_cycle,
    realize_path,
    realize_split,
    realize_star,
    run_search,
    search_realizer,
    split_realizable,
    star,
    triangulations,
)
from tokenslide.graph import members

from conftest import diamond, kite, paw, random_eulerian_graph, random_graph
from test_reconf_build import REF_TS3_P8_NODES, triple


def report(num, failures, limit, elapsed, detail=""):
    ok = not failures and elapsed < limit
    tail = detail or (f"{len(failures)} sub-failures: {failures[:6]}"
                      if failures else "")
    if elapsed >= limit:
        tail = f"{tail} [time {elapsed:.1f}s over {limit}s limit]".strip()
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - "
          f"{tail or 'ok'} ({elapsed:.2f}s)")
    assert not failures, failures[:10]
    assert elapsed < limit, f"took {elapsed:.1f}s, limit {limit}s"


def test_acceptance_01_figure_replica():
    start = time.monotonic()
    failures = []
    ts = build_TSk(path(8), 3)
    if ts.num_nodes() != 20:
        failures.append(f"nodes {ts.num_nodes()}")
    if ts.num_edges() != 30:
        failures.append(f"edges {ts.num_edges()}")
    got = sorted(frozenset(members(m)) for m in ts.label_masks())
    want = sorted(triple(s) for s in REF_TS3_P8_NODES)
    if got != want:
        failures.append("label multiset differs")
    if not is_connected(ts):
        failures.append("not connected")
    if not is_planar(ts)[0]:
        failures.append("not planar")
    report(1, failures, 1.0, time.monotonic() - start,
           detail="" if failures else "20 nodes, 30 edges, connected, planar")


def test_acceptance_02_path_slide_planarity():
    start = time.monotonic()
    failures = []
    for n in range(1, 11):
        planar, _ = is_planar(build_TSk(path(n), 3))
        if planar != (n <= 8):
            failures.append(f"TS_3(P_{n}) planar={planar}")
    for n in range(3, 13):
        planar, _ = is_planar(build_TSk(path(n), 2))
        if not planar:
            failures.append(f"TS_2(P_{n}) non-planar")
    report(2, failures, 10.0, time.monotonic() - start,
           detail="" if failures else
           "TS_3 planar iff n <= 8; TS_2 planar through n = 12")


def test_acceptance_03_tree_searches():
    start = time.monotonic()
    failures = []
    r7 = run_search("trees7")
    if r7.summary != {"planar": 11, "nonplanar": 0}:
        failures.append(f"trees7 {r7.summary}")
    r8 = run_search("trees8")
    if r8.summary != {"planar": 16, "nonplanar": 7}:
        failures.append(f"trees8 {r8.summary}")
    report(3, failures, 60.0, time.monotonic() - start,
           detail="" if failures else "trees7 11/11 planar; trees8 7/23 "
           "non-planar")


def test_acceptance_04_cycle_and_planar6():
    start = time.monotonic()
    failures = []
    for n in range(3, 9):
        planar, _ = is_planar(build_TS(cycle(n)))
        if planar != (n <= 6):
            failures.append(f"TS(C_{n}) planar={planar}")
    members = [g for g in enumerate_connected_graphs(6) if is_planar(g)[0]]
    if len(members) != 99:
        failures.append(f"{len(members)} planar connected 6-vertex graphs")
    r = run_search("planar6")
    if r.summary != {"planar": 99, "nonplanar": 0}:
        failures.append(f"planar6 {r.summary}")
    report(4, failures, 120.0, time.monotonic() - start,
           detail="" if failures else
           "TS(C_n) planar iff n <= 6; planar6 99/99")


def test_acceptance_05_chromatic_preserved():
    start = time.monotonic()
    failures = []
    count = 0
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            count += 1
            a, b = chromatic_number(g), chromatic_number(build_TS(g))
            if a != b:
                failures.append(f"n={n} chi(G)={a} chi(TS)={b}")
    report(5, failures, 30.0, time.monotonic() - start,
           detail="" if failures else
           f"chi preserved on all {count} connected graphs up to 5 vertices")


def test_acceptance_06_eulerian():
    start = time.monotonic()
    failures = []
    for n in range(3, 10):
        for k in range(1, (n + 1) // 2):
            if 2 * k >= n:
                continue
            if not is_eulerian(build_TSk(cycle(n), k)):
                failures.append(f"TS_{k}(C_{n}) not Eulerian")
    rng = random.Random(0xE0E0)
    for _ in range(25):
        g = random_eulerian_graph(rng, rng.randint(4, 7))
        if not components_eulerian(build_TSk(g, 2)):
            failures.append(f"components not Eulerian: {sorted(g.edges())}")
    two_cycle = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                               (0, 5), (5, 6), (6, 0)])
    ts = build_TSk(two_cycle, 3)
    idx = ts.label_masks().index(1 << 1 | 1 << 4 | 1 << 5)
    if ts.degree(idx) != 3:
        failures.append(f"witness degree {ts.degree(idx)}")
    if is_eulerian(ts):
        failures.append("two-cycle TS_3 unexpectedly Eulerian")
    report(6, failures, 30.0, time.monotonic() - start,
           detail="" if failures else "cycle slide graphs Eulerian; 25 "
           "random hosts OK; two-cycle witness has degree 3")


def test_acceptance_07_girth():
    start = time.monotonic()
    failures = []
    for k in range(1, 5):
        for n in range(1, 11):
            got = girth(build_TSk(path(n), k))
            want = 4 if n >= 2 * k + 1 else INFINITE
            if got != want:
                failures.append(f"girth(TS_{k}(P_{n}))={got} want {want}")
    for n in range(3, 10):
        for k in range(1, n):
            if not 1 <= k < n / 2:
                continue
            got = girth(build_TSk(cycle(n), k))
            if got != n:
                failures.append(f"girth(TS_{k}(C_{n}))={got} want {n}")
    for n in (4, 6, 8):
        ts = build_TSk(cycle(n), n // 2)
        if ts.num_nodes() != 2 or ts.num_edges() != 0:
            failures.append(
                f"TS_{n // 2}(C_{n}) is {ts.num_nodes()}n/{ts.num_edges()}e")
    report(7, failures, 30.0, time.monotonic() - start)


def test_acceptance_08_clique_graph_correspondence():
    start = time.monotonic()
    failures = []
    graphs = enumerate_graphs(6)
    if len(graphs) != 156:
        failures.append(f"{len(graphs)} graphs enumerated")
    for g in graphs:
        for k in (2, 3):
            ts = build_TSk(complement(g), k)
            lk = build_Lk(g, k)
            ts_nodes = ts.label_masks()
            lk_nodes = lk.label_masks()
            if sorted(ts_nodes) != sorted(lk_nodes):
                failures.append(f"node mismatch k={k} {sorted(g.edges())}")
                continue
            ts_e = {frozenset((ts_nodes[a], ts_nodes[b]))
                    for a, b in ts.edges()}
            lk_e = {frozenset((lk_nodes[a], lk_nodes[b]))
                    for a, b in lk.edges()}
            has_kp1 = any(all(g.has_edge(u, v) for u, v in combinations(c, 2))
                          for c in combinations(range(g.n), k + 1))
            if not ts_e <= lk_e:
                failures.append(f"not a subgraph k={k} {sorted(g.edges())}")
            if (ts_e == lk_e) != (not has_kp1):
                failures.append(f"equality mismatch k={k} "
                                f"{sorted(g.edges())}")
    report(8, failures, 60.0, time.monotonic() - start,
           detail="" if failures else
           "slide graphs of complements match clique graphs on all 156")


def test_acceptance_09_construction_formulas():
    start = time.monotonic()
    failures = []

    def expect(r, target, nv, ne, tag):
        if not isinstance(r, Realization):
            failures.append(f"{tag}: no realization")
            return
        if r.base.n != nv or r.base.num_edges() != ne:
            failures.append(
                f"{tag}: base {r.base.n}v/{r.base.num_edges()}e, "
                f"want {nv}v/{ne}e")
        if not is_isomorphic(build_TSk(r.base, r.k), target):
            failures.append(f"{tag}: slide graph not isomorphic")

    for k in range(2, 6):
        for n in range(2, 9):
            expect(realize_complete(n, k), complete(n),
                   n + k - 1, n * (n - 1) // 2, f"complete({n},{k})")
        for n in range(1, 9):
            expect(realize_path(n, k), path(n),
                   n + k - 1, n * (n - 1) // 2, f"path({n},{k})")
        expect(realize_cycle(3, k), cycle(3), k + 2, 3, f"cycle(3,{k})")
        for n in range(4, 9):
            expect(realize_cycle(n, k), cycle(n),
                   n + k - 2, n * (n - 3) // 2, f"cycle({n},{k})")
        for n in range(1, k + 1):
            expect(realize_star(n, k), star(n),
                   n + k, n * (n + 1) // 2, f"star({n},{k})")
    # split constructor over the realizable connected graphs of <= 5
    # vertices; counts follow the clique/stable partition sizes
    from tokenslide import NotSplit, kmax_partition

    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            for k in (2, 3, 4, 5):
                try:
                    if not split_realizable(g, k):
                        continue
                except NotSplit:
                    continue
                part = kmax_partition(g)
                m, s = part.K.bit_count(), part.S.bit_count()
                expect(realize_split(g, k), g,
                       m + s + k - 1,
                       m * (m - 1) // 2 + s * (s - 1) // 2 + s * m,
                       f"split({sorted(g.edges())},{k})")
    report(9, failures, 60.0, time.monotonic() - start,
           detail="" if failures else
           "all constructor sweeps match the count formulas")


def test_acceptance_10_bounded_nonrealizability():
    start = time.monotonic()
    failures = []
    for k in (2, 3):
        verdict = search_realizer(diamond(), k, 6)
        if verdict != NoneUpTo(6):
            failures.append(f"diamond k={k}: {verdict}")
    for name, target in [("paw", paw()), ("P4", path(4)),
                         ("C4", cycle(4)), ("K4", complete(4))]:
        r = search_realizer(target, 2, 5)
        if not isinstance(r, Realization):
            failures.append(f"{name}: no realizer found")
    if not is_isomorphic(build_TSk(kite(), 2), paw()):
        failures.append("TS_2(kite) is not the paw")
    report(10, failures, 300.0, time.monotonic() - start,
           detail="" if failures else
           "diamond has no base up to 6 vertices; paw/P4/C4/K4 realizable")


def test_acceptance_11_join_decomposition():
    start = time.monotonic()
    failures = []
    rng = random.Random(0x301)
    specs = []
    g1 = star(3)
    g2 = make_graph(5, [(0, 3), (3, 4), (4, 2), (2, 1), (0, 2), (1, 3)])
    specs.append(JoinSpec(g1, g2, [1, 2, 3], [0, 1], 3))
    while len(specs) < 51:
        a = random_graph(rng, rng.randint(2, 6), 0.4)
        b = random_graph(rng, rng.randint(2, 6), 0.4)
        h1 = [v for v in range(a.n) if rng.random() < 0.5]
        h2 = [v for v in range(b.n) if rng.random() < 0.5]
        if not h1 or not h2:
            continue
        k = rng.randint(2, 3)
        if alpha(a) >= k and alpha(b) >= k:
            specs.append(JoinSpec(a, b, h1, h2, k))
    for si, spec in enumerate(specs):
        d = decompose_join(spec)
        if sum(p.num_nodes() for p in d.parts) != d.full.num_nodes():
            failures.append(f"spec {si}: parts do not partition")
        seen = set()
        for p in d.parts:
            for m in p.label_masks():
                if m in seen:
                    failures.append(f"spec {si}: overlapping parts")
                seen.add(m)
        for side, part_idx in ((1, 0), (2, 1)):
            touching = any(part_idx in (d.part_of[i], d.part_of[j])
                           for i, j in d.cross_edges)
            if check_disconnection(spec, side) != (not touching):
                failures.append(f"spec {si}: criterion mismatch side {side}")
    report(11, failures, 60.0, time.monotonic() - start,
           detail="" if failures else
           "51 specs: parts partition, criterion matches cross edges")


def test_acceptance_12_geometry():
    start = time.monotonic()
    failures = []
    rng = random.Random(0x9E0)

    def gp_points(n):
        from tokenslide import check_general_position

        while True:
            pts = []
            seen = set()
            while len(pts) < n:
                p = (rng.randint(0, 50), rng.randint(0, 50))
                if p not in seen:
                    seen.add(p)
                    pts.append(p)
            if check_general_position(pts).ok:
                return pts

    for trial in range(20):
        pts = gp_points(rng.randint(4, 7))
        sg = edge_intersection_graph(pts)
        fg = flip_graph(pts)
        if sg.graph.n == 0:
            if fg.num_nodes() != 1 or fg.num_edges() != 0:
                failures.append(f"trial {trial}: trivial flip graph wrong")
        else:
            ts = build_TSk(sg.graph, alpha(sg.graph))
            if (list(fg.label_masks()) != list(ts.label_masks())
                    or sorted(fg.edges()) != sorted(ts.edges())):
                failures.append(f"trial {trial}: flip graph differs from "
                                "slide graph")
        dela = tuple(sorted(delaunay(pts)))
        zero_flip = []
        for t in triangulations(pts):
            try:
                flips = lawson_distance(list(t), pts)
            except Exception as exc:
                failures.append(f"trial {trial}: lawson failed: {exc}")
                continue
            if flips == 0:
                zero_flip.append(t)
        if zero_flip != [dela]:
            failures.append(f"trial {trial}: flips reach "
                            f"{len(zero_flip)} fixed points")

    pts = [(0, 8), (7, 16), (16, 9), (8, 0), (5, 6), (3, 9)]
    sg = edge_intersection_graph(pts)
    l_labels = {f"{i + 1}{j + 1}" for i, j in sg.L}
    if l_labels != {"12", "14", "16", "23", "26", "34", "45"}:
        failures.append(f"fixture L = {sorted(l_labels)}")
    fg = flip_graph(pts)
    name_to_v = {sg.graph.name_of(v): v for v in range(sg.graph.n)}

    def node_of(names):
        want = frozenset(name_to_v[x] for x in names)
        for i, m in enumerate(fg.label_masks()):
            if frozenset(members(m)) == want:
                return i
        return None

    hub = node_of({"15", "35", "36", "56"})
    if hub is None:
        failures.append("fixture node {15,35,36,56} missing")
    else:
        nbrs = {frozenset(sg.graph.name_of(v)
                          for v in members(fg.label_masks()[j]))
                for j in fg.neighbors(hub)}
        want = {frozenset({"13", "15", "35", "36"}),
                frozenset({"15", "25", "35", "56"}),
                frozenset({"35", "36", "46", "56"})}
        if len(nbrs) != 3 or nbrs != want:
            failures.append(f"fixture neighborhood {sorted(map(sorted, nbrs))}")
    report(12, failures, 60.0, time.monotonic() - start,
           detail="" if failures else
           "20 random sets agree flip/slide; Lawson converges; fixture "
           "L and degree-3 neighborhood reproduced")
