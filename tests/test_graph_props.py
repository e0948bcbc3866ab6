import hashlib
import random
import signal
from itertools import combinations, permutations, product

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tokenslide import (
    INFINITE,
    Graph,
    LabeledGraph,
    TooLargeForIso,
    TooLargeForSearch,
    alpha,
    analyze,
    build_TS,
    build_TSk,
    canonical_form,
    canonical_labeling,
    chromatic_number,
    classify_subdivision,
    clique_number,
    complete,
    complete_bipartite,
    components,
    components_eulerian,
    cycle,
    diameter,
    disjoint_union,
    enumerate_connected_graphs,
    enumerate_graphs,
    girth,
    has_clique,
    is_connected,
    is_eulerian,
    is_isomorphic,
    is_planar,
    is_s_partite,
    iso_map,
    join,
    make_graph,
    omega,
    parse_graph6,
    path,
    relabel,
    star,
)

from tokenslide.canon import _as_adj
from tokenslide.props import (_coloring_order, _dsatur, _forest,
                              _has_triangle, _kuratowski_edges, _planar,
                              _try_color)

from conftest import (
    brute_cliques,
    check_generators,
    edge_set,
    graphs,
    kite,
    paw,
    random_eulerian_graph,
    to_networkx,
)


def brute_chromatic(g):
    if g.n == 0:
        return 0
    edges = edge_set(g)
    for s in range(1, g.n + 1):
        for colors in product(range(s), repeat=g.n):
            if all(colors[a] != colors[b] for a, b in edges):
                return s
    raise AssertionError("unreachable")


def subset_chromatic(n, edges):
    """Fewest independent sets covering 0..n-1, by dynamic programming
    over vertex subsets (3^n steps)."""
    independent = [True] * (1 << n)
    for a, b in edges:
        pair = (1 << a) | (1 << b)
        for m in range(1 << n):
            if m & pair == pair:
                independent[m] = False
    chi = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        rest = m ^ low
        best = n
        sub = rest
        while True:  # every independent part of m holding its lowest vertex
            if independent[sub | low]:
                best = min(best, chi[rest ^ sub] + 1)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        chi[m] = best
    return chi[-1]


def all_pairs_diameter(g):
    """Diameter by BFS from every node: INFINITE when disconnected, 0 for
    n <= 1."""
    n, adj = _as_adj(g)
    if n <= 1:
        return 0
    best = 0
    for s in range(n):
        seen = [False] * n
        seen[s] = True
        frontier = [s]
        reached = 1
        d = -1
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        nxt.append(w)
            reached += len(nxt)
            frontier = nxt
        if reached < n:
            return INFINITE
        best = max(best, d)
    return best


def petersen():
    nxg = nx.petersen_graph()
    return make_graph(10, sorted(nxg.edges()))


class TestInfinite:
    def test_ordering(self):
        assert INFINITE > 10 ** 9
        assert not (INFINITE < 5)
        assert INFINITE == INFINITE
        assert INFINITE != 7

    def test_hashable(self):
        assert len({INFINITE, INFINITE}) == 1


class TestComponentsAndDiameter:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_components_match_networkx(self, g):
        ours = {frozenset(c) for c in components(g)}
        theirs = {frozenset(c) for c in nx.connected_components(to_networkx(g))}
        assert ours == theirs
        assert is_connected(g) == (len(ours) <= 1)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_diameter_matches_networkx(self, g):
        nxg = to_networkx(g)
        if nx.is_connected(nxg):
            want = nx.diameter(nxg) if g.n > 1 else 0
            assert diameter(g) == want
        else:
            assert diameter(g) is INFINITE

    def test_complete_diameter(self):
        assert diameter(complete(6)) == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_is_connected_on_slide_graphs(self, k):
        # the same BFS on LabeledGraph nodes, empty slide graphs included
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                ts = build_TSk(g, k)
                assert is_connected(ts) == (len(components(ts)) <= 1)
                assert is_connected(g) == (len(components(g)) <= 1)

    def test_ts2_of_claw_disconnected(self):
        # two leaf tokens can never pass the shared center
        ts = build_TSk(star(3), 2)
        assert not is_connected(ts)

    @pytest.mark.parametrize("n,k", [(6, 2), (8, 3), (10, 4)])
    def test_path_slide_graphs_connected(self, n, k):
        ts = build_TSk(path(n), k)
        assert is_connected(ts)
        assert diameter(ts) <= 2 * n * n


class TestSlideGraphKernels:
    """The BFS kernels on LabeledGraph input, against networkx."""

    @given(st.integers(min_value=2, max_value=9), st.data())
    @settings(max_examples=80, deadline=None)
    def test_diameter_girth_components_match_networkx(self, n, data):
        # a path plus chords: its slide graphs are mostly connected, so
        # finite diameters get compared, not only INFINITE
        chords = [(u, v) for u in range(n) for v in range(u + 2, n)]
        picked = data.draw(st.sets(st.sampled_from(chords))) if chords else ()
        g = make_graph(n, [(i, i + 1) for i in range(n - 1)] + sorted(picked))
        k = data.draw(st.integers(min_value=1, max_value=3))
        ts = build_TSk(g, min(k, alpha(g)))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(ts.num_nodes()))
        nxg.add_edges_from(ts.edges())
        assert ({frozenset(c) for c in components(ts)}
                == {frozenset(c) for c in nx.connected_components(nxg)})
        if nx.is_connected(nxg):
            want = nx.diameter(nxg) if ts.num_nodes() > 1 else 0
            assert diameter(ts) == want
        else:
            assert diameter(ts) is INFINITE
        want = nx.girth(nxg)
        assert girth(ts) == (INFINITE if want == float("inf") else want)
        w = max(len(c) for c in nx.find_cliques(nxg))
        assert clique_number(ts) == w
        for s in range(1, ts.num_nodes() + 2):
            assert has_clique(ts, s) == (s <= w)
        color = _dsatur(*_as_adj(ts))
        assert all(color[u] != color[v] for u, v in ts.edges())
        if ts.num_nodes() <= 10:
            assert chromatic_number(ts) == subset_chromatic(
                ts.num_nodes(), ts.edges())
        base = to_networkx(g)
        assert alpha(g) == max(
            len(c) for c in nx.find_cliques(nx.complement(base)))
        assert omega(g) == max(len(c) for c in nx.find_cliques(base))


    @pytest.mark.parametrize("host,k", [
        (path(40), 2), (cycle(12), 3), (cycle(22), 4),
        (star(4), 2),  # disconnected: leaf tokens cannot pass the centre
        (path(7), 4),  # one node
        (make_graph(6, []), None),  # TS, no edges
    ], ids=["TS2-P40", "TS3-C12", "TS4-C22", "TS2-K14", "TS4-P7", "TS-E6"])
    def test_diameter_matches_all_pairs_bfs(self, host, k):
        g = build_TS(host) if k is None else build_TSk(host, k)
        assert diameter(g) == all_pairs_diameter(g)

    # TS_k(P_n) is the slide graph of the k-subsets of [n - k + 1] (take
    # token i to position p_i - i), where moving one token one step costs
    # one slide; from the leftmost to the rightmost set each of the k
    # tokens travels n - 2k + 1 positions
    @pytest.mark.parametrize("n,k", [
        (1, 1), (2, 1), (5, 1), (5, 2), (5, 3), (6, 2), (9, 3), (10, 4),
        (12, 3), (13, 5), (16, 4), (24, 5), (28, 6)])
    def test_path_slide_diameter_closed_form(self, n, k):
        assert diameter(build_TSk(path(n), k)) == k * (n - 2 * k + 1)


class TestSearchBudget:
    def test_stable_set_search(self, monkeypatch):
        from tokenslide import config

        monkeypatch.setattr(config, "DEFAULT_SEARCH_BUDGET", 2)
        with pytest.raises(TooLargeForSearch):
            alpha(cycle(9))

    # C_9 is odd, so 2 colours are ruled out without a search; 3 colours
    # need one
    def test_colouring_search(self, monkeypatch):
        from tokenslide import config

        monkeypatch.setattr(config, "DEFAULT_SEARCH_BUDGET", 2)
        with pytest.raises(TooLargeForSearch):
            is_s_partite(cycle(9), 3)

    # One call spends at most one budget per search kind. clique_number
    # of TS_3 of C_12 with the chord 02 runs local searches of at most 5
    # steps each, 245 in all. chromatic_number of the Groetzsch graph
    # joined to one more vertex tries 3 and then 4 colours, 178 steps in
    # all, and neither try takes more than 157.
    def test_local_clique_searches_share_one_budget(self, monkeypatch):
        from tokenslide import config

        g = build_TSk(make_graph(12, [(0, 2)] + list(cycle(12).edges())), 3)
        monkeypatch.setattr(config, "DEFAULT_SEARCH_BUDGET", 5)
        with pytest.raises(TooLargeForSearch):
            clique_number(g)
        monkeypatch.setattr(config, "DEFAULT_SEARCH_BUDGET", 244)
        with pytest.raises(TooLargeForSearch):
            clique_number(g)
        monkeypatch.setattr(config, "DEFAULT_SEARCH_BUDGET", 245)
        assert clique_number(g) == 3

    def test_colouring_tries_share_one_budget(self, monkeypatch):
        from tokenslide import config

        g = join(make_graph(11, nx.mycielski_graph(4).edges()), range(11),
                 complete(1), [0])
        monkeypatch.setattr(config, "DEFAULT_SEARCH_BUDGET", 157)
        with pytest.raises(TooLargeForSearch):
            chromatic_number(g)
        monkeypatch.setattr(config, "DEFAULT_SEARCH_BUDGET", 177)
        with pytest.raises(TooLargeForSearch):
            chromatic_number(g)
        monkeypatch.setattr(config, "DEFAULT_SEARCH_BUDGET", 178)
        assert chromatic_number(g) == 5

    # TS_3(C_12) has no triangle and is bipartite, so neither its clique
    # number nor its chromatic number spends the budget, nor is_s_partite
    # for any s: the clique search that the triangle scan skips takes 382
    # steps, and the 2-colour search that the BFS forest skips 112
    def test_triangle_free_spends_no_budget(self, monkeypatch):
        from tokenslide import config

        g = build_TSk(cycle(12), 3)
        monkeypatch.setattr(config, "DEFAULT_SEARCH_BUDGET", 5)
        assert clique_number(g) == 2
        assert chromatic_number(g) == 2
        assert not has_clique(g, 3)
        assert girth(g) == 4
        assert [is_s_partite(g, s) for s in (1, 2, 3)] == [False, True, True]


class TestPolynomialScans:
    # the triangle scan and the BFS 2-colouring against a triple check
    # and the 2-colour search, and is_s_partite, which answers from the
    # 2-colouring where it can, against chromatic_number, on the slide
    # graphs of every graph on up to 7 vertices
    def test_slide_graphs_of_all_small_graphs(self):
        seen = set()
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                for ts in [build_TSk(g, k) for k in (1, 2, 3)] + [build_TS(g)]:
                    m, adj = _as_adj(ts)
                    masks = ts.adjacency_masks()
                    triangle = any(masks[u] & masks[v] for u, v in ts.edges())
                    assert _has_triangle(adj) == triangle
                    two = m == 0 or _try_color(m, adj,
                                               _coloring_order(m, adj), 2)
                    assert _forest(m, adj)[1] == two
                    chi = chromatic_number(ts)
                    assert [is_s_partite(ts, s) for s in range(1, 5)] == \
                        [chi <= s for s in range(1, 5)]
                    seen.add((triangle, two))
        assert seen == {(False, False), (False, True), (True, False)}


class TestGirth:
    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_networkx(self, g):
        nxg = to_networkx(g)
        try:
            want = nx.girth(nxg)
        except Exception:
            want = None
        ours = girth(g)
        if want is None or want == float("inf"):
            assert ours is INFINITE
        else:
            assert ours == want

    def test_tree(self):
        assert girth(path(7)) is INFINITE

    @pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (9, 4)])
    def test_tight_cycle_slide_girth(self, n, k):
        # with n <= 2k+1 the tokens are too crowded to shuffle locally and
        # the shortest cycle is the full token rotation of length n
        assert girth(build_TSk(cycle(n), k)) == n

    @pytest.mark.parametrize("n,k", [(6, 2), (7, 2), (8, 3), (9, 2)])
    def test_loose_cycle_slide_girth(self, n, k):
        # once the cycle has slack, two far-apart tokens can swap move
        # order, giving a 4-cycle; e.g. in C_6 the sets {0,2},{0,3},{2,5},
        # {3,5} form one
        assert n >= 2 * k + 2
        assert girth(build_TSk(cycle(n), k)) == 4

    @pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (8, 3), (9, 2)])
    def test_path_slide_girth_four(self, n, k):
        # two tokens with room to shuffle produce a 4-cycle; k = 1 would
        # leave the slide graph a path, which is why it is excluded here
        assert n >= 2 * k + 1
        assert girth(build_TSk(path(n), k)) == 4

    def test_single_token_path_acyclic(self):
        assert girth(build_TSk(path(6), 1)) is INFINITE

    @pytest.mark.parametrize("g", [build_TSk(path(8), 3), cycle(7),
                                   build_TSk(cycle(9), 2), path(5),
                                   complete(4)],
                             ids=["TS3-P8", "C7", "TS2-C9", "P5", "K4"])
    def test_triangle_free_search_stops_at_four(self, monkeypatch, g):
        # a triangle gives girth 3 without the search; a triangle-free
        # graph has girth at least 4, and the search stops at the first
        # 4-cycle rather than looking for a triangle from every node
        import tokenslide.props

        calls = []
        real = tokenslide.props._girth

        def spy(n, adj):
            calls.append(n)
            return real(n, adj)

        monkeypatch.setattr(tokenslide.props, "_girth", spy)
        ours = girth(g)
        assert calls == ([] if has_clique(g, 3) else [g.num_nodes()])
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.num_nodes()))
        want = nx.girth(nxg)
        assert ours == (INFINITE if want == float("inf") else want)


class TestChromatic:
    def test_odd_cycle(self):
        assert chromatic_number(cycle(5)) == 3

    def test_complete(self):
        assert chromatic_number(complete(6)) == 6

    @given(graphs(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_against_brute(self, g):
        assert chromatic_number(g) == brute_chromatic(g)

    @given(graphs(max_n=6), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_s_partite_iff_chromatic(self, g, s):
        assert is_s_partite(g, s) == (chromatic_number(g) <= s)

    @given(graphs(min_n=2, max_n=6), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_monotone_under_edge_deletion(self, g, rnd):
        edges = sorted(edge_set(g))
        if not edges:
            return
        drop = rnd.choice(edges)
        sub = make_graph(g.n, [e for e in edges if e != drop])
        assert chromatic_number(sub) <= chromatic_number(g)

    # DSATUR is exact on every graph of up to 7 vertices, so the search
    # below its bound needs more: these two use 4 colours under DSATUR
    @pytest.mark.parametrize("g6,edges", [("HLago@r", 14), ("HrWUX_J", 16)])
    def test_search_below_dsatur_bound(self, g6, edges):
        g = parse_graph6(g6)
        assert (g.n, len(edge_set(g))) == (9, edges)
        n, adj = _as_adj(g)
        assert clique_number(g) == 3
        assert max(_dsatur(n, adj)) + 1 == 4
        assert chromatic_number(g) == 3 == brute_chromatic(g)
        assert is_s_partite(g, 3) and not is_s_partite(g, 2)

    def test_s_partite_edge_cases(self):
        assert is_s_partite(make_graph(0, []), 1)
        with pytest.raises(ValueError, match="s must be >= 1"):
            is_s_partite(path(3), 0)

    def test_slide_graph_of_bipartite_path_is_bipartite(self):
        for n, k in [(6, 2), (7, 3), (9, 3)]:
            ts = build_TSk(path(n), k)
            assert chromatic_number(ts) <= 2

    def test_ts_chromatic_matches_host_sampled(self):
        for g in enumerate_connected_graphs(4):
            assert chromatic_number(build_TS(g)) == chromatic_number(g)

    def test_universal_vertex_drops_slide_chromatic(self):
        # adding a dominating vertex raises chi(G) but never appears in a
        # stable set of size >= 2, so the slide graph keeps its colors
        from tokenslide import alpha

        for g6 in ["DQo", "D~{", "C~", "Dbk"]:
            from tokenslide import parse_graph6

            base = parse_graph6(g6)
            g = join(base, range(base.n), complete(1), [0])
            for k in range(2, alpha(g) + 1):
                assert chromatic_number(build_TSk(g, k)) \
                    <= chromatic_number(g) - 1


class TestDeepSearches:
    def test_slide_graph_past_recursion_limit(self):
        # 1,081 nodes: the clique and coloring searches go one level
        # deeper per node, past Python's default recursion limit of 1,000
        ts = build_TSk(path(48), 2)
        assert ts.num_nodes() == 1081
        assert clique_number(ts) == 2
        assert chromatic_number(ts) == 2
        assert is_s_partite(ts, 2) and not is_s_partite(ts, 1)
        r = analyze(ts)
        assert r.clique == 2 and r.chromatic == 2


class TestCliqueOps:
    def test_bipartite_clique_number(self):
        assert clique_number(complete_bipartite(3, 3)) == 2

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_against_brute(self, g):
        w = clique_number(g)
        assert w == max((len(c) for k in range(1, g.n + 1)
                         for c in brute_cliques(g, k)), default=0)
        for s in range(1, g.n + 2):
            assert has_clique(g, s) == (s <= w)

    def test_has_clique_validates(self):
        with pytest.raises(ValueError):
            has_clique(path(3), 0)

    def test_ts_cliques_match_host_sampled(self):
        # a triangle of pairwise-slidable sets forces a triangle in the host
        for g in enumerate_connected_graphs(5)[:30]:
            ts = build_TS(g)
            assert has_clique(ts, 3) == has_clique(g, 3)


class TestEulerian:
    def test_path_not(self):
        assert not is_eulerian(path(3))

    def test_cycles(self):
        assert is_eulerian(cycle(6))

    def test_empty_graph(self):
        assert is_eulerian(make_graph(0, []))

    def test_disconnected_even_degrees(self):
        g = disjoint_union(cycle(3), cycle(3))
        assert not is_eulerian(g)
        assert components_eulerian(g)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, g):
        if g.n:
            assert is_eulerian(g) == nx.is_eulerian(to_networkx(g))

    @pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (7, 3), (9, 4)])
    def test_cycle_slide_graphs(self, n, k):
        assert is_eulerian(build_TSk(cycle(n), k))

    def test_components_of_ts2_of_eulerian_host(self, rng):
        for _ in range(6):
            g = random_eulerian_graph(rng, rng.randint(4, 7))
            assert components_eulerian(build_TSk(g, 2))

    def test_two_cycle_counterexample_degree(self):
        # two odd cycles sharing one vertex: some size-3 token set has
        # exactly three slides available, so TS_3 is not Eulerian
        g = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                           (0, 5), (5, 6), (6, 0)])
        ts = build_TSk(g, 3)
        i = ts.label_masks().index(1 << 1 | 1 << 4 | 1 << 5)
        assert ts.degree(i) == 3
        assert not is_eulerian(ts)

    def test_non_eulerian_host_with_eulerian_slide_graph(self):
        g2 = join(complete(4), [0], complete(1), [0])
        assert not is_eulerian(g2)
        assert is_isomorphic(build_TSk(g2, 2), cycle(3))
        for k in (3, 4):
            edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)]
            edges += [(0, 5 + i) for i in range(k - 2)]
            g = make_graph(5 + k - 2, edges)
            assert not is_eulerian(g)
            assert is_isomorphic(build_TSk(g, k), cycle(4))


def contract_degree_two(nxg):
    """Suppress degree-2 vertices, keeping multi-edges collapsed."""
    h = nx.Graph(nxg)
    changed = True
    while changed:
        changed = False
        for v in list(h.nodes):
            if h.degree(v) == 2:
                a, b = h.neighbors(v)
                if a != b and not h.has_edge(a, b):
                    h.remove_node(v)
                    h.add_edge(a, b)
                    changed = True
    return h


def minimize_nonplanar(edges):
    """One edge at a time, in order: delete each edge whose removal leaves
    the graph non-planar (the reference for is_planar's witness)."""
    current = list(edges)
    i = 0
    while i < len(current):
        trial = current[:i] + current[i + 1:]
        h = nx.Graph()
        h.add_edges_from(trial)
        if not nx.check_planarity(h)[0]:
            current = trial
        else:
            i += 1
    return current


@st.composite
def nonplanar_graphs(draw):
    """Dense random graphs (more than 3n - 6 edges) and non-planar slide
    graphs of paths and cycles with chords."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=5, max_value=14))
        pairs = list(combinations(range(n), 2))
        m = draw(st.integers(min_value=3 * n - 5, max_value=len(pairs)))
        picked = draw(st.lists(st.sampled_from(pairs), min_size=m,
                               max_size=m, unique=True))
        return make_graph(n, sorted(picked))
    n = draw(st.integers(min_value=7, max_value=10))
    base = draw(st.sampled_from([path, cycle]))(n)
    chords = draw(st.sets(st.sampled_from(list(combinations(range(n), 2))),
                          max_size=2))
    g = make_graph(n, sorted(set(base.edges()) | chords))
    k = draw(st.sampled_from([2, 3, None]))
    ts = build_TS(g) if k is None else build_TSk(g, k)
    assume(not nx.check_planarity(lex_networkx(ts))[0])
    return ts


def lex_networkx(g):
    """g in networkx with nodes 0..n-1 and edges added in lexicographic
    order, which fixes the order of networkx's counterexample search."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n if isinstance(g, Graph) else g.num_nodes()))
    h.add_edges_from(g.edges())
    return h


class TestPlanarity:
    @pytest.mark.parametrize("g,planar", [
        (complete(4), True),
        (complete(5), False),
        (complete_bipartite(3, 3), False),
        (petersen(), False),
        (cycle(9), True),
    ])
    def test_known(self, g, planar):
        verdict, witness = is_planar(g)
        assert verdict == planar
        assert (witness is None) == planar

    @given(graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, g):
        verdict, _ = is_planar(g)
        assert verdict == nx.check_planarity(to_networkx(g))[0]

    @given(graphs(min_n=5, max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_witness_is_kuratowski_subdivision(self, g):
        verdict, witness = is_planar(g)
        if verdict:
            return
        assert witness
        g_edges = edge_set(g)
        assert all(tuple(sorted(e)) in g_edges for e in witness)
        h = contract_degree_two(nx.Graph(list(witness)))
        assert (nx.is_isomorphic(h, nx.complete_graph(5))
                or nx.is_isomorphic(h, nx.complete_bipartite_graph(3, 3)))

    @given(nonplanar_graphs())
    @settings(max_examples=30, deadline=None)
    def test_witness_matches_one_edge_at_a_time(self, g):
        planar, witness = is_planar(g)
        assert not planar
        assert list(witness) == minimize_nonplanar(g.edges())
        cert = nx.check_planarity(lex_networkx(g), counterexample=True)[1]
        assert list(witness) == sorted(
            (min(a, b), max(a, b)) for a, b in cert.edges())

    def test_witness_takes_few_planarity_tests(self, monkeypatch):
        calls = []

        def counting(edges):
            calls.append(len(edges))
            return _planar(edges)

        monkeypatch.setattr("tokenslide.props._planar", counting)
        ts = build_TSk(path(12), 3)  # 252 edges
        planar, witness = is_planar(ts)
        assert not planar
        assert classify_subdivision(ts.num_nodes(), witness)
        assert 0 < len(calls) <= 100

    def test_witness_first_cut_tests_short_suffixes(self, monkeypatch):
        # TS_5(P_24) has 58,140 edges and its first cut lies near their
        # end: galloping from the start passed 833,006 edges to _planar,
        # galloping back from the end passes 1,208
        sizes = []

        def counting(edges):
            sizes.append(len(edges))
            return _planar(edges)

        ts = build_TSk(path(24), 5)
        monkeypatch.setattr("tokenslide.props._planar", counting)
        witness = _kuratowski_edges(ts.edges())
        assert classify_subdivision(ts.num_nodes(), witness)
        assert sum(sizes) <= 2000

    def test_classify_subdivision_direct(self):
        k5 = nx.complete_graph(5)
        sub = nx.Graph()
        nxt = 5
        for a, b in k5.edges():
            sub.add_edge(a, nxt)
            sub.add_edge(nxt, b)
            nxt += 1
        assert classify_subdivision(nxt, list(sub.edges())) == "K5"
        k33 = nx.complete_bipartite_graph(3, 3)
        assert classify_subdivision(6, list(k33.edges())) == "K33"
        assert classify_subdivision(4, [(0, 1), (1, 2)]) is None

    def test_planar_subdivision_brute_force_oracle(self):
        # dual route at n = 5: a graph is non-planar exactly when some edge
        # subset forms a forbidden subdivision
        for g in enumerate_connected_graphs(5):
            edges = sorted(edge_set(g))
            found = None
            if len(edges) >= 9:
                for r in range(9, len(edges) + 1):
                    for sub in combinations(edges, r):
                        verts = {v for e in sub for v in e}
                        kind = classify_subdivision(g.n, list(sub)) if all(
                            v < g.n for v in verts) else None
                        if kind:
                            found = kind
                            break
                    if found:
                        break
            assert is_planar(g)[0] == (found is None)

    def test_euler_bound_consistency(self):
        for g in enumerate_connected_graphs(6):
            planar, _ = is_planar(g)
            if planar and g.n >= 3:
                assert g.num_edges() <= 3 * g.n - 6

    def test_high_girth_slide_graphs_nonplanar(self):
        # hosts with a shortest cycle of length >= 7 have non-planar TS
        theta = make_graph(11, [(0, 2), (2, 3), (3, 4), (4, 1),
                                (0, 5), (5, 6), (6, 7), (7, 1),
                                (0, 8), (8, 9), (9, 10), (10, 1)])
        for g in [cycle(7), cycle(8), theta]:
            assert girth(g) >= 7
            assert not is_planar(build_TS(g))[0]


def nx_planar(edges):
    return nx.check_planarity(nx.Graph(list(edges)))[0]


def lr_planar(edges):
    """_planar, raising TimeoutError after 5 s instead of hanging: a
    broken left-right test can follow a cycle of refs forever."""
    def expire(signum, frame):
        raise TimeoutError("_planar ran past 5 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        return _planar(edges)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@st.composite
def edge_lists(draw):
    """Edge lists of simple graphs on sparse vertex ids with one to three
    components of 3 to 13 vertices, in random order and orientation.
    About half the components have 3n - 9 to 3n - 5 edges, around
    Euler's bound; the rest have n - 1 to 3n - 6."""
    rnd = draw(st.randoms(use_true_random=False))
    ids = rnd.sample(range(10 ** 4), 39)
    edges = []
    for part in range(draw(st.integers(min_value=1, max_value=3))):
        n = rnd.randint(3, 13)
        pairs = list(combinations(ids[13 * part:13 * part + n], 2))
        if rnd.random() < 0.5:
            m = 3 * n - 6 + rnd.randint(-3, 1)
        else:
            m = rnd.randint(n - 1, 3 * n - 6)
        edges += rnd.sample(pairs, max(0, min(m, len(pairs))))
    rnd.shuffle(edges)
    return [(b, a) if rnd.random() < 0.5 else (a, b) for a, b in edges]


def subdivide(edges, first, pieces):
    """Each edge a-b replaced by a path of `pieces` edges through new
    vertices numbered from `first` up."""
    out = []
    for a, b in edges:
        inner = list(range(first, first + pieces - 1))
        first += pieces - 1
        walk = [a, *inner, b]
        out += zip(walk, walk[1:])
    return out


class TestPlanarityKernel:
    """props._planar, the yes/no left-right test, against networkx."""

    @given(edge_lists())
    @settings(max_examples=200, deadline=None)
    def test_matches_networkx(self, edges):
        assert lr_planar(edges) == nx_planar(edges)

    @given(st.integers(min_value=4, max_value=9), st.booleans(),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx_on_slide_graphs(self, n, closed, data):
        base = (cycle if closed else path)(n)
        chords = data.draw(st.sets(
            st.sampled_from(list(combinations(range(n), 2))), max_size=2))
        g = make_graph(n, sorted(set(base.edges()) | chords))
        k = data.draw(st.sampled_from([1, 2, 3, None]))
        assume(k is None or k <= alpha(g))
        edges = (build_TS(g) if k is None else build_TSk(g, k)).edges()
        # the suffixes a witness search tests, as well as the whole graph
        for cut in range(0, len(edges), max(1, len(edges) // 8)):
            assert lr_planar(edges[cut:]) == nx_planar(edges[cut:])

    def test_every_graph_on_up_to_7_vertices(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                assert lr_planar(g.edges()) == nx_planar(g.edges()), g.edges()

    def test_tiny(self):
        assert lr_planar([])
        assert lr_planar([(3, 7)])
        assert lr_planar(complete(4).edges())

    @pytest.mark.parametrize("g", [complete(5), complete_bipartite(3, 3)])
    def test_kuratowski_graphs_and_subdivisions(self, g):
        edges = g.edges()
        assert not lr_planar(edges)
        assert lr_planar(edges[1:])
        for pieces in (2, 3):
            sub = subdivide(edges, g.n, pieces)
            assert not lr_planar(sub)
            assert lr_planar(sub[1:])

    def test_deep_dfs(self):
        # 10^4 vertices: a DFS path thousands of vertices deep
        side = 100
        grid = [(v, v + 1) for v in range(side * side) if (v + 1) % side] \
            + [(v, v + side) for v in range(side * (side - 1))]
        assert lr_planar(grid)
        k33 = subdivide(complete_bipartite(3, 3).edges(), 6, 1200)
        assert not lr_planar(k33)
        assert lr_planar(k33[1:])


# canon._refine and canon._labeling_search as they were before the
# refinement was made cheaper: canonical_labeling must equal this exactly

def reference_refine(n, adj, colors):
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v])))
                for v in range(n)]
        index = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [index[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def reference_labeling(g):
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    masks = [0] * n
    for v in range(n):
        for w in adj[v]:
            masks[v] |= 1 << w
    best = [None, None]

    def cert_of(perm):
        return tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                            for u, v in edges))

    def search(colors):
        colors = reference_refine(n, adj, colors)
        counts = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = None
        for c in sorted(counts):
            if counts[c] > 1:
                target = c
                break
        if target is None:
            cert = cert_of(colors)
            if best[0] is None or cert < best[0]:
                best[0], best[1] = cert, list(colors)
            return
        tried = []
        for v in range(n):
            if colors[v] != target:
                continue
            if any(masks[u] & ~(1 << v) == masks[v] & ~(1 << u)
                   for u in tried):
                continue
            tried.append(v)
            child = [2 * c for c in colors]
            child[v] = 2 * target - 1
            search(child)

    search([0] * n)
    return (n, best[0]), best[1]


@st.composite
def symmetric_graphs(draw):
    """Twin-heavy and regular graphs under a random vertex order."""
    kind = draw(st.sampled_from(["bipartite", "cliques", "cycle",
                                 "petersen"]))
    if kind == "bipartite":
        g = complete_bipartite(draw(st.integers(1, 4)),
                               draw(st.integers(1, 4)))
    elif kind == "cliques":
        g = complete(draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(1, 3))):
            g = disjoint_union(g, complete(draw(st.integers(1, 3))))
    elif kind == "cycle":
        g = cycle(draw(st.integers(3, 9)))
    else:
        g = petersen()
    return relabel(g, draw(st.permutations(range(g.n))))


class TestIsomorphism:
    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_invariant(self, g, rnd):
        perm = list(range(g.n))
        for _ in range(4):
            rnd.shuffle(perm)
            assert canonical_form(relabel(g, list(perm))) == canonical_form(g)

    @given(graphs(max_n=6), graphs(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, a, b):
        assert is_isomorphic(a, b) == nx.is_isomorphic(
            to_networkx(a), to_networkx(b))

    @given(graphs(min_n=2), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_iso_map_is_valid(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = relabel(g, perm)
        m = iso_map(g, h)
        assert m is not None
        assert sorted(m) == list(range(g.n))
        for u, v in edge_set(g):
            assert h.has_edge(m[u], m[v])

    def test_slide_graph_identities(self):
        assert is_isomorphic(build_TSk(path(8), 4), path(5))
        assert is_isomorphic(build_TSk(kite(), 2), paw())

    def test_budget(self, monkeypatch):
        from tokenslide import config

        monkeypatch.setattr(config, "DEFAULT_ISO_BUDGET", 10)
        g = disjoint_union(complete_bipartite(8, 8), complete_bipartite(8, 8))
        with pytest.raises(TooLargeForIso):
            canonical_labeling(g)

    # search nodes recorded before the search returned automorphism
    # generators; recording them must not change the search
    @pytest.mark.parametrize("name,nodes", [("petersen", 221),
                                            ("k33+k33", 49)])
    def test_search_nodes(self, monkeypatch, name, nodes):
        from tokenslide import config

        g = petersen() if name == "petersen" else disjoint_union(
            complete_bipartite(3, 3), complete_bipartite(3, 3))
        monkeypatch.setattr(config, "DEFAULT_ISO_BUDGET", nodes)
        assert canonical_labeling(g) == reference_labeling(g)
        monkeypatch.setattr(config, "DEFAULT_ISO_BUDGET", nodes - 1)
        with pytest.raises(TooLargeForIso):
            canonical_labeling(g)

    @given(symmetric_graphs())
    @settings(max_examples=40, deadline=None)
    def test_generators_on_symmetric_graphs(self, g):
        check_generators(g)

    def test_iso_map_rejects_degrees_before_labeling(self, monkeypatch):
        from tokenslide import canon

        def no_labeling(g):
            raise AssertionError("canonical_labeling was called")

        monkeypatch.setattr(canon, "canonical_labeling", no_labeling)
        # P_4 and K_{1,3}: four vertices and three edges each
        assert iso_map(path(4), star(3)) is None
        assert not is_isomorphic(path(4), star(3))

    @given(graphs(max_n=9))
    @settings(max_examples=150, deadline=None)
    def test_labeling_matches_reference(self, g):
        assert canonical_labeling(g) == reference_labeling(g)

    @given(symmetric_graphs())
    @settings(max_examples=80, deadline=None)
    def test_labeling_matches_reference_on_symmetric_graphs(self, g):
        assert canonical_labeling(g) == reference_labeling(g)

    def test_ts_of_edgeless_10_has_a_certificate(self):
        # 1,023 nodes whose search individualises one twin per level,
        # deeper than the interpreter's default recursion limit
        ts = build_TS(make_graph(10, []))
        cert = canonical_form(ts)
        assert cert[0] == 1023 and len(cert[1]) == ts.num_edges()
        perm = list(range(1023))
        random.Random(10).shuffle(perm)
        labels, up = [None] * 1023, [[] for _ in range(1023)]
        for i in range(1023):
            labels[perm[i]] = ts.label_masks()[i]
        for i, j in ts.edges():
            a, b = sorted((perm[i], perm[j]))
            up[a].append(b)
        copy = LabeledGraph("TS", ts.base, labels, map(sorted, up))
        assert canonical_form(copy) == cert

    def test_labelings_of_all_small_graphs(self):
        # SHA-256s recorded before the refinement was made cheaper, and
        # before it stopped at discrete colorings; the second goes on with
        # TS, TS_2 and TS_3 of a base whose TS (31 nodes) is a slow search
        h = hashlib.sha256()
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                h.update(repr(canonical_labeling(g)).encode())
        assert h.hexdigest() == \
            "d082f8c68f7a4f860c202531b0cf494c3a6f205f2381c942ebe3ebb6a101f795"
        base = make_graph(6, [(0, 3), (2, 5), (3, 5)])
        for lg in (build_TS(base), build_TSk(base, 2), build_TSk(base, 3)):
            h.update(repr(canonical_labeling(lg)).encode())
        assert h.hexdigest() == \
            "3b112f26af6e2508d91beed042e975655c26c3774ce197223c17b23e4a8f3ce3"


class TestAnalyze:
    def test_report_fields(self):
        r = analyze(cycle(5))
        assert r.nodes == 5 and r.edges == 5
        assert r.connected and r.component_count == 1
        assert r.diameter == 2 and r.chromatic == 3
        assert r.girth == 5 and r.clique == 2
        assert r.planar and r.planar_witness is None
        assert r.eulerian and r.components_eulerian

    def test_json_infinite_markers(self):
        r = analyze(disjoint_union(path(2), path(2)))
        js = r.to_json()
        assert js["diameter"] == "infinite"
        assert js["girth"] == "infinite"

    def test_json_witness_edges(self):
        r = analyze(complete(5))
        js = r.to_json()
        assert js["planar"] is False
        assert sorted(map(sorted, js["planar_witness"])) == \
            sorted(map(sorted, [[a, b] for a, b in combinations(range(5), 2)]))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_fields_match_single_property_calls(self, g):
        # analyze takes girth 3 from a clique of 3, and otherwise stops
        # the girth search at the first 4-cycle
        r = analyze(g)
        assert (r.girth, r.diameter, r.clique, r.chromatic) == (
            girth(g), diameter(g), clique_number(g), chromatic_number(g))

    def test_clique_and_components_computed_once(self, monkeypatch):
        from tokenslide import props

        calls = {"clique_number": 0, "_forest": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(props, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(props, name, counting)
        analyze(build_TSk(path(10), 2))
        assert calls == {"clique_number": 1, "_forest": 1}

    def test_invariants(self):
        for g in [complete(5), path(4), cycle(6),
                  disjoint_union(cycle(3), cycle(4))]:
            r = analyze(g)
            assert (r.girth is INFINITE) == (
                nx.is_forest(to_networkx(g)) if g.n else True)
            if r.eulerian:
                assert r.connected
                assert all(g.degree(v) % 2 == 0 for v in range(g.n))
            if not r.planar:
                assert r.planar_witness
