import hashlib
import random
import tracemalloc
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenslide import (
    JoinSpec,
    add_isolated,
    build_TSk_induced,
    complement,
    complete,
    complete_bipartite,
    complete_minus_edge,
    cycle,
    disjoint_union,
    delete_vertices,
    enumerate_connected_graphs,
    enumerate_graphs,
    enumerate_trees,
    export_dot,
    extend_with_vG,
    graph_from_json,
    graph_to_json,
    independent_sets_of_size,
    induced_subgraph,
    is_connected,
    is_independent,
    is_isomorphic,
    join,
    make_graph,
    parse_graph6,
    path,
    realize_star,
    relabel,
    star,
    write_graph6,
)
from tokenslide.graph import WIDTH_MAX, members
from tokenslide.props import _planar

from conftest import (
    brute_stable_sets,
    check_generators,
    diamond,
    edge_set,
    example_five_vertex,
    graphs,
    raises_input_error,
    to_networkx,
)


class TestMakeGraph:
    def test_p3(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_dedup_and_orientation(self):
        g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges() == 1

    def test_k1(self):
        g = make_graph(1, [])
        assert g.n == 1 and g.num_edges() == 0

    def test_symmetry_invariant(self):
        g = example_five_vertex()
        for u in range(g.n):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)
                assert u != v

    def test_out_of_range(self):
        with raises_input_error("edge (0,3) outside 0..2"):
            make_graph(3, [(0, 3)])

    def test_loop(self):
        with raises_input_error("loop edge (1,1)"):
            make_graph(3, [(1, 1)])

    def test_width_cap(self):
        with raises_input_error("vertex count 129 exceeds the cap 128"):
            make_graph(129, [])
        make_graph(128, [])  # at the cap is fine


class TestOversizedGenerators:
    """A named generator past the width cap fails before listing edges."""

    @pytest.mark.parametrize("build,n", [
        (lambda: complete(1000), 1000),
        (lambda: complete_minus_edge(1000), 1000),
        (lambda: complete_bipartite(500, 500), 1000),
        (lambda: path(10**6), 10**6),
        (lambda: cycle(10**6), 10**6),
        (lambda: star(10**6), 10**6 + 1),
        (lambda: realize_star(1000, 1000), 1001),
    ], ids=["complete", "complete_minus_edge", "complete_bipartite", "path",
            "cycle", "star", "realize_star"])
    def test_rejected_without_an_edge_list(self, build, n):
        tracemalloc.start()
        try:
            with raises_input_error(f"vertex count {n} exceeds the cap 128"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestInputErrors:
    """Each bad input raises InputError with a message naming it."""

    @pytest.mark.parametrize("call,message", [
        (lambda: path(0), "path needs n >= 1"),
        (lambda: complete(0), "complete needs n >= 1"),
        (lambda: star(0), "star needs n >= 1"),
        (lambda: complete_bipartite(0, 2),
         "complete_bipartite needs m, n >= 1"),
        (lambda: complete_minus_edge(1), "complete_minus_edge needs n >= 2"),
        (lambda: make_graph(-1, []), "vertex count -1 is negative"),
        (lambda: make_graph(3, [], names=["a"]), "1 names for 3 vertices"),
        (lambda: add_isolated(path(3), -1), "add_isolated needs t >= 0"),
        (lambda: relabel(path(3), [0, 0, 1]),
         "perm is not a permutation of 0..n-1"),
        (lambda: path(3).has_edge(0, 3), "edge (0,3) outside 0..2"),
        (lambda: add_isolated(path(100), 29),
         "vertex count 129 exceeds the cap 128"),
        (lambda: disjoint_union(path(100), path(29)),
         "vertex count 129 exceeds the cap 128"),
        (lambda: parse_graph6("~~??????"),
         "very long size form not supported"),
        (lambda: parse_graph6("~?B" + "?" * 10),
         "graph has 192 vertices, cap is 128"),
        (lambda: parse_graph6("Bx"), "nonzero padding bits"),
        (lambda: graph_from_json({"n": 2, "edges": [], "names": "ab"}),
         "JSON graph names must be a list or null"),
        (lambda: graph_from_json({"n": 2, "edges": [[0, 1]],
                                  "names": [1.5, {"a": 1}]}),
         "JSON graph names must be strings"),
        (lambda: graph_from_json({"n": 2, "edges": [],
                                  "names": [True, None]}),
         "JSON graph names must be strings"),
        (lambda: graph_from_json({"n": 2, "edges": [], "names": ["a", 1]}),
         "JSON graph names must be strings"),
    ], ids=["path0", "complete0", "star0", "bipartite0", "minus-edge1",
            "negative-n", "names", "isolated-negative", "relabel",
            "has-edge", "isolated-width", "union-width", "g6-very-long",
            "g6-192", "g6-padding", "json-names", "json-names-not-strings",
            "json-names-true-null", "json-names-one-int"])
    def test_raises(self, call, message):
        with raises_input_error(message):
            call()


class TestComplement:
    def test_complete_to_edgeless(self):
        g = complement(complete(4))
        assert g.num_edges() == 0

    def test_p3(self):
        g = complement(path(3))
        assert edge_set(g) == {(0, 2)}

    def test_example_graph(self):
        # the 5-vertex worked example: complement has the 4 drawn edges
        g = complement(example_five_vertex())
        assert edge_set(g) == {(0, 2), (0, 3), (1, 3), (2, 4)}

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestGenerators:
    def test_path_consecutive(self):
        assert edge_set(path(4)) == {(0, 1), (1, 2), (2, 3)}

    def test_cycle(self):
        assert edge_set(cycle(4)) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_cycle_too_small(self):
        with raises_input_error("cycle needs n >= 3, got 2"):
            cycle(2)

    def test_complete(self):
        g = complete(5)
        assert g.num_edges() == 10

    def test_bipartite_parts_contiguous(self):
        g = complete_bipartite(2, 3)
        assert edge_set(g) == {(a, b) for a in (0, 1) for b in (2, 3, 4)}

    def test_star_is_claw(self):
        g = star(3)
        assert is_isomorphic(g, complete_bipartite(1, 3))
        assert g.degree(0) == 3  # center first

    def test_diamond(self):
        assert is_isomorphic(complete_minus_edge(4), diamond())

    def test_add_isolated(self):
        g = add_isolated(complete(3), 2)
        assert g.n == 5 and g.num_edges() == 3
        assert g.degree(3) == 0 and g.degree(4) == 0

    def test_disjoint_union_offsets(self):
        g = disjoint_union(path(2), path(3))
        assert edge_set(g) == {(0, 1), (2, 3), (3, 4)}


class TestJoin:
    def test_k2_from_singletons(self):
        g = join(complete(1), [0], complete(1), [0])
        assert g.n == 2 and edge_set(g) == {(0, 1)}

    def test_empty_parts_is_disjoint_union(self):
        g = join(path(2), [], path(2), [])
        assert g.num_edges() == 2

    def test_subset_violation(self):
        with raises_input_error("vertex 5 not in 0..1"):
            join(path(2), [5], path(2), [])

    @given(graphs(max_n=5), graphs(max_n=5), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_edge_count_formula(self, g1, g2, rnd):
        h1 = [v for v in range(g1.n) if rnd.random() < 0.5]
        h2 = [v for v in range(g2.n) if rnd.random() < 0.5]
        g = join(g1, h1, g2, h2)
        assert g.num_edges() == (g1.num_edges() + g2.num_edges()
                                 + len(h1) * len(h2))
        # cross edges land exactly on H1 x H2
        for a in h1:
            for b in h2:
                assert g.has_edge(a, g1.n + b)


# every public entry point that takes vertex indices from outside input
VERTEX_INPUTS = {
    "join": lambda g, vs: join(g, vs, g, []),
    "join-h2": lambda g, vs: join(g, [], g, vs),
    "induced_subgraph": induced_subgraph,
    "delete_vertices": delete_vertices,
    "is_independent": is_independent,
    "build_TSk_induced": lambda g, vs: build_TSk_induced(g, 1, vs),
    "extend_with_vG": extend_with_vG,
    "JoinSpec": lambda g, vs: JoinSpec(g, g, vs, [0], 1),
    "JoinSpec-h2": lambda g, vs: JoinSpec(g, g, [0], vs, 1),
}


class TestVertexInputs:
    @pytest.mark.parametrize("v", [4, -1])
    @pytest.mark.parametrize("entry", sorted(VERTEX_INPUTS))
    def test_out_of_range(self, entry, v):
        with raises_input_error(f"vertex {v} not in 0..3"):
            VERTEX_INPUTS[entry](path(4), [0, v])


def reference_members(mask):
    """The set bits of mask, one loop step per bit."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


class TestMembers:
    SPECIAL = [0, 1, 2**128 - 1, 2**128, 2**129 + 1, 2**300 - 1] + [
        mask for b in range(8, 304, 8)
        for mask in (2**b - 1, 2**b, 2**b + 1, 2**(b - 1) | 2**b)]

    def test_special_masks(self):
        for mask in self.SPECIAL:
            assert members(mask) == reference_members(mask), hex(mask)

    def test_random_masks(self):
        rng = random.Random(0x5EED)
        for width in range(301):
            for _ in range(8):
                mask = rng.getrandbits(width)
                assert members(mask) == reference_members(mask), hex(mask)
                sparse = sum(1 << v for v in rng.sample(
                    range(width), min(width, 3)))
                assert members(sparse) == reference_members(sparse)

    def test_neighbors_of_a_128_vertex_graph(self):
        rng = random.Random(128)
        edges = [e for e in combinations(range(WIDTH_MAX), 2)
                 if rng.random() < 0.3] + [(0, WIDTH_MAX - 1)]
        g = make_graph(WIDTH_MAX, edges)
        for v in range(WIDTH_MAX):
            assert g.neighbors(v) == reference_members(g.adjacency_mask(v))
        assert g.edges() == sorted(set(edges))


class TestSubgraphOps:
    def test_induced(self):
        g = induced_subgraph(cycle(5), [0, 1, 2])
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_delete(self):
        g = delete_vertices(complete(4), [0])
        assert g == complete(3)

    def test_relabel_preserves_structure(self):
        g = path(4)
        h = relabel(g, [3, 2, 1, 0])
        assert is_isomorphic(g, h)
        assert edge_set(h) == {(2, 3), (1, 2), (0, 1)}


class TestGraph6:
    @given(graphs(max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, g):
        assert parse_graph6(write_graph6(g)) == g

    @given(graphs(max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_matches_networkx_encoding(self, g):
        ours = write_graph6(g)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert ours == theirs

    def test_parse_networkx_output(self):
        s = nx.to_graph6_bytes(nx.petersen_graph(), header=False).decode().strip()
        g = parse_graph6(s)
        assert g.n == 10 and g.num_edges() == 15

    def test_long_form(self):
        g = path(70)
        assert parse_graph6(write_graph6(g)) == g

    def test_header_is_skipped(self):
        assert parse_graph6(">>graph6<<Bw") == complete(3)

    MALFORMED = {
        "": "empty graph6 string",
        "C": "expected 1 body chars for n=4, got 0",
        "D?": "expected 2 body chars for n=5, got 1",
        "~": "truncated long size field",
        "Bw\x7f": "byte 127 outside graph6 range",
    }

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_malformed(self, bad):
        with raises_input_error(self.MALFORMED[bad]):
            parse_graph6(bad)


class TestJsonAndDot:
    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip(self, g):
        assert graph_from_json(graph_to_json(g)) == g

    def test_json_edges_sorted(self):
        g = make_graph(4, [(2, 3), (0, 1), (1, 2)])
        assert graph_to_json(g)["edges"] == [[0, 1], [1, 2], [2, 3]]

    def test_dot_has_labelled_nodes(self):
        from tokenslide import build_TSk

        ts = build_TSk(complement(example_five_vertex()), 2)
        dot = export_dot(ts)
        for lab in ["12", "15", "23", "25", "34", "45"]:
            assert lab in dot
        assert dot.count(" -- ") == 6

    def test_dot_escapes_names(self):
        g = graph_from_json({"n": 2, "edges": [[0, 1]],
                             "names": ['a"b', "c\\"]})
        dot = export_dot(g)
        assert '  v0 [label="a\\"b"];\n' in dot
        assert '  v1 [label="c\\\\"];\n' in dot


def tree_certificate(n, edges):
    """AHU string of a tree on 0..n-1 rooted at its centre, the lesser of
    the two strings when it has two centres: equal exactly for isomorphic
    trees (Aho, Hopcroft & Ullman 1974)."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    degree = [len(row) for row in adj]
    centres = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:  # peel the leaves, layer by layer
        left -= len(centres)
        inner = []
        for v in centres:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    inner.append(w)
        centres = inner

    def rooted(root):
        order, parent = [root], {root: None}
        for v in order:
            for w in adj[v]:
                if w != parent[v]:
                    parent[w] = v
                    order.append(w)
        kids = {v: [] for v in order}
        for v in reversed(order):
            code = "(" + "".join(sorted(kids[v])) + ")"
            if parent[v] is None:
                return code
            kids[parent[v]].append(code)

    return min(rooted(c) for c in centres)


class TestTreeEnumeration:
    # counts for n = 1..8
    KNOWN = [1, 1, 1, 2, 3, 6, 11, 23]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts(self, n):
        assert len(enumerate_trees(n)) == self.KNOWN[n - 1]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_prufer_oracle(self, n):
        # every labelled tree comes from a Prufer sequence; isomorphic
        # trees are those with equal centred AHU strings
        import itertools

        reps = {tree_certificate(n, nx.from_prufer_sequence(list(seq)).edges())
                for seq in itertools.product(range(n), repeat=n - 2)}
        assert len(enumerate_trees(n)) == len(reps)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_same_labelled_trees_as_networkx(self, n):
        # the graph6 printed for a tree depends on its labelling, so each
        # labelled edge set must be one that networkx yields
        def labelled(trees):
            return sorted(sorted(tuple(sorted(e)) for e in t.edges())
                          for t in trees)

        assert labelled(enumerate_trees(n)) == \
            labelled(nx.nonisomorphic_trees(n))

    def test_all_are_trees_and_distinct(self):
        from tokenslide import canonical_form

        trees = enumerate_trees(7)
        certs = set()
        for t in trees:
            assert t.num_edges() == t.n - 1
            assert nx.is_connected(to_networkx(t))
            certs.add(canonical_form(t))
        assert len(certs) == len(trees)

    def test_sorted_by_certificate(self):
        from tokenslide import canonical_form

        trees = enumerate_trees(8)
        certs = [canonical_form(t) for t in trees]
        assert certs == sorted(certs)

    def test_cap(self):
        with raises_input_error("tree enumeration supports 1..10, got 11"):
            enumerate_trees(11)


class TestGraphEnumeration:
    # OEIS A000088 and A001349
    KNOWN_ALL = [1, 2, 4, 11, 34, 156, 1044]
    KNOWN_CONNECTED = [1, 1, 2, 6, 21, 112, 853]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_counts(self, n):
        assert len(enumerate_graphs(n)) == self.KNOWN_ALL[n - 1]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_connected_counts(self, n):
        assert len(enumerate_connected_graphs(n)) == self.KNOWN_CONNECTED[n - 1]

    # isomorphism invariants the enumeration may test before canonising
    KEEPS = {
        "connected": is_connected,
        "no edges": lambda g: g.num_edges() == 0,
        "6 edges": lambda g: g.num_edges() == 6,
        "10 edges": lambda g: g.num_edges() == 10,
        "5 stable pairs": lambda g: len(independent_sets_of_size(g, 2)) == 5,
        "8 stable pairs": lambda g: len(independent_sets_of_size(g, 2)) == 8,
        "connected planar": lambda g: is_connected(g) and _planar(g.edges()),
    }

    @pytest.mark.parametrize("keep", list(KEEPS))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_filtered_equals_filtered_layer(self, n, keep):
        # same classes, same representatives, same order
        keep = self.KEEPS[keep]
        want = [write_graph6(g) for g in enumerate_graphs(n) if keep(g)]
        assert [write_graph6(g) for g in enumerate_graphs(n, keep)] == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_automorphisms_and_orbit_minima(self, n):
        # the generators against networkx's automorphisms; the orbit
        # minima the full layer keeps, from the labeling searches that
        # canonised its graphs, against all n! permutations
        from tokenslide.enumeration import _graph_layer

        perms = list(permutations(range(n)))
        graphs, minima = _graph_layer(n)
        for p, g in enumerate(graphs):
            check_generators(g)
            edges = edge_set(g)
            auts = [q for q in perms
                    if {tuple(sorted((q[u], q[v]))) for u, v in edges}
                    == edges]
            least = [m for m in range(1 << n)
                     if all(sum(1 << q[v] for v in range(n) if m >> v & 1)
                            >= m for q in auts)]
            assert minima[p] == least

    def test_golden_graph6(self):
        # every representative and its place, n = 1..7
        lines = [write_graph6(g) for n in range(1, 8)
                 for g in enumerate_graphs(n)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "dfcd28ec516307668a9300ef70a1fa1ebc57acadd4598c148d56f67dcbd8670d"

    @pytest.mark.parametrize("n", range(2, 8))
    def test_deletion_test_drops_only_repeats(self, n):
        # every candidate of the unfiltered loop, in order, against the
        # ones _extensions yields: a candidate the deletion test drops
        # has the class of a candidate of an earlier parent, and the
        # first candidate seen of each class is never dropped
        from tokenslide.canon import canonical_form
        from tokenslide.enumeration import _extensions, _graph_layer

        kept = _extensions(n, None)
        nxt = next(kept, None)
        before, current, seen = set(), set(), set()
        drops = 0
        graphs, minima = _graph_layer(n - 1)
        for p, g in enumerate(graphs):
            before |= current
            current = set()
            for nbrs in minima[p]:
                h = make_graph(n, g.edges()
                               + [(v, n - 1) for v in members(nbrs)])
                cert = canonical_form(h)
                if h == nxt:
                    nxt = next(kept, None)
                else:
                    drops += 1
                    assert cert in before
                    assert cert in seen
                seen.add(cert)
                current.add(cert)
        assert nxt is None  # _extensions yields candidates only, in order
        assert drops > 0 or n == 2
        assert len(seen) == self.KNOWN_ALL[n - 1]

    @given(graphs(max_n=6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_deletion_keys_are_invariants_of_subgraphs(self, g, data):
        # the keys that _deletion_keys derives from the parent g for the
        # extension h of g by a new vertex joined to nbrs, one per vertex
        # of g, against the invariants of the subgraphs themselves
        from tokenslide.enumeration import _deletion_keys, _invariant

        nbrs = data.draw(st.integers(0, (1 << g.n) - 1))
        h = make_graph(g.n + 1,
                       g.edges() + [(v, g.n) for v in members(nbrs)])
        assert list(_deletion_keys(g._adj)(nbrs)) == [
            _invariant(delete_vertices(h, [v])._adj) for v in range(g.n)]

    def test_cold_connected_7_search_count(self, monkeypatch):
        # every labeling search of a cold enumerate_connected_graphs(7),
        # parents' automorphism generators included: 1,495, where
        # canonising every candidate that passes is_connected took 5,177
        from tokenslide import canon, enumeration

        searches = []
        labeling_search = canon._labeling_search
        monkeypatch.setattr(canon, "_labeling_search",
                            lambda g: searches.append(g) or labeling_search(g))
        for cache in (enumeration._graph_layer, enumeration._last_parent):
            cache.cache_clear()
        assert len(enumerate_connected_graphs(7)) == 853
        assert len(searches) <= 1600

    @pytest.mark.parametrize("enumerate_7, most", [
        (enumerate_connected_graphs, 1288), (enumerate_graphs, 1491)],
        ids=["connected", "all"])
    def test_cold_search_once_per_candidate(self, monkeypatch, enumerate_7,
                                            most):
        # the search that canonises a parent also gives its automorphism
        # generators, so a cold enumeration searches each canonised
        # candidate once and no graph twice; searching each parent again
        # for its generators made 1,495 and 1,698 searches
        from tokenslide import canon, enumeration

        searches = []
        labeling_search = canon._labeling_search
        monkeypatch.setattr(canon, "_labeling_search",
                            lambda g: searches.append(g) or labeling_search(g))
        for cache in (enumeration._graph_layer, enumeration._last_parent):
            cache.cache_clear()
        enumerate_7(7)
        assert len(searches) == len(set(searches))
        assert len(searches) <= most

    def test_only_parent_layers_keep_orbit_minima(self):
        # a filtered layer and the top layer are never parents, so their
        # graphs' searches are not kept
        from tokenslide.enumeration import _graph_layer, _layer

        assert _layer(6, is_connected)[1] is None
        assert _graph_layer(7)[1] is None
        assert len(_graph_layer(6)[1]) == 156

    def test_four_vertex_connected(self):
        # the six connected graphs on four vertices, pairwise non-isomorphic
        gs = enumerate_connected_graphs(4)
        assert len(gs) == 6
        for i, a in enumerate(gs):
            for b in gs[i + 1:]:
                assert not is_isomorphic(a, b)

    def test_pairwise_noniso_n5(self):
        from tokenslide import canonical_form

        gs = enumerate_graphs(5)
        assert len({canonical_form(g) for g in gs}) == 34

    def test_deterministic(self):
        a = [write_graph6(g) for g in enumerate_graphs(5)]
        b = [write_graph6(g) for g in enumerate_graphs(5)]
        assert a == b

    def test_cap(self):
        with raises_input_error("graph enumeration supports 1..7, got 8"):
            enumerate_graphs(8)

    def test_independent_set_texture(self):
        # spot-check the enumeration against a size invariant: number of
        # graphs on 4 vertices with no stable pair equals 1 (K_4 only)
        hits = [g for g in enumerate_graphs(4) if not brute_stable_sets(g, 2)]
        assert len(hits) == 1
