from itertools import permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenslide import (
    CycleTooSmall,
    IndexOutOfRange,
    LoopEdge,
    MalformedGraph6,
    NExceedsWidth,
    NTooLarge,
    SubsetViolation,
    VertexSet,
    add_isolated,
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
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    is_isomorphic,
    join,
    make_graph,
    parse_graph6,
    path,
    relabel,
    star,
    write_graph6,
)

from conftest import (
    brute_stable_sets,
    diamond,
    edge_set,
    example_five_vertex,
    graphs,
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
        with pytest.raises(IndexOutOfRange):
            make_graph(3, [(0, 3)])

    def test_loop(self):
        with pytest.raises(LoopEdge):
            make_graph(3, [(1, 1)])

    def test_width_cap(self):
        with pytest.raises(NExceedsWidth):
            make_graph(129, [])
        make_graph(128, [])  # at the cap is fine


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
        with pytest.raises(CycleTooSmall):
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
        with pytest.raises(SubsetViolation):
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


class TestVertexSet:
    def test_of_and_members(self):
        s = VertexSet.of([0, 2], 4)
        assert s.members() == (0, 2)
        assert 2 in s and 1 not in s
        assert len(s) == 2

    def test_set_ops(self):
        a = VertexSet.of([0, 1], 4)
        b = VertexSet.of([1, 2], 4)
        assert (a | b).members() == (0, 1, 2)
        assert (a & b).members() == (1,)
        assert (a - b).members() == (0,)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            VertexSet.of([4], 4)


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

    @pytest.mark.parametrize("bad", ["", "C", "D?", "~", "Bw\x7f"])
    def test_malformed(self, bad):
        with pytest.raises(MalformedGraph6):
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


class TestTreeEnumeration:
    # counts for n = 1..8
    KNOWN = [1, 1, 1, 2, 3, 6, 11, 23]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts(self, n):
        assert len(enumerate_trees(n)) == self.KNOWN[n - 1]

    @pytest.mark.parametrize("n", range(2, 8))
    # networkx 3.5 warns that its hashes changed; only their equality is used
    @pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
    def test_prufer_oracle(self, n):
        # every labelled tree comes from a Prufer sequence; dedup by nx iso,
        # comparing only trees with equal Weisfeiler-Lehman hashes (equal
        # for isomorphic trees, so no isomorphic pair is missed)
        import itertools

        reps = []
        buckets = {}
        for seq in itertools.product(range(n), repeat=n - 2):
            t = nx.from_prufer_sequence(list(seq))
            bucket = buckets.setdefault(nx.weisfeiler_lehman_graph_hash(t), [])
            if not any(nx.is_isomorphic(t, r) for r in bucket):
                bucket.append(t)
                reps.append(t)
        assert len(enumerate_trees(n)) == len(reps)

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
        with pytest.raises(NTooLarge):
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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_automorphisms_and_orbit_minima(self, n):
        # networkx counts the automorphisms; the orbit minima are found by
        # trying all n! permutations
        from tokenslide.canon import _automorphisms
        from tokenslide.enumeration import _orbit_minima

        perms = list(permutations(range(n)))
        for g in enumerate_graphs(n):
            nxg = to_networkx(g)
            matcher = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg)
            assert len(_automorphisms(g)) == sum(
                1 for _ in matcher.isomorphisms_iter())
            edges = edge_set(g)
            auts = [p for p in perms
                    if {tuple(sorted((p[u], p[v]))) for u, v in edges}
                    == edges]
            least = [m for m in range(1 << n)
                     if all(sum(1 << p[v] for v in range(n) if m >> v & 1)
                            >= m for p in auts)]
            assert _orbit_minima(g) == least

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
        with pytest.raises(NTooLarge):
            enumerate_graphs(8)

    def test_independent_set_texture(self):
        # spot-check the enumeration against a size invariant: number of
        # graphs on 4 vertices with no stable pair equals 1 (K_4 only)
        hits = [g for g in enumerate_graphs(4) if not brute_stable_sets(g, 2)]
        assert len(hits) == 1
