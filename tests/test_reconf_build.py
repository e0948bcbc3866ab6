from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenslide import (
    ExplosionCap,
    IndexOutOfRange,
    LabeledGraph,
    VertexSet,
    add_isolated,
    alpha,
    build_Fk,
    build_Lk,
    build_TS,
    build_TSk,
    build_TSk_induced,
    clique_number,
    complement,
    complete,
    cycle,
    disjoint_union,
    extend_with_vG,
    independent_sets_of_size,
    induced_subgraph,
    is_isomorphic,
    labeled_to_json,
    make_graph,
    omega,
    path,
)

from conftest import (
    brute_cliques,
    brute_slide_edges,
    brute_stable_sets,
    edge_set,
    example_five_vertex,
    graphs,
    labelled_edges,
    labelled_nodes,
    to_networkx,
)

# a hand-checked reference drawing of TS_3(P_8): 20 triples and 30 edges, 1-indexed
REF_TS3_P8_NODES = [
    "135", "136", "137", "138", "146", "147", "148", "157", "158", "168",
    "246", "247", "248", "257", "258", "268", "357", "358", "368", "468",
]
REF_TS3_P8_EDGES = [
    (0, 1), (1, 2), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (4, 10), (5, 6),
    (5, 7), (5, 11), (6, 8), (6, 12), (7, 8), (7, 13), (8, 9), (8, 14),
    (9, 15), (10, 11), (11, 12), (11, 13), (12, 14), (13, 14), (13, 16),
    (14, 15), (14, 17), (15, 18), (16, 17), (17, 18), (18, 19),
]


def triple(label):
    return frozenset(int(c) - 1 for c in label)


class TestBuildTSk:
    @given(graphs(max_n=6), st.integers(min_value=1, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_against_brute(self, g, k):
        ts = build_TSk(g, k)
        assert labelled_nodes(ts) == brute_stable_sets(g, k)
        assert labelled_edges(ts) == brute_slide_edges(g, brute_stable_sets(g, k))

    @given(graphs(min_n=1, max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_ts1_is_host(self, g):
        ts = build_TSk(g, 1)
        assert ts.num_nodes() == g.n
        relab = {ts.label(i).members()[0]: i for i in range(ts.num_nodes())}
        ours = {(min(relab[u], relab[v]), max(relab[u], relab[v]))
                for u, v in edge_set(g)}
        assert ours == set(ts.edges())

    def test_five_vertex_example(self):
        ts = build_TSk(complement(example_five_vertex()), 2)
        labs = {frozenset(ts.label(i).members())
                for i in range(ts.num_nodes())}
        assert labs == {triple(x) for x in
                        ["12", "15", "23", "25", "34", "45"]}
        assert labelled_edges(ts) == {
            frozenset((triple(a), triple(b)))
            for a, b in [("12", "23"), ("23", "34"), ("23", "25"),
                         ("34", "45"), ("45", "15"), ("45", "25")]}

    def test_ts3_p8_reference_drawing(self):
        ts = build_TSk(path(8), 3)
        want_nodes = [triple(s) for s in REF_TS3_P8_NODES]
        assert labelled_nodes(ts) == set(want_nodes)
        want_edges = {frozenset((want_nodes[i], want_nodes[j]))
                      for i, j in REF_TS3_P8_EDGES}
        assert labelled_edges(ts) == want_edges

    def test_node_order_lexicographic(self):
        ts = build_TSk(path(7), 2)
        tuples = [ts.label(i).members() for i in range(ts.num_nodes())]
        assert tuples == sorted(tuples)

    def test_fields(self):
        ts = build_TSk(cycle(5), 2)
        assert ts.kind == "TSk" and ts.k == 2
        assert ts.base == cycle(5)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            build_TSk(path(3), 0)

    def test_budget(self):
        with pytest.raises(ExplosionCap):
            build_TSk(make_graph(30, []), 15, budget=100)


class TestBuildTS:
    def test_k3_triangle(self):
        ts = build_TS(complete(3))
        assert ts.num_nodes() == 3 and ts.num_edges() == 3

    def test_layers_match_tsk(self):
        g = path(5)
        ts = build_TS(g)
        for k in range(1, alpha(g) + 1):
            layer = ts.layer(k)
            sub_labels = {frozenset(ts.label(i).members()) for i in layer}
            assert sub_labels == labelled_nodes(build_TSk(g, k))

    def test_no_cross_size_edges(self):
        ts = build_TS(path(6))
        for i, j in ts.edges():
            assert len(ts.label(i)) == len(ts.label(j))

    def test_layer_sizes(self):
        ts = build_TS(cycle(5))
        assert ts.layer_sizes() == {1: 5, 2: 5}

    def test_c4_isolated_pair_nodes(self):
        ts = build_TS(cycle(4))
        isolated = [i for i in range(ts.num_nodes()) if ts.degree(i) == 0]
        assert sorted(frozenset(ts.label(i).members()) for i in isolated) \
            == sorted([frozenset((0, 2)), frozenset((1, 3))])

    def test_p4_brute(self):
        g = path(4)
        ts = build_TS(g)
        want = set()
        for k in (1, 2):
            want |= brute_stable_sets(g, k)
        assert labelled_nodes(ts) == want
        assert labelled_edges(ts) == brute_slide_edges(g, want)


class TestBuildLk:
    def test_l1_is_complete(self):
        # size-1 cliques share zero vertices, so every pair is adjacent
        lk = build_Lk(path(4), 1)
        assert lk.num_nodes() == 4
        assert lk.num_edges() == 6

    def test_five_vertex_line_graph(self):
        lk = build_Lk(example_five_vertex(), 2)
        assert lk.num_nodes() == 6 and lk.num_edges() == 9

    def test_l2_k3(self):
        assert is_isomorphic(build_Lk(complete(3), 2), complete(3))

    def test_l2_p4(self):
        assert is_isomorphic(build_Lk(path(4), 2), path(3))

    @given(graphs(min_n=2, max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_l2_matches_networkx_line_graph(self, g):
        lk = build_Lk(g, 2)
        lg = nx.line_graph(to_networkx(g))
        assert lk.num_nodes() == lg.number_of_nodes()
        assert lk.num_edges() == lg.number_of_edges()
        if lg.number_of_nodes():
            ours = nx.Graph()
            ours.add_nodes_from(range(lk.num_nodes()))
            ours.add_edges_from(lk.edges())
            assert nx.is_isomorphic(ours, lg)

    @given(graphs(max_n=6), st.integers(min_value=2, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_against_brute(self, g, k):
        lk = build_Lk(g, k)
        want_nodes = brute_cliques(g, k)
        assert labelled_nodes(lk) == want_nodes
        fam = sorted(want_nodes, key=sorted)
        want_edges = {frozenset((a, b))
                      for i, a in enumerate(fam) for b in fam[i + 1:]
                      if len(a & b) == k - 1}
        assert labelled_edges(lk) == want_edges


class TestBuildFk:
    def test_f1_is_host(self):
        g = example_five_vertex()
        fk = build_Fk(g, 1)
        assert is_isomorphic(fk, g)

    def test_f2_p3(self):
        fk = build_Fk(path(3), 2)
        assert fk.num_nodes() == 3 and fk.num_edges() == 2

    def test_f2_k4_is_octahedron(self):
        fk = build_Fk(complete(4), 2)
        assert fk.num_nodes() == 6 and fk.num_edges() == 12
        octa = complement(disjoint_union(
            disjoint_union(complete(2), complete(2)), complete(2)))
        assert is_isomorphic(fk, octa)

    @given(graphs(min_n=2, max_n=6), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_ts_is_subgraph(self, g, k):
        if k > g.n:
            return
        fk = build_Fk(g, k)
        ts = build_TSk(g, k)
        assert labelled_nodes(ts) <= labelled_nodes(fk)
        assert labelled_edges(ts) <= labelled_edges(fk)

    def test_k_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            build_Fk(path(3), 4)
        with pytest.raises(IndexOutOfRange):
            build_Fk(path(3), 0)

    def test_budget(self):
        with pytest.raises(ExplosionCap):
            build_Fk(complete(28), 14, budget=10 ** 6)


class TestInducedLaw:
    @given(graphs(min_n=2, max_n=6), st.integers(min_value=1, max_value=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_induced_subgraph_law(self, g, k, rnd):
        keep = sorted(rnd.sample(range(g.n), rnd.randint(1, g.n)))
        sub = build_TSk_induced(g, k, keep)
        # node labels are exactly the stable k-sets inside the kept set
        want = {s for s in brute_stable_sets(g, k) if s <= set(keep)}
        assert labelled_nodes(sub) == want
        # and the edges are induced from the host reconfiguration graph
        full_edges = brute_slide_edges(g, brute_stable_sets(g, k))
        assert labelled_edges(sub) == {e for e in full_edges
                                       if all(s in want for s in e)}

    def test_matches_standalone_build(self):
        g = cycle(6)
        sub = build_TSk_induced(g, 2, [0, 1, 2, 3])
        direct = build_TSk(induced_subgraph(g, [0, 1, 2, 3]), 2)
        assert sub.num_nodes() == direct.num_nodes()
        assert sub.num_edges() == direct.num_edges()


class TestPaddingLaw:
    @given(graphs(min_n=2, max_n=5), st.integers(min_value=1, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_pad_shifts_size(self, g, extra):
        a = alpha(g)
        if a == 0:
            return
        k = a + extra
        padded = add_isolated(g, k - a)
        assert is_isomorphic(build_TSk(padded, k), build_TSk(g, a))


class TestAddVgLaw:
    @given(graphs(min_n=2, max_n=6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_one_extra_node(self, g, rnd):
        sets = sorted(brute_stable_sets(g, 2), key=sorted)
        if not sets:
            return
        members = sorted(rnd.choice(sets))
        ext = extend_with_vG(g, members)
        assert ext.n == g.n + 1
        before = labelled_nodes(build_TSk(g, 3))
        after = labelled_nodes(build_TSk(ext, 3))
        assert after - before == {frozenset(members) | {g.n}}
        assert before <= after


class TestCliqueLifting:
    def test_triangles_lift(self):
        from tokenslide import enumerate_graphs

        for n in range(2, 6):
            for g in enumerate_graphs(n):
                for k in (2, 3):
                    ts = build_TSk(g, k)
                    w = clique_number(ts)
                    assert w <= max(2, omega(g))
                    if w >= 3:
                        assert omega(g) >= 3


class TestLabeledGraphValidation:
    def test_duplicate_labels_rejected(self):
        base = path(3)
        labels = [VertexSet.of([0], 3), VertexSet.of([0], 3)]
        with pytest.raises(Exception):
            LabeledGraph("Abstract", base, labels, [set(), set()])

    def test_labels_must_be_independent_for_tsk(self):
        base = path(2)
        labels = [VertexSet.of([0, 1], 2)]
        with pytest.raises(Exception):
            LabeledGraph("TSk", base, labels, [set()], k=2)


class TestLabeledJson:
    def test_shape(self):
        ts = build_TSk(path(5), 2)
        js = labeled_to_json(ts)
        assert js["kind"] == "TSk"
        assert js["base"]["n"] == 5
        assert len(js["nodes"]) == ts.num_nodes()
        assert len(js["edges"]) == ts.num_edges()
        assert all(a < b for a, b in js["edges"])


class TestBuilderInvariants:
    """The builders skip LabeledGraph's checks; their output passes them."""

    def test_every_builder_output_is_well_formed(self):
        from tokenslide import (JoinSpec, NoStableSetOfSizeK, decompose_join,
                                enumerate_graphs, flip_graph)
        from tokenslide.decompose import product
        from tokenslide.reconf import check_labeled_graph

        built = []
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                built.append(build_TS(g))
                for k in range(1, 4):
                    built += [build_TSk(g, k), build_Lk(g, k),
                              build_TSk_induced(g, k, range(1, n))]
                    if k <= n:
                        built.append(build_Fk(g, k))
        # distinct bases, and one base with disjoint label ranges
        built.append(product(build_TSk(path(4), 2), build_TSk(cycle(5), 2)))
        built.append(product(build_TSk_induced(path(6), 1, range(3)),
                             build_TSk_induced(path(6), 2, range(3, 6))))
        for g1 in enumerate_graphs(3):
            for g2 in enumerate_graphs(4):
                try:
                    dec = decompose_join(JoinSpec(g1, g2, [0, 2], [1], 2))
                except NoStableSetOfSizeK:
                    continue
                built += [dec.full, *dec.parts]
        built.append(flip_graph([(x, x * x) for x in range(6)]))  # convex
        assert built[-1].num_nodes() == 14  # Catalan(4)
        for lg in built:
            check_labeled_graph(lg)

    def test_check_rejects_an_unsorted_row(self):
        from tokenslide.reconf import check_labeled_graph

        base = make_graph(3, [])
        lg = LabeledGraph._unchecked("Abstract", base, ((2, 1), (0,), (0,)),
                                     masks=(1, 2, 4))
        with pytest.raises(ValueError, match="not sorted"):
            check_labeled_graph(lg)
