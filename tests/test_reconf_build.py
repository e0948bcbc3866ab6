import inspect
import random
from itertools import combinations
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenslide import (
    ExplosionCap,
    IndexOutOfRange,
    LabeledGraph,
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
from tokenslide.graph import members

from conftest import (
    brute_all_stable,
    brute_cliques,
    brute_slide_edges,
    brute_stable_sets,
    edge_set,
    example_five_vertex,
    graphs,
    label_set,
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
        relab = {members(m)[0]: i for i, m in enumerate(ts.label_masks())}
        ours = {(min(relab[u], relab[v]), max(relab[u], relab[v]))
                for u, v in edge_set(g)}
        assert ours == set(ts.edges())

    def test_five_vertex_example(self):
        ts = build_TSk(complement(example_five_vertex()), 2)
        labs = {frozenset(members(m)) for m in ts.label_masks()}
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
        tuples = [members(m) for m in ts.label_masks()]
        assert tuples == sorted(tuples)

    def test_fields(self):
        ts = build_TSk(cycle(5), 2)
        assert ts.kind == "TSk" and ts.k == 2
        assert ts.base == cycle(5)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            build_TSk(path(3), 0)

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET", "100")
        with pytest.raises(ExplosionCap):
            build_TSk(make_graph(30, []), 15)


class TestBuildTS:
    def test_k3_triangle(self):
        ts = build_TS(complete(3))
        assert ts.num_nodes() == 3 and ts.num_edges() == 3

    def test_layers_match_tsk(self):
        g = path(5)
        ts = build_TS(g)
        for k in range(1, alpha(g) + 1):
            sub_labels = {frozenset(members(m)) for m in ts.label_masks()
                          if m.bit_count() == k}
            assert sub_labels == labelled_nodes(build_TSk(g, k))

    def test_no_cross_size_edges(self):
        ts = build_TS(path(6))
        masks = ts.label_masks()
        for i, j in ts.edges():
            assert masks[i].bit_count() == masks[j].bit_count()

    def test_layer_sizes(self):
        ts = build_TS(cycle(5))
        assert ts.layer_sizes() == {1: 5, 2: 5}

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_layers_match_stable_families(self, g):
        ts = build_TS(g)
        families = {k: independent_sets_of_size(g, k)
                    for k in range(1, g.n + 1)}
        families = {k: sets for k, sets in families.items() if sets}
        sizes = ts.layer_sizes()
        assert list(sizes) == sorted(families)
        assert sizes == {k: len(sets) for k, sets in families.items()}
        for k, sets in families.items():
            assert tuple(m for m in ts.label_masks()
                         if m.bit_count() == k) == sets

    def test_layers_only_of_ts(self):
        ts = build_TSk(path(5), 2)
        with pytest.raises(ValueError):
            ts.layer_sizes()

    def test_c4_isolated_pair_nodes(self):
        ts = build_TS(cycle(4))
        isolated = [i for i in range(ts.num_nodes()) if ts.degree(i) == 0]
        assert sorted(frozenset(members(ts.label_masks()[i]))
                      for i in isolated) \
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

    @given(graphs(max_n=6), st.integers(min_value=1, max_value=3))
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

    def test_k_below_one(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            build_Lk(path(3), 0)

    @pytest.mark.parametrize("g, k", [
        *((complete(8), k) for k in range(1, 6)),  # groups of 8 - k + 1
        (complete(12), 5),  # 792 nodes in groups of 8
        (cycle(30), 2), (cycle(30), 3), (path(30), 2), (path(30), 3)])
    def test_rows_match_shared_subset_rule(self, g, k):
        # adjacent iff the two k-cliques share k - 1 vertices, row by row
        lk = build_Lk(g, k)
        fam = [frozenset(c) for c in sorted(map(sorted, brute_cliques(g, k)))]
        assert [frozenset(members(m)) for m in lk.label_masks()] == fam
        for i, a in enumerate(fam):
            assert list(lk.neighbors(i)) == [
                j for j, b in enumerate(fam) if len(a & b) == k - 1]


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

    @given(graphs(min_n=1, max_n=7), st.integers(min_value=1, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_against_brute(self, g, k):
        # every k-subset, adjacent iff the symmetric difference is an edge
        if k > g.n:
            return
        fk = build_Fk(g, k)
        subsets = {frozenset(c) for c in combinations(range(g.n), k)}
        assert labelled_nodes(fk) == subsets
        assert labelled_edges(fk) == brute_slide_edges(g, subsets)

    @given(graphs(min_n=2, max_n=6), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_ts_is_subgraph(self, g, k):
        if k > g.n:
            return
        fk = build_Fk(g, k)
        ts = build_TSk(g, k)
        assert labelled_nodes(ts) <= labelled_nodes(fk)
        assert labelled_edges(ts) <= labelled_edges(fk)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_nodes_in_combinations_order(self, n):
        for k in range(1, n + 1):
            want = [sum(1 << v for v in tup)
                    for tup in combinations(range(n), k)]
            assert list(build_Fk(path(n), k).label_masks()) == want

    def test_k_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            build_Fk(path(3), 4)
        with pytest.raises(IndexOutOfRange):
            build_Fk(path(3), 0)

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET", str(10 ** 6))
        with pytest.raises(ExplosionCap):
            build_Fk(complete(28), 14)


def _slide_rule_rows(lg):
    """Upper rows from the slide rule alone: node j > i is in row i iff
    labels i and j differ by one token moved along an edge of the base."""
    sets = [label_set(lg, m) for m in lg.label_masks()]
    where = {s: j for j, s in enumerate(sets)}
    edges = edge_set(lg.base)
    rows = []
    for i, s in enumerate(sets):
        found = {where.get(s ^ {a, b}) for a, b in edges
                 if (a in s) != (b in s)}
        rows.append(tuple(sorted(j for j in found
                                 if j is not None and j > i)))
    return tuple(rows)


def _random_host(n, seed):
    rnd = random.Random(seed)
    p = rnd.uniform(0.25, 0.5)
    return make_graph(n, [e for e in combinations(range(n), 2)
                          if rnd.random() < p])


# hosts of odd size, whose high half (the bits from n // 2 up) is one
# vertex larger than the low half, and of 9 to 13 vertices; two past 64
# vertices, where a mask spans more than one machine word
HALF_HOSTS = [(f"G{n}-{seed}", _random_host(n, seed))
              for n in (5, 7, 9, 10, 11, 12, 13, 15) for seed in (1, 2)]
HALF_HOSTS += [("P70", path(70)), ("C67", cycle(67))]


class TestSlideRowsAcrossTheHalves:
    """Every slide builder's upper rows are the slide rule's, in order,
    on hosts where the half split of _slide_edges matters."""

    def check(self, lg, family):
        from tokenslide.reconf import check_labeled_graph

        check_labeled_graph(lg)
        assert labelled_nodes(lg) == family
        assert lg.upper_rows() == _slide_rule_rows(lg)

    @pytest.mark.parametrize("name,g", HALF_HOSTS,
                             ids=[name for name, _ in HALF_HOSTS])
    def test_builders_follow_the_slide_rule(self, name, g):
        high = range(g.n // 2, g.n)
        for k in (1, 2) if g.n > 15 else (1, 2, 3, 4):
            family = brute_stable_sets(g, k)
            self.check(build_TSk(g, k), family)
            self.check(build_TSk_induced(g, k, high),
                       {s for s in family if min(s) >= g.n // 2})
            if k <= 3:
                self.check(build_Fk(g, k), {
                    frozenset(c) for c in combinations(range(g.n), k)})
        if g.n <= 15:
            self.check(build_TS(g), brute_all_stable(g))


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

    @given(graphs(min_n=2, max_n=7), st.integers(min_value=1, max_value=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_restricts_the_full_build(self, g, k, rnd):
        # the same masks as TS_k(g) keeps inside the region, in its
        # order, and exactly the edges TS_k(g) has between them
        region = rnd.sample(range(g.n), rnd.randint(1, g.n))
        sub = build_TSk_induced(g, k, region)
        full = build_TSk(g, k)
        kept = [i for i, m in enumerate(full.label_masks())
                if set(members(m)) <= set(region)]
        pos = {i: p for p, i in enumerate(kept)}
        assert sub.label_masks() == tuple(full.label_masks()[i]
                                          for i in kept)
        assert sub.edges() == [(pos[i], pos[j]) for i, j in full.edges()
                               if i in pos and j in pos]
        assert sub.base is g and sub.k == k and sub.kind == "TSk"

    def test_budget_counts_the_region(self, monkeypatch):
        g, region = cycle(12), range(7)
        size = build_TSk_induced(g, 3, region).num_nodes()
        assert 0 < size < build_TSk(g, 3).num_nodes()
        monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET", str(size))
        assert build_TSk_induced(g, 3, region).num_nodes() == size
        monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET", str(size - 1))
        with pytest.raises(ExplosionCap):
            build_TSk_induced(g, 3, region)

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
        labels = [0b001, 0b001]
        with pytest.raises(Exception):
            LabeledGraph("Abstract", base, labels, [(), ()])

    @pytest.mark.parametrize("base,labels,message", [
        (path(3), [1 | 1 << 9, 0b10], "not a set of the base's vertices"),
        (path(4), [(0b0001, 0b0100), (0b0010, 0b1000)], "int masks"),
        (path(3), [0b001, 0b1000], "not a set of the base's vertices"),
        (path(3), [0b001, -1], "not a set of the base's vertices"),
        (path(3), [True, 0b100], "int masks"),
        (path(3), [(0,), (2,)], "int masks"),
        (None, [0b001, 0b100], "int masks"),
    ], ids=["other-hosts", "pairs", "masks", "negative", "bool", "tuple",
            "no-base"])
    def test_labels_must_be_vertex_sets_of_the_base(self, base, labels,
                                                     message):
        with pytest.raises(ValueError, match=message):
            LabeledGraph("Abstract", base, labels, [[1], []])

    @pytest.mark.parametrize("base,labels", [
        (path(3), ((0,), (2,))),
        (path(3), (True, 0b100)),
        (None, (0b001, 0b100)),
    ], ids=["tuple", "bool", "no-base"])
    def test_check_rejects_unchecked_labels(self, base, labels):
        # the checker alone, on a graph that skipped the constructor
        from tokenslide.reconf import check_labeled_graph

        lg = LabeledGraph._unchecked("Abstract", base, labels, ((1,), ()))
        with pytest.raises(ValueError,
                           match="labels must be int masks over the base"):
            check_labeled_graph(lg)

    def test_constructor_and_unchecked_take_the_same_parameters(self):
        assert inspect.signature(LabeledGraph) \
            == inspect.signature(LabeledGraph._unchecked)
        assert list(inspect.signature(LabeledGraph).parameters) \
            == ["kind", "base", "masks", "up", "k"]

    def test_constructor_keeps_the_upper_rows(self):
        lg = LabeledGraph("Abstract", path(3), [0b001, 0b010, 0b100],
                          [[1, 2], [2], []])
        assert lg.label_masks() == (1, 2, 4)
        assert lg.upper_rows() == ((1, 2), (2,), ())
        assert [lg.neighbors(i) for i in range(3)] \
            == [(1, 2), (0, 2), (0, 1)]

    def test_constructor_rejects_a_row_that_is_not_upper(self):
        with pytest.raises(ValueError, match="upper row 1 holds earlier"):
            LabeledGraph("Abstract", path(2), [1, 2], [[1], [0]])

    @pytest.mark.parametrize("up", [[[True], []], [[1.0], []]],
                             ids=["bool", "float"])
    def test_constructor_rejects_an_entry_that_is_not_an_int(self, up):
        # each equals the int 1, but would not print as it
        with pytest.raises(ValueError, match="upper row 0 holds an entry "
                                             "that is not an int node index"):
            LabeledGraph("Abstract", path(2), [1, 2], up)

    def test_labels_must_be_independent_for_tsk(self):
        base = path(2)
        labels = [0b11]
        with pytest.raises(Exception):
            LabeledGraph("TSk", base, labels, [()], k=2)


class TestLabeledJson:
    def test_shape(self):
        ts = build_TSk(path(5), 2)
        js = labeled_to_json(ts)
        assert js["kind"] == "TSk"
        assert js["base"]["n"] == 5
        assert len(js["nodes"]) == ts.num_nodes()
        assert len(js["edges"]) == ts.num_edges()
        assert all(a < b for a, b in js["edges"])


def _brute_rows(lg):
    """Whole adjacency rows of lg from all pairs of its labels: one element
    swapped for another (Lk, Flip), or one token slid along an edge of the
    base (the others; in the two products built below, a move of one
    factor is exactly a slide between the unions)."""
    masks = lg.label_masks()
    swap = lg.kind in ("Lk", "Flip")
    return [tuple(j for j, b in enumerate(masks)
                  if (a ^ b).bit_count() == 2
                  and (swap or lg.base.has_edge(*members(a ^ b))))
            for a in masks]


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
            # whole rows, derived from the stored upper rows, are the
            # brute-force symmetric rows of the graph's labels
            assert [lg.neighbors(i) for i in range(lg.num_nodes())] \
                == _brute_rows(lg)

    def test_check_rejects_an_unsorted_row(self):
        from tokenslide.reconf import check_labeled_graph

        base = make_graph(3, [])
        lg = LabeledGraph._unchecked("Abstract", base, (1, 2, 4),
                                     ((2, 1), (), ()))
        with pytest.raises(ValueError, match="not sorted"):
            check_labeled_graph(lg)

    @pytest.mark.parametrize("up,message", [
        (((1,), (1,), ()), "loop at node 1"),
        (((1, 2), (0,), ()), "upper row 1 holds earlier node 0"),
        (((1,), (2,), (0,)), "upper row 2 holds earlier node 0"),
        (((1, 3), (), ()), "holds node 3, past the last node"),
        (((1, 1), (), ()), "repeats a node"),
    ], ids=["loop", "mirrored", "back-edge", "out-of-range", "repeat"])
    def test_check_rejects_a_row_that_is_not_upper(self, up, message):
        from tokenslide.reconf import check_labeled_graph

        lg = LabeledGraph._unchecked("Abstract", make_graph(3, []),
                                     (1, 2, 4), up)
        with pytest.raises(ValueError, match=message):
            check_labeled_graph(lg)
