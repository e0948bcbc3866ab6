from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenslide import (
    ExplosionCap,
    NotSplit,
    all_independent_sets,
    alpha,
    build_Lk,
    build_TS,
    build_TSk,
    cliques_of_size,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    edge_intersection_graph,
    enumerate_graphs,
    independent_sets_of_size,
    is_independent,
    is_isomorphic,
    kmax_partition,
    make_graph,
    omega,
    path,
    star,
)
from tokenslide.config import node_budget
from tokenslide.graph import members
from tokenslide.stable import _count_stable_masks

from conftest import (
    brute_alpha,
    brute_all_stable,
    brute_cliques,
    brute_stable_sets,
    edge_set,
    graphs,
    raises_input_error,
)


class TestIsIndependent:
    def test_c5_pair(self):
        assert is_independent(cycle(5), [0, 2])

    def test_k3_pair(self):
        assert not is_independent(complete(3), [0, 1])

    def test_empty(self):
        assert is_independent(complete(3), [])

    def test_subset_violation(self):
        with raises_input_error("vertex 3 not in 0..2"):
            is_independent(complete(3), [3])

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_against_brute(self, g):
        fam = brute_stable_sets(g, 2)
        for a in range(g.n):
            for b in range(a + 1, g.n):
                assert is_independent(g, [a, b]) == (frozenset((a, b)) in fam)


class TestIndependentSetsOfSize:
    def test_p8_triples(self):
        assert len(independent_sets_of_size(path(8), 3)) == 20

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (7, 3)])
    def test_path_count_formula(self, n, k):
        assert len(independent_sets_of_size(path(n), k)) == comb(n - k + 1, k)

    def test_clique_has_no_pairs(self):
        assert len(independent_sets_of_size(complete(4), 2)) == 0

    def test_k_above_n_empty(self):
        assert len(independent_sets_of_size(path(3), 7)) == 0

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            independent_sets_of_size(path(3), 0)

    def test_order_lexicographic(self):
        fam = independent_sets_of_size(path(6), 2)
        tuples = [members(m) for m in fam]
        assert tuples == sorted(tuples)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_against_brute(self, g):
        for k in (1, 2, 3):
            ours = {frozenset(members(m))
                    for m in independent_sets_of_size(g, k)}
            assert ours == brute_stable_sets(g, k)

    def test_members_are_independent(self):
        g = cycle(9)
        for m in independent_sets_of_size(g, 4):
            assert is_independent(g, members(m))

    def test_alpha_boundary(self):
        g = cycle(7)
        a = alpha(g)
        assert len(independent_sets_of_size(g, a)) >= 1
        assert len(independent_sets_of_size(g, a + 1)) == 0

    @given(graphs(max_n=12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_filtered_combinations_in_order(self, g, data):
        # the counting bound may cut branches but never a set or the order
        k = data.draw(st.integers(min_value=1, max_value=alpha(g) + 1))
        edges = edge_set(g)
        want = [c for c in combinations(range(g.n), k)
                if not any(p in edges for p in combinations(c, 2))]
        got = [members(m) for m in independent_sets_of_size(g, k)]
        assert got == want

    def test_budget_counts_every_set_when_the_bound_prunes(
            self, monkeypatch):
        # the crossing graph of 8 points in convex position, where 213
        # branches run out of admissible vertices before their last pick
        g = edge_intersection_graph([(x, x * x) for x in range(8)]).graph
        a = alpha(g)
        count = len(independent_sets_of_size(g, a))
        assert count == 132  # Catalan(6) triangulations of the octagon
        monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET", str(count))
        assert len(independent_sets_of_size(g, a)) == count
        monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET", str(count - 1))
        with pytest.raises(ExplosionCap):
            independent_sets_of_size(g, a)


class TestCountStableMasks:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_length_of_enumeration(self, n):
        # every graph on n vertices, every k, past alpha too
        for g in enumerate_graphs(n):
            for k in range(1, n + 2):
                assert (_count_stable_masks(g._adj, k, node_budget())
                        == len(independent_sets_of_size(g, k)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_cap_as_the_enumeration(self, monkeypatch, n):
        # with the budget at the count the enumeration lists its sets,
        # one below it raises; the counter does the same with that cap
        for g in enumerate_graphs(n):
            for k in range(1, n + 1):
                monkeypatch.delenv("TOKENSLIDE_NODE_BUDGET", raising=False)
                count = len(independent_sets_of_size(g, k))
                if count == 0:
                    continue
                monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET", str(count))
                assert len(independent_sets_of_size(g, k)) == count
                assert _count_stable_masks(g._adj, k, count) == count
                if count > 1:
                    monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET",
                                       str(count - 1))
                    with pytest.raises(ExplosionCap):
                        independent_sets_of_size(g, k)
                    with pytest.raises(ExplosionCap):
                        _count_stable_masks(g._adj, k, count - 1)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            _count_stable_masks(cycle(4)._adj, 0, node_budget())


class TestAllIndependentSets:
    def test_c4_count(self):
        # 4 singletons plus the two diagonal pairs
        fam = all_independent_sets(cycle(4))
        assert len(fam) == 6
        assert len(brute_all_stable(cycle(4))) == 6

    def test_complete_only_singletons(self):
        assert len(all_independent_sets(complete(5))) == 5

    def test_edgeless(self):
        assert len(all_independent_sets(make_graph(3, []))) == 7

    @given(graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_against_brute(self, g):
        ours = {frozenset(members(m)) for m in all_independent_sets(g)}
        assert ours == brute_all_stable(g)

    @pytest.mark.parametrize("budget, n", [("4", 6), ("1000", 24)])
    def test_budget_env_var(self, monkeypatch, budget, n):
        monkeypatch.setenv("TOKENSLIDE_NODE_BUDGET", budget)
        with pytest.raises(ExplosionCap):
            all_independent_sets(make_graph(n, []))


class TestAlphaOmega:
    def test_c7(self):
        assert alpha(cycle(7)) == 3

    def test_k5(self):
        assert omega(complete(5)) == 5

    def test_bipartite(self):
        assert alpha(complete_bipartite(3, 4)) == 4
        assert omega(complete_bipartite(3, 4)) == 2

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_alpha_against_brute(self, g):
        assert alpha(g) == brute_alpha(g)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_omega_is_complement_alpha(self, g):
        assert omega(g) == alpha(complement(g))


class TestCliquesOfSize:
    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_against_brute(self, g):
        for k in (1, 2, 3):
            ours = {frozenset(members(m)) for m in cliques_of_size(g, k)}
            assert ours == brute_cliques(g, k)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            cliques_of_size(path(3), 0)


def split_graphs_upto(n_max):
    from tokenslide import enumerate_graphs

    for n in range(1, n_max + 1):
        for g in enumerate_graphs(n):
            try:
                yield g, kmax_partition(g)
            except NotSplit:
                continue


class TestKmaxPartition:
    def test_triangle_with_pendant(self):
        g = make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        p = kmax_partition(g)
        assert members(p.K) == (0, 1, 2)
        assert members(p.S) == (3,)

    def test_complete(self):
        p = kmax_partition(complete(4))
        assert members(p.K) == (0, 1, 2, 3)
        assert members(p.S) == ()

    def test_star_tie_break(self):
        # omega = 2 and every edge is a maximum clique; the partition picks
        # the lexicographically least one
        p = kmax_partition(star(3))
        assert members(p.K) == (0, 1)

    @pytest.mark.parametrize("g,kind", [
        (cycle(4), "C_4"),
        (cycle(5), "C_5"),
        (disjoint_union(path(2), path(2)), "2K_2"),
    ])
    def test_not_split_certificates(self, g, kind):
        with pytest.raises(NotSplit) as err:
            kmax_partition(g)
        cert = err.value.certificate
        assert cert is not None
        # the certificate induces one of the three forbidden graphs
        induced = [(a, b) for a, b in g.edges() if a in cert and b in cert]
        degs = {v: sum(v in e for e in induced) for v in cert}
        if len(cert) == 4 and len(induced) == 2:
            assert set(degs.values()) == {1}  # 2K_2
        elif len(cert) == 4 and len(induced) == 4:
            assert set(degs.values()) == {2}  # C_4
        else:
            assert len(cert) == 5 and len(induced) == 5
            assert set(degs.values()) == {2}  # C_5

    def test_partition_invariants_sweep(self):
        from tokenslide import is_independent as indep

        seen = 0
        for g, p in split_graphs_upto(6):
            seen += 1
            assert (p.K | p.S) == (1 << g.n) - 1
            assert p.K & p.S == 0
            assert p.K.bit_count() == omega(g)
            assert indep(g, members(p.S))
            for a in members(p.K):
                for b in members(p.K):
                    if a < b:
                        assert g.has_edge(a, b)
        assert seen > 50  # split graphs are plentiful at this scale

    def test_kmax_ties_exist(self):
        # the K side is unique in size but not always as a set: P_3 has two
        # maximum cliques, so "the" K-max partition needs a tie-break rule
        g = path(3)
        cliques = [members(c) for c in cliques_of_size(g, 2)]
        assert len(cliques) == 2
        assert members(kmax_partition(g).K) == (0, 1)


class TestMaskTuples:
    @given(graphs(max_n=9), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_same_masks_as_the_builders(self, g, k):
        # the families are the slide graphs' node masks, in node order
        for fam, lab in [(independent_sets_of_size(g, k), build_TSk(g, k)),
                         (all_independent_sets(g), build_TS(g)),
                         (cliques_of_size(g, k), build_Lk(g, k))]:
            assert type(fam) is tuple
            assert all(type(m) is int for m in fam)
            assert fam == lab.label_masks()
