import pytest

from tokenslide import (
    InputError,
    NoneUpTo,
    NotSplit,
    Realization,
    add_isolated,
    build_TSk,
    complete,
    complete_bipartite,
    complete_minus_edge,
    components,
    cycle,
    disjoint_union,
    extend_with_vG,
    is_isomorphic,
    make_graph,
    path,
    realize_complete,
    realize_cycle,
    realize_disjoint_union,
    realize_path,
    realize_split,
    realize_star,
    search_realizer,
    split_realizable,
    star,
)

from tokenslide import realize
from conftest import diamond, labelled_nodes, paw, raises_input_error


def check(r, target, k, base_n, base_m):
    assert r.k == k
    assert r.base.n == base_n
    assert r.base.num_edges() == base_m
    # Realization verifies its own witness; re-derive the isomorphism
    # through the generic checker as a second route
    assert is_isomorphic(build_TSk(r.base, k), target)


class TestFamilyConstructors:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("k", range(2, 6))
    def test_complete(self, n, k):
        check(realize_complete(n, k), complete(n), k,
              n + k - 1, n * (n - 1) // 2)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("k", range(2, 6))
    def test_path(self, n, k):
        check(realize_path(n, k), path(n), k, n + k - 1, n * (n - 1) // 2)

    @pytest.mark.parametrize("n", range(4, 9))
    @pytest.mark.parametrize("k", range(2, 6))
    def test_cycle(self, n, k):
        check(realize_cycle(n, k), cycle(n), k, n + k - 2, n * (n - 3) // 2)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_triangle_falls_back_to_complete(self, k):
        # complement(C_3) is edgeless, so the C_n construction degenerates
        check(realize_cycle(3, k), cycle(3), k, k + 2, 3)

    @pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (2, 3), (3, 3),
                                     (4, 4), (5, 5)])
    def test_star(self, n, k):
        check(realize_star(n, k), star(n), k, n + k, n * (n + 1) // 2)

    def test_parameter_errors(self):
        with pytest.raises(InputError):
            realize_complete(1, 2)
        with pytest.raises(InputError):
            realize_complete(3, 1)
        with pytest.raises(InputError):
            realize_path(0, 2)
        with raises_input_error("cycle needs n >= 3, got 2"):
            realize_cycle(2, 3)
        with raises_input_error("star needs n <= k, got n=4, k=3"):
            realize_star(4, 3)
        with pytest.raises(InputError):
            realize_star(2, 1)


class TestSplit:
    def test_complete_target(self):
        for k in (2, 3):
            r = realize_split(complete(4), k)
            check(r, complete(4), k, 4 + k - 1, 6)

    def test_paw_target(self):
        r = realize_split(paw(), 2)
        check(r, paw(), 2, 5, 6)

    def test_star_needs_large_k(self):
        r = realize_split(star(3), 3)
        check(r, star(3), 3, 3 + 1 + 2, 3 + 0 + 3)
        with raises_input_error(
                "clique vertex 0 has 2 stable-side neighbors, limit is 1"):
            realize_split(star(3), 2)

    def test_realizable_predicate(self):
        assert split_realizable(star(3), 2) is False
        assert split_realizable(star(3), 3) is True
        assert split_realizable(complete(4), 2) is True
        assert split_realizable(complete(4), 5) is True

    def test_rejects_non_split(self):
        with pytest.raises(NotSplit):
            split_realizable(cycle(4), 2)
        with pytest.raises(NotSplit):
            realize_split(cycle(5), 2)

    def test_rejects_disconnected(self):
        with raises_input_error("graph is not connected"):
            split_realizable(disjoint_union(complete(2), complete(2)), 2)

    def test_stable_degree_condition(self):
        # the diamond is split (K = {0,1,2}, S = {3}), but its stable
        # vertex has two clique neighbors instead of one
        assert split_realizable(diamond(), 3) is False
        with raises_input_error(
                "stable vertex 3 has degree 2, needs exactly 1"):
            realize_split(diamond(), 3)


class TestExtendWithDominatingVertex:
    def test_path_from_edge(self):
        g = extend_with_vG(path(2), [0])
        assert g.n == 3
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_adds_exactly_one_slide_node(self):
        g = cycle(6)
        ind = [0, 2]
        before = labelled_nodes(build_TSk(g, 3))
        after = labelled_nodes(build_TSk(extend_with_vG(g, ind), 3))
        assert after - before == {frozenset([0, 2, 6])}

    def test_rejects_dependent_set(self):
        with raises_input_error("[0, 1] is not independent"):
            extend_with_vG(path(2), [0, 1])


class TestDisjointUnion:
    def test_two_edges(self):
        r = realize_disjoint_union(
            [realize_complete(2, 2), realize_complete(2, 2)], 2)
        assert is_isomorphic(r.target,
                             disjoint_union(complete(2), complete(2)))
        assert r.base.n == 6

    def test_mixed_parts(self):
        r = realize_disjoint_union(
            [realize_path(3, 2), realize_cycle(4, 2)], 2)
        assert r.target.n == 7
        assert is_isomorphic(build_TSk(r.base, 2), r.target)

    def test_single_part_passthrough(self):
        p = realize_path(4, 3)
        assert realize_disjoint_union([p], 3) is p

    def test_k_mismatch(self):
        with raises_input_error("part 1 has k=3, expected 2"):
            realize_disjoint_union(
                [realize_path(3, 2), realize_path(3, 3)], 2)

    def test_empty(self):
        with pytest.raises(InputError):
            realize_disjoint_union([], 2)


class TestSearch:
    def test_finds_small_base(self):
        r = search_realizer(path(3), 2, 4)
        assert isinstance(r, Realization)
        assert r.base.n == 4
        assert is_isomorphic(build_TSk(r.base, 2), path(3))

    def test_trivial_target(self):
        r = search_realizer(complete(1), 1, 1)
        assert r.base.n == 1
        assert r.witness_iso == (0,)

    @pytest.mark.parametrize("target", [paw(), path(4), cycle(4),
                                        complete(4)])
    def test_four_vertex_positives(self, target):
        r = search_realizer(target, 2, 5)
        assert isinstance(r, Realization)

    def test_diamond_has_no_small_base(self):
        verdict = search_realizer(diamond(), 2, 6)
        assert verdict == NoneUpTo(6)
        assert verdict.to_json() == {"found": False, "max_n": 6}

    def test_other_negative_targets(self):
        for target in [complete_bipartite(2, 3), complete_minus_edge(5)]:
            assert isinstance(search_realizer(target, 2, 5), NoneUpTo)

    def test_max_n_cap(self, monkeypatch):
        # the cap is checked before any graph is enumerated
        def no_enumeration(n, keep=None):
            raise AssertionError(f"enumerated graphs on {n} vertices")

        monkeypatch.setattr(realize, "enumerate_graphs", no_enumeration)
        for max_n in (8, 9):
            with raises_input_error(
                    f"search limited to 7 vertices, got {max_n}"):
                search_realizer(path(3), 2, max_n)
        with pytest.raises(InputError):
            search_realizer(path(3), 2, 0)

    def test_top_layer_canonises_only_fits(self, monkeypatch):
        # of the 5,096 extensions of the graphs on 6 vertices, 83 have the
        # 5 stable pairs of K_{1,4}, and only the 24 of those that the
        # deletion test keeps are canonised; the smaller layers are built
        # in full, from cold, and each parent's automorphism generators
        # come from the search that canonised it: 232 searches in all.
        # Canonising every extension took 5,966, every one that fits 954,
        # and searching each parent again for its generators 439
        from tokenslide import canon, enumeration

        searches = []
        labeling_search = canon._labeling_search
        monkeypatch.setattr(canon, "_labeling_search",
                            lambda g: searches.append(g) or labeling_search(g))
        enumeration._graph_layer.cache_clear()
        enumeration._last_parent.cache_clear()
        assert search_realizer(star(4), 2, 7) == NoneUpTo(7)
        assert len(searches) <= 232

    def test_second_search_reuses_orbit_minima(self, monkeypatch):
        # the filtered top layer is not cached, but its 156 parents are,
        # with their orbit minima: a second search canonises only the 24
        # extensions that fit and pass the deletion test, where searching
        # the parents again for their minima would make it 180
        from tokenslide import canon

        search_realizer(star(4), 2, 7)
        searches = []
        labeling_search = canon._labeling_search
        monkeypatch.setattr(canon, "_labeling_search",
                            lambda g: searches.append(g) or labeling_search(g))
        assert search_realizer(star(4), 2, 7) == NoneUpTo(7)
        assert len(searches) <= 100

    def test_diamond_still_appears_as_component(self):
        # non-realizable as a whole slide graph, yet a component of one
        for k in (2, 3):
            ts = build_TSk(add_isolated(diamond(), k - 1), k)
            edges = list(ts.edges())
            comp_graphs = []
            for comp in components_of(ts):
                idx = {v: i for i, v in enumerate(sorted(comp))}
                comp_graphs.append(make_graph(
                    len(comp),
                    [(idx[a], idx[b]) for a, b in edges
                     if a in idx and b in idx]))
            assert any(is_isomorphic(c, diamond()) for c in comp_graphs)


def components_of(lg):
    g = make_graph(lg.num_nodes(), list(lg.edges()))
    return components(g)


class TestOneBuild:
    """Constructors give a label rule; the Realization gate is the one
    build of TS_k per realization."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def counted(g, k):
            calls.append((g, k))
            return build_TSk(g, k)

        parts = [realize_path(3, 2), realize_cycle(4, 2)]
        monkeypatch.setattr(realize, "build_TSk", counted)
        return calls, parts

    @pytest.mark.parametrize("make", [
        lambda parts: realize_complete(4, 3),
        lambda parts: realize_path(4, 2),
        lambda parts: realize_star(3, 3),
        lambda parts: realize_cycle(3, 2),
        lambda parts: realize_cycle(5, 2),
        lambda parts: realize_split(paw(), 2),
        lambda parts: realize_disjoint_union(parts, 2),
    ], ids=["complete", "path", "star", "cycle3", "cycle5", "split",
            "union"])
    def test_exactly_one_build(self, builds, make):
        calls, parts = builds
        r = make(parts)
        assert calls == [(r.base, r.k)]


class TestRealization:
    def test_json_shape(self):
        js = realize_complete(3, 2).to_json()
        assert set(js) == {"target", "k", "base", "witness_iso"}
        assert js["k"] == 2
        assert sorted(js["witness_iso"]) == [0, 1, 2]

    def test_rejects_non_bijection(self):
        r = realize_path(4, 2)
        with pytest.raises(ValueError):
            Realization(r.target, r.k, r.base, (0, 0, 1, 2))

    def test_rejects_wrong_mapping(self):
        r = realize_path(4, 2)
        w = list(r.witness_iso)
        # swapping an endpoint with an interior vertex breaks adjacency
        i0, i1 = w.index(0), w.index(2)
        w[i0], w[i1] = w[i1], w[i0]
        with pytest.raises(ValueError):
            Realization(r.target, r.k, r.base, tuple(w))

    def test_rejects_wrong_node_count(self):
        r = realize_path(4, 2)
        with pytest.raises(ValueError):
            Realization(path(5), 2, r.base, (0, 1, 2, 3, 4))
