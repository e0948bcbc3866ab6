import json

import networkx as nx
import pytest

from tokenslide import (
    InputError,
    JoinSpec,
    alpha,
    build_TSk,
    build_TSk_induced,
    check_disconnection,
    complete,
    cycle,
    decompose_join,
    disjoint_union,
    join_spec_from_json,
    make_graph,
    path,
    product,
    star,
)
from tokenslide.graph import members

from conftest import (brute_slide_edges, brute_stable_sets, raises_input_error,
                      random_graph)


def fig_disconnection_spec():
    # star joined to a five-vertex house-like graph along three leaves
    # and two of its vertices; k = 3 satisfies the disconnection
    # criterion on both sides
    g1 = star(3)
    g2 = make_graph(5, [(0, 3), (3, 4), (4, 2), (2, 1), (0, 2), (1, 3)])
    return JoinSpec(g1, g2, [1, 2, 3], [0, 1], 3)


def random_specs(rng, count):
    out = []
    while len(out) < count:
        g1 = random_graph(rng, rng.randint(3, 5), 0.4)
        g2 = random_graph(rng, rng.randint(3, 5), 0.4)
        k = rng.randint(2, 3)
        h1 = [v for v in range(g1.n) if rng.random() < 0.5]
        h2 = [v for v in range(g2.n) if rng.random() < 0.5]
        if not h1 or not h2 or alpha(g1) < k or alpha(g2) < k:
            continue
        out.append(JoinSpec(g1, g2, h1, h2, k))
    return out


class TestJoinSpec:
    def test_validates_subsets(self):
        with raises_input_error("vertex 5 not in 0..2"):
            JoinSpec(path(3), path(3), [5], [0], 1)

    def test_validates_k(self):
        with pytest.raises(InputError):
            JoinSpec(path(3), path(3), [0], [0], 0)

    def test_requires_stable_sets_both_sides(self):
        with raises_input_error("G1 has no stable set of size 2"):
            JoinSpec(complete(3), path(5), [0], [0], 2)
        with raises_input_error("G2 has no stable set of size 2"):
            JoinSpec(path(5), complete(3), [0], [0], 2)

    def test_existence_needs_no_enumeration(self):
        # each side holds C(30, 8) = 5,852,925 stable 8-sets, more than
        # the default node budget; one of them is enough
        spec = JoinSpec(make_graph(30, []), make_graph(30, []), [0], [0], 8)
        assert spec.k == 8

    def test_joined(self):
        spec = fig_disconnection_spec()
        j = spec.joined()
        assert j.n == 9
        assert j.num_edges() == 15

    def test_json_round_trip(self):
        spec = fig_disconnection_spec()
        data = json.loads(json.dumps(spec.to_json()))
        again = join_spec_from_json(data)
        assert again.to_json() == spec.to_json()


class TestProduct:
    def test_grid(self):
        p = product(build_TSk(path(2), 1), build_TSk(path(3), 1))
        assert p.num_nodes() == 6
        assert p.num_edges() == 7
        assert p.k == 2
        assert p.kind == "Product"

    def test_label_pairs_offset(self):
        # node (i, j) is labeled with a's label i joined to b's label j,
        # shifted past a's two vertices: each union splits at the offset
        a = build_TSk(path(2), 1)
        b = build_TSk(cycle(4), 2)
        p = product(a, b)
        assert p.base.n == 6
        assert all(m >> 6 == 0 for m in p.label_masks())
        assert [(m & 0b11, m >> 2) for m in p.label_masks()] == [
            (ma, mb) for ma in a.label_masks() for mb in b.label_masks()]

    def test_edge_count_formula(self, rng):
        for _ in range(10):
            a = build_TSk(random_graph(rng, rng.randint(2, 4), 0.5), 1)
            b = build_TSk(random_graph(rng, rng.randint(2, 4), 0.5), 1)
            p = product(a, b)
            assert p.num_nodes() == a.num_nodes() * b.num_nodes()
            assert p.num_edges() == (a.num_nodes() * b.num_edges()
                                     + a.num_edges() * b.num_nodes())

    def test_identity_factor(self):
        b = build_TSk(cycle(5), 2)
        p = product(build_TSk(complete(1), 1), b)
        assert p.num_nodes() == b.num_nodes()
        assert p.num_edges() == b.num_edges()

    def test_shared_base_disjoint_ranges(self):
        host = disjoint_union(path(2), path(2))
        a = build_TSk_induced(host, 1, [0, 1])
        b = build_TSk_induced(host, 1, [2, 3])
        p = product(a, b)
        assert p.base is host
        assert p.num_nodes() == 4
        assert p.num_edges() == 4

    def test_shared_base_overlap_rejected(self):
        a = build_TSk(path(4), 2)
        with raises_input_error("labels [0, 2] and [0, 2] share vertices"):
            product(a, a)


class TestDecomposeInvariants:
    def test_random_specs(self, rng):
        for spec in random_specs(rng, 8):
            d = decompose_join(spec)
            k = spec.k
            assert d.part_s == tuple([k, 0] + list(range(1, k)))
            assert len(d.parts) == k + 1
            assert sum(p.num_nodes() for p in d.parts) == d.full.num_nodes()
            n1 = spec.g1.n
            g1_mask = (1 << n1) - 1
            for t, part in enumerate(d.parts):
                s = d.part_s[t]
                for m in part.label_masks():
                    assert (m & g1_mask).bit_count() == s
                assert set(d.provenance[t]) <= {"left", "right", "both"}
                assert (len(d.product_edges[t]) + len(d.extra_within[t])
                        == part.num_edges())
            for i, j in d.cross_edges:
                assert d.part_of[i] != d.part_of[j]
            assert (sum(p.num_edges() for p in d.parts)
                    + len(d.cross_edges) == d.full.num_edges())

    def test_parts_match_the_definitions(self, rng):
        # a part holds the stable k-sets of the join with s tokens on G1,
        # in sorted-member order, and its edges are the slides between
        # them; a middle node's provenance says which H_i it avoids
        for spec in random_specs(rng, 12):
            d = decompose_join(spec)
            k, n1 = spec.k, spec.g1.n
            g = spec.joined()
            h1, h2 = spec.h1, spec.h2 << n1
            stable = brute_stable_sets(g, k)
            slides = brute_slide_edges(g, stable)
            for t, part in enumerate(d.parts):
                s = d.part_s[t]
                want = sorted((x for x in stable
                               if sum(1 for v in x if v < n1) == s),
                              key=sorted)
                labels = [frozenset(members(m)) for m in part.label_masks()]
                assert labels == want
                assert {frozenset((labels[i], labels[j]))
                        for i, j in part.edges()} == {
                    e for e in slides if e <= set(want)}
                for m, prov in zip(part.label_masks(), d.provenance[t]):
                    meets1, meets2 = bool(m & h1), bool(m & h2)
                    if s == k:
                        assert prov == "left"
                    elif s == 0:
                        assert prov == "right"
                    else:
                        assert (prov == "left") == (meets1 and not meets2)
                        assert (prov == "right") == (meets2 and not meets1)
                        assert (prov == "both") == (not meets1
                                                    and not meets2)
                # a slide keeps s, so it moves inside G1 or inside G2,
                # and one of the two product routes holds both its ends
                assert d.extra_within[t] == ()
                assert d.product_edges[t] == tuple(part.edges())

    def test_extreme_parts_are_plain_slide_graphs(self, rng):
        for spec in random_specs(rng, 4):
            d = decompose_join(spec)
            left = build_TSk(spec.g1, spec.k)
            n1 = spec.g1.n
            assert sorted(d.parts[0].label_masks()) == \
                sorted(left.label_masks())
            right = build_TSk(spec.g2, spec.k)
            assert sorted(m >> n1 for m in d.parts[1].label_masks()) == \
                sorted(right.label_masks())

    def test_disconnection_criterion_matches_cross_edges(self, rng):
        # both directions: the stable-set condition holds exactly when
        # no edge leaves that side's part
        for spec in random_specs(rng, 8):
            d = decompose_join(spec)
            for side, part_idx in ((1, 0), (2, 1)):
                touching = [e for e in d.cross_edges
                            if part_idx in (d.part_of[e[0]],
                                            d.part_of[e[1]])]
                assert check_disconnection(spec, side) == (not touching)


class TestFigureSpec:
    def test_full_graph(self):
        d = decompose_join(fig_disconnection_spec())
        assert d.full.num_nodes() == 18
        assert d.full.num_edges() == 9

    def test_parts(self):
        d = decompose_join(fig_disconnection_spec())
        assert [p.num_nodes() for p in d.parts] == [1, 1, 7, 9]
        assert [p.num_edges() for p in d.parts] == [0, 0, 3, 6]
        assert d.cross_edges == ()
        assert all(len(e) == 0 for e in d.extra_within)

    def test_mixed_part_structure(self):
        # s = 2 pairs an edgeless 3-node factor with a path factor,
        # giving three disjoint paths; the right-route factor is empty
        d = decompose_join(fig_disconnection_spec())
        grid = d.parts[3]
        assert set(d.provenance[3]) == {"left"}
        nxg = nx.Graph(list(grid.edges()))
        nxg.add_nodes_from(range(grid.num_nodes()))
        want = nx.disjoint_union_all([nx.path_graph(3)] * 3)
        assert nx.is_isomorphic(nxg, want)

    def test_disconnects_both_sides(self):
        spec = fig_disconnection_spec()
        assert check_disconnection(spec, 1)
        assert check_disconnection(spec, 2)

    def test_side_validation(self):
        with pytest.raises(InputError):
            check_disconnection(fig_disconnection_spec(), 3)

    def test_criterion_failure_case(self):
        spec = JoinSpec(path(3), path(3), [0], [0], 2)
        assert not check_disconnection(spec, 1)

    def test_json_shape(self):
        d = decompose_join(fig_disconnection_spec())
        js = d.to_json()
        assert js["k"] == 3
        assert js["join_nodes"] == 9
        assert js["full_nodes"] == 18
        assert js["full_edges"] == 9
        assert js["cross_edges"] == []
        assert [p["s"] for p in js["parts"]] == [3, 0, 1, 2]
        assert len(js["parts"][2]["nodes"]) == 7
        json.dumps(js)
