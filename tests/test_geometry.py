import json
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenslide import (
    DegenerateSegment,
    GeneralPositionViolated,
    InputError,
    TooFewPoints,
    TooManyPoints,
    alpha,
    build_TSk,
    check_general_position,
    convex_hull_size,
    delaunay,
    edge_intersection_graph,
    flip_graph,
    in_circle,
    lawson_distance,
    orient,
    segments_intersect,
    triangulations,
)
from tokenslide import geometry
from tokenslide.cli import main

# six points, irregular quadrilateral hull, two interior points;
# every derived constant below was cross-checked by hand against the
# crossing structure
PTS = [(0, 8), (7, 16), (16, 9), (8, 0), (5, 6), (3, 9)]

point = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


def oracle_orient(a, b, c):
    det = (Fraction(b[0] - a[0]) * (c[1] - a[1])
           - Fraction(b[1] - a[1]) * (c[0] - a[0]))
    return (det > 0) - (det < 0)


def circumcircle(a, b, c):
    """Exact circumcenter and squared radius via Fractions."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = Fraction((ax * ax + ay * ay) * (by - cy)
                  + (bx * bx + by * by) * (cy - ay)
                  + (cx * cx + cy * cy) * (ay - by), d)
    uy = Fraction((ax * ax + ay * ay) * (cx - bx)
                  + (bx * bx + by * by) * (ax - cx)
                  + (cx * cx + cy * cy) * (bx - ax), d)
    r2 = (ux - ax) ** 2 + (uy - ay) ** 2
    return ux, uy, r2


def random_point_set(rng, n):
    while True:
        pts = []
        seen = set()
        while len(pts) < n:
            p = (rng.randint(0, 40), rng.randint(0, 40))
            if p not in seen:
                seen.add(p)
                pts.append(p)
        if check_general_position(pts).ok:
            return pts


def greedy_triangulation(pts, order):
    """Keep each segment of order that crosses none kept before it."""
    kept = []
    for a, b in order:
        if not any(len({a, b, u, v}) == 4 and segments_intersect(
                pts[a], pts[b], pts[u], pts[v]) for u, v in kept):
            kept.append((a, b))
    return kept


def reference_lawson(t, pts):
    """Lawson from the definition: faces are triples with all three sides
    present and no point inside, and each step flips the lowest segment
    that has two faces and a positive in-circle test."""
    t = set(t)
    flips = 0
    while True:
        faces = [f for f in combinations(range(len(pts)), 3)
                 if {f[:2], f[1:], f[::2]} <= t and not any(
                     orient(pts[f[0]], pts[f[1]], pts[x])
                     == orient(pts[f[1]], pts[f[2]], pts[x])
                     == orient(pts[f[2]], pts[f[0]], pts[x])
                     for x in range(len(pts)) if x not in f)]
        for e in sorted(t):
            opposite = [v for f in faces if set(e) < set(f)
                        for v in f if v not in e]
            if len(opposite) == 2 and in_circle(
                    *(pts[v] for v in e + tuple(opposite))) > 0:
                t.remove(e)
                t.add(tuple(sorted(opposite)))
                flips += 1
                break
        else:
            return t, flips


class TestPredicates:
    @given(point, point, point)
    @settings(max_examples=120, deadline=None)
    def test_orient_against_fraction_oracle(self, a, b, c):
        assert orient(a, b, c) == oracle_orient(a, b, c)

    @given(point, point, point)
    @settings(max_examples=60, deadline=None)
    def test_orient_antisymmetry(self, a, b, c):
        assert orient(a, b, c) == -orient(b, a, c)
        assert orient(a, b, c) == orient(b, c, a)

    @given(point, point, point, point)
    @settings(max_examples=120, deadline=None)
    def test_in_circle_against_circumcenter(self, a, b, c, d):
        if oracle_orient(a, b, c) == 0:
            return
        ux, uy, r2 = circumcircle(a, b, c)
        dist2 = (ux - d[0]) ** 2 + (uy - d[1]) ** 2
        want = 1 if dist2 < r2 else (-1 if dist2 > r2 else 0)
        assert in_circle(a, b, c, d) == want

    @given(point, point, point, point)
    @settings(max_examples=60, deadline=None)
    def test_in_circle_orientation_independent(self, a, b, c, d):
        if oracle_orient(a, b, c) == 0:
            return
        assert in_circle(a, b, c, d) == in_circle(a, c, b, d)
        assert in_circle(a, b, c, d) == in_circle(b, c, a, d)

    def test_crossing(self):
        assert segments_intersect((0, 0), (4, 4), (0, 4), (4, 0))

    def test_shared_endpoint_is_not_crossing(self):
        assert not segments_intersect((0, 0), (4, 4), (0, 0), (4, 0))

    def test_touching_interior_is_not_crossing(self):
        # endpoint of one segment lies on the interior of the other
        assert not segments_intersect((0, 0), (4, 0), (2, 0), (2, 5))
        assert not segments_intersect((0, 0), (4, 0), (2, 5), (2, 0))

    def test_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (3, 3), (4, 4))

    def test_degenerate(self):
        with pytest.raises(DegenerateSegment):
            segments_intersect((1, 1), (1, 1), (0, 0), (2, 2))

    @given(point, point, point, point)
    @settings(max_examples=60, deadline=None)
    def test_crossing_symmetry(self, a, b, c, d):
        if a == b or c == d:
            return
        r = segments_intersect(a, b, c, d)
        assert segments_intersect(c, d, a, b) == r
        assert segments_intersect(b, a, d, c) == r

    def test_cross_is_four_distinct_ends_and_segments_intersect(self, rng):
        for _ in range(6):
            pts = random_point_set(rng, rng.randint(4, 8))
            segs = list(combinations(range(len(pts)), 2))
            for s in segs:
                for t in segs:
                    assert geometry._cross(pts, s, t) == (
                        len(set(s + t)) == 4 and segments_intersect(
                            *(pts[v] for v in s + t)))


class TestGeneralPosition:
    def test_fixture_ok(self):
        assert check_general_position(PTS).ok

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            check_general_position([(0, 0), (1, 1)])

    def test_collinear_named(self):
        v = check_general_position([(0, 0), (2, 2), (5, 5), (1, 7)])
        assert not v.ok
        assert v.collinear == (0, 1, 2)
        assert v.cocircular is None

    def test_cocircular_named(self):
        # a diamond is co-circular around its center
        v = check_general_position([(0, 8), (8, 16), (16, 8), (8, 0)])
        assert not v.ok
        assert v.collinear is None
        assert v.cocircular == (0, 1, 2, 3)

    def test_input_validation(self):
        with pytest.raises(InputError):
            check_general_position([(0, 0), (1, 1), (10 ** 6 + 1, 2)])
        with pytest.raises(InputError):
            check_general_position([(0, 0), (1, 1), (2,)])
        with pytest.raises(InputError):
            check_general_position([(0, 0), (1, 1), (0.5, 2)])

    def test_degenerate_input_rejected_downstream(self):
        with pytest.raises(GeneralPositionViolated):
            edge_intersection_graph([(0, 0), (2, 2), (5, 5), (1, 7)])


class TestCrossingGraph:
    def test_fixture_vertices(self):
        sg = edge_intersection_graph(PTS)
        assert [sg.graph.name_of(v) for v in range(sg.graph.n)] == \
            ["13", "15", "24", "25", "35", "36", "46", "56"]

    def test_fixture_never_crossing(self):
        sg = edge_intersection_graph(PTS)
        assert sg.L == ((0, 1), (0, 3), (0, 5), (1, 2), (1, 5), (2, 3),
                        (3, 4))

    def test_fixture_edges(self):
        sg = edge_intersection_graph(PTS)
        names = {frozenset((sg.graph.name_of(a), sg.graph.name_of(b)))
                 for a, b in sg.graph.edges()}
        assert names == {frozenset(e) for e in [
            ("15", "46"), ("46", "13"), ("13", "56"), ("35", "24"),
            ("13", "24"), ("24", "36"), ("36", "25"), ("25", "13")]}

    def test_segment_index(self):
        sg = edge_intersection_graph(PTS)
        assert sg.segments[sg.segment_index((0, 2))] == (0, 2)

    def test_crossings_verified_pointwise(self, rng):
        for _ in range(4):
            pts = random_point_set(rng, rng.randint(4, 6))
            sg = edge_intersection_graph(pts)
            for a, b in sg.graph.edges():
                (i, j), (u, v) = sg.segments[a], sg.segments[b]
                assert segments_intersect(pts[i], pts[j], pts[u], pts[v])
            for seg in sg.L:
                i, j = seg
                others = [s for s in combinations(range(len(pts)), 2)
                          if s != seg and len(set(s) | {i, j}) == 4]
                assert not any(segments_intersect(pts[i], pts[j],
                                                  pts[u], pts[v])
                               for u, v in others)


class TestTriangulations:
    def test_fixture_count_and_size(self):
        ts = triangulations(PTS)
        assert len(ts) == 7
        assert all(len(t) == 11 for t in ts)

    def test_all_contain_never_crossing_segments(self):
        sg = edge_intersection_graph(PTS)
        for t in triangulations(PTS):
            assert set(sg.L) <= set(t)

    def test_edge_count_law(self, rng):
        # a triangulation of p points with h on the hull has 3p - 3 - h
        # segments
        for _ in range(5):
            pts = random_point_set(rng, rng.randint(4, 7))
            h = convex_hull_size(pts)
            want = 3 * len(pts) - 3 - h
            for t in triangulations(pts):
                assert len(t) == want

    def test_non_crossing_and_maximal(self, rng):
        pts = random_point_set(rng, 6)
        for t in triangulations(pts):
            for (a, b), (c, d) in combinations(t, 2):
                if len({a, b, c, d}) == 4:
                    assert not segments_intersect(pts[a], pts[b],
                                                  pts[c], pts[d])
            absent = [s for s in combinations(range(len(pts)), 2)
                      if s not in set(t)]
            for a, b in absent:
                assert any(len({a, b, u, v}) == 4 and segments_intersect(
                    pts[a], pts[b], pts[u], pts[v]) for u, v in t)

    def test_point_cap(self):
        pts = [(i, i * i) for i in range(11)]
        with pytest.raises(TooManyPoints):
            triangulations(pts)
        with pytest.raises(TooManyPoints):
            flip_graph(pts)


class TestFlipGraph:
    def test_fixture_shape(self):
        fg = flip_graph(PTS)
        assert fg.num_nodes() == 7
        assert fg.num_edges() == 8
        assert fg.kind == "Flip"

    def test_matches_slide_graph_labelwise(self):
        sg = edge_intersection_graph(PTS)
        fg = flip_graph(PTS)
        ts = build_TSk(sg.graph, alpha(sg.graph))
        assert list(fg.label_masks()) == list(ts.label_masks())
        assert sorted(fg.edges()) == sorted(ts.edges())

    def test_matches_slide_graph_on_random_sets(self, rng):
        for _ in range(5):
            pts = random_point_set(rng, rng.randint(4, 7))
            sg = edge_intersection_graph(pts)
            fg = flip_graph(pts)
            if sg.graph.n == 0:
                assert fg.num_nodes() == 1
                assert fg.num_edges() == 0
                continue
            ts = build_TSk(sg.graph, alpha(sg.graph))
            assert list(fg.label_masks()) == list(ts.label_masks())
            assert sorted(fg.edges()) == sorted(ts.edges())

    def test_flips_change_one_diagonal(self, rng):
        # and conversely, every two triangulations one diagonal apart
        # are joined, also with no crossing segment at all
        sets = [PTS, [(0, 0), (5, 1), (2, 6)]]
        sets += [random_point_set(rng, rng.randint(4, 8)) for _ in range(6)]
        for pts in sets:
            fg = flip_graph(pts)
            ts = triangulations(pts)
            edges = set(fg.edges())
            for i, j in edges:
                assert len(set(ts[i]) ^ set(ts[j])) == 2
            masks = fg.label_masks()
            for i, j in combinations(range(len(masks)), 2):
                assert ((masks[i] ^ masks[j]).bit_count() == 2) == \
                    ((i, j) in edges)

    def test_rows_are_the_two_bit_xor_pairs(self, rng):
        for _ in range(4):
            fg = flip_graph(random_point_set(rng, 7))
            masks = fg.label_masks()
            for i, m in enumerate(masks):
                assert list(fg.neighbors(i)) == [
                    j for j, w in enumerate(masks)
                    if (m ^ w).bit_count() == 2]

    def test_flip_node_count_matches_enumeration(self, rng):
        pts = random_point_set(rng, 5)
        assert flip_graph(pts).num_nodes() == len(triangulations(pts))


class TestDelaunay:
    def test_fixture(self):
        d = delaunay(PTS)
        assert len(d) == 11
        assert tuple(sorted(d)) in triangulations(PTS)

    def test_empty_circumcircle_on_random_sets(self, rng):
        for _ in range(5):
            pts = random_point_set(rng, rng.randint(4, 7))
            d = set(delaunay(pts))
            for a, b, c in combinations(range(len(pts)), 3):
                if not ({(a, b), (b, c), (a, c)} <= d):
                    continue
                if any(orient(pts[a], pts[b], pts[x]) ==
                       orient(pts[b], pts[c], pts[x]) ==
                       orient(pts[c], pts[a], pts[x])
                       for x in range(len(pts)) if x not in (a, b, c)):
                    continue
                for x in range(len(pts)):
                    if x not in (a, b, c):
                        assert in_circle(pts[a], pts[b], pts[c],
                                         pts[x]) < 0

    def test_only_triangulation_with_empty_circumcircles(self, rng):
        # oracle: faces by brute force, circles by exact Fractions; no
        # library predicate decides which triangulation is Delaunay
        def empty_circles(t, pts):
            present = set(t)
            for f in combinations(range(len(pts)), 3):
                a, b, c = (pts[v] for v in f)
                others = [pts[x] for x in range(len(pts)) if x not in f]
                if not {f[:2], f[1:], f[::2]} <= present or any(
                        oracle_orient(a, b, x) == oracle_orient(b, c, x)
                        == oracle_orient(c, a, x) for x in others):
                    continue
                ux, uy, r2 = circumcircle(a, b, c)
                if any((x - ux) ** 2 + (y - uy) ** 2 <= r2
                       for x, y in others):
                    return False
            return True

        for _ in range(12):
            pts = random_point_set(rng, rng.randint(4, 8))
            assert [t for t in triangulations(pts)
                    if empty_circles(t, pts)] == [delaunay(pts)]

    def test_lawson_reaches_it_from_greedy_triangulations(self, rng):
        for _ in range(10):
            n = rng.randint(4, 12)
            pts = random_point_set(rng, n)
            pairs = list(combinations(range(n), 2))
            starts = [greedy_triangulation(pts, pairs)]
            for _ in range(3):
                rng.shuffle(pairs)
                starts.append(greedy_triangulation(pts, pairs))
            for start in starts:
                assert len(start) == 3 * n - 3 - convex_hull_size(pts)
                final, _ = geometry._lawson(start, pts)
                assert tuple(sorted(final)) == delaunay(pts)

    def test_gate_rejects_a_wrong_in_circle(self, monkeypatch, capsys):
        # with the sign flipped the "empty" circles are the ones holding
        # every other point; with interior points their sides are too few
        # to triangulate, and the gate must say so rather than return them
        right = geometry.in_circle
        monkeypatch.setattr(geometry, "in_circle",
                            lambda a, b, c, d: -right(a, b, c, d))
        with pytest.raises(RuntimeError):
            delaunay(PTS)
        assert main(["geom", "--points", json.dumps(PTS), "--delaunay"]) == 4
        assert capsys.readouterr().out == ""

    def test_unique_among_triangulations(self):
        # exactly one triangulation has the empty-circle property, and
        # lawson reaches it with zero flips
        d = tuple(sorted(delaunay(PTS)))
        assert lawson_distance(list(d), PTS) == 0
        assert [t for t in triangulations(PTS)
                if lawson_distance(list(t), PTS) == 0] == [d]


class TestLawson:
    def test_fixture_distances(self):
        assert [lawson_distance(list(t), PTS)
                for t in triangulations(PTS)] == [2, 1, 0, 1, 2, 1, 2]

    def test_matches_flip_graph_distance_on_fixture(self):
        ts = triangulations(PTS)
        fg = flip_graph(PTS)
        nxg = nx.Graph(list(fg.edges()))
        nxg.add_nodes_from(range(fg.num_nodes()))
        di = ts.index(tuple(sorted(delaunay(PTS))))
        for i, t in enumerate(ts):
            assert lawson_distance(list(t), PTS) == \
                nx.shortest_path_length(nxg, i, di)

    def test_lawson_at_least_flip_distance(self, rng):
        for _ in range(3):
            pts = random_point_set(rng, rng.randint(4, 6))
            ts = triangulations(pts)
            fg = flip_graph(pts)
            nxg = nx.Graph(list(fg.edges()))
            nxg.add_nodes_from(range(fg.num_nodes()))
            di = ts.index(tuple(sorted(delaunay(pts))))
            for i, t in enumerate(ts):
                assert lawson_distance(list(t), pts) >= \
                    nx.shortest_path_length(nxg, i, di)

    def test_matches_reference_lawson(self, rng):
        # end state and flip count on every triangulation, so the scan
        # order and the flip rule are both pinned
        for n in (4, 5, 6, 7, 8) * 8:
            pts = random_point_set(rng, n)
            for t in triangulations(pts):
                assert geometry._lawson(t, pts) == reference_lawson(t, pts)

    def test_validation(self):
        good = list(triangulations(PTS)[0])
        with pytest.raises(InputError):
            lawson_distance(good + [(0, 0)], PTS)
        with pytest.raises(InputError):
            lawson_distance(good + [(0, 9)], PTS)
        with pytest.raises(InputError):
            lawson_distance(good + [good[0]], PTS)
        with pytest.raises(InputError, match=r"^not maximal: segment "
                           r"\(3, 4\) could still be added$"):
            lawson_distance(good[:-1], PTS)
        other = list(triangulations(PTS)[1])
        assert (0, 2) not in other
        with pytest.raises(InputError,
                           match=r"^segments \(1, 3\) and \(0, 2\) cross$"):
            lawson_distance(other + [(0, 2)], PTS)


class TestConvexHull:
    def test_fixture(self):
        assert convex_hull_size(PTS) == 4

    def test_triangle_with_interior(self):
        assert convex_hull_size([(0, 0), (10, 0), (5, 9), (5, 3)]) == 3

    def test_matches_brute_force(self, rng):
        # with no three collinear, a point is a hull vertex exactly when
        # it lies strictly inside no triangle of other points
        for _ in range(5):
            pts = random_point_set(rng, rng.randint(4, 7))
            inner = 0
            for i, p in enumerate(pts):
                others = [q for j, q in enumerate(pts) if j != i]
                if any(orient(a, b, p) == orient(b, c, p) ==
                       orient(c, a, p) != 0
                       for a, b, c in combinations(others, 3)):
                    inner += 1
            assert convex_hull_size(pts) == len(pts) - inner
