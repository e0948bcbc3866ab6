"""Exact planar geometry: crossing graphs, triangulations, flips, Delaunay.

All predicates are integer determinant signs; there is no floating point
anywhere. Coordinates are capped at |x|, |y| <= 10^6 so determinant
magnitudes stay far below overflow concerns in any fixed-width port.

A triangulation is a maximal set of pairwise non-crossing segments, and
"crossing" means a proper interior crossing: segments that merely share
an endpoint or touch at an interior point of only one of them do not
cross. The never-crossing segments L belong to every triangulation, so
triangulations correspond to maximal stable sets of the crossing graph.

The Delaunay triangulation comes from its definition, the sides of every
triangle whose circumcircle holds no other point, and is then checked to
be a triangulation; Lawson flipping must end at it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

from .errors import InputError
from .graph import Graph, make_graph, members
from .io import format_label
from .reconf import LabeledGraph, _swap_edges

COORD_BOUND = 10 ** 6
POINTS_MAX = 10


def _check_points(points):
    pts = []
    for p in points:
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise InputError(f"point {p!r} is not an (x, y) pair")
        x, y = p
        if type(x) is not int or type(y) is not int:  # rejects true, false
            raise InputError(f"point {p!r} has non-integer coordinates")
        if abs(x) > COORD_BOUND or abs(y) > COORD_BOUND:
            raise InputError(
                f"point {p!r} exceeds the +/-{COORD_BOUND} coordinate bound")
        pts.append((x, y))
    return pts


def orient(a, b, c):
    """Sign of the signed area of triangle abc: +1 ccw, -1 cw, 0 collinear."""
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def in_circle(a, b, c, d):
    """+1 if d is strictly inside the circle through a, b, c, -1 if strictly
    outside, 0 if co-circular. Independent of the orientation of abc."""
    rows = []
    for p in (a, b, c, d):
        dx, dy = p[0] - d[0], p[1] - d[1]
        rows.append((dx, dy, dx * dx + dy * dy))
    det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
           - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
           + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
    sign = (det > 0) - (det < 0)
    return sign * orient(a, b, c)


@dataclass(frozen=True)
class GeneralPosition:
    """Verdict of the general-position check."""

    ok: bool
    collinear: Optional[tuple] = None
    cocircular: Optional[tuple] = None


def check_general_position(points):
    """No three collinear, no four co-circular; names the first violation."""
    pts = _check_points(points)
    if len(pts) < 3:
        raise InputError(f"need at least 3 points, got {len(pts)}")
    return _general_position_of(tuple(pts))


@lru_cache(maxsize=1)
def _general_position_of(pts):
    # cached so that geom's check, crossing graph and Delaunay of one
    # point set share the verdict, which is immutable
    for i, j, k in combinations(range(len(pts)), 3):
        if orient(pts[i], pts[j], pts[k]) == 0:
            return GeneralPosition(False, collinear=(i, j, k))
    for i, j, k, l in combinations(range(len(pts)), 4):
        if in_circle(pts[i], pts[j], pts[k], pts[l]) == 0:
            return GeneralPosition(False, cocircular=(i, j, k, l))
    return GeneralPosition(True)


def _require_general_position(points):
    verdict = check_general_position(points)
    if not verdict.ok:
        what = (f"collinear triple {verdict.collinear}"
                if verdict.collinear else
                f"co-circular quadruple {verdict.cocircular}")
        raise InputError(what)
    return _check_points(points)


def segments_intersect(a, b, c, d):
    """Proper interior crossing of segments ab and cd.

    Shared endpoints and one-sided touchings are not crossings.
    """
    for p, q in ((a, b), (c, d)):
        if tuple(p) == tuple(q):
            raise InputError(f"segment {p}-{q} has zero length")
    return _cross((a, b, c, d), (0, 1), (2, 3))


def _cross(pts, s, t):
    """Point-index segments s and t have four distinct ends and cross.

    No zero-length check: two equal points of a general-position set
    would make a collinear triple with any third point.
    """
    (a, b), (c, d) = s, t
    if len({a, b, c, d}) < 4:
        return False
    a, b, c, d = pts[a], pts[b], pts[c], pts[d]
    return (orient(a, b, c) * orient(a, b, d) < 0
            and orient(c, d, a) * orient(c, d, b) < 0)


@dataclass(frozen=True)
class SegmentGraph:
    """Crossing structure of all segments of a point set.

    segments lists the crossing segments (the graph's vertices); L lists
    the segments that cross nothing, which appear in every triangulation.
    """

    points: tuple
    segments: tuple
    graph: Graph
    L: tuple

    def segment_index(self, seg):
        return self.segments.index(tuple(seg))


def edge_intersection_graph(points):
    """Graph on properly-crossing segments, plus the never-crossing list L."""
    pts = _require_general_position(points)
    n = len(pts)
    all_segs = list(combinations(range(n), 2))
    crossing = {}
    for s, t in combinations(range(len(all_segs)), 2):
        if _cross(pts, all_segs[s], all_segs[t]):
            crossing.setdefault(s, set()).add(t)
            crossing.setdefault(t, set()).add(s)
    verts = sorted(crossing)
    pos = {s: i for i, s in enumerate(verts)}
    edges = [(pos[s], pos[t]) for s in verts for t in sorted(crossing[s])
             if pos[s] < pos[t]]
    segments = tuple(all_segs[s] for s in verts)
    names = [format_label(1 << a | 1 << b, n) for a, b in segments]
    graph = make_graph(len(verts), edges, names=names)
    never = tuple(seg for i, seg in enumerate(all_segs) if i not in crossing)
    return SegmentGraph(points=tuple(pts), segments=segments,
                        graph=graph, L=never)


def _maximal_stable_sets(g):
    """All maximal stable sets, as masks (maximal cliques of the complement)."""
    n = g.n
    full = (1 << n) - 1
    comp = [full & ~g.adjacency_mask(v) & ~(1 << v) for v in range(n)]
    out = []

    def extend(r, p, x):
        if p == 0 and x == 0:
            out.append(r)
            return
        best, best_cnt = -1, -1
        for v in members(p | x):
            c = (comp[v] & p).bit_count()
            if c > best_cnt:
                best, best_cnt = v, c
        for v in members(p & ~comp[best]):
            low = 1 << v
            extend(r | low, p & comp[v], x & comp[v])
            p &= ~low
            x |= low
    if n == 0:
        return [0]
    extend(0, full, 0)
    return out


def _crossing_stables(points, what):
    """The crossing graph and its maximal stable sets (a tuple of masks,
    checked equal-sized); consecutive calls on one point set share them."""
    pts = _check_points(points)
    if len(pts) > POINTS_MAX:
        raise InputError(
            f"{what} supports up to {POINTS_MAX} points, got {len(pts)}")
    return _crossing_of(tuple(pts))


@lru_cache(maxsize=1)
def _crossing_of(pts):
    # cached so that triangulations and flip_graph of one point set share
    # the work; both returned values are immutable
    sg = edge_intersection_graph(pts)
    stables = tuple(_maximal_stable_sets(sg.graph))
    sizes = {m.bit_count() for m in stables}
    if len(sizes) > 1:
        raise RuntimeError(
            f"maximal non-crossing sets of unequal sizes: {sorted(sizes)}")
    return sg, stables


def triangulations(points):
    """All maximal non-crossing segment sets, each as a sorted pair tuple."""
    sg, stables = _crossing_stables(points, "triangulation enumeration")
    return sorted(
        tuple(sorted(sg.L + tuple(sg.segments[v] for v in members(m))))
        for m in stables)


def flip_graph(points):
    """Triangulations as nodes, one-diagonal flips as edges.

    Labels are the crossing-part stable sets, ordered exactly as the
    slide-graph builder orders them, so the correspondence with
    TS_alpha of the crossing graph is label-for-label. A flip swaps one
    diagonal for another, so edges come from _swap_edges and not from
    slides along the crossing graph: that the two diagonals of every flip
    cross is what the correspondence claims, and geom --check-ts-iso
    would check nothing if the flip graph assumed it.
    """
    sg, stables = _crossing_stables(points, "flip graph")
    stables = tuple(sorted(stables, key=members))
    return LabeledGraph._unchecked("Flip", sg.graph, stables,
                                   _swap_edges(stables),
                                   k=stables[0].bit_count())


# ---------------------------------------------------------------------------
# Delaunay and Lawson flipping


def _lawson(t_set, pts):
    """Flip the lowest illegal segment until none is left; returns
    (set, count).

    Segment pq flips to its partner rs: the one segment between common
    neighbours r, s of p and q that crosses pq and no other segment, so
    pqr and pqs are faces of a convex quadrilateral. pq is illegal when s
    lies inside the circle through p, q, r. A hull side or the diagonal of
    a non-convex quadrilateral has no partner and is legal.
    """
    t = set(t_set)
    nbrs = [set() for _ in pts]
    for a, b in t:
        nbrs[a].add(b)
        nbrs[b].add(a)
    max_flips = 4 * len(pts) ** 4 + 16
    flips = 0
    while True:
        for p, q in sorted(t):
            partner = next(
                ((r, s) for r, s in combinations(sorted(nbrs[p] & nbrs[q]), 2)
                 if _cross(pts, (p, q), (r, s))
                 and not any(_cross(pts, (r, s), u) for u in t
                             if u != (p, q))), None)
            if partner and in_circle(pts[p], pts[q], pts[partner[0]],
                                     pts[partner[1]]) > 0:
                break
        else:
            return t, flips
        r, s = partner
        t.remove((p, q))
        t.add((r, s))
        nbrs[p].remove(q)
        nbrs[q].remove(p)
        nbrs[r].add(s)
        nbrs[s].add(r)
        flips += 1
        if flips > max_flips:
            raise RuntimeError("Lawson flipping exceeded the flip budget")


def _delaunay(pts):
    """Sides of every triangle whose circumcircle holds no other point, for
    checked points; RuntimeError unless they form a triangulation."""
    n = len(pts)
    t = set()
    for a, b, c in combinations(range(n), 3):
        if all(in_circle(pts[a], pts[b], pts[c], pts[d]) < 0
               for d in range(n) if d not in (a, b, c)):
            t.update(((a, b), (a, c), (b, c)))
    if (len(t) != 3 * n - 3 - convex_hull_size(pts)
            or any(_cross(pts, s, u) for s, u in combinations(t, 2))):
        raise RuntimeError("empty-circumcircle sides are not a triangulation")
    return t


def delaunay(points):
    """The unique empty-circumcircle triangulation, as sorted segment pairs,
    taken from its definition and checked to be a triangulation."""
    return tuple(sorted(_delaunay(_require_general_position(points))))


def _validate_triangulation(t, pts):
    n = len(pts)
    segs = []
    for seg in t:
        if (not isinstance(seg, (list, tuple)) or len(seg) != 2
                or not all(type(v) is int and 0 <= v < n for v in seg)
                or seg[0] == seg[1]):
            raise InputError(f"segment {seg!r} is not a valid point pair")
        a, b = seg
        segs.append((min(a, b), max(a, b)))
    if len(set(segs)) != len(segs):
        raise InputError("triangulation repeats a segment")
    for s, u in combinations(segs, 2):
        if _cross(pts, s, u):
            raise InputError(f"segments {s} and {u} cross")
    present = set(segs)
    for s in combinations(range(n), 2):
        if s not in present and not any(_cross(pts, s, u) for u in segs):
            raise InputError(f"not maximal: segment {s} could still be added")
    return segs


def lawson_distance(t, points):
    """Number of lowest-diagonal-first Lawson flips from t to Delaunay."""
    pts = _require_general_position(points)
    t = _validate_triangulation(t, pts)
    final, flips = _lawson(t, pts)
    if final != _delaunay(pts):
        raise RuntimeError("Lawson flipping did not reach Delaunay")
    return flips


def convex_hull_size(points):
    """Number of hull vertices (monotone chain, exact arithmetic)."""
    pts = sorted(set(_check_points(points)))
    if len(pts) <= 2:
        return len(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    return len(lower) + len(upper) - 2
