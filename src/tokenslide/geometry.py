"""Exact planar geometry: crossing graphs, triangulations, flips, Delaunay.

All predicates are integer determinant signs; there is no floating point
anywhere. Coordinates are capped at |x|, |y| <= 10^6 so determinant
magnitudes stay far below overflow concerns in any fixed-width port.

A triangulation is a maximal set of pairwise non-crossing segments, and
"crossing" means a proper interior crossing: segments that merely share
an endpoint or touch at an interior point of only one of them do not
cross. The never-crossing segments L belong to every triangulation, so
triangulations correspond to maximal stable sets of the crossing graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import (DegenerateSegment, GeneralPositionViolated, InputError,
                     TooFewPoints, TooManyPoints)
from .graph import Graph, make_graph, members
from .reconf import LabeledGraph

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
        raise TooFewPoints(f"need at least 3 points, got {len(pts)}")
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
        raise GeneralPositionViolated(what)
    return _check_points(points)


def segments_intersect(a, b, c, d):
    """Proper interior crossing of segments ab and cd.

    Shared endpoints and one-sided touchings are not crossings.
    """
    for p, q in ((a, b), (c, d)):
        if tuple(p) == tuple(q):
            raise DegenerateSegment(f"segment {p}-{q} has zero length")
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    return o1 * o2 < 0 and o3 * o4 < 0


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


def _segment_label(seg, n):
    i, j = seg
    if n <= 9:
        return f"{i + 1}{j + 1}"
    return f"{i + 1}-{j + 1}"


def edge_intersection_graph(points):
    """Graph on properly-crossing segments, plus the never-crossing list L."""
    pts = _require_general_position(points)
    n = len(pts)
    all_segs = list(combinations(range(n), 2))
    crossing = {}
    for s, t in combinations(range(len(all_segs)), 2):
        (a, b), (c, d) = all_segs[s], all_segs[t]
        if len({a, b, c, d}) < 4:
            continue
        if segments_intersect(pts[a], pts[b], pts[c], pts[d]):
            crossing.setdefault(s, set()).add(t)
            crossing.setdefault(t, set()).add(s)
    verts = sorted(crossing)
    pos = {s: i for i, s in enumerate(verts)}
    edges = [(pos[s], pos[t]) for s in verts for t in sorted(crossing[s])
             if pos[s] < pos[t]]
    segments = tuple(all_segs[s] for s in verts)
    names = [_segment_label(seg, n) for seg in segments]
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
    """The crossing graph and its maximal stable sets, checked equal-sized."""
    pts = _check_points(points)
    if len(pts) > POINTS_MAX:
        raise TooManyPoints(
            f"{what} supports up to {POINTS_MAX} points, got {len(pts)}")
    sg = edge_intersection_graph(pts)
    stables = _maximal_stable_sets(sg.graph)
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
    TS_alpha of the crossing graph is label-for-label.
    """
    sg, stables = _crossing_stables(points, "flip graph")
    stables = tuple(sorted(stables, key=members))
    adj = [[] for _ in stables]
    for i in range(len(stables)):
        for j in range(i + 1, len(stables)):
            if (stables[i] ^ stables[j]).bit_count() == 2:
                adj[i].append(j)
                adj[j].append(i)
    # rows are sorted: each gets its smaller partners first, in order
    return LabeledGraph._unchecked("Flip", sg.graph, tuple(map(tuple, adj)),
                                   k=stables[0].bit_count(), masks=stables)


# ---------------------------------------------------------------------------
# Delaunay and Lawson flipping


def _faces(t_set, pts):
    """Triangles of a triangulation: triples with all sides present and
    no other point strictly inside."""
    present = set(t_set)
    n = len(pts)
    faces = []
    for a, b, c in combinations(range(n), 3):
        if ((a, b) not in present or (b, c) not in present
                or (a, c) not in present):
            continue
        inside = False
        for d in range(n):
            if d in (a, b, c):
                continue
            o1 = orient(pts[a], pts[b], pts[d])
            o2 = orient(pts[b], pts[c], pts[d])
            o3 = orient(pts[c], pts[a], pts[d])
            if o1 == o2 == o3:
                inside = True
                break
        if not inside:
            faces.append((a, b, c))
    return faces


def _edge_face_map(faces):
    ef = {}
    for f in faces:
        a, b, c = f
        for e in ((a, b), (b, c), (a, c)):
            ef.setdefault(e, []).append(f)
    return ef


def _lawson(t_set, pts, max_flips=None):
    """Flip lowest illegal diagonal until Delaunay; returns (set, count)."""
    t = set(t_set)
    if max_flips is None:
        max_flips = 4 * len(pts) ** 4 + 16
    flips = 0
    while True:
        faces = _faces(sorted(t), pts)
        ef = _edge_face_map(faces)
        flip_edge = None
        for e in sorted(ef):
            fs = ef[e]
            if len(fs) != 2:
                continue
            p, q = e
            r = next(v for v in fs[0] if v not in e)
            s = next(v for v in fs[1] if v not in e)
            if in_circle(pts[p], pts[q], pts[r], pts[s]) > 0:
                flip_edge = (e, r, s)
                break
        if flip_edge is None:
            return t, flips
        (p, q), r, s = flip_edge
        t.discard((p, q))
        new = (min(r, s), max(r, s))
        for u, v in t:
            if len({u, v, new[0], new[1]}) == 4 and segments_intersect(
                    pts[u], pts[v], pts[new[0]], pts[new[1]]):
                raise RuntimeError("flip produced a crossing segment")
        t.add(new)
        flips += 1
        if flips > max_flips:
            raise RuntimeError("Lawson flipping exceeded the flip budget")


def _greedy_triangulation(pts):
    segs = []
    for a, b in combinations(range(len(pts)), 2):
        ok = True
        for u, v in segs:
            if len({a, b, u, v}) == 4 and segments_intersect(
                    pts[a], pts[b], pts[u], pts[v]):
                ok = False
                break
        if ok:
            segs.append((a, b))
    return segs


def _verify_delaunay(t, pts):
    for a, b, c in _faces(sorted(t), pts):
        for d in range(len(pts)):
            if d in (a, b, c):
                continue
            if in_circle(pts[a], pts[b], pts[c], pts[d]) > 0:
                return False
    return True


def delaunay(points):
    """The unique empty-circumcircle triangulation, as sorted segment pairs."""
    pts = _require_general_position(points)
    t, _ = _lawson(_greedy_triangulation(pts), pts)
    if not _verify_delaunay(t, pts):
        raise RuntimeError("Lawson flipping did not reach Delaunay")
    return tuple(sorted(t))


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
    for (a, b), (c, d) in combinations(segs, 2):
        if len({a, b, c, d}) == 4 and segments_intersect(
                pts[a], pts[b], pts[c], pts[d]):
            raise InputError(f"segments {(a, b)} and {(c, d)} cross")
    present = set(segs)
    for a, b in combinations(range(n), 2):
        if (a, b) in present:
            continue
        if not any(len({a, b, u, v}) == 4 and segments_intersect(
                pts[a], pts[b], pts[u], pts[v]) for u, v in segs):
            raise InputError(
                f"not maximal: segment {(a, b)} could still be added")
    return segs


def lawson_distance(t, points):
    """Number of lowest-diagonal-first Lawson flips from t to Delaunay."""
    pts = _require_general_position(points)
    t = _validate_triangulation(t, pts)
    final, flips = _lawson(t, pts)
    if not _verify_delaunay(final, pts):
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
