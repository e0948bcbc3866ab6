"""The benchmark's own exact planar geometry, written from the definitions.

Used to make inputs (a random triangulation, the Delaunay triangulation)
and to check the program's geometry output. Integer arithmetic only.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx


def orient(a, b, c):
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def in_circle(a, b, c, d):
    """+1 if d lies strictly inside the circle through a, b, c."""
    m = [(p[0] - d[0], p[1] - d[1]) for p in (a, b, c)]
    m = [(x, y, x * x + y * y) for x, y in m]
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return ((det > 0) - (det < 0)) * orient(a, b, c)


def general_position(pts):
    return (all(orient(*t) != 0 for t in combinations(pts, 3))
            and all(in_circle(*q) != 0 for q in combinations(pts, 4)))


def cross(pts, s, t):
    """Proper crossing of segments s and t, given as point-index pairs."""
    (a, b), (c, d) = s, t
    if len({a, b, c, d}) < 4:
        return False
    pa, pb, pc, pd = pts[a], pts[b], pts[c], pts[d]
    return (orient(pa, pb, pc) * orient(pa, pb, pd) < 0
            and orient(pc, pd, pa) * orient(pc, pd, pb) < 0)


def hull_size(pts):
    """Points that are a vertex of the convex hull (general position)."""
    n = len(pts)
    return sum(1 for i in range(n)
               if not any(orient(pts[a], pts[b], pts[i]) ==
                          orient(pts[b], pts[c], pts[i]) ==
                          orient(pts[c], pts[a], pts[i])
                          for a, b, c in combinations(
                              [j for j in range(n) if j != i], 3)))


def segments(n):
    return list(combinations(range(n), 2))


def random_triangulation(pts, rng):
    """A maximal non-crossing segment set, grown in a random order."""
    segs = segments(len(pts))
    rng.shuffle(segs)
    chosen = []
    for s in segs:
        if not any(cross(pts, s, t) for t in chosen):
            chosen.append(s)
    return sorted(chosen)


def delaunay(pts):
    """Sides of the triangles whose circumcircle holds no other point."""
    n = len(pts)
    out = set()
    for a, b, c in combinations(range(n), 3):
        if all(in_circle(pts[a], pts[b], pts[c], pts[d]) <= 0
               for d in range(n) if d not in (a, b, c)):
            out |= {(a, b), (a, c), (b, c)}
    return sorted(out)


def triangulations(pts):
    """All triangulations, as frozensets of segments.

    They are the maximal non-crossing segment sets, i.e. the maximal
    cliques of the non-crossing graph on all segments.
    """
    segs = segments(len(pts))
    h = nx.Graph()
    h.add_nodes_from(segs)
    h.add_edges_from((s, t) for s, t in combinations(segs, 2)
                     if not cross(pts, s, t))
    return {frozenset(c) for c in nx.find_cliques(h)}
