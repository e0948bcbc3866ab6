"""Graph property computations: planarity, coloring, Eulerian checks,
girth, cliques and connectivity.

All functions accept either a Graph or a LabeledGraph. Searches walk
neighbor lists; the clique search runs the maximum-stable-set search of
stable.py on complement bit masks over node indices, so node counts are
not width-limited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import networkx as nx

from .canon import _as_adj
from .stable import _max_stable_in_masks


class _InfiniteType:
    """Distinguished infinite value for girth and diameter.

    Compares greater than every integer and equal only to itself, so it
    can never be confused with a sentinel numeric value.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"

    def __eq__(self, other):
        return isinstance(other, _InfiniteType)

    def __hash__(self):
        return hash("_InfiniteType")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _InfiniteType)

    def __gt__(self, other):
        return not isinstance(other, _InfiniteType)

    def __ge__(self, other):
        return True


INFINITE = _InfiniteType()


# ---------------------------------------------------------------------------
# planarity


def classify_subdivision(n, edges):
    """Classify an edge list as a subdivision of K_5 or K_{3,3}.

    Suppresses degree-2 vertices, then matches the branch graph. Returns
    "K5", "K33", or None if the edge set is neither.
    """
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    if any(not 0 <= v < n for v in adj):
        return None
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            nb = adj.get(v)
            if nb is None or len(nb) != 2:
                continue
            a, b = sorted(nb)
            if b in adj[a]:
                continue  # suppression would create a parallel edge
            adj[a].discard(v)
            adj[b].discard(v)
            adj[a].add(b)
            adj[b].add(a)
            del adj[v]
            changed = True
    verts = sorted(adj)
    degs = sorted(len(adj[v]) for v in verts)
    if len(verts) == 5 and degs == [4] * 5:
        return "K5"
    if len(verts) == 6 and degs == [3] * 6:
        # complete bipartite: the non-neighbors of each vertex, plus the
        # vertex itself, must split the six into two triples
        v0 = verts[0]
        side = {v0} | {v for v in verts if v not in adj[v0] and v != v0}
        if len(side) != 3:
            return None
        other = [v for v in verts if v not in side]
        if all(adj[a] == set(other) for a in side) and \
           all(adj[b] == side for b in other):
            return "K33"
    return None


def _planar(edges):
    """Yes/no left-right planarity test of an edge list (Brandes 2009)."""
    h = nx.Graph()
    h.add_edges_from(edges)
    return nx.check_planarity(h)[0]


def _kuratowski_edges(edges):
    """Greedy edge-minimal non-planar subgraph of a non-planar edge list.

    Visits the edges in order and deletes each one whose removal leaves
    the graph non-planar, which is the subgraph networkx's counterexample
    search returns for lexicographic edges. Deleting a prefix of the
    remaining edges keeps the graph non-planar exactly when deleting its
    edges one by one does, so each kept edge is the last edge of the
    shortest prefix whose removal makes the graph planar: gallop to
    bracket that prefix, then bisect. That is about log m planarity tests
    per kept edge instead of one per edge.
    """
    kept, rest = [], list(edges)
    while rest:
        lo, step = 0, 1
        while True:  # gallop; kept + rest[lo:] is non-planar
            hi = min(lo + step, len(rest))
            if _planar(kept + rest[hi:]):
                break
            if hi == len(rest):
                return kept
            lo, step = hi, step * 2
        while hi - lo > 1:  # bisect; kept + rest[hi:] is planar
            mid = (lo + hi) // 2
            if _planar(kept + rest[mid:]):
                hi = mid
            else:
                lo = mid
        kept.append(rest[hi - 1])
        rest = rest[hi:]
    return kept


def is_planar(g):
    """(planar, witness) with witness None when planar.

    A witness is the edge tuple of the greedy edge-minimal Kuratowski
    subdivision: the lexicographic edges, each deleted when the graph
    without it stays non-planar.
    """
    edges = g.edges()
    if _planar(edges):
        return True, None
    witness = tuple(_kuratowski_edges(edges))
    if classify_subdivision(g.num_nodes(), witness) is None:
        raise RuntimeError("failed to extract a Kuratowski witness")
    return False, witness


# ---------------------------------------------------------------------------
# connectivity


def components(g):
    """Connected components as sorted tuples, ordered by smallest node."""
    n, adj = _as_adj(g)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for u in comp:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        out.append(tuple(sorted(comp)))
    return out


def is_connected(g):
    return len(components(g)) <= 1


def diameter(g):
    """Longest shortest path; INFINITE when disconnected, 0 for n <= 1."""
    n, adj = _as_adj(g)
    if n <= 1:
        return 0
    best = 0
    for s in range(n):
        seen = [False] * n
        seen[s] = True
        frontier = [s]
        reached = 1
        d = -1
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        nxt.append(w)
            reached += len(nxt)
            frontier = nxt
        if reached < n:
            return INFINITE
        best = max(best, d)
    return best


# ---------------------------------------------------------------------------
# Eulerian


def is_eulerian(g):
    """Connected with all degrees even. Isolated-vertex graphs count only
    when connected, so K_1 is Eulerian but K_1 + K_1 is not."""
    return components_eulerian(g) and is_connected(g)


def components_eulerian(g):
    """Every connected component is Eulerian (equivalently: all degrees even)."""
    _, adj = _as_adj(g)
    return all(len(row) % 2 == 0 for row in adj)


# ---------------------------------------------------------------------------
# girth


def girth(g):
    """Length of a shortest cycle, or INFINITE for forests."""
    n, adj = _as_adj(g)
    best = None
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = [s]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            if best is not None and dist[u] * 2 >= best:
                break
            for w in adj[u]:
                if w == parent[u]:
                    continue
                if dist[w] >= 0:
                    cand = dist[u] + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
                else:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
    return INFINITE if best is None else best


# ---------------------------------------------------------------------------
# cliques


def _max_clique(g, stop_at=None):
    """Largest clique size, as a stable-set search in the complement."""
    n, masks = g.num_nodes(), g.adjacency_masks()
    full = (1 << n) - 1
    comp = [full & ~masks[v] & ~(1 << v) for v in range(n)]
    return _max_stable_in_masks(n, comp, stop_at)


def clique_number(g):
    return _max_clique(g)


def has_clique(g, s):
    """Does g contain a clique on s vertices?"""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if s > g.num_nodes():
        return False
    return _max_clique(g, stop_at=s) >= s


# ---------------------------------------------------------------------------
# coloring


def _try_color(n, adj, order, s):
    """Backtracking s-coloring over the given vertex order.

    Depth idx colors order[idx]; going back to a depth resumes after the
    color it last tried, so colors are tried in increasing order.
    """
    m = len(order)
    color = [-1] * n
    resume = [0] * m  # next color to try at each depth
    used = [0] * (m + 1)  # number of distinct colors before each depth
    idx = 0
    while 0 <= idx < m:
        v = order[idx]
        color[v] = -1
        forbidden = 0
        for w in adj[v]:
            if color[w] >= 0:
                forbidden |= 1 << color[w]
        limit = min(s, used[idx] + 1)  # first use of a new color: lowest only
        c = resume[idx]
        while c < limit and forbidden >> c & 1:
            c += 1
        if c >= limit:
            idx -= 1
            continue
        color[v] = c
        resume[idx] = c + 1
        used[idx + 1] = max(used[idx], c + 1)
        idx += 1
        if idx < m:
            resume[idx] = 0
    return idx == m


def _coloring_order(n, adj):
    """Nodes by descending degree, ties in index order."""
    return sorted(range(n), key=lambda v: -len(adj[v]))


def is_s_partite(g, s):
    """Can the nodes be split into s independent parts (s-colorable)?"""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    n, adj = _as_adj(g)
    if n == 0:
        return True
    return _try_color(n, adj, _coloring_order(n, adj), s)


def _chromatic(n, adj, low):
    """Chromatic number over neighbor lists, given a clique size low."""
    if n == 0:
        return 0
    if not any(adj):
        return 1
    # greedy upper bound over the degree order
    order = _coloring_order(n, adj)
    color = [-1] * n
    high = 0
    for v in order:
        forbidden = 0
        for w in adj[v]:
            if color[w] >= 0:
                forbidden |= 1 << color[w]
        c = 0
        while forbidden >> c & 1:
            c += 1
        color[v] = c
        high = max(high, c + 1)
    for s in range(low, high):
        if _try_color(n, adj, order, s):
            return s
    return high


def chromatic_number(g):
    n, adj = _as_adj(g)
    return _chromatic(n, adj, clique_number(g))


# ---------------------------------------------------------------------------
# report


@dataclass(frozen=True)
class PropertyReport:
    nodes: int
    edges: int
    connected: bool
    component_count: int
    diameter: Union[int, _InfiniteType]
    chromatic: int
    clique: int
    girth: Union[int, _InfiniteType]
    planar: bool
    planar_witness: Optional[tuple]
    eulerian: bool
    components_eulerian: bool

    def to_json(self):
        def enc(x):
            return "infinite" if isinstance(x, _InfiniteType) else x

        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "connected": self.connected,
            "component_count": self.component_count,
            "diameter": enc(self.diameter),
            "chromatic": self.chromatic,
            "clique": self.clique,
            "girth": enc(self.girth),
            "planar": self.planar,
            "planar_witness": (None if self.planar_witness is None else
                               [list(e) for e in self.planar_witness]),
            "eulerian": self.eulerian,
            "components_eulerian": self.components_eulerian,
        }


def analyze(g):
    n, adj = _as_adj(g)
    planar, witness = is_planar(g)
    component_count = len(components(g))
    connected = component_count <= 1
    clique = clique_number(g)
    even = components_eulerian(g)
    return PropertyReport(
        nodes=n,
        edges=sum(map(len, adj)) // 2,
        connected=connected,
        component_count=component_count,
        diameter=diameter(g),
        chromatic=_chromatic(n, adj, clique),
        clique=clique,
        girth=girth(g),
        planar=planar,
        planar_witness=witness,
        eulerian=even and connected,
        components_eulerian=even,
    )


__all__ = [
    "INFINITE", "PropertyReport", "analyze", "chromatic_number",
    "classify_subdivision", "clique_number", "components",
    "components_eulerian", "diameter", "girth", "has_clique",
    "is_connected", "is_eulerian", "is_planar", "is_s_partite",
]
