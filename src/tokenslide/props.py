"""Graph property computations: planarity, coloring, Eulerian checks,
girth, cliques and connectivity.

All functions accept either a Graph or a LabeledGraph. Searches walk
neighbor lists, so node counts are not width-limited. Planarity is an
in-package yes/no left-right test (Brandes 2009) over int lists; the
Kuratowski witness is found with it alone. The clique search
takes the nodes in a degeneracy order and runs the maximum-stable-set
search of stable.py on the complement of each node's later neighbours,
over local indices, so its bit masks are at most the degeneracy wide.
Polynomial answers come first: a triangle scan settles the clique number
of a triangle-free graph without that search, and the girth of a graph
with a triangle without a BFS. The BFS forest that gives the components
2-colours a bipartite graph, which settles its chromatic number and
s-partiteness without the colouring search. Neither scan spends the
search budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Optional, Union

from . import config
from .canon import _as_adj
from .errors import TooLargeForSearch
from .stable import _max_stable_in_masks


# girth of a forest, diameter of a disconnected graph
INFINITE = math.inf


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
    """Yes/no planarity of the edge list of a simple graph: Euler's bound
    m <= 3n - 6 over its n >= 3 vertices, then the left-right test
    (Brandes 2009, after de Fraysseix and Rosenstiehl) without building
    an embedding.

    The vertices are renumbered 0..n-1 (a witness search tests small
    subsets of large graphs) and index plain lists; edge e is edges[e],
    oriented away from src[e] by the first DFS. A conflict pair is a list
    [left low, left high, right low, right high] of edge ids, -1 where an
    interval end is empty. Both DFS phases run on explicit stacks.
    """
    m = len(edges)
    verts = set(chain.from_iterable(edges))
    n = len(verts)
    if n >= 3 and m > 3 * n - 6:
        return False
    index = {v: i for i, v in enumerate(verts)}
    adj = [[] for _ in range(n)]
    ends = [0] * m  # a ^ b, so the far end of e from v is ends[e] ^ v
    for e, (a, b) in enumerate(edges):
        a = index[a]
        b = index[b]
        adj[a].append(e)
        adj[b].append(e)
        ends[e] = a ^ b

    # orientation: DFS heights, lowpoints and nesting depths
    height = [-1] * n
    parent = [-1] * n  # tree edge into each vertex
    ind = [0] * n  # next position in each vertex's list
    src = [-1] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    out = [[] for _ in range(n)]
    roots = []
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            row = adj[v]
            i = ind[v]
            while i < len(row) and src[row[i]] >= 0:
                i += 1  # oriented from its other end
            ind[v] = i + 1
            if i < len(row):
                e = row[i]
                src[e] = v
                out[v].append(e)
                w = ends[e] ^ v
                lowpt[e] = lowpt2[e] = height[v]
                if height[w] < 0:  # tree edge: finished once w is
                    parent[w] = e
                    height[w] = height[v] + 1
                    stack.append(w)
                    continue
                lowpt[e] = height[w]  # back edge, to an ancestor
            else:
                stack.pop()
                e = parent[v]
                if e < 0:
                    continue
                v = src[e]
            # e leaves v and is finished: fold it into v's parent edge
            low = lowpt[e]
            nesting[e] = 2 * low + (lowpt2[e] < height[v])
            pe = parent[v]
            if pe >= 0:
                if low < lowpt[pe]:
                    lowpt2[pe] = min(lowpt[pe], lowpt2[e])
                    lowpt[pe] = low
                elif low > lowpt[pe]:
                    lowpt2[pe] = min(lowpt2[pe], low)
                else:
                    lowpt2[pe] = min(lowpt2[pe], lowpt2[e])
    for row in out:
        row.sort(key=nesting.__getitem__)

    # testing: merge the return edges of each out-edge into conflict pairs
    pairs = []
    ref = [-1] * (m + 1)  # writes through an empty end (-1) land in ref[m]
    lowpt_edge = [-1] * m
    bottom = [-1] * m  # stack height when each edge was entered
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            hv = height[v]
            e = parent[v]
            row = out[v]
            i = ind[v]
            while i < len(row):
                ei = row[i]
                if bottom[ei] < 0:
                    bottom[ei] = len(pairs)
                    w = ends[ei] ^ v
                    if parent[w] == ei:  # tree edge: resume here after w
                        stack.append(w)
                        break
                    lowpt_edge[ei] = ei
                    pairs.append([-1, -1, ei, ei])
                i += 1
                lei = lowpt[ei]
                if lei >= hv:
                    continue
                if i == 1:  # the first out-edge returns lowest
                    lowpt_edge[e] = lowpt_edge[ei]
                    continue
                # add constraints of ei: its return edges go right
                p = [-1, -1, -1, -1]
                le = lowpt[e]
                while True:
                    q = pairs.pop()
                    if q[0] >= 0 or q[1] >= 0:
                        q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                    if q[0] >= 0 or q[1] >= 0:
                        return False  # they cannot all go one side
                    if lowpt[q[2]] > le:  # merge intervals
                        if p[2] < 0 and p[3] < 0:
                            p[3] = q[3]
                        else:
                            ref[p[2]] = q[3]
                        p[2] = q[2]
                    else:  # align
                        ref[q[2]] = lowpt_edge[e]
                    if len(pairs) == bottom[ei]:
                        break
                # conflicting return edges of earlier out-edges go left
                while pairs:
                    q = pairs[-1]
                    if q[3] >= 0 and lowpt[q[3]] > lei:
                        if q[1] >= 0 and lowpt[q[1]] > lei:
                            return False  # both sides conflict
                        q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                    elif not (q[1] >= 0 and lowpt[q[1]] > lei):
                        break
                    pairs.pop()
                    ref[p[2]] = q[3]
                    if q[2] >= 0:
                        p[2] = q[2]
                    if p[0] < 0 and p[1] < 0:
                        p[1] = q[1]
                    else:
                        ref[p[0]] = q[1]
                    p[0] = q[0]
                if p != [-1, -1, -1, -1]:
                    pairs.append(p)
            else:
                stack.pop()
                if e < 0:
                    continue
                # remove back edges returning to the parent u of v
                u = src[e]
                while pairs:
                    q = pairs[-1]
                    if q[0] < 0 and q[1] < 0:
                        lowest = lowpt[q[2]]
                    elif q[2] < 0 and q[3] < 0:
                        lowest = lowpt[q[0]]
                    else:
                        lowest = min(lowpt[q[0]], lowpt[q[2]])
                    if lowest != height[u]:
                        break
                    pairs.pop()
                if pairs:  # trim the top pair's intervals
                    q = pairs[-1]
                    while q[1] >= 0 and ends[q[1]] ^ src[q[1]] == u:
                        q[1] = ref[q[1]]
                    if q[1] < 0 and q[0] >= 0:
                        ref[q[0]] = q[2]
                        q[0] = -1
                    while q[3] >= 0 and ends[q[3]] ^ src[q[3]] == u:
                        q[3] = ref[q[3]]
                    if q[3] < 0 and q[2] >= 0:
                        ref[q[2]] = q[0]
                        q[2] = -1
                continue
            ind[v] = i
    return True


def _kuratowski_edges(edges):
    """Greedy edge-minimal non-planar subgraph of a non-planar edge list.

    Visits the edges in order and deletes each one whose removal leaves
    the graph non-planar, which is the subgraph networkx's counterexample
    search returns for lexicographic edges. Deleting a prefix of the
    remaining edges keeps the graph non-planar exactly when deleting its
    edges one by one does, so each kept edge is the last edge of the
    shortest prefix whose removal makes the graph planar: gallop to
    bracket that prefix, then bisect. That is about log m planarity tests
    per kept edge instead of one per edge. Planarity only appears as the
    prefix grows, so any bracket gives the same cut. The first cut of a
    large graph lies near the end of its edges, so the first gallop runs
    back from the end and tests short suffixes first; later ones run on.
    """
    kept, rest = [], list(edges)
    lo, hi, step = 0, len(rest), 1
    while lo < hi - step:  # gallop back; rest[hi:] is planar
        if not _planar(rest[hi - step:]):
            lo = hi - step
            break
        hi, step = hi - step, step * 2
    while True:
        while hi - lo > 1:  # bisect; kept + rest[hi:] is planar
            mid = (lo + hi) // 2
            if _planar(kept + rest[mid:]):
                hi = mid
            else:
                lo = mid
        kept.append(rest[hi - 1])
        rest = rest[hi:]
        lo, step = 0, 1
        while True:  # gallop on; kept + rest[lo:] is non-planar
            if lo == len(rest):
                return kept
            hi = min(lo + step, len(rest))
            if _planar(kept + rest[hi:]):
                break
            lo, step = hi, step * 2


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


def _forest(n, adj):
    """BFS trees from each node not yet reached, in index order, and
    whether the BFS depths 2-colour the graph: every edge joins an even
    depth to an odd one."""
    side = [-1] * n  # parity of each node's depth
    trees = []
    two = True
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        tree = [s]
        for u in tree:
            c = side[u] ^ 1
            for w in adj[u]:
                if side[w] < 0:
                    side[w] = c
                    tree.append(w)
                elif side[w] != c:
                    two = False
        trees.append(tree)
    return trees, two


def components(g):
    """Connected components as sorted tuples, ordered by smallest node."""
    return [tuple(sorted(t)) for t in _forest(*_as_adj(g))[0]]


def is_connected(g):
    """Whether one BFS from node 0 reaches every node; True for n <= 1."""
    n = g.num_nodes()
    if n == 0:
        return True
    seen = [True] + [False] * (n - 1)
    queue = [0]
    for u in queue:
        for w in g.neighbors(u):
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return len(queue) == n


def _bfs(n, adj, s):
    """Distances from s; -1 where s does not reach."""
    dist = [-1] * n
    dist[s] = 0
    queue = [s]
    for u in queue:
        d = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = d
                queue.append(w)
    return dist


def diameter(g):
    """Longest shortest path; INFINITE when disconnected, 0 for n <= 1.

    iFUB (Crescenzi et al. 2013) from a node u halfway along the path
    found by a double sweep: nodes at most i away from u are at most 2i
    apart, so BFS from the nodes of the levels of u's BFS tree, farthest
    first, until the best eccentricity found covers twice the next level.
    """
    n, adj = _as_adj(g)
    if n <= 1:
        return 0
    dist = _bfs(n, adj, 0)
    if min(dist) < 0:
        return INFINITE
    a = dist.index(max(dist))
    from_a = _bfs(n, adj, a)
    best = max(from_a)
    from_b = _bfs(n, adj, from_a.index(best))
    half = best // 2
    u = next(v for v in range(n)
             if from_a[v] == half and from_b[v] == best - half)
    from_u = _bfs(n, adj, u)
    i = max(from_u)
    levels = [[] for _ in range(i + 1)]
    for v, d in enumerate(from_u):
        levels[d].append(v)
    best = max(best, i)
    while i > 0 and best < 2 * i:
        best = max(best, *(max(_bfs(n, adj, x)) for x in levels[i]))
        i -= 1
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
    """Length of a shortest cycle, or INFINITE for forests.

    Without a triangle the girth is at least 4, so the search stops at
    the first 4-cycle instead of running a BFS from every node.
    """
    n, adj = _as_adj(g)
    return 3 if _has_triangle(adj) else _girth(n, adj)


def _girth(n, adj):
    """Girth of a triangle-free graph over neighbor lists, done once a
    4-cycle turns up."""
    best = None
    for s in range(n):
        if best == 4:
            break
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


def _degeneracy_order(n, adj):
    """Smallest-last order: each node has the fewest neighbours among the
    nodes not yet taken (Matula & Beck 1983)."""
    deg = [len(row) for row in adj]
    buckets = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    taken = [False] * n
    order = []
    d = 0
    for _ in range(n):
        while True:  # a bucket entry is stale once its node moved down
            while not buckets[d]:
                d += 1
            v = buckets[d].pop()
            if not taken[v] and deg[v] == d:
                break
        taken[v] = True
        order.append(v)
        for w in adj[v]:
            if not taken[w]:
                deg[w] -= 1
                buckets[deg[w]].append(w)
        d = max(d - 1, 0)
    return order


def _has_triangle(adj):
    """Whether some edge vw, v < w, has a common neighbour; stops at
    the first one."""
    for v, row in enumerate(adj):
        seen = set(row)
        for w in row:
            if w > v and not seen.isdisjoint(adj[w]):
                return True
    return False


def _max_clique(g, stop_at=None):
    """Largest clique size, or a size >= stop_at once one is found.

    Without a triangle that is 2 if there is an edge. Otherwise a clique
    is its earliest node in a degeneracy order plus a clique among that
    node's later neighbours (Eppstein, Löffler & Strash 2010), found as a
    stable set of the complement of their subgraph.
    """
    n, adj = _as_adj(g)
    if not _has_triangle(adj):
        return 2 if any(adj) else min(n, 1)
    if stop_at is not None and stop_at <= 3:
        return 3
    order = _degeneracy_order(n, adj)
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    best = min(n, 1)
    budget = [config.DEFAULT_SEARCH_BUDGET]  # one for all the searches
    for v in order:
        if stop_at is not None and best >= stop_at:
            break
        later = [w for w in adj[v] if rank[w] > rank[v]]
        if 1 + len(later) <= best:
            continue
        index = {w: i for i, w in enumerate(later)}
        full = (1 << len(later)) - 1
        comp = []
        for i, w in enumerate(later):
            row = 1 << i
            for x in adj[w]:
                j = index.get(x)
                if j is not None:
                    row |= 1 << j
            comp.append(full & ~row)
        best = max(best, 1 + _max_stable_in_masks(
            len(later), comp, None if stop_at is None else stop_at - 1,
            budget))
    return best


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


def _try_color(n, adj, order, s, budget=None):
    """Backtracking s-coloring over the given vertex order.

    Depth idx colors order[idx]; going back to a depth resumes after the
    color it last tried, so colors are tried in increasing order. Each
    step forward or back spends one unit of the search budget, a
    one-item list of the steps left that several tries may share.
    """
    budget = budget or [config.DEFAULT_SEARCH_BUDGET]
    left = budget[0]
    m = len(order)
    color = [-1] * n
    resume = [0] * m  # next color to try at each depth
    used = [0] * (m + 1)  # number of distinct colors before each depth
    idx = 0
    while 0 <= idx < m:
        left -= 1
        if left < 0:
            raise TooLargeForSearch(
                f"colouring search passed {config.DEFAULT_SEARCH_BUDGET} steps")
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
    budget[0] = left
    return idx == m


def _coloring_order(n, adj):
    """Nodes by descending degree, ties in index order."""
    return sorted(range(n), key=lambda v: -len(adj[v]))


def is_s_partite(g, s):
    """Can the nodes be split into s independent parts (s-colorable)?
    Only a non-bipartite graph with s >= 3 reaches the colouring search."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    n, adj = _as_adj(g)
    if s == 1:
        return not any(adj)
    if _forest(n, adj)[1]:
        return True
    return s >= 3 and _try_color(n, adj, _coloring_order(n, adj), s)


def _dsatur(n, adj):
    """Colors by DSATUR (Brélaz 1979): color next, with its lowest free
    color, an uncolored node with the most distinct neighbour colors,
    ties to the highest degree, then the lowest index."""
    color = [-1] * n
    seen = [0] * n  # bit mask of the colors next to each node
    heap = [(0, -len(adj[v]), v) for v in range(n)]
    heapify(heap)
    while heap:
        v = heappop(heap)[2]
        if color[v] >= 0:
            continue  # an older entry of a node colored since
        free = ~seen[v] & (seen[v] + 1)
        color[v] = free.bit_length() - 1
        for w in adj[v]:
            if color[w] < 0 and not seen[w] & free:
                seen[w] |= free
                heappush(heap, (-seen[w].bit_count(), -len(adj[w]), w))
    return color


def _chromatic(n, adj, low, two):
    """Chromatic number over neighbor lists, given a clique size low and
    whether the BFS forest 2-colours the graph.

    A 2-colouring settles it at low; without one the search starts at
    3 colours or more.
    """
    if two:
        return low
    low = max(low, 3)
    high = max(_dsatur(n, adj)) + 1
    order = _coloring_order(n, adj)
    budget = [config.DEFAULT_SEARCH_BUDGET]  # one for all the tries
    for s in range(low, high):
        if _try_color(n, adj, order, s, budget):
            return s
    return high


def chromatic_number(g):
    n, adj = _as_adj(g)
    low = clique_number(g)
    return _chromatic(n, adj, low, low <= 2 and _forest(n, adj)[1])


# ---------------------------------------------------------------------------
# report


@dataclass(frozen=True)
class PropertyReport:
    nodes: int
    edges: int
    connected: bool
    component_count: int
    diameter: Union[int, float]
    chromatic: int
    clique: int
    girth: Union[int, float]
    planar: bool
    planar_witness: Optional[tuple]
    eulerian: bool
    components_eulerian: bool

    def to_json(self):
        def enc(x):
            return "infinite" if x == INFINITE else x

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
    trees, two = _forest(n, adj)
    connected = len(trees) <= 1
    clique = clique_number(g)
    even = components_eulerian(g)
    return PropertyReport(
        nodes=n,
        edges=sum(map(len, adj)) // 2,
        connected=connected,
        component_count=len(trees),
        diameter=diameter(g),
        chromatic=_chromatic(n, adj, clique, two),
        clique=clique,
        girth=3 if clique >= 3 else _girth(n, adj),
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
