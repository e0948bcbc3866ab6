"""Isomorph-free enumeration of small graphs and trees.

Trees are the rooted level sequences of Beyer & Hedetniemi (1980) that
the centre test of Wright, Richmond, Odlyzko & McKay (1986) accepts, the
same labelled trees as networkx's WROM nonisomorphic_trees. General
graphs are grown one vertex at a time (every n-vertex graph contains an
(n-1)-vertex induced subgraph, so extending all smaller graphs by one
vertex in every possible way and deduplicating by canonical form is
exhaustive). Both are returned sorted by canonical certificate for
reproducible order. A graph g is extended only by neighbourhoods that
no generator of Aut(g) maps to a smaller mask. They include the least
of each Aut(g) orbit, and any other mask repeats the class of a smaller
mask on the same g, so the first graph seen of each class, its
representative, is unchanged.

Parents are extended in their canonical order, and an extension h of the
parent at position p is dropped uncanonised when some vertex v leaves a
graph h - v whose invariant (degree multiset and triangle count, found
from h's masks) no parent from p on holds (after McKay 1998, who rejects
an extension by a cheap test when it cannot be the one kept). Then
h - v is isomorphic to a parent q < p, so h is q with a vertex added,
and some orbit minimum of q's neighbourhoods gives an extension of q
isomorphic to h. That extension comes before h and passes keep as h
does; it is canonised, or dropped by the same argument for a parent
before q. So a dropped h is never the first seen of its class, and the
representatives and their order do not change.

A caller that wants only some graphs on n vertices passes a predicate
keep, which must be an isomorphism invariant. The loop applies it to
each extension before canonising it (McKay 1998: reject by a cheap
invariant before paying for the canonical label), and before the
deletion test, which costs more than most predicates. keep accepts
either every graph of a class or none of them, so it drops whole
classes: each kept class has the same first-seen representative and
the same place in canonical order as in the full layer, and the result
is the full layer filtered by keep. Only the layer asked for is
filtered; the smaller layers are the full, cached ones, as parents must
be.
"""

from __future__ import annotations

from functools import lru_cache

from .canon import _generators, canonical_form
from .errors import NTooLarge
from .graph import Graph, make_graph, members
from .props import is_connected

TREES_MAX_N = 10
GRAPHS_MAX_N = 7


def enumerate_trees(n):
    """One representative per isomorphism class of trees on n vertices."""
    if not 1 <= n <= TREES_MAX_N:
        raise NTooLarge(f"tree enumeration supports 1..{TREES_MAX_N}, got {n}")
    if n == 1:
        trees = [make_graph(1, [])]
    else:
        trees = [make_graph(n, edges) for edges in _tree_edges(n)]
    return sorted(trees, key=canonical_form)


def _tree_edges(n):
    """Edge lists of one tree per isomorphism class on n >= 2 vertices.

    Walks every rooted level sequence from the path [0, 1, ..., n-1] and
    keeps those whose first root subtree, left, is lower than the rest,
    or as high and no larger in (size, sequence). Vertex i is joined to
    the last earlier vertex one level up.
    """
    seq = list(range(n))
    while True:
        m = (seq + [1]).index(1, 2)  # the root's second child, else n
        left, rest = [v - 1 for v in seq[1:m]], [0] + seq[m:]
        if (max(left), len(left), left) <= (max(rest), len(rest), rest):
            edges, last = [], {}
            for i, v in enumerate(seq):
                if v:
                    edges.append((last[v - 1], i))
                last[v] = i
            yield edges
        p = max(i for i, v in enumerate(seq) if v != 1)
        if p == 0:
            return
        q = max(i for i in range(p) if seq[i] == seq[p] - 1)
        seq[p:] = (seq[q:p] * n)[:n - p]  # seq[q:p] repeated to the end


@lru_cache(maxsize=None)
def _orbit_minima(g):
    """Neighbourhood masks of a new vertex that no generator of Aut(g)
    maps to a smaller mask, ascending. They hold the least mask of each
    Aut(g) orbit, and masks in one orbit extend g to isomorphic graphs.
    Cached: a filtered layer is built anew on each call, its parents not."""
    minima = range(1 << g.n)
    for p in _generators(g):
        img = [0]  # img[mask]: the image of mask under p
        for image in p:
            img += [m | 1 << image for m in img]
        minima = [m for m in minima if img[m] >= m]
    return list(minima)


def _invariant(adj):
    """An isomorphism invariant of the graph with adjacency masks adj:
    its degree multiset as the sum of (n + 1) ** degree over its n
    vertices, and six times its number of triangles."""
    b = len(adj) + 1
    return (sum(b ** a.bit_count() for a in adj),
            sum((a & adj[u]).bit_count() for a in adj for u in members(a)))


def _deletion_keys(adj):
    """_invariant of the graph adj less vertex v, for each v in turn,
    found from the masks of adj without building the subgraphs: v takes
    its own term off the degree sum, moves each neighbour one degree
    down, and takes its triangles with it."""
    n = len(adj)
    pw = [n ** d for d in range(n)]
    deg = [a.bit_count() for a in adj]
    # tri[v]: the edges among v's neighbours, each counted from both ends
    tri = [sum((a & adj[u]).bit_count() for u in members(a)) for a in adj]
    total, six_t = sum(pw[d] for d in deg), sum(tri)
    for v, a in enumerate(adj):
        yield (total - pw[deg[v]]
               - sum(pw[deg[u]] - pw[deg[u] - 1] for u in members(a)),
               six_t - 3 * tri[v])


@lru_cache(maxsize=None)
def _last_parent(n):
    """The last position in _graph_layer(n) of each _invariant value."""
    return {_invariant(g._adj): p for p, g in enumerate(_graph_layer(n))}


def _earlier(p, h):
    """Whether h, an extension of the graph at position p of
    _graph_layer(h.n - 1), loses a vertex to a graph whose invariant only
    parents before p hold: then such a parent's extensions hold h's class."""
    last = _last_parent(h.n - 1)
    return any(last[k] < p for k in _deletion_keys(h._adj))


def _layer(n, keep=None):
    """The graphs on n vertices that keep accepts, all if keep is None,
    one per isomorphism class in canonical order."""
    if n == 1:
        lone = make_graph(1, [])
        return (lone,) if keep is None or keep(lone) else ()
    seen = {}
    for p, h in _extensions(n):
        if (keep is None or keep(h)) and not _earlier(p, h):
            seen.setdefault(canonical_form(h), h)
    return tuple(seen[c] for c in sorted(seen))


def _extensions(n):
    """(p, h) for each graph h made from the graph at position p of
    _graph_layer(n - 1), n >= 2, by adding a vertex joined to an orbit
    minimum of its neighbourhoods."""
    for p, g in enumerate(_graph_layer(n - 1)):
        for nbrs in _orbit_minima(g):
            adj = [a | (nbrs >> v & 1) << n - 1 for v, a in enumerate(g._adj)]
            adj.append(nbrs)
            yield p, Graph(n, adj)


@lru_cache(maxsize=None)
def _graph_layer(n):
    return _layer(n)


def enumerate_graphs(n, keep=None):
    """One representative per isomorphism class of all graphs on n vertices.

    With keep, an isomorphism invariant, the result equals
    [g for g in enumerate_graphs(n) if keep(g)], but keep runs before
    each candidate is canonised, so rejected ones cost no canonical form.
    """
    if not 1 <= n <= GRAPHS_MAX_N:
        raise NTooLarge(
            f"graph enumeration supports 1..{GRAPHS_MAX_N}, got {n}")
    return list(_graph_layer(n) if keep is None else _layer(n, keep))


def enumerate_connected_graphs(n):
    """Connected members of enumerate_graphs(n), same order."""
    return enumerate_graphs(n, is_connected)
