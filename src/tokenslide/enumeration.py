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
representative, is unchanged. The generators come from the labeling
search that canonised g as a representative, so no graph is searched
twice; a full layer keeps each representative's orbit minima with it.

Parents are extended in their canonical order, and an extension h of the
parent at position p is dropped uncanonised when some vertex v leaves a
graph h - v whose invariant (degree multiset and triangle count) no
parent from p on holds (after McKay 1998, who rejects an extension by a
cheap test when it cannot be the one kept). The invariants of the h - v
are derived from the parent's degrees and per-vertex triangle counts,
found once per parent, and the new vertex's neighbourhood. Then
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
deletion test. keep accepts either every graph of a class or none of
them, so it drops whole classes: each kept class has the same
first-seen representative and the same place in canonical order as in
the full layer, and the result is the full layer filtered by keep. Only
the layer asked for is filtered; the smaller layers are the full,
cached ones, as parents must be.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from . import canon
from .canon import _generators, canonical_form
from .errors import InputError
from .graph import Graph, make_graph, members
from .props import is_connected

TREES_MAX_N = 10
GRAPHS_MAX_N = 7


def enumerate_trees(n):
    """One representative per isomorphism class of trees on n vertices."""
    if not 1 <= n <= TREES_MAX_N:
        raise InputError(
            f"tree enumeration supports 1..{TREES_MAX_N}, got {n}")
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


def _orbit_minima(n, gens):
    """Neighbourhood masks of a new vertex that no permutation in gens,
    generators of Aut(g) for a graph g on n vertices, maps to a smaller
    mask, ascending. They hold the least mask of each Aut(g) orbit, and
    masks in one orbit extend g to isomorphic graphs."""
    minima = range(1 << n)
    for perm in gens:
        # img[mask]: the image of mask under perm, the sum of its bits' images
        img = _subset_sums([1 << image for image in perm])
        minima = [m for m in minima if img[m] >= m]
    return list(minima)


def _subset_sums(weights):
    """sums[mask]: the sum of weights[u] over the members u of mask."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def _invariant(adj):
    """An isomorphism invariant of the graph with adjacency masks adj:
    its degree multiset as the sum of (n + 1) ** degree over its n
    vertices, and six times its number of triangles."""
    b = len(adj) + 1
    return (sum(b ** a.bit_count() for a in adj),
            sum((a & adj[u]).bit_count() for a in adj for u in members(a)))


def _deletion_keys(adj):
    """For the graph g with adjacency masks adj, a function of the
    neighbourhood nbrs of a new vertex x that yields, for each vertex v
    of g in turn, the _invariant of h - v, h being g + x. x itself is
    not tried: h - x is g.

    What does not depend on nbrs is found once per g. Deleting v takes
    its own term off the degree sum and moves each neighbour one degree
    down, which takes own[v] off in g. In h, x has raised the degrees of
    the vertices in nbrs, which takes shift[N(v) & nbrs] more off, and
    up[v] and drop[|nbrs|] more when v itself is in nbrs. Deleting v
    takes 3 tri[v] off six times the triangle count; x adds 3 pairs[nbrs]
    to that, and 2 |N(v) & nbrs| to tri[v] for each v in nbrs.
    """
    x = len(adj)
    pw = [(x + 1) ** d for d in range(x + 1)]
    deg = [a.bit_count() for a in adj]
    # tri[v]: the edges among v's neighbours, each counted from both ends
    tri = [sum((a & adj[u]).bit_count() for u in members(a)) for a in adj]
    # drop[d]: a degree-d term less the term one degree down
    drop = [0] + [pw[d] - pw[d - 1] for d in range(1, x + 1)]
    own = [pw[d] + sum(drop[deg[u]] for u in members(a))
           for a, d in zip(adj, deg)]
    up = [pw[d + 1] - pw[d] for d in deg]
    rise = _subset_sums(up)
    shift = _subset_sums([drop[d + 1] - drop[d] for d in deg])
    pairs = [0]  # pairs[mask]: twice the edges inside mask
    for a in adj:
        pairs += [q + 2 * (a & m).bit_count() for m, q in enumerate(pairs)]
    total, six_t = sum(pw[d] for d in deg), sum(tri)

    def keys(nbrs):
        s = nbrs.bit_count()
        total_h, six_h = total + rise[nbrs] + pw[s], six_t + 3 * pairs[nbrs]
        for v, a in enumerate(adj):
            common = a & nbrs
            if nbrs >> v & 1:
                yield (total_h - own[v] - shift[common] - up[v] - drop[s],
                       six_h - 3 * tri[v] - 6 * common.bit_count())
            else:
                yield total_h - own[v] - shift[common], six_h - 3 * tri[v]
    return keys


@lru_cache(maxsize=None)
def _last_parent(n):
    """The last position in _graph_layer(n) of each _invariant value."""
    return {_invariant(g._adj): p for p, g in enumerate(_graph_layer(n)[0])}


def _extensions(n, keep):
    """Each graph h that keep accepts (every one if keep is None) made from
    the graph g at position p of _graph_layer(n - 1) by adding a vertex
    joined to an orbit minimum of its neighbourhoods, in order, less those
    that lose a vertex to a graph whose invariant only parents before p
    hold: then such a parent's extensions hold h's class. For n = 1,
    the one graph on one vertex."""
    if n == 1:
        lone = make_graph(1, [])
        if keep is None or keep(lone):
            yield lone
        return
    last = _last_parent(n - 1)
    graphs, minima = _graph_layer(n - 1)
    for p, g in enumerate(graphs):
        keys = _deletion_keys(g._adj)
        for nbrs in minima[p]:
            adj = [a | (nbrs >> v & 1) << n - 1 for v, a in enumerate(g._adj)]
            adj.append(nbrs)
            h = Graph(n, adj)
            if ((keep is None or keep(h))
                    and all(last[k] >= p for k in keys(nbrs))):
                yield h


def _layer(n, keep=None):
    """The graphs on n vertices that keep accepts, all if keep is None,
    one per isomorphism class in canonical order, and the orbit minima of
    each if they are parents of the next layer (a full layer below
    GRAPHS_MAX_N), else None. The minima come from the labeling search
    that canonised the graph, so no parent is searched twice; the other
    candidates keep only their certificates."""
    parents = keep is None and n < GRAPHS_MAX_N
    seen, minima = {}, {}
    for h in _extensions(n, keep):
        search = canon._labeling_search(h)
        # the certificate's edges as bytes: within a layer they are as
        # unique and ordered as the certificates, and on 7 vertices take
        # 55 bytes on average against 760 for the pairs
        cert = bytes(chain.from_iterable(search[0][1]))
        if cert not in seen:
            seen[cert] = h
            if parents:
                minima[cert] = _orbit_minima(n, _generators(search))
    order = sorted(seen)
    return (tuple(seen[c] for c in order),
            tuple(minima[c] for c in order) if parents else None)


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
        raise InputError(
            f"graph enumeration supports 1..{GRAPHS_MAX_N}, got {n}")
    return list((_graph_layer(n) if keep is None else _layer(n, keep))[0])


def enumerate_connected_graphs(n):
    """Connected members of enumerate_graphs(n), same order."""
    return enumerate_graphs(n, is_connected)
