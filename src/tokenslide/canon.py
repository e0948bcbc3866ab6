"""Canonical forms and isomorphism for desk-scale graphs.

Color refinement seeded by degree, then backtracking over the refined
cells. The certificate is (n, canonically relabeled edge tuple); equal
certificates mean isomorphic. Search effort is capped by a node budget
(TooLargeForIso) since highly symmetric graphs branch factorially.
"""

from __future__ import annotations

from .config import DEFAULT_ISO_BUDGET
from .errors import TooLargeForIso


def _as_adj(g):
    """(n, neighbor tuples) of a Graph or LabeledGraph."""
    n = g.num_nodes()
    return n, [g.neighbors(v) for v in range(n)]


def _refine(n, adj, colors):
    """Stable partition refinement by neighbor color multisets."""
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v])))
                for v in range(n)]
        index = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [index[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _labeling_search(n, adj, budget):
    """Minimum certificate over all discrete refinements, with its labeling."""
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    masks = [0] * n
    for v in range(n):
        for w in adj[v]:
            masks[v] |= 1 << w
    best = [None, None]  # cert, perm
    visited = [0]

    def cert_of(perm):
        return tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                            for u, v in edges))

    def search(colors):
        visited[0] += 1
        if visited[0] > budget:
            raise TooLargeForIso(
                f"canonical search exceeded {budget} nodes")
        colors = _refine(n, adj, colors)
        counts = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = None
        for c in sorted(counts):
            if counts[c] > 1:
                target = c
                break
        if target is None:
            cert = cert_of(colors)
            if best[0] is None or cert < best[0]:
                best[0], best[1] = cert, list(colors)
            return
        # swapping two twins is an automorphism fixing everything else,
        # so one representative per twin class of the cell suffices
        tried = []
        for v in range(n):
            if colors[v] != target:
                continue
            if any(masks[u] & ~(1 << v) == masks[v] & ~(1 << u)
                   for u in tried):
                continue
            tried.append(v)
            child = [2 * c for c in colors]
            child[v] = 2 * target - 1
            search(child)

    search([0] * n)
    return (n, best[0]), best[1]


def canonical_labeling(g, budget=None):
    """(certificate, labeling) where labeling[v] = canonical position of v."""
    n, adj = _as_adj(g)
    if budget is None:
        budget = DEFAULT_ISO_BUDGET
    return _labeling_search(n, adj, budget)


def canonical_form(g, budget=None):
    """Hashable certificate; equal certificates iff isomorphic graphs."""
    return canonical_labeling(g, budget)[0]


def _cheap_invariants(n, adj):
    degs = tuple(sorted(len(a) for a in adj))
    colors = _refine(n, adj, [0] * n)
    hist = {}
    for c in colors:
        hist[c] = hist.get(c, 0) + 1
    return degs, tuple(sorted(hist.values()))


def is_isomorphic(g1, g2, budget=None):
    """Exact isomorphism test via canonical certificates."""
    n1, a1 = _as_adj(g1)
    n2, a2 = _as_adj(g2)
    if n1 != n2:
        return False
    if sum(map(len, a1)) != sum(map(len, a2)):
        return False
    if _cheap_invariants(n1, a1) != _cheap_invariants(n2, a2):
        return False
    return canonical_form(g1, budget) == canonical_form(g2, budget)


def iso_map(g1, g2, budget=None):
    """A vertex bijection g1 -> g2 realizing an isomorphism, or None."""
    n1, _ = _as_adj(g1)
    n2, _ = _as_adj(g2)
    if n1 != n2:
        return None
    cert1, lab1 = canonical_labeling(g1, budget)
    cert2, lab2 = canonical_labeling(g2, budget)
    if cert1 != cert2:
        return None
    inv2 = [0] * n2
    for v, p in enumerate(lab2):
        inv2[p] = v
    return [inv2[lab1[v]] for v in range(n1)]
