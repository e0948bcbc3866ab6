"""Canonical forms and isomorphism for desk-scale graphs.

Color refinement seeded by degree, then backtracking over the refined
cells. The certificate is (n, canonically relabeled edge tuple); equal
certificates mean isomorphic. Search effort is capped by a node budget
(TooLargeForIso) since highly symmetric graphs branch factorially.
The automorphisms of the small graphs being enumerated come from a
separate backtracking search within the refined cells.
"""

from __future__ import annotations

from collections import Counter

from .config import DEFAULT_ISO_BUDGET
from .errors import TooLargeForIso
from .graph import members


def _as_adj(g):
    """(n, neighbor tuples) of a Graph or LabeledGraph."""
    n = g.num_nodes()
    return n, [g.neighbors(v) for v in range(n)]


def _refine(adj, colors):
    """Stable partition refinement by neighbor color multisets.

    Each round renumbers the cells by (old color, neighbor colors) in
    sorted order. A round that splits no cell only renumbers them densely,
    and the round after it would change nothing, so that is the result.
    Seeded with the degrees, it skips the round from the all-zero coloring,
    which only renumbers the degrees densely. A discrete coloring, one
    vertex per cell, is stable too, so it returns as soon as it is
    reached, densely renumbered.
    """
    n = len(colors)
    cells = len(set(colors))
    if cells == n:
        rank = {c: i for i, c in enumerate(sorted(colors))}
        return list(map(rank.__getitem__, colors))
    while True:
        get = colors.__getitem__
        sigs = [(c, tuple(sorted(map(get, a)))) for c, a in zip(colors, adj)]
        index = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = list(map(index.__getitem__, sigs))
        if len(index) == cells or len(index) == n:
            return colors
        cells = len(index)


def _labeling_search(n, adj, masks, budget):
    """Minimum certificate over all discrete refinements, with its labeling.

    Depth first on an explicit stack: a branch (colors, pick, cell) is
    colors with vertex pick individualised in its cell. Branches are
    popped in increasing pick, so nodes are visited (and counted against
    the budget) in the order a recursion over each cell would visit them.
    """
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    best_cert = best_perm = None
    visited = 0

    def cert_of(perm):
        out = []
        for u, v in edges:
            a, b = perm[u], perm[v]
            out.append((a, b) if a < b else (b, a))
        out.sort()
        return tuple(out)

    stack = [(list(map(len, adj)), None, None)]
    while stack:
        colors, pick, cell = stack.pop()
        if pick is not None:
            colors = [2 * c for c in colors]
            colors[pick] = 2 * cell - 1
        visited += 1
        if visited > budget:
            raise TooLargeForIso(
                f"canonical search exceeded {budget} nodes")
        colors = _refine(adj, colors)
        ranks = sorted(colors)
        # the least color held by two or more vertices, if any
        target = next((a for a, b in zip(ranks, ranks[1:]) if a == b), None)
        if target is None:
            cert = cert_of(colors)
            if best_cert is None or cert < best_cert:
                best_cert, best_perm = cert, colors
            continue
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
        stack.extend((colors, v, target) for v in reversed(tried))
    return (n, best_cert), best_perm


def _automorphisms(g):
    """Every automorphism of g, as tuples p with p[v] the image of v.

    Maps the vertices in turn, each into its own refined cell (which every
    automorphism keeps) and onto a vertex whose neighbours among the images
    so far are the images of its own. Depth first on an explicit stack of
    partial maps, extended in increasing image as a recursion would.
    """
    n, adj = _as_adj(g)
    masks = g.adjacency_masks()
    colors = _refine(adj, list(map(len, adj)))
    cells = [sum(1 << w for w in range(n) if colors[w] == c) for c in colors]
    out = []
    stack = [((), 0)]  # (images of 0..v-1, their bit set)
    while stack:
        perm, used = stack.pop()
        v = len(perm)
        if v == n:
            out.append(perm)
            continue
        img = sum(1 << perm[u] for u in adj[v] if u < v)
        for w in reversed(members(cells[v] & ~used)):
            if masks[w] & used == img:
                stack.append((perm + (w,), used | 1 << w))
    return out


def canonical_labeling(g):
    """(certificate, labeling) where labeling[v] = canonical position of v."""
    n, adj = _as_adj(g)
    return _labeling_search(n, adj, g.adjacency_masks(), DEFAULT_ISO_BUDGET)


def canonical_form(g):
    """Hashable certificate; equal certificates iff isomorphic graphs."""
    return canonical_labeling(g)[0]


def _cheap_invariants(adj):
    degs = list(map(len, adj))
    return sorted(degs), sorted(Counter(_refine(adj, degs)).values())


def is_isomorphic(g1, g2):
    """Exact isomorphism test: iso_map finds a bijection."""
    return iso_map(g1, g2) is not None


def iso_map(g1, g2):
    """A vertex bijection g1 -> g2 realizing an isomorphism, or None.

    Node and edge counts and cheap invariants reject a pair before the
    canonical labelings are compared.
    """
    n1, a1 = _as_adj(g1)
    n2, a2 = _as_adj(g2)
    if (n1 != n2 or sum(map(len, a1)) != sum(map(len, a2))
            or _cheap_invariants(a1) != _cheap_invariants(a2)):
        return None
    cert1, lab1 = canonical_labeling(g1)
    cert2, lab2 = canonical_labeling(g2)
    if cert1 != cert2:
        return None
    inv2 = [0] * len(lab2)
    for v, p in enumerate(lab2):
        inv2[p] = v
    return [inv2[p] for p in lab1]
