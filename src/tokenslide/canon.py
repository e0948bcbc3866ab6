"""Canonical forms and isomorphism for desk-scale graphs.

Color refinement seeded by degree, then backtracking over the refined
cells. The certificate is (n, canonically relabeled edge tuple); equal
certificates mean isomorphic. Search effort is capped by a node budget
(TooLargeForIso) since highly symmetric graphs branch factorially.
The same search yields generators of the automorphism group: the
leaves whose certificate equals the best one, and the twin swaps it
skipped.
"""

from __future__ import annotations

from collections import Counter

from . import config
from .errors import TooLargeForIso


def _as_adj(g):
    """(n, neighbor rows) of a Graph or LabeledGraph; the rows are the
    graph's own, so no caller may change them."""
    return g.num_nodes(), g.rows()


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


def _labeling_search(g):
    """Minimum certificate over all discrete refinements of g, its
    labeling, and what generates Aut(g).

    Depth first on an explicit stack: a branch (colors, pick, cell) is
    colors with vertex pick individualised in its cell. Branches are
    popped in increasing pick, so nodes are visited (and counted against
    the budget) in the order a recursion over each cell would visit them.

    Every automorphism maps the best leaf to a leaf with an equal
    certificate, which the search visits or a chain of skipped twin swaps
    maps onto one it visits. So those leaves and swaps generate Aut(g).
    swaps maps each skipped vertex to the twin it was first skipped for:
    the first target cell to meet a twin class holds all of it, so those
    pairs already join every class.
    """
    n, adj = _as_adj(g)
    masks = g.adjacency_masks()
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    best_cert = best_perm = None
    leaves, swaps = [], {}
    visited, budget = 0, config.DEFAULT_ISO_BUDGET

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
            if cert == best_cert:
                leaves.append(colors)
            elif best_cert is None or cert < best_cert:
                best_cert, best_perm, leaves = cert, colors, []
            continue
        # swapping two twins is an automorphism fixing everything else,
        # so one representative per twin class of the cell suffices
        tried = []
        for v in range(n):
            if colors[v] != target:
                continue
            for u in tried:
                if masks[u] & ~(1 << v) == masks[v] & ~(1 << u):
                    swaps.setdefault(v, u)
                    break
            else:
                tried.append(v)
        stack.extend((colors, v, target) for v in reversed(tried))
    return (n, best_cert), best_perm, leaves, swaps


def _carry(lab1, lab2):
    """The vertex map sending v to the vertex that lab2 puts at lab1[v]."""
    inv = [0] * len(lab2)
    for v, p in enumerate(lab2):
        inv[p] = v
    return [inv[p] for p in lab1]


def _generators(search):
    """Permutations p, p[v] the image of v, that generate Aut(g), from
    search, the result of _labeling_search(g): one per leaf with the best
    certificate, and the swaps of consecutive members of each twin class,
    which map a mask to a smaller one iff some swap in the class does."""
    (n, _), best, leaves, swaps = search
    gens = [_carry(best, leaf) for leaf in leaves]
    last = {}  # the greatest member of each twin class so far
    for v, twin in sorted(swaps.items()):
        u = last.get(twin, twin)
        last[twin] = v
        p = list(range(n))
        p[u], p[v] = v, u
        gens.append(p)
    return gens


def canonical_labeling(g):
    """(certificate, labeling) where labeling[v] = canonical position of v."""
    return _labeling_search(g)[:2]


def canonical_form(g):
    """Hashable certificate; equal certificates iff isomorphic graphs."""
    return _labeling_search(g)[0]


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
    return _carry(lab1, lab2) if cert1 == cert2 else None
