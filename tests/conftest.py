"""Shared fixtures and brute-force reference implementations.

The oracles here are written straight from the definitions with itertools,
independent of the package's bitmask code paths, so the two can disagree.
"""

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import strategies as st

from tokenslide import Graph, make_graph


# ---------------------------------------------------------------------------
# brute-force oracles


def edge_set(g):
    return {(u, v) for u in range(g.n) for v in g.neighbors(u) if u < v}


def brute_stable_sets(g, k):
    """All size-k independent sets, as frozensets, by subset scan."""
    edges = edge_set(g)
    out = set()
    for comb in combinations(range(g.n), k):
        if all((a, b) not in edges for a, b in combinations(comb, 2)):
            out.add(frozenset(comb))
    return out


def brute_all_stable(g):
    out = set()
    for k in range(1, g.n + 1):
        found = brute_stable_sets(g, k)
        if not found:
            break
        out |= found
    return out


def brute_cliques(g, k):
    edges = edge_set(g)
    out = set()
    for comb in combinations(range(g.n), k):
        if all((a, b) in edges for a, b in combinations(comb, 2)):
            out.add(frozenset(comb))
    return out


def brute_alpha(g):
    return max((len(s) for s in brute_all_stable(g)), default=0)


def brute_slide_edges(g, sets):
    """TS adjacency on the given family: |I^J|=2 and the two ends adjacent."""
    edges = edge_set(g)
    fam = sorted(sets, key=sorted)
    out = set()
    for i, j in combinations(range(len(fam)), 2):
        diff = fam[i] ^ fam[j]
        if len(diff) == 2:
            a, b = sorted(diff)
            if (a, b) in edges:
                out.add(frozenset((fam[i], fam[j])))
    return out


def label_set(lg, mask):
    """A label mask of lg as the frozenset of base vertices it holds."""
    return frozenset(v for v in range(lg.base.n) if mask >> v & 1)


def labelled_edges(lg):
    """Edge set of a LabeledGraph as pairs of frozenset labels."""
    labs = [label_set(lg, m) for m in lg.label_masks()]
    return {frozenset((labs[i], labs[j])) for i, j in lg.edges()}


def labelled_nodes(lg):
    return {label_set(lg, m) for m in lg.label_masks()}


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edge_set(g))
    return h


def check_generators(g):
    """Each generator canon._generators finds from the labeling search of
    g is an automorphism of g, and their
    closure has as many elements as networkx finds automorphisms."""
    from tokenslide.canon import _generators, _labeling_search

    gens = [tuple(p) for p in _generators(_labeling_search(g))]
    edges = edge_set(g)
    for p in gens:
        assert sorted(p) == list(range(g.n))
        assert {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges
    group = frontier = {tuple(range(g.n))}
    while frontier:
        frontier = {tuple(q[x] for x in p) for p in frontier
                    for q in gens} - group
        group = group | frontier
    nxg = to_networkx(g)
    matcher = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg)
    assert len(group) == sum(1 for _ in matcher.isomorphisms_iter())


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return make_graph(n, edges)


def random_eulerian_graph(rng, n):
    """Connected graph with all degrees even, by parity repair + rejection."""
    while True:
        g = nx.gnp_random_graph(n, 0.6, seed=rng.randrange(1 << 30))
        odd = [v for v in g if g.degree(v) % 2]
        rng.shuffle(odd)
        for a, b in zip(odd[::2], odd[1::2]):
            if g.has_edge(a, b):
                g.remove_edge(a, b)
            else:
                g.add_edge(a, b)
        if g.number_of_edges() and nx.is_connected(g):
            return make_graph(n, sorted(g.edges()))


# ---------------------------------------------------------------------------
# named small graphs

def paw():
    return make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def diamond():
    return make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def kite():
    # diamond plus a pendant on a degree-2 vertex
    return make_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])


def bull():
    return make_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])


# the graph of the worked TS_2/L_2 comparison example, 1-indexed 1..5 -> 0..4
def example_five_vertex():
    return make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)])


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    picked = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return make_graph(n, sorted(picked))


@pytest.fixture
def rng():
    return random.Random(0x5EED)
