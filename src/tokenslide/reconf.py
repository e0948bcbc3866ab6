"""Reconfiguration-graph builders: TS_k, TS, L_k, and the token graph F_k.

Nodes carry labels (vertex sets of the base graph). Edges are found by
scanning each node's single-swap neighbors and checking membership in
the node index, which is O(nodes * k * degree) instead of all pairs.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .config import node_budget
from .errors import ExplosionCap, IndexOutOfRange
from .graph import Graph, VertexSet, _as_vset, induced_subgraph, members
from .stable import all_independent_sets, cliques_of_size, independent_sets_of_size

KINDS = ("TSk", "TS", "Lk", "Fk", "Flip", "Product", "Abstract")


class LabeledGraph:
    """A graph whose nodes are labeled vertex sets of a base graph.

    Product nodes carry composite labels: ordered (left, right) pairs of
    VertexSet. Adjacency is symmetric and loopless; labels are distinct.
    """

    __slots__ = ("kind", "base", "labels", "_adj", "k", "_layers", "_index")

    def __init__(self, kind, base, labels, adj, k=None, layers=None):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        labels = tuple(labels)
        adj = tuple(tuple(sorted(row)) for row in adj)
        if len(adj) != len(labels):
            raise ValueError("adjacency size does not match label count")
        index = {}
        for i, lab in enumerate(labels):
            key = lab if not isinstance(lab, tuple) else (lab[0], lab[1])
            if key in index:
                raise ValueError(f"duplicate node label {lab}")
            index[key] = i
        m = len(labels)
        for i, row in enumerate(adj):
            for j in row:
                if j == i:
                    raise ValueError(f"loop at node {i}")
                if not 0 <= j < m or i not in adj[j]:
                    raise ValueError(f"asymmetric adjacency at ({i},{j})")
        if kind == "TSk" and base is not None:
            for lab in labels:
                if len(lab) != k:
                    raise ValueError(f"label {lab} does not have size {k}")
                for v in lab.members():
                    if base.adjacency_mask(v) & lab.mask:
                        raise ValueError(f"label {lab} is not independent")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_layers", layers)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledGraph is immutable")

    def num_nodes(self):
        return len(self.labels)

    def num_edges(self):
        return sum(len(r) for r in self._adj) // 2

    def edges(self):
        return [(i, j) for i in range(len(self._adj))
                for j in self._adj[i] if i < j]

    def neighbors(self, i):
        return self._adj[i]

    def degree(self, i):
        return len(self._adj[i])

    def label(self, i):
        return self.labels[i]

    def index_of(self, label):
        """Node index of a label; raises KeyError if absent."""
        return self._index[label]

    def has_node(self, label):
        return label in self._index

    def layer(self, k):
        """Node indices of the size-k layer (TS graphs only)."""
        if self._layers is None:
            raise ValueError("not a layered graph")
        return self._layers.get(k, ())

    def layer_sizes(self):
        if self._layers is None:
            raise ValueError("not a layered graph")
        return {k: len(v) for k, v in self._layers.items()}

    def adjacency_masks(self):
        """Neighbor bit masks over node indices (for property algorithms)."""
        masks = [0] * len(self._adj)
        for i, row in enumerate(self._adj):
            for j in row:
                masks[i] |= 1 << j
        return masks

    def __repr__(self):
        return (f"LabeledGraph(kind={self.kind}, nodes={self.num_nodes()}, "
                f"edges={self.num_edges()})")


def _slide_edges(g, masks, index):
    """Adjacency rows under the token-slide rule, membership via index."""
    # nbrs[u]: the neighbour bits of base vertex u, one int each
    nbrs = [[1 << v for v in g.neighbors(u)] for u in range(g.n)]
    adj = [[] for _ in masks]
    for i, m in enumerate(masks):
        for u in members(m):
            rest = m ^ 1 << u
            for bv in nbrs[u]:
                if not m & bv:
                    j = index.get(rest | bv)
                    if j is not None and j > i:
                        adj[i].append(j)
                        adj[j].append(i)
    return adj


def build_TSk(g, k, budget=None):
    """TS_k(g): size-k independent sets, adjacent iff one token slides."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    fam = independent_sets_of_size(g, k, budget)
    masks = fam.masks()
    index = {m: i for i, m in enumerate(masks)}
    adj = _slide_edges(g, masks, index)
    return LabeledGraph("TSk", g, fam.members, adj, k=k)


def build_TS(g, budget=None):
    """TS(g): all non-empty independent sets; disjoint union of TS_k layers."""
    fam = all_independent_sets(g, budget)
    masks = fam.masks()
    index = {m: i for i, m in enumerate(masks)}
    adj = _slide_edges(g, masks, index)
    layers = {}
    for i, m in enumerate(masks):
        layers.setdefault(m.bit_count(), []).append(i)
    layers = {k: tuple(v) for k, v in layers.items()}
    return LabeledGraph("TS", g, fam.members, adj, k=None, layers=layers)


def build_Lk(g, k, budget=None):
    """L_k(g): size-k cliques, adjacent iff they share k-1 vertices."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    fam = cliques_of_size(g, k, budget)
    masks = fam.masks()
    if k == 1:
        # the k=1 rule ("share zero vertices") makes L_1 complete; the
        # common-neighbor rule below would wrongly demand adjacency
        n = len(masks)
        adj = [[j for j in range(n) if j != i] for i in range(n)]
    else:
        index = {m: i for i, m in enumerate(masks)}
        adj = [[] for _ in masks]
        for i, m in enumerate(masks):
            for u in members(m):
                others = m ^ 1 << u
                cand = ~m  # k >= 2: others is not empty, so cand ends >= 0
                for w in members(others):
                    cand &= g.adjacency_mask(w)
                for v in members(cand):
                    j = index.get(others | 1 << v)
                    if j is not None and j > i:
                        adj[i].append(j)
                        adj[j].append(i)
    return LabeledGraph("Lk", g, fam.members, adj, k=k)


def build_Fk(g, k, budget=None):
    """Token graph F_k(g): all k-subsets under the slide rule."""
    if not 1 <= k <= g.n:
        raise IndexOutOfRange(f"k must be in 1..{g.n}, got {k}")
    cap = node_budget(budget)
    if comb(g.n, k) > cap:
        raise ExplosionCap(
            f"F_{k} would have {comb(g.n, k)} nodes, budget is {cap}")
    masks = []
    for tup in combinations(range(g.n), k):
        m = 0
        for v in tup:
            m |= 1 << v
        masks.append(m)
    index = {m: i for i, m in enumerate(masks)}
    adj = _slide_edges(g, masks, index)
    labels = tuple(VertexSet(m, g.n) for m in masks)
    return LabeledGraph("Fk", g, labels, adj, k=k)


def build_TSk_induced(g, k, vertices, budget=None):
    """TS_k of the induced subgraph on `vertices`, labels kept in g's indexing."""
    vs = _as_vset(vertices, g.n)
    keep = vs.members()
    sub = induced_subgraph(g, vs)
    ts = build_TSk(sub, k, budget)
    labels = []
    for lab in ts.labels:
        m = 0
        for v in lab.members():
            m |= 1 << keep[v]
        labels.append(VertexSet(m, g.n))
    return LabeledGraph("TSk", g, labels, ts._adj, k=k)
