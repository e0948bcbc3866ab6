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
from .graph import VertexSet, _as_vset, induced_subgraph, members
from .stable import all_independent_sets, cliques_of_size, independent_sets_of_size

KINDS = ("TSk", "TS", "Lk", "Fk", "Flip", "Product", "Abstract")


class LabeledGraph:
    """A graph whose nodes are labeled vertex sets of a base graph.

    Product nodes carry composite labels: ordered (left, right) pairs of
    VertexSet. Adjacency rows are sorted, symmetric and loopless; labels
    are distinct. The public constructor checks all of this
    (check_labeled_graph); the package's own builders use _unchecked.
    """

    __slots__ = ("kind", "base", "_labels", "_masks", "_adj", "k", "_layers",
                 "_index")

    def __init__(self, kind, base, labels, adj, k=None, layers=None):
        _fill(self, kind, base, tuple(labels), None,
              tuple(tuple(sorted(row)) for row in adj), k, layers)
        check_labeled_graph(self)

    @classmethod
    def _unchecked(cls, kind, base, adj, k=None, layers=None, masks=None,
                   labels=None):
        """A builder's output, taken as it is: adj a tuple of sorted
        tuples, and either set labels as masks over base's vertices or
        the labels themselves."""
        lg = object.__new__(cls)
        _fill(lg, kind, base, labels, masks, adj, k, layers)
        return lg

    def __setattr__(self, name, value):
        raise AttributeError("LabeledGraph is immutable")

    @property
    def labels(self):
        """Node labels; VertexSet objects are made on first access."""
        if self._labels is None:
            n = self.base.n
            object.__setattr__(self, "_labels",
                               tuple(VertexSet(m, n) for m in self._masks))
        return self._labels

    def label_masks(self):
        """Node labels as bit masks over the base, or None for labels
        that are not vertex sets of the base (product pairs)."""
        if self._masks is None:
            n = None if self.base is None else self.base.n
            if not all(isinstance(lab, VertexSet) and lab.n == n
                       for lab in self._labels):
                return None
            object.__setattr__(self, "_masks",
                               tuple(lab.mask for lab in self._labels))
        return self._masks

    def num_nodes(self):
        return len(self._adj)

    def num_edges(self):
        return sum(map(len, self._adj)) // 2

    def edges(self):
        return [(i, j) for i in range(len(self._adj))
                for j in self._adj[i] if i < j]

    def neighbors(self, i):
        return self._adj[i]

    def degree(self, i):
        return len(self._adj[i])

    def label(self, i):
        return self.labels[i]

    def _label_index(self):
        if self._index is None:
            object.__setattr__(self, "_index", {
                lab: i for i, lab in enumerate(self.labels)})
        return self._index

    def index_of(self, label):
        """Node index of a label; raises KeyError if absent."""
        return self._label_index()[label]

    def has_node(self, label):
        return label in self._label_index()

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


def _fill(lg, kind, base, labels, masks, adj, k, layers):
    for name, value in (("kind", kind), ("base", base), ("_labels", labels),
                        ("_masks", masks), ("_adj", adj), ("k", k),
                        ("_layers", layers), ("_index", None)):
        object.__setattr__(lg, name, value)


def check_labeled_graph(lg):
    """Raise ValueError unless lg is well formed.

    Checks the kind, one sorted, loopless, symmetric adjacency row per
    label, distinct labels, and for TSk that every label is an
    independent set of size k of the base.
    """
    if lg.kind not in KINDS:
        raise ValueError(f"unknown kind {lg.kind!r}")
    labels, adj = lg.labels, lg._adj
    if len(adj) != len(labels):
        raise ValueError("adjacency size does not match label count")
    seen = set()
    for lab in labels:
        if lab in seen:
            raise ValueError(f"duplicate node label {lab}")
        seen.add(lab)
    m = len(labels)
    for i, row in enumerate(adj):
        if list(row) != sorted(row):
            raise ValueError(f"adjacency row {i} is not sorted")
        for j in row:
            if j == i:
                raise ValueError(f"loop at node {i}")
            if not 0 <= j < m or i not in adj[j]:
                raise ValueError(f"asymmetric adjacency at ({i},{j})")
    if lg.kind == "TSk" and lg.base is not None:
        for lab in labels:
            if len(lab) != lg.k:
                raise ValueError(f"label {lab} does not have size {lg.k}")
            for v in lab.members():
                if lg.base.adjacency_mask(v) & lab.mask:
                    raise ValueError(f"label {lab} is not independent")


def _slide_edges(g, masks):
    """Sorted adjacency rows under the token-slide rule."""
    index = {m: i for i, m in enumerate(masks)}.get
    # nbrs[u]: the neighbour bits of base vertex u, one int each
    nbrs = [[1 << v for v in g.neighbors(u)] for u in range(g.n)]
    adj = []
    for m in masks:
        row = []
        for u in members(m):
            rest = m ^ 1 << u
            for bv in nbrs[u]:
                if not m & bv:
                    j = index(rest | bv)
                    if j is not None:
                        row.append(j)
        row.sort()
        adj.append(tuple(row))
    return tuple(adj)


def build_TSk(g, k, budget=None):
    """TS_k(g): size-k independent sets, adjacent iff one token slides."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    masks = independent_sets_of_size(g, k, budget).masks()
    return LabeledGraph._unchecked("TSk", g, _slide_edges(g, masks), k=k,
                                   masks=masks)


def build_TS(g, budget=None):
    """TS(g): all non-empty independent sets; disjoint union of TS_k layers."""
    masks = all_independent_sets(g, budget).masks()
    layers = {}
    for i, m in enumerate(masks):
        layers.setdefault(m.bit_count(), []).append(i)
    layers = {k: tuple(v) for k, v in layers.items()}
    return LabeledGraph._unchecked("TS", g, _slide_edges(g, masks),
                                   layers=layers, masks=masks)


def build_Lk(g, k, budget=None):
    """L_k(g): size-k cliques, adjacent iff they share k-1 vertices."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    masks = cliques_of_size(g, k, budget).masks()
    if k == 1:
        # the k=1 rule ("share zero vertices") makes L_1 complete; the
        # common-neighbor rule below would wrongly demand adjacency
        n = len(masks)
        adj = tuple(tuple(j for j in range(n) if j != i) for i in range(n))
    else:
        index = {m: i for i, m in enumerate(masks)}.get
        adj = []
        for m in masks:
            row = []
            for u in members(m):
                others = m ^ 1 << u
                cand = ~m  # k >= 2: others is not empty, so cand ends >= 0
                for w in members(others):
                    cand &= g.adjacency_mask(w)
                for v in members(cand):
                    j = index(others | 1 << v)
                    if j is not None:
                        row.append(j)
            row.sort()
            adj.append(tuple(row))
        adj = tuple(adj)
    return LabeledGraph._unchecked("Lk", g, adj, k=k, masks=masks)


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
    masks = tuple(masks)
    return LabeledGraph._unchecked("Fk", g, _slide_edges(g, masks), k=k,
                                   masks=masks)


def build_TSk_induced(g, k, vertices, budget=None):
    """TS_k of the induced subgraph on `vertices`, labels kept in g's indexing."""
    vs = _as_vset(vertices, g.n)
    keep = vs.members()
    sub = induced_subgraph(g, vs)
    ts = build_TSk(sub, k, budget)
    masks = []
    for m in ts.label_masks():
        lifted = 0
        for v in members(m):
            lifted |= 1 << keep[v]
        masks.append(lifted)
    return LabeledGraph._unchecked("TSk", g, ts._adj, k=k,
                                   masks=tuple(masks))
