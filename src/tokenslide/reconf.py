"""Reconfiguration-graph builders: TS_k, TS, L_k, and the token graph F_k.

Nodes carry labels, vertex sets of the base graph held as bit masks,
and every builder's edges are single-token moves, never found by
comparing all pairs. A LabeledGraph stores each edge once, in the upper
row of its earlier end; whole neighbour rows are derived only when a
property asks for them. TS_k, TS and F_k slide a token along an edge of
the base graph: their nodes are ordered by sorted member tuples, and a
token that slides from u to a higher vertex v gives a set whose sorted
tuple is larger, first at u's place, so _slide_edges probes only the
slides upward and finds every edge once, from its earlier end, with
half the lookups of probing both ways. It reads those slides from a
table per half of the mask, highest member first, so every row comes
out sorted with no sort. L_k (and geometry's flip graph) swap one
element for any other: _swap_edges groups the nodes by their shared
(k-1)-subsets, k dictionary operations per node.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .config import node_budget
from .errors import ExplosionCap, IndexOutOfRange
from .graph import _Prefix, _mask_of, make_graph, members
from .stable import (_enumerate_stable_masks, all_independent_sets,
                     cliques_of_size, independent_sets_of_size)

KINDS = ("TSk", "TS", "Lk", "Fk", "Flip", "Product", "Abstract")


class LabeledGraph:
    """A graph whose nodes are labeled vertex sets of a base graph.

    Every label is held as a bit mask over the base's vertices; a
    product node (A, B) is the union A | B. Labels are distinct. Each
    node stores its upper row: its later neighbours, sorted, so every
    edge is held once, in the row of its earlier end. The whole rows,
    which rows() gives to neighbors, degree and the props and canon
    algorithms, are derived from the upper rows on first use and kept.
    The constructor takes the labels as int masks and the upper rows,
    and checks them with check_labeled_graph; _unchecked takes the same
    parameters and skips the check, for the package's own builders.
    """

    __slots__ = ("kind", "base", "_masks", "_up", "_full", "k")

    def __init__(self, kind, base, masks, up, k=None):
        _fill(self, kind, base, tuple(masks), tuple(map(tuple, up)), k)
        check_labeled_graph(self)

    @classmethod
    def _unchecked(cls, kind, base, masks, up, k=None):
        """A builder's output, taken as it is: masks a tuple of label masks
        over base's vertices, up a tuple of upper rows (sorted tuples of
        later nodes)."""
        lg = object.__new__(cls)
        _fill(lg, kind, base, masks, up, k)
        return lg

    def __setattr__(self, name, value):
        raise AttributeError("LabeledGraph is immutable")

    def label_masks(self):
        """Node labels as bit masks over the base."""
        return self._masks

    def upper_rows(self):
        """Each node's later neighbours, sorted: every edge once."""
        return self._up

    def rows(self):
        """Each node's whole neighbour row, sorted, built on first use.

        A transpose that needs no sort: node j collects the earlier
        nodes i in ascending order, then its own upper row follows.
        """
        full = self._full
        if full is None:
            full = [[] for _ in self._up]
            for i, row in enumerate(self._up):
                for j in row:
                    full[j].append(i)
            full = tuple(tuple(low) + row
                         for low, row in zip(full, self._up))
            object.__setattr__(self, "_full", full)
        return full

    def num_nodes(self):
        return len(self._up)

    def num_edges(self):
        return sum(map(len, self._up))

    def edges(self):
        return [(i, j) for i, row in enumerate(self._up) for j in row]

    def neighbors(self, i):
        return self.rows()[i]

    def degree(self, i):
        return len(self.rows()[i])

    def layer_sizes(self):
        """Node count per label size (TS graphs only)."""
        if self.kind != "TS":
            raise ValueError("not a layered graph")
        return dict(Counter(m.bit_count() for m in self._masks))

    def adjacency_masks(self):
        """Neighbor bit masks over node indices (for property algorithms)."""
        masks = [0] * len(self._up)
        for i, row in enumerate(self._up):
            bit, upper = 1 << i, 0
            for j in row:
                upper |= 1 << j
                masks[j] |= bit
            masks[i] |= upper
        return masks

    def __repr__(self):
        return (f"LabeledGraph(kind={self.kind}, nodes={self.num_nodes()}, "
                f"edges={self.num_edges()})")


def _fill(lg, kind, base, masks, up, k):
    for name, value in (("kind", kind), ("base", base), ("_masks", masks),
                        ("_up", up), ("_full", None), ("k", k)):
        object.__setattr__(lg, name, value)


def check_labeled_graph(lg):
    """Raise ValueError unless lg is well formed.

    Checks the kind, a base with a vertex count, distinct labels that
    are exact ints (a bool is not a mask) over the base's vertices, one
    upper row per label, of exact ints, strictly increasing and holding
    only later nodes, and for TSk that every label is an independent set
    of size k of the base.
    """
    if lg.kind not in KINDS:
        raise ValueError(f"unknown kind {lg.kind!r}")
    masks, up = lg._masks, lg._up
    n = getattr(lg.base, "n", None)
    # type() and not isinstance(): a bool is not a mask
    if n is None or any(type(m) is not int for m in masks):
        raise ValueError("labels must be int masks over the base")
    if len(up) != len(masks):
        raise ValueError("adjacency size does not match label count")
    if len(set(masks)) != len(masks):
        raise ValueError("duplicate node labels")
    if any(m < 0 or m >> n for m in masks):
        raise ValueError("a label is not a set of the base's vertices")
    m = len(masks)
    for i, row in enumerate(up):
        # type() and not isinstance(): the CLI's JSON writer prints
        # entries as str() gives them, and str(True) is not JSON
        if any(type(j) is not int for j in row):
            raise ValueError(f"upper row {i} holds an entry that is not an "
                             f"int node index")
        if any(a >= b for a, b in zip(row, row[1:])):
            raise ValueError(f"adjacency row {i} is not sorted or repeats "
                             f"a node")
        if row and row[0] <= i:
            raise ValueError(f"loop at node {i}" if row[0] == i else
                             f"upper row {i} holds earlier node {row[0]}")
        if row and row[-1] >= m:
            raise ValueError(f"upper row {i} holds node {row[-1]}, past "
                             f"the last node")
    if lg.kind == "TSk":
        for mask in masks:
            if mask.bit_count() != lg.k:
                raise ValueError(
                    f"label {members(mask)} does not have size {lg.k}")
            if any(lg.base.adjacency_mask(v) & mask for v in members(mask)):
                raise ValueError(f"label {members(mask)} is not independent")


def _slide_edges(g, masks):
    """Upper adjacency rows under the token-slide rule.

    A token on u slides to a neighbour v by flipping both bits. The masks
    must be independent sets of g, so v is never occupied, or all of one
    size, so a flip that also clears v gives a mask two tokens short,
    which the index cannot hold. They must also be ordered by sorted
    member tuples within each size, so a slide to a higher v leads to a
    later node and only those slides are probed. A slide of a higher u,
    or of the same u to a lower v, leads to an earlier node (the least
    vertex the two targets do not share is in it), so the flips of each
    half of a mask are tabled highest u first, and with the high half
    probed first every row comes out sorted.
    """
    index = {m: i for i, m in enumerate(masks)}.get
    # ups[u]: the bits of u and one higher neighbour v of u, v ascending
    ups = [tuple(1 << u | 1 << v for v in g.neighbors(u) if v > u)
           for u in range(g.n)]
    flips = _Prefix((), lambda below, u: ups[u] + below)
    low = (1 << g.n // 2) - 1
    high = ~low
    adj = []
    for m in masks:
        row = []
        for f in flips[m & high]:
            j = index(m ^ f)
            if j is not None:
                row.append(j)
        for f in flips[m & low]:
            j = index(m ^ f)
            if j is not None:
                row.append(j)
        adj.append(tuple(row))
    del flips, index  # so the tuple below can reuse their memory
    return tuple(adj)


def _swap_edges(masks):
    """Upper adjacency rows joining equal-size masks that differ by
    swapping one element for another.

    Two such sets share exactly one (k-1)-subset, so the nodes are
    grouped by the subsets left when one member is dropped, and each
    group is a clique: k dictionary operations per node. Node i is
    appended to its earlier holders' rows as the nodes come in order,
    so every row arrives sorted.
    """
    # subset -> its one holder so far, or the list of its holders from
    # the second on (a list for each subset would double the memory)
    groups = {}
    rows = [[] for _ in masks]
    for i, m in enumerate(masks):
        for u in members(m):
            key = m ^ 1 << u
            group = groups.setdefault(key, i)
            if group == i:
                continue
            if type(group) is int:
                group = groups[key] = [group]
            for j in group:
                rows[j].append(i)
            group.append(i)
    del groups
    return tuple(map(tuple, rows))


def build_TSk(g, k):
    """TS_k(g): size-k independent sets, adjacent iff one token slides."""
    masks = independent_sets_of_size(g, k)
    return LabeledGraph._unchecked("TSk", g, masks, _slide_edges(g, masks),
                                   k=k)


def build_TS(g):
    """TS(g): all non-empty independent sets; disjoint union of TS_k layers."""
    masks = all_independent_sets(g)
    return LabeledGraph._unchecked("TS", g, masks, _slide_edges(g, masks))


def build_Lk(g, k):
    """L_k(g): size-k cliques, adjacent iff they share k-1 vertices."""
    masks = cliques_of_size(g, k)
    return LabeledGraph._unchecked("Lk", g, masks, _swap_edges(masks), k=k)


def build_Fk(g, k):
    """Token graph F_k(g): all k-subsets under the slide rule."""
    if not 1 <= k <= g.n:
        raise IndexOutOfRange(f"k must be in 1..{g.n}, got {k}")
    cap = node_budget()
    if comb(g.n, k) > cap:
        raise ExplosionCap(
            f"F_{k} would have {comb(g.n, k)} nodes, budget is {cap}")
    masks = independent_sets_of_size(make_graph(g.n, []), k)
    return LabeledGraph._unchecked("Fk", g, masks, _slide_edges(g, masks), k=k)


def build_TSk_induced(g, k, vertices):
    """TS_k of the subgraph of g induced on `vertices`, labels kept in g's
    indexing: the stable k-sets inside the region, slides among them."""
    region = _mask_of(vertices, g.n)
    masks = tuple(_enumerate_stable_masks(g._adj, region, k, []))
    return LabeledGraph._unchecked("TSk", g, masks, _slide_edges(g, masks),
                                   k=k)
