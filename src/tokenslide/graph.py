"""Simple undirected graphs over vertex indices 0..n-1.

Adjacency rows are bit masks (Python ints), so a graph is a tuple of n
integers and every set operation is a couple of bitwise ops. The width
cap is 128 vertices: the base graphs in every experiment are tiny, and
reconfiguration graphs built from them live in LabeledGraph, which is
adjacency-list based and not subject to this cap.
"""

from __future__ import annotations

from .errors import (
    CycleTooSmall,
    IndexOutOfRange,
    LoopEdge,
    NExceedsWidth,
    SubsetViolation,
)

WIDTH_MAX = 128


# _BYTES[o][b]: the members of byte value b at byte o of a mask, for the
# WIDTH_MAX // 8 bytes of a Graph row
_BYTES = tuple(tuple(tuple(8 * o + v for v in range(8) if b >> v & 1)
                     for b in range(256))
               for o in range(WIDTH_MAX // 8))


def members(mask):
    """Indices of the set bits, ascending: one table lookup per byte of
    the mask, and one loop step per bit above bit WIDTH_MAX."""
    out = ()
    for row in _BYTES:
        if not mask:
            return out
        out += row[mask & 255]
        mask >>= 8
    rest = []
    while mask:
        low = mask & -mask
        rest.append(low.bit_length() + WIDTH_MAX - 1)
        mask ^= low
    return out + tuple(rest)


class _Prefix(dict):
    """A value per mask, made on first use: table[0] is empty, and
    table[m] is add(table[m without its top bit], top bit's index). A
    hit is one dict lookup in C; a miss adds one member to a value that
    is itself looked up or made the same way.
    """

    __slots__ = ("_add",)

    def __init__(self, empty, add):
        super().__init__(((0, empty),))
        self._add = add

    def __missing__(self, mask):
        top = mask.bit_length() - 1
        value = self[mask] = self._add(self[mask ^ 1 << top], top)
        return value


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "names")

    def __init__(self, n, adj, names=None):
        # internal constructor; use make_graph for validated building
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_adj", tuple(adj))
        object.__setattr__(self, "names", tuple(names) if names is not None else None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def num_nodes(self):
        return self.n

    def adjacency_mask(self, v):
        return self._adj[v]

    def adjacency_masks(self):
        """Neighbor bit masks of all vertices, as LabeledGraph gives them."""
        return self._adj

    def neighbors(self, v):
        row = self._adj[v]
        return _BYTES[0][row] if row < 256 else members(row)

    def rows(self):
        """Every vertex's neighbours, as LabeledGraph gives them."""
        return tuple(map(self.neighbors, range(self.n)))

    def degree(self, v):
        return self._adj[v].bit_count()

    def has_edge(self, u, v):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexOutOfRange(f"edge ({u},{v}) outside 0..{self.n - 1}")
        return (self._adj[u] >> v) & 1 == 1

    def edges(self):
        """All edges as (u, v) with u < v, lexicographic."""
        return [(u, v) for u in range(self.n)
                for v in members(self._adj[u] >> u + 1 << u + 1)]

    def num_edges(self):
        return sum(a.bit_count() for a in self._adj) // 2

    def name_of(self, v):
        if self.names is not None:
            return self.names[v]
        return str(v)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self._adj == other._adj and self.names == other.names)

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


def make_graph(n, edges, names=None):
    """Graph with exactly the given edges, deduplicated and symmetric."""
    n = int(n)
    if n < 0:
        raise IndexOutOfRange(f"vertex count {n} is negative")
    if n > WIDTH_MAX:
        raise NExceedsWidth(f"vertex count {n} exceeds the cap {WIDTH_MAX}")
    adj = [0] * n
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise LoopEdge(f"loop edge ({u},{u})")
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if names is not None:
        names = tuple(str(x) for x in names)
        if len(names) != n:
            raise IndexOutOfRange(f"{len(names)} names for {n} vertices")
    return Graph(n, adj, names)


def complement(g):
    """Edge uv present iff absent in g (u != v)."""
    full = (1 << g.n) - 1
    adj = [(~g.adjacency_mask(v)) & full & ~(1 << v) for v in range(g.n)]
    return Graph(g.n, adj, g.names)


# named generators

def path(n):
    """P_n: vertices 0..n-1 consecutive."""
    if n < 1:
        raise IndexOutOfRange("path needs n >= 1")
    return make_graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n):
    """C_n: vertices 0..n-1 in cyclic order."""
    if n < 3:
        raise CycleTooSmall(f"cycle needs n >= 3, got {n}")
    return make_graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n):
    """K_n."""
    if n < 1:
        raise IndexOutOfRange("complete needs n >= 1")
    return make_graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(m, n):
    """K_{m,n}: parts 0..m-1 and m..m+n-1."""
    if m < 1 or n < 1:
        raise IndexOutOfRange("complete_bipartite needs m, n >= 1")
    return make_graph(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def star(n):
    """K_{1,n}: center 0, leaves 1..n."""
    if n < 1:
        raise IndexOutOfRange("star needs n >= 1")
    return make_graph(n + 1, ((0, i) for i in range(1, n + 1)))


def complete_minus_edge(n):
    """K_n minus the edge (0,1); n=4 gives the diamond."""
    if n < 2:
        raise IndexOutOfRange("complete_minus_edge needs n >= 2")
    return make_graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)
                          if (i, j) != (0, 1)))


def add_isolated(g, t):
    """g plus t isolated vertices appended after the existing ones."""
    if t < 0:
        raise IndexOutOfRange("add_isolated needs t >= 0")
    n = g.n + t
    if n > WIDTH_MAX:
        raise NExceedsWidth(f"vertex count {n} exceeds the cap {WIDTH_MAX}")
    names = None
    if g.names is not None:
        names = g.names + tuple(str(g.n + i) for i in range(t))
    return Graph(n, list(g._adj) + [0] * t, names)


def disjoint_union(g1, g2):
    """g1 plus g2 with g2's indices shifted by |V(g1)|."""
    n = g1.n + g2.n
    if n > WIDTH_MAX:
        raise NExceedsWidth(f"vertex count {n} exceeds the cap {WIDTH_MAX}")
    adj = list(g1._adj) + [a << g1.n for a in g2._adj]
    names = None
    if g1.names is not None and g2.names is not None:
        names = g1.names + g2.names
    return Graph(n, adj, names)


def _mask_of(vertices, n):
    """Mask of an iterable of vertex indices of a host with n vertices."""
    mask = 0
    for v in vertices:
        v = int(v)
        if v < 0 or v >= n:
            raise SubsetViolation(f"vertex {v} not in 0..{n - 1}")
        mask |= 1 << v
    return mask


def join(g1, h1, g2, h2):
    """Disjoint union of g1, g2 plus all edges between h1 and h2.

    h1 and h2 are iterables of vertex indices of g1 and g2 respectively;
    h2's members refer to g2's own indexing.
    """
    h1 = _mask_of(h1, g1.n)
    h2 = _mask_of(h2, g2.n)
    g = disjoint_union(g1, g2)
    adj = list(g._adj)
    h2_shifted = h2 << g1.n
    for u in members(h1):
        adj[u] |= h2_shifted
    for v in members(h2):
        adj[g1.n + v] |= h1
    return Graph(g.n, adj, g.names)


def induced_subgraph(g, vertices):
    """Induced subgraph on the given vertices, relabeled 0..m-1 ascending."""
    mask = _mask_of(vertices, g.n)
    keep = members(mask)
    pos = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for v in keep:
        for w in members(g.adjacency_mask(v) & mask):
            adj[pos[v]] |= 1 << pos[w]
    names = None
    if g.names is not None:
        names = tuple(g.names[v] for v in keep)
    return Graph(len(keep), adj, names)


def delete_vertices(g, vertices):
    """g minus the given vertices (remaining ones relabeled ascending)."""
    return induced_subgraph(
        g, members(~_mask_of(vertices, g.n) & ((1 << g.n) - 1)))


def relabel(g, perm):
    """Image of g under the permutation perm (perm[v] = new index of v)."""
    if sorted(perm) != list(range(g.n)):
        raise IndexOutOfRange("perm is not a permutation of 0..n-1")
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for w in g.neighbors(v):
            row |= 1 << perm[w]
        adj[perm[v]] = row
    names = None
    if g.names is not None:
        names = [None] * g.n
        for v in range(g.n):
            names[perm[v]] = g.names[v]
    return Graph(g.n, adj, names)
