"""Independent sets, cliques, alpha/omega, and split-graph partitions.

_max_stable_in_masks is the one maximum-stable-set search of the
package; alpha, omega and props' clique_number and has_clique call it.

Families are ordered by their sorted member tuples (the order the figures
use for set labels), which for fixed-size sets is the colex-free, plain
lexicographic order on tuples like (0,2,4) < (0,2,5) < (0,3,4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .config import node_budget
from .errors import ExplosionCap, NotSplit, SubsetViolation
from .graph import Graph, VertexSet, _as_vset, complement, members


@dataclass(frozen=True)
class StableSetFamily:
    """An ordered family of independent sets of one host graph.

    Held as bit masks; `members` makes the VertexSet tuple on first use.
    """

    host: Graph
    k: object  # a size, or the string "all"
    _masks: tuple

    @cached_property
    def members(self):
        n = self.host.n
        return tuple(VertexSet(m, n) for m in self._masks)

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self._masks)

    def __getitem__(self, i):
        return self.members[i]

    def __contains__(self, vs):
        return vs in set(self.members)

    def masks(self):
        return self._masks

    def to_json(self):
        return [list(members(m)) for m in self._masks]


@dataclass(frozen=True)
class KSPartition:
    """A split partition: K a clique, S an independent set, K ∪ S = V."""

    K: VertexSet
    S: VertexSet


def is_independent(g, s):
    """True iff the set spans no edge of g."""
    s = _as_vset(s, g.n)
    for v in s.members():
        if g.adjacency_mask(v) & s.mask:
            return False
    return True


def _enumerate_stable_masks(adj, n, k, cap, out):
    """Append all independent k-set masks in sorted-tuple order."""
    # branch on the lowest admissible vertex; picking vertices in
    # increasing order yields the family already sorted
    def rec(start, chosen, blocked, remaining):
        if remaining == 0:
            out.append(chosen)
            if len(out) > cap:
                raise ExplosionCap(
                    f"more than {cap} stable sets; raise the node budget")
            return
        for v in range(start, n - remaining + 1):
            if (blocked >> v) & 1:
                continue
            rec(v + 1, chosen | (1 << v), blocked | adj[v], remaining - 1)

    if 0 < k <= n:
        rec(0, 0, 0, k)
    return out


def independent_sets_of_size(g, k, budget=None):
    """All independent k-sets of g; empty family when k exceeds alpha."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cap = node_budget(budget)
    masks = _enumerate_stable_masks(g._adj, g.n, k, cap, [])
    return StableSetFamily(g, k, tuple(masks))


def all_independent_sets(g, budget=None):
    """All non-empty independent sets, smaller sizes first."""
    cap = node_budget(budget)
    masks = []
    for k in range(1, g.n + 1):
        before = len(masks)
        _enumerate_stable_masks(g._adj, g.n, k, cap, masks)
        if len(masks) == before:
            break  # no stable set of size k, so none larger either
    return StableSetFamily(g, "all", tuple(masks))


def _max_stable_in_masks(n, masks, stop_at=None):
    """Max independent set size over an adjacency mask list.

    With stop_at set, returns early once a set of that size is found.
    Branches depth first on an explicit stack, taking the pick first.
    """
    best = 0
    stack = [((1 << n) - 1, 0)]  # (candidates, size of the set so far)
    while stack:
        cand, size = stack.pop()
        if size + cand.bit_count() <= best:
            continue
        # branch on a highest-degree-in-candidates vertex
        pick, pick_deg = -1, -1
        for v in members(cand):
            d = (masks[v] & cand).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        if pick_deg <= 0:  # no candidates left, or no edges among them
            best = size + cand.bit_count()
            if stop_at is not None and best >= stop_at:
                break
            continue
        stack.append((cand & ~(1 << pick), size))
        stack.append((cand & ~(1 << pick) & ~masks[pick], size + 1))
    return best


def alpha(g):
    """Maximum independent set size, exact."""
    return _max_stable_in_masks(g.n, g._adj)


def omega(g):
    """Maximum clique size; omega(g) = alpha(complement(g))."""
    return alpha(complement(g))


def cliques_of_size(g, k, budget=None):
    """All k-cliques of g, same ordering convention as the stable families."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cap = node_budget(budget)
    co = complement(g)
    masks = _enumerate_stable_masks(co._adj, g.n, k, cap, [])
    return StableSetFamily(g, k, tuple(masks))


def _split_certificate(g):
    """An induced 2K_2, C_4 or C_5 as a vertex tuple, if small enough to find."""
    if g.n > 16:
        return None
    for quad in combinations(range(g.n), 4):
        sub = [[1 if g.has_edge(u, v) else 0 for v in quad] for u in quad]
        deg = [sum(row) for row in sub]
        m = sum(deg) // 2
        if m == 2 and all(d == 1 for d in deg):
            return quad  # induced 2K_2
        if m == 4 and all(d == 2 for d in deg):
            return quad  # induced C_4
    for five in combinations(range(g.n), 5):
        m = sum(1 for u, v in combinations(five, 2) if g.has_edge(u, v))
        if m == 5 and all(
                sum(1 for v in five if v != u and g.has_edge(u, v)) == 2
                for u in five):
            return five  # induced C_5
    return None


def kmax_partition(g):
    """The K-max split partition: |K| = omega(g), S = V - K independent.

    Ties between equal-size maximum cliques are broken by taking the
    first one in the family order (lexicographically least clique).
    """
    w = omega(g)
    full = (1 << g.n) - 1
    if w > 0:
        for K in cliques_of_size(g, w):
            S = VertexSet(full & ~K.mask, g.n)
            if is_independent(g, S):
                return KSPartition(K, S)
    elif g.n == 0:
        return KSPartition(VertexSet(0, 0), VertexSet(0, 0))
    cert = _split_certificate(g)
    if cert is not None:
        raise NotSplit(
            f"not a split graph: induced forbidden subgraph on {cert}",
            certificate=cert)
    raise NotSplit("not a split graph: no valid partition found")
