"""Independent sets, cliques, alpha/omega, and split-graph partitions.

_max_stable_in_masks is the one maximum-stable-set search of the
package; alpha, omega and props' clique_number and has_clique call it.

Families are tuples of bit masks, ordered by their sorted member tuples
(the order the figures use for set labels), which for fixed-size sets is
the plain lexicographic order on tuples like (0,2,4) < (0,2,5) < (0,3,4).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import config
from .config import node_budget
from .errors import ExplosionCap, NotSplit, TooLargeForSearch
from .graph import _mask_of, complement, members


@dataclass(frozen=True)
class KSPartition:
    """A split partition: K a clique, S an independent set, K ∪ S = V,
    both as masks over the graph's vertices."""

    K: int
    S: int


def is_independent(g, s):
    """True iff the vertices in s span no edge of g."""
    s = _mask_of(s, g.n)
    return not any(g.adjacency_mask(v) & s for v in members(s))


def _enumerate_stable_masks(adj, avail, k, out):
    """Append the masks of all independent k-sets inside `avail` to out,
    in sorted-tuple order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cap = node_budget()

    # branch on the lowest admissible vertex; picking vertices in
    # increasing order yields the family already sorted. `avail` holds
    # the vertices above the last pick that no pick blocks; a branch
    # with fewer of them than tokens left holds no set (counting bound)
    def rec(avail, chosen, remaining):
        if remaining == 1:
            while avail:
                low = avail & -avail
                out.append(chosen | low)
                avail ^= low
            if len(out) > cap:
                raise ExplosionCap(
                    f"more than {cap} stable sets; raise the node budget")
            return
        while avail.bit_count() >= remaining:
            low = avail & -avail
            avail ^= low
            rec(avail & ~adj[low.bit_length() - 1], chosen | low,
                remaining - 1)

    rec(avail, 0, k)
    return out


def _count_stable_masks(adj, k, cap):
    """len(_enumerate_stable_masks(adj, all vertices, k, [])) without the
    list: the same branches, on an explicit stack, but the last token
    counts the vertices left instead of listing a set for each. cap is
    the node budget; ExplosionCap is raised when the enumeration would
    raise it, once the count passes cap."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    count, stack = 0, [((1 << len(adj)) - 1, k)]
    while stack:
        avail, remaining = stack.pop()
        if remaining == 1:
            count += avail.bit_count()
            if count > cap:
                raise ExplosionCap(
                    f"more than {cap} stable sets; raise the node budget")
            continue
        while avail.bit_count() >= remaining:
            low = avail & -avail
            avail ^= low
            stack.append((avail & ~adj[low.bit_length() - 1], remaining - 1))
    return count


def independent_sets_of_size(g, k):
    """Masks of all independent k-sets of g; empty when k exceeds alpha."""
    return tuple(_enumerate_stable_masks(g._adj, (1 << g.n) - 1, k, []))


def all_independent_sets(g):
    """Masks of all non-empty independent sets, smaller sizes first."""
    masks = []
    for k in range(1, g.n + 1):
        before = len(masks)
        _enumerate_stable_masks(g._adj, (1 << g.n) - 1, k, masks)
        if len(masks) == before:
            break  # no stable set of size k, so none larger either
    return tuple(masks)


def _max_stable_in_masks(n, masks, stop_at=None, budget=None):
    """Max independent set size over an adjacency mask list.

    With stop_at set, returns early once a set of that size is found.
    Branches depth first on an explicit stack, taking the pick first;
    each pop spends one unit of the search budget. budget, a one-item
    list of the steps left, lets several searches share one budget.
    """
    budget = budget or [config.DEFAULT_SEARCH_BUDGET]
    left = budget[0]
    best = 0
    stack = [((1 << n) - 1, 0)]  # (candidates, size of the set so far)
    while stack:
        left -= 1
        if left < 0:
            raise TooLargeForSearch(
                f"stable-set search passed {config.DEFAULT_SEARCH_BUDGET} steps")
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
    budget[0] = left
    return best


def alpha(g):
    """Maximum independent set size, exact."""
    return _max_stable_in_masks(g.n, g._adj)


def omega(g):
    """Maximum clique size; omega(g) = alpha(complement(g))."""
    return alpha(complement(g))


def cliques_of_size(g, k):
    """Masks of all k-cliques of g, in the same order as the stable sets."""
    co = complement(g)
    return tuple(_enumerate_stable_masks(co._adj, (1 << g.n) - 1, k, []))


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
            S = full & ~K
            if is_independent(g, members(S)):
                return KSPartition(K, S)
    elif g.n == 0:
        return KSPartition(0, 0)
    cert = _split_certificate(g)
    if cert is not None:
        raise NotSplit(
            f"not a split graph: induced forbidden subgraph on {cert}",
            certificate=cert)
    raise NotSplit("not a split graph: no valid partition found")
