"""Constructions of base graphs whose size-k slide graph matches a target.

Every constructor states a base graph and a label rule mapping each
stable k-set of the base to a target vertex. Realization is the one place
that builds the slide graph of such a base and checks the rule on it,
so no construction is trusted unverified. search_realizer is the bounded
evidence engine for non-realizability: exhausting all bases up to max_n
vertices proves nothing beyond that range, and its negative answer says
exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations

from .canon import iso_map
from .config import node_budget
from .enumeration import GRAPHS_MAX_N, enumerate_graphs
from .errors import (ConditionViolated, CycleTooSmall, InputError, KMismatch,
                     NExceedsK, NotConnected, NotIndependent, NTooLarge)
from .graph import (Graph, _mask_of, add_isolated, complement, complete,
                    cycle, disjoint_union, make_graph, members, path, star)
from .io import graph_to_json
from .props import is_connected
from .reconf import build_TSk
from .stable import (_count_stable_masks, independent_sets_of_size,
                     is_independent, kmax_partition)

@dataclass(frozen=True)
class Realization:
    """A base graph together with a verified slide-graph bijection.

    witness_iso maps node indices of build_TSk(base, k) to target vertices.
    """

    target: Graph
    k: int
    base: Graph
    witness_iso: tuple

    def __post_init__(self):
        object.__setattr__(self, "witness_iso", tuple(self.witness_iso))
        ts = build_TSk(self.base, self.k)
        n = self.target.n
        if ts.num_nodes() != n:
            raise ValueError(
                f"slide graph has {ts.num_nodes()} nodes, target has {n}")
        if sorted(self.witness_iso) != list(range(n)):
            raise ValueError("witness_iso is not a bijection")
        f = self.witness_iso
        mapped = {(min(f[i], f[j]), max(f[i], f[j])) for i, j in ts.edges()}
        if mapped != set(self.target.edges()):
            raise ValueError("witness_iso does not map edges onto the target")

    def to_json(self):
        return {
            "target": graph_to_json(self.target),
            "k": self.k,
            "base": graph_to_json(self.base),
            "witness_iso": list(self.witness_iso),
        }


@dataclass(frozen=True)
class NoneUpTo:
    """Negative search verdict: no base with at most max_n vertices.

    Evidence only; says nothing about larger bases.
    """

    max_n: int

    def to_json(self):
        return {"found": False, "max_n": self.max_n}


def _require(cond, msg):
    if not cond:
        raise InputError(msg)


def _realized(target, k, base, vertex_of):
    """Realization of target by base, where vertex_of maps the mask of each
    stable k-set of base (in build_TSk's node order) to its target vertex.

    Only the stable sets are enumerated here; the Realization gate builds
    the slide graph and checks the map.
    """
    masks = independent_sets_of_size(base, k)
    return Realization(target, k, base, tuple(map(vertex_of, masks)))


def realize_complete(n, k):
    """Base K_n plus k-1 isolated vertices; its slide graph is K_n."""
    _require(n >= 2, f"n must be >= 2, got {n}")
    _require(k >= 2, f"k must be >= 2, got {k}")
    low = (1 << n) - 1
    return _realized(complete(n), k, add_isolated(complete(n), k - 1),
                     lambda m: (m & low).bit_length() - 1)


def realize_path(n, k):
    """Base complement(P_{n+1}) plus k-2 isolated vertices; slide graph P_n."""
    _require(n >= 1, f"n must be >= 1, got {n}")
    _require(k >= 2, f"k must be >= 2, got {k}")
    low = (1 << (n + 1)) - 1
    # the stable pair is {i, i+1}, which is path vertex i
    return _realized(path(n), k, add_isolated(complement(path(n + 1)), k - 2),
                     lambda m: members(m & low)[0])


def realize_cycle(n, k):
    """Base complement(C_n) plus k-2 isolated vertices; slide graph C_n.

    C_3 is K_3, whose complement is edgeless and yields no stable pairs,
    so n = 3 is the complete-graph construction.
    """
    _require(k >= 2, f"k must be >= 2, got {k}")
    if n < 3:
        raise CycleTooSmall(f"cycle needs n >= 3, got {n}")
    if n == 3:
        return realize_complete(3, k)
    low = (1 << n) - 1
    wrap = 1 | 1 << (n - 1)
    # the stable pair is a cycle edge {i, i+1} or the wrap pair {0, n-1}
    return _realized(cycle(n), k, add_isolated(complement(cycle(n)), k - 2),
                     lambda m: n - 1 if (m & low) == wrap
                     else members(m & low)[0])


def realize_star(n, k):
    """Base with k independent a-vertices, an n-clique of b-vertices, and
    the matching a_i b_i; slide graph is the star K_{1,n}."""
    _require(k >= 2, f"k must be >= 2, got {k}")
    _require(n >= 1, f"n must be >= 1, got {n}")
    if n > k:
        raise NExceedsK(f"star needs n <= k, got n={n}, k={k}")
    edges = chain(((k + i, k + j) for i in range(n) for j in range(i + 1, n)),
                  ((i, k + i) for i in range(n)))
    # the center is the set of all a-vertices; leaf i swaps a_i for b_i
    return _realized(star(n), k, make_graph(n + k, edges),
                     lambda m: (m >> k).bit_length())


def _kmax_with_checks(f):
    if not is_connected(f):
        raise NotConnected("graph is not connected")
    return kmax_partition(f)


def _split_conditions(f, part, k):
    """Yield a message for each violated realizability condition."""
    for v in members(part.K):
        d = (f.adjacency_mask(v) & part.S).bit_count()
        if d > k - 1:
            yield (f"clique vertex {v} has {d} stable-side neighbors, "
                   f"limit is {k - 1}")
    for w in members(part.S):
        d = f.degree(w)
        if d != 1:
            yield f"stable vertex {w} has degree {d}, needs exactly 1"


def split_realizable(f, k):
    """Realizability test for a connected split graph at size k."""
    _require(k >= 2, f"k must be >= 2, got {k}")
    part = _kmax_with_checks(f)
    return next(_split_conditions(f, part, k), None) is None


def realize_split(f, k):
    """Base graph for a connected split target, built from its clique-side
    vertices b_i, stable-side vertices x^i_j, and a shared independent pad."""
    _require(k >= 2, f"k must be >= 2, got {k}")
    part = _kmax_with_checks(f)
    violation = next(_split_conditions(f, part, k), None)
    if violation is not None:
        raise ConditionViolated(violation)
    kv = members(part.K)
    # x^i_j = (i, j, w): the j-th stable-side neighbor w of clique vertex i
    xs = [(i, j, w) for i, v in enumerate(kv)
          for j, w in enumerate(members(f.adjacency_mask(v) & part.S))]
    # base layout: a_1..a_{k-1} = 0..k-2, then the b's, then the x's
    b0 = k - 1
    x0 = b0 + len(kv)
    edges = list(combinations(range(b0, x0), 2))
    edges += combinations(range(x0, x0 + len(xs)), 2)
    for p, (i, j, _) in enumerate(xs, x0):
        edges.append((j, p))  # a_{j+1} neighbor
        edges += [(b, p) for b in range(b0, x0) if b != b0 + i]
    # a stable k-set is b_i with every a, or b_i and x^i_j with every a
    # but a_{j+1}: its x bit, if any, names the vertex, else its b bit
    return _realized(f, k, make_graph(x0 + len(xs), edges),
                     lambda m: xs[(m >> x0).bit_length() - 1][2] if m >> x0
                     else kv[(m >> b0).bit_length() - 1])


def extend_with_vG(g, independent):
    """Add one vertex adjacent to everything outside the given stable set.

    The slide graph at k = |I|+1 gains exactly the node I + v_G.
    """
    vs = members(_mask_of(independent, g.n))
    if not is_independent(g, vs):
        raise NotIndependent(f"{list(vs)} is not independent")
    extra = [(v, g.n) for v in range(g.n) if v not in vs]
    return make_graph(g.n + 1, list(g.edges()) + extra)


def realize_disjoint_union(parts, k):
    """Complete-join the part bases; the slide graph is the disjoint
    union of the part targets (any stable set fits inside one part)."""
    parts = list(parts)
    _require(len(parts) >= 1, "need at least one part")
    for idx, p in enumerate(parts):
        if p.k != k:
            raise KMismatch(f"part {idx} has k={p.k}, expected {k}")
    if len(parts) == 1:
        return parts[0]
    _require(k >= 2, f"k must be >= 2 for multi-part unions, got {k}")
    edges = []
    vertex = {}  # stable k-set mask of the base -> target vertex
    off = t_off = 0
    for p in parts:
        n = p.base.n
        edges += [(a + off, b + off) for a, b in p.base.edges()]
        edges += [(a, b) for a in range(off) for b in range(off, off + n)]
        masks = independent_sets_of_size(p.base, k)
        vertex.update((m << off, w + t_off)
                      for m, w in zip(masks, p.witness_iso))
        off += n
        t_off += p.target.n
    target = reduce(disjoint_union, (p.target for p in parts))
    return _realized(target, k, make_graph(off, edges), vertex.__getitem__)


def search_realizer(target, k, max_n):
    """Exhaustive base search over isomorph-free graphs up to max_n vertices.

    Returns the first hit in (vertex count, canonical order), or
    NoneUpTo(max_n). A negative answer is bounded evidence only.
    """
    if max_n > GRAPHS_MAX_N:
        raise NTooLarge(f"search limited to {GRAPHS_MAX_N} vertices, "
                        f"got {max_n}")
    _require(max_n >= 1, f"max_n must be >= 1, got {max_n}")
    _require(k >= 1, f"k must be >= 1, got {k}")
    target_edges = target.num_edges()
    cap = node_budget()

    def fits(g):  # an isomorphism invariant: one node per stable k-set
        return _count_stable_masks(g._adj, k, cap) == target.n

    for m in range(1, max_n + 1):
        # the layers below max_n are built in full anyway, as parents of
        # the next; the top one drops misfits before canonising them
        graphs = (enumerate_graphs(m, fits) if m == max_n
                  else filter(fits, enumerate_graphs(m)))
        for g in graphs:
            ts = build_TSk(g, k)
            if ts.num_edges() == target_edges:
                res = iso_map(ts, target)
                if res is not None:
                    return Realization(target, k, g, tuple(res))
    return NoneUpTo(max_n)
