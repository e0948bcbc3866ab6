"""Constructions of base graphs whose size-k slide graph matches a target.

Every constructor returns a Realization, which re-builds the slide graph
and checks the claimed bijection on construction, so no construction is
trusted unverified. search_realizer is the bounded evidence engine for
non-realizability: exhausting all bases up to max_n vertices proves
nothing beyond that range, and its negative answer says exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .canon import is_isomorphic, iso_map
from .enumeration import GRAPHS_MAX_N, enumerate_graphs
from .errors import (ConditionViolated, CycleTooSmall, InputError, KMismatch,
                     NExceedsK, NotConnected, NotIndependent, NTooLarge)
from .graph import (Graph, _as_vset, add_isolated, complement, complete,
                    cycle, disjoint_union, make_graph, members, path, star)
from .io import graph_to_json
from .props import is_connected
from .reconf import build_TSk
from .stable import independent_sets_of_size, is_independent, kmax_partition

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


def realize_complete(n, k):
    """Base K_n plus k-1 isolated vertices; its slide graph is K_n."""
    _require(n >= 2, f"n must be >= 2, got {n}")
    _require(k >= 2, f"k must be >= 2, got {k}")
    base = add_isolated(complete(n), k - 1)
    ts = build_TSk(base, k)
    pad = ((1 << (k - 1)) - 1) << n
    witness = [0] * n
    for i, m in enumerate(ts.label_masks()):
        witness[i] = (m & ~pad).bit_length() - 1
    return Realization(complete(n), k, base, tuple(witness))


def realize_path(n, k):
    """Base complement(P_{n+1}) plus k-2 isolated vertices; slide graph P_n."""
    _require(n >= 1, f"n must be >= 1, got {n}")
    _require(k >= 2, f"k must be >= 2, got {k}")
    base = add_isolated(complement(path(n + 1)), k - 2)
    ts = build_TSk(base, k)
    pad_mask = ((1 << (k - 2)) - 1) << (n + 1)
    witness = [0] * n
    for i, m in enumerate(ts.label_masks()):
        witness[i] = members(m & ~pad_mask)[0]  # pair is {i, i+1}
    return Realization(path(n), k, base, tuple(witness))


def realize_cycle(n, k):
    """Base complement(C_n) plus k-2 isolated vertices; slide graph C_n.

    C_3 is K_3, whose complement is edgeless and yields no stable pairs,
    so n = 3 falls back to the complete-graph construction.
    """
    _require(k >= 2, f"k must be >= 2, got {k}")
    if n < 3:
        raise CycleTooSmall(f"cycle needs n >= 3, got {n}")
    if n == 3:
        r = realize_complete(3, k)
        return Realization(cycle(3), k, r.base, r.witness_iso)
    base = add_isolated(complement(cycle(n)), k - 2)
    ts = build_TSk(base, k)
    pad_mask = ((1 << (k - 2)) - 1) << n
    witness = [0] * n
    for i, m in enumerate(ts.label_masks()):
        a, b = members(m & ~pad_mask)
        # pair is a cycle edge {i, i+1} or the wrap pair {0, n-1}
        witness[i] = n - 1 if (a, b) == (0, n - 1) else a
    return Realization(cycle(n), k, base, tuple(witness))


def realize_star(n, k):
    """Base with k independent a-vertices, an n-clique of b-vertices, and
    the matching a_i b_i; slide graph is the star K_{1,n}."""
    _require(k >= 2, f"k must be >= 2, got {k}")
    _require(n >= 1, f"n must be >= 1, got {n}")
    if n > k:
        raise NExceedsK(f"star needs n <= k, got n={n}, k={k}")
    edges = [(k + i, k + j) for i in range(n) for j in range(i + 1, n)]
    edges += [(i, k + i) for i in range(n)]
    base = make_graph(n + k, edges)
    a_mask = (1 << k) - 1
    ts = build_TSk(base, k)
    witness = [0] * (n + 1)
    for i, m in enumerate(ts.label_masks()):
        # the center, or a leaf by its 1-based index
        witness[i] = 0 if m == a_mask else (m >> k).bit_length()
    return Realization(star(n), k, base, tuple(witness))


def _kmax_with_checks(f):
    if not is_connected(f):
        raise NotConnected("graph is not connected")
    return kmax_partition(f)


def _split_conditions(f, part, k):
    """Yield (vertex, message) for each violated realizability condition."""
    s_mask = part.S.mask
    for v in part.K.members():
        d = (f.adjacency_mask(v) & s_mask).bit_count()
        if d > k - 1:
            yield v, (f"clique vertex {v} has {d} stable-side neighbors, "
                      f"limit is {k - 1}")
    for w in part.S.members():
        d = f.degree(w)
        if d != 1:
            yield w, f"stable vertex {w} has degree {d}, needs exactly 1"


def split_realizable(f, k):
    """Realizability test for a connected split graph at size k."""
    _require(k >= 2, f"k must be >= 2, got {k}")
    part = _kmax_with_checks(f)
    return not any(True for _ in _split_conditions(f, part, k))


def realize_split(f, k):
    """Base graph for a connected split target, built from its clique-side
    vertices b_i, stable-side vertices x^i_j, and a shared independent pad."""
    _require(k >= 2, f"k must be >= 2, got {k}")
    part = _kmax_with_checks(f)
    violations = list(_split_conditions(f, part, k))
    if violations:
        v, msg = violations[0]
        raise ConditionViolated(msg)
    kv = part.K.members()
    m = len(kv)
    # stable-side vertices grouped by their unique clique neighbor,
    # neighborhoods processed in increasing clique-vertex index
    groups = []
    for v in kv:
        nb = sorted(set(f.neighbors(v)) & set(part.S.members()))
        groups.append(nb)
    n_s = sum(len(g) for g in groups)
    # base layout: a_1..a_{k-1} = 0..k-2, b_1..b_m = k-1..k-2+m, x's after
    b0 = k - 1
    x0 = b0 + m
    edges = [(b0 + i, b0 + j) for i in range(m) for j in range(i + 1, m)]
    x_index = {}
    pos = x0
    for i, grp in enumerate(groups):
        for j, w in enumerate(grp):
            x_index[w] = (pos, i, j)
            pos += 1
    xs = sorted(x_index.values())
    edges += [(xs[a][0], xs[b][0]) for a in range(len(xs))
              for b in range(a + 1, len(xs))]
    for w, (p, i, j) in x_index.items():
        edges.append((j, p))  # a_{j+1} neighbor
        for t in range(m):
            if t != i:
                edges.append((min(b0 + t, p), max(b0 + t, p)))
    base = make_graph(x0 + n_s, sorted(set(edges)))
    x_vertex = {p: w for w, (p, _, _) in x_index.items()}
    ts = build_TSk(base, k)
    witness = [0] * f.n
    for idx, mask in enumerate(ts.label_masks()):
        x_part = mask >> x0
        if x_part == 0:
            b = (mask >> b0) & ((1 << m) - 1)
            witness[idx] = kv[b.bit_length() - 1]
        else:
            witness[idx] = x_vertex[x0 + x_part.bit_length() - 1]
    return Realization(f, k, base, tuple(witness))


def extend_with_vG(g, independent):
    """Add one vertex adjacent to everything outside the given stable set.

    The slide graph at k = |I|+1 gains exactly the node I + v_G.
    """
    vs = _as_vset(independent, g.n)
    if not is_independent(g, vs):
        raise NotIndependent(f"{sorted(vs.members())} is not independent")
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
    base_n = sum(p.base.n for p in parts)
    edges = []
    offsets = []
    off = 0
    for p in parts:
        offsets.append(off)
        edges += [(a + off, b + off) for a, b in p.base.edges()]
        off += p.base.n
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for a in range(offsets[i], offsets[i] + parts[i].base.n):
                for b in range(offsets[j], offsets[j] + parts[j].base.n):
                    edges.append((a, b))
    base = make_graph(base_n, edges)
    target = parts[0].target
    for p in parts[1:]:
        target = disjoint_union(target, p.target)
    t_offsets = []
    t_off = 0
    for p in parts:
        t_offsets.append(t_off)
        t_off += p.target.n
    part_index = [{m: i for i, m in enumerate(part.label_masks())}
                  for part in (build_TSk(p.base, k) for p in parts)]
    ts = build_TSk(base, k)
    witness = [0] * ts.num_nodes()
    for i, m in enumerate(ts.label_masks()):
        lo = members(m)[0]
        pi = max(j for j in range(len(parts)) if offsets[j] <= lo)
        li = part_index[pi][m >> offsets[pi]]
        witness[i] = parts[pi].witness_iso[li] + t_offsets[pi]
    return Realization(target, k, base, tuple(witness))


def _candidate_matches(g, target, k, target_edges):
    fam = independent_sets_of_size(g, k)
    if len(fam) != target.n:
        return None
    ts = build_TSk(g, k)
    if ts.num_edges() != target_edges:
        return None
    if not is_isomorphic(ts, target):
        return None
    return iso_map(ts, target)


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
    for m in range(1, max_n + 1):
        for g in enumerate_graphs(m):
            res = _candidate_matches(g, target, k, target_edges)
            if res is not None:
                return Realization(target, k, g, tuple(res))
    return NoneUpTo(max_n)
