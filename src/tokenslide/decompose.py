"""Join decomposition of slide graphs.

Joining G1 and G2 along H1, H2 splits TS_k of the join into k+1
node-disjoint parts by s = |S intersect V(G1)|. The two extreme parts
are TS_k(G1) and TS_k(G2); each middle part is a union of two products.
Part edges are stored twice: the product-rule edges and the edges
induced from the full slide graph, so any gap between them is visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (InputError, MalformedJoinSpec, NoStableSetOfSizeK,
                     UniverseOverlap)
from .graph import Graph, VertexSet, _as_vset, disjoint_union, join, members
from .io import format_label, graph_from_json, graph_to_json
from .reconf import LabeledGraph, build_TSk, build_TSk_induced
from .stable import independent_sets_of_size


@dataclass(frozen=True)
class JoinSpec:
    """Two graphs, the vertex sets to join along, and the token count."""

    g1: Graph
    g2: Graph
    h1: VertexSet
    h2: VertexSet
    k: int

    def __post_init__(self):
        object.__setattr__(self, "h1", _as_vset(self.h1, self.g1.n))
        object.__setattr__(self, "h2", _as_vset(self.h2, self.g2.n))
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        for name, g in (("G1", self.g1), ("G2", self.g2)):
            if not independent_sets_of_size(g, self.k):
                raise NoStableSetOfSizeK(
                    f"{name} has no stable set of size {self.k}")

    def joined(self):
        return join(self.g1, self.h1, self.g2, self.h2)

    def to_json(self):
        return {
            "g1": graph_to_json(self.g1),
            "g2": graph_to_json(self.g2),
            "h1": sorted(self.h1.members()),
            "h2": sorted(self.h2.members()),
            "k": self.k,
        }


def join_spec_from_json(data):
    if not (isinstance(data, dict)
            and all(key in data for key in ("g1", "g2", "h1", "h2", "k"))
            and type(data["k"]) is int  # not isinstance: rejects true
            and all(isinstance(h, list) and all(type(v) is int for v in h)
                    for h in (data["h1"], data["h2"]))):
        raise MalformedJoinSpec(
            "JoinSpec JSON must be an object with graphs g1, g2, integer "
            "lists h1, h2 and an integer k")
    g1 = graph_from_json(data["g1"])
    g2 = graph_from_json(data["g2"])
    return JoinSpec(g1, g2, _as_vset(data["h1"], g1.n),
                    _as_vset(data["h2"], g2.n), data["k"])


def product(a, b):
    """The factor-move product of two labeled graphs.

    Nodes are ordered label pairs; a move changes one factor along one
    of its edges while the other factor stays put. Bases over the same
    universe are kept in place and every label pair must be disjoint;
    distinct bases are made disjoint by offsetting the right factor.
    """
    same = a.base is b.base or a.base == b.base
    if same:
        base = a.base
        lift_a = list(a.labels)
        lift_b = list(b.labels)
        for la in lift_a:
            for lb in lift_b:
                if la.mask & lb.mask:
                    raise UniverseOverlap(
                        f"labels {la} and {lb} share vertices")
    else:
        off = a.base.n
        base = disjoint_union(a.base, b.base)
        lift_a = [VertexSet(la.mask, base.n) for la in a.labels]
        lift_b = [VertexSet(lb.mask << off, base.n) for lb in b.labels]
    nb = b.num_nodes()
    labels = tuple((la, lb) for la in lift_a for lb in lift_b)
    # node (i, j) is i * nb + j, so its sorted row holds the left factor's
    # moves to i2 < i, then the right factor's moves, then those to i2 > i
    adj = []
    for i in range(a.num_nodes()):
        row_a = a.neighbors(i)
        for j in range(nb):
            adj.append(tuple(
                [i2 * nb + j for i2 in row_a if i2 < i]
                + [i * nb + j2 for j2 in b.neighbors(j)]
                + [i2 * nb + j for i2 in row_a if i2 > i]))
    k = (a.k + b.k) if (a.k is not None and b.k is not None) else None
    return LabeledGraph._unchecked("Product", base, tuple(adj), k=k,
                                   labels=labels)


def _product_mask_edges(fa, fb):
    """Nodes (as union masks) and edges of product(fa, fb), where the
    factors are TS graphs over one shared base with disjoint label ranges."""
    p = product(fa, fb)
    masks = [la.mask | lb.mask for la, lb in p.labels]
    edges = {(min(masks[i], masks[j]), max(masks[i], masks[j]))
             for i, j in p.edges()}
    return set(masks), edges


@dataclass(frozen=True)
class Decomposition:
    """The k+1 parts of TS_k over a join, with provenance and edge diffs.

    parts[0] is the TS_k(G1) part, parts[1] the TS_k(G2) part, and
    parts[2 + (s-1)] the mixed part for s = 1..k-1. provenance maps each
    part node to "left", "right", or "both" (which union side produced
    it). extra_within lists induced part edges the product rule missed.
    """

    spec: JoinSpec
    joined: Graph
    full: LabeledGraph
    parts: tuple
    part_s: tuple
    provenance: tuple
    product_edges: tuple
    extra_within: tuple
    cross_edges: tuple
    part_of: tuple

    def to_json(self):
        out = {
            "k": self.spec.k,
            "join_nodes": self.joined.n,
            "full_nodes": self.full.num_nodes(),
            "full_edges": self.full.num_edges(),
            "parts": [],
            "cross_edges": [
                [format_label(self.full.label(i)),
                 format_label(self.full.label(j))]
                for i, j in self.cross_edges
            ],
        }
        for t, part in enumerate(self.parts):
            out["parts"].append({
                "s": self.part_s[t],
                "nodes": [format_label(l) for l in part.labels],
                "provenance": list(self.provenance[t]),
                "edges": part.num_edges(),
                "product_edges": len(self.product_edges[t]),
                "extra_within": [
                    [format_label(part.label(i)), format_label(part.label(j))]
                    for i, j in self.extra_within[t]
                ],
            })
        return out


def decompose_join(spec):
    """Split TS_k(join(spec)) into its k+1 parts."""
    k = spec.k
    g = spec.joined()
    n1 = spec.g1.n
    g1_mask = (1 << n1) - 1
    g2_mask = ((1 << g.n) - 1) ^ g1_mask
    h2_shift = spec.h2.mask << n1
    h1_mask = spec.h1.mask
    full = build_TSk(g, k)

    part_masks = []       # per part: ordered list of node masks
    provenances = []
    product_edge_sets = []

    # s = k: all tokens on G1; s = 0: all on G2
    for s_val, rng in ((k, g1_mask), (0, g2_mask)):
        ts = build_TSk_induced(g, k, VertexSet(rng, g.n))
        masks = ts.label_masks()
        part_masks.append(masks)
        provenances.append(["left" if s_val == k else "right"] * len(masks))
        edges = set()
        for i, j in ts.edges():
            a, b = masks[i], masks[j]
            edges.add((min(a, b), max(a, b)))
        product_edge_sets.append(edges)

    for s in range(1, k):
        fa1 = build_TSk_induced(g, s, VertexSet(g1_mask, g.n))
        fa2 = build_TSk_induced(g, k - s, VertexSet(g2_mask & ~h2_shift, g.n))
        fb1 = build_TSk_induced(g, s, VertexSet(g1_mask & ~h1_mask, g.n))
        fb2 = build_TSk_induced(g, k - s, VertexSet(g2_mask, g.n))
        nodes_a, edges_a = _product_mask_edges(fa1, fa2)
        nodes_b, edges_b = _product_mask_edges(fb1, fb2)
        combined = nodes_a | nodes_b
        ordered = sorted(combined, key=members)
        prov = []
        for m in ordered:
            if m in nodes_a and m in nodes_b:
                prov.append("both")
            elif m in nodes_a:
                prov.append("left")
            else:
                prov.append("right")
        part_masks.append(ordered)
        provenances.append(prov)
        product_edge_sets.append(edges_a | edges_b)

    # classification by s must agree with the product construction
    claimed = {}
    for t, masks in enumerate(part_masks):
        for m in masks:
            if m in claimed:
                raise RuntimeError("part node sets overlap")
            claimed[m] = t
    full_masks = full.label_masks()
    for m in full_masks:
        s = (m & g1_mask).bit_count()
        expect = 0 if s == k else 1 if s == 0 else 2 + (s - 1)
        if claimed.get(m) != expect:
            raise RuntimeError(
                f"node {VertexSet(m, g.n)} not classified into its s-part")
    if len(claimed) != full.num_nodes():
        raise RuntimeError("parts do not cover the slide graph")

    part_s = tuple([k, 0] + list(range(1, k)))
    parts = []
    extra_within = []
    product_local = []
    part_of = [0] * full.num_nodes()
    full_pos = {m: i for i, m in enumerate(full_masks)}
    for t, masks in enumerate(part_masks):
        pos = {m: i for i, m in enumerate(masks)}
        adj = []
        induced = set()
        for i, m in enumerate(masks):
            fi = full_pos[m]
            part_of[fi] = t
            row = []
            for fj in full.neighbors(fi):
                mj = full_masks[fj]
                j = pos.get(mj)
                if j is not None:
                    row.append(j)
                    if j > i:
                        induced.add((min(m, mj), max(m, mj)))
            row.sort()
            adj.append(tuple(row))
        parts.append(LabeledGraph._unchecked("TSk", g, tuple(adj), k=k,
                                             masks=tuple(masks)))
        prod = product_edge_sets[t]
        if not prod <= induced:
            raise RuntimeError("product rule produced a non-slide edge")
        extra = sorted(induced - prod)
        extra_within.append(tuple(
            (min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in extra))
        product_local.append(tuple(sorted(
            (min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in prod)))

    cross = tuple((i, j) for i, j in full.edges()
                  if part_of[i] != part_of[j])
    return Decomposition(
        spec=spec, joined=g, full=full, parts=tuple(parts),
        part_s=part_s, provenance=tuple(tuple(p) for p in provenances),
        product_edges=tuple(product_local),
        extra_within=tuple(extra_within),
        cross_edges=cross, part_of=tuple(part_of))


def check_disconnection(spec, i):
    """Does every size-k stable set of G_i meet H_i in a count other than 1?

    When H_{3-i} is non-empty this is exactly the condition for the
    TS_k(G_i) part to have no edges leaving it in the joined slide graph.
    """
    if i not in (1, 2):
        raise InputError(f"side must be 1 or 2, got {i}")
    g = spec.g1 if i == 1 else spec.g2
    h = spec.h1 if i == 1 else spec.h2
    fam = independent_sets_of_size(g, spec.k)
    return all((s.mask & h.mask).bit_count() != 1 for s in fam)
