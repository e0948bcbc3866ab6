"""Join decomposition of slide graphs.

Joining G1 and G2 along H1, H2 splits TS_k of the join into k+1
node-disjoint parts by s = |S intersect V(G1)|. The parts are cut from
the full slide graph. The two extreme parts are TS_k(G1) and TS_k(G2);
each middle part is the union of two products, TS_s(G1) x TS_{k-s}(G2 -
H2) and TS_s(G1 - H1) x TS_{k-s}(G2). Each route is the `product` of two
slide graphs induced in the join, its node (A, B) the stable set A | B,
and is checked against the part: together the routes must give its
nodes, and their edges must be among its edges. Part edges no route
gives are listed, so any gap between the product rule and the slide
graph shows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graph import Graph, _mask_of, disjoint_union, join, members
from .io import _label_formatter, graph_from_json, graph_to_json
from .reconf import LabeledGraph, build_TSk, build_TSk_induced
from .stable import _max_stable_in_masks, independent_sets_of_size


@dataclass(frozen=True)
class JoinSpec:
    """Two graphs, the vertex sets to join along, and the token count.

    h1 and h2 are given as iterables of vertex indices of g1 and g2 and
    held as masks over them.
    """

    g1: Graph
    g2: Graph
    h1: int
    h2: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "h1", _mask_of(self.h1, self.g1.n))
        object.__setattr__(self, "h2", _mask_of(self.h2, self.g2.n))
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        for name, g in (("G1", self.g1), ("G2", self.g2)):
            if _max_stable_in_masks(g.n, g._adj, self.k) < self.k:
                raise InputError(f"{name} has no stable set of size {self.k}")

    def joined(self):
        return join(self.g1, members(self.h1), self.g2, members(self.h2))

    def to_json(self):
        return {
            "g1": graph_to_json(self.g1),
            "g2": graph_to_json(self.g2),
            "h1": list(members(self.h1)),
            "h2": list(members(self.h2)),
            "k": self.k,
        }


def join_spec_from_json(data):
    if not (isinstance(data, dict)
            and all(key in data for key in ("g1", "g2", "h1", "h2", "k"))
            and type(data["k"]) is int  # not isinstance: rejects true
            and all(isinstance(h, list) and all(type(v) is int for v in h)
                    for h in (data["h1"], data["h2"]))):
        raise InputError(
            "JoinSpec JSON must be an object with graphs g1, g2, integer "
            "lists h1, h2 and an integer k")
    g1 = graph_from_json(data["g1"])
    g2 = graph_from_json(data["g2"])
    return JoinSpec(g1, g2, data["h1"], data["h2"], data["k"])


def product(a, b):
    """The factor-move product of two labeled graphs.

    Node (i, j) is the union of a's label i and b's label j; a move
    changes one factor along one of its edges while the other stays put.
    Over a shared base every label pair must be disjoint; distinct bases
    are made disjoint by offsetting the right factor.
    """
    a_masks, b_masks = a.label_masks(), b.label_masks()
    if a.base is b.base or a.base == b.base:
        base = a.base
        for ma in a_masks:
            for mb in b_masks:
                if ma & mb:
                    raise InputError(
                        f"labels {list(members(ma))} and "
                        f"{list(members(mb))} share vertices")
    else:
        base = disjoint_union(a.base, b.base)
        b_masks = [mb << a.base.n for mb in b_masks]
    nb = len(b_masks)
    masks = tuple(ma | mb for ma in a_masks for mb in b_masks)
    # node (i, j) is i * nb + j, so its upper row holds the right
    # factor's moves to j2 > j, then the left factor's moves to i2 > i
    adj = []
    b_up = b.upper_rows()
    for i, row_a in enumerate(a.upper_rows()):
        for j, row_b in enumerate(b_up):
            adj.append(tuple([i * nb + j2 for j2 in row_b]
                             + [i2 * nb + j for i2 in row_a]))
    k = (a.k + b.k) if (a.k is not None and b.k is not None) else None
    return LabeledGraph._unchecked("Product", base, masks, tuple(adj), k=k)


def _route(g, a_region, s, b_region, t):
    """TS_s(g[a_region]) x TS_t(g[b_region]) in g's indexing; TS_0 = {empty
    set} is the identity, so a side with no tokens gives the other alone."""
    factors = [build_TSk_induced(g, u, members(region))
               for region, u in ((a_region, s), (b_region, t)) if u]
    return product(*factors) if len(factors) == 2 else factors[0]


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
        fmt = _label_formatter(self.joined.n)
        full = self.full.label_masks()
        out = {
            "k": self.spec.k,
            "join_nodes": self.joined.n,
            "full_nodes": self.full.num_nodes(),
            "full_edges": self.full.num_edges(),
            "parts": [],
            "cross_edges": [[fmt(full[i]), fmt(full[j])]
                            for i, j in self.cross_edges],
        }
        for t, part in enumerate(self.parts):
            masks = part.label_masks()
            out["parts"].append({
                "s": self.part_s[t],
                "nodes": list(map(fmt, masks)),
                "provenance": list(self.provenance[t]),
                "edges": part.num_edges(),
                "product_edges": len(self.product_edges[t]),
                "extra_within": [[fmt(masks[i]), fmt(masks[j])]
                                 for i, j in self.extra_within[t]],
            })
        return out


def decompose_join(spec):
    """Split TS_k(join(spec)) into its k+1 parts."""
    k = spec.k
    g = spec.joined()
    n1 = spec.g1.n
    g1_mask = (1 << n1) - 1
    g2_mask = ((1 << g.n) - 1) ^ g1_mask
    h1_mask = spec.h1
    h2_mask = spec.h2 << n1
    full = build_TSk(g, k)
    full_masks, full_up = full.label_masks(), full.upper_rows()

    part_s = (k, 0) + tuple(range(1, k))
    t_of = {s: t for t, s in enumerate(part_s)}
    part_of = tuple(t_of[(m & g1_mask).bit_count()] for m in full_masks)

    parts, provenances, product_edges, extra_within = [], [], [], []
    for t, s in enumerate(part_s):
        ids = [i for i, p in enumerate(part_of) if p == t]  # in full order
        masks = tuple(full_masks[i] for i in ids)
        local = {m: i for i, m in enumerate(masks)}
        # local keeps the full order, so restricted upper rows stay upper
        adj = tuple(tuple(local[full_masks[j]] for j in full_up[i]
                          if part_of[j] == t) for i in ids)
        parts.append(LabeledGraph._unchecked("TSk", g, masks, adj, k=k))
        routes = []
        if s > 0:
            routes.append(("left", _route(g, g1_mask, s,
                                          g2_mask & ~h2_mask, k - s)))
        if s < k:
            routes.append(("right", _route(g, g1_mask & ~h1_mask, s,
                                           g2_mask, k - s)))
        origin = {}
        for name, route in routes:
            for m in route.label_masks():
                origin[m] = "both" if m in origin else name
        if origin.keys() != local.keys():
            raise RuntimeError(
                f"product routes do not give exactly the s = {s} part")
        prod = set()
        for _, route in routes:
            pos = [local[m] for m in route.label_masks()]
            prod.update((min(pos[i], pos[j]), max(pos[i], pos[j]))
                        for i, j in route.edges())
        induced = set(parts[-1].edges())
        if not prod <= induced:
            raise RuntimeError("product rule produced a non-slide edge")
        provenances.append(tuple(origin[m] for m in masks))
        product_edges.append(tuple(sorted(prod)))
        # ordered by the label masks of each edge's two ends
        extra_within.append(tuple(sorted(
            induced - prod, key=lambda e: sorted(masks[v] for v in e))))

    cross = tuple((i, j) for i, j in full.edges()
                  if part_of[i] != part_of[j])
    return Decomposition(
        spec=spec, joined=g, full=full, parts=tuple(parts),
        part_s=part_s, provenance=tuple(provenances),
        product_edges=tuple(product_edges),
        extra_within=tuple(extra_within),
        cross_edges=cross, part_of=part_of)


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
    return all((m & h).bit_count() != 1 for m in fam)
