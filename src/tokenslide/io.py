"""Serialization: graph6, JSON graph form, and DOT export.

graph6 is the interchange format (one graph per line). The JSON form is
{"n": int, "edges": [[u, v], ...], "names": [...] or null} with edges
sorted lexicographically.
"""

from __future__ import annotations

from .errors import MalformedGraph6, NExceedsWidth
from .graph import WIDTH_MAX, Graph, VertexSet, make_graph, members


def write_graph6(g):
    """Standard graph6 encoding; long size form for 63..128 vertices."""
    n = g.n
    if n > WIDTH_MAX:
        raise NExceedsWidth(f"graph6 writer capped at {WIDTH_MAX} vertices")
    if n <= 62:
        head = chr(n + 63)
    else:
        # '~' then n in three 6-bit groups, big-endian
        head = "~" + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))
    bits = []
    for j in range(1, n):
        col = g.adjacency_mask(j)
        for i in range(j):
            bits.append((col >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i:i + 6]:
            group = (group << 1) | b
        body.append(chr(group + 63))
    return head + "".join(body)


def parse_graph6(text):
    """Inverse of write_graph6; raises MalformedGraph6 on bad input."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise MalformedGraph6("empty graph6 string")
    data = []
    for ch in s:
        code = ord(ch)
        if code < 63 or code > 126:
            raise MalformedGraph6(f"byte {code} outside graph6 range")
        data.append(code - 63)
    if data[0] == 63:  # '~' long form
        if len(data) < 4:
            raise MalformedGraph6("truncated long size field")
        if data[1] == 63:
            raise MalformedGraph6("very long size form not supported")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n > WIDTH_MAX:
        raise MalformedGraph6(
            f"graph has {n} vertices, cap is {WIDTH_MAX}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise MalformedGraph6(
            f"expected {(nbits + 5) // 6} body chars for n={n}, got {len(body)}")
    bits = []
    for group in body:
        for s_ in (5, 4, 3, 2, 1, 0):
            bits.append((group >> s_) & 1)
    if any(bits[nbits:]):
        raise MalformedGraph6("nonzero padding bits")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return make_graph(n, edges)


def graph_to_json(g):
    return {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges()],
        "names": list(g.names) if g.names is not None else None,
    }


def graph_from_json(obj):
    try:
        n = obj["n"]
        edges = [tuple(e) for e in obj["edges"]]
        names = obj.get("names")
    except (TypeError, KeyError) as exc:
        raise MalformedGraph6(f"bad JSON graph object: {exc}")
    # type() and not isinstance(): JSON true and false are not integers
    if type(n) is not int or not all(
            len(e) == 2 and all(type(v) is int for v in e)
            for e in edges):
        raise MalformedGraph6("JSON graph needs an integer n and edges "
                              "that are pairs of integers")
    if names is not None and not isinstance(names, list):
        raise MalformedGraph6("JSON graph names must be a list or null")
    return make_graph(n, edges, names)


def format_label(vs):
    """Display form of a vertex set, 1-indexed and concatenated.

    {0, 2, 4} over a host with at most 9 vertices prints as "135"; larger
    hosts separate with dashes to stay unambiguous.
    """
    members = [v + 1 for v in vs.members()]
    if vs.n <= 9:
        return "".join(str(v) for v in members)
    return "-".join(str(v) for v in members)


def _label_formatter(n):
    """format_label over a host with n vertices, as a function of the mask.

    The texts of the low and the high half of a mask are memoised in one
    dict per call, so a family of sets costs two lookups per set.
    """
    sep = "" if n <= 9 else "-"
    low_bits = (1 << n // 2) - 1
    texts = {}

    def piece(part):
        text = texts.get(part)
        if text is None:
            text = texts[part] = format_label(VertexSet(part, n))
        return text

    def fmt(mask):
        a, b = piece(mask & low_bits), piece(mask & ~low_bits)
        return a + sep + b if a and b else a or b

    return fmt


def _node_label(lab):
    # composite product labels are (left, right) pairs
    if isinstance(lab, tuple):
        return format_label(lab[0]) + "|" + format_label(lab[1])
    return format_label(lab)


def _node_labels(lg):
    """Display text of every node label of a LabeledGraph."""
    masks = lg.label_masks()
    if masks is not None:
        return map(_label_formatter(lg.base.n), masks)
    return map(_node_label, lg.labels)


def export_dot(g, graph_name="G"):
    """DOT text for a Graph (vertex names) or LabeledGraph (set labels)."""
    lines = [f"graph {graph_name} {{"]
    if isinstance(g, Graph):
        for v in range(g.n):
            # names are free text; set labels are digits, dashes and "|"
            name = g.name_of(v).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  v{v} [label="{name}"];')
        for u, v in g.edges():
            lines.append(f"  v{u} -- v{v};")
    else:
        lines += [f'  n{i} [label="{text}"];'
                  for i, text in enumerate(_node_labels(g))]
        lines += [f"  n{i} -- n{j};" for i in range(g.num_nodes())
                  for j in g.neighbors(i) if j > i]
    lines.append("}")
    return "\n".join(lines) + "\n"


def labeled_to_json(lg):
    """LabeledGraph JSON: kind, base, node label arrays, edge index pairs."""
    masks = lg.label_masks()
    if masks is not None:
        nodes = [list(members(m)) for m in masks]
    else:
        nodes = [[list(lab[0].members()), list(lab[1].members())]
                 if isinstance(lab, tuple) else list(lab.members())
                 for lab in lg.labels]
    return {
        "kind": lg.kind,
        "base": graph_to_json(lg.base) if lg.base is not None else None,
        "nodes": nodes,
        "edges": [[i, j] for i in range(lg.num_nodes())
                  for j in lg.neighbors(i) if j > i],
    }
