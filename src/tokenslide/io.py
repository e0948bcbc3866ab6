"""Serialization: graph6, JSON graph form, and DOT export.

graph6 is the interchange format (one graph per line). The JSON form is
{"n": int, "edges": [[u, v], ...], "names": [...] or null} with edges
sorted lexicographically.

The DOT writer, like the CLI's JSON writer, formats its output
CHUNK_ROWS lines (or JSON rows) at a time and hands each chunk to a
write callable, so printing a graph never holds its whole text. Both
read set labels from _label_tables, which formats each distinct low and
high half of the label masks once.
"""

from __future__ import annotations

from itertools import islice

from .errors import MalformedGraph6, NExceedsWidth
from .graph import WIDTH_MAX, Graph, _Prefix, make_graph, members

# lines (DOT) or list rows (JSON) formatted per write call
CHUNK_ROWS = 4096


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


def format_label(mask, n):
    """Display form of a vertex set, given as a mask over a host with n
    vertices: 1-indexed and concatenated.

    {0, 2, 4} over a host with at most 9 vertices prints as "135"; larger
    hosts separate with dashes to stay unambiguous.
    """
    sep = "" if n <= 9 else "-"
    return sep.join(str(v + 1) for v in members(mask))


def _label_tables(n, first=1, sep=None):
    """Two text tables of the masks over a host with n vertices, and the
    masks of the host's low and high half.

    bare[m] joins the members of m, counted from first, with sep
    (format_label's separator by default), and led[m] puts sep before
    each; both are _Prefix tables, made a member at a time on first use.
    A label m reads bare[m & low] + led[m & high] when its low half is
    not empty, else bare[m]: at most three lookups per set, in tables
    that hold only the distinct halves.
    """
    if sep is None:
        sep = "" if n <= 9 else "-"
    bare = _Prefix("", lambda text, v: f"{text}{sep}{v + first}" if text
                   else str(v + first))
    led = _Prefix("", lambda text, v: f"{text}{sep}{v + first}")
    low = (1 << n // 2) - 1
    return bare, led, low, ~low


def _label_formatter(n):
    """format_label over a host with n vertices, as a function of the mask."""
    bare, led, low, high = _label_tables(n)
    return lambda m: bare[m & low] + led[m & high] if m & low else bare[m]


def export_dot(g, write=None):
    """DOT text for a Graph (vertex names) or LabeledGraph (set labels).

    The node lines, then the edge lines, are formatted CHUNK_ROWS at a
    time and each chunk is passed to write, so no copy of the whole text
    is held; the result is None. Without write, the chunks are joined and
    the text is returned.
    """
    if write is None:
        out = []
        export_dot(g, out.append)
        return "".join(out)
    if isinstance(g, Graph):
        # names are free text; set labels are digits and dashes
        names = (g.name_of(v).replace("\\", "\\\\").replace('"', '\\"')
                 for v in range(g.n))
        nodes = (f'  v{v} [label="{name}"];\n'
                 for v, name in enumerate(names))
        edges = (f"  v{u} -- v{v};\n" for u, v in g.edges())
    else:
        # the tables live in the generator, and go when the nodes are done
        nodes = (f'  n{i} [label="{bare[m & low]}{led[m & high]}"];\n'
                 if m & low else f'  n{i} [label="{bare[m]}"];\n'
                 for bare, led, low, high in (_label_tables(g.base.n),)
                 for i, m in enumerate(g.label_masks()))
        edges = (f"{pre}{j};\n" for i, row in enumerate(g.upper_rows())
                 for pre in (f"  n{i} -- n",) for j in row)
    write("graph G {\n")
    for lines in (nodes, edges):
        while chunk := "".join(islice(lines, CHUNK_ROWS)):
            write(chunk)
    write("}\n")


def labeled_to_json(lg):
    """LabeledGraph JSON: kind, base, node label arrays, edge index pairs.

    The CLI prints this dict's text without building it, from the label
    masks and upper rows (cli._labeled_graph).
    """
    return {
        "kind": lg.kind,
        "base": graph_to_json(lg.base),
        "nodes": [list(members(m)) for m in lg.label_masks()],
        "edges": [[i, j] for i, row in enumerate(lg.upper_rows())
                  for j in row],
    }
