"""Command line front end.

Subcommands: gen, build, analyze, realize, decompose, geom, search.
Exit codes: 0 success, 1 the reader closed stdout, 2 input error,
3 resource cap, 4 internal error. All JSON output is key-sorted so
identical inputs give identical bytes; wall-clock timing goes to stderr
only. JSON and DOT are written to stdout in chunks as they are
formatted, never assembled whole.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from functools import lru_cache
from itertools import chain, islice, starmap

from .decompose import decompose_join, join_spec_from_json
from .enumeration import enumerate_connected_graphs, enumerate_trees
from .errors import InputError, ResourceCap
from .geometry import (check_general_position, delaunay, flip_graph,
                       lawson_distance, triangulations)
from .graph import (complete, complete_bipartite, complete_minus_edge, cycle,
                    path, star)
from .io import (CHUNK_ROWS, _label_tables, export_dot, graph_from_json,
                 graph_to_json, parse_graph6, write_graph6)
from .props import analyze
from .realize import (Realization, realize_complete, realize_cycle,
                      realize_path, realize_split, realize_star,
                      search_realizer)
from .reconf import LabeledGraph, build_TS, build_TSk
from .searches import SEARCH_NAMES, run_search

FAMILIES = {
    "path": lambda a: path(a.n),
    "cycle": lambda a: cycle(a.n),
    "complete": lambda a: complete(a.n),
    "star": lambda a: star(a.n),
    "complete_bipartite": lambda a: complete_bipartite(a.m, a.n),
    "complete_minus_edge": lambda a: complete_minus_edge(a.n),
}


def _emit(obj):
    """Write _dumps(obj) and a newline to stdout, a piece at a time."""
    _encode(obj, "\n", sys.stdout.write)
    sys.stdout.write("\n")


def _dumps(obj):
    """Exactly json.dumps(obj, sort_keys=True, indent=2), faster, where a
    LabeledGraph lg stands for labeled_to_json(lg).

    With indent set, json falls back to its pure-Python encoder. Here
    arrays (lists or tuples, which json writes alike) of ints, and arrays
    of such arrays, are written through one str.format template per row
    length. In an array of arrays of int tuples, such as a list of
    triangulations made of shared segments, each distinct tuple is
    formatted once and each row is one join of those texts. Arrays of
    strs, arrays of such arrays, and dict keys are quoted by
    encode_basestring_ascii, the function json.dumps quotes them with,
    and joined once. Every other scalar, and dicts with non-string keys,
    go to json.dumps. Only exact ints and strs qualify: bool and int
    subclasses print differently, and a str subclass may too. A
    LabeledGraph is written from its label masks and upper rows, with
    no nested lists built (_labeled_graph).
    """
    out = []
    _encode(obj, "\n", out.append)
    return "".join(out)


_ARRAYS = {list, tuple}
# json.dumps quotes a str with this function (ensure_ascii is on)
_quote = json.encoder.encode_basestring_ascii


def _encode(obj, nl, write):
    # nl is a newline plus the indentation of the line obj starts on
    inner = nl + "  "
    if type(obj) in _ARRAYS and obj:
        types = set(map(type, obj))
        if types == {int}:
            write(_int_row(len(obj), nl).format(*obj))
        elif types == {str}:
            write(_str_row(obj, nl))
        elif types <= _ARRAYS and (
                rows := _row_texts(obj, inner)) is not None:
            _write_rows(rows, nl, write)
        else:
            sep = "["
            for x in obj:
                write(sep + inner)
                sep = ","
                _encode(x, inner, write)
            write(nl + "]")
    elif type(obj) is dict and obj and all(type(k) is str for k in obj):
        sep = "{"
        for k in sorted(obj):
            write(sep + inner + _quote(k) + ": ")
            sep = ","
            _encode(obj[k], inner, write)
        write(nl + "}")
    elif isinstance(obj, LabeledGraph):
        _labeled_graph(obj, nl, write)
    else:
        write(json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl))


def _write_rows(rows, nl, write):
    """Write the array of the row texts in rows, which start on lines
    indented as nl plus two spaces, CHUNK_ROWS rows per write."""
    inner = nl + "  "
    sep = "[" + inner
    while chunk := list(islice(rows, CHUNK_ROWS)):
        write(sep + ("," + inner).join(chunk))
        sep = "," + inner
    write(nl + "]" if sep[0] == "," else "[]")


def _labeled_graph(lg, nl, write):
    """Write labeled_to_json(lg) as _encode would, from lg's label masks
    and upper rows.

    An edge row is one f-string on a prefix made once per node. A node
    row joins its mask's half texts from io._label_tables, and the empty
    mask prints as [].
    """
    inner = nl + "  "
    row = inner + "  "
    cell = row + "  "
    head, sep, tail = "[" + cell, "," + cell, row + "]"
    write("{" + inner + '"base": ')
    _encode(graph_to_json(lg.base), inner, write)
    write("," + inner + '"edges": ')
    _write_rows((f"{pre}{j}{tail}" for i, up in enumerate(lg.upper_rows())
                 for pre in (f"{head}{i}{sep}",) for j in up), inner, write)
    write("," + inner + '"kind": ')
    _encode(lg.kind, inner, write)
    write("," + inner + '"nodes": ')
    bare, led, low, high = _label_tables(lg.base.n, 0, sep)
    _write_rows((f"{head}{bare[m & low]}{led[m & high]}{tail}" if m & low
                 else f"{head}{bare[m]}{tail}" if m else "[]"
                 for m in lg.label_masks()), inner, write)
    write(nl + "}")


def _str_row(row, nl):
    """The text of a non-empty array of exact strs that starts on a line
    indented as nl."""
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(map(_quote, row)) + nl + "]"


def _row_texts(obj, nl):
    """The texts of the arrays in obj, rows on lines indented as nl, one
    at a time; None unless they hold only exact ints, only exact strs or
    only tuples of exact ints. Int rows fill one cached template per
    length. A row of tuples is one join of their texts, each distinct
    tuple formatted once however many rows hold it."""
    kinds = set(map(type, chain.from_iterable(obj)))
    if kinds <= {int}:
        if len(set(map(len, obj))) == 1:
            return starmap(_int_row(len(obj[0]), nl).format, obj)
        return (_int_row(len(row), nl).format(*row) for row in obj)
    if kinds == {str}:
        return (_str_row(row, nl) if row else "[]" for row in obj)
    # every item is typed, not one per distinct tuple: (1, True) equals
    # (1, 1) but prints differently
    if kinds == {tuple} and {int} >= set(
            map(type, chain.from_iterable(chain.from_iterable(obj)))):
        cell = nl + "  "
        text = {t: _int_row(len(t), cell).format(*t)
                for t in set(chain.from_iterable(obj))}.__getitem__
        head, sep, tail = "[" + cell, "," + cell, nl + "]"
        return (head + sep.join(map(text, row)) + tail if row else "[]"
                for row in obj)
    return None


@lru_cache(maxsize=256)
def _int_row(length, nl):
    """The str.format template of an array of `length` exact ints that
    starts on a line indented as nl."""
    if not length:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(["{}"] * length) + nl + "]"


def _parse_json(source):
    """The value of a JSON string or open text file; text that does not
    decode, is not JSON or nests too deep to parse is an InputError."""
    try:
        return json.loads(source if isinstance(source, str) else source.read())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"bad JSON: {exc}") from exc
    except RecursionError:
        raise InputError("bad JSON: nested too deeply") from None


def _load_json_file(path):
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    with fh:
        return _parse_json(fh)


def _read_graph(args):
    if args.json is not None:
        return graph_from_json(_load_json_file(args.json))
    return parse_graph6(sys.stdin.readline() if args.stdin else args.graph6)


def _add_graph_input(sub):
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", help="graph6 string")
    src.add_argument("--json", help="path to a JSON graph file")
    src.add_argument("--stdin", action="store_true",
                     help="read one graph6 line from stdin")


def _build_parser():
    p = argparse.ArgumentParser(
        prog="tokenslide",
        description="Token-sliding reconfiguration graphs of stable sets")
    subs = p.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen", help="generate graphs as graph6 lines")
    what = g.add_mutually_exclusive_group(required=True)
    what.add_argument("--family", choices=sorted(FAMILIES))
    what.add_argument("--trees", type=int, metavar="N",
                      help="all trees on N vertices")
    what.add_argument("--connected", type=int, metavar="N",
                      help="all connected graphs on N vertices")
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)

    b = subs.add_parser("build", help="build TS_k or TS of a graph")
    _add_graph_input(b)
    size = b.add_mutually_exclusive_group(required=True)
    size.add_argument("--k", type=int)
    size.add_argument("--all", action="store_true", help="all sizes (TS)")
    b.add_argument("--format", choices=("json", "dot"), default="json")

    a = subs.add_parser("analyze", help="property report for a graph")
    _add_graph_input(a)
    slide = a.add_mutually_exclusive_group()
    slide.add_argument("--ts", type=int, metavar="K",
                       help="analyze TS_K of the input instead")
    slide.add_argument("--ts-all", action="store_true",
                       help="analyze TS of the input instead")

    r = subs.add_parser("realize", help="find a base whose TS_k is the target")
    target = r.add_mutually_exclusive_group(required=True)
    target.add_argument("--family",
                        choices=("complete", "path", "cycle", "star"))
    target.add_argument("--split", metavar="G6",
                        help="realize this split graph (graph6)")
    target.add_argument("--search", metavar="G6",
                        help="exhaustive search for this target (graph6)")
    r.add_argument("--n", type=int)
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--max-n", type=int, default=6,
                   help="search bound on base vertices")

    d = subs.add_parser("decompose", help="join decomposition of TS_k")
    src = d.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="path to a JoinSpec JSON file")
    src.add_argument("--stdin", action="store_true",
                     help="read JoinSpec JSON from stdin")

    m = subs.add_parser("geom", help="triangulations and flip graphs")
    src = m.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", help="JSON list of [x, y] integer pairs")
    src.add_argument("--stdin", action="store_true",
                     help="read the points JSON from stdin")
    m.add_argument("--check", action="store_true",
                   help="report the general-position verdict")
    m.add_argument("--triangulations", action="store_true")
    m.add_argument("--flip-graph", action="store_true")
    m.add_argument("--delaunay", action="store_true")
    m.add_argument("--check-ts-iso", action="store_true",
                   help="verify flip graph equals TS_alpha of crossings")
    m.add_argument("--lawson", metavar="T",
                   help="flip count from this triangulation (JSON pairs)")

    s = subs.add_parser("search", help="run a named batch search")
    s.add_argument("name", help=f"one of: {', '.join(SEARCH_NAMES)}")
    return p


def _cmd_gen(args):
    if args.trees is not None:
        graphs = enumerate_trees(args.trees)
    elif args.connected is not None:
        graphs = enumerate_connected_graphs(args.connected)
    else:
        if args.n is None:
            raise InputError("--family needs --n")
        if args.family == "complete_bipartite" and args.m is None:
            raise InputError("complete_bipartite needs --m and --n")
        graphs = [FAMILIES[args.family](args)]
    for g in graphs:
        print(write_graph6(g))
    return 0


def _require_k(k, flag):
    if k is not None and k < 1:
        raise InputError(f"{flag} must be >= 1, got {k}")


def _cmd_build(args):
    g = _read_graph(args)
    _require_k(args.k, "--k")
    lab = build_TS(g) if args.all else build_TSk(g, args.k)
    if args.format == "dot":
        export_dot(lab, write=sys.stdout.write)
    else:
        _emit(lab)
    return 0


def _cmd_analyze(args):
    g = _read_graph(args)
    _require_k(args.ts, "--ts")
    target = g
    if args.ts is not None:
        target = build_TSk(g, args.ts)
    elif args.ts_all:
        target = build_TS(g)
    _emit(analyze(target).to_json())
    return 0


def _cmd_realize(args):
    if args.search is not None:
        result = search_realizer(parse_graph6(args.search), args.k,
                                 args.max_n)
    elif args.split is not None:
        result = realize_split(parse_graph6(args.split), args.k)
    else:
        if args.n is None:
            raise InputError("--family needs --n")
        ctor = {"complete": realize_complete, "path": realize_path,
                "cycle": realize_cycle, "star": realize_star}[args.family]
        result = ctor(args.n, args.k)
    out = result.to_json()
    if isinstance(result, Realization):
        out["base_graph6"] = write_graph6(result.base)
    _emit(out)
    return 0


def _cmd_decompose(args):
    data = (_parse_json(sys.stdin) if args.stdin
            else _load_json_file(args.spec))
    dec = decompose_join(join_spec_from_json(data))
    _emit(dec.to_json())
    return 0


def _json_pairs(source, what):
    """A JSON list; geometry checks its entries."""
    raw = _parse_json(source)
    if not isinstance(raw, list):
        raise InputError(f"{what} JSON must be a list of pairs")
    return raw


def _cmd_geom(args):
    pts = _json_pairs(sys.stdin if args.stdin else args.points, "points")
    out = {}
    if args.check:
        verdict = check_general_position(pts)
        out["general_position"] = {"ok": verdict.ok,
                                   "collinear": verdict.collinear,
                                   "cocircular": verdict.cocircular}
    if args.triangulations:
        out["triangulations"] = triangulations(pts)
    if args.flip_graph or args.check_ts_iso:
        fg = flip_graph(pts)
    if args.flip_graph:
        out["flip_graph"] = fg
    if args.delaunay:
        out["delaunay"] = delaunay(pts)
    if args.check_ts_iso:
        # flip_graph raises unless all maximal stable sets of the crossing
        # graph have one size, so fg.k is alpha; a set the flip graph
        # missed or added still fails the label comparison
        a = fg.k
        if a == 0:
            ok = fg.num_nodes() == 1 and fg.num_edges() == 0
        else:
            ts = build_TSk(fg.base, a)
            # equal labels index the nodes alike; both builders give
            # sorted upper rows, which hold every edge once, so equal
            # rows are equal edge sets
            ok = (fg.label_masks() == ts.label_masks()
                  and fg.upper_rows() == ts.upper_rows())
        out["ts_iso"] = {"isomorphic": ok, "alpha": a,
                         "triangulations": fg.num_nodes()}
    if args.lawson is not None:
        t = _json_pairs(args.lawson, "--lawson")
        out["lawson_flips"] = lawson_distance(t, pts)
    if not out:
        raise InputError("no geom action requested")
    _emit(out)
    return 0


def _cmd_search(args):
    report = run_search(args.name)
    _emit(report.to_json())
    print(f"wall time: {report.wall_time:.3f}s", file=sys.stderr)
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "build": _cmd_build,
    "analyze": _cmd_analyze,
    "realize": _cmd_realize,
    "decompose": _cmd_decompose,
    "geom": _cmd_geom,
    "search": _cmd_search,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered nowhere,
        # so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCap as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
