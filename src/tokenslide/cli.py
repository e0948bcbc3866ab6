"""Command line front end.

Subcommands: gen, build, analyze, realize, decompose, geom, search.
Exit codes: 0 success, 2 input error, 3 resource cap, 4 internal error.
All JSON output is key-sorted so identical inputs give identical bytes;
wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from itertools import chain

from .decompose import decompose_join, join_spec_from_json
from .enumeration import enumerate_connected_graphs, enumerate_trees
from .errors import InputError, ResourceCap
from .geometry import (check_general_position, delaunay, flip_graph,
                       lawson_distance, triangulations)
from .graph import (complete, complete_bipartite, complete_minus_edge, cycle,
                    path, star)
from .io import (export_dot, graph_from_json, labeled_to_json, parse_graph6,
                 write_graph6)
from .props import analyze
from .realize import (Realization, realize_complete, realize_cycle,
                      realize_path, realize_split, realize_star,
                      search_realizer)
from .reconf import build_TS, build_TSk
from .searches import SEARCH_NAMES, run_search
from .stable import alpha

FAMILIES = {
    "path": lambda a: path(a.n),
    "cycle": lambda a: cycle(a.n),
    "complete": lambda a: complete(a.n),
    "star": lambda a: star(a.n),
    "complete_bipartite": lambda a: complete_bipartite(a.m, a.n),
    "complete_minus_edge": lambda a: complete_minus_edge(a.n),
}


def _emit(obj):
    print(_dumps(obj))


def _dumps(obj):
    """Exactly json.dumps(obj, sort_keys=True, indent=2), faster.

    With indent set, json falls back to its pure-Python encoder. Here
    lists of ints and lists of such lists are written with str.join;
    every other scalar, and dicts with non-string keys, go to json.dumps.
    Only exact ints qualify: bool and int subclasses print differently.
    """
    out = []
    _encode(obj, "\n", out.append)
    return "".join(out)


def _encode(obj, nl, write):
    # nl is a newline plus the indentation of the line obj starts on
    inner = nl + "  "
    if type(obj) is list and obj:
        types = set(map(type, obj))
        if types == {int}:
            write(_int_list(obj, nl))
        elif types == {list} and {int} >= set(
                map(type, chain.from_iterable(obj))):
            write("[" + inner + ("," + inner).join(
                [_int_list(row, inner) for row in obj]) + nl + "]")
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
            write(sep + inner + json.dumps(k) + ": ")
            sep = ","
            _encode(obj[k], inner, write)
        write(nl + "}")
    else:
        write(json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl))


def _int_list(ints, nl):
    """The indented text of a list of exact ints."""
    if not ints:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(map(str, ints)) + nl + "]"


def _load_json_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc


def _read_graph(args):
    if getattr(args, "graph6", None):
        return parse_graph6(args.graph6)
    if getattr(args, "json", None):
        return graph_from_json(_load_json_file(args.json))
    if getattr(args, "stdin", False):
        return parse_graph6(sys.stdin.readline())
    raise InputError("no graph given; use --graph6, --json, or --stdin")


def _add_graph_input(sub):
    sub.add_argument("--graph6", help="graph6 string")
    sub.add_argument("--json", help="path to a JSON graph file")
    sub.add_argument("--stdin", action="store_true",
                     help="read one graph6 line from stdin")


def _build_parser():
    p = argparse.ArgumentParser(
        prog="tokenslide",
        description="Token-sliding reconfiguration graphs of stable sets")
    subs = p.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen", help="generate graphs as graph6 lines")
    g.add_argument("--family", choices=sorted(FAMILIES))
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--trees", type=int, metavar="N",
                   help="all trees on N vertices")
    g.add_argument("--connected", type=int, metavar="N",
                   help="all connected graphs on N vertices")

    b = subs.add_parser("build", help="build TS_k or TS of a graph")
    _add_graph_input(b)
    b.add_argument("--k", type=int)
    b.add_argument("--all", action="store_true", help="all sizes (TS)")
    b.add_argument("--format", choices=("json", "dot"), default="json")

    a = subs.add_parser("analyze", help="property report for a graph")
    _add_graph_input(a)
    a.add_argument("--ts", type=int, metavar="K",
                   help="analyze TS_K of the input instead")
    a.add_argument("--ts-all", action="store_true",
                   help="analyze TS of the input instead")

    r = subs.add_parser("realize", help="find a base whose TS_k is the target")
    r.add_argument("--family", choices=("complete", "path", "cycle", "star"))
    r.add_argument("--n", type=int)
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--split", metavar="G6",
                   help="realize this split graph (graph6)")
    r.add_argument("--search", metavar="G6",
                   help="exhaustive search for this target (graph6)")
    r.add_argument("--max-n", type=int, default=6,
                   help="search bound on base vertices")

    d = subs.add_parser("decompose", help="join decomposition of TS_k")
    d.add_argument("--spec", help="path to a JoinSpec JSON file")
    d.add_argument("--stdin", action="store_true",
                   help="read JoinSpec JSON from stdin")

    m = subs.add_parser("geom", help="triangulations and flip graphs")
    m.add_argument("--points", help="JSON list of [x, y] integer pairs")
    m.add_argument("--stdin", action="store_true",
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
    chosen = [x for x in (args.family, args.trees, args.connected)
              if x is not None]
    if len(chosen) != 1:
        raise InputError("choose exactly one of --family, --trees, "
                         "--connected")
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
    if args.all == (args.k is not None):
        raise InputError("choose exactly one of --k or --all")
    _require_k(args.k, "--k")
    lab = build_TS(g) if args.all else build_TSk(g, args.k)
    if args.format == "dot":
        sys.stdout.write(export_dot(lab))
    else:
        _emit(labeled_to_json(lab))
    return 0


def _cmd_analyze(args):
    g = _read_graph(args)
    if args.ts is not None and args.ts_all:
        raise InputError("--ts and --ts-all are mutually exclusive")
    _require_k(args.ts, "--ts")
    target = g
    if args.ts is not None:
        target = build_TSk(g, args.ts)
    elif args.ts_all:
        target = build_TS(g)
    _emit(analyze(target).to_json())
    return 0


def _cmd_realize(args):
    chosen = [x for x in (args.family, args.split, args.search)
              if x is not None]
    if len(chosen) != 1:
        raise InputError("choose exactly one of --family, --split, --search")
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
    if args.spec:
        data = _load_json_file(args.spec)
    elif args.stdin:
        data = json.load(sys.stdin)
    else:
        raise InputError("no JoinSpec given; use --spec or --stdin")
    dec = decompose_join(join_spec_from_json(data))
    _emit(dec.to_json())
    return 0


def _json_pairs(text, what):
    """A JSON list; geometry checks its entries."""
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise InputError(f"{what} JSON must be a list of pairs")
    return raw


def _cmd_geom(args):
    if args.points:
        pts = _json_pairs(args.points, "points")
    elif args.stdin:
        pts = _json_pairs(sys.stdin.read(), "points")
    else:
        raise InputError("no points given; use --points or --stdin")
    out = {}
    if args.check:
        verdict = check_general_position(pts)
        out["general_position"] = {
            "ok": verdict.ok,
            "collinear": list(verdict.collinear) if verdict.collinear else None,
            "cocircular": (list(verdict.cocircular)
                           if verdict.cocircular else None),
        }
    if args.triangulations:
        out["triangulations"] = [
            [list(seg) for seg in t] for t in triangulations(pts)]
    if args.flip_graph or args.check_ts_iso:
        fg = flip_graph(pts)
    if args.flip_graph:
        out["flip_graph"] = labeled_to_json(fg)
    if args.delaunay:
        out["delaunay"] = [list(seg) for seg in delaunay(pts)]
    if args.check_ts_iso:
        crossing = fg.base
        if crossing.n == 0:
            a = 0
            ok = fg.num_nodes() == 1 and fg.num_edges() == 0
        else:
            a = alpha(crossing)
            ts = build_TSk(crossing, a)
            ok = (fg.label_masks() == ts.label_masks()
                  and fg.edges() == ts.edges())
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
        return _DISPATCH[args.command](args)
    except (InputError, json.JSONDecodeError) as exc:
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
