"""Spans around calls into tokenslide's layers, for the traced run.

`install()` wraps the public functions in TRACED. Every tokenslide module
that imported one of them by name gets the wrapper in its namespace, so
a call is traced wherever the caller looks the name up and spans nest.
A span records its name, start, end and parent span; a span opened on a
worker thread with nothing open on that thread takes the innermost span
open on the main thread as its parent. Spans stay in memory until the
command ends; `layer_metrics` then reduces them to the per-layer
metrics. Self time is a span's duration minus the part of it that its
traced children cover; a layer's time is the time its spans cover.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

TRACED = {
    "cli": ["main"],
    "stable": ["independent_sets_of_size", "all_independent_sets",
               "cliques_of_size"],
    "reconf": ["build_TSk", "build_TS", "build_TSk_induced"],
    "io": ["labeled_to_json", "export_dot"],
    "decompose": ["decompose_join", "join_spec_from_json"],
    "props": ["analyze", "is_planar", "diameter", "clique_number",
              "chromatic_number", "girth", "components"],
    "canon": ["canonical_form", "is_isomorphic", "iso_map"],
    "enumeration": ["enumerate_trees", "enumerate_graphs",
                    "enumerate_connected_graphs"],
    "realize": ["search_realizer"],
    "searches": ["run_search"],
    "geometry": ["edge_intersection_graph", "check_general_position",
                 "triangulations", "flip_graph", "delaunay",
                 "lawson_distance"],
}

# the size of a call's result, recorded with its span
SIZES = {
    "stable": len,
    "enumeration": len,
    "geometry.triangulations": len,
    "reconf": lambda lg: (lg.num_nodes(), lg.num_edges()),
    "props.is_planar": lambda verdict: 0 if verdict[0] else 1,
}

NAME, START, END, PARENT, SIZE = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.main = threading.main_thread()
        self.main_stack = []
        self.local = threading.local()

    def _stack(self):
        if threading.current_thread() is self.main:
            return self.main_stack
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, name, fn):
        size = SIZES.get(name) or SIZES.get(name.split(".")[0])
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self.main_stack
            span = [name, time.perf_counter(), None,
                    outer[-1] if outer else None, None]
            stack.append(span)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if size is not None:
                span[SIZE] = size(result)
            return result

        return traced

    def records(self):
        """The spans as lists, each parent given by its index (-1: none)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s[NAME], s[START], s[END],
                 -1 if s[PARENT] is None else index[id(s[PARENT])], s[SIZE]]
                for s in self.spans]


def install():
    """Wrap every function in TRACED; returns the Tracer that records."""
    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items())
               if name == "tokenslide" or name.startswith("tokenslide.")]
    for short, names in TRACED.items():
        module = sys.modules[f"tokenslide.{short}"]
        for fn_name in names:
            original = getattr(module, fn_name)
            wrapper = tracer.wrap(f"{short}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
    return tracer


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans, stdout_mb):
    """Per-layer metrics of one command from its span records (times in
    raw seconds)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)

    by_key = {}
    for i, s in enumerate(spans):
        by_key.setdefault(s[NAME], []).append(i)
        by_key.setdefault(s[NAME].split(".")[0], []).append(i)

    def select(*names):
        return sorted(i for name in names for i in by_key.get(name, ()))

    def time_of(*names):
        return covered((spans[i][START], spans[i][END])
                       for i in select(*names))

    def self_of(*names):
        total = 0.0
        for i in select(*names):
            s = spans[i]
            inner = covered((max(spans[c][START], s[START]),
                             min(spans[c][END], s[END]))
                            for c in children[i])
            total += s[END] - s[START] - inner
        return total

    def parent_layer(i):
        p = spans[i][PARENT]
        return spans[p][NAME].split(".")[0] if p >= 0 else None

    def top(layer):
        return [i for i in select(layer) if parent_layer(i) != layer]

    builds = top("reconf")
    in_search = [i for i in select("enumeration", "canon.is_isomorphic")
                 if spans[i][PARENT] >= 0 and
                 spans[spans[i][PARENT]][NAME] == "realize.search_realizer"]
    return {
        "cli.self_s": self_of("cli.main"),
        "cli.stdout_mb": stdout_mb,
        "stable.enum_s": time_of("stable"),
        "stable.sets": sum(spans[i][SIZE] for i in select("stable")),
        "reconf.build_self_s": self_of("reconf"),
        "reconf.builds": len(builds),
        "reconf.nodes": sum(spans[i][SIZE][0] for i in builds),
        "reconf.edges": sum(spans[i][SIZE][1] for i in builds),
        "io.labeled_to_json_s": time_of("io.labeled_to_json"),
        "io.export_dot_s": time_of("io.export_dot"),
        "decompose.self_s": self_of("decompose"),
        "props.is_planar_s": time_of("props.is_planar"),
        "props.is_planar_calls": len(select("props.is_planar")),
        "props.witnesses": sum(spans[i][SIZE]
                               for i in select("props.is_planar")),
        "props.diameter_s": time_of("props.diameter"),
        "props.clique_number_s": time_of("props.clique_number"),
        "props.chromatic_number_s": time_of("props.chromatic_number"),
        "props.girth_s": time_of("props.girth"),
        "props.components_s": time_of("props.components"),
        "props.analyze_self_s": self_of("props.analyze"),
        "canon.canonical_form_s": time_of("canon.canonical_form"),
        "canon.canonical_form_calls": len(select("canon.canonical_form")),
        "canon.is_isomorphic_s": time_of("canon.is_isomorphic"),
        "canon.iso_map_s": time_of("canon.iso_map"),
        "enumeration.self_s": self_of("enumeration"),
        "enumeration.graphs": sum(spans[i][SIZE] for i in top("enumeration")),
        "realize.search_self_s": self_of("realize.search_realizer"),
        "realize.candidates": sum(spans[i][SIZE] for i in in_search
                                  if spans[i][NAME].startswith("enum")),
        "realize.iso_tests": sum(1 for i in in_search
                                 if spans[i][NAME] == "canon.is_isomorphic"),
        "searches.self_s": self_of("searches.run_search"),
        "geometry.crossing_s": time_of("geometry.edge_intersection_graph"),
        "geometry.general_position_s":
            time_of("geometry.check_general_position"),
        "geometry.triangulations_s": time_of("geometry.triangulations"),
        "geometry.flip_graph_s": time_of("geometry.flip_graph"),
        "geometry.delaunay_s": time_of("geometry.delaunay"),
        "geometry.lawson_s": time_of("geometry.lawson_distance"),
        "geometry.triangulations": sum(
            spans[i][SIZE] for i in select("geometry.triangulations")),
    }

