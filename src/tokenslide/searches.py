"""Built-in batch searches over small graph families.

Each search builds full slide graphs for a fixed family and tallies
planarity. Reports are deterministic: identical inputs give identical
JSON, so wall time stays out of to_json.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .enumeration import enumerate_graphs, enumerate_trees
from .errors import UnknownSearch
from .graph import cycle
from .io import write_graph6
from .props import _planar, is_connected
from .reconf import build_TS


@dataclass(frozen=True)
class SearchReport:
    name: str
    verdicts: tuple
    summary: dict
    wall_time: float

    def to_json(self):
        return {
            "name": self.name,
            "verdicts": [dict(v) for v in self.verdicts],
            "summary": dict(self.summary),
        }


def _ts_planar_verdict(g):
    ts = build_TS(g)
    return {
        "graph6": write_graph6(g),
        "ts_nodes": ts.num_nodes(),
        "ts_edges": ts.num_edges(),
        "ts_planar": _planar(ts.edges()),
    }


# name -> the graphs a search tallies, in report order
_SEARCHES = {
    "trees7": lambda: enumerate_trees(7),
    "trees8": lambda: enumerate_trees(8),
    "planar6": lambda: enumerate_graphs(
        6, lambda g: is_connected(g) and _planar(g.edges())),
    "cycles-planarity": lambda: [cycle(n) for n in range(3, 9)],
}
SEARCH_NAMES = tuple(_SEARCHES)


def run_search(name):
    """Run one named search."""
    start = time.monotonic()
    if name not in _SEARCHES:
        raise UnknownSearch(
            f"unknown search {name!r}; choices: {', '.join(SEARCH_NAMES)}")
    graphs = _SEARCHES[name]()
    verdicts = [_ts_planar_verdict(g) for g in graphs]
    if name == "cycles-planarity":
        for v, g in zip(verdicts, graphs):
            v["n"] = g.n
    planar = sum(1 for v in verdicts if v["ts_planar"])
    summary = {"planar": planar, "nonplanar": len(verdicts) - planar}
    return SearchReport(name=name, verdicts=tuple(verdicts), summary=summary,
                        wall_time=time.monotonic() - start)
