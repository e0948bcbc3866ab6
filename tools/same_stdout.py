"""Check that two source trees print the same stdout for the benchmark's
workload commands.

    python tools/same_stdout.py OLD_SRC NEW_SRC [--seeds 1-5]
        [--workload NAME ...]

OLD_SRC and NEW_SRC are directories holding a `tokenslide` package, such
as the `src` of two checkouts. Every command of every workload in
clibench/workloads.py, at every seed, runs as `python -m tokenslide.cli`
under each tree, with that tree alone on PYTHONPATH and the command's
stdin. --workload, which may repeat, keeps only the named workloads.
`--workload extra` selects the commands of extra_commands below, which
are not in the benchmark: hosts past 64 vertices and of odd size, where
the workloads' hosts have at most 28 vertices, and bad inputs. Each
command whose exit code or stdout SHA-256 differs between the trees is
printed, and the exit status is then 1; otherwise it is 0. On exit 2
(bad input) and 3 (a budget hit) stderr is one deterministic line, and
its SHA-256 is compared too; on other exits it is not, as it holds a
wall time (search) or a traceback with file paths.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

CLIBENCH = Path(__file__).resolve().parent.parent / "clibench"


def seed_range(text):
    """Seeds from "N" or "A-B" (inclusive)."""
    lo, _, hi = text.partition("-")
    try:
        return range(int(lo), int(hi or lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed or range: {text!r}")


def source_tree(text):
    src = Path(text).resolve()
    if not (src / "tokenslide").is_dir():
        raise argparse.ArgumentTypeError(f"no tokenslide package in {src}")
    return src


def extra_commands(seed):
    """build as JSON and DOT of hosts past 64 vertices and of odd size,
    and a decompose whose joined host has 17 vertices, relabeled by seed
    as the workloads' inputs are; then one bad input each for graph6, a
    JSON graph, realize --split, a JoinSpec, geom points and Lawson."""
    import networkx as nx
    import workloads

    rng = random.Random(f"extra:{seed}")
    plan = [
        ("build-P70-k2-json", nx.path_graph(70), 2, "json"),
        ("build-C67-k2-dot", nx.cycle_graph(67), 2, "dot"),
        ("build-P128-k2-dot", nx.path_graph(128), 2, "dot"),
        ("build-C13-all-json", nx.cycle_graph(13), None, "json"),
        ("build-P11-all-dot", nx.path_graph(11), None, "dot"),
        ("build-G15-k3-json", nx.gnp_random_graph(15, 0.3, seed=15), 3,
         "json"),
    ]
    cmds = [workloads._build(name, workloads.relabeled(g, rng)[0], k, fmt)
            for name, g, k, fmt in plan]
    g1 = workloads.relabeled(nx.path_graph(9), rng)[0]
    g2 = workloads.relabeled(nx.cycle_graph(8), rng)[0]
    spec = {"g1": {"n": 9, "edges": workloads.edge_list(g1), "names": None},
            "g2": {"n": 8, "edges": workloads.edge_list(g2), "names": None},
            "h1": [0, 4, 8], "h2": [1, 5], "k": 3}
    cmds.append(workloads.Command(
        "decompose-P9-C8-k3", ("decompose", "--stdin"),
        ("decompose", {"spec": spec}), stdin=json.dumps(spec)))
    p3 = {"n": 3, "edges": [[0, 1], [1, 2]]}
    points = "[[0,8],[7,16],[16,9],[8,0],[5,6],[3,9]]"
    bad = [
        ("bad-graph6-padding", ("build", "--graph6", "A`", "--k", "1"), ""),
        ("bad-json-graph-loop", ("decompose", "--stdin"), json.dumps(
            {"g1": {"n": 2, "edges": [[1, 1]]}, "g2": p3, "h1": [0],
             "h2": [0], "k": 1})),
        ("bad-realize-split", ("realize", "--split",
                               workloads.graph6(nx.star_graph(3)), "--k",
                               "2"), ""),
        ("bad-decompose-h1", ("decompose", "--stdin"), json.dumps(
            {"g1": p3, "g2": p3, "h1": [5], "h2": [0], "k": 1})),
        ("bad-geom-collinear", ("geom", "--points", "[[0,0],[1,1],[2,2]]",
                                "--delaunay"), ""),
        ("bad-geom-lawson", ("geom", "--points", points, "--lawson",
                             "[[0,1],[0,2]]"), ""),
    ]
    # no checker: only their outcomes are compared
    cmds += [workloads.Command(name, argv, (), stdin=stdin)
             for name, argv, stdin in bad]
    return cmds


def outcome(src, command):
    """Exit code, stdout SHA-256 and, on exit 2 or 3, stderr SHA-256 (else
    None) of one workload command under src."""
    proc = subprocess.run(
        [sys.executable, "-m", "tokenslide.cli", *command.argv],
        input=command.stdin.encode(), capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    err = (hashlib.sha256(proc.stderr).hexdigest()
           if proc.returncode in (2, 3) else None)
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), err


def main(argv=None):
    sys.path.insert(0, str(CLIBENCH))
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src", type=source_tree)
    p.add_argument("new_src", type=source_tree)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-5"),
                   help="a seed N or a range A-B (default 1-5)")
    p.add_argument("--workload", action="append",
                   choices=(*workloads.WORKLOADS, "extra"),
                   help="check only this workload, or the extra commands; "
                   "may repeat (default: every workload)")
    args = p.parse_args(argv)

    total = differ = 0
    for seed in args.seeds:
        for workload in args.workload or workloads.WORKLOADS:
            for cmd in (extra_commands(seed) if workload == "extra" else
                        workloads.make_commands(workload, seed)):
                old = outcome(args.old_src, cmd)
                new = outcome(args.new_src, cmd)
                total += 1
                if old != new:
                    differ += 1
                    print(f"seed {seed} {cmd.name}: exit {old[0]} -> {new[0]}"
                          f", stdout {old[1][:16]} -> {new[1][:16]}"
                          f", stderr {(old[2] or '-')[:16]} -> "
                          f"{(new[2] or '-')[:16]}", flush=True)
    print(f"{differ} of {total} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
