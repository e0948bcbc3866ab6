"""Benchmark of the tokenslide command line.

    python3 clibench/run.py --workload build --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It makes the workload's inputs
from the seed, then repeats rounds of the workload's commands for about
--seconds seconds. Each repetition is `tokenslide.cli.main(argv)` called
in a child forked from this process after `import tokenslide` and before
any command ran, so no repetition reuses work memoised by another, and
the child's peak resident set is that of the command from a fresh start.
Stdout is captured in memory. Every output is checked (checks.py) and
later repetitions must print the same bytes as the first.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics (spans.py) with --trace 1. The line before it carries
the machine facts, raw times and per-command figures. Both are also
written to clibench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("build", "analyze", "survey", "geometry")
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the rounds of commands run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time, from fresh interpreters


def setup_probe(workload, seed):
    """Time `import tokenslide` plus making the inputs, in this process."""
    with speed.Timer() as t:
        sys.path.insert(0, str(SRC))
        import tokenslide  # noqa: F401
        import workloads
        workloads.make_commands(workload, seed)
    print(json.dumps({"raw_s": t.raw_s, "rescaled_s": t.rescaled_s}))


def measure_setup(workload, seed):
    probes = []
    for _ in range(SETUP_PROBES):
        r = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        probes.append(json.loads(r.stdout.splitlines()[-1]))
    return probes


# ---------------------------------------------------------------------------
# one repetition, in a forked child


def forked(fn, *args):
    """fn(*args) in a forked child: (its JSON-able result or None, the
    child's peak resident set in MB)."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            payload = json.dumps(fn(*args)).encode()
            with os.fdopen(w, "wb") as f:
                f.write(payload)
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    _, status, usage = os.wait4(pid, 0)
    result = json.loads(data) if status == 0 and data else None
    return result, usage.ru_maxrss / 1024


def output_path(workload, command):
    return OUT / f"{workload}-{command.name}.out"


def run_command(workload, command, trace, keep):
    """One timed repetition of command; keep writes its output to disk."""
    import tokenslide.cli

    tracer = spans.install() if trace else None
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(command.stdin)
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with speed.Timer() as t:
            code = tokenslide.cli.main(list(command.argv))
    data = out.getvalue().encode()
    if keep:
        output_path(workload, command).write_bytes(data)
    rec = {"code": code, "raw_s": t.raw_s, "rescaled_s": t.rescaled_s,
           "factor": t.factor, "digest": hashlib.sha256(data).hexdigest(),
           "stderr": err.getvalue()[-2000:] if code else ""}
    if tracer is not None:
        records = tracer.records()
        rec["layers"] = spans.layer_metrics(records, len(data) / 1e6)
        if keep:
            rec["spans"] = records
    return rec


# ---------------------------------------------------------------------------
# the run


def check_outputs(workload, commands, reps):
    """Failed repetitions per command, and whether every check passed."""
    import checks

    failed, correct = {}, True
    for c in commands:
        first = reps[c.name][0]
        ok = first is not None and first["code"] == 0
        path = output_path(workload, c)
        if ok:
            try:
                checks.check(c, path.read_text())
            except (checks.CheckError, ValueError, KeyError, TypeError,
                    IndexError) as exc:
                print(f"{c.name}: wrong output: {exc!r}", file=sys.stderr)
                ok = correct = False
        elif first is not None:
            print(f"{c.name}: exit {first['code']}\n{first['stderr']}",
                  file=sys.stderr)
        path.unlink(missing_ok=True)
        failed[c.name] = sum(
            1 for rec in reps[c.name]
            if not ok or rec is None or rec["code"] != 0
            or rec["digest"] != first["digest"])
    return failed, correct


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "MB" if name.endswith("_mb") else "count"


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if not (SRC / "tokenslide" / "__init__.py").is_file():
        print(f"error: no tokenslide package under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import networkx
    import tokenslide.cli  # noqa: F401  (children fork with it imported)

    import workloads

    OUT.mkdir(exist_ok=True)
    setups = measure_setup(args.workload, args.seed)
    commands = workloads.make_commands(args.workload, args.seed)
    reps = {c.name: [] for c in commands}
    rss = {c.name: [] for c in commands}
    rounds, last_round, start = 0, 0.0, time.perf_counter()
    # whole rounds only, and none that would end past --seconds
    while rounds == 0 or (time.perf_counter() - start + last_round
                          <= args.seconds):
        t0 = time.perf_counter()
        for c in commands:
            rec, peak = forked(run_command, args.workload, c, args.trace,
                               rounds == 0)
            reps[c.name].append(rec)
            rss[c.name].append(peak)
        rounds += 1
        last_round = time.perf_counter() - t0
    measured_s = time.perf_counter() - start

    failed, correct = check_outputs(args.workload, commands, reps)
    per_command = {}
    for c in commands:
        done = [rec for rec in reps[c.name] if rec is not None]
        per_command[c.name] = {
            "reps": len(reps[c.name]), "failed": failed[c.name],
            "median_s": statistics.median(
                rec["rescaled_s"] for rec in done) if done else None,
            "median_raw_s": statistics.median(
                rec["raw_s"] for rec in done) if done else None,
            "peak_rss_mb": statistics.median(rss[c.name])}
    timed = [v for v in per_command.values() if v["median_s"] is not None]
    pass_s = sum(v["median_s"] for v in timed)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "networkx": networkx.__version__, "src.lines": src_lines(),
        "rounds": rounds, "measured_s": measured_s,
        "reference_r0_s": speed.R0,
        "raw_pass_s": sum(v["median_raw_s"] for v in timed),
        "raw_setup_s": statistics.median(p["raw_s"] for p in setups),
        "commands": per_command,
    }
    if args.trace:
        metrics = {}
        for c in commands:
            done = [rec for rec in reps[c.name] if rec is not None]
            for name in (done[0]["layers"] if done else ()):
                # times are rescaled like pass_s; counts are the same in
                # every repetition, so the first one's stand
                value = (statistics.median(rec["layers"][name] * rec["factor"]
                                           for rec in done)
                         if name.endswith("_s") else done[0]["layers"][name])
                metrics[name] = metrics.get(name, 0) + value
        metrics = {name: metric(v, layer_unit(name))
                   for name, v in metrics.items()}
        metrics["trace.pass_s"] = metric(pass_s, "s")
        metrics["src.lines"] = metric(info["src.lines"], "lines")
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {c.name: reps[c.name][0]["spans"] for c in commands
             if reps[c.name][0] is not None}))
    else:
        metrics = {
            "setup_s": metric(statistics.median(
                p["rescaled_s"] for p in setups), "s"),
            "pass_s": metric(pass_s, "s"),
            "peak_rss_mb": metric(max(v["peak_rss_mb"]
                                      for v in per_command.values()), "MB"),
        }
    result = {"correct": correct,
              "attempted": sum(len(v) for v in reps.values()),
              "failed": sum(failed.values()), "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
