"""octqft benchmark: cold-process CLI and library workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload runs in a fresh
child process (perfbench/child.py), one at a time, because octqft keeps
module-level caches that a CLI user starts cold on every call.

--trace 0: pass children until the next one would end past --seconds (at
least one), with four set-up-only children before each and after the
last.  Reports the end-to-end metrics of BENCHMARK.json: medians over the
children; for op latency, the median over passes of each pass's
percentile, so that the figure does not depend on the number of passes.
Times are CPU times of the child (see child.py).

--trace 1: one plain pass and one traced pass.  Reports the per-layer
metrics of BENCHMARK.json from the traced pass, and the tracing overhead
as traced minus plain CPU time.  Spans go to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is not 0 when a child fails.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILDREN = 4          # set-up-only children before each pass and after the last
RUN_LIMIT_S = 170          # every child is killed past this, counted from start


class ChildFailed(RuntimeError):
    pass


def run_child(workload, seed, mode, deadline, extra=()):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise ChildFailed(f"{mode} child of {workload} timed out") from e
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child of {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile: always the latency of one real operation,
    so a workload of a few unlike operations reports one of them and not
    a blend that moves with their ratio."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)]


def end_to_end(setups, passes):
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    return {
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": (attempted - failed) / attempted,
        "op_ms_p50": statistics.median(percentile(p["op_ms"], 50) for p in passes),
        "op_ms_p99": statistics.median(percentile(p["op_ms"], 99) for p in passes),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + RUN_LIMIT_S

    def child(mode, extra=()):
        return run_child(args.workload, args.seed, mode, deadline, extra)

    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.tsv.gz"
        passes = [child("plain"), child("traced", ["--spans", str(spans)])]
        values = dict(passes[1]["layers"])
        values["trace.overhead_s"] = passes[1]["cpu_s"] - passes[0]["cpu_s"]
        values["trace.overhead_frac"] = values["trace.overhead_s"] / passes[0]["cpu_s"]
    else:
        # set-up children run around every pass, so that their median
        # samples the whole run and not one stretch of machine load
        setups, passes, longest = [], [], 0.0
        start = time.monotonic()
        while not passes or time.monotonic() - start + longest <= args.seconds:
            setups += [child("setup")["setup_s"] for _ in range(SETUP_CHILDREN)]
            began = time.monotonic()
            passes.append(child("plain"))
            longest = max(longest, time.monotonic() - began)
        setups += [child("setup")["setup_s"] for _ in range(SETUP_CHILDREN)]
        values = end_to_end(setups, passes)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise ChildFailed(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    failures = [f for p in passes for f in p["failed"]]
    attempted = sum(p["attempted"] for p in passes)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"cpu_s={[round(p['cpu_s'], 3) for p in passes]} "
          f"wall_s={[round(p['wall_s'], 3) for p in passes]}")
    for name, status, reason in dict.fromkeys(tuple(f) for f in failures):
        print(f"# failed: {name} [{status}] {reason}")
    print(json.dumps({
        "correct": all(status != "wrong" for _, status, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
