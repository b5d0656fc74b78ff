"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/collect.py [--workloads W ...] [--seeds 1 2 ...]
                                 [--trace-seed N] [--trace-runs K] [--out FILE]

For each workload: one run.py --trace 0 per seed, then K --trace 1 runs
with --trace-seed (none when K is 0), whose counts must repeat exactly.
For every end-to-end metric it reports the median, the quartiles of
statistics.quantiles(n=4) and the spread (q3 - q1) / median, next to a
third of the metric's bound, the steadiness the benchmark aims for.
Writes one JSON file and prints a table.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["seed"] = seed
    out["notes"] = lines[:-1]
    return out


def summarise(runs, end_to_end):
    out = {}
    for m in end_to_end:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0,
                          "bound": m["bound"], "values": values}
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace-seed", type=int, default=1)
    ap.add_argument("--trace-runs", type=int, default=2)
    ap.add_argument("--out", default=str(HERE / "out" / "collect.json"))
    args = ap.parse_args(argv)

    report = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for w in args.workloads:
        runs = [run(w, seed, spec["run_seconds"], 0) for seed in args.seeds]
        entry = {"runs": runs, "summary": summarise(runs, spec["end_to_end"])}
        traces = [run(w, args.trace_seed, spec["run_seconds"], 1) for _ in range(args.trace_runs)]
        if traces:
            counts = [{k: v["value"] for k, v in t["metrics"].items()
                       if v["unit"] in ("count", "bytes")} for t in traces]
            entry["trace"] = traces[0]
            entry["trace_counts_repeat"] = all(c == counts[0] for c in counts)
            entry["trace_overhead_s"] = [t["metrics"]["trace.overhead_s"]["value"] for t in traces]
        report["workloads"][w] = entry
        print(f"{w}: correct={all(r['correct'] for r in runs + traces)} "
              f"failed={[r['failed'] for r in runs]} "
              f"trace counts repeat={entry.get('trace_counts_repeat')} "
              f"overhead_s={entry.get('trace_overhead_s')}")
        for name, s in entry["summary"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "   <-- above bound/3"
            print(f"  {name:12s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound/3 {s['bound'] / 3:.4f}){flag}")
        sys.stdout.flush()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
