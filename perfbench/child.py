"""One cold process: import octqft, build a workload, optionally run one pass.

    python3 perfbench/child.py --workload W --seed N --mode setup|plain|traced
                               [--groups G] [--spans PATH]

Times are CPU time of this process (CLOCK_PROCESS_CPUTIME_ID), which on a
shared machine excludes the time the process waits for a CPU that another
tenant holds; octqft is single-threaded and does no I/O during a pass, so
on an idle machine it equals wall time.  ``setup_s`` is the CPU time from
process start until octqft is imported and the inputs are built.  The last
line of stdout is one JSON object with the measurements.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import octqft from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import octqft
    if Path(octqft.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"octqft imported from {octqft.__file__}, not from {SRC}")


def install_tracer():
    """Wrap the layer boundaries the per-layer metrics are read from."""
    from octqft import character, cli, cobordism, frobenius, gram, kfa, numkit
    from tracer import Tracer

    tr = Tracer()
    fallthrough = set()

    def summary_id_call(t):
        # accept_ratio counts summary_id calls under enumerate_end_terms;
        # summary_path_frac counts closure_types calls that reach summary_id
        if t.open["gram.enumerate_end_terms"]:
            t.counts["enumerate_end_terms.summary_ids"] += 1
        span = t.open["gram.closure_types"]
        if span:
            fallthrough.add(span)

    enumerations = {}

    def enumerated(t, ts):
        # a repeated call returns the cached TermSpace and enumerates nothing
        if id(ts) not in enumerations:
            enumerations[id(ts)] = ts
            t.counts["enumerate_end_terms.classes"] += len(ts.spanning)

    spans = {
        numkit: ("solve", "inverse"),
        cobordism: ("typecheck", "summarize", "compose_summaries", "summary_closure",
                    "evaluate", "parse"),
        gram: ("pair", "gram_rank", "quotient_algebra", "closure_types",
               "nilpotent_trace_obstruction", "is_negligible"),
        character: ("eval_character", "classify_table"),
        kfa: ("check_kfa", "invariant_table", "character_of"),
        frobenius: ("check_frobenius",),
        cli: ("main",),
    }
    for mod, names in spans.items():
        layer = mod.__name__.rsplit(".", 1)[1]
        for name in names:
            tr.wrap(mod, name, f"{layer}.{name}")
    tr.wrap(numkit.Matrix, "rank", "numkit.rank")
    tr.wrap(gram, "enumerate_end_terms", "gram.enumerate_end_terms", on_return=enumerated)
    tr.count(gram, "summary_id", "gram.summary_id", on_call=summary_id_call)
    return tr, fallthrough


def layer_metrics(tr, fallthrough, results):
    """Per-layer metrics of a traced pass, named layer.function.stat."""
    own = tr.self_seconds()
    out = {}
    for name in sorted(set(tr.names)):
        out[f"{name}.calls"] = tr.calls[name]
        out[f"{name}.self_s"] = own.get(name, 0.0)
    closures = tr.calls["gram.closure_types"]
    out["gram.closure_types.summary_path_frac"] = len(fallthrough) / closures if closures else 0.0
    classes = tr.counts["enumerate_end_terms.classes"]
    ids = tr.counts["enumerate_end_terms.summary_ids"]
    out["gram.enumerate_end_terms.classes"] = classes
    out["gram.enumerate_end_terms.accept_ratio"] = classes / ids if ids else 0.0
    out["cli.emit_bytes"] = sum(len(r.out.encode()) for r in results if hasattr(r, "out"))
    return out


def run_pass(ops, tracer=None):
    """Run every operation once; returns (values, errors, op CPU ns, pass
    CPU ns, pass wall ns)."""
    values, errors, lat = [], [], []
    clock = time.process_time_ns
    first, first_wall = clock(), time.perf_counter_ns()
    for op in ops:
        if tracer is not None and not op.traced:
            tracer.uninstall()
        t = clock()
        try:
            values.append(op.run())
            errors.append(None)
        except Exception as e:  # the pass goes on; the check counts it as failed
            values.append(None)
            errors.append(f"{type(e).__name__}: {str(e)[:120]}")
        lat.append(clock() - t)
        if tracer is not None and not op.traced:
            tracer.reinstall()
    return values, errors, lat, clock() - first, time.perf_counter_ns() - first_wall


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--groups", type=int, default=None,
                    help="structures: KFAs per pass (default: the full size)")
    ap.add_argument("--spans", default=None, help="write the traced spans here (gzip)")
    args = ap.parse_args(argv)

    import_program()
    import workloads
    ops = workloads.build(args.workload, args.seed, args.groups or workloads.GROUPS)
    out = {"setup_s": time.process_time()}
    if args.mode != "setup":
        tracer = fallthrough = None
        if args.mode == "traced":
            tracer, fallthrough = install_tracer()
        values, errors, lat, cpu_ns, wall_ns = run_pass(ops, tracer)
        if tracer is not None:
            tracer.uninstall()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        statuses = []
        for op, value, error in zip(ops, values, errors):
            if error:
                status, reason = workloads.ERROR, error
            else:
                try:
                    status, reason = op.check(value)
                except Exception as e:  # no reference answer: the report is unverified
                    status, reason = workloads.WRONG, f"check raised {type(e).__name__}: {e}"
            statuses.append((op.name, status, reason))
        out.update({
            "cpu_s": cpu_ns / 1e9,
            "wall_s": wall_ns / 1e9,
            "peak_rss_mb": rss_kb / 1024,
            "op_ms": [ns / 1e6 for ns in lat],
            "attempted": len(ops),
            "failed": [s for s in statuses if s[1] != workloads.OK],
        })
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, fallthrough, values)
            if args.spans:
                tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
