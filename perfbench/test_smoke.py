"""Smoke test of the benchmark at reduced size.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def child(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_structures_pass_fails_only_on_deep_terms():
    out = child("--workload", "structures", "--seed", "3", "--mode", "plain", "--groups", "3")
    assert out["attempted"] == 3 * 6 + 2 * len(workloads.DEEP_GENERATORS)
    assert len(out["op_ms"]) == out["attempted"]
    assert 0 < out["setup_s"] < 30 and out["cpu_s"] > 0 and out["peak_rss_mb"] > 0
    for name, status, reason in out["failed"]:
        assert name.startswith("deep-") and status == workloads.ERROR, (name, reason)


def test_traced_pass_reports_every_layer_metric():
    out = child("--workload", "structures", "--seed", "3", "--mode", "traced", "--groups", "2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s", "trace.overhead_frac"}
    assert wanted <= set(out["layers"])
    layers = out["layers"]
    assert layers["cli.main.calls"] == 2 * 6
    assert layers["kfa.check_kfa.calls"] == 2
    assert layers["frobenius.check_frobenius.calls"] == 4
    assert layers["cli.emit_bytes"] > 0


def test_same_seed_same_inputs():
    def argvs(seed):
        return [op.name for op in workloads.structures(seed, groups=4)]
    assert argvs(5) == argvs(5)


def test_checks_flag_a_wrong_report():
    ops = workloads.structures(7, groups=1)
    check_kfa = ops[0]
    wrong = workloads.CliResult(0, json.dumps({"valid": False}), "")
    assert check_kfa.check(wrong)[0] == workloads.WRONG
    failed = workloads.CliResult(2, "", "octqft: bad input")
    assert check_kfa.check(failed)[0] == workloads.ERROR
    quotient = workloads.gram_curated()[2]
    assert quotient.check(3)[0] == workloads.WRONG and quotient.check(2)[0] == workloads.OK


class _Recursive:
    def depth(self, n):
        return 0 if n == 0 else 1 + self.depth(n - 1)


def test_tracer_counts_reentries_and_times_outermost():
    tr = Tracer()
    tr.wrap(_Recursive, "depth", "test.depth")
    try:
        assert _Recursive().depth(5) == 5
        assert _Recursive().depth(2) == 2
    finally:
        tr.uninstall()
    assert tr.calls["test.depth"] == 6 + 3
    assert len(tr.name_of) == 2
    assert tr.self_seconds()["test.depth"] >= 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "structures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
