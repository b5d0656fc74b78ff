"""The benchmark's layer tracer must find every program name it wraps, and
the reports the benchmark checks byte for byte must keep their bytes."""

import hashlib
import json
from pathlib import Path

import pytest

from octqft import cobordism, gram
from octqft.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_layer_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child

    def layer_functions():
        return (gram.pair, gram.summary_id, gram.closure_types, cobordism.summary_closure,
                cobordism.compose_summaries, gram.compose_summaries)

    originals = layer_functions()
    tracer, _ = child.install_tracer()
    try:
        assert gram.pair is not originals[0]
        assert cobordism.summary_id is not originals[1]
        # the compose_summaries counters read the wrapper under both names
        assert cobordism.compose_summaries is not originals[4]
        assert gram.compose_summaries is cobordism.compose_summaries
    finally:
        tracer.uninstall()
    assert layer_functions() == originals
    assert cobordism.summary_id is gram.summary_id
    assert cobordism.compose_summaries is gram.compose_summaries


@pytest.mark.parametrize("obj", ["S", "I"])
def test_gram_stdout_matches_benchmark_digest(obj, capsys, monkeypatch):
    # the benchmark judges `octqft gram` by the sha256 of its stdout; a
    # changed byte fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    chi = json.dumps(workloads.CHI_1.to_json())
    assert main(["gram", "--object", obj, "--char", chi]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == workloads.GRAM_DIGEST[obj]
