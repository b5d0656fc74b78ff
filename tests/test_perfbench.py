"""The benchmark's layer tracer must find every program name it wraps."""

from pathlib import Path

from octqft import cobordism, gram

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_layer_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child

    originals = (gram.pair, gram.summary_id, gram.closure_types, cobordism.summary_closure)
    tracer, _ = child.install_tracer()
    try:
        assert gram.pair is not originals[0]
        assert cobordism.summary_id is not originals[1]
    finally:
        tracer.uninstall()
    assert (gram.pair, gram.summary_id, gram.closure_types,
            cobordism.summary_closure) == originals
    assert cobordism.summary_id is gram.summary_id
