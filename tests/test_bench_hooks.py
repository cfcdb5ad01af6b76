"""The benchmark's tracer (``bench/tracer.py``) patches lpo's layer functions
by name for ``bench/run.py --trace 1``. A rename or a changed return type
that would break a traced run fails here instead."""

import importlib.util
from pathlib import Path

from helpers import build_toy_pipeline

from lpo import decoder, encoder, evaluator, explorer, gateway, optimizer

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"
PATCHED = (optimizer, encoder, explorer, decoder, evaluator, gateway,
           evaluator.ResponseCache, gateway.Budget)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def snapshot() -> list[dict]:
    return [dict(vars(owner)) for owner in PATCHED] + [
        dict(gateway.MOCK_CHAT_BEHAVIORS), dict(gateway.MOCK_EMBED_BEHAVIORS)]


def test_tracer_patches_a_run_and_restores_every_function():
    before = snapshot()
    tracer = load_tracer()
    p = build_toy_pipeline(rng_seed=0, max_iterations=2, patience=2)
    try:
        tracer.install()
        assert snapshot() != before
        record = optimizer.iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        metrics = tracer.layer_metrics(run_s=1.0)
    finally:
        tracer.restore()
    assert snapshot() == before
    assert len(record.iterations) == 2
    assert metrics["explorer.candidates"] == 2 * 15
    assert metrics["gateway.calls.embed"] >= 1
    assert metrics["gateway.calls.classify"] > 0
    assert metrics["evaluator.templates"] > 0
    # each cycle scores each of its seeds and valid candidates once: on this
    # run no text repeats within a cycle, so every score request is evaluated
    assert metrics["optimizer.score_cache_hit_share"] == 0.0
