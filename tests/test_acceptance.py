"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either computed by an independent oracle inside the
test (grid search, least-squares solve, closed-form statistics) or asserted
against frozen fixtures. All runs are mock-backed; a network attempt fails
the suite.
"""

import json
import shutil
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    build_toy_pipeline,
    circle_points,
    grid_best_fitness,
    quantized,
    toy_fitness,
)

from lpo import fixtures
from lpo.cli import main
from lpo.core import Dataset, Example, validate_template
from lpo.evaluator import EvalConfig, evaluate
from lpo.explorer import extrapolate, interpolate, perturb
from lpo.gateway import BackendConfig, Budget, call_count
from lpo.optimizer import iterate, run_cycle
from lpo.projector import PairedCorpus, fit_ridge, residual
from lpo.toyspace import ToySpaceSpec, toy_decode, toy_encode


def criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number:2d}: {description} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {description} {detail}"


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("network access attempted during acceptance run")

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", forbidden)


def test_criterion_1_explorer_algebra():
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    for dim in (2, 8, 64):
        for _ in range(1000):
            a = rng.standard_normal(dim)
            b = rng.standard_normal(dim)
            w = float(rng.uniform(0, 1))
            assert np.array_equal(interpolate(a, b, 1.0), a)
            assert np.array_equal(interpolate(a, b, 0.0), b)
            assert np.array_equal(interpolate(a, b, w), interpolate(b, a, 1.0 - w))
            mid = interpolate(a, b, w)
            assert np.all(mid >= np.minimum(a, b)) and np.all(mid <= np.maximum(a, b))
            assert np.array_equal(extrapolate(a, b, 2.0), 2.0 * a - b)
    elapsed = time.perf_counter() - started
    criterion(1, "explorer algebra identities over 1000 pairs x d in {2,8,64}",
              elapsed < 5.0, f"({elapsed:.2f}s)")


def test_criterion_2_perturbation_statistics():
    started = time.perf_counter()
    n_draws, dim, sigma = 10_000, 8, 1.0
    base = np.zeros(dim)
    noise = np.array([perturb(base, sigma, seed) for seed in range(n_draws)])
    means = noise.mean(axis=0)
    variances = noise.var(axis=0)
    exact_identity = np.array_equal(perturb(np.array([1.0, -2.0]), 0.0, 7), [1.0, -2.0])
    elapsed = time.perf_counter() - started
    ok = (np.all(np.abs(means) <= 0.04)
          and np.all((variances >= 0.9) & (variances <= 1.1))
          and exact_identity
          and elapsed < 5.0)
    criterion(2, "perturbation Monte Carlo statistics at sigma=1, d=8",
              ok, f"(max|mean|={np.max(np.abs(means)):.4f}, "
                  f"var range [{variances.min():.3f},{variances.max():.3f}], {elapsed:.2f}s)")


def test_criterion_3_projector_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    planted = rng.standard_normal((4, 3))
    xs = rng.standard_normal((50, 3))
    ys = xs @ planted.T + 0.01 * rng.standard_normal((50, 4))
    corpus = PairedCorpus(inputs=xs, targets=ys)
    reg = 1e-6
    fitted = fit_ridge(corpus, regularization=reg)
    frobenius = float(np.linalg.norm(fitted.weights - planted))

    # independent oracle: least squares on the ridge-augmented system
    aug_x = np.vstack([xs, np.sqrt(reg) * np.eye(3)])
    aug_y = np.vstack([ys, np.zeros((3, 4))])
    oracle = np.linalg.lstsq(aug_x, aug_y, rcond=None)[0].T
    oracle_gap = float(np.linalg.norm(fitted.weights - oracle))

    exact = PairedCorpus.from_pairs([([1.0, 0.0], [2.0, 0.0]), ([0.0, 1.0], [0.0, 3.0])])
    exact_rms = residual(fit_ridge(exact, regularization=0.0), exact)
    elapsed = time.perf_counter() - started
    ok = frobenius < 0.05 and oracle_gap < 1e-8 and exact_rms < 1e-8 and elapsed < 5.0
    criterion(3, "ridge fit recovers planted 4x3 map (lstsq oracle agrees)",
              ok, f"(|W-planted|_F={frobenius:.4f}, |W-oracle|_F={oracle_gap:.2e}, "
                  f"exact rms={exact_rms:.2e}, {elapsed:.2f}s)")


def test_criterion_4_toy_space_round_trip():
    spec = ToySpaceSpec(("a", "b", "c"))
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(1000):
        vec = rng.uniform(0.0, 1.0, size=3)
        ok = ok and np.array_equal(toy_encode(spec, toy_decode(spec, vec)), vec)
    criterion(4, "toy encode/decode round trip exact for 1000 random vectors", ok)


def test_criterion_5_end_to_end_synthetic_optimization():
    started = time.perf_counter()
    n_examples = 20
    target = (0.5, 0.5)
    seeds_xy = circle_points()

    # grid-search oracle over lambda in {0, 0.01, ..., 1} for all seed pairs
    best_grid = grid_best_fitness(seeds_xy, target, steps=101)
    best_seed = max(toy_fitness(xy, target) for xy in seeds_xy)
    predicted_gain = quantized(best_grid, n_examples) - quantized(best_seed, n_examples)

    successes = 0
    improvements = []
    for rng_seed in range(100):
        p = build_toy_pipeline(rng_seed=rng_seed, n_examples=n_examples, target=target)
        result = run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        seed_ids = {s.id for s in p.seeds}
        best_seed_acc = max(s.accuracy for s in result.scored if s.template.id in seed_ids)
        cand_accs = [s.accuracy for s in result.scored if s.template.id not in seed_ids]
        best_cand_acc = max(cand_accs)
        successes += best_cand_acc >= best_seed_acc
        improvements.append(best_cand_acc - best_seed_acc)
    mean_improvement = float(np.mean(improvements))
    elapsed = time.perf_counter() - started
    ok = (successes >= 95
          and mean_improvement >= predicted_gain - 1.0 / n_examples
          and elapsed < 60.0)
    criterion(5, "synthetic optimization beats the best seed (100 rng seeds)",
              ok, f"(successes={successes}/100, mean gain={mean_improvement:.4f}, "
                  f"oracle gain={predicted_gain:.4f}, {elapsed:.1f}s)")


def test_criterion_6_monotone_incumbent():
    failures = 0
    for rng_seed in range(100):
        p = build_toy_pipeline(rng_seed=rng_seed, n_examples=10,
                               max_iterations=3, patience=3)
        record = iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        bests = [it.best_accuracy for it in record.iterations]
        if any(a > b for a, b in zip(bests, bests[1:])):
            failures += 1
    criterion(6, "best score nondecreasing over 3 iterations with keep_seeds",
              failures == 0, f"({100 - failures}/100 runs monotone)")


def _normalized_record_lines(path: Path) -> list[str]:
    def strip_timestamps(obj):
        if isinstance(obj, dict):
            return {k: (None if k.endswith("_at") else strip_timestamps(v))
                    for k, v in obj.items()}
        if isinstance(obj, list):
            return [strip_timestamps(v) for v in obj]
        return obj

    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        lines.append(json.dumps(strip_timestamps(json.loads(line)), sort_keys=True))
    return lines


def test_criterion_7_run_record_determinism(tmp_path):
    fixtures.copy_toy_workspace(tmp_path)

    def optimize_once():
        code = main(["optimize", "--config", str(tmp_path / "config.yaml"),
                     "--seeds", str(tmp_path / "seeds.jsonl")])
        assert code == 0
        return _normalized_record_lines(tmp_path / "out" / "run_record.jsonl")

    first = optimize_once()
    shutil.rmtree(tmp_path / "out")  # identical inputs: caches are outputs
    second = optimize_once()
    criterion(7, "two identical optimize runs byte-identical modulo timestamps",
              first == second, f"({len(first)} record lines)")


def test_criterion_8_evaluator_exactness(tmp_path):
    template = validate_template("Classify: {text}", template_id="tpl")
    labels = ("negative", "positive")

    def handler_backend(reply_by_needle):
        def handler(req):
            for needle, reply in reply_by_needle.items():
                if needle in req.user_text:
                    return reply
            raise AssertionError("unscripted")
        return BackendConfig(kind="mock", behavior="handler", params={"fn": handler})

    extraction = BackendConfig(kind="mock", behavior="fixed", params={"reply": "unparsed"})

    # all-unparsed fixture
    ds = Dataset(examples=(Example(text="row-a", label="positive"),
                           Example(text="row-b", label="negative")),
                 label_set=labels)
    cfg = EvalConfig(task_backend=handler_backend({"row-a": "???", "row-b": "???"}),
                     extraction_backend=extraction)
    zero = evaluate(template, ds, cfg, Budget(10**6, 10**9))

    # mixed 2/3 fixture
    ds3 = Dataset(examples=(Example(text="row-a", label="positive"),
                            Example(text="row-b", label="negative"),
                            Example(text="row-c", label="positive")),
                  label_set=labels)
    cfg3 = EvalConfig(
        task_backend=handler_backend(
            {"row-a": "positive", "row-b": "negative", "row-c": "negative"}),
        extraction_backend=extraction,
        cache_path=tmp_path / "cache.jsonl")
    cold = evaluate(template, ds3, cfg3, Budget(10**6, 10**9))
    calls_after_cold = call_count(cfg3.task_backend)
    warm = evaluate(template, ds3, cfg3, Budget(10**6, 10**9))
    warm_calls = call_count(cfg3.task_backend) - calls_after_cold

    ok = (zero.accuracy == 0.0
          and cold.accuracy == 2 / 3
          and cold.n_correct == 2 and cold.n_total == 3
          and cold.accuracy == cold.n_correct / cold.n_total
          and warm == cold
          and warm_calls == 0)
    criterion(8, "evaluator accuracy is the exact integer ratio; warm cache issues "
                 "zero calls", ok,
              f"(all-unparsed={zero.accuracy}, mixed={cold.accuracy:.4f}, "
              f"warm calls={warm_calls})")


def test_criterion_9_reference_replay_formatting(capsys):
    path = fixtures.fixture_path("reference_run.jsonl")
    code = main(["report", str(path)])
    out = capsys.readouterr().out
    ok = (code == 0 and "75.36%" in out and "78.14%" in out and "+2.78 pp" in out)
    with capsys.disabled():
        criterion(9, "reference run record prints the +2.78 pp comparison", ok)


def test_criterion_10_budget_ceiling():
    n_examples = 10
    candidate_count = 15
    p = build_toy_pipeline(rng_seed=0, n_examples=n_examples,
                           candidate_count=candidate_count,
                           decode_kind="anchor_blend")
    result = run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
    assert not result.partial
    pool = candidate_count + len(p.seeds)
    chat_calls = call_count(p.chat_backend)          # decode + refinement
    task_calls = call_count(p.task_backend)
    extraction_calls = call_count(p.extraction_backend)
    ok = (chat_calls <= 2 * candidate_count
          and task_calls + extraction_calls <= 2 * n_examples * pool)
    criterion(10, "run_cycle call counts within the decode/refine/eval ceiling",
              ok, f"(chat={chat_calls}<=K+K={2 * candidate_count}, "
                  f"task+extract={task_calls + extraction_calls}"
                  f"<=2E(K+S)={2 * n_examples * pool})")
