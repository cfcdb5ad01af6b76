"""lpo benchmark: one workload per run, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload eval_cold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                   # every workload, one table

A run generates the workload's input files from ``--seed``, times lpo's
set-up in fresh interpreters, then repeats the pipeline ``lpo optimize``
runs -- ``iterate``, ``write_run_record``, ``read_run_record`` -- for
``--seconds`` and checks every run's outputs. ``run_s`` and ``setup_s``
are scaled to a reference host speed by the sampled gauge in ``gauge.py``.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from runs with spans around each layer. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PROBES = 5          # fresh interpreters timing set-up, per run
MIN_RUNS = 3        # measured runs even when one outlasts --seconds
PROBE_TIMEOUT_S = 120


def declared(section: str) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json lists in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


@dataclass
class Rep:
    """What one timed run produced."""

    run_s: float              # wall time
    reference_s: float        # the same at reference host speed (gauge.py)
    calls: int
    tokens: int
    attempts: int
    completed: int
    best: float
    header: dict | None
    iterations: list[dict] | None
    cycles: list[tuple]
    model_calls: dict[str, int]
    backend_busy_s: float
    samples: int              # speed samples gauge.py took
    layers: dict[str, float] = field(default_factory=dict)


class Workspace:
    """One workload and seed: its files, lpo config and benchmark models."""

    def __init__(self, w, seed: int, path: Path):
        from lpo.config import load_app_config, load_seed_templates
        from lpo.core import load_dataset, split_dataset
        from workloads import attach_models

        self.w, self.seed, self.path = w, seed, path
        app, errors = load_app_config(path / "config.yaml")
        seeds, seed_errors = load_seed_templates(path / "seeds.jsonl")
        if errors or seed_errors:
            raise SystemExit(f"generated inputs rejected: {errors + seed_errors}")
        self.app, self.seeds = app, seeds
        train = load_dataset(app.train_path, labels=app.labels)
        self.validation, _ = split_dataset(train, app.split)
        self.n = min(len(self.validation), app.max_examples)
        self.models = attach_models(w, seed, app, self.validation)
        self.eval_cfg = app.eval_config("validation")
        backends = [app.optimizer.encoder.backend, app.optimizer.decode.chat,
                    app.task_backend, app.extraction_backend]
        self.backends = list({id(b): b for b in backends if b is not None}.values())
        self.record_path = app.out_dir / "run_record.jsonl"
        self.reference: tuple | None = None
        self.cold_scored: list | None = None
        self.cycles: list[tuple] = []

    def counters(self) -> tuple[int, int, int]:
        from lpo.gateway import call_count

        return (call_count(self.app.optimizer.decode.chat),
                self.models["task"].calls, self.models["extract"].calls)

    def count_cycles(self, run_cycle):
        """run_cycle that logs each iteration's decode-backend, task and extract calls."""
        def counted(*args, **kwargs):
            before = self.counters()
            result = run_cycle(*args, **kwargs)
            self.cycles.append((len(args[0]),) + tuple(
                after - prior for after, prior in zip(self.counters(), before)))
            return result
        return counted

    def run(self, tracer=None, fresh: bool = True) -> Rep:
        """One timed run from entering ``iterate`` to the record read back."""
        from lpo import optimizer, records
        from lpo.cli import format_report
        from lpo.gateway import attempt_count, call_count, usage_report

        from gauge import Gauge

        out = self.app.out_dir
        if fresh:
            shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True, exist_ok=True)
        budget = self.app.budget()
        base_calls = sum(call_count(b) for b in self.backends)
        base_attempts = sum(attempt_count(b) for b in self.backends)
        for model in self.models.values():
            model.reset()
        self.cycles = []
        info = {"train_path": str(self.app.train_path),
                "validation_fraction": self.app.split.validation_fraction,
                "split_rng_seed": self.app.split.rng_seed,
                "fingerprint": self.validation.fingerprint(),
                "examples": len(self.validation),
                "labels": list(self.validation.label_set)}
        iterate, write, read = (optimizer.iterate, records.write_run_record,
                                records.read_run_record)

        def body():
            record = iterate(self.seeds, self.app.optimizer, self.eval_cfg, self.validation,
                             budget, dataset_info=info)
            write(record, self.record_path)
            return read(self.record_path)

        run_cycle = optimizer.run_cycle
        optimizer.run_cycle = self.count_cycles(run_cycle)
        try:
            if tracer is not None:
                iterate = tracer.wrap("optimizer.iterate", iterate)
                write = tracer.wrap("records.write", write)
                read = tracer.wrap("records.read", read)
                body = tracer.wrap("run", body)
                tracer.install()
            try:
                # spans of a traced run would count the samples as lpo's time
                with Gauge(sample=tracer is None) as gauge:
                    header, iterations = body()
            finally:
                if tracer is not None:
                    tracer.restore()
        finally:
            optimizer.run_cycle = run_cycle
        (out / "summary.txt").write_text(format_report(header, iterations) + "\n",
                                         encoding="utf-8")
        calls, tokens = usage_report(budget)
        scores = [s["accuracy"] for it in iterations for s in it["scored"]]
        rep = Rep(
            run_s=gauge.own_wall_s, reference_s=gauge.scaled(), calls=calls, tokens=tokens,
            attempts=sum(attempt_count(b) for b in self.backends) - base_attempts,
            completed=sum(call_count(b) for b in self.backends) - base_calls,
            best=max(scores) if scores else 0.0,
            header=header, iterations=iterations, cycles=list(self.cycles),
            model_calls={k: m.calls for k, m in self.models.items()},
            backend_busy_s=sum(m.busy_s for m in self.models.values()),
            samples=len(gauge.samples),
        )
        if tracer is not None:
            rep.layers = tracer.layer_metrics(rep.run_s)
            cache = self.eval_cfg.cache_path
            rep.layers.update({
                "gateway.attempts": rep.attempts,
                "optimizer.iterations": len(iterations),
                "records.mb": self.record_path.stat().st_size / 2**20,
                "evaluator.cache_mb": Path(cache).stat().st_size / 2**20
                if cache and Path(cache).exists() else 0.0,
            })
        return rep

    def check(self, rep: Rep, warm: bool = False) -> list[str]:
        """Output checks; each problem found is one line."""
        problems = []
        task = self.models["task"]
        policy = self.app.optimizer.policy
        for it in rep.iterations:
            for s in it["scored"]:
                want = task.oracle_correct(s["template"]["text"])
                if s["n_total"] != self.n or s["n_correct"] != want \
                        or s["accuracy"] != want / self.n:
                    problems.append(f"iteration {it['index']}: {s['template']['id']} scored "
                                    f"{s['n_correct']}/{s['n_total']}, oracle {want}/{self.n}")
        if len(rep.cycles) != len(rep.iterations):
            problems.append(f"{len(rep.cycles)} cycles ran, {len(rep.iterations)} recorded")
        for it, (n_seeds, chat, task_calls, extract_calls) in zip(rep.iterations, rep.cycles):
            # the --dry-run plan of `lpo optimize`, per iteration
            cap = policy.candidate_count
            pool = cap + (n_seeds if self.app.optimizer.keep_seeds else 0)
            decoded = sum(1 for c in it["candidates"] if c["decoded_text"] is not None)
            planned = {"decode": (decoded, cap), "refine": (chat - decoded, cap),
                       "task": (task_calls, self.n * pool),
                       "extract": (extract_calls, self.n * pool)}
            for stage, (used, limit) in planned.items():
                if not 0 <= used <= limit:
                    problems.append(f"iteration {it['index']}: {used} {stage} calls, "
                                    f"plan allows {limit}")
        if rep.header["budget"]["calls"] != rep.calls or rep.completed != rep.calls:
            problems.append(f"budget counted {rep.calls} calls, backends completed "
                            f"{rep.completed}, record says {rep.header['budget']['calls']}")
        if warm:
            if rep.model_calls["task"] or rep.model_calls["extract"]:
                problems.append(f"warm run made {rep.model_calls['task']} classify and "
                                f"{rep.model_calls['extract']} extract calls")
            if [it["scored"] for it in rep.iterations] != self.cold_scored:
                problems.append("warm run scores differ from the cold run's")
        normalized = _without_timestamps(rep.header, rep.iterations)
        if self.reference is None:
            self.reference = normalized
        elif normalized != self.reference:
            problems.append("run record differs from the first run's beyond timestamps")
        return problems


def _without_timestamps(header: dict, iterations: list[dict]) -> tuple:
    stamps = ("started_at", "finished_at")
    return ({k: v for k, v in header.items() if k not in stamps},
            [{k: v for k, v in it.items() if k not in stamps} for it in iterations])


def probe_setup(w, seed: int, path: Path) -> dict:
    """Set-up timings from one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe_setup.py"), str(SRC), str(path), w.name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def top_percentile(values: list[float]) -> tuple[float, float]:
    """Highest of a few percentiles with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (1 - pct / 100) >= 10:
            return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]
    return 50.0, statistics.median(ordered) if ordered else 0.0


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    from tracer import Tracer
    from workloads import WORKLOADS, write_workspace

    w = WORKLOADS[name]
    path = WORK / f"{name}-seed{seed}"
    shutil.rmtree(path, ignore_errors=True)
    write_workspace(w, seed, path)
    probes = [probe_setup(w, seed, path) for _ in range(PROBES)]
    ws = Workspace(w, seed, path)
    problems: list[str] = []
    if w.warm:
        cold = ws.run()
        problems += ws.check(cold)
        ws.cold_scored = [it["scored"] for it in cold.iterations]
        ws.reference = None  # budget totals differ between cold and warm records

    plain: list[Rep] = []
    traced_reps: list[Rep] = []
    evaluate_ms: list[float] = []
    tracer = Tracer() if traced else None
    deadline = time.perf_counter() + seconds
    while True:
        # in traced mode untraced and traced runs alternate, for the overhead
        use_tracer = traced and len(traced_reps) < len(plain)
        rep = ws.run(tracer if use_tracer else None, fresh=not w.warm)
        problems += ws.check(rep, warm=w.warm)
        rep.header = rep.iterations = None  # kept records would inflate peak_rss_mb
        if use_tracer:
            traced_reps.append(rep)
            evaluate_ms += tracer.evaluate_ms()
            if time.perf_counter() >= deadline and len(traced_reps) >= 2:
                tracer.write(WORK / f"trace-{name}-seed{seed}.jsonl")
                break
            tracer.clear()
        else:
            plain.append(rep)
            if not traced and time.perf_counter() >= deadline and len(plain) >= MIN_RUNS:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shutil.rmtree(path, ignore_errors=True)

    reps = traced_reps if traced else plain
    attempted = sum(r.attempts for r in reps)
    failed = attempted - sum(r.completed for r in reps)
    med = statistics.median
    if traced:
        metrics = per_layer(traced_reps, plain, probes, evaluate_ms)
    else:
        metrics = {
            "run_s": med(r.reference_s for r in plain),
            "setup_s": med(p["reference_s"] for p in probes),
            "backend_calls": med(r.calls for r in plain),
            "backend_tokens": med(r.tokens for r in plain),
            "best_accuracy": med(r.best for r in plain),
            "peak_rss_mb": peak_rss_mb,
            "completed_share": (attempted - failed) / attempted,
        }
    units = declared("per_layer" if traced else "end_to_end")
    if set(units) != set(metrics):
        problems.append("reported metrics differ from those BENCHMARK.json declares")
    print(f"workload {name}, seed {seed}: {len(plain)} untraced and {len(traced_reps)} "
          f"traced runs, set-up timed in {len(probes)} fresh interpreters")
    print("  run_s of each run: " + " ".join(f"{r.reference_s:.4f}" for r in reps))
    print("  ... wall time: " + " ".join(f"{r.run_s:.4f}" for r in reps))
    print("  ... speed samples: " + " ".join(str(r.samples) for r in reps))
    print("  setup_s of each interpreter: " + " ".join(f"{p['reference_s']:.4f}" for p in probes))
    print("  ... wall time: " + " ".join(f"{p['setup_s']:.4f}" for p in probes))
    backend = med(r.backend_busy_s / r.run_s for r in plain)
    print(f"  benchmark models busy for {backend:.1%} of the wall time (median); "
          f"failed_share {failed / attempted if attempted else 0.0:.4f}")
    for key, value in metrics.items():
        print(f"  {key:<36} {value:>14.6g} {units.get(key, '')}")
    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }))
    return 1 if problems else 0


def per_layer(traced: list[Rep], plain: list[Rep], probes: list[dict],
              evaluate_ms: list[float]) -> dict[str, float]:
    med = statistics.median
    last = traced[-1].layers
    # times are medians over traced runs; counts and ratios repeat exactly
    units = declared("per_layer")
    metrics = {k: (med(r.layers[k] for r in traced) if units.get(k) in ("s", "ms") else v)
               for k, v in last.items()}
    for key in ("import_s", "config_s", "dataset_s"):
        metrics[f"setup.{key}"] = med(p[key] for p in probes)
    for key in ("fit_s", "save_s", "load_s", "weights_mb"):
        metrics[f"projector.{key}"] = med(p.get(key, 0.0) for p in probes)
    pct, top = top_percentile(evaluate_ms)
    metrics.update({
        "evaluator.score_ms_p50": med(evaluate_ms) if evaluate_ms else 0.0,
        "evaluator.score_ms_top": top,
        "evaluator.score_top_pct": pct,
        "evaluator.score_count": len(evaluate_ms),
        "trace.run_s": med(r.run_s for r in traced),
        "trace.overhead_share": med(r.run_s for r in traced) / med(r.run_s for r in plain) - 1,
    })
    return dict(sorted(metrics.items()))


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    from workloads import WORKLOADS

    rows, status = {}, 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if done.returncode != 0 or result is None or not result["correct"]:
            status = 1
        rows[name] = result
    names = [n for n in WORKLOADS if rows[n]]
    print()
    print(f"{'metric':<16} {'unit':<9}" + "".join(f"{n:>14}" for n in names))
    for key, unit in declared("end_to_end").items():
        print(f"{key:<16} {unit:<9}"
              + "".join(f"{rows[n]['metrics'][key]['value']:>14.6g}" for n in names))
    print("all output checks passed" if status == 0 else "SOME CHECKS FAILED")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lpo" / "__init__.py").is_file():
        print(f"error: lpo sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
