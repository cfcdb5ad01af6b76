"""Command-line entry point: optimize, evaluate, explore, fit-projector, report.

Exit codes: 0 success, 2 validation error or a path that cannot be read or
written, 3 budget exhaustion, 4 backend failure. Config and seed validation
failures are listed exhaustively before any backend call. Reporting is purely
offline: it reads a run record and never constructs a backend.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import encoder as encoder_mod
from . import evaluator as evaluator_mod
from . import fixtures
from .config import DEFAULT_CONFIG_TEXT, AppConfig, load_app_config, load_seed_templates
from .core import Dataset, load_dataset, split_dataset, write_atomic
from .errors import BackendError, BudgetExhaustedError, LPOError, ValidationError
from .explorer import generate_candidates
from .optimizer import iterate
from .projector import fit_ridge, load_paired_corpus, residual, save_weights
from .records import candidate_to_dict, read_run_record, write_run_record

logger = logging.getLogger(__name__)


def _fail(errors: list[str], prefix: str) -> int:
    for err in errors:
        print(f"{prefix}: {err}", file=sys.stderr)
    return 2


def _load_config_and_seeds(config_path: str, seeds_path: str, out_dir: str | None = None):
    app, errors = load_app_config(config_path)
    if app is not None and out_dir is not None:
        app = replace(app, out_dir=Path(out_dir))
    seeds, seed_errors = load_seed_templates(seeds_path)
    problems = [f"config: {e}" for e in errors] + [f"seeds: {e}" for e in seed_errors]
    return app, seeds, problems


def _validation_split(app: AppConfig) -> Dataset:
    train = load_dataset(app.train_path, labels=app.labels)
    validation, _ = split_dataset(train, app.split)
    return validation


def _pct(value) -> str:
    if value is None:
        return "n/a"
    return f"{100 * value:.2f}%"


def cmd_optimize(config_path: str, seeds_path: str, out_dir: str | None = None,
                 dry_run: bool = False) -> int:
    app, seeds, problems = _load_config_and_seeds(config_path, seeds_path, out_dir)
    if problems:
        return _fail(problems, "optimize")
    out = app.out_dir
    validation = _validation_split(app)
    policy = app.optimizer.policy
    slice_size = min(len(validation), app.max_examples)
    pool = policy.candidate_count + (len(seeds) if app.optimizer.keep_seeds else 0)

    if dry_run:
        print("dry run: zero backend calls")
        print(f"seeds: {len(seeds)}  candidates/iteration: {policy.candidate_count}  "
              f"iterations: <={app.optimizer.max_iterations}")
        print(f"evaluation slice: {slice_size} examples")
        print("planned calls per iteration:")
        print("  embed:       <= 1")
        print(f"  decode:      <= {policy.candidate_count}")
        print(f"  refinement:  <= {policy.candidate_count}")
        print(f"  task:        <= {slice_size * pool}")
        print(f"  extraction:  <= {slice_size * pool}")
        print(f"  total:       <= {1 + 2 * policy.candidate_count + 2 * slice_size * pool}")
        return 0

    out.mkdir(parents=True, exist_ok=True)
    budget = app.budget()
    eval_cfg = app.eval_config("validation")
    record = iterate(
        seeds, app.optimizer, eval_cfg, validation, budget,
        dataset_info={
            "train_path": str(app.train_path),
            "validation_fraction": app.split.validation_fraction,
            "split_rng_seed": app.split.rng_seed,
        },
    )
    record_path = out / "run_record.jsonl"
    write_run_record(record, record_path)
    header, iterations = read_run_record(record_path)
    summary = format_report(header, iterations)
    (out / "summary.txt").write_text(summary + "\n", encoding="utf-8")
    print(summary)
    print(f"\nrun record: {record_path}")
    return 0


def cmd_evaluate(config_path: str, prompts_path: str, split: str,
                 out_dir: str | None = None) -> int:
    app, templates, problems = _load_config_and_seeds(config_path, prompts_path, out_dir)
    if problems:
        return _fail(problems, "evaluate")
    if split == "validation":
        eval_set = _validation_split(app)
    elif app.test_path is None:
        return _fail(["dataset.test is not configured"], "evaluate")
    else:
        eval_set = load_dataset(app.test_path, labels=app.labels)
    app.out_dir.mkdir(parents=True, exist_ok=True)
    eval_cfg = app.eval_config(split)
    budget = app.budget()
    rows = []
    for template in templates:  # the first evaluation reads the cache file
        scored = evaluator_mod.evaluate(template, eval_set, eval_cfg, budget)
        rows.append((template.id, scored.accuracy))
    width = max(len(r[0]) for r in rows)
    print(f"{'prompt':<{width}}  accuracy")
    for tid, accuracy in rows:
        print(f"{tid:<{width}}  {_pct(accuracy)}")
    if len(rows) >= 2:
        first = rows[0][1]
        best = max(r[1] for r in rows)
        print(f"\ndelta (best vs first): {(best - first) * 100:+.2f} pp")
    return 0


def cmd_explore(config_path: str, seeds_path: str, count: int | None = None,
                out_path: str | None = None, out_dir: str | None = None) -> int:
    app, seeds, problems = _load_config_and_seeds(config_path, seeds_path, out_dir)
    if problems:
        return _fail(problems, "explore")
    policy = app.optimizer.policy
    if count is not None:  # the policy rejects a count below 1
        policy = replace(policy, candidate_count=count)
    budget = app.budget()
    vectors = encoder_mod.encode(app.optimizer.encoder, seeds, budget)
    candidates = generate_candidates([(s.id, v) for s, v in zip(seeds, vectors)], policy)
    out = Path(out_path) if out_path else app.out_dir / "candidates.jsonl"

    def line(candidate) -> str:
        payload = candidate_to_dict(candidate)
        payload["embedding"] = candidate.embedding.tolist()  # floats, unlike the record
        for undecoded in ("decoded_text", "refined_template", "invalid_reason"):
            del payload[undecoded]
        return json.dumps(payload, ensure_ascii=False)

    write_atomic(out, map(line, candidates))
    print(f"wrote {len(candidates)} candidate records to {out}")
    return 0


def cmd_fit_projector(pairs_path: str, reg: float, out_path: str,
                      with_bias: bool = False) -> int:
    corpus = load_paired_corpus(pairs_path)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            projector = fit_ridge(corpus, regularization=reg, with_bias=with_bias)
            rms = residual(projector, corpus)
    except FloatingPointError as exc:  # values too large to square in float64
        raise ValidationError(f"pairs in {pairs_path} overflow float64 ({exc})") from exc
    save_weights(projector, out_path)
    print(f"fitted {projector.output_dim}x{projector.input_dim} projector "
          f"on {corpus.inputs.shape[0]} pairs")
    print(f"rms residual: {rms:.6e}")
    print(f"weights written to {out_path}")
    return 0


def format_report(header: dict, iterations: list[dict]) -> str:
    """Render per-iteration accuracy, the baseline comparison, and budget use."""
    lines = ["optimization run report", "======================="]
    ds = header.get("dataset", {})
    lines.append(
        f"eval set: {ds.get('examples', '?')} examples, labels={ds.get('labels')}, "
        f"fingerprint={ds.get('fingerprint', '?')}"
    )
    lines.append(f"iterations: {len(iterations)}")
    lines.append("")
    lines.append(f"{'iter':>4}  {'best':>8}  {'mean':>8}  {'cands':>5}  {'invalid':>7}  selected")
    all_scored: list[tuple[float, str]] = []
    seed_scored: list[tuple[float, str]] = []
    for it in iterations:
        scored = it.get("scored", [])
        best = max((s["accuracy"] for s in scored), default=None)
        mean = sum(s["accuracy"] for s in scored) / len(scored) if scored else None
        candidates = it.get("candidates", [])
        invalid = sum(1 for c in candidates if c.get("invalid_reason"))
        selected = ",".join(it.get("selected", []))
        lines.append(
            f"{it.get('index', '?'):>4}  {_pct(best):>8}  {_pct(mean):>8}  "
            f"{len(candidates):>5}  {invalid:>7}  {selected}"
        )
        for s in scored:
            entry = (s["accuracy"], s["template"]["id"])
            all_scored.append(entry)
            if s["template"].get("origin") == "seed":
                seed_scored.append(entry)
    lines.append("")
    if all_scored:
        best_all = max(all_scored, key=lambda t: t[0])
        if seed_scored:
            best_seed = max(seed_scored, key=lambda t: t[0])
            lines.append(f"baseline (best seed): {_pct(best_seed[0]):>8}  [{best_seed[1]}]")
            lines.append(f"best prompt:          {_pct(best_all[0]):>8}  [{best_all[1]}]")
            lines.append(f"improvement:          {(best_all[0] - best_seed[0]) * 100:+.2f} pp")
        else:
            lines.append(f"best prompt: {_pct(best_all[0])}  [{best_all[1]}] (seeds not scored)")
    budget = header.get("budget", {})
    lines.append(f"budget used: {budget.get('calls', '?')} calls, "
                 f"{budget.get('tokens', '?')} tokens")
    warnings = header.get("warnings") or []
    for warning in warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


def cmd_report(run_path: str) -> int:
    header, iterations = read_run_record(run_path)
    if not iterations:
        raise ValidationError("run record has no iterations")
    try:  # every value the report reads comes from the file
        report = format_report(header, iterations)
    except (AttributeError, LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"{run_path} is not a readable run record: "
                              f"{type(exc).__name__}: {exc}") from exc
    print(report)
    return 0


def cmd_config_init(out_path: str, force: bool = False) -> int:
    out = Path(out_path)
    if out.exists() and not force:
        return _fail([f"{out} already exists (use --force to overwrite)"], "config init")
    out.write_text(DEFAULT_CONFIG_TEXT, encoding="utf-8")
    print(f"wrote default config to {out}")
    return 0


def cmd_config_toy(dest: str) -> int:
    config_path = fixtures.copy_toy_workspace(dest)
    print(f"toy workspace ready: {config_path}")
    print(f"try: lpo optimize --config {config_path} --seeds {Path(dest) / 'seeds.jsonl'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpo",
        description="Black-box prompt optimization in a latent embedding space.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="run the optimization loop")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--dry-run", action="store_true",
                   help="print planned call counts, make zero backend calls")

    p = sub.add_parser("evaluate", help="score prompt templates on a split")
    p.add_argument("--config", required=True)
    p.add_argument("--prompts", required=True)
    p.add_argument("--split", choices=["validation", "test"], default="validation")
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("explore", help="emit candidate embeddings without decoding")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("fit-projector", help="fit a linear projector by ridge regression")
    p.add_argument("--pairs", required=True)
    p.add_argument("--reg", type=float, default=0.0)
    p.add_argument("--bias", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="format a run record (offline)")
    p.add_argument("run_record")

    p = sub.add_parser("config", help="config helpers")
    csub = p.add_subparsers(dest="config_command", required=True)
    c = csub.add_parser("init", help="write a commented default config")
    c.add_argument("--out", default="lpo.yaml")
    c.add_argument("--force", action="store_true")
    c = csub.add_parser("toy", help="copy the bundled toy workspace")
    c.add_argument("--dest", default="toy-workspace")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "optimize":
            return cmd_optimize(args.config, args.seeds, args.out_dir, args.dry_run)
        if args.command == "evaluate":
            return cmd_evaluate(args.config, args.prompts, args.split, args.out_dir)
        if args.command == "explore":
            return cmd_explore(args.config, args.seeds, args.count, args.out,
                               args.out_dir)
        if args.command == "fit-projector":
            return cmd_fit_projector(args.pairs, args.reg, args.out, args.bias)
        if args.command == "report":
            return cmd_report(args.run_record)
        if args.config_command == "init":  # the one command left is config
            return cmd_config_init(args.out, args.force)
        return cmd_config_toy(args.dest)
    except BudgetExhaustedError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except BackendError as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return 4
    except (LPOError, OSError) as exc:  # an OSError names the input or output path at fault
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
