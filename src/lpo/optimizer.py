"""Orchestrates optimization cycles: encode, explore, decode, score, select.

One cycle encodes the seed templates, draws candidate latent points, decodes
and format-refines each, scores every valid candidate (and the seeds, when
they compete), and keeps the top performers. Iterating feeds the selected
templates back in as the next round's seeds, coarse to fine; with seeds
competing, the incumbent best is never lost, so the per-iteration best score
is nondecreasing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import decoder as decoder_mod
from . import encoder as encoder_mod
from . import evaluator as evaluator_mod
from . import explorer
from .core import Dataset, PromptTemplate
from .decoder import DecodeStrategy
from .encoder import EncoderSpec
from .errors import BudgetExhaustedError, CandidateInvalidError, ValidationError
from .evaluator import EvalConfig, ScoredPrompt
from .explorer import CandidateRecord, ExplorationPolicy
from .gateway import Budget, usage_report
from .records import config_snapshot

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class OptimizerConfig:
    """Search policy plus the encoding/decoding machinery wired to it.

    ``select_n`` templates survive each cycle. ``patience`` is the number of
    consecutive non-improving iterations tolerated before stopping early.
    With ``keep_seeds`` the seeds compete with candidates in selection, which
    both tracks the incumbent and guarantees a monotone best score.
    """

    policy: ExplorationPolicy
    encoder: EncoderSpec
    decode: DecodeStrategy
    select_n: int = 3
    max_iterations: int = 1
    patience: int = 1
    keep_seeds: bool = True

    def __post_init__(self) -> None:
        if self.select_n < 1:
            raise ValidationError("select_n must be >= 1")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.patience < 0:
            raise ValidationError("patience must be >= 0")
        if self.decode.kind == "anchor_blend" and self.policy.strategy_mix.get("perturb", 0) > 0:
            raise ValidationError("strategy_mix gives perturb a weight, but anchor_blend decoding "
                                  "sends no latent point: use soft_prompt or toy_inverse")


@dataclass
class _RunState:
    """Scores shared by all cycles of one run, and the number of cycles started."""

    score_cache: dict[str, ScoredPrompt] = field(default_factory=dict)
    iteration: int = 0


@dataclass
class IterationRecord:
    """One cycle's seeds, candidates, scores, selection and warnings, as
    :func:`run_cycle` returns it; ``selected_ids`` are in selection order."""

    index: int
    seeds: list[PromptTemplate]
    candidates: list[CandidateRecord]
    scored: list[ScoredPrompt]
    selected_ids: list[str]
    warnings: list[str]
    partial: bool
    started_at: str
    finished_at: str

    @property
    def selected(self) -> list[PromptTemplate]:
        """The selected templates, in selection order."""
        by_id = {s.template.id: s.template for s in self.scored}
        return [by_id[tid] for tid in self.selected_ids]

    @property
    def best_accuracy(self) -> float | None:
        return max((s.accuracy for s in self.scored), default=None)

    @property
    def mean_accuracy(self) -> float | None:
        if not self.scored:
            return None
        return sum(s.accuracy for s in self.scored) / len(self.scored)


@dataclass
class RunRecord:
    """Self-contained audit trail of one optimization run."""

    config: dict
    dataset: dict
    iterations: list[IterationRecord]
    budget_calls: int
    budget_tokens: int
    warnings: list[str]
    started_at: str
    finished_at: str


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def select_top(scored: Sequence[ScoredPrompt], n: int) -> list[ScoredPrompt]:
    """Top n by accuracy; ties prefer shorter templates, then earlier entries.

    Shorter prompts are cheaper at inference time, which is why they win
    ties. The order is total and stable, so sorting twice is a no-op.
    """
    if not scored:
        raise ValidationError("select_top needs at least one scored prompt")
    if n < 1:
        raise ValidationError("n must be >= 1")
    order = sorted(
        range(len(scored)),
        key=lambda i: (-scored[i].accuracy, len(scored[i].template.text), i),
    )
    return [scored[i] for i in order[: min(n, len(scored))]]


def run_cycle(
    seeds: Sequence[PromptTemplate],
    cfg: OptimizerConfig,
    eval_cfg: EvalConfig,
    eval_set: Dataset,
    budget: Budget,
    state: _RunState | None = None,
) -> IterationRecord:
    """Run one encode-explore-decode-score-select cycle and return its record.

    The record's index is the cycle's number in ``state``, and its stamps
    are the cycle's own start and finish. Budget exhaustion partway yields
    a partial record flagged as such rather than an exception; a cycle in
    which every candidate decoded invalid falls back to selecting among the
    seeds, with a warning. Without ``state`` the cycle is number 1. Replies
    are kept as :func:`lpo.evaluator.evaluate` keeps them: the budget stays
    bound to ``eval_cfg.cache_path`` after the cycle.
    """
    if not seeds:
        raise ValidationError("run_cycle needs at least one seed template")
    ids = [s.id for s in seeds]
    if len(set(ids)) != len(ids):
        raise ValidationError("seed template ids must be unique")
    if cfg.keep_seeds and cfg.select_n > cfg.policy.candidate_count + len(seeds):
        raise ValidationError(
            f"select_n {cfg.select_n} exceeds candidates + seeds "
            f"({cfg.policy.candidate_count} + {len(seeds)})"
        )
    if state is None:
        state = _RunState()
    started = _now()
    state.iteration += 1
    warnings: list[str] = []
    partial = False

    seed_vectors = encoder_mod.encode(cfg.encoder, seeds, budget)
    # a fresh stream per iteration, still fully determined by the policy seed
    policy = replace(cfg.policy, rng_seed=cfg.policy.rng_seed + state.iteration - 1)
    candidates = explorer.generate_candidates(list(zip(ids, seed_vectors)), policy)
    for candidate in candidates:
        candidate.id = f"it{state.iteration}-{candidate.id}"

    for position, candidate in enumerate(candidates):
        try:
            candidate.decoded_text = decoder_mod.decode(cfg.decode, candidate, seeds, budget)
            candidate.refined_template = decoder_mod.refine_format(
                cfg.decode, candidate.decoded_text, seeds, budget,
                template_id=candidate.id)
        except CandidateInvalidError as exc:
            candidate.invalid_reason = str(exc)
        except BudgetExhaustedError as exc:
            warnings.append(f"budget exhausted during decoding: {exc}")
            partial = True
            for skipped in candidates[position:]:
                skipped.invalid_reason = f"not decoded: {exc}"
            break

    by_id: dict[str, ScoredPrompt] = {}  # a score-cache hit may carry another id

    def score_all(templates: Sequence[PromptTemplate]) -> None:
        """Score in order, from the score cache where it can, until the budget runs out."""
        nonlocal partial
        for template in templates:
            result = state.score_cache.get(template.text)
            if result is None:
                try:
                    result = evaluator_mod.evaluate(template, eval_set, eval_cfg, budget)
                except BudgetExhaustedError as exc:
                    warnings.append(f"budget exhausted during evaluation: {exc}")
                    partial = True
                    return
                state.score_cache[template.text] = result
            by_id.setdefault(result.template.id, result)

    if cfg.keep_seeds:
        score_all(seeds)
    valid = [c.refined_template for c in candidates if c.refined_template is not None]
    if not valid and not partial:
        warnings.append("all candidates invalid; selecting among seeds")
        logger.warning("all %d candidates decoded invalid", len(candidates))
        if not cfg.keep_seeds:
            score_all(seeds)
    if not partial:
        score_all(valid)

    scored = list(by_id.values())
    if not scored:
        warnings.append("nothing scored; returning empty selection")
    top = select_top(scored, cfg.select_n) if scored else []
    return IterationRecord(
        index=state.iteration,
        seeds=list(seeds),
        candidates=candidates,
        scored=scored,
        selected_ids=[sp.template.id for sp in top],
        warnings=warnings,
        partial=partial,
        started_at=started,
        finished_at=_now(),
    )


def iterate(
    seeds: Sequence[PromptTemplate],
    cfg: OptimizerConfig,
    eval_cfg: EvalConfig,
    eval_set: Dataset,
    budget: Budget,
    dataset_info: dict | None = None,
) -> RunRecord:
    """Repeat run_cycle, feeding selections back in as seeds, and record all.

    Stops early once ``patience`` consecutive iterations bring no improvement
    of the best score, or when the budget runs dry (partial results are kept
    and flagged).
    """
    started = _now()
    run_warnings: list[str] = []
    iterations: list[IterationRecord] = []
    current = list(seeds)
    best: float | None = None
    no_improve = 0

    state = _RunState()
    for index in range(1, cfg.max_iterations + 1):
        try:
            result = run_cycle(current, cfg, eval_cfg, eval_set, budget, state=state)
        except BudgetExhaustedError as exc:
            if not iterations:
                raise
            run_warnings.append(f"stopped before iteration {index}: {exc}")
            break
        iterations.append(result)
        run_warnings.extend(result.warnings)
        if result.partial:
            run_warnings.append(f"stopped after iteration {index}: budget exhausted")
            break
        if best is None:
            # the incumbent to beat is the best of the original seeds
            seed_ids = {t.id for t in current}
            best = max((s.accuracy for s in result.scored if s.template.id in seed_ids),
                       default=-np.inf)
        iter_best = max((s.accuracy for s in result.scored), default=-np.inf)
        if iter_best > best:
            best = iter_best
            no_improve = 0
        else:
            no_improve += 1
        if no_improve > cfg.patience:
            run_warnings.append(f"stopped after iteration {index}: "
                                f"no improvement for {no_improve} iteration(s)")
            break
        current = result.selected

    calls, tokens = usage_report(budget)
    info = dict(dataset_info or {})
    info.setdefault("fingerprint", eval_set.fingerprint())
    info.setdefault("examples", len(eval_set))
    info.setdefault("labels", list(eval_set.label_set))
    return RunRecord(
        config=config_snapshot(cfg, eval_cfg),
        dataset=info,
        iterations=iterations,
        budget_calls=calls,
        budget_tokens=tokens,
        warnings=run_warnings,
        started_at=started,
        finished_at=_now(),
    )
