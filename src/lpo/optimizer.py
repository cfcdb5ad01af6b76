"""Orchestrates optimization cycles: encode, explore, decode, score, select.

One cycle encodes the seed templates, draws candidate latent points, decodes
and format-refines each, scores every valid candidate (and the seeds, when
they compete), and keeps the top performers. Iterating feeds the selected
templates back in as the next round's seeds, coarse to fine; with seeds
competing, the incumbent best is never lost, so the per-iteration best score
is nondecreasing.

A cycle keeps every backend that waits rather than computes
(:func:`lpo.gateway.blocks`) busy at once, each on its lane: a pool of its
``max_in_flight`` threads, opened on first use and closed before the cycle
returns (:class:`lpo.evaluator._Lanes`). Each stage fans out to its lanes by
one rule (:func:`lpo.evaluator._fan_width`): once its backend blocks and the
calls left cover the stage's worst case (:func:`cycle_plan`) for its steps
left, a candidate's decode -> refine chain or a (template, text) pair.
Scoring overlaps decoding only while the calls left cover the whole cycle's
plan: then the seeds' classify calls are queued before decoding starts, and
each candidate's as soon as its chain ends, and extractions stream from the
classify replies. Scoring hands the cycle's pool -- the seeds when they
compete, then the valid candidates -- each text once, to one
:func:`lpo.evaluator.evaluate_batch`, which sends ahead the calls not sent
yet and scores each template serially from the cache once its own calls
have ended. Backends that compute, like the in-process mocks, start no
thread. A stage cut short by the budget keeps, in order, the candidates and
templates whose calls all finished, so a partial record reads like a serial
run's; under a token ceiling a decode cut can come sooner than a serial
run's, since classify calls spend tokens while candidates decode.

Scoring races for the ``select_n`` places: a template stops, at one of the
evaluator's fixed checkpoints (every ``RACE_EVERY`` examples), once it can
no longer reach the ``select_n``-th best complete score of the cycle so far,
and goes to the record's ``raced`` list instead of ``scored``. It saves the
calls it skips where scoring is serial; the calls made ahead for a blocking
backend cover every template in full. The floor only rises, so a raced
template scores strictly below the final ``select_n``-th in full, and the
selection, the best score and the patience count are those of a cycle that
scores every template in full. Seeds are scored first, so a raced seed
scores below a complete one, and the best seed is never raced.

No score outlives its cycle. A template that an earlier cycle scored or
raced, a selected seed above all, is scored again from the reply cache with
no backend call; only an extraction that failed there is asked again.
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
from . import explorer, gateway
from .core import Dataset, PromptTemplate
from .decoder import DecodeStrategy
from .encoder import EncoderSpec
from .errors import BudgetExhaustedError, CandidateInvalidError, ValidationError
from .evaluator import EvalConfig, RacedPrompt, ScoredPrompt
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
class IterationRecord:
    """One cycle's seeds, candidates, scores, selection and warnings, as
    :func:`run_cycle` returns it; ``selected_ids`` are in selection order.

    ``scored`` holds the templates scored on the whole slice and ``raced``
    those whose scoring stopped once they could no longer be selected; the
    best and mean accuracy are taken over ``scored``.
    """

    index: int
    seeds: list[PromptTemplate]
    candidates: list[CandidateRecord]
    scored: list[ScoredPrompt]
    selected_ids: list[str]
    warnings: list[str]
    partial: bool
    started_at: str
    finished_at: str
    raced: list[RacedPrompt] = field(default_factory=list)

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


def cycle_plan(candidates: int, seeds: int, keep_seeds: bool, texts: int) -> dict[str, int]:
    """The most backend calls each stage of one cycle can make: one embed,
    then :func:`lpo.evaluator.call_plan` over the candidates and the pool it
    scores on ``texts`` distinct example texts. The pool is the candidates
    and the seeds under ``keep_seeds``, else the larger of the two, as the
    seeds replace a pool of candidates that all decoded invalid."""
    pool = candidates + seeds if keep_seeds else max(candidates, seeds)
    return {"embed": 1, **evaluator_mod.call_plan(candidates, pool * texts)}


def run_cycle(
    seeds: Sequence[PromptTemplate],
    cfg: OptimizerConfig,
    eval_cfg: EvalConfig,
    eval_set: Dataset,
    budget: Budget,
    iteration: int = 1,
) -> IterationRecord:
    """Run one encode-explore-decode-score-select cycle and return its record.

    ``iteration`` is the cycle's number in its run: the record's index, the
    prefix of its candidate ids and the offset of its exploration seed. The
    record's stamps are the cycle's own start and finish.

    The cycle scores one pool in one :func:`lpo.evaluator.evaluate_batch`
    racing for ``select_n`` places: the seeds when ``keep_seeds`` is set,
    then the valid candidates; or, when every candidate decoded invalid, the
    seeds alone, with a warning. Each text is scored once, under its first
    template, and ``scored`` and ``raced`` hold the batch's results in pool
    order. Budget exhaustion partway yields a partial record flagged as such
    rather than an exception; after a cut in decoding no candidate is
    scored. The cycle binds the budget's replies to ``eval_cfg.cache_path``
    before its first call, and it stays bound after the cycle: the seeds'
    embeddings and the refinements (temperature 0) are asked once per cache
    file, as classify and extract replies are, and their new lines are
    appended as one group once decoding ends, also when it is cut short.
    Sampled decodes are drawn afresh. The chat backend is fingerprinted once
    per cycle for the refinements' keys.

    The cycle's calls run on its lanes (:class:`lpo.evaluator._Lanes`),
    closed before it returns or raises, so every call of the cycle is made
    inside it. A decode that fails, a budget cut too, stops the calls queued
    ahead: they end without being made. Any failure but a cut is raised once
    the calls in flight have ended.
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
    started = _now()
    warnings: list[str] = []
    partial = False

    if eval_cfg.cache_path is not None:  # so that embeddings and refinements find it
        budget.bind_replies(eval_cfg.cache_path)
    seed_vectors = encoder_mod.encode(cfg.encoder, seeds, budget)
    chat = cfg.decode.chat
    chat_id = gateway.backend_fingerprint(chat) if chat is not None else None
    # a fresh stream per iteration, still fully determined by the policy seed
    policy = replace(cfg.policy, rng_seed=cfg.policy.rng_seed + iteration - 1)
    candidates = explorer.generate_candidates(list(zip(ids, seed_vectors)), policy)
    for candidate in candidates:
        candidate.id = f"it{iteration}-{candidate.id}"
    view = evaluator_mod._slice(eval_set, eval_cfg, budget)
    plan = cycle_plan(len(candidates), len(seeds), cfg.keep_seeds,
                      len({ex.text for ex in view.examples}))
    # scoring overlaps decoding only where no ceiling on calls can cut the cycle
    ahead = evaluator_mod._fan_width(eval_cfg.task_backend, budget, sum(plan.values())) > 1

    def decode_one(position: int) -> None:
        candidate = candidates[position]
        try:
            candidate.decoded_text = decoder_mod.decode(cfg.decode, candidate, seeds, budget)
            candidate.refined_template = decoder_mod.refine_format(
                cfg.decode, candidate.decoded_text, seeds, budget,
                template_id=candidate.id, backend_id=chat_id)
        except CandidateInvalidError as exc:
            candidate.invalid_reason = str(exc)
        except BaseException:
            view.lanes.stop()  # the calls queued ahead end without being made
            raise
        else:
            if ahead:
                evaluator_mod._prefetch([candidate.refined_template], view, budget)

    try:
        if ahead:  # also fingerprints the backends here, not on the decoding threads
            evaluator_mod._prefetch(list(seeds) if cfg.keep_seeds else [], view, budget)
        try:
            evaluator_mod._fan_out(len(candidates), decode_one, chat, budget,
                                   sum(evaluator_mod.call_plan(candidates=1).values()),
                                   view.lanes)
        except BudgetExhaustedError as exc:
            warnings.append(f"budget exhausted during decoding: {exc}")
            partial = True
            # keep the candidates finished in order; a fan-out may have finished some past the cut
            cut = next(i for i, c in enumerate(candidates)
                       if c.refined_template is None and c.invalid_reason is None)
            for later in candidates[cut + 1:]:
                later.decoded_text = later.refined_template = None
            for skipped in candidates[cut:]:
                skipped.invalid_reason = f"not decoded: {exc}"
        finally:  # the cycle's new embeddings and refinements, as one group
            budget.replies.flush()

        valid = [c.refined_template for c in candidates if c.refined_template is not None]
        pool = list(seeds) if cfg.keep_seeds else []
        if not partial:
            if valid:
                pool += valid
            else:
                warnings.append("all candidates invalid; selecting among seeds")
                logger.warning("all %d candidates decoded invalid", len(candidates))
                pool = list(seeds)
        first: dict[str, PromptTemplate] = {}  # each text is scored once, under its first template
        for template in pool:
            first.setdefault(template.text, template)
        results, exhausted = evaluator_mod.evaluate_batch(
            list(first.values()), view, eval_cfg, budget, cfg.select_n)
    finally:  # no call of the cycle outlives it
        view.lanes.close()
    if exhausted is not None:
        warnings.append(f"budget exhausted during evaluation: {exhausted}")
        partial = True

    scored = [r for r in results if isinstance(r, ScoredPrompt)]
    if not scored:
        warnings.append("nothing scored; returning empty selection")
    top = select_top(scored, cfg.select_n) if scored else []
    return IterationRecord(
        index=iteration,
        seeds=list(seeds),
        candidates=candidates,
        scored=scored,
        selected_ids=[sp.template.id for sp in top],
        warnings=warnings,
        partial=partial,
        started_at=started,
        finished_at=_now(),
        raced=[r for r in results if isinstance(r, RacedPrompt)],
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
    of the best score, when the budget runs dry (partial results are kept
    and flagged), or when a cycle selects fewer templates than the next
    cycle's strategy mix needs as seeds (:func:`lpo.explorer.seed_shortfall`).
    Too few seeds for the first cycle raise ``ValidationError`` before any
    backend call.
    """
    started = _now()
    run_warnings: list[str] = []
    iterations: list[IterationRecord] = []
    current = list(seeds)
    best: float | None = None
    no_improve = 0

    for index in range(1, cfg.max_iterations + 1):
        short = explorer.seed_shortfall(len(current), cfg.policy)
        if short is not None:
            if not iterations:
                raise ValidationError(short)
            run_warnings.append(f"stopped before iteration {index}: {short}")
            break
        try:
            result = run_cycle(current, cfg, eval_cfg, eval_set, budget, iteration=index)
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
