"""Scores prompt templates by task accuracy over an evaluation slice.

Each example costs one chat call to the task backend (temperature 0.0 so
evaluation is as deterministic as the backend allows) plus, when the reply
is not trivially parseable, one chat call to the extraction backend. Raw
outputs that still resolve to no label count as incorrect: a prompt that
elicits unparseable output is a worse prompt, and excluding such cases
would inflate scores.

Replies are cached in the budget and in the append-only JSONL file
``cache_path``, keyed by content hashes and the answering backend's
fingerprint, so a warm rerun issues zero gateway calls and returns identical
scores, and no backend is served another's reply. The first evaluation with
a cache path binds the budget to that file, which is read then and only
then; the budget stays bound to it until an evaluation names another.
:func:`evaluate` hashes its template and encodes its label set once, and
each example's text is hashed once per process (``Example.digest``); the
keys are the same strings as ever, so cache files written by earlier
versions still hit.

A new reply is served from memory as soon as it is put. Its line is appended
when its template's calls end, with one open, write and close of the file per
template (also for a template cut short by the budget), so a crash loses at
most the current template's replies and no file is held open between
templates. Nothing is fsynced.

A backend that the gateway has seen block (see :func:`gateway.blocks`) gets a
template's calls from up to ``max_in_flight`` threads at once, so their
waiting overlaps; results are collected in input order and equal a serial
run's. Backends that compute rather than wait, like the in-process mocks,
are called one at a time from the calling thread, because threads would
only take turns on the interpreter lock.
"""

from __future__ import annotations

import json
import logging
import math
import re
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

from . import gateway, prompts
from .core import Dataset, Example, PromptTemplate, render_prompt, text_digest
from .errors import BackendError, BudgetExhaustedError, ValidationError
from .gateway import BackendConfig, Budget, ChatRequest, ResponseCache  # noqa: F401  (the benchmark patches it here)

logger = logging.getLogger(__name__)

UNPARSED = "unparsed"


@dataclass(frozen=True)
class EvalConfig:
    """Task and extraction backends, the slice size (>= 1) and a finite temperature >= 0."""

    task_backend: BackendConfig
    extraction_backend: BackendConfig
    max_examples: int = 50
    temperature: float = 0.0
    cache_path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.max_examples < 1:
            raise ValidationError("max_examples must be >= 1")
        if self.temperature < 0:
            raise ValidationError("temperature must be >= 0")
        if not math.isfinite(self.temperature):
            raise ValidationError(f"temperature must be finite, got {self.temperature}")


@dataclass(frozen=True, slots=True)
class PerExample:
    """Outcome of one example: raw reply, extracted label, correctness."""

    index: int
    raw_output: str
    extracted_label: str
    correct: bool


@dataclass(frozen=True)
class ScoredPrompt:
    """A template with its measured accuracy and per-example audit trail."""

    template: PromptTemplate
    accuracy: float
    n_correct: int
    n_total: int
    per_example: tuple[PerExample, ...]
    eval_set_id: str

    def __post_init__(self) -> None:
        if self.n_total != len(self.per_example):
            raise ValidationError("per_example must cover the whole evaluation slice")
        if self.n_correct != sum(1 for p in self.per_example if p.correct):
            raise ValidationError("n_correct does not match per-example outcomes")
        if self.accuracy != self.n_correct / self.n_total:
            raise ValidationError("accuracy must equal n_correct / n_total exactly")


def _classify_keys(backend_id: str, cfg: EvalConfig,
                   template: PromptTemplate) -> Callable[[Example], str]:
    """Each example's classify key for one template: the digest of
    ``json.dumps(["classify", backend_id, text_digest(template.text),
    text_digest(ex.text), repr(cfg.temperature)])``, built around the
    template's digest, taken once."""
    head = f'["classify", {json.dumps(backend_id)}, "{text_digest(template.text)}", "'
    tail = f'", {json.dumps(repr(cfg.temperature))}]'
    return lambda ex: text_digest(head + ex.digest + tail)


def _extract_keys(backend_id: str, label_set: Sequence[str]) -> Callable[[str], str]:
    """Each reply's extract key for one label set: the digest of
    ``json.dumps(["extract", backend_id, text_digest(raw), list(label_set)])``,
    with the label list encoded once."""
    head = f'["extract", {json.dumps(backend_id)}, "'
    tail = f'", {json.dumps(list(label_set))}]'
    return lambda raw: text_digest(head + text_digest(raw) + tail)


def classify_one(template: PromptTemplate, ex: Example, cfg: EvalConfig,
                 budget: Budget, *, keys: Callable[[Example], str] | None = None) -> str:
    """Render the prompt for one example and return the task backend's reply.

    ``keys`` gives an example's cache key (:func:`_classify_keys` for this
    template and the task backend), for callers that score many examples.
    The reply is looked up in and kept in ``budget.replies``; :func:`evaluate`
    binds ``cfg.cache_path`` there, once per budget, since reading that file
    per call would cost more than the call.
    """
    keys = keys or _classify_keys(gateway.backend_fingerprint(cfg.task_backend), cfg, template)
    key, replies = keys(ex), budget.replies
    hit = replies.get(key)
    if hit is not None:
        return hit
    req = ChatRequest(user_text=render_prompt(template, ex.text),
                      temperature=cfg.temperature)
    raw = gateway.chat(cfg.task_backend, req, budget).text
    replies.put(key, raw)
    return raw


@lru_cache(maxsize=64)
def _whole_word_patterns(label_set: tuple[str, ...]) -> tuple[tuple[str, re.Pattern], ...]:
    """One compiled whole-word pattern per label, built once per label set."""
    return tuple((lab, re.compile(rf"(?<!\w){re.escape(lab)}(?!\w)")) for lab in label_set)


def _whole_word_match(lowered: str, label_set: Sequence[str]) -> str | None:
    found = [lab for lab, pattern in _whole_word_patterns(tuple(label_set))
             if pattern.search(lowered)]
    if len(found) == 1:
        return found[0]
    return None


_FIELD = re.compile(r'"(?:sentiment|label)"\s*:\s*"([^"]*)"')


def _field_match(lowered: str, label_set: Sequence[str]) -> str | None:
    for match in _FIELD.finditer(lowered):
        value = match.group(1).strip()
        if value in label_set:
            return value
    return None


def extract_label(raw: str, label_set: Sequence[str], cfg: EvalConfig,
                  budget: Budget, *, keys: Callable[[str], str] | None = None) -> str:
    """Resolve a raw task reply to a label, or ``"unparsed"``.

    Stage 1 is deterministic and free: a unique whole-word label occurrence,
    or a JSON-like ``sentiment``/``label`` field holding a label. Stage 2
    asks the extraction backend which label the reply asserts; most outputs
    never get that far, which saves budget without changing semantics on
    clear cases. Backend failures in stage 2 degrade to ``"unparsed"``.
    ``keys`` gives a reply's cache key (:func:`_extract_keys` for the
    extraction backend and ``label_set``); replies are cached as in
    :func:`classify_one`.
    """
    if not label_set:
        raise ValidationError("extract_label needs a non-empty label set")
    lowered = raw.lower()
    hit = _whole_word_match(lowered, label_set) or _field_match(lowered, label_set)
    if hit is not None:
        return hit

    keys = keys or _extract_keys(gateway.backend_fingerprint(cfg.extraction_backend), label_set)
    key, replies = keys(raw), budget.replies
    reply = replies.get(key)
    if reply is None:
        req = ChatRequest(user_text=prompts.extract_instruction(raw, list(label_set)),
                          temperature=0.0)
        try:
            reply = gateway.chat(cfg.extraction_backend, req, budget).text
        except BackendError as exc:
            logger.warning("label extraction failed, counting as unparsed: %s", exc)
            return UNPARSED
        replies.put(key, reply)
    normalized = reply.strip().lower()
    if normalized in label_set:
        return normalized
    return _whole_word_match(normalized, label_set) or UNPARSED


def _width(backend: BackendConfig) -> int:
    return backend.max_in_flight if gateway.blocks(backend) else 1


def _by_value(values: Sequence) -> list[list[int]]:
    """Indices grouped by equal value, groups in order of first occurrence."""
    groups: dict = {}
    for index, value in enumerate(values):
        groups.setdefault(value, []).append(index)
    return list(groups.values())


def _fan_out(groups: list[list[int]], work: Callable[[int], None], width: int) -> None:
    """Run ``work`` on every index; each group in order on one thread.

    With ``width`` 1 this is a plain loop in the calling thread. Otherwise a
    ``ThreadPoolExecutor`` of up to ``width`` threads takes the groups in
    order; after a failure no group starts, one already started runs to its
    end, and once every thread has stopped the lowest index's failure is raised.
    """
    if width == 1 or len(groups) == 1:
        for group in groups:
            for index in group:
                work(index)
        return
    from concurrent.futures import ThreadPoolExecutor

    failed = threading.Event()

    def run(group: list[int]) -> tuple[int, BaseException] | None:
        if failed.is_set():
            return None
        for index in group:
            try:
                work(index)
            except BaseException as exc:  # re-raised in the calling thread
                failed.set()
                return index, exc
        return None

    with ThreadPoolExecutor(min(width, len(groups)), thread_name_prefix="lpo-evaluate") as pool:
        failures = [f for f in pool.map(run, groups) if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def evaluate(template: PromptTemplate, eval_set: Dataset, cfg: EvalConfig,
             budget: Budget) -> ScoredPrompt:
    """Score one template over the first ``max_examples`` of the eval set.

    Accuracy is the exact integer ratio correct/total. Budget exhaustion
    mid-set raises an error naming how many examples completed. Replies are
    kept in ``budget.replies``, which a ``cfg.cache_path`` binds to that file
    (:meth:`Budget.bind_replies`): the first evaluation reads it, and the
    budget stays bound to it, so later evaluations on that budget read
    nothing. The lines of this template's new replies are appended there
    once its calls end.

    When the task or extraction backend blocks (:func:`gateway.blocks`), its
    calls for this template run on up to its ``max_in_flight`` threads: first
    every classify call, then every extraction. Examples that share a text,
    or a reply, are handled in order on one thread, so each distinct request
    is still made once and served from the cache after. A template whose
    worst case, one classify and one extract call per distinct text, could
    exhaust the calls left in the budget runs serially, so where exhaustion
    strikes, and the error naming it, do not depend on thread timing.
    """
    if len(eval_set) == 0:
        raise ValidationError("evaluation set is empty")
    slice_examples = eval_set.examples[: min(len(eval_set), cfg.max_examples)]
    n = len(slice_examples)
    eval_set_id = Dataset(examples=slice_examples,
                          label_set=eval_set.label_set).fingerprint()
    classify_keys = _classify_keys(gateway.backend_fingerprint(cfg.task_backend), cfg, template)
    extract_keys = _extract_keys(gateway.backend_fingerprint(cfg.extraction_backend),
                                 eval_set.label_set)
    raws: list[str] = [""] * n
    labels: list[str | None] = [None] * n

    def classify(index: int) -> None:
        raws[index] = classify_one(template, slice_examples[index], cfg, budget,
                                   keys=classify_keys)

    def extract(index: int) -> None:
        labels[index] = extract_label(raws[index], eval_set.label_set, cfg, budget,
                                      keys=extract_keys)

    widths = _width(cfg.task_backend), _width(cfg.extraction_backend)
    texts = _by_value([ex.text for ex in slice_examples]) if max(widths) > 1 else []
    if cfg.cache_path is not None:
        budget.bind_replies(cfg.cache_path)
    try:
        if texts and budget.calls_left() >= 2 * len(texts):
            _fan_out(texts, classify, widths[0])
            _fan_out(_by_value(raws), extract, widths[1])
        else:
            for index in range(n):
                classify(index)
                extract(index)
    except BudgetExhaustedError as exc:
        completed = labels.index(None)
        raise BudgetExhaustedError(
            f"budget exhausted after {completed} of {n} "
            f"examples for template {template.id}: {exc}"
        ) from exc
    finally:  # also a template cut short by the budget keeps its replies
        budget.replies.flush()
    outcomes = tuple(
        PerExample(index=index, raw_output=raw, extracted_label=label,
                   correct=(label == ex.label))
        for index, (ex, raw, label) in enumerate(zip(slice_examples, raws, labels)))
    n_correct = sum(1 for o in outcomes if o.correct)
    return ScoredPrompt(
        template=template,
        accuracy=n_correct / n,
        n_correct=n_correct,
        n_total=n,
        per_example=outcomes,
        eval_set_id=eval_set_id,
    )
