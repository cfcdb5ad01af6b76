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
templates. In a batch that fans out, a template's classify replies are
appended when its last classify call ends and the extraction replies after
the batch, so a crash loses at most the replies of the templates still
classifying, or the batch's extractions. Nothing is fsynced.

:func:`evaluate_batch` scores a cycle's templates. While neither the task
nor the extraction backend has been seen to block (see
:func:`gateway.blocks`), or the calls left do not cover the worst case, it
scores one template at a time with :func:`evaluate`. Otherwise it scores the
templates left as one batch on up to ``max_in_flight`` threads per backend:
every classify call of every template first, then every extraction, each
distinct request made once. :func:`evaluate` is the one-template case of the
same code. Results equal a serial run's; a batch cut short by the budget
keeps the templates completed in order, found by a replay from the reply
cache that makes no call. Backends that compute rather than wait, like the
in-process mocks, are called one at a time from the calling thread, because
threads would only take turns on the interpreter lock.
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
from typing import Callable, Hashable, Iterable, Sequence

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


def _local_label(raw: str, label_set: Sequence[str]) -> str | None:
    """Stage 1 of :func:`extract_label`: the label ``raw`` names on its own, or None."""
    lowered = raw.lower()
    return _whole_word_match(lowered, label_set) or _field_match(lowered, label_set)


def _reply_label(reply: str, label_set: Sequence[str]) -> str:
    """The label an extraction reply asserts, or ``"unparsed"``."""
    normalized = reply.strip().lower()
    if normalized in label_set:
        return normalized
    return _whole_word_match(normalized, label_set) or UNPARSED


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
    hit = _local_label(raw, label_set)
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
    return _reply_label(reply, label_set)


def _width(backend: BackendConfig) -> int:
    return backend.max_in_flight if gateway.blocks(backend) else 1


def _by_value(indexed: Iterable[tuple[int, Hashable]]) -> list[list[int]]:
    """Indices grouped by equal value, groups in order of first occurrence."""
    groups: dict = {}
    for index, value in indexed:
        groups.setdefault(value, []).append(index)
    return list(groups.values())


def _fan_out(groups: list[list[int]], work: Callable[[int], None],
             width: Callable[[int], int]) -> None:
    """Run ``work`` on every index; each group in order on one thread.

    Before each group, ``width(groups left)`` says how many threads the groups
    left may use. While it is 1 they run in the calling thread, and the first
    failure is raised at once. Once it is more, a ``ThreadPoolExecutor`` of
    up to that many threads takes the groups left in order; after a failure
    no group starts, one already started runs to its end, and once every
    thread has stopped the lowest index's failure is raised. This is the
    package's one thread pool; the optimizer's decode stage uses it too.
    """
    for start, group in enumerate(groups):
        threads = min(width(len(groups) - start), len(groups) - start)
        if threads > 1:
            break
        for index in group:
            work(index)
    else:  # every group ran in the calling thread
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

    with ThreadPoolExecutor(threads, thread_name_prefix="lpo-fan-out") as pool:
        failures = [f for f in pool.map(run, groups[start:]) if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def _slice(eval_set: Dataset, cfg: EvalConfig) -> tuple[Example, ...]:
    if len(eval_set) == 0:
        raise ValidationError("evaluation set is empty")
    return eval_set.examples[: min(len(eval_set), cfg.max_examples)]


def _fans_out(templates: int, examples: Sequence[Example], cfg: EvalConfig,
              budget: Budget) -> bool:
    """Whether ``templates`` templates are scored as one fan-out: only if the
    task or extraction backend blocks and the calls left cover the worst
    case, one classify and one extract call per distinct text per template."""
    return (max(_width(cfg.task_backend), _width(cfg.extraction_backend)) > 1
            and budget.calls_left() >= 2 * templates * len({ex.text for ex in examples}))


def _score(templates: Sequence[PromptTemplate], eval_set: Dataset, cfg: EvalConfig,
           budget: Budget) -> tuple[list[ScoredPrompt], BudgetExhaustedError | None]:
    """Score ``templates`` as one batch; see :func:`evaluate_batch` for the result.

    Item ``k`` is example ``k % n`` under template ``k // n``. Serially, each
    item is classified then extracted, in order. In a fan-out, every classify
    call runs first, grouped by (template, text), then every extraction,
    grouped by raw reply. Once the budget runs out, a zero-call replay from
    ``budget.replies`` finds the items done in order, so the prefix kept and
    the count in the error do not depend on thread timing.
    """
    examples = _slice(eval_set, cfg)
    n, label_set = len(examples), eval_set.label_set
    eval_set_id = Dataset(examples=examples, label_set=label_set).fingerprint()
    task_id = gateway.backend_fingerprint(cfg.task_backend)
    classify_keys = [_classify_keys(task_id, cfg, template) for template in templates]
    extract_keys = _extract_keys(gateway.backend_fingerprint(cfg.extraction_backend), label_set)
    items = range(n * len(templates))
    raws: list[str | None] = [None] * len(items)
    labels: list[str | None] = [None] * len(items)
    unclassified, lock = [n] * len(templates), threading.Lock()

    def classify(k: int) -> None:
        """Classify item ``k``; a template's last classify call appends the replies put so far."""
        t, i = divmod(k, n)
        raws[k] = classify_one(templates[t], examples[i], cfg, budget, keys=classify_keys[t])
        with lock:
            unclassified[t] -= 1
            last = not unclassified[t]
        if last:
            budget.replies.flush()

    def extract(k: int) -> None:
        labels[k] = extract_label(raws[k], label_set, cfg, budget, keys=extract_keys)

    def replay(k: int) -> bool:
        """Label item ``k`` from the replies kept, making no call; False if it needs one."""
        t, i = divmod(k, n)
        if raws[k] is None:
            raws[k] = budget.replies.get(classify_keys[t](examples[i]))
            if raws[k] is None:
                return False
        label = _local_label(raws[k], label_set)
        if label is None:
            reply = budget.replies.get(extract_keys(raws[k]))
            if reply is None:
                return False
            label = _reply_label(reply, label_set)
        labels[k] = label
        return True

    if cfg.cache_path is not None:
        budget.bind_replies(cfg.cache_path)
    exhausted = None
    try:
        if _fans_out(len(templates), examples, cfg, budget):
            _fan_out(_by_value((k, (templates[k // n].text, examples[k % n].text))
                               for k in items), classify, lambda left: _width(cfg.task_backend))
            _fan_out(_by_value((k, raws[k]) for k in items), extract,
                     lambda left: _width(cfg.extraction_backend))
        else:
            for t, (template, keys) in enumerate(zip(templates, classify_keys)):
                for k, ex in enumerate(examples, start=t * n):
                    raws[k] = raw = classify_one(template, ex, cfg, budget, keys=keys)
                    labels[k] = extract_label(raw, label_set, cfg, budget, keys=extract_keys)
                budget.replies.flush()  # each template's replies once its calls end
    except BudgetExhaustedError as exc:
        exhausted = exc
    finally:  # also a batch cut short, by the budget or a failure, keeps its replies
        budget.replies.flush()

    scored: list[ScoredPrompt] = []
    for t, template in enumerate(templates):
        row = slice(t * n, (t + 1) * n)
        if None in labels[row]:  # the budget ran out before this template's end
            done = next((i for i, k in enumerate(items[row])
                         if labels[k] is None and not replay(k)), n)
            if done < n:
                error = BudgetExhaustedError(f"budget exhausted after {done} of {n} examples "
                                             f"for template {template.id}: {exhausted}")
                error.__cause__ = exhausted
                return scored, error
        outcomes = tuple(
            PerExample(index=i, raw_output=raw, extracted_label=label, correct=(label == ex.label))
            for i, (ex, raw, label) in enumerate(zip(examples, raws[row], labels[row])))
        n_correct = sum(1 for o in outcomes if o.correct)
        scored.append(ScoredPrompt(template=template, accuracy=n_correct / n,
                                   n_correct=n_correct, n_total=n, per_example=outcomes,
                                   eval_set_id=eval_set_id))
    return scored, None


def evaluate(template: PromptTemplate, eval_set: Dataset, cfg: EvalConfig,
             budget: Budget) -> ScoredPrompt:
    """Score one template over the first ``max_examples`` of the eval set.

    Accuracy is the exact integer ratio correct/total. Budget exhaustion
    mid-set raises an error naming how many examples completed in order.
    Replies are kept in ``budget.replies``, which a ``cfg.cache_path`` binds
    to that file (:meth:`Budget.bind_replies`): the first evaluation reads
    it, and the budget stays bound to it, so later evaluations on that budget
    read nothing. The lines of this template's new replies are appended
    there once its calls end.

    This is the one-template case of :func:`evaluate_batch`'s fan-out: when
    the task or extraction backend blocks (:func:`gateway.blocks`) and the
    calls left cover the worst case, one classify and one extract call per
    distinct text, its calls run on up to its ``max_in_flight`` threads:
    first every classify call, then every extraction. Otherwise they run
    serially.
    """
    scored, exhausted = _score([template], eval_set, cfg, budget)
    if exhausted is not None:
        raise exhausted
    return scored[0]


def evaluate_batch(templates: Sequence[PromptTemplate], eval_set: Dataset, cfg: EvalConfig,
                   budget: Budget) -> tuple[list[ScoredPrompt], BudgetExhaustedError | None]:
    """Score ``templates`` in order, as :func:`evaluate` scores one.

    Returns the scores of the templates completed in order, a prefix of
    ``templates``, and the error that stopped the rest (None when every
    template was scored); any other failure is raised.

    Before each template the batch asks whether the task or extraction
    backend blocks and the calls left cover the worst case of every template
    from there on, two calls per distinct text per template. If so, those
    templates are scored as one fan-out: every classify call of every
    template at once, grouped by (template, text), then every extraction,
    grouped by raw reply across the batch, so each distinct request is made
    once. The reply-cache file is appended to each time one more template's
    classify calls have all ended, and once more after the extractions.
    Otherwise the template is scored by :func:`evaluate`, so a backend that
    computes starts no thread and a fresh process widens after its first
    template. A fan-out cut short by the budget keeps the templates that a
    zero-call serial replay from ``budget.replies`` completes in order, so
    the scores kept read like a serial run's.
    """
    examples = _slice(eval_set, cfg)
    scored: list[ScoredPrompt] = []
    for start, template in enumerate(templates):
        if _fans_out(len(templates) - start, examples, cfg, budget):
            tail, exhausted = _score(templates[start:], eval_set, cfg, budget)
            return scored + tail, exhausted
        try:
            scored.append(evaluate(template, eval_set, cfg, budget))
        except BudgetExhaustedError as exc:
            return scored, exc
    return scored, None
