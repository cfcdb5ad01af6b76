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
a cache path binds the budget to that file, unless a cycle bound it first
(:func:`lpo.optimizer.run_cycle`), and the file is read then and only then;
the budget stays bound to it until another cache path names another.
Each line of the file is decoded by the JSON scanner itself, and a line
nested past the recursion limit is skipped like any other undecodable one
(see :class:`gateway.ResponseCache`).

A warm rerun does each piece of work once. Each example's text is hashed
once per process (``Example.digest``). Each template's classify keys are
derived once per slice, shared by the scoring loop and the calls made
ahead, and its label set is encoded once. Stage 1 of :func:`extract_label`
runs once per distinct reply while it stays among the last few hundred
asked. The slice's fingerprint, every score's ``eval_set_id``, is taken
once per slice: once per :func:`evaluate_batch`; so is each backend's
fingerprint, which every cache key holds. The keys are the same strings as
ever, so cache files written by earlier versions still hit.

A new reply is served from memory as soon as it is put. Its line is appended
when its template's calls end, with one open, write and close of the file per
template (also for a template cut short by the budget), so a crash loses at
most the current template's replies and no file is held open between
templates. When calls are made ahead for several templates, a template's
classify replies are appended when its last classify call ends and the
extraction replies after them all, so a crash loses at most the replies of
the templates still classifying, or those extractions. Nothing is fsynced.

Scoring races (:func:`evaluate_batch` with ``keep``): a template stops once
the examples left cannot lift it to the ``keep``-th best complete score so
far, the floor. The rule is checked before every ``RACE_EVERY``-th example,
at fixed points like the rungs of successive halving, so a slice of
``RACE_EVERY`` examples or fewer is always scored in full. It is exact, in
integer counts: a raced template's full score is strictly below the final
``keep``-th, so the best ``keep`` are those of a run that scores
everything. A raced template is returned as a :class:`RacedPrompt` of the
examples it scored; only complete templates are :class:`ScoredPrompt`,
which always covers the whole slice. Without ``keep`` nothing races.

Every result comes from one serial loop, :func:`evaluate`, which classifies
and labels the examples in order and reads each reply from the cache if it
is there. Concurrency only fills the cache ahead of it: while the task or
extraction backend has been seen to block (see :func:`gateway.blocks`) and
the calls left cover the worst case, ``_prefetch`` makes the calls that miss
the cache on up to ``max_in_flight`` threads per backend, every classify
call first, then every extraction, each distinct request once. It does not
race: on a blocking backend every template's calls are made ahead in full,
so the threads never wait for a floor, and racing changes the record but
saves no call. :func:`evaluate_batch` prefetches a cycle's templates as one
batch. So results equal a serial run's by construction, and a budget cut
stops the loop at its first missing reply. Backends that compute rather
than wait, like the in-process mocks, are called one at a time from the
calling thread, because threads would only take turns on the interpreter
lock; there racing saves the calls it skips.
"""

from __future__ import annotations

import json
import logging
import math
import re
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import gateway, prompts
from .core import Dataset, Example, PromptTemplate, render_prompt, text_digest
from .errors import BackendError, BudgetExhaustedError, ValidationError
from .gateway import BackendConfig, Budget, ChatRequest, ResponseCache  # noqa: F401  (the benchmark patches it here)

logger = logging.getLogger(__name__)

UNPARSED = "unparsed"
RACE_EVERY = 8  # examples from one check of the racing rule to the next


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


class PerExample(NamedTuple):
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


@dataclass(frozen=True)
class RacedPrompt:
    """A template whose scoring stopped once it could no longer be selected.

    ``n_total`` is the number of examples scored, a prefix of the slice, and
    ``per_example`` their outcomes. Its accuracy over the whole slice is
    strictly below the floor it was raced against, so it has none here.
    """

    template: PromptTemplate
    n_correct: int
    n_total: int
    per_example: tuple[PerExample, ...]
    eval_set_id: str

    def __post_init__(self) -> None:
        if self.n_total != len(self.per_example):
            raise ValidationError("per_example must cover the examples scored")
        if self.n_correct != sum(1 for p in self.per_example if p.correct):
            raise ValidationError("n_correct does not match per-example outcomes")


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


@lru_cache(maxsize=256)
def _local_label(raw: str, label_set: tuple[str, ...]) -> str | None:
    """Stage 1 of :func:`extract_label`: the label ``raw`` names on its own, or None.

    It is pure, so it is worked out once per distinct (reply, label set)
    while that pair stays among the last 256 asked; on a warm rerun most
    replies are a handful of bare labels.
    """
    lowered = raw.lower()
    return _whole_word_match(lowered, label_set) or _field_match(lowered, label_set)


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
    hit = _local_label(raw, tuple(label_set))
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


def call_plan(candidates: int = 0, pairs: int = 0) -> dict[str, int]:
    """The most backend calls each stage can make: a decode and a refine per
    candidate, and a classify and an extract per (template, distinct example
    text) pair, since each classify reply and each extraction is cached."""
    return {"decode": candidates, "refine": candidates, "classify": pairs, "extract": pairs}


def _fan_width(backend: BackendConfig | None, budget: Budget, calls: int) -> int:
    """The fan-out rule: threads for work that can make ``calls`` more calls
    on ``backend``, its ``max_in_flight`` once it blocks and the calls left
    cover them all, else 1."""
    if backend is not None and gateway.blocks(backend) and budget.calls_left() >= calls:
        return backend.max_in_flight
    return 1


def _fan_out(count: int, work: Callable[[int], None], backend: BackendConfig | None,
             budget: Budget, step_calls: int) -> None:
    """Run ``work`` on each index below ``count``, in order.

    Before each index, the fan-out rule (:func:`_fan_width`) says how many
    threads the indices left may use, each making at most ``step_calls``
    calls on ``backend`` (:func:`call_plan`). While it is 1 they run in the calling thread, and the first failure is
    raised at once. Once it is more, a ``ThreadPoolExecutor`` of up to that
    many threads takes the indices left in order; after a failure no index
    starts, one already started runs to its end, and once every thread has
    stopped the lowest index's failure is raised. This is the package's one
    thread pool; the optimizer's decode stage uses it too.
    """
    for start in range(count):
        threads = min(_fan_width(backend, budget, step_calls * (count - start)), count - start)
        if threads > 1:
            break
        work(start)
    else:  # every index ran in the calling thread
        return
    from concurrent.futures import ThreadPoolExecutor

    failed = threading.Event()

    def run(index: int) -> BaseException | None:
        if failed.is_set():
            return None
        try:
            work(index)
        except BaseException as exc:  # re-raised in the calling thread
            failed.set()
            return exc
        return None

    with ThreadPoolExecutor(threads, thread_name_prefix="lpo-fan-out") as pool:
        failures = [f for f in pool.map(run, range(start, count)) if f is not None]
    if failures:  # in index order
        raise failures[0]


class _Slice(Dataset):
    """The first ``max_examples`` of an eval set, as one evaluation or one
    batch scores them under one config.

    What scoring derives from the slice alone is derived once: its
    fingerprint, which is every score's ``eval_set_id``, each backend's
    fingerprint (:meth:`backend_id`), and each template's classify keys,
    which a batch's prefetch derives and :func:`evaluate` then takes over.
    ``failed`` holds the failure of each classify request that failed while
    made ahead, by its key, for :func:`evaluate` to raise when it reaches
    that example.
    """

    @cached_property
    def eval_set_id(self) -> str:
        return self.fingerprint()

    @cached_property
    def _keys(self) -> dict[str, list[str]]:  # template text -> its classify keys
        return {}

    @cached_property
    def failed(self) -> dict[str, Exception]:
        return {}

    @cached_property
    def _backend_ids(self) -> dict[int, tuple[BackendConfig, str]]:
        return {}  # id -> (the backend, kept so that its id is not reused; its fingerprint)

    def backend_id(self, backend: BackendConfig) -> str:
        """``backend``'s fingerprint, taken on first use: once per slice, so
        a change to its params between batches makes new keys."""
        entry = self._backend_ids.get(id(backend))
        if entry is None:
            entry = self._backend_ids[id(backend)] = backend, gateway.backend_fingerprint(backend)
        return entry[1]

    def classify_keys(self, template: PromptTemplate, cfg: EvalConfig) -> list[str]:
        """``template``'s classify key for each example, derived on first use
        and kept until :meth:`drop_keys`."""
        keys = self._keys.get(template.text)
        if keys is None:
            key = _classify_keys(self.backend_id(cfg.task_backend), cfg, template)
            keys = self._keys[template.text] = [key(ex) for ex in self.examples]
        return keys

    def drop_keys(self, template: PromptTemplate) -> None:
        self._keys.pop(template.text, None)


def _slice(eval_set: Dataset, cfg: EvalConfig) -> _Slice:
    if len(eval_set) == 0:
        raise ValidationError("evaluation set is empty")
    if isinstance(eval_set, _Slice) and len(eval_set) <= cfg.max_examples:
        return eval_set  # a batch's slice
    return _Slice(examples=eval_set.examples[: cfg.max_examples],
                  label_set=tuple(eval_set.label_set))


def _prefetch(templates: Sequence[PromptTemplate], view: _Slice, cfg: EvalConfig,
              budget: Budget) -> bool:
    """Make ahead, on up to ``max_in_flight`` threads per backend, the calls
    that scoring ``templates`` on ``view`` in full would make, so
    :func:`evaluate` finds their replies in ``budget.replies``; False if the
    terms below do not hold.

    It runs only while the task or extraction backend blocks (asked before
    the texts are counted) and the fan-out rule admits :func:`call_plan` of
    every (template, distinct text). First every classify call that misses
    the cache, appending to the cache file as each template's calls end; then
    one extraction per distinct reply that stage 1 of :func:`extract_label`
    cannot label, and one more append. The calls left at entry cover each
    pool's own plan, so each widens once its backend blocks. A prefetch that
    finds every classify reply cached makes no call. A cut by the budget
    ends it quietly: :func:`evaluate` meets the first missing reply and
    stops where a serial run stops. A classify call that fails otherwise
    stops it too, and is kept in ``view.failed``, neither raised here nor
    asked again, for :func:`evaluate` to raise if it reaches that example: a
    racing template may never reach it.
    """
    examples, label_set = view.examples, view.label_set
    backends = (cfg.task_backend, cfg.extraction_backend)
    if not any(map(gateway.blocks, backends)):
        return False
    worst = sum(call_plan(pairs=len(templates) * len({ex.text for ex in examples})).values())
    if max(_fan_width(b, budget, worst) for b in backends) == 1:
        return False
    replies, failed = budget.replies, view.failed
    pairs: dict[str, tuple[int, Example]] = {}  # classify key -> its first (template, example)
    for t, template in enumerate(templates):
        for key, ex in zip(view.classify_keys(template, cfg), examples):
            pairs.setdefault(key, (t, ex))
    missing = [(key, *pair) for key, pair in pairs.items()
               if replies.get(key) is None and key not in failed]
    if not missing:
        return True
    unclassified, lock, stopped = [0] * len(templates), threading.Lock(), threading.Event()
    for _, t, _ in missing:
        unclassified[t] += 1

    def classify(k: int) -> None:
        """Classify pair ``k``; a template's last classify call appends the replies put so far."""
        if stopped.is_set():
            return
        key, t, ex = missing[k]
        try:
            classify_one(templates[t], ex, cfg, budget, keys=lambda _ex: key)
        except BudgetExhaustedError:
            raise
        except Exception as exc:  # raised by evaluate once it reaches this example
            failed[key] = exc
            stopped.set()
            return
        with lock:
            unclassified[t] -= 1
            last = not unclassified[t]
        if last:
            replies.flush()

    try:
        _fan_out(len(missing), classify, cfg.task_backend, budget,
                 sum(call_plan(pairs=1).values()))
        if stopped.is_set():
            return True
        extract_keys = _extract_keys(view.backend_id(cfg.extraction_backend), label_set)
        unlabelled = [raw for raw in dict.fromkeys(map(replies.get, pairs))
                      if raw is not None and _local_label(raw, label_set) is None
                      and replies.get(extract_keys(raw)) is None]
        _fan_out(len(unlabelled),
                 lambda k: extract_label(unlabelled[k], label_set, cfg, budget, keys=extract_keys),
                 cfg.extraction_backend, budget, call_plan(pairs=1)["extract"])
    except BudgetExhaustedError:
        pass  # evaluate meets the cut where a serial run would
    finally:  # also a prefetch cut short, by the budget or a failure, keeps its replies
        replies.flush()
    return True


def evaluate(template: PromptTemplate, eval_set: Dataset, cfg: EvalConfig,
             budget: Budget, floor: int | None = None) -> ScoredPrompt | RacedPrompt:
    """Score one template over the first ``max_examples`` of the eval set.

    Accuracy is the exact integer ratio correct/total. Budget exhaustion
    mid-set raises an error naming how many examples completed in order.
    Replies are kept in ``budget.replies``, which a ``cfg.cache_path`` binds
    to that file (:meth:`Budget.bind_replies`): the first evaluation reads
    it, and the budget stays bound to it, so later evaluations on that budget
    read nothing. The lines of this template's new replies are appended
    there once its calls end.

    The examples are scored one after another, each classified and then
    labelled, and this is the one place a score is built. With a ``floor``,
    an ``n_correct`` that the template must reach to be selected, scoring
    races: before example i, for i a multiple of ``RACE_EVERY``, it stops
    once ``correct + (n - i) < floor``, since the template can then no
    longer reach it, and returns a :class:`RacedPrompt` of the examples
    scored. Without one it always returns a :class:`ScoredPrompt`.

    Each example's classify key is derived once, for the loop and the
    prefetches alike. Before the first and the second example it asks
    :func:`_prefetch` to make the template's calls ahead, so a backend first
    seen to block by the first example's call overlaps the rest. Whatever the
    prefetch made is read from the reply cache, so the result equals a
    serial run's, and a budget cut stops at the first example whose reply is
    missing, with the error a serial run raises there. A call that failed
    while made ahead is raised here, without asking again, once the loop
    reaches its example.
    """
    view = _slice(eval_set, cfg)
    examples, label_set = view.examples, view.label_set
    n = len(examples)
    if cfg.cache_path is not None:
        budget.bind_replies(cfg.cache_path)
    keys = view.classify_keys(template, cfg)
    extract_keys = _extract_keys(view.backend_id(cfg.extraction_backend), label_set)
    failed = view.failed
    outcomes: list[PerExample] = []
    n_correct = 0
    try:
        for i, (ex, key) in enumerate(zip(examples, keys)):
            if floor is not None and i % RACE_EVERY == 0 and n_correct + n - i < floor:
                break
            if i < 2:
                _prefetch([template], view, cfg, budget)
            if key in failed:
                raise failed.pop(key)
            raw = classify_one(template, ex, cfg, budget, keys=lambda _ex, key=key: key)
            label = extract_label(raw, label_set, cfg, budget, keys=extract_keys)
            correct = label == ex.label
            n_correct += correct
            outcomes.append(PerExample(i, raw, label, correct))
    except BudgetExhaustedError as exc:
        raise BudgetExhaustedError(f"budget exhausted after {len(outcomes)} of {n} examples "
                                   f"for template {template.id}: {exc}") from exc
    finally:  # also a template cut short by the budget keeps its replies
        view.drop_keys(template)
        budget.replies.flush()
    if len(outcomes) < n:
        return RacedPrompt(template, n_correct, len(outcomes), tuple(outcomes),
                           view.eval_set_id)
    return ScoredPrompt(template=template, accuracy=n_correct / n, n_correct=n_correct,
                        n_total=n, per_example=tuple(outcomes), eval_set_id=view.eval_set_id)


def evaluate_batch(templates: Sequence[PromptTemplate], eval_set: Dataset, cfg: EvalConfig,
                   budget: Budget, keep: int | None = None,
                   ) -> tuple[list[ScoredPrompt | RacedPrompt], BudgetExhaustedError | None]:
    """Score ``templates`` in order, each with :func:`evaluate`.

    Returns the results of the templates completed in order, a prefix of
    ``templates``, and the error that stopped the rest (None when every
    template was scored); any other failure is raised.

    With ``keep``, templates race for the best ``keep`` places: each is
    scored against the floor of the ``keep``-th best complete score among
    the templates before it, and stops once it can no longer reach it
    (:func:`evaluate`). The floor only rises, so a raced template's full
    score is strictly below the final ``keep``-th, and the best ``keep``
    are those of a run without racing. The first ``keep`` templates always
    complete. Without ``keep`` every template completes.

    Before each template, until one prefetch has run, the batch asks
    :func:`_prefetch` to make the calls of every template left at once: each
    classify call grouped by (template, text), then each distinct extraction
    across the batch. So a backend that computes starts no thread, a fresh
    process widens once its first calls show the backend to block, and the
    results equal a serial run's. Under a call ceiling the calls ahead are
    made only when they all fit; a cut keeps a prefix of the results of a
    run without a ceiling, and on a backend that computes it stops where a
    serial run stops. Under a token ceiling, too, the results kept are a
    prefix of a full run's.

    Every template is scored on one slice of the eval set, so its
    fingerprint and each backend's are taken once per batch, and the classify
    keys a prefetch derives serve :func:`evaluate` too.
    """
    if keep is not None and keep < 1:
        raise ValidationError("keep must be >= 1")
    view = _slice(eval_set, cfg)
    if cfg.cache_path is not None:
        budget.bind_replies(cfg.cache_path)
    complete: list[int] = []  # the complete templates' n_correct, best first
    results: list[ScoredPrompt | RacedPrompt] = []
    prefetched = False
    for start, template in enumerate(templates):
        prefetched = prefetched or _prefetch(templates[start:], view, cfg, budget)
        floor = complete[keep - 1] if keep is not None and len(complete) >= keep else None
        try:
            result = evaluate(template, view, cfg, budget, floor)
        except BudgetExhaustedError as exc:
            return results, exc
        results.append(result)
        if isinstance(result, ScoredPrompt):
            complete = sorted([*complete, result.n_correct], reverse=True)
    return results, None
