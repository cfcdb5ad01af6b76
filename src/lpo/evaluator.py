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

A warm rerun does little work per example. Each example's text is hashed
once per process (``Example.digest``), so its classify key is one more
digest, derived when the scoring loop reaches it; a raced template derives
none for the examples it skips. Stage 1 of :func:`extract_label` runs once
per distinct reply while it stays among the last few hundred asked. What a
batch's templates share is derived once per slice, once per
:func:`evaluate_batch`: the slice's fingerprint, every score's
``eval_set_id``, each backend's fingerprint, which every cache key holds,
and the encoded label set of the extract keys. The keys are the same
strings as ever, so cache files written by earlier versions still hit.

A new reply is served from memory as soon as it is put. Its line is appended
when its template's calls end, with one open, write and close of the file per
template (also for a template cut short by the budget), so a crash loses at
most the replies of the templates whose calls are still in flight and no file
is held open between templates. Calls made ahead for a template are appended
by the thread that ends its last one, before its scoring loop reads them.
Nothing is fsynced.

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
is there. Concurrency only fills the cache ahead of it, on lanes: one pool
per backend seen to block (see :func:`gateway.blocks`), of its
``max_in_flight`` threads, opened on first use and closed with the slice's
batch or cycle (:class:`_Lanes`), so a backend never has more threads than
that. While the task or extraction backend blocks and the calls left cover
the worst case, ``_prefetch`` queues each classify call that misses the
cache on the task backend's lane, and a reply that stage 1 cannot label
sends its extraction on to the extraction backend's lane as soon as it is
in, so extractions stream while classification goes on; each distinct
request is asked once per slice. :func:`evaluate` waits only for its own
template's calls. It does not race the calls made ahead: on a blocking
backend every template's calls are made in full, so the lanes never wait
for a floor, and racing changes the record but saves no call.
:func:`evaluate_batch` sends a batch's templates ahead at once, and
:func:`lpo.optimizer.run_cycle` sends the seeds' before decoding and each
candidate's as its decoding ends. So results equal a serial run's by
construction, and a budget cut stops the loop at its first missing reply.
Backends that compute rather than wait, like the in-process mocks, are
called one at a time from the calling thread, because threads would only
take turns on the interpreter lock; there racing saves the calls it skips.
"""

from __future__ import annotations

import json
import logging
import math
import re
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
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
    The reply is looked up in and kept in ``budget.replies``, which
    :func:`evaluate` binds to ``cfg.cache_path`` before its first call,
    since reading that file per call would cost more than the call.
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
             budget: Budget, step_calls: int, lanes: _Lanes) -> None:
    """Run ``work`` on each index below ``count``, in order.

    Before each index, the fan-out rule (:func:`_fan_width`) says how many
    threads the indices left may use, each making at most ``step_calls``
    calls on ``backend`` (:func:`call_plan`). While it is 1 they run in the
    calling thread, and the first failure is raised at once. Once it is
    more, the indices left are queued in order on ``backend``'s lane in
    ``lanes``; after a failure no index starts, one already started runs to
    its end, and once every index has ended the lowest index's failure is
    raised. The optimizer's decode stage runs on it.
    """
    for start in range(count):
        if min(_fan_width(backend, budget, step_calls * (count - start)), count - start) > 1:
            break
        work(start)
    else:  # every index ran in the calling thread
        return
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

    futures = [lanes.submit(backend, run, index) for index in range(start, count)]
    failures = [f for f in (future.result() for future in futures) if f is not None]
    if failures:  # in index order
        raise failures[0]


class _Lanes:
    """The worker pools of one slice, and the calls made ahead on them.

    A lane is one backend's pool of its ``max_in_flight`` threads, opened
    when its first call is queued; this class names ``ThreadPoolExecutor``
    and is the package's one pool. A call made ahead is asked once, under
    its reply-cache key, and each template whose score needs it waits for
    it. ``made_ahead`` maps the text of each template taken on to an event,
    set once none of its calls is left in flight and its replies are
    appended to the cache file of ``replies``. After :meth:`stop` the calls
    still queued end without being made; :meth:`close` cancels them, waits
    for the calls in flight and ends the threads.
    """

    def __init__(self, replies: ResponseCache) -> None:
        self.replies = replies
        self.lock = threading.Lock()
        self.stopped = False
        self.made_ahead: dict[str, threading.Event] = {}
        self._left: dict[str, int] = {}  # template text -> its calls not ended
        self._waiting: dict[str, list[str] | None] = {}  # reply key -> texts; None once ended
        self._pools: dict[int, object] | None = {}  # by id(backend); None once closed

    def submit(self, backend: BackendConfig, fn: Callable, *args):
        """Queue ``fn(*args)`` on ``backend``'s lane: its future, or None once closed."""
        from concurrent.futures import ThreadPoolExecutor

        with self.lock:
            if self._pools is None:
                return None
            pool = self._pools.get(id(backend))
            if pool is None:
                pool = self._pools[id(backend)] = ThreadPoolExecutor(
                    backend.max_in_flight, thread_name_prefix="lpo-lane")
            return pool.submit(fn, *args)

    def take(self, templates: Sequence[PromptTemplate]) -> list[PromptTemplate]:
        """The templates whose texts were not taken on yet, now taken on; none
        once stopped. Each is held until :meth:`release` says all its calls
        are sent."""
        with self.lock:
            if self.stopped:
                return []
            new = []
            for template in templates:
                if template.text not in self.made_ahead:
                    self.made_ahead[template.text] = threading.Event()
                    self._left[template.text] = 1
                    new.append(template)
            return new

    def join(self, key: str, text: str) -> bool:
        """Make the template of ``text`` wait for the call of ``key`` unless it
        has ended; True if nobody asked for it before, so the caller sends it."""
        with self.lock:
            new = key not in self._waiting
            waiting = self._waiting.setdefault(key, [])
            if waiting is not None:
                waiting.append(text)
                self._left[text] += 1
            return new

    def end(self, key: str) -> None:
        """The call of ``key`` has ended, made or not."""
        with self.lock:
            texts, self._waiting[key] = self._waiting[key], None
        self.release(texts)

    def release(self, texts: Sequence[str]) -> None:
        """One call of each template of ``texts`` has ended, or all were sent."""
        with self.lock:
            ended = []
            for text in texts:
                self._left[text] -= 1
                if not self._left[text]:
                    ended.append(self.made_ahead[text])
        if ended:
            self.replies.flush()  # before the waiting loop reads them
            for event in ended:
                event.set()

    def wait(self, text: str) -> None:
        """Return once the template of ``text``, if taken on, has no call left in flight."""
        event = self.made_ahead.get(text)
        if event is not None:
            event.wait()

    def stop(self) -> None:
        with self.lock:
            self.stopped = True

    def close(self) -> None:
        """Stop, cancel the calls queued, wait for those in flight, end the
        threads and append the replies they put."""
        with self.lock:
            self.stopped = True
            pools, self._pools = list((self._pools or {}).values()), None
        for pool in pools:
            pool.shutdown(cancel_futures=True)
        self.replies.flush()


def _run_ahead(backend: BackendConfig, lanes: _Lanes, call: Callable[[], None]) -> None:
    """``call`` on ``backend``'s lane if the backend blocks and allows more
    than one call in flight, else here and now."""
    if backend.max_in_flight > 1 and gateway.blocks(backend) and not lanes.stopped:
        if lanes.submit(backend, call) is not None:
            return
    call()


@dataclass(frozen=True)
class _Slice(Dataset):
    """The first ``max_examples`` of an eval set, as one evaluation, batch or
    cycle scores them under ``cfg``, with what every template scored on it
    shares, each derived on first use: its fingerprint, every score's
    ``eval_set_id``; the task backend's fingerprint and the extract-key
    function, so a backend is fingerprinted once per slice and a change to
    its params between batches makes new keys; ``failed``, each classify
    request that failed while made ahead, by its key, for :func:`evaluate`
    to raise when it reaches that example. Its ``lanes`` make calls ahead
    (``made_ahead``, the texts of the templates taken on)."""

    cfg: EvalConfig
    lanes: _Lanes = field(compare=False, repr=False)

    @cached_property
    def eval_set_id(self) -> str:
        return self.fingerprint()

    @cached_property
    def task_id(self) -> str:  # read before extract_keys: handlers are numbered in that order
        return gateway.backend_fingerprint(self.cfg.task_backend)

    @cached_property
    def extract_keys(self) -> Callable[[str], str]:
        return _extract_keys(gateway.backend_fingerprint(self.cfg.extraction_backend),
                             self.label_set)

    @cached_property
    def failed(self) -> dict[str, Exception]:
        return {}

    @property
    def made_ahead(self) -> dict[str, threading.Event]:
        return self.lanes.made_ahead


def _slice(eval_set: Dataset, cfg: EvalConfig, budget: Budget) -> _Slice:
    """``eval_set`` itself if it is a batch's or cycle's slice under ``cfg``;
    else a new slice of its first ``max_examples``, with ``budget`` bound to
    ``cfg.cache_path`` (:meth:`Budget.bind_replies`) and lanes on its
    replies, which the caller closes."""
    if isinstance(eval_set, _Slice) and eval_set.cfg is cfg:
        return eval_set
    if len(eval_set) == 0:
        raise ValidationError("evaluation set is empty")
    if cfg.cache_path is not None:
        budget.bind_replies(cfg.cache_path)
    return _Slice(eval_set.examples[: cfg.max_examples], tuple(eval_set.label_set), cfg,
                  _Lanes(budget.replies))


def _prefetch(templates: Sequence[PromptTemplate], view: _Slice, budget: Budget) -> None:
    """Send ahead, to the lanes of ``view``, the calls that scoring
    ``templates`` on ``view`` in full would make, so :func:`evaluate` finds
    their replies in ``budget.replies`` once :meth:`_Lanes.wait` returns.

    It takes them on, adding their texts to ``view.made_ahead``, only while
    the task or extraction backend blocks (asked before the texts are
    counted), the lanes are not stopped and the fan-out rule admits
    :func:`call_plan` of every (template, distinct text); otherwise it does
    nothing. For each template taken on, each classify call that misses the
    cache goes to the task backend's lane, and each reply that stage 1 of
    :func:`extract_label` cannot label sends its extraction on to the
    extraction backend's lane as soon as it is in (:func:`_extract_ahead`):
    each distinct request once per slice. A backend that computes makes its
    calls at once on the thread that sends them. A call cut by the budget
    stops the lanes quietly: :func:`evaluate` meets the first missing reply
    and stops where a serial run stops. A classify call that fails otherwise
    stops them too, and is kept in ``view.failed``, neither raised here nor
    asked again, for :func:`evaluate` to raise if it reaches that example:
    a racing template may never reach it.
    """
    cfg, examples, lanes = view.cfg, view.examples, view.lanes
    backends = (cfg.task_backend, cfg.extraction_backend)
    if not any(map(gateway.blocks, backends)):
        return
    worst = sum(call_plan(pairs=len(templates) * len({ex.text for ex in examples})).values())
    if max(_fan_width(b, budget, worst) for b in backends) == 1:
        return
    task_id, _ = view.task_id, view.extract_keys  # derived here, not on the lanes
    replies = budget.replies
    for template in lanes.take(templates):
        text, keys = template.text, _classify_keys(task_id, cfg, template)
        for ex in examples:
            key = keys(ex)
            raw = replies.get(key)
            if raw is not None:
                _extract_ahead(raw, text, view, budget)
            elif lanes.join(key, text):
                _run_ahead(cfg.task_backend, lanes,
                           partial(_classify_ahead, key, template, ex, view, budget))
        lanes.release([text])


def _classify_ahead(key: str, template: PromptTemplate, ex: Example, view: _Slice,
                    budget: Budget) -> None:
    """One classify call made ahead; a reply that stage 1 cannot label sends its extraction on."""
    lanes = view.lanes
    try:
        if lanes.stopped:
            return
        try:
            raw = classify_one(template, ex, view.cfg, budget, keys=lambda _ex: key)
        except Exception as exc:
            if not isinstance(exc, BudgetExhaustedError):  # a cut is met by evaluate, as serially
                view.failed[key] = exc  # raised once evaluate reaches this example
            lanes.stop()
            return
        _extract_ahead(raw, template.text, view, budget)
    finally:
        lanes.end(key)


def _extract_ahead(raw: str, text: str, view: _Slice, budget: Budget) -> None:
    """Send on the extraction that ``raw`` needs, if stage 1 of
    :func:`extract_label` cannot label it and the cache holds no reply, for
    the template of ``text`` to wait for. A failed extraction is not asked
    ahead again; the scoring loop asks it at each occurrence, as a serial
    run does."""
    if _local_label(raw, view.label_set) is not None:
        return
    key, lanes = view.extract_keys(raw), view.lanes
    if budget.replies.get(key) is not None or not lanes.join(key, text):
        return

    def extract() -> None:
        try:
            if not lanes.stopped:
                extract_label(raw, view.label_set, view.cfg, budget, keys=lambda _raw: key)
        except Exception:  # a cut, or a failure evaluate meets again
            lanes.stop()
        finally:
            lanes.end(key)

    _run_ahead(view.cfg.extraction_backend, lanes, extract)


def evaluate(template: PromptTemplate, eval_set: Dataset, cfg: EvalConfig,
             budget: Budget, floor: int | None = None) -> ScoredPrompt | RacedPrompt:
    """Score one template over the first ``max_examples`` of the eval set.

    Accuracy is the exact integer ratio correct/total. Budget exhaustion
    mid-set raises an error naming how many examples completed in order.
    Replies are kept in ``budget.replies``, which a ``cfg.cache_path`` binds
    to that file (:meth:`Budget.bind_replies`): the first evaluation reads
    it, and the budget stays bound to it, so later evaluations on that budget
    read nothing. The lines of this template's new replies are appended
    there once its calls end: those made ahead by the lane thread that ends
    the last of them, before the loop reads them, and the loop's own when
    it ends.

    The examples are scored one after another, each classified and then
    labelled, and this is the one place a score is built. With a ``floor``,
    an ``n_correct`` that the template must reach to be selected, scoring
    races: before example i, for i a multiple of ``RACE_EVERY``, it stops
    once ``correct + (n - i) < floor``, since the template can then no
    longer reach it, and returns a :class:`RacedPrompt` of the examples
    scored. Without one it always returns a :class:`ScoredPrompt`.

    Each example's classify key is derived when the loop reaches it, so a
    raced template derives none for the examples it skips. Unless the
    template's calls were sent ahead already, it asks :func:`_prefetch` to
    send them before the first and the second example, so a backend first
    seen to block by the first example's call overlaps the rest; then it
    waits for its own calls made ahead, and no others. Whatever they made
    is read from the reply cache, so the result equals a serial run's, and
    a budget cut stops at the first example whose reply is missing, with
    the error a serial run raises there. A call that failed while made
    ahead is raised here, without asking again, once the loop reaches its
    example.
    """
    view = _slice(eval_set, cfg, budget)
    examples, label_set, failed = view.examples, view.label_set, view.failed
    n = len(examples)
    keys = _classify_keys(view.task_id, cfg, template)
    extract_keys = view.extract_keys
    outcomes: list[PerExample] = []
    n_correct = 0
    try:
        for i, ex in enumerate(examples):
            if floor is not None and i % RACE_EVERY == 0 and n_correct + n - i < floor:
                break
            if i < 2:
                if template.text not in view.made_ahead:
                    _prefetch([template], view, budget)
                view.lanes.wait(template.text)
            if failed and (key := keys(ex)) in failed:
                raise failed.pop(key)
            raw = classify_one(template, ex, cfg, budget, keys=keys)
            label = extract_label(raw, label_set, cfg, budget, keys=extract_keys)
            correct = label == ex.label
            n_correct += correct
            outcomes.append(PerExample(i, raw, label, correct))
    except BudgetExhaustedError as exc:
        raise BudgetExhaustedError(f"budget exhausted after {len(outcomes)} of {n} examples "
                                   f"for template {template.id}: {exc}") from exc
    finally:  # also a template cut short by the budget keeps its replies
        if view is not eval_set:
            view.lanes.close()
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

    Before each template whose calls were not sent ahead yet, the batch asks
    :func:`_prefetch` to send the calls of every template left at once: the
    classify calls queue on the task backend's lane, in template order, and
    each extraction follows the reply that needs it. So a backend that
    computes starts no thread, a fresh process widens once its first calls
    show the backend to block, and the results equal a serial run's. Under
    a call ceiling the calls ahead are made only when they all fit; a cut
    keeps a prefix of the results of a run without a ceiling, and on a
    backend that computes it stops where a serial run stops. Under a token
    ceiling, too, the results kept are a prefix of a full run's.

    Every template is scored on one slice of the eval set, so its
    fingerprint and each backend's are taken once per batch. The slice of a
    cycle's batch is the cycle's, and its lanes close with the cycle; any
    other batch closes its own before it returns.
    """
    if keep is not None and keep < 1:
        raise ValidationError("keep must be >= 1")
    view = _slice(eval_set, cfg, budget)
    complete: list[int] = []  # the complete templates' n_correct, best first
    results: list[ScoredPrompt | RacedPrompt] = []
    try:
        for start, template in enumerate(templates):
            if template.text not in view.made_ahead:
                _prefetch(templates[start:], view, budget)
            floor = complete[keep - 1] if keep is not None and len(complete) >= keep else None
            try:
                result = evaluate(template, view, cfg, budget, floor)
            except BudgetExhaustedError as exc:
                return results, exc
            results.append(result)
            if isinstance(result, ScoredPrompt):
                complete = sorted([*complete, result.n_correct], reverse=True)
        return results, None
    finally:
        if view is not eval_set:
            view.lanes.close()
