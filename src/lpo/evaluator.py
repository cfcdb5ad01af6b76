"""Scores prompt templates by task accuracy over an evaluation slice.

Each example costs one chat call to the task backend (temperature 0.0 so
evaluation is as deterministic as the backend allows) plus, when the reply
is not trivially parseable, one chat call to the extraction backend. Raw
outputs that still resolve to no label count as incorrect: a prompt that
elicits unparseable output is a worse prompt, and excluding such cases
would inflate scores.

Replies are cached in an append-only JSONL file keyed by content hashes and
the answering backend's fingerprint, so a warm rerun issues zero gateway
calls and returns identical scores, and no backend is served another's reply.

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
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import gateway, prompts
from .core import Dataset, Example, PromptTemplate, render_prompt, text_digest
from .errors import BackendError, BudgetExhaustedError, ValidationError
from .gateway import BackendConfig, Budget, ChatRequest

logger = logging.getLogger(__name__)

UNPARSED = "unparsed"


@dataclass(frozen=True)
class EvalConfig:
    """Task and extraction backends plus the evaluation slice size."""

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


@dataclass(frozen=True)
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


class ResponseCache:
    """Append-only JSONL cache of backend replies, keyed by content hash.

    The file is read once, here. The first ``put`` opens one append handle
    (creating the directory); each ``put`` then writes one line and flushes
    it, so the line has reached the operating system when ``put`` returns
    (it is not fsynced). Whoever makes a cache closes it: ``close()``, or use
    it as a context manager.

    I/O problems are downgraded to warnings; the evaluator then simply falls
    back to live calls. Undecodable lines, such as one cut short by a crash,
    are skipped and counted. Appends are serialized.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, str] = {}
        self._lock = threading.Lock()
        self._fh = None
        self.skipped = 0
        self._cut_off = False  # last line lacks its newline; next append starts a new one
        if self.path is None or not self.path.exists():
            return
        line = ""
        try:
            # lpo writes ASCII-only JSON, so a cut-off line is still valid UTF-8
            with open(self.path, encoding="utf-8") as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    try:
                        obj = json.loads(line)
                        self._entries[obj["key_hash"]] = obj["raw_output"]
                    except (ValueError, KeyError, TypeError):
                        self.skipped += 1
        except (OSError, UnicodeDecodeError) as exc:
            logger.warning("ignoring unreadable cache %s: %s", self.path, exc)
            self._entries = {}
        self._cut_off = bool(line) and not line.endswith("\n")
        if self.skipped:
            logger.warning("skipped %d unreadable cache line(s) in %s", self.skipped, self.path)

    def get(self, key: str) -> str | None:
        return self._entries.get(key)

    def put(self, key: str, raw_output: str) -> None:
        with self._lock:
            self._entries[key] = raw_output
            if self.path is None:
                return
            try:
                if self._fh is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._fh = open(self.path, "a", encoding="utf-8")
                prefix = "\n" if self._cut_off else ""
                self._fh.write(prefix + json.dumps({"key_hash": key, "raw_output": raw_output})
                               + "\n")
                self._fh.flush()
                self._cut_off = False
            except OSError as exc:
                if self._fh is not None:  # part of the line may be out; start afresh
                    self._cut_off = True
                logger.warning("could not append to cache %s: %s", self.path, exc)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                fh, self._fh = self._fh, None
                try:
                    fh.close()
                except OSError as exc:
                    logger.warning("could not close cache %s: %s", self.path, exc)

    def __enter__(self) -> ResponseCache:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _classify_key(backend_id: str, cfg: EvalConfig, template: PromptTemplate,
                  ex: Example) -> str:
    return text_digest(json.dumps([
        "classify", backend_id,
        text_digest(template.text), text_digest(ex.text), repr(cfg.temperature),
    ]))


def _extract_key(backend_id: str, raw: str, label_set: Sequence[str]) -> str:
    return text_digest(json.dumps(["extract", backend_id, text_digest(raw), list(label_set)]))


def classify_one(template: PromptTemplate, ex: Example, cfg: EvalConfig,
                 budget: Budget, cache: ResponseCache | None = None, *,
                 backend_id: str | None = None) -> str:
    """Render the prompt for one example and return the task backend's reply.

    ``backend_id`` is the task backend's fingerprint, for callers that
    already computed it. Without ``cache`` the reply is neither looked up in
    nor appended to ``cfg.cache_path``: reading that file per call would cost
    more than the call; :func:`evaluate` opens it once per template.
    """
    cache = cache if cache is not None else ResponseCache()
    backend_id = backend_id or gateway.backend_fingerprint(cfg.task_backend)
    key = _classify_key(backend_id, cfg, template, ex)
    hit = cache.get(key)
    if hit is not None:
        return hit
    req = ChatRequest(user_text=render_prompt(template, ex.text),
                      temperature=cfg.temperature)
    raw = gateway.chat(cfg.task_backend, req, budget).text
    cache.put(key, raw)
    return raw


def _whole_word_match(lowered: str, label_set: Sequence[str]) -> str | None:
    found = [lab for lab in label_set
             if re.search(rf"(?<!\w){re.escape(lab)}(?!\w)", lowered)]
    if len(found) == 1:
        return found[0]
    return None


def _field_match(lowered: str, label_set: Sequence[str]) -> str | None:
    for match in re.finditer(r'"(?:sentiment|label)"\s*:\s*"([^"]*)"', lowered):
        value = match.group(1).strip()
        if value in label_set:
            return value
    return None


def extract_label(raw: str, label_set: Sequence[str], cfg: EvalConfig,
                  budget: Budget, cache: ResponseCache | None = None, *,
                  backend_id: str | None = None) -> str:
    """Resolve a raw task reply to a label, or ``"unparsed"``.

    Stage 1 is deterministic and free: a unique whole-word label occurrence,
    or a JSON-like ``sentiment``/``label`` field holding a label. Stage 2
    asks the extraction backend which label the reply asserts; most outputs
    never get that far, which saves budget without changing semantics on
    clear cases. Backend failures in stage 2 degrade to ``"unparsed"``.
    ``backend_id`` is the extraction backend's fingerprint, and ``cache``
    behaves as in :func:`classify_one`.
    """
    if not label_set:
        raise ValidationError("extract_label needs a non-empty label set")
    lowered = raw.lower()
    hit = _whole_word_match(lowered, label_set) or _field_match(lowered, label_set)
    if hit is not None:
        return hit

    cache = cache if cache is not None else ResponseCache()
    backend_id = backend_id or gateway.backend_fingerprint(cfg.extraction_backend)
    key = _extract_key(backend_id, raw, label_set)
    reply = cache.get(key)
    if reply is None:
        req = ChatRequest(user_text=prompts.extract_instruction(raw, list(label_set)),
                          temperature=0.0)
        try:
            reply = gateway.chat(cfg.extraction_backend, req, budget).text
        except BackendError as exc:
            logger.warning("label extraction failed, counting as unparsed: %s", exc)
            return UNPARSED
        cache.put(key, reply)
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

    With ``width`` 1 this is a plain loop in the calling thread. Otherwise
    ``width`` threads take groups in order; after the first failure no
    further group starts, and once every thread has stopped the failure of
    the lowest index is raised.
    """
    if width == 1 or len(groups) == 1:
        for group in groups:
            for index in group:
                work(index)
        return
    pending = iter(groups)
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                group = None if failures else next(pending, None)
            if group is None:
                return
            for index in group:
                try:
                    work(index)
                except BaseException as exc:  # re-raised in the calling thread
                    with lock:
                        failures[index] = exc
                    return

    threads = [threading.Thread(target=worker, name=f"lpo-evaluate-{n}")
               for n in range(min(width, len(groups)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[min(failures)]


def evaluate(template: PromptTemplate, eval_set: Dataset, cfg: EvalConfig,
             budget: Budget, cache: ResponseCache | None = None) -> ScoredPrompt:
    """Score one template over the first ``max_examples`` of the eval set.

    Accuracy is the exact integer ratio correct/total. Budget exhaustion
    mid-set raises an error naming how many examples completed.

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
    task_id = gateway.backend_fingerprint(cfg.task_backend)
    extraction_id = gateway.backend_fingerprint(cfg.extraction_backend)
    raws: list[str] = [""] * n
    labels: list[str | None] = [None] * n

    def classify(index: int) -> None:
        raws[index] = classify_one(template, slice_examples[index], cfg, budget, cache,
                                   backend_id=task_id)

    def extract(index: int) -> None:
        labels[index] = extract_label(raws[index], eval_set.label_set, cfg, budget, cache,
                                      backend_id=extraction_id)

    widths = _width(cfg.task_backend), _width(cfg.extraction_backend)
    texts = _by_value([ex.text for ex in slice_examples]) if max(widths) > 1 else []
    owned = None
    if cache is None:
        cache = owned = ResponseCache(cfg.cache_path)
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
    finally:
        if owned is not None:
            owned.close()
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
