"""Benchmark-owned backend models, served through lpo's ``handler`` mock.

Every model is a callable taking one ``ChatRequest`` and returning the reply
text, so the gateway still applies its budget, retries, semaphore and
counters to each call. Each model counts its calls and times its own body;
that time is the backend share of a run, which the benchmark reports so a
reader can tell lpo's cost from the models' cost.
"""

from __future__ import annotations

import hashlib
import re
import struct
import time
from typing import Callable, Sequence

from lpo import prompts
from lpo.core import PLACEHOLDER

EXAMPLE_ID = re.compile(r"review (\d{5})")
CHOICE = re.compile(r"choice #(\d+)")


def example_text(index: int, words: Sequence[str]) -> str:
    """Example texts carry a fixed-width id, so no text contains another."""
    return f"review {index:05d}: " + " ".join(words)


def content_hash(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


class Model:
    """Call counter and self-timer shared by all models.

    ``latency`` maps the request to a delay in seconds that the model sleeps
    before answering; it stands in for a remote backend's round trip.
    """

    def __init__(self, latency: Callable[[object], float] | None = None):
        self.latency = latency
        self.calls = 0
        self.busy_s = 0.0

    def reset(self) -> None:
        self.calls = 0
        self.busy_s = 0.0

    def __call__(self, req) -> str:
        start = time.perf_counter()
        if self.latency is not None:
            time.sleep(self.latency(req))
        try:
            return self.reply(req)
        finally:
            self.calls += 1
            self.busy_s += time.perf_counter() - start

    def reply(self, req) -> str:
        raise NotImplementedError


def hashed_latency(mean_s: float) -> Callable[[object], float]:
    """Delay uniform in [mean/2, 3*mean/2], fixed by the request content.

    The delay depends on what is asked, not on when, so any issue order of
    the same requests sleeps the same total.
    """

    def delay(req) -> float:
        key = req.user_text
        if req.soft_prompt is not None:
            key += repr(req.soft_prompt)
        fraction = int.from_bytes(content_hash(key)[:8], "big") / 2.0**64
        return mean_s * (0.5 + fraction)

    return delay


def toy_fitness(names: Sequence[str], target: Sequence[float]) -> Callable[[str], float]:
    """Fitness ``1 - ||e - target||^2 / 2`` of the toy vector in a template.

    Parses the template exactly as lpo's ``toy_task`` mock parses the
    rendered prompt, and clips to [0, 1] the same way.
    """
    patterns = [re.compile(rf"{re.escape(name)}=([-+0-9.eE]+)") for name in names]
    target = [float(t) for t in target]

    def fitness(template_text: str) -> float:
        total = 0.0
        for pattern, goal in zip(patterns, target):
            match = pattern.search(template_text)
            if match is None:
                raise ValueError(f"no {pattern.pattern!r} value in {template_text!r}")
            total += (float(match.group(1)) - goal) ** 2
        return min(1.0, max(0.0, 1.0 - total / 2.0))

    return fitness


def hashed_fitness(template_text: str) -> float:
    """A fixed pseudo-random fitness in [0.5, 1) for free-text templates."""
    return 0.5 + int.from_bytes(content_hash(template_text)[:8], "big") / 2.0**65


class TaskModel(Model):
    """O(1) stand-in for lpo's ``toy_task`` mock over a fixed example list.

    The reply is the gold label for the ``round(fitness * N)`` examples with
    the lowest content-hash rank and the next label (in sorted order) for
    the rest, as ``toy_task`` answers. The example is found by the id in its
    text instead of by scanning every example. With ``ambiguous_every`` = n
    one example in n per template, chosen by rank, gets a unique reply
    naming every label, which only the extraction model can resolve.
    """

    def __init__(self, examples: Sequence[tuple[str, str]],
                 fitness: Callable[[str], float], ambiguous_every: int = 0,
                 latency=None):
        super().__init__(latency)
        self.fitness = fitness
        self.labels = sorted({label for _, label in examples})
        self.n = len(examples)
        ranked = sorted(range(self.n), key=lambda i: content_hash(examples[i][0]).hex())
        rank = {i: r for r, i in enumerate(ranked)}
        self.by_id: dict[int, tuple[str, str, int]] = {}
        for i, (text, label) in enumerate(examples):
            match = EXAMPLE_ID.search(text)
            if match is None:
                raise ValueError(f"example text has no id: {text!r}")
            self.by_id[int(match.group(1))] = (text, label, rank[i])
        self.ambiguous_every = ambiguous_every

    def oracle_correct(self, template_text: str) -> int:
        return int(round(self.fitness(template_text) * self.n))

    def reply(self, req) -> str:
        match = EXAMPLE_ID.search(req.user_text)
        if match is None or int(match.group(1)) not in self.by_id:
            raise ValueError("rendered prompt names no known example")
        text, gold, rank = self.by_id[int(match.group(1))]
        template_text = req.user_text.replace(text, PLACEHOLDER, 1)
        answer = gold
        if rank >= self.oracle_correct(template_text):
            answer = self.labels[(self.labels.index(gold) + 1) % len(self.labels)]
        every = self.ambiguous_every
        if not every or (rank + content_hash(template_text)[0]) % every:
            return answer
        return (f"It reads as {', '.join(self.labels)} at once; on balance "
                f"choice #{self.labels.index(answer)} "
                f"[ref {content_hash(req.user_text)[:6].hex()}]")


class ExtractionModel(Model):
    """Resolves the task model's ambiguous replies to the label they encode."""

    def __init__(self, labels: Sequence[str], latency=None):
        super().__init__(latency)
        self.labels = sorted(labels)

    def reply(self, req) -> str:
        raw = prompts.extract_block(req.user_text, prompts.BLOCK_REPLY_OPEN,
                                    prompts.BLOCK_REPLY_CLOSE)
        match = CHOICE.search(raw or "")
        return self.labels[int(match.group(1))] if match else "unparsed"


class ToyChatModel(Model):
    """lpo's ``toy_chat`` mock behind a model, to give it a latency."""

    def __init__(self, toy_chat: Callable, backend, latency=None):
        super().__init__(latency)
        self.toy_chat = toy_chat
        self.backend = backend

    def reply(self, req) -> str:
        return self.toy_chat(self.backend, req)


FOCUS = ("tone", "wording", "intensity", "negation", "sarcasm", "emphasis",
         "context", "subject", "comparison", "hedging", "praise", "complaint")


class SoftPromptChatModel(Model):
    """Decodes a soft-prompt vector to a template; refines by one rule.

    About three quarters of decodes carry the placeholder; refinement
    appends it to the rest.
    """

    def reply(self, req) -> str:
        if req.soft_prompt is not None:
            packed = struct.pack(f"{len(req.soft_prompt)}d", *req.soft_prompt)
            digest = hashlib.sha256(packed).digest()
            words = " and ".join(FOCUS[b % len(FOCUS)] for b in digest[1:3])
            text = (f"Label the sentiment of the review, weighing its {words} "
                    f"(variant {digest[3:7].hex()})")
            return text + (f": {PLACEHOLDER}" if digest[0] % 4 else ".")
        raw = prompts.extract_block(req.user_text, prompts.BLOCK_RAW_OPEN,
                                    prompts.BLOCK_RAW_CLOSE)
        if raw is None:
            raise ValueError("chat model got neither a soft prompt nor a candidate")
        return f"{raw.strip()} {PLACEHOLDER}"
