"""Deterministic in-process mock backends for tests, demos and toy runs.

A mock backend (``BackendConfig(kind="mock")``) names one behavior from the
registries below and parameterizes it through ``params``. Chat behaviors map
``(cfg, request)`` to reply text; embed behaviors map ``(cfg, texts)`` to one
vector per text. The gateway dispatches to them inside its choke point, so
mocks are budgeted, retried and counted exactly like remote calls. A mock
keeps no run state: a behavior reads only its config and the request, and
``toy_task`` ranks each example list once, in a cache keyed by its content.
This module does not import the gateway.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
from typing import Callable, Sequence

import numpy as np

from . import prompts
from .core import PLACEHOLDER, as_vector, load_dataset
from .errors import BackendError, ValidationError
from .toyspace import ToySpaceSpec, strip_placeholder, toy_decode, toy_encode


def _word_count(text: str) -> int:
    return len(text.split())


def usage(cfg, prompt_texts: Sequence[str], reply: str = "") -> tuple[int, int]:
    """(prompt, completion) tokens: ``params['usage']`` if set, else word counts."""
    fixed = cfg.params.get("usage")
    if fixed is not None:
        return int(fixed[0]), int(fixed[1])
    return sum(_word_count(t) for t in prompt_texts), _word_count(reply)


def _fixed(cfg, req) -> str:
    return str(cfg.params.get("reply", ""))


def _echo(cfg, req) -> str:
    return req.user_text


def _handler(cfg, req) -> str:
    fn = cfg.params.get("fn")
    if fn is None:
        raise ValidationError("handler mock needs params['fn']")
    return str(fn(req))


def _toy_spec(cfg) -> ToySpaceSpec:
    names = cfg.params.get("parameters")
    if not (names and isinstance(names, (list, tuple)) and all(isinstance(n, str) for n in names)):
        raise ValidationError(f"mock behavior {cfg.behavior!r} needs params['parameters'], "
                              "a list of names")
    return ToySpaceSpec(tuple(names))


def _toy_chat(cfg, req) -> str:
    """One toy backend for a whole pipeline, dispatched on the request.

    A soft-prompt vector is decoded itself (exercising the wire extension). A
    refinement gets the placeholder appended to its raw candidate. A blend is
    the numeric stand-in for a paraphrasing decoder: it blends the parsed
    parent vectors and returns the canonical toy string without a
    placeholder, as a raw decode would.
    """
    if req.soft_prompt is not None:
        return toy_decode(_toy_spec(cfg), np.asarray(req.soft_prompt, dtype=float))
    raw = prompts.extract_block(req.user_text, prompts.BLOCK_RAW_OPEN, prompts.BLOCK_RAW_CLOSE)
    if raw is not None:
        raw = raw.strip()
        return raw if not raw or PLACEHOLDER in raw else raw + " " + PLACEHOLDER
    parent_a = prompts.extract_block(req.user_text, prompts.BLOCK_A_OPEN, prompts.BLOCK_A_CLOSE)
    parent_b = prompts.extract_block(req.user_text, prompts.BLOCK_B_OPEN, prompts.BLOCK_B_CLOSE)
    match = re.search(r"blend_weight=([-+0-9.eE]+)", req.user_text)
    if parent_a is None or parent_b is None or match is None:
        raise BackendError("toy chat mock cannot classify the instruction")
    weight = float(match.group(1))
    spec = _toy_spec(cfg)
    vec_a, vec_b = (toy_encode(spec, strip_placeholder(p)) for p in (parent_a, parent_b))
    return toy_decode(spec, weight * vec_a + (1.0 - weight) * vec_b)


@functools.lru_cache(maxsize=16)
def _ranked(pairs: tuple[tuple[str, str], ...] | None,
            dataset: tuple[str, int, int] | None = None) -> tuple[tuple[str, str, int], ...]:
    """Examples as (text, label, rank); rank is a content-hash permutation.

    The examples are ``pairs`` of (text, label), or else the rows of the
    ``dataset`` file keyed by (path, st_mtime_ns, st_size), so a rewritten
    file is read again. Ranking by hash rather than file position keeps
    evaluation of any subset of the examples statistically fair, while a
    full pass still measures exactly round(fitness * N) correct answers.
    """
    if pairs is None:
        pairs = tuple((ex.text, ex.label) for ex in load_dataset(dataset[0]).examples)
    order = sorted(range(len(pairs)),
                   key=lambda i: hashlib.sha256(pairs[i][0].encode("utf-8")).hexdigest())
    rank = {i: r for r, i in enumerate(order)}
    return tuple((text, label, rank[i]) for i, (text, label) in enumerate(pairs))


def _toy_task_examples(cfg) -> tuple[tuple[str, str, int], ...]:
    inline = cfg.params.get("examples")
    if inline is not None:
        return _ranked(tuple((str(e["text"]), str(e["label"]).strip().lower()) for e in inline))
    path = cfg.params.get("dataset")
    if path is None:
        raise ValidationError("toy task mock needs params['examples'] or params['dataset']")
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        raise ValidationError(f"dataset file not found: {path}") from None
    return _ranked(None, (str(path), stat.st_mtime_ns, stat.st_size))


def _toy_task(cfg, req) -> str:
    """Scripted task model whose accuracy equals a quantized fitness score.

    The fitness of a rendered prompt is ``1 - ||e - target||^2 / 2`` where
    ``e`` is the toy vector parsed out of the prompt. Over the configured
    example list of size N the mock answers the gold label for the
    ``round(fitness * N)`` examples ranked lowest in a fixed content-hash
    permutation and a wrong label for the rest, so evaluating the full list
    measures exactly the quantized fitness.
    """
    spec = _toy_spec(cfg)
    target = as_vector(cfg.params.get("target"), dim=spec.dimension, name="toy task target")
    if not np.all((target >= 0) & (target <= 1)):
        raise ValidationError(f"toy task target {target.tolist()} lies outside [0, 1]")
    examples = _toy_task_examples(cfg)
    coords = []
    for name in spec.parameter_names:
        match = re.search(rf"{re.escape(name)}=([-+0-9.eE]+)", req.user_text)
        if match is None:
            raise BackendError(f"toy task mock: no {name!r} value in the rendered prompt")
        coords.append(float(match.group(1)))
    vec = np.asarray(coords, dtype=float)
    fitness = 1.0 - float(np.sum((vec - target) ** 2)) / 2.0
    fitness = min(1.0, max(0.0, fitness))
    n_correct = int(round(fitness * len(examples)))
    matched = None
    for text, label, rank in examples:
        if text in req.user_text:
            matched = (label, rank)
            break
    if matched is None:
        raise BackendError("toy task mock: rendered prompt matches no known example")
    gold, rank = matched
    if rank < n_correct:
        return gold
    labels = sorted({label for _, label, _ in examples})
    return labels[(labels.index(gold) + 1) % len(labels)]


def _hash_embed(cfg, texts: Sequence[str]) -> list[np.ndarray]:
    """Deterministic pseudo-random embedding: same text, same vector."""
    dim = int(cfg.params.get("dimension", 8))
    out = []
    for text in texts:
        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
        out.append(np.random.default_rng(seed).standard_normal(dim))
    return out


def _toy_embed(cfg, texts: Sequence[str]) -> list[np.ndarray]:
    """Exact toy-space encoder; ignores the input placeholder if present."""
    spec = _toy_spec(cfg)
    return [toy_encode(spec, strip_placeholder(t)) for t in texts]


MOCK_CHAT_BEHAVIORS: dict[str, Callable[..., str]] = {
    "fixed": _fixed,
    "echo": _echo,
    "handler": _handler,
    "toy_chat": _toy_chat,
    "toy_task": _toy_task,
}

MOCK_EMBED_BEHAVIORS: dict[str, Callable[..., list[np.ndarray]]] = {
    "hash": _hash_embed,
    "toy": _toy_embed,
}
