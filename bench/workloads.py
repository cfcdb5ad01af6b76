"""The benchmark's workloads: input files generated from a seed, and models.

lpo receives only what is generated here: a config file, a seeds file and a
dataset file per workload (plus, for ``latent_wide``, a paired corpus handed
to ``fit_ridge``). The task, extraction and, where a workload needs it, the
decode chat backends are then pointed at benchmark-owned models through the
``handler`` mock.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from lpo import gateway

import models

LABELS = ("negative", "neutral", "positive")
TOY_PARAMS = ("tone", "steps")
WORDS = ("plot", "acting", "pacing", "score", "ending", "cast", "script", "camera",
         "dialogue", "story", "effects", "music", "scene", "finale", "hero", "villain")
LATENT_SEEDS = (
    "Classify the sentiment of this review: {text}",
    "Read the review below and name its sentiment.\n{text}",
    "Review: {text}\nWhat is the overall sentiment?",
    "Decide how the writer feels about the film. {text}",
    "{text}\nAnswer with the sentiment of the review above.",
    "You are a careful annotator. Label the sentiment of: {text}",
    "Is this review negative, neutral or positive? {text}",
    "Give the one-word sentiment of the following text: {text}",
)


@dataclass(frozen=True)
class Workload:
    name: str
    examples: int             # N, the evaluation slice
    candidates: int           # C per iteration
    iterations: int           # k
    ambiguous_every: int = 0  # one task reply in this many needs extraction
    latency_s: float = 0.0    # mean per-call delay of the benchmark models
    warm: bool = False        # rerun against the cache a cold run left behind
    latent: bool = False      # hash embeddings, projector, soft-prompt decode
    dimension: int = 2
    projector_out: int = 0    # m
    pairs: int = 0


# BENCHMARK.json gives each workload's reason in one line; bench/README.md
# says which layer each one stresses and which change it should reveal.
WORKLOADS = {w.name: w for w in (
    Workload("eval_cold", examples=200, candidates=15, iterations=3, ambiguous_every=10),
    Workload("eval_warm", examples=200, candidates=15, iterations=3, ambiguous_every=10,
             warm=True),
    Workload("eval_latency", examples=40, candidates=15, iterations=2, ambiguous_every=10,
             latency_s=0.002),
    Workload("latent_wide", examples=8, candidates=48, iterations=3, latent=True,
             dimension=1024, projector_out=256, pairs=2048),
)}


def write_workspace(w: Workload, seed: int, dest: Path) -> None:
    """Write config.yaml, seeds.jsonl and train.jsonl for one seed."""
    rng = random.Random(f"{w.name}:{seed}")
    dest.mkdir(parents=True, exist_ok=True)
    train = 4 * w.examples  # a quarter is split off for validation
    with open(dest / "train.jsonl", "w", encoding="utf-8") as fh:
        for i in range(train):
            text = models.example_text(i, rng.choices(WORDS, k=8))
            fh.write(json.dumps({"text": text, "label": rng.choice(LABELS)}) + "\n")
    if w.latent:
        seeds = list(LATENT_SEEDS)
    else:
        # seeds ring the task model's optimum, so every seed converges near it
        cx, cy = toy_target(w, seed)
        radius, phase = rng.uniform(0.15, 0.25), rng.uniform(0, 2 * math.pi)
        angles = [phase + 2 * math.pi * k / 5 + rng.uniform(-0.3, 0.3) for k in range(5)]
        seeds = [f"tone={cx + radius * math.cos(a)!r};steps={cy + radius * math.sin(a)!r} "
                 "{text}" for a in angles]
    with open(dest / "seeds.jsonl", "w", encoding="utf-8") as fh:
        for i, text in enumerate(seeds, start=1):
            fh.write(json.dumps({"id": f"seed-{i}", "text": text}) + "\n")
    (dest / "config.yaml").write_text(yaml.safe_dump(_config(w, seed)), encoding="utf-8")


def toy_target(w: Workload, seed: int) -> list[float]:
    """The toy task model's optimum; the optimizer never sees it."""
    rng = random.Random(f"{w.name}:{seed}:target")
    return [round(rng.uniform(0.3, 0.7), 6) for _ in TOY_PARAMS]


def _handler() -> dict:
    return {"kind": "mock", "behavior": "handler", "params": {}}


def _config(w: Workload, seed: int) -> dict:
    if w.latent:
        encoder = {"kind": "mock", "behavior": "hash", "params": {"dimension": w.dimension}}
        decode = {"kind": "soft_prompt", "projector_path": "projector.json",
                  "chat_backend": _handler()}
        mix = {"interpolate": 0.4, "extrapolate": 0.3, "perturb": 0.3}
    else:
        toy = {"parameters": list(TOY_PARAMS)}
        encoder = {"kind": "mock", "behavior": "toy", "params": toy}
        chat = _handler() if w.latency_s else {"kind": "mock", "behavior": "toy_chat",
                                                "params": toy}
        decode = {"kind": "anchor_blend", "chat_backend": chat}
        mix = {"interpolate": 1.0}
    return {
        "out_dir": "out",
        "dataset": {"train": "train.jsonl", "labels": list(LABELS),
                    "validation_fraction": 0.25, "rng_seed": seed},
        "encoder": {"dimension": w.dimension, "backend": encoder},
        "decode": decode,
        "policy": {"strategy_mix": mix, "rng_seed": seed, "candidate_count": w.candidates},
        # patience = k, so every seed runs all k iterations
        "optimizer": {"select_n": 4 if w.latent else 3, "max_iterations": w.iterations,
                      "patience": w.iterations, "keep_seeds": True},
        "evaluator": {"max_examples": w.examples, "task_backend": _handler(),
                      "extraction_backend": _handler()},
        "budget": {"max_calls": 10**6, "max_total_tokens": 10**9},
    }


def paired_corpus(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of a planted linear map plus noise, for the ridge fit."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((w.pairs, w.dimension))
    planted = rng.standard_normal((w.projector_out, w.dimension)) / np.sqrt(w.dimension)
    return x, x @ planted.T + 0.01 * rng.standard_normal((w.pairs, w.projector_out))


def attach_models(w: Workload, seed: int, app, validation) -> dict:
    """Point the config's handler backends at fresh benchmark models."""
    delay = models.hashed_latency(w.latency_s) if w.latency_s else None
    if w.latent:
        fitness = models.hashed_fitness
    else:
        fitness = models.toy_fitness(TOY_PARAMS, toy_target(w, seed))
    examples = [(ex.text, ex.label) for ex in validation.examples[:w.examples]]
    task = models.TaskModel(examples, fitness, w.ambiguous_every, latency=delay)
    found = {"task": task, "extract": models.ExtractionModel(validation.label_set, delay)}
    app.task_backend.params["fn"] = task
    app.extraction_backend.params["fn"] = found["extract"]
    chat = app.optimizer.decode.chat
    if w.latent:
        found["chat"] = models.SoftPromptChatModel()
    elif w.latency_s:
        toy = gateway.BackendConfig(kind="mock", behavior="toy_chat",
                                    params={"parameters": list(TOY_PARAMS)})
        found["chat"] = models.ToyChatModel(gateway.MOCK_CHAT_BEHAVIORS["toy_chat"], toy, delay)
    if "chat" in found:
        chat.params["fn"] = found["chat"]
    return found
