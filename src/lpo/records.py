"""Serialization of run records to JSONL: one header object plus one object
per iteration.

Record version 2 stores each candidate's ``embedding`` as one base64 string
of the vector's little-endian float64 bytes, which decodes bit for bit with
``np.frombuffer(base64.b64decode(s), "<f8")``; version 1 stored a list of
decimal floats. Reading back yields plain dicts (not reconstructed domain
objects), embeddings left encoded, so that reporting stays purely offline,
never needs a backend, and reads both versions.
"""

from __future__ import annotations

import base64
import json
import os
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import PromptTemplate, jsonable
from .errors import ValidationError
from .evaluator import EvalConfig, ScoredPrompt
from .explorer import CandidateRecord
from .gateway import BackendConfig
from .optimizer import IterationRecord, OptimizerConfig, RunRecord

RECORD_VERSION = 2


def backend_to_dict(cfg: BackendConfig) -> dict:
    return jsonable({
        "kind": cfg.kind,
        "endpoint": cfg.endpoint,
        "model_name": cfg.model_name,
        "behavior": cfg.behavior if cfg.kind == "mock" else None,
        "params": cfg.params if cfg.kind == "mock" else None,
    })


def config_snapshot(cfg: OptimizerConfig, eval_cfg: EvalConfig) -> dict:
    policy = cfg.policy
    return jsonable({
        "policy": {
            "strategy_mix": policy.strategy_mix,
            "blend_range": list(policy.blend_range),
            "extrapolation_range": [list(r) for r in policy.extrapolation_range],
            "sigma": policy.sigma,
            "rng_seed": policy.rng_seed,
            "candidate_count": policy.candidate_count,
        },
        "encoder": {
            "dimension": cfg.encoder.dimension,
            "normalize": cfg.encoder.normalize,
            "backend": backend_to_dict(cfg.encoder.backend),
        },
        "decode": {
            "kind": cfg.decode.kind,
            "decode_temperature": cfg.decode.decode_temperature,
            "refinement_temperature": cfg.decode.refinement_temperature,
            "chat_backend": backend_to_dict(cfg.decode.chat) if cfg.decode.chat else None,
            "toy_parameters": list(cfg.decode.toy_space.parameter_names)
            if cfg.decode.toy_space else None,
        },
        "optimizer": {
            "select_n": cfg.select_n,
            "max_iterations": cfg.max_iterations,
            "patience": cfg.patience,
            "keep_seeds": cfg.keep_seeds,
        },
        "evaluator": {
            "max_examples": eval_cfg.max_examples,
            "temperature": eval_cfg.temperature,
            "cache_path": str(eval_cfg.cache_path) if eval_cfg.cache_path else None,
            "task_backend": backend_to_dict(eval_cfg.task_backend),
            "extraction_backend": backend_to_dict(eval_cfg.extraction_backend),
        },
    })


def template_to_dict(t: PromptTemplate) -> dict:
    return {"id": t.id, "text": t.text, "origin": t.origin}


def encode_embedding(vector: np.ndarray) -> str:
    """Base64 of the little-endian float64 bytes: exact, and far smaller and
    faster than decimal text."""
    return base64.b64encode(np.asarray(vector, dtype="<f8").tobytes()).decode("ascii")


def candidate_to_dict(c: CandidateRecord) -> dict:
    prov = c.provenance
    return {
        "id": c.id,
        "embedding": encode_embedding(c.embedding),
        # the explorer may draw these as NumPy scalars
        "provenance": jsonable({
            "kind": prov.kind,
            "parents": list(prov.parents),
            "weight": prov.weight,
            "sigma": prov.sigma,
            "noise_seed": prov.noise_seed,
        }),
        "decoded_text": c.decoded_text,
        "refined_template": template_to_dict(c.refined_template)
        if c.refined_template else None,
        "invalid_reason": c.invalid_reason,
    }


def scored_to_dict(s: ScoredPrompt) -> dict:
    return {
        "template": template_to_dict(s.template),
        "accuracy": s.accuracy,
        "n_correct": s.n_correct,
        "n_total": s.n_total,
        "eval_set_id": s.eval_set_id,
        "per_example": [
            [p.index, p.raw_output, p.extracted_label, p.correct]
            for p in s.per_example
        ],
    }


def iteration_to_dict(it: IterationRecord) -> dict:
    return {
        "kind": "iteration",
        "index": it.index,
        "seeds": [template_to_dict(t) for t in it.seeds],
        "candidates": [candidate_to_dict(c) for c in it.candidates],
        "scored": [scored_to_dict(s) for s in it.scored],
        "selected": list(it.selected_ids),
        "best_accuracy": it.best_accuracy,
        "mean_accuracy": it.mean_accuracy,
        "warnings": list(it.warnings),
        "partial": it.partial,
        "started_at": it.started_at,
        "finished_at": it.finished_at,
    }


def run_record_to_lines(record: RunRecord) -> Iterator[str]:
    """The record's JSON lines, header first, each iteration encoded as it is
    reached."""
    header = jsonable({
        "kind": "header",
        "version": RECORD_VERSION,
        "config": record.config,
        "dataset": record.dataset,
        "iterations": len(record.iterations),
        "budget": {"calls": record.budget_calls, "tokens": record.budget_tokens},
        "warnings": list(record.warnings),
        "started_at": record.started_at,
        "finished_at": record.finished_at,
    })
    yield json.dumps(header, ensure_ascii=False)
    for it in record.iterations:
        yield json.dumps(iteration_to_dict(it), ensure_ascii=False)


def write_run_record(record: RunRecord, path: str | Path) -> None:
    """Write ``path`` whole or not at all.

    The lines go to ``<path>.tmp`` beside it, which then replaces ``path``,
    so a failure mid-write leaves any earlier record intact and no partial
    file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in run_record_to_lines(record):
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_run_record(path: str | Path) -> tuple[dict, list[dict]]:
    """Parse a run-record file into (header, iteration dicts)."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"run record not found: {path}")
    header: dict | None = None
    iterations: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            kind = obj.get("kind")
            if kind == "header":
                if header is not None:
                    raise ValidationError(f"line {lineno}: duplicate header")
                header = obj
            elif kind == "iteration":
                iterations.append(obj)
            else:
                raise ValidationError(f"line {lineno}: unknown record kind {kind!r}")
    if header is None:
        raise ValidationError("run record has no header object")
    return header, iterations
