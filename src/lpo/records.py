"""Serialization of run records to JSONL: one header object plus one object
per iteration.

Record version 3 adds each iteration's ``raced`` list: the templates whose
scoring stopped once they could no longer be selected, each with its
template, ``n_correct``, ``n_total`` (the examples scored), ``eval_set_id``
and the ``per_example`` outcomes of that prefix, and no accuracy. ``scored``
holds only templates scored on the whole slice, and ``best_accuracy`` and
``mean_accuracy`` are taken over them. Version 2 stores each candidate's
``embedding`` as one base64 string of the vector's little-endian float64
bytes, which decodes bit for bit with
``np.frombuffer(base64.b64decode(s), "<f8")``; version 1 stored a list of
decimal floats. Reading back yields plain dicts (not reconstructed domain
objects), embeddings left encoded, so that reporting stays purely offline,
never needs a backend, and reads every version.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from .core import PromptTemplate, encode_float64, jsonable, read_jsonl, write_atomic
from .errors import ValidationError
from .evaluator import EvalConfig, RacedPrompt, ScoredPrompt
from .explorer import CandidateRecord
from .gateway import BackendConfig

if TYPE_CHECKING:  # the optimizer imports this module
    from .optimizer import IterationRecord, OptimizerConfig, RunRecord

RECORD_VERSION = 3


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


def candidate_to_dict(c: CandidateRecord) -> dict:
    prov = c.provenance
    return {
        "id": c.id,
        "embedding": encode_float64(c.embedding),
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


def scored_to_dict(s: ScoredPrompt | RacedPrompt) -> dict:
    """A score as a dict; a raced template's has no ``accuracy``."""
    out = {"template": template_to_dict(s.template)}
    if isinstance(s, ScoredPrompt):
        out["accuracy"] = s.accuracy
    out.update({
        "n_correct": s.n_correct,
        "n_total": s.n_total,
        "eval_set_id": s.eval_set_id,
        "per_example": [list(p) for p in s.per_example],
    })
    return out


def iteration_to_dict(it: IterationRecord) -> dict:
    return {
        "kind": "iteration",
        "index": it.index,
        "seeds": [template_to_dict(t) for t in it.seeds],
        "candidates": [candidate_to_dict(c) for c in it.candidates],
        "scored": [scored_to_dict(s) for s in it.scored],
        "raced": [scored_to_dict(r) for r in it.raced],
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
    """Write ``path`` whole or not at all (:func:`core.write_atomic`)."""
    write_atomic(path, run_record_to_lines(record))


def read_run_record(path: str | Path) -> tuple[dict, list[dict]]:
    """Parse a run-record file into (header, iteration dicts)."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"run record not found: {path}")
    header: dict | None = None
    iterations: list[dict] = []
    for lineno, obj in read_jsonl(path):
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
