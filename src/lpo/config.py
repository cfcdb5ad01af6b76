"""Application config: one YAML file wiring datasets, backends, and modules.

Relative paths inside the file resolve against the config file's directory.
Loading collects every validation problem instead of stopping at the first,
so a bad config is reported exhaustively before any backend call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import yaml

from .core import PromptTemplate, SplitSpec, validate_template
from .decoder import DecodeStrategy
from .encoder import EncoderSpec
from .errors import ValidationError
from .evaluator import EvalConfig
from .explorer import ExplorationPolicy
from .gateway import BackendConfig, Budget
from .optimizer import OptimizerConfig
from .projector import load_weights
from .toyspace import ToySpaceSpec

DEFAULT_CONFIG_TEXT = """\
# lpo run configuration. Relative paths resolve against this file's directory.

# Artifacts (run records, summaries, caches) are written here.
out_dir: out

dataset:
  train: train.jsonl          # JSONL records {"text": ..., "label": ...} or CSV with a text,label header
  test: null                  # optional held-out file for `lpo evaluate --split test`
  labels: null                # optional declared label superset, e.g. [negative, neutral, positive]
  validation_fraction: 0.1    # share of the training file split off for scoring prompts
  rng_seed: 7                 # seed of the deterministic shuffle behind the split

encoder:
  dimension: 8                # latent dimension d the backend must return
  backend:
    kind: mock                # mock | remote_embed
    behavior: hash            # mock only: hash | toy
    params: {dimension: 8}
    # kind: remote_embed      # remote backends need endpoint + model_name;
    # endpoint: https://api.example.com/v1/embeddings
    # model_name: my-embedding-model
    # api_key_env: LPO_API_KEY

decode:
  kind: anchor_blend          # anchor_blend | soft_prompt | toy_inverse
  decode_temperature: 0.7     # sampling temperature for candidate decoding
  refinement_temperature: 0.0 # temperature for the conservative format-refinement pass
  toy_parameters: null        # toy_inverse only: ordered parameter names
  projector_path: null        # soft_prompt only: weight file from `lpo fit-projector`
  chat_backend:
    kind: mock                # mock | remote_chat
    behavior: echo
    params: {}

policy:
  strategy_mix: {interpolate: 1.0}   # weights over interpolate / extrapolate / perturb;
                                     # perturb needs decode.kind soft_prompt or toy_inverse
  blend_range: [0.35, 0.65]          # interpolation weight band around 0.5
  extrapolation_range: [[-0.5, 0.0], [1.0, 1.5]]  # weight bands outside (0, 1)
  sigma: null                        # perturbation scale; null = 0.1 x mean seed norm
  rng_seed: 42
  candidate_count: 15                # candidates generated per cycle, at most 1000

optimizer:
  select_n: 3                 # templates fed forward from each cycle
  max_iterations: 1
  patience: 1                 # non-improving iterations tolerated before stopping
  keep_seeds: true            # seeds compete with candidates in selection

evaluator:
  max_examples: 50            # evaluation slice size (cost control)
  temperature: 0.0
  task_backend:
    kind: mock
    behavior: fixed
    params: {reply: positive}
  extraction_backend:
    kind: mock
    behavior: fixed
    params: {reply: unparsed}

budget:
  max_calls: 100000
  max_total_tokens: 10000000
"""


@dataclass(frozen=True)
class AppConfig:
    """Validated, fully resolved run configuration."""

    out_dir: Path
    train_path: Path
    test_path: Path | None
    labels: list[str] | None
    split: SplitSpec
    optimizer: OptimizerConfig
    evaluator: EvalConfig
    max_calls: int
    max_total_tokens: int

    @property
    def task_backend(self) -> BackendConfig:
        return self.evaluator.task_backend

    @property
    def extraction_backend(self) -> BackendConfig:
        return self.evaluator.extraction_backend

    @property
    def max_examples(self) -> int:
        return self.evaluator.max_examples

    def eval_config(self, split: str) -> EvalConfig:
        # per-split cache files keep validation and test replies independent
        return replace(self.evaluator, cache_path=self.out_dir / f"cache_{split}.jsonl")

    def budget(self) -> Budget:
        return Budget(max_calls=self.max_calls, max_total_tokens=self.max_total_tokens)


def _boolean(value) -> bool:
    """Cast for a boolean key: YAML true/false only, since ``bool("false")`` is True."""
    if not isinstance(value, bool):
        raise ValidationError(f"must be true or false, got {value!r}")
    return value


def _pair(value) -> tuple[float, float]:
    """Cast for a [low, high] key: a list of exactly two numbers."""
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ValidationError(f"must be two numbers [low, high], got {value!r}")
    return float(value[0]), float(value[1])


def _pairs(value) -> tuple[tuple[float, float], ...]:
    """Cast for a list of [low, high] bands."""
    if not isinstance(value, list):
        raise ValidationError(f"must be a list of [low, high] bands, got {value!r}")
    return tuple(map(_pair, value))


def _weights(mix) -> dict[str, float]:
    if not isinstance(mix, dict):
        raise ValidationError(f"must be a mapping of strategy to weight, got {mix!r}")
    return {str(k): float(v) for k, v in mix.items()}


_BACKEND_KEYS = {
    "kind": str, "endpoint": lambda v: v or "", "model_name": lambda v: v or "",
    "api_key_env": str, "timeout": float, "max_attempts": int, "backoff_base": float,
    "max_in_flight": int, "behavior": str,
}
_POLICY_KEYS = {
    "strategy_mix": _weights,
    "blend_range": _pair,
    "extrapolation_range": _pairs,
    "sigma": lambda v: None if v is None else float(v),
    "rng_seed": int,
    "candidate_count": int,
}
_CONFIG_ERRORS = (ValidationError, TypeError, ValueError, LookupError, AttributeError,
                  OverflowError)


def _built(errors: list[str], where: str, build: Callable):
    """``build()``; None if it raises a config error, listed as ``where: error``."""
    try:
        return build()
    except _CONFIG_ERRORS as exc:
        errors.append(f"{where}: {exc}")
        return None


def _given(errors: list[str], where: str, raw: dict, casts: dict[str, Callable | None],
           make: Callable = dict):
    """``make(**keys)`` of the keys a section sets, each coerced by its cast;
    None if a cast or ``make`` fails. The dataclasses hold every default.

    A key cast by None is read elsewhere. Each unknown key and each failed
    cast is listed with its key named, as ``<where>.<key>: error``.
    """
    given, failed = {}, False
    for key, value in raw.items():
        name = f"{where}.{key}" if where else str(key)
        if key not in casts:
            errors.append(f"{name}: unknown key")
        elif casts[key] is not None:
            try:
                given[key] = casts[key](value)
            except _CONFIG_ERRORS as exc:
                errors.append(f"{name}: {exc}")
                failed = True
    return None if failed else _built(errors, where, lambda: make(**given))


def _resolve(base: Path, value) -> Path | None:
    """The path a config value names, relative to ``base`` unless absolute."""
    if value is not None and (not isinstance(value, str) or "\0" in value):
        raise ValidationError(f"must be a path, got {value!r}")
    return None if value is None else base / value


def _build_backend(raw, base: Path, errors: list[str], where: str) -> BackendConfig | None:
    if not isinstance(raw, dict):
        errors.append(f"{where}: backend must be a mapping")
        return None
    params = raw.get("params") or {}
    if not isinstance(params, dict):
        errors.append(f"{where}.params: must be a mapping, got {params!r}")
        return None
    params = dict(params)
    if "dataset" in params:
        resolved = _built(errors, f"{where}.params.dataset",
                          lambda: _resolve(base, str(params["dataset"])))
        if resolved is None or not resolved.is_file():
            if resolved is not None:
                errors.append(f"{where}: backend dataset file not found: {params['dataset']}")
            return None
        params["dataset"] = str(resolved)
    return _given(errors, where, raw, {**_BACKEND_KEYS, "params": None},
                  partial(BackendConfig, params=params))


def load_app_config(path: str | Path) -> tuple[AppConfig | None, list[str]]:
    """Parse and validate; returns (config, errors). Config is None on errors.

    Every malformed value is listed, none raised: a path or label that is not
    a string, a missing file, or a number that does not parse, is not finite
    or is outside the range its dataclass enforces. Null ``out_dir`` is ``out``.
    """
    path = Path(path)
    errors: list[str] = []
    if not path.exists():
        return None, [f"config file not found: {path}"]
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        return None, [f"{path} is not UTF-8 text"]
    except (yaml.YAMLError, RecursionError) as exc:  # also nested too deep
        return None, [f"config is not valid YAML: {exc}"]
    if not isinstance(raw, dict):
        return None, ["config root must be a mapping"]
    base = path.parent
    _given(errors, "", raw, dict.fromkeys(
        ["out_dir", "dataset", "encoder", "decode", "policy", "optimizer", "evaluator", "budget"]))

    def section(name: str) -> dict:
        value = raw.get(name)
        if value is not None and not isinstance(value, dict):
            errors.append(f"{name}: must be a mapping")
        return value if isinstance(value, dict) else {}

    def backend(name: str, values: dict, key: str) -> BackendConfig | None:
        value = values.get(key)  # null means the default, as an omitted key does
        return _build_backend({} if value is None else value, base, errors, f"{name}.{key}")

    def file(where: str, value) -> Path | None:
        found = _built(errors, where, lambda: _resolve(base, value))
        if found is not None and not found.is_file():
            errors.append(f"{where}: file not found: {found}")
        return found

    ds = section("dataset")
    if ds.get("train") is None:
        errors.append("dataset.train: required")
    train_path = file("dataset.train", ds.get("train"))
    test_path = file("dataset.test", ds.get("test"))
    labels = ds.get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(label, str) for label in labels)):
        errors.append(f"dataset.labels: must be a list of labels, got {labels!r}")
    split = _given(errors, "dataset", ds, {
        "train": None, "test": None, "labels": None, "validation_fraction": float,
        "rng_seed": int}, SplitSpec)

    enc = section("encoder")
    enc_backend = backend("encoder", enc, "backend")
    enc_keys = _given(errors, "encoder", enc, {
        "backend": None, "dimension": int})
    encoder_spec = None if None in (enc_backend, enc_keys) else _built(
        errors, "encoder", lambda: EncoderSpec(backend=enc_backend, **enc_keys))

    dec = section("decode")
    chat_backend = dec.get("chat_backend")
    if chat_backend is not None:  # no chat backend unless one is given
        chat_backend = _build_backend(chat_backend, base, errors, "decode.chat_backend")
    toy_space = None
    toy_parameters = dec.get("toy_parameters")
    if toy_parameters is not None and not isinstance(toy_parameters, list):
        errors.append(f"decode.toy_parameters: must be a list of names, got {toy_parameters!r}")
    elif toy_parameters:
        toy_space = _built(errors, "decode.toy_parameters",
                           lambda: ToySpaceSpec(tuple(toy_parameters)))
    proj_path = dec.get("projector_path")
    proj = None if proj_path is None else _built(
        errors, "decode.projector_path", lambda: load_weights(_resolve(base, proj_path)))
    decode_strategy = _given(errors, "decode", dec, {
        "chat_backend": None, "toy_parameters": None, "projector_path": None, "kind": str,
        "decode_temperature": float, "refinement_temperature": float},
        partial(DecodeStrategy, chat=chat_backend, toy_space=toy_space, projector=proj))

    policy = _given(errors, "policy", section("policy"), _POLICY_KEYS, ExplorationPolicy)
    # cast even when a part failed, so every error is listed
    opt = _given(errors, "optimizer", section("optimizer"), {
        "select_n": int, "max_iterations": int, "patience": int,
        "keep_seeds": _boolean})
    optimizer_cfg = None if None in (opt, policy, encoder_spec, decode_strategy) else _built(
        errors, "optimizer", lambda: OptimizerConfig(
            policy=policy, encoder=encoder_spec, decode=decode_strategy, **opt))

    ev = section("evaluator")
    task_backend = backend("evaluator", ev, "task_backend")
    extraction_backend = backend("evaluator", ev, "extraction_backend")
    # validated even when a backend failed, so every error is listed
    evaluator = _given(errors, "evaluator", ev, {
        "task_backend": None, "extraction_backend": None, "max_examples": int,
        "temperature": float},
        partial(EvalConfig, task_backend=task_backend, extraction_backend=extraction_backend))

    limits = _given(errors, "budget", section("budget"),
                    {"max_calls": int, "max_total_tokens": int}, Budget)
    # null means the default, as an omitted key does
    out_dir = _built(errors, "out_dir", lambda: _resolve(base, raw.get("out_dir"))) or base / "out"

    if errors:
        return None, errors
    return AppConfig(
        out_dir=out_dir,
        train_path=train_path,
        test_path=test_path,
        labels=list(labels) if labels else None,
        split=split,
        optimizer=optimizer_cfg,
        evaluator=evaluator,
        max_calls=limits.max_calls,
        max_total_tokens=limits.max_total_tokens,
    ), []


def load_seed_templates(path: str | Path) -> tuple[list[PromptTemplate], list[str]]:
    """Read a JSONL seeds file of {"id": ..., "text": ...} objects.

    Returns (templates, errors); every bad line is reported, none silently
    skipped.
    """
    path = Path(path)
    if not path.exists():
        return [], [f"seeds file not found: {path}"]
    try:
        # split as text-mode iteration would, after its newline translation
        lines = path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError:
        return [], [f"{path} is not UTF-8 text"]
    templates: list[PromptTemplate] = []
    errors: list[str] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too many digits, or too deep
            errors.append(f"line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})")
            continue
        if not isinstance(obj, dict) or "text" not in obj:
            errors.append(f"line {lineno}: seed needs a 'text' field")
            continue
        seed_id = str(obj.get("id") or f"seed-{lineno}")
        if seed_id in seen_ids:
            errors.append(f"line {lineno}: duplicate seed id {seed_id!r}")
            continue
        template = _built(errors, f"line {lineno}: seed {seed_id!r}",
                          lambda: validate_template(obj["text"], template_id=seed_id))
        if template is not None:
            templates.append(template)
            seen_ids.add(seed_id)
    if not templates and not errors:
        errors.append("seeds file is empty")
    return templates, errors
