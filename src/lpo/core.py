"""Domain types, dataset ingestion and splitting, prompt-template rendering.

Everything here is immutable after construction and free of I/O except the
dataset loaders. Labels are normalized to lowercase at ingestion because all
label comparison in the pipeline is case-insensitive after trimming.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import json
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

PLACEHOLDER = "{text}"

ORIGINS = ("seed", "decoded", "refined")


@dataclass(frozen=True)
class PromptTemplate:
    """An instruction text with exactly one input placeholder.

    The placeholder is the literal string ``{text}``; it marks where the
    task input is substituted at render time.
    """

    id: str
    text: str
    origin: str = "seed"

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise ValidationError(f"template text is a {type(self.text).__name__}, not a string")
        if not self.text.strip():
            raise ValidationError("template text is blank")
        count = self.text.count(PLACEHOLDER)
        if count == 0:
            raise ValidationError(f"template has no {PLACEHOLDER!r} placeholder")
        if count > 1:
            raise ValidationError(
                f"template has {count} {PLACEHOLDER!r} placeholders, expected exactly 1"
            )
        if self.origin not in ORIGINS:
            raise ValidationError(f"unknown template origin {self.origin!r}")


def validate_template(text: str, template_id: str = "", origin: str = "seed") -> PromptTemplate:
    """Return a PromptTemplate iff ``text`` is non-blank and has exactly one placeholder.

    Blank text, a missing placeholder, and multiple placeholders are each
    reported distinctly via ValidationError.
    """
    tid = template_id or "t-" + text_digest(text)[:8]
    return PromptTemplate(id=tid, text=text, origin=origin)


def render_prompt(template: PromptTemplate, input_text: str) -> str:
    """Substitute ``input_text`` for the single placeholder occurrence.

    The input is inserted literally; a placeholder inside ``input_text`` is
    not substituted recursively.
    """
    return template.text.replace(PLACEHOLDER, input_text, 1)


@dataclass(frozen=True)
class Example:
    """One labeled task input."""

    text: str
    label: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValidationError("example text is empty")
        if not self.label:
            raise ValidationError("example label is empty")

    @cached_property
    def digest(self) -> str:
        """``text_digest(self.text)``, hashed once per example."""
        return text_digest(self.text)


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of examples plus the label universe.

    ``label_set`` is the sorted unique labels seen in the examples, or a
    declared superset of them.
    """

    examples: tuple[Example, ...]
    label_set: tuple[str, ...]

    def __post_init__(self) -> None:
        seen = {ex.label for ex in self.examples}
        missing = seen - set(self.label_set)
        if missing:
            raise ValidationError(f"examples use labels outside label_set: {sorted(missing)}")

    def __len__(self) -> int:
        return len(self.examples)

    def fingerprint(self) -> str:
        """Stable content hash identifying this exact example sequence."""
        h = hashlib.sha256()
        for ex in self.examples:
            h.update(ex.text.encode("utf-8"))
            h.update(b"\x1f")
            h.update(ex.label.encode("utf-8"))
            h.update(b"\x1e")
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class SplitSpec:
    """Validation split size in (0, 1) and the seed (>= 0) of the deterministic shuffle."""

    validation_fraction: float = 0.1
    rng_seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValidationError(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}"
            )
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")


def normalize_label(label: str) -> str:
    return label.strip().lower()


def _dataset_from_records(
    records: Iterable[tuple[int, str, str]],
    labels: Sequence[str] | None,
) -> Dataset:
    examples = []
    for lineno, text, label in records:
        if text is None or str(text).strip() == "":
            raise ValidationError(f"line {lineno}: empty 'text' field")
        if label is None or str(label).strip() == "":
            raise ValidationError(f"line {lineno}: missing 'label' field")
        examples.append(Example(text=str(text), label=normalize_label(str(label))))
    if not examples:
        raise ValidationError("empty dataset")
    if labels is not None:
        label_set = tuple(sorted({normalize_label(l) for l in labels}))
    else:
        label_set = tuple(sorted({ex.label for ex in examples}))
    return Dataset(examples=tuple(examples), label_set=label_set)


def load_dataset(path: str | Path, labels: Sequence[str] | None = None) -> Dataset:
    """Load a labeled dataset, CSV if its name ends in ``.csv``, else JSONL.

    JSONL records carry ``text`` and ``label`` fields; CSV files carry a
    ``text,label`` header and exactly those two columns; file order is kept.
    Malformed records are reported with their line number, a non-UTF-8 file
    by its name. ``labels`` optionally declares the label universe as a
    superset of what occurs in the file.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"dataset file not found: {path}")
    if path.suffix.lower() == ".csv":
        return _load_csv(path, labels)
    records = []
    for lineno, obj in read_jsonl(path):
        if "text" not in obj:
            raise ValidationError(f"line {lineno}: missing 'text' field")
        records.append((lineno, obj["text"], obj.get("label")))
    return _dataset_from_records(records, labels)


def _load_csv(path: Path, labels: Sequence[str] | None) -> Dataset:
    records = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError("empty dataset") from None
            if [c.strip().lower() for c in header] != ["text", "label"]:
                raise ValidationError(
                    f"line 1: expected header 'text,label', got {','.join(header)!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ValidationError(f"line {lineno}: expected 2 columns, got {len(row)}")
                records.append((lineno, row[0], row[1]))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text") from exc
    return _dataset_from_records(records, labels)


def read_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line of a JSONL file.

    A line that is not a JSON object raises ValidationError naming the line,
    a file that is not UTF-8 one naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:  # also too many digits, or too deep
                    raise ValidationError(
                        f"line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
                if not isinstance(obj, dict):
                    raise ValidationError(f"line {lineno}: record is not an object")
                yield lineno, obj
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text") from exc


def split_dataset(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Partition into (validation, remainder) by a seeded deterministic shuffle.

    The validation part holds ``round(validation_fraction * len(dataset))``
    examples. Both parts keep the shuffled order, and both inherit the parent
    label_set. Re-running with an equal SplitSpec is bit-identical.
    """
    n = len(dataset)
    if n == 0:
        raise ValidationError("cannot split an empty dataset")
    n_val = int(round(spec.validation_fraction * n))
    if n_val == 0:
        raise ValidationError(
            f"validation_fraction {spec.validation_fraction} of {n} examples rounds to 0"
        )
    order = np.random.default_rng(spec.rng_seed).permutation(n)
    val = tuple(dataset.examples[i] for i in order[:n_val])
    rem = tuple(dataset.examples[i] for i in order[n_val:])
    return (
        Dataset(examples=val, label_set=dataset.label_set),
        Dataset(examples=rem, label_set=dataset.label_set),
    )


def text_digest(text: str) -> str:
    """Stable hex digest used for cache keys and derived identifiers."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def encode_float64(vector) -> str:
    """Base64 of the little-endian float64 bytes, row-major: exact, and far
    smaller and faster than decimal text. ``np.frombuffer(base64.b64decode(s),
    "<f8")`` decodes it bit for bit."""
    return base64.b64encode(np.asarray(vector, dtype="<f8").tobytes()).decode("ascii")


def decode_float64(text: str) -> np.ndarray:
    """The flat, writable float64 vector that :func:`encode_float64` encoded,
    bit for bit."""
    return np.frombuffer(bytearray(base64.b64decode(text, validate=True)), "<f8")


def write_atomic(path: str | Path, lines: Iterable[str]) -> None:
    """Write ``lines``, each ended by a newline, to ``path`` whole or not at all.

    They go to ``<path>.tmp`` beside it, which then replaces ``path``, so a
    failure mid-write leaves any earlier file intact and no partial file
    behind. A line and its newline are written apart, so no joined copy of a
    large line is made.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _callable_name(fn) -> str:
    # stable stand-in; a repr would embed a memory address and break record determinism
    return f"<callable {getattr(fn, '__qualname__', fn.__class__.__name__)}>"


def jsonable(value, name: Callable[[Callable], str] = _callable_name):
    """Plain JSON data for records and cache keys; a callable as ``name(callable)``."""
    if isinstance(value, dict):
        return {str(k): jsonable(v, name) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v, name) for v in value]
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if callable(value):
        return name(value)
    return repr(value)


def as_vector(values, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    try:
        vec = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} is not numeric: {exc}") from exc
    if vec.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {vec.shape}")
    if vec.size == 0:
        raise ValidationError(f"{name} is empty")
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"{name} contains non-finite entries")
    if dim is not None and vec.size != dim:
        raise ValidationError(f"{name} has dimension {vec.size}, expected {dim}")
    return vec
