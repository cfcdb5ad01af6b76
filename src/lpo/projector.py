"""Linear map from encoder space (dim d) into decoder token-embedding space (dim m).

Application is a plain matrix-vector product. Fitting solves the ridge
normal equations in closed form with NumPy, after a Cholesky factorization
has checked that they are positive definite; the bias column, when
requested, is not penalized.

Weights round-trip bit for bit through one JSON object: a readable
``input_dim``/``output_dim``/``has_bias`` header, then ``weights_b64`` (and
``bias_b64``), base64 of the row-major little-endian float64 bytes, as run
records store embeddings. Files from older versions, which held ``weights``
and ``bias`` as lists of numbers, still load.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import as_vector, encode_float64, read_jsonl, write_atomic
from .errors import ValidationError

# condition estimate above this, with zero regularization, is treated as rank-deficient
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class LinearProjector:
    """Weight matrix of shape (output_dim, input_dim) plus optional bias."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise ValidationError(f"projector weights must be 2-D, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("projector weights contain non-finite entries")
        object.__setattr__(self, "weights", w)
        if self.bias is not None:
            b = as_vector(self.bias, dim=w.shape[0], name="projector bias")
            object.__setattr__(self, "bias", b)

    @property
    def input_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights.shape[0]


def apply(projector: LinearProjector, vec) -> np.ndarray:
    """Project a d-vector to an m-vector: weights @ vec (+ bias)."""
    v = as_vector(vec, dim=projector.input_dim, name="projector input")
    out = projector.weights @ v
    if projector.bias is not None:
        out = out + projector.bias
    return out


@dataclass(frozen=True)
class PairedCorpus:
    """Training pairs: rows of inputs (n, d) aligned with targets (n, m)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        if x.ndim != 2 or y.ndim != 2:
            raise ValidationError("corpus inputs and targets must be 2-D arrays")
        if x.shape[0] != y.shape[0]:
            raise ValidationError(
                f"corpus has {x.shape[0]} inputs but {y.shape[0]} targets"
            )
        if x.shape[0] < 1:
            raise ValidationError("corpus needs at least one pair")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValidationError("corpus contains non-finite entries")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple]) -> "PairedCorpus":
        if not pairs:
            raise ValidationError("corpus needs at least one pair")
        xs = [as_vector(x, name="pair input") for x, _ in pairs]
        ys = [as_vector(y, name="pair target") for _, y in pairs]
        for i, (x, y) in enumerate(zip(xs, ys)):
            if x.size != xs[0].size or y.size != ys[0].size:
                raise ValidationError(
                    f"pair {i} has dimensions ({x.size}, {y.size}), "
                    f"expected ({xs[0].size}, {ys[0].size})"
                )
        return cls(inputs=np.array(xs), targets=np.array(ys))


def load_paired_corpus(path: str | Path) -> PairedCorpus:
    """Read JSONL pairs with fields ``x`` (length d) and ``y`` (length m)."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"pairs file not found: {path}")
    pairs = []
    for lineno, obj in read_jsonl(path):
        if "x" not in obj or "y" not in obj:
            raise ValidationError(f"line {lineno}: pair needs 'x' and 'y' fields")
        try:
            pairs.append((as_vector(obj["x"], name="pair input"),
                          as_vector(obj["y"], name="pair target")))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
    if not pairs:
        raise ValidationError("empty pairs file")
    return PairedCorpus.from_pairs(pairs)


def fit_ridge(corpus: PairedCorpus, regularization: float = 0.0,
              with_bias: bool = False) -> LinearProjector:
    """Minimize sum ||W x + b - y||^2 + reg * ||W||_F^2 in closed form.

    Solves the normal equations once a Cholesky factorization has shown them
    positive definite; the bias term is left unpenalized. A rank-deficient
    design with zero regularization is rejected with advice to set reg > 0.
    Deterministic.
    """
    if regularization < 0:
        raise ValidationError(f"regularization must be >= 0, got {regularization}")
    x = corpus.inputs
    y = corpus.targets
    n, d = x.shape
    if with_bias:
        x = np.hstack([x, np.ones((n, 1))])
    gram = x.T @ x
    penalty = np.eye(x.shape[1])
    if with_bias:
        penalty[-1, -1] = 0.0
    system = gram + regularization * penalty
    if regularization == 0.0:
        cond = _condition(system)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise ValidationError(
                f"design matrix is rank-deficient (condition estimate {cond:.2e}); "
                "set regularization > 0"
            )
    rhs = x.T @ y
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(
            f"normal equations are not positive definite ({exc}); set regularization > 0"
        ) from exc
    solution = np.linalg.solve(system, rhs)
    if with_bias:
        return LinearProjector(weights=solution[:-1].T, bias=solution[-1])
    return LinearProjector(weights=solution.T)


def _condition(system: np.ndarray) -> float:
    """2-norm condition number of a symmetric matrix: max|eigenvalue| over
    min|eigenvalue|, which ``np.linalg.cond`` would find by a slower SVD."""
    magnitudes = np.abs(np.linalg.eigvalsh(system))
    smallest = magnitudes.min()
    return float(magnitudes.max() / smallest) if smallest > 0 else float("inf")


def residual(projector: LinearProjector, corpus: PairedCorpus) -> float:
    """Root-mean-square residual of the projector over the corpus."""
    pred = corpus.inputs @ projector.weights.T
    if projector.bias is not None:
        pred = pred + projector.bias
    return float(np.sqrt(np.mean((pred - corpus.targets) ** 2)))


def save_weights(projector: LinearProjector, path: str | Path) -> None:
    """Write the dims and bias flag as readable JSON and the weights (and
    bias) as exact base64 float64, whole or not at all.

    The weights are row-major, so ``np.frombuffer(base64.b64decode(s),
    "<f8").reshape(output_dim, input_dim)`` recovers them bit for bit. Like
    run records, the file is written beside ``path`` and then moved over it,
    so a failed write leaves the previous weights intact.
    """
    payload = {
        "input_dim": projector.input_dim,
        "output_dim": projector.output_dim,
        "has_bias": projector.bias is not None,
        "weights_b64": encode_float64(projector.weights),
    }
    if projector.bias is not None:
        payload["bias_b64"] = encode_float64(projector.bias)
    write_atomic(path, [json.dumps(payload, indent=1)])


def _floats(payload: dict, name: str, shape: tuple[int, ...], path: Path) -> np.ndarray | None:
    """The float64 array of ``shape`` stored under ``<name>_b64``, or under
    ``name`` as a list of numbers in older files; None when neither is there."""
    count = int(np.prod(shape))
    says = f"weight file {path} header says {'x'.join(map(str, shape))}"
    if name + "_b64" in payload:
        try:
            raw = base64.b64decode(payload[name + "_b64"], validate=True)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"weight file {path}: {name}_b64 is not valid base64 ({exc})") from exc
        if len(raw) != 8 * count:
            raise ValidationError(
                f"{says} but {name}_b64 holds {len(raw)} bytes, not {8 * count}")
        return np.frombuffer(bytearray(raw), "<f8").reshape(shape)
    if name not in payload:
        return None
    try:
        values = np.asarray(payload[name], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"weight file {path}: {name} is not a list of numbers") from exc
    if values.ndim != 1 or values.size != count:
        raise ValidationError(f"{says} but {values.size} numbers are present in {name}")
    return values.reshape(shape)


def load_weights(path: str | Path) -> LinearProjector:
    """Inverse of save_weights; also reads the older list-of-numbers files.

    A missing, unreadable or inconsistent file raises ValidationError naming
    the file.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"weight file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, not JSON
        raise ValidationError(f"unreadable weight file {path}: {exc}") from exc
    try:
        d = int(payload["input_dim"])
        m = int(payload["output_dim"])
        has_bias = bool(payload["has_bias"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"weight file {path} is missing header fields: {exc!r}") from exc
    if d < 1 or m < 1:
        raise ValidationError(f"weight file {path} header says {m}x{d}; both must be >= 1")
    weights = _floats(payload, "weights", (m, d), path)
    if weights is None:
        raise ValidationError(f"weight file {path} has no weights_b64 or weights field")
    bias = _floats(payload, "bias", (m,), path) if has_bias else None
    if has_bias and bias is None:
        raise ValidationError(f"weight file {path} header promises a bias of length {m}")
    try:
        return LinearProjector(weights=weights, bias=bias)
    except ValidationError as exc:
        raise ValidationError(f"weight file {path}: {exc}") from exc
