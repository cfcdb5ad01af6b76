"""Candidate generation in the latent space: blend, exaggerate, or drift.

Three strategies produce new points from seed embeddings: interpolation
(convex blend of two seeds), extrapolation (the same line, outside the
segment), and isotropic Gaussian perturbation of a single seed. Every
candidate carries full provenance and is reproducible bit-for-bit from the
policy's rng seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import PromptTemplate, as_vector
from .errors import ValidationError

STRATEGIES = ("interpolate", "extrapolate", "perturb")
PAIRWISE = ("extrapolate", "interpolate")  # the strategies that draw two parents

# candidates closer than this (L-inf) to an earlier one are regenerated once
DUPLICATE_TOLERANCE = 1e-12

# a cycle draws at most this many: each candidate costs a decode call and a record entry
MAX_CANDIDATES = 1000


@dataclass(frozen=True)
class ExplorationPolicy:
    """How to sample candidate latent points.

    ``strategy_mix`` weights the three strategies; the default searches by
    interpolation only. ``blend_range`` bounds the interpolation weight (a
    symmetric band around 0.5 keeps blends balanced), ``extrapolation_range``
    is a pair of intervals outside [0, 1], and ``sigma`` is the perturbation
    scale (None selects 0.1 x mean seed norm at generation time). Weights are
    >= 0 with a finite positive sum, ``blend_range`` lies in [0, 1], intervals
    are ordered, finite, outside (0, 1) and of positive finite total length,
    ``sigma`` is finite and >= 0, ``rng_seed`` >= 0 and ``candidate_count``
    lies in [1, MAX_CANDIDATES].
    """

    strategy_mix: dict[str, float] = field(default_factory=lambda: {"interpolate": 1.0})
    blend_range: tuple[float, float] = (0.35, 0.65)
    extrapolation_range: tuple[tuple[float, float], tuple[float, float]] = (
        (-0.5, 0.0),
        (1.0, 1.5),
    )
    sigma: float | None = None
    rng_seed: int = 42
    candidate_count: int = 15

    def __post_init__(self) -> None:
        unknown = set(self.strategy_mix) - set(STRATEGIES)
        if unknown:
            raise ValidationError(f"unknown strategies in mix: {sorted(unknown)}")
        weights = [self.strategy_mix.get(s, 0.0) for s in STRATEGIES]
        if any(w < 0 for w in weights):
            raise ValidationError("strategy weights must be >= 0")
        if sum(weights) <= 0:
            raise ValidationError("strategy weights must not all be zero")
        lo, hi = self.blend_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValidationError(f"blend_range must be within [0, 1], got {self.blend_range}")
        if self.sigma is not None and self.sigma < 0:
            raise ValidationError("sigma must be >= 0")
        if not 1 <= self.candidate_count <= MAX_CANDIDATES:
            raise ValidationError(f"candidate_count must be from 1 to {MAX_CANDIDATES}, "
                                  f"got {self.candidate_count}")
        finite = [sum(weights), self.sigma or 0.0, *np.ravel(self.extrapolation_range)]
        if not np.isfinite(finite).all():
            raise ValidationError("strategy weights, extrapolation bounds and sigma must be finite")
        for a, b in self.extrapolation_range:
            if a > b:
                raise ValidationError("extrapolation intervals must be ordered")
            if 0.0 < b and a < 1.0:
                raise ValidationError(f"extrapolation interval [{a}, {b}] overlaps (0, 1)")
        total = sum(b - a for a, b in self.extrapolation_range)
        if not 0.0 < total < math.inf:  # the sampler draws an interval by its share of it
            raise ValidationError(
                f"extrapolation intervals must have a positive finite total length, got {total}")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class Provenance:
    """Where a candidate came from: strategy, parents, and draw parameters."""

    kind: str
    parents: tuple[str, ...]
    weight: float | None = None
    sigma: float | None = None
    noise_seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGIES:
            raise ValidationError(f"unknown provenance kind {self.kind!r}")
        if self.kind == "interpolate" and not _inside_unit(self.weight or 0.0):
            raise ValidationError(f"interpolation weight {self.weight} outside [0, 1]")
        if self.kind == "extrapolate" and not (self.weight is None or _outside_unit(self.weight)):
            raise ValidationError(f"extrapolation weight {self.weight} inside [0, 1] or not finite")


@dataclass
class CandidateRecord:
    """One explored latent point plus everything needed to audit it."""

    id: str
    embedding: np.ndarray
    provenance: Provenance
    decoded_text: str | None = None
    refined_template: PromptTemplate | None = None
    invalid_reason: str | None = None


def _inside_unit(weight: float) -> bool:
    """The interpolation rule: ``weight`` lies in [0, 1], which NaN does not."""
    return 0.0 <= weight <= 1.0


def _outside_unit(weight: float) -> bool:
    """The extrapolation rule: ``weight`` is finite and outside [0, 1]."""
    return math.isfinite(weight) and not _inside_unit(weight)


def interpolate(a, b, weight: float) -> np.ndarray:
    """Convex blend ``weight * a + (1 - weight) * b`` with weight in [0, 1]."""
    va = as_vector(a, name="first embedding")
    vb = as_vector(b, dim=va.size, name="second embedding")
    if not _inside_unit(weight):
        raise ValidationError(f"interpolation weight {weight} outside [0, 1]")
    return _blend(va, vb, weight)


def extrapolate(a, b, weight: float) -> np.ndarray:
    """Same line as interpolate but past the endpoints: weight finite and outside [0, 1]."""
    va = as_vector(a, name="first embedding")
    vb = as_vector(b, dim=va.size, name="second embedding")
    if not _outside_unit(weight):
        raise ValidationError(
            f"extrapolation weight {weight} lies inside [0, 1] or is not finite; use interpolate"
        )
    return _blend(va, vb, weight)


def perturb(vec, sigma: float, noise_seed: int) -> np.ndarray:
    """Add zero-mean isotropic Gaussian noise with per-coordinate stddev sigma.

    The noise stream is fully determined by ``noise_seed``, so a stored seed
    replays the exact perturbation.
    """
    v = as_vector(vec, name="embedding")
    if sigma < 0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    return _drift(v, sigma, noise_seed)


def _blend(a: np.ndarray, b: np.ndarray, weight: float) -> np.ndarray:
    """``weight * a + (1 - weight) * b``, unchecked: :func:`interpolate` and
    :func:`extrapolate` check their arguments, and :func:`generate_candidates`
    its seeds and draws."""
    return weight * a + (1.0 - weight) * b


def _drift(v: np.ndarray, sigma: float, noise_seed: int) -> np.ndarray:
    """:func:`perturb` without its checks: ``v`` plus the noise of ``noise_seed``,
    a new array even at sigma 0."""
    if sigma == 0:
        return v.copy()
    return v + np.random.default_rng(noise_seed).normal(0.0, sigma, size=v.size)


def _sample_outside_unit(rng: np.random.Generator,
                         intervals: tuple[tuple[float, float], ...]) -> float:
    lengths = np.array([hi - lo for lo, hi in intervals], dtype=float)
    probs = lengths / lengths.sum()
    # endpoints shared with [0, 1] have measure zero but uniform() can return
    # its low bound exactly; redraw the rare invalid hit
    for _ in range(100):
        lo, hi = intervals[int(rng.choice(len(intervals), p=probs))]
        value = float(rng.uniform(lo, hi))
        if _outside_unit(value):
            return value
    raise ValidationError("could not sample an extrapolation weight outside [0, 1]")


def seeds_needed(policy: ExplorationPolicy) -> int:
    """The seeds a cycle under ``policy`` needs: two once a strategy that
    draws two parents has weight, else one."""
    return 2 if any(policy.strategy_mix.get(s, 0.0) > 0 for s in PAIRWISE) else 1


def seed_shortfall(count: int, policy: ExplorationPolicy) -> str | None:
    """Why ``count`` seeds are too few for a cycle under ``policy``, or None."""
    needed = seeds_needed(policy)
    return f"{count} seed(s), but the strategy mix needs {needed}" if count < needed else None


def generate_candidates(
    seeds: Sequence[tuple[str, np.ndarray]],
    policy: ExplorationPolicy,
) -> list[CandidateRecord]:
    """Draw exactly ``candidate_count`` candidates with full provenance.

    Per candidate: the strategy is sampled by mix weight, two distinct
    parents are drawn uniformly (one parent for perturbation), and the blend
    weight or noise seed is drawn from the applicable range. Parent pairs may
    repeat across candidates. Near-duplicate embeddings (within L-inf 1e-12
    of an earlier candidate) are regenerated once, then kept. The seeds are
    checked once, here, so each candidate is blended or perturbed without
    the public functions' checks, to the same bits.

    The near-duplicate check is screened on the first coordinate: an earlier
    candidate can be within L-inf ``DUPLICATE_TOLERANCE`` only if its first
    coordinate is, so one vector operation over the earlier first coordinates
    picks out the few worth comparing in full. The decision to redraw is the
    same as comparing every earlier candidate in full.
    """
    if not seeds:
        raise ValidationError("generate_candidates needs at least one seed")
    ids = [sid for sid, _ in seeds]
    if len(set(ids)) != len(ids):
        raise ValidationError("seed ids must be unique")
    vectors = [as_vector(v, name=f"seed {sid}") for sid, v in seeds]
    dim = vectors[0].size
    for sid, vec in zip(ids, vectors):
        if vec.size != dim:
            raise ValidationError(f"seed {sid} has dimension {vec.size}, expected {dim}")

    names = [s for s in STRATEGIES if policy.strategy_mix.get(s, 0.0) > 0]
    weights = np.array([policy.strategy_mix[s] for s in names], dtype=float)
    probs = weights / weights.sum()
    if len(seeds) < seeds_needed(policy):
        pairwise = [s for s in PAIRWISE if s in names]
        raise ValidationError(f"{pairwise} requested with a single seed")

    sigma = policy.sigma
    if sigma is None:
        sigma = 0.1 * float(np.mean([np.linalg.norm(v) for v in vectors]))

    rng = np.random.default_rng(policy.rng_seed)
    candidates: list[CandidateRecord] = []

    def draw(index: int) -> CandidateRecord:
        strategy = names[int(rng.choice(len(names), p=probs))]
        if strategy == "perturb":
            parent = int(rng.integers(len(seeds)))
            noise_seed = int(rng.integers(0, 2**63 - 1))
            embedding = _drift(vectors[parent], sigma, noise_seed)
            prov = Provenance(kind="perturb", parents=(ids[parent],),
                              sigma=sigma, noise_seed=noise_seed)
        else:
            i, j = (int(x) for x in rng.choice(len(seeds), size=2, replace=False))
            if strategy == "interpolate":
                weight = float(rng.uniform(*policy.blend_range))
            else:
                weight = _sample_outside_unit(rng, policy.extrapolation_range)
            embedding = _blend(vectors[i], vectors[j], weight)
            prov = Provenance(kind=strategy, parents=(ids[i], ids[j]), weight=weight)
        return CandidateRecord(id=f"cand-{index:02d}", embedding=embedding, provenance=prov)

    firsts = np.empty(policy.candidate_count)  # each candidate's first coordinate
    for index in range(policy.candidate_count):
        candidate = draw(index)
        embedding = candidate.embedding
        near = np.flatnonzero(np.abs(firsts[:index] - embedding[0]) <= DUPLICATE_TOLERANCE)
        if any(_near_duplicate(embedding, candidates[k].embedding) for k in near):
            candidate = draw(index)
        firsts[index] = candidate.embedding[0]
        candidates.append(candidate)
    return candidates


def _near_duplicate(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` lies within L-inf ``DUPLICATE_TOLERANCE`` of ``b``."""
    return bool(np.max(np.abs(a - b)) <= DUPLICATE_TOLERANCE)
