import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpo import explorer
from lpo.errors import ValidationError
from lpo.explorer import (
    DUPLICATE_TOLERANCE,
    MAX_CANDIDATES,
    STRATEGIES,
    CandidateRecord,
    ExplorationPolicy,
    Provenance,
    _sample_outside_unit,
    extrapolate,
    generate_candidates,
    interpolate,
    perturb,
)


class TestInterpolate:
    def test_midpoint(self):
        assert np.array_equal(interpolate([1.0, 0.0], [0.0, 1.0], 0.5), [0.5, 0.5])

    def test_identical_parents(self):
        e = np.array([0.2, -1.5, 3.0])
        assert np.allclose(interpolate(e, e, 0.3), e)

    def test_weighted_blend(self):
        assert np.array_equal(interpolate([2.0, 4.0], [0.0, 0.0], 0.75), [1.5, 3.0])

    def test_weight_out_of_range(self):
        with pytest.raises(ValidationError, match="outside"):
            interpolate([1.0], [2.0], 1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimension"):
            interpolate([1.0, 2.0], [1.0], 0.5)

    def test_endpoint_and_symmetry_identities(self):
        rng = np.random.default_rng(11)
        for d in (2, 8, 64):
            for _ in range(200):
                a = rng.standard_normal(d)
                b = rng.standard_normal(d)
                w = float(rng.uniform(0, 1))
                assert np.array_equal(interpolate(a, b, 1.0), a)
                assert np.array_equal(interpolate(a, b, 0.0), b)
                assert np.array_equal(interpolate(a, b, w), interpolate(b, a, 1.0 - w))

    def test_convexity(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            r = interpolate(a, b, float(rng.uniform(0, 1)))
            assert np.all(r >= np.minimum(a, b))
            assert np.all(r <= np.maximum(a, b))


class TestExtrapolate:
    def test_beyond_first_parent(self):
        assert np.array_equal(extrapolate([1.0, 0.0], [0.0, 1.0], 2.0), [2.0, -1.0])

    def test_behind_second_parent(self):
        assert np.array_equal(extrapolate([1.0, 0.0], [0.0, 1.0], -1.0), [-1.0, 2.0])

    def test_interior_weight_rejected(self):
        with pytest.raises(ValidationError, match="use interpolate"):
            extrapolate([1.0], [0.0], 0.5)

    def test_antisymmetry_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            assert np.array_equal(extrapolate(a, b, 2.0), 2.0 * a - b)


class TestPerturb:
    def test_zero_sigma_is_identity(self):
        e = np.array([1.0, -2.0, 0.5])
        out = perturb(e, 0.0, noise_seed=5)
        assert np.array_equal(out, e)
        assert out is not e  # defensive copy

    def test_deterministic_given_seed(self):
        e = np.zeros(8)
        assert np.array_equal(perturb(e, 1.0, 42), perturb(e, 1.0, 42))

    def test_different_seeds_differ(self):
        e = np.zeros(8)
        assert not np.array_equal(perturb(e, 1.0, 1), perturb(e, 1.0, 2))

    def test_negative_sigma(self):
        with pytest.raises(ValidationError, match="sigma"):
            perturb([1.0], -0.5, 0)

    def test_noise_statistics(self):
        # Monte Carlo check against the zero-mean isotropic noise model:
        # with N draws the per-coordinate sample mean is within 4/sqrt(N) of 0
        # and the sample variance within 10% of sigma^2.
        n_draws, dim, sigma = 10_000, 8, 1.0
        base = np.zeros(dim)
        noise = np.array([perturb(base, sigma, seed) for seed in range(n_draws)])
        assert np.all(np.abs(noise.mean(axis=0)) <= 4.0 / np.sqrt(n_draws))
        assert np.all(np.abs(noise.var(axis=0) - sigma**2) <= 0.1 * sigma**2)


def seed_vectors(count=5, dim=4, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return [(f"s{i}", rng.standard_normal(dim)) for i in range(count)]


class TestGenerateCandidates:
    def test_five_seeds_fifteen_candidates(self):
        policy = ExplorationPolicy(rng_seed=1, candidate_count=15)
        candidates = generate_candidates(seed_vectors(), policy)
        assert len(candidates) == 15
        for c in candidates:
            assert c.provenance.kind == "interpolate"
            assert 0.35 <= c.provenance.weight <= 0.65
            assert len(set(c.provenance.parents)) == 2

    def test_reproducible_given_seed(self):
        policy = ExplorationPolicy(rng_seed=7, candidate_count=10)
        a = generate_candidates(seed_vectors(), policy)
        b = generate_candidates(seed_vectors(), policy)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.embedding, cb.embedding)
            assert ca.provenance == cb.provenance

    def test_pure_perturbation_single_seed(self):
        policy = ExplorationPolicy(strategy_mix={"perturb": 1.0}, rng_seed=3,
                                   candidate_count=3)
        candidates = generate_candidates(seed_vectors(count=1), policy)
        assert len(candidates) == 3
        assert all(c.provenance.kind == "perturb" for c in candidates)
        assert all(len(c.provenance.parents) == 1 for c in candidates)

    def test_interpolation_needs_two_seeds(self):
        policy = ExplorationPolicy(rng_seed=0, candidate_count=2)
        with pytest.raises(ValidationError, match="single seed"):
            generate_candidates(seed_vectors(count=1), policy)

    def test_parents_reference_seed_ids(self):
        policy = ExplorationPolicy(
            strategy_mix={"interpolate": 1.0, "extrapolate": 1.0, "perturb": 1.0},
            rng_seed=5, candidate_count=30)
        seeds = seed_vectors()
        ids = {sid for sid, _ in seeds}
        for c in generate_candidates(seeds, policy):
            assert set(c.provenance.parents) <= ids

    def test_extrapolation_weights_outside_unit(self):
        policy = ExplorationPolicy(strategy_mix={"extrapolate": 1.0}, rng_seed=5,
                                   candidate_count=40)
        for c in generate_candidates(seed_vectors(), policy):
            w = c.provenance.weight
            assert (-0.5 <= w < 0.0) or (1.0 < w <= 1.5)

    def test_perturbation_replayable_from_provenance(self):
        policy = ExplorationPolicy(strategy_mix={"perturb": 1.0}, rng_seed=9,
                                   candidate_count=5, sigma=0.25)
        seeds = seed_vectors()
        by_id = dict(seeds)
        for c in generate_candidates(seeds, policy):
            parent = by_id[c.provenance.parents[0]]
            replay = perturb(parent, c.provenance.sigma, c.provenance.noise_seed)
            assert np.array_equal(replay, c.embedding)

    def test_default_sigma_scales_with_seed_norms(self):
        policy = ExplorationPolicy(strategy_mix={"perturb": 1.0}, rng_seed=2,
                                   candidate_count=4)
        seeds = seed_vectors()
        expected = 0.1 * float(np.mean([np.linalg.norm(v) for _, v in seeds]))
        for c in generate_candidates(seeds, policy):
            assert c.provenance.sigma == pytest.approx(expected, rel=1e-12)

    def test_strategy_mix_ratios(self):
        policy = ExplorationPolicy(
            strategy_mix={"interpolate": 1.0, "perturb": 1.0},
            rng_seed=17, candidate_count=400)
        kinds = [c.provenance.kind for c in generate_candidates(seed_vectors(), policy)]
        share = kinds.count("interpolate") / len(kinds)
        assert 0.4 <= share <= 0.6

    def test_duplicate_seed_ids_rejected(self):
        policy = ExplorationPolicy(rng_seed=0, candidate_count=2)
        rng = np.random.default_rng(0)
        seeds = [("s", rng.standard_normal(3)), ("s", rng.standard_normal(3))]
        with pytest.raises(ValidationError, match="unique"):
            generate_candidates(seeds, policy)

    def test_unavoidable_duplicates_kept_after_one_retry(self):
        # coincident seeds make every interpolation identical; candidates are
        # regenerated once and then kept rather than looping forever
        point = np.array([0.4, 0.6])
        seeds = [("a", point.copy()), ("b", point.copy())]
        policy = ExplorationPolicy(rng_seed=1, candidate_count=4)
        candidates = generate_candidates(seeds, policy)
        assert len(candidates) == 4
        for c in candidates:
            assert np.array_equal(c.embedding, point)

    def test_distinct_seeds_yield_distinct_candidates(self):
        policy = ExplorationPolicy(rng_seed=2, candidate_count=15)
        candidates = generate_candidates(seed_vectors(), policy)
        for i, a in enumerate(candidates):
            for b in candidates[i + 1:]:
                assert np.max(np.abs(a.embedding - b.embedding)) > 1e-12


class TestPolicyValidation:
    def test_zero_candidates(self):
        with pytest.raises(ValidationError, match="candidate_count"):
            ExplorationPolicy(candidate_count=0)

    def test_all_zero_weights(self):
        with pytest.raises(ValidationError, match="not all be zero"):
            ExplorationPolicy(strategy_mix={"interpolate": 0.0})

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError, match="unknown strategies"):
            ExplorationPolicy(strategy_mix={"teleport": 1.0})

    def test_blend_range_bounds(self):
        with pytest.raises(ValidationError, match="blend_range"):
            ExplorationPolicy(blend_range=(0.2, 1.2))

    @pytest.mark.parametrize("kwargs", [
        {"strategy_mix": {"interpolate": math.nan}},
        {"strategy_mix": {"interpolate": math.inf}},
        {"strategy_mix": {"interpolate": 1e308, "perturb": 1e308}},
        {"extrapolation_range": ((math.nan, math.nan), (1.0, 1.5))},
        {"extrapolation_range": ((-math.inf, 0.0), (1.0, 1.5))},
        {"sigma": math.nan},
        {"sigma": math.inf},
    ])
    def test_non_finite_settings(self, kwargs):
        with pytest.raises(ValidationError, match="must be finite"):
            ExplorationPolicy(**kwargs)

    def test_negative_rng_seed(self):
        with pytest.raises(ValidationError, match="rng_seed must be >= 0"):
            ExplorationPolicy(rng_seed=-1)

    def test_provenance_weight_consistency(self):
        with pytest.raises(ValidationError, match="outside"):
            Provenance(kind="interpolate", parents=("a", "b"), weight=1.2)
        with pytest.raises(ValidationError, match="inside"):
            Provenance(kind="extrapolate", parents=("a", "b"), weight=0.5)


COORD = st.floats(-1e3, 1e3)
OUTSIDE_UNIT = st.floats(-10.0, 10.0).filter(lambda w: not 0.0 <= w <= 1.0)


@st.composite
def parent_pairs(draw):
    d = draw(st.integers(1, 6))
    return draw(arrays(np.float64, d, elements=COORD)), draw(arrays(np.float64, d, elements=COORD))


def on_line(out, a, b, weight) -> bool:
    """``out`` is the point ``b + weight * (a - b)`` up to rounding."""
    scale = 1.0 + max(np.max(np.abs(a)), np.max(np.abs(b))) * (1.0 + abs(weight))
    return bool(np.allclose(out, b + weight * (a - b), rtol=0.0, atol=1e-12 * scale))


class TestAlgebraProperties:
    @settings(max_examples=150, deadline=None)
    @given(parent_pairs(), st.floats(0.0, 1.0))
    def test_interpolate_stays_on_the_segment(self, parents, weight):
        a, b = parents
        out = interpolate(a, b, weight)
        assert on_line(out, a, b, weight)
        slack = 1e-12 * (1.0 + np.maximum(np.abs(a), np.abs(b)))
        assert np.all(out >= np.minimum(a, b) - slack)
        assert np.all(out <= np.maximum(a, b) + slack)

    @settings(max_examples=150, deadline=None)
    @given(parent_pairs(), OUTSIDE_UNIT)
    def test_extrapolate_stays_on_the_line(self, parents, weight):
        a, b = parents
        assert on_line(extrapolate(a, b, weight), a, b, weight)

    @settings(max_examples=100, deadline=None)
    @given(parent_pairs(), st.one_of(OUTSIDE_UNIT, st.floats(allow_nan=False).filter(
        lambda w: not 0.0 <= w <= 1.0)))
    def test_interpolate_rejects_weights_outside_the_unit_interval(self, parents, weight):
        with pytest.raises(ValidationError, match="outside"):
            interpolate(*parents, weight)

    @settings(max_examples=100, deadline=None)
    @given(parent_pairs(), st.floats(0.0, 1.0))
    def test_extrapolate_rejects_weights_inside_the_unit_interval(self, parents, weight):
        with pytest.raises(ValidationError, match="inside"):
            extrapolate(*parents, weight)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["interpolate", "extrapolate"]), st.floats())
    @example("extrapolate", math.nan)
    @example("extrapolate", math.inf)
    @example("interpolate", -math.inf)
    @example("interpolate", 0.0)
    @example("extrapolate", 1.0)
    def test_blends_accept_a_weight_exactly_when_provenance_does(self, kind, weight):
        blend = {"interpolate": interpolate, "extrapolate": extrapolate}[kind]
        zero = np.zeros(2)
        try:
            Provenance(kind=kind, parents=("a", "b"), weight=weight)
        except ValidationError:
            with pytest.raises(ValidationError):
                blend(zero, zero, weight)
        else:
            # a finite weight blends zero endpoints to zero; NaN or inf would not
            assert np.array_equal(blend(zero, zero, weight), zero)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.integers(1, 8), elements=COORD), st.integers(0, 2**63 - 1))
    def test_perturb_at_sigma_zero_returns_an_equal_copy(self, vec, noise_seed):
        out = perturb(vec, 0.0, noise_seed)
        assert np.array_equal(out, vec)
        assert not np.shares_memory(out, vec)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(2, 5), st.integers(1, 4),
           st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 0),
           st.integers(0, 2**32), st.integers(1, 12))
    def test_generate_candidates_is_reproducible_from_rng_seed(self, data, n_seeds, d, mix,
                                                              rng_seed, count):
        seeds = [(f"s{i}", data.draw(arrays(np.float64, d, elements=st.floats(-10.0, 10.0))))
                 for i in range(n_seeds)]
        policy = ExplorationPolicy(strategy_mix=dict(zip(STRATEGIES, mix)),
                                   rng_seed=rng_seed, candidate_count=count)
        first = generate_candidates(seeds, policy)
        again = generate_candidates([(sid, vec.copy()) for sid, vec in seeds], policy)
        assert len(first) == count
        assert [(c.id, c.provenance) for c in first] == [(c.id, c.provenance) for c in again]
        assert all(np.array_equal(x.embedding, y.embedding) for x, y in zip(first, again))


def pairwise_reference(seeds, policy):
    """``generate_candidates`` with the scan it had before the first-coordinate
    screen: each candidate compared in full with every earlier one."""
    ids = [sid for sid, _ in seeds]
    vectors = [np.asarray(v, dtype=float) for _, v in seeds]
    names = [s for s in STRATEGIES if policy.strategy_mix.get(s, 0.0) > 0]
    weights = np.array([policy.strategy_mix[s] for s in names], dtype=float)
    probs = weights / weights.sum()
    sigma = policy.sigma
    if sigma is None:
        sigma = 0.1 * float(np.mean([np.linalg.norm(v) for v in vectors]))
    rng = np.random.default_rng(policy.rng_seed)
    candidates = []

    def draw(index):
        strategy = names[int(rng.choice(len(names), p=probs))]
        if strategy == "perturb":
            parent = int(rng.integers(len(seeds)))
            noise_seed = int(rng.integers(0, 2**63 - 1))
            embedding = perturb(vectors[parent], sigma, noise_seed)
            prov = Provenance(kind="perturb", parents=(ids[parent],),
                              sigma=sigma, noise_seed=noise_seed)
        else:
            i, j = (int(x) for x in rng.choice(len(seeds), size=2, replace=False))
            if strategy == "interpolate":
                weight = float(rng.uniform(*policy.blend_range))
                embedding = interpolate(vectors[i], vectors[j], weight)
            else:
                weight = _sample_outside_unit(rng, policy.extrapolation_range)
                embedding = extrapolate(vectors[i], vectors[j], weight)
            prov = Provenance(kind=strategy, parents=(ids[i], ids[j]), weight=weight)
        return CandidateRecord(id=f"cand-{index:02d}", embedding=embedding, provenance=prov)

    for index in range(policy.candidate_count):
        candidate = draw(index)
        if any(
            np.max(np.abs(candidate.embedding - prior.embedding)) <= DUPLICATE_TOLERANCE
            for prior in candidates
        ):
            candidate = draw(index)
        candidates.append(candidate)
    return candidates


@st.composite
def screen_cases(draw):
    """Seeds and a policy; the seeds are distinct, all one point, or share
    their first coordinate, so that the screen passes every earlier candidate."""
    d = draw(st.sampled_from([1, 2, 3, 64]))
    n_seeds = draw(st.integers(2, 5))
    layout = draw(st.sampled_from(["distinct", "coincident", "shared_first"]))
    vector = arrays(np.float64, d, elements=st.floats(-10.0, 10.0))
    if layout == "coincident":
        point = draw(vector)
        vectors = [point.copy() for _ in range(n_seeds)]
    else:
        vectors = [draw(vector) for _ in range(n_seeds)]
        if layout == "shared_first":
            for vec in vectors:
                vec[0] = vectors[0][0]
    mix = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 0))
    policy = ExplorationPolicy(strategy_mix=dict(zip(STRATEGIES, mix)),
                               sigma=draw(st.sampled_from([None, 0.0])),
                               rng_seed=draw(st.integers(0, 2**32)),
                               candidate_count=draw(st.integers(1, 200)))
    return [(f"s{i}", vec) for i, vec in enumerate(vectors)], policy


class TestNearDuplicateScreen:
    @settings(max_examples=40, deadline=None)
    @given(screen_cases())
    def test_screened_scan_draws_the_pairwise_scans_candidates(self, case):
        seeds, policy = case
        screened = generate_candidates(seeds, policy)
        reference = pairwise_reference(seeds, policy)
        assert [(c.id, c.provenance) for c in screened] == \
            [(c.id, c.provenance) for c in reference]
        assert [c.embedding.tobytes() for c in screened] == \
            [c.embedding.tobytes() for c in reference]

    def test_a_shared_first_coordinate_passes_every_earlier_candidate(self, monkeypatch):
        compared = []
        near = explorer._near_duplicate
        monkeypatch.setattr(explorer, "_near_duplicate",
                            lambda a, b: compared.append(1) or near(a, b))
        seeds = [("a", np.array([0.5, 0.1, 0.9])), ("b", np.array([0.5, 0.8, -0.3]))]
        candidates = generate_candidates(seeds, ExplorationPolicy(rng_seed=1, candidate_count=6))
        assert {c.embedding[0] for c in candidates} == {0.5}
        assert len(compared) == 1 + 2 + 3 + 4 + 5  # none is a near-duplicate

    def test_each_seed_is_checked_once_per_generation(self, monkeypatch):
        """Candidates are blended and perturbed without the public functions'
        checks; the property above shows they keep their bits."""
        checked = []
        check = explorer.as_vector
        monkeypatch.setattr(explorer, "as_vector",
                            lambda *args, **kwargs: checked.append(1) or check(*args, **kwargs))
        policy = ExplorationPolicy(strategy_mix=dict.fromkeys(STRATEGIES, 1.0), rng_seed=4,
                                   candidate_count=60)
        assert len(generate_candidates(seed_vectors(count=5, dim=16), policy)) == 60
        assert len(checked) == 5

    def test_full_comparisons_stay_few_at_the_largest_count(self, monkeypatch):
        compared = []
        near = explorer._near_duplicate
        monkeypatch.setattr(explorer, "_near_duplicate",
                            lambda a, b: compared.append(1) or near(a, b))
        policy = ExplorationPolicy(strategy_mix=dict.fromkeys(STRATEGIES, 1.0), rng_seed=4,
                                   candidate_count=MAX_CANDIDATES)
        candidates = generate_candidates(seed_vectors(count=5, dim=1024), policy)
        assert len(candidates) == MAX_CANDIDATES
        assert len(compared) <= 5  # the pairwise scan made 499,500
