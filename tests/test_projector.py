import base64
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpo import core
from lpo import projector as projector_module
from lpo.errors import ValidationError
from lpo.projector import (
    CONDITION_LIMIT,
    LinearProjector,
    PairedCorpus,
    apply,
    fit_ridge,
    load_paired_corpus,
    load_weights,
    residual,
    save_weights,
)

# negative zero, the smallest and largest subnormals, and the ends of the range
SPECIAL = (-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308)
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


def ridge_objective(weights, bias, corpus, reg):
    """Independent objective: sum ||Wx+b-y||^2 + reg * ||W||_F^2."""
    pred = corpus.inputs @ np.asarray(weights).T
    if bias is not None:
        pred = pred + bias
    return float(np.sum((pred - corpus.targets) ** 2) + reg * np.sum(np.square(weights)))


def lstsq_ridge_oracle(corpus, reg):
    """Independent solver: least squares on the ridge-augmented system."""
    x, y = corpus.inputs, corpus.targets
    d = x.shape[1]
    aug_x = np.vstack([x, np.sqrt(reg) * np.eye(d)])
    aug_y = np.vstack([y, np.zeros((d, y.shape[1]))])
    solution, *_ = np.linalg.lstsq(aug_x, aug_y, rcond=None)
    return solution.T  # (m, d)


class TestApply:
    def test_identity(self):
        p = LinearProjector(weights=np.eye(2))
        assert np.array_equal(apply(p, [3.0, 4.0]), [3.0, 4.0])

    def test_diagonal(self):
        p = LinearProjector(weights=np.array([[2.0, 0.0], [0.0, 3.0]]))
        assert np.array_equal(apply(p, [1.0, 1.0]), [2.0, 3.0])

    def test_zero_matrix(self):
        p = LinearProjector(weights=np.zeros((3, 2)))
        assert np.array_equal(apply(p, [5.0, -1.0]), [0.0, 0.0, 0.0])

    def test_bias_added(self):
        p = LinearProjector(weights=np.eye(2), bias=np.array([10.0, 20.0]))
        assert np.array_equal(apply(p, [1.0, 2.0]), [11.0, 22.0])

    def test_dimension_mismatch(self):
        p = LinearProjector(weights=np.eye(2))
        with pytest.raises(ValidationError, match="dimension"):
            apply(p, [1.0, 2.0, 3.0])

    def test_rectangular_projection(self):
        p = LinearProjector(weights=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))
        assert np.array_equal(apply(p, [1.0, 2.0, 3.0]), [1.0, 5.0])
        assert p.input_dim == 3
        assert p.output_dim == 2

    def test_linearity(self):
        rng = np.random.default_rng(4)
        p = LinearProjector(weights=rng.standard_normal((3, 4)),
                            bias=rng.standard_normal(3))
        for _ in range(20):
            e1 = rng.uniform(-1, 1, 4)
            e2 = rng.uniform(-1, 1, 4)
            alpha = float(rng.uniform(-2, 2))
            lhs = apply(p, e1 + e2)
            rhs = apply(p, e1) + apply(p, e2) - p.bias
            assert np.allclose(lhs, rhs, atol=1e-9)
            lhs = apply(p, alpha * e1)
            rhs = alpha * apply(p, e1) + (1 - alpha) * p.bias
            assert np.allclose(lhs, rhs, atol=1e-9)


class TestFitRidge:
    def test_exact_full_rank_interpolation(self):
        corpus = PairedCorpus.from_pairs([([1.0, 0.0], [2.0, 0.0]),
                                          ([0.0, 1.0], [0.0, 3.0])])
        p = fit_ridge(corpus, regularization=0.0)
        assert np.allclose(p.weights, [[2.0, 0.0], [0.0, 3.0]], atol=1e-12)
        assert residual(p, corpus) < 1e-8

    def test_huge_regularization_shrinks_to_zero(self):
        corpus = PairedCorpus.from_pairs([([1.0, 0.0], [2.0, 0.0]),
                                          ([0.0, 1.0], [0.0, 3.0])])
        p = fit_ridge(corpus, regularization=1e9)
        assert np.linalg.norm(p.weights) < 1e-6

    def test_planted_map_recovery(self):
        # oracle-first: the planted 4x3 map defines truth; an independent
        # lstsq solve of the same ridge problem cross-checks the solver
        rng = np.random.default_rng(42)
        planted = rng.standard_normal((4, 3))
        xs = rng.standard_normal((50, 3))
        ys = xs @ planted.T + 0.01 * rng.standard_normal((50, 4))
        corpus = PairedCorpus(inputs=xs, targets=ys)
        reg = 1e-6
        p = fit_ridge(corpus, regularization=reg)
        assert np.linalg.norm(p.weights - planted) < 0.05
        oracle = lstsq_ridge_oracle(corpus, reg)
        assert np.linalg.norm(p.weights - oracle) < 1e-8

    def test_rank_deficient_advises_regularization(self):
        # both samples lie on the same input direction
        corpus = PairedCorpus.from_pairs([([1.0, 1.0], [1.0]), ([2.0, 2.0], [2.0])])
        with pytest.raises(ValidationError, match="regularization > 0"):
            fit_ridge(corpus, regularization=0.0)
        p = fit_ridge(corpus, regularization=1e-3)  # regularized solve succeeds
        assert np.all(np.isfinite(p.weights))

    def test_cholesky_failure_advises_regularization(self, monkeypatch):
        def not_positive_definite(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
        corpus = PairedCorpus.from_pairs([([1.0, 0.0], [1.0]), ([0.0, 1.0], [2.0])])
        with pytest.raises(ValidationError, match="not positive definite.*regularization > 0"):
            fit_ridge(corpus, regularization=1e-3)

    def test_rank_deficient_designs_are_rejected(self):
        # more unknowns than pairs, a repeated column, an all-zero column
        rng = np.random.default_rng(11)
        wide = rng.standard_normal((3, 5))
        twin = rng.standard_normal((20, 3))
        twin[:, 2] = twin[:, 0]
        zero = rng.standard_normal((20, 3))
        zero[:, 1] = 0.0
        for xs in (wide, twin, zero):
            corpus = PairedCorpus(inputs=xs, targets=rng.standard_normal((xs.shape[0], 2)))
            with pytest.raises(ValidationError, match=r"rank-deficient \(condition estimate "
                                                      r".*\); set regularization > 0"):
                fit_ridge(corpus, regularization=0.0)

    def test_bias_fits_affine_map(self):
        rng = np.random.default_rng(8)
        w = np.array([[1.5, -0.5], [0.25, 2.0]])
        b = np.array([0.7, -1.2])
        xs = rng.standard_normal((30, 2))
        ys = xs @ w.T + b
        p = fit_ridge(PairedCorpus(inputs=xs, targets=ys), regularization=0.0,
                      with_bias=True)
        assert np.allclose(p.weights, w, atol=1e-9)
        assert np.allclose(p.bias, b, atol=1e-9)

    def test_negative_regularization(self):
        corpus = PairedCorpus.from_pairs([([1.0], [1.0])])
        with pytest.raises(ValidationError, match="regularization"):
            fit_ridge(corpus, regularization=-1.0)

    def test_objective_monotone_in_regularization(self):
        # the optimal objective value never increases when reg decreases
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((20, 2))
        ys = xs @ np.array([[1.0, 2.0]]).T + 0.1 * rng.standard_normal((20, 1))
        corpus = PairedCorpus(inputs=xs, targets=ys)
        regs = [10.0, 1.0, 0.1, 0.01, 0.0]
        values = []
        for reg in regs:
            p = fit_ridge(corpus, regularization=reg)
            values.append(ridge_objective(p.weights, None, corpus, reg))
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_beats_brute_force_grid(self):
        # 1-D instance small enough for a dense grid over candidate weights
        xs = np.array([[1.0], [2.0], [3.0]])
        ys = np.array([[2.0], [4.0], [5.5]])
        corpus = PairedCorpus(inputs=xs, targets=ys)
        reg = 1.0
        p = fit_ridge(corpus, regularization=reg)
        closed = ridge_objective(p.weights, None, corpus, reg)
        grid = np.linspace(-1.0, 4.0, 50001)
        grid_best = min(
            float(np.sum((xs[:, 0] * w - ys[:, 0]) ** 2) + reg * w * w) for w in grid)
        assert closed <= grid_best + 1e-7


class TestWeightsFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        p = LinearProjector(weights=rng.standard_normal((3, 2)),
                            bias=rng.standard_normal(3))
        path = tmp_path / "w.json"
        save_weights(p, path)
        loaded = load_weights(path)
        assert np.array_equal(loaded.weights, p.weights)
        assert np.array_equal(loaded.bias, p.bias)
        for _ in range(10):
            e = rng.standard_normal(2)
            assert np.max(np.abs(apply(loaded, e) - apply(p, e))) <= 1e-12

    def test_round_trip_without_bias(self, tmp_path):
        p = LinearProjector(weights=np.array([[1.0, 2.0]]))
        path = tmp_path / "w.json"
        save_weights(p, path)
        assert load_weights(path).bias is None

    def test_truncated_file(self, tmp_path):
        p = LinearProjector(weights=np.eye(3))
        path = tmp_path / "w.json"
        save_weights(p, path)
        content = path.read_text()
        path.write_text(content[: len(content) // 2])
        with pytest.raises(ValidationError, match="unreadable"):
            load_weights(path)

    def test_header_shape_mismatch(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            "input_dim": 2, "output_dim": 3, "has_bias": False,
            "weights": [1.0, 2.0, 3.0, 4.0, 5.0],
        }))
        with pytest.raises(ValidationError, match="3x2 but 5 numbers"):
            load_weights(path)

    def test_promised_bias_missing(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            "input_dim": 1, "output_dim": 1, "has_bias": True, "weights": [1.0],
        }))
        with pytest.raises(ValidationError, match="bias"):
            load_weights(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_weights(tmp_path / "none.json")


class TestCondition:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 24), st.integers(0, 2**32 - 1))
    def test_equals_numpy_cond_on_spd_systems(self, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((d + 8, d))
        system = x.T @ x + 1e-3 * np.eye(d)
        assert (projector_module._condition(system)
                == pytest.approx(np.linalg.cond(system), rel=1e-9))

    def test_singular_system_is_infinitely_conditioned(self):
        assert projector_module._condition(np.zeros((3, 3))) == float("inf")
        assert projector_module._condition(np.ones((2, 2))) > CONDITION_LIMIT


def old_save_weights(projector, path):
    """The list-of-numbers writer of earlier versions, kept to make old files."""
    payload = {
        "input_dim": projector.input_dim,
        "output_dim": projector.output_dim,
        "has_bias": projector.bias is not None,
        "weights": [float(v) for v in projector.weights.ravel()],
    }
    if projector.bias is not None:
        payload["bias"] = [float(v) for v in projector.bias]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def projectors():
    shapes = st.tuples(st.integers(1, 64), st.integers(1, 64))
    return shapes.flatmap(lambda shape: st.tuples(
        arrays(np.float64, shape, elements=FLOATS),
        st.none() | arrays(np.float64, shape[0], elements=FLOATS),
    )).map(lambda wb: LinearProjector(weights=wb[0], bias=wb[1]))


def assert_bit_equal(loaded, projector):
    assert loaded.weights.shape == projector.weights.shape
    assert loaded.weights.tobytes() == projector.weights.tobytes()
    if projector.bias is None:
        assert loaded.bias is None
    else:
        assert loaded.bias.tobytes() == projector.bias.tobytes()


class TestExactWeights:
    @settings(max_examples=60, deadline=None)
    @given(projectors())
    @example(LinearProjector(weights=np.array([SPECIAL]), bias=np.array([-0.0])))
    def test_round_trip_is_bit_exact_and_saves_repeat(self, projector):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
            save_weights(projector, first)
            save_weights(LinearProjector(weights=projector.weights.copy(),
                                         bias=projector.bias), second)
            assert first.read_bytes() == second.read_bytes()
            assert_bit_equal(load_weights(first), projector)

    @settings(max_examples=40, deadline=None)
    @given(projectors())
    @example(LinearProjector(weights=np.array([SPECIAL]), bias=np.array([-0.0])))
    def test_list_files_of_earlier_versions_load_bit_equal(self, projector):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "old.json")
            old_save_weights(projector, path)
            assert_bit_equal(load_weights(path), projector)

    def test_file_is_a_readable_header_and_base64_float64(self, tmp_path):
        weights = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "w.json"
        save_weights(LinearProjector(weights=weights, bias=np.array([0.5, -0.5])), path)
        text = path.read_text()
        assert text.splitlines()[1:4] == [' "input_dim": 3,', ' "output_dim": 2,',
                                          ' "has_bias": true,']
        payload = json.loads(text)
        decoded = np.frombuffer(base64.b64decode(payload["weights_b64"]), "<f8")
        assert np.array_equal(decoded.reshape(2, 3), weights)
        assert np.array_equal(np.frombuffer(base64.b64decode(payload["bias_b64"]), "<f8"),
                              [0.5, -0.5])
        assert "weights" not in payload

    def test_loaded_weights_are_writable(self, tmp_path):
        path = tmp_path / "w.json"
        save_weights(LinearProjector(weights=np.eye(2)), path)
        loaded = load_weights(path)
        loaded.weights[0, 0] = 3.0
        assert loaded.weights[0, 0] == 3.0


class TestCorruptWeights:
    def write(self, path, **fields):
        payload = {"input_dim": 2, "output_dim": 2, "has_bias": False,
                   "weights_b64": core.encode_float64(np.eye(2).ravel())}
        payload.update(fields)
        path.write_text(json.dumps(payload))
        return path

    def test_invalid_base64(self, tmp_path):
        path = self.write(tmp_path / "w.json", weights_b64="not*base64!")
        with pytest.raises(ValidationError, match=f"{path}.*weights_b64 is not valid base64"):
            load_weights(path)

    def test_byte_length_other_than_eight_per_weight(self, tmp_path):
        short = core.encode_float64(np.ones(3))
        path = self.write(tmp_path / "w.json", weights_b64=short)
        with pytest.raises(ValidationError,
                           match=f"{path} header says 2x2 but weights_b64 holds 24 bytes, not 32"):
            load_weights(path)
        odd = base64.b64encode(b"\x00" * 33).decode()
        with pytest.raises(ValidationError, match="holds 33 bytes"):
            load_weights(self.write(path, weights_b64=odd))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, tmp_path, bad):
        path = self.write(tmp_path / "w.json",
                          weights_b64=core.encode_float64([1.0, bad, 0.0, 1.0]))
        with pytest.raises(ValidationError, match=f"{path}: .*non-finite"):
            load_weights(path)
        self.write(path, has_bias=True, bias_b64=core.encode_float64([0.0, bad]))
        with pytest.raises(ValidationError, match=f"{path}: .*non-finite"):
            load_weights(path)

    def test_truncated_base64_file(self, tmp_path):
        path = tmp_path / "w.json"
        save_weights(LinearProjector(weights=np.eye(8), bias=np.ones(8)), path)
        content = path.read_bytes()
        for cut in (len(content) // 2, len(content) - 3):
            path.write_bytes(content[:cut])
            with pytest.raises(ValidationError, match=f"unreadable weight file {path}"):
                load_weights(path)

    def test_bias_of_wrong_length(self, tmp_path):
        path = self.write(tmp_path / "w.json", has_bias=True,
                          bias_b64=core.encode_float64([1.0]))
        with pytest.raises(ValidationError, match=f"{path} header says 2 but bias_b64"):
            load_weights(path)

    @pytest.mark.parametrize("dims", [(0, 2), (2, -1)])
    def test_dimensions_below_one(self, tmp_path, dims):
        path = self.write(tmp_path / "w.json", input_dim=dims[0], output_dim=dims[1])
        with pytest.raises(ValidationError, match=f"{path} header says .*both must be >= 1"):
            load_weights(path)

    def test_weights_field_missing(self, tmp_path):
        path = self.write(tmp_path / "w.json")
        payload = json.loads(path.read_text())
        del payload["weights_b64"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=f"{path} has no weights_b64 or weights"):
            load_weights(path)


class TestAtomicWeightsWrite:
    def test_failure_part_way_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "projector.json"
        save_weights(LinearProjector(weights=np.eye(4)), path)
        before = path.read_bytes()

        class FailingFile:
            """Writes half of the first chunk it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError("no space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

        monkeypatch.setattr(core, "open", lambda *a, **k: FailingFile(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="no space left"):
            save_weights(LinearProjector(weights=2 * np.eye(4)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["projector.json"]
        assert np.array_equal(load_weights(path).weights, np.eye(4))


class TestPairedCorpus:
    def test_from_jsonl(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        rows = [{"x": [1.0, 0.0], "y": [2.0]}, {"x": [0.0, 1.0], "y": [3.0]}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        corpus = load_paired_corpus(path)
        assert corpus.inputs.shape == (2, 2)
        assert corpus.targets.shape == (2, 1)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps({"x": [1.0]}) + "\n")
        with pytest.raises(ValidationError, match="'x' and 'y'"):
            load_paired_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            load_paired_corpus(path)

    def test_inconsistent_dimensions(self):
        with pytest.raises(ValidationError):
            PairedCorpus.from_pairs([([1.0], [1.0]), ([1.0, 2.0], [1.0])])

    def test_needs_one_pair(self):
        with pytest.raises(ValidationError, match="at least one pair"):
            PairedCorpus.from_pairs([])
