import json

import numpy as np
import pytest

from lpo.errors import ValidationError
from lpo.projector import (
    LinearProjector,
    PairedCorpus,
    apply,
    fit_ridge,
    load_paired_corpus,
    load_weights,
    residual,
    save_weights,
)


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
