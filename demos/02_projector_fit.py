"""Fit a linear projector between two embedding spaces by ridge regression.

Plants a ground-truth map, fits it back from noisy pairs, checks recovery,
and round-trips the weights, bit for bit, through the JSON weights file.
"""

import tempfile
from pathlib import Path

import numpy as np

from lpo import PairedCorpus, apply, fit_ridge, load_weights, save_weights
from lpo.projector import residual


def main():
    rng = np.random.default_rng(42)
    planted = rng.standard_normal((4, 3))  # decoder dim 4, encoder dim 3
    xs = rng.standard_normal((200, 3))
    ys = xs @ planted.T + 0.01 * rng.standard_normal((200, 4))
    corpus = PairedCorpus(inputs=xs, targets=ys)

    fitted = fit_ridge(corpus, regularization=1e-6)
    print("planted map:\n", np.round(planted, 3))
    print("fitted map:\n", np.round(fitted.weights, 3))
    print(f"recovery error (Frobenius): {np.linalg.norm(fitted.weights - planted):.5f}")
    print(f"rms residual on the corpus: {residual(fitted, corpus):.5f}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "projector.json"
        save_weights(fitted, path)
        reloaded = load_weights(path)
        assert reloaded.weights.tobytes() == fitted.weights.tobytes()
        probe = rng.standard_normal(3)
        gap = np.max(np.abs(apply(fitted, probe) - apply(reloaded, probe)))
        print(f"save/load round trip is bit-exact, max apply() gap: {gap:.2e}")

    # shrinkage: crank regularization and watch the weights collapse
    for reg in (0.0, 1.0, 100.0, 1e6):
        p = fit_ridge(corpus, regularization=reg)
        print(f"reg={reg:>9.1f}  |W|_F = {np.linalg.norm(p.weights):.4f}")


if __name__ == "__main__":
    main()
