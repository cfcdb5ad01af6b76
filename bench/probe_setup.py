"""Times lpo's set-up in a fresh interpreter and prints one JSON object.

Usage: python3 probe_setup.py SRC_DIR WORKSPACE WORKLOAD SEED

Set-up is ``import lpo``, loading the config and seeds, and loading and
splitting the dataset; on ``latent_wide`` it also fits the projector and
saves its weights, which the config then loads. ``load_s`` is one more,
separate ``load_weights`` and is not part of ``setup_s``. ``reference_s``
is ``setup_s`` scaled to reference host speed by ``gauge.Gauge``; the
single steps' times are wall times and include its samples.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    src, workspace, name, seed = sys.argv[1], Path(sys.argv[2]), sys.argv[3], int(sys.argv[4])
    from gauge import Gauge

    sys.path.insert(0, src)
    clock = time.perf_counter
    gauge = Gauge()
    with gauge:
        start = clock()
        import lpo
        from lpo.config import load_app_config, load_seed_templates
        out = {"import_s": clock() - start}

    import workloads

    w = workloads.WORKLOADS[name]
    weights = workspace / "projector.json"
    if w.latent:
        x, y = workloads.paired_corpus(w, seed)
        with gauge:
            start = clock()
            projector = lpo.fit_ridge(lpo.PairedCorpus(inputs=x, targets=y),
                                      regularization=1e-3)
            out["fit_s"] = clock() - start
            start = clock()
            lpo.save_weights(projector, weights)
            out["save_s"] = clock() - start
        out["weights_mb"] = weights.stat().st_size / 2**20

    with gauge:
        start = clock()
        app, errors = load_app_config(workspace / "config.yaml")
        seeds, seed_errors = load_seed_templates(workspace / "seeds.jsonl")
        out["config_s"] = clock() - start
    if errors or seed_errors:
        print("; ".join(errors + seed_errors), file=sys.stderr)
        return 1
    with gauge:
        start = clock()
        train = lpo.load_dataset(app.train_path, labels=app.labels)
        lpo.split_dataset(train, app.split)
        out["dataset_s"] = clock() - start
    out["setup_s"] = sum(out.get(k, 0.0) for k in
                         ("import_s", "fit_s", "save_s", "config_s", "dataset_s"))
    out["reference_s"] = gauge.scaled()
    if w.latent:
        start = clock()
        lpo.load_weights(weights)
        out["load_s"] = clock() - start
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
