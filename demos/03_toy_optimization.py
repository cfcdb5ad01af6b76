"""One full optimization cycle over the exactly-invertible toy prompt space.

Toy prompts are canonical strings like "tone=0.3;steps=0.7 {text}", so the
encoder and decoder are exact inverses and the whole loop runs against
deterministic in-process mocks. The scripted task backend scores a prompt by
how close its toy vector sits to a hidden target, so the printed run shows
real optimization: interpolated candidates land nearer the target than any
seed.
"""

import numpy as np

from lpo import (
    Budget,
    BackendConfig,
    Dataset,
    DecodeStrategy,
    EncoderSpec,
    EvalConfig,
    Example,
    ExplorationPolicy,
    OptimizerConfig,
    ToySpaceSpec,
    iterate,
    validate_template,
)

PARAMS = ("tone", "steps")
TARGET = (0.62, 0.55)


def toy_seed(tid, x, y):
    x, y = float(x), float(y)
    return validate_template(f"tone={x!r};steps={y!r} {{text}}", template_id=tid)


def main():
    spec = ToySpaceSpec(PARAMS)
    # five seeds on a circle around the middle of the unit square; the target
    # is off-center, so blends of the right seed pairs score strictly better
    angles = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
    seeds = [toy_seed(f"seed-{i}", 0.5 + 0.45 * np.cos(a), 0.5 + 0.45 * np.sin(a))
             for i, a in enumerate(angles)]

    examples = [Example(text=f"sample-{i:02d}", label="positive" if i % 2 else "negative")
                for i in range(1, 21)]
    eval_set = Dataset(examples=tuple(examples), label_set=("negative", "positive"))

    embed_backend = BackendConfig(kind="mock", behavior="toy",
                                  params={"parameters": list(PARAMS)})
    refine_backend = BackendConfig(kind="mock", behavior="toy_chat")
    task_backend = BackendConfig(
        kind="mock", behavior="toy_task",
        params={"parameters": list(PARAMS), "target": list(TARGET),
                "examples": [{"text": e.text, "label": e.label} for e in examples]})
    extraction_backend = BackendConfig(kind="mock", behavior="fixed",
                                       params={"reply": "unparsed"})

    cfg = OptimizerConfig(
        policy=ExplorationPolicy(rng_seed=7, candidate_count=15),
        encoder=EncoderSpec(backend=embed_backend, dimension=2),
        decode=DecodeStrategy(kind="toy_inverse", toy_space=spec, chat=refine_backend),
        select_n=3,
        max_iterations=3,
        patience=1,
    )
    eval_cfg = EvalConfig(task_backend=task_backend,
                          extraction_backend=extraction_backend, max_examples=20)
    record = iterate(seeds, cfg, eval_cfg, eval_set,
                     Budget(max_calls=10**6, max_total_tokens=10**9))

    print(f"hidden target: {TARGET}")
    for it in record.iterations:
        print(f"\niteration {it.index}: best={it.best_accuracy:.2%} "
              f"mean={it.mean_accuracy:.2%}")
        for sp in sorted(it.scored, key=lambda s: -s.accuracy)[:4]:
            marker = "*" if sp.template.id in it.selected_ids else " "
            print(f"  {marker} {sp.accuracy:.2%}  {sp.template.id:<14} {sp.template.text}")
    print(f"\nbudget used: {record.budget_calls} calls, {record.budget_tokens} tokens")


if __name__ == "__main__":
    main()
