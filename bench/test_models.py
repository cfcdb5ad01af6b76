"""The benchmark's models answer as the mocks they stand in for.

Run with ``python -m pytest bench``; the tests put ``src/`` on the path.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lpo import gateway  # noqa: E402
from lpo.core import Example, render_prompt, validate_template  # noqa: E402
from lpo.evaluator import EvalConfig, extract_label  # noqa: E402

import models  # noqa: E402

LABELS = ("negative", "neutral", "positive")
TARGET = (0.6, 0.45)


def _examples(n: int, rng: random.Random) -> list[Example]:
    return [Example(text=models.example_text(i, rng.choices(("plot", "cast", "score"), k=3)),
                    label=rng.choice(LABELS)) for i in range(n)]


def _templates(count: int, rng: random.Random):
    return [validate_template(f"tone={rng.random()!r};steps={rng.random()!r} {{text}}",
                              template_id=f"t{i}") for i in range(count)]


def test_task_model_replies_as_toy_task():
    rng = random.Random(7)
    examples = _examples(12, rng)
    toy = gateway.BackendConfig(kind="mock", behavior="toy_task", params={
        "parameters": ["tone", "steps"], "target": list(TARGET),
        "examples": [{"text": ex.text, "label": ex.label} for ex in examples]})
    model = models.TaskModel([(ex.text, ex.label) for ex in examples],
                             models.toy_fitness(("tone", "steps"), TARGET))
    budget = gateway.Budget(max_calls=10**6, max_total_tokens=10**9)
    for template in _templates(30, rng):
        for ex in examples:
            req = gateway.ChatRequest(user_text=render_prompt(template, ex.text))
            assert model(req) == gateway.chat(toy, req, budget).text


def test_ambiguous_replies_need_and_pass_extraction():
    rng = random.Random(3)
    examples = _examples(6, rng)
    pairs = [(ex.text, ex.label) for ex in examples]
    fitness = models.toy_fitness(("tone", "steps"), TARGET)
    clear = models.TaskModel(pairs, fitness)
    ambiguous = models.TaskModel(pairs, fitness, ambiguous_every=1)
    extractor = models.ExtractionModel(LABELS)
    handler = gateway.BackendConfig(kind="mock", behavior="handler", params={"fn": extractor})
    cfg = EvalConfig(task_backend=handler, extraction_backend=handler)
    budget = gateway.Budget(max_calls=10**6, max_total_tokens=10**9)
    for template in _templates(5, rng):
        for ex in examples:
            req = gateway.ChatRequest(user_text=render_prompt(template, ex.text))
            before = extractor.calls
            assert extract_label(ambiguous(req), LABELS, cfg, budget) == clear(req)
            assert extractor.calls == before + 1


def test_latency_is_fixed_by_content():
    delay = models.hashed_latency(0.002)
    first = gateway.ChatRequest(user_text="review 00001: plot")
    again = gateway.ChatRequest(user_text="review 00001: plot")
    other = gateway.ChatRequest(user_text="review 00002: plot")
    assert delay(first) == delay(again) != delay(other)
    assert all(0.001 <= delay(gateway.ChatRequest(user_text=f"r{i}")) <= 0.003
               for i in range(200))
