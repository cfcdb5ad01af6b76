import ast
import inspect
import json
import re
from pathlib import Path

import pytest

import lpo.gateway as gw
from lpo import mocks, prompts
from lpo.config import DEFAULT_CONFIG_TEXT
from lpo.core import load_dataset
from lpo.errors import BackendError
from lpo.gateway import BackendConfig, Budget, ChatRequest, chat


REPO = Path(__file__).resolve().parents[1]


def test_gateway_shares_the_mock_registries():
    assert gw.MOCK_CHAT_BEHAVIORS is mocks.MOCK_CHAT_BEHAVIORS
    assert gw.MOCK_EMBED_BEHAVIORS is mocks.MOCK_EMBED_BEHAVIORS


def test_every_mock_behavior_is_named_outside_the_tests():
    """A behavior that only tests use belongs in the tests, as a handler."""
    texts = [DEFAULT_CONFIG_TEXT, (REPO / "src/lpo/fixtures/toy/config.yaml").read_text()]
    texts += [path.read_text() for pattern in ("demos/*.py", "bench/*.py")
              for path in sorted(REPO.glob(pattern))]
    for name in [*mocks.MOCK_CHAT_BEHAVIORS, *mocks.MOCK_EMBED_BEHAVIORS]:
        named = re.compile(rf"""behavior["']?\s*[:=]\s*["']?{name}\b""")
        assert any(named.search(text) for text in texts), name


def test_gateway_holds_no_mock_behavior_and_mocks_import_no_gateway():
    assert not [name for name in vars(gw) if name.startswith("_behavior")]
    imports = [ast.unparse(node) for node in ast.walk(ast.parse(inspect.getsource(mocks)))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and not [line for line in imports if "gateway" in line]


def test_mocks_keep_no_run_state():
    tree = ast.parse(inspect.getsource(mocks))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "_runtime"]


def toy_task(**params):
    return BackendConfig(kind="mock", behavior="toy_task",
                         params={"parameters": ["tone", "steps"], "target": [0.6, 0.4], **params})


def ask(cfg, text):
    """The toy task's answer for ``text`` under the prompt at its target."""
    return chat(cfg, ChatRequest(user_text=f"tone=0.6;steps=0.4 {text}"),
                Budget(max_calls=10, max_total_tokens=10**6)).text


def test_toy_task_ranks_one_example_list_once():
    examples = [{"text": f"ranked-once-{i}", "label": "positive" if i % 2 else "negative"}
                for i in range(6)]
    before = mocks._ranked.cache_info()
    assert ask(toy_task(examples=examples), "ranked-once-1") == "positive"
    assert ask(toy_task(examples=[dict(e) for e in examples]), "ranked-once-2") == "negative"
    after = mocks._ranked.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_toy_task_reads_a_rewritten_dataset_file_again(tmp_path, monkeypatch):
    reads = []
    monkeypatch.setattr(mocks, "load_dataset",
                        lambda path: reads.append(path) or load_dataset(path))
    path = tmp_path / "examples.jsonl"
    rows = [{"text": "alpha", "label": "positive"}, {"text": "beta", "label": "negative"}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    cfg = toy_task(dataset=str(path))
    assert [ask(cfg, "alpha"), ask(cfg, "beta")] == ["positive", "negative"]
    assert len(reads) == 1
    rows = [{"text": "alpha", "label": "negative"}, {"text": "beta", "label": "positive"},
            {"text": "gamma", "label": "positive"}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert [ask(cfg, "alpha"), ask(cfg, "beta")] == ["negative", "positive"]
    assert len(reads) == 2


PARENT_A = "tone=0.2;steps=0.8 {text}"
PARENT_B = "tone=0.9;steps=0.1 {text}"


@pytest.mark.parametrize("req, expected", [
    (ChatRequest(user_text=prompts.refine_instruction("tone=0.3;steps=0.7", [PARENT_A])),
     "tone=0.3;steps=0.7 {text}"),
    (ChatRequest(user_text=prompts.blend_instruction(PARENT_A, PARENT_B, 0.5)),
     f"tone={0.5 * 0.2 + 0.5 * 0.9!r};steps={0.5 * 0.8 + 0.5 * 0.1!r}"),
    (ChatRequest(user_text=prompts.SOFT_PROMPT_INSTRUCTION, soft_prompt=(0.25, 0.75)),
     "tone=0.25;steps=0.75"),
    (ChatRequest(user_text="Tell me a joke."), BackendError),
], ids=["refine", "blend", "soft_prompt", "unclassifiable"])
def test_toy_chat_dispatch(req, expected):
    cfg = BackendConfig(kind="mock", behavior="toy_chat",
                        params={"parameters": ["tone", "steps"]})
    budget = Budget(max_calls=10, max_total_tokens=10**6)
    if expected is BackendError:
        with pytest.raises(BackendError, match="cannot classify the instruction"):
            chat(cfg, req, budget)
    else:
        assert chat(cfg, req, budget).text == expected
