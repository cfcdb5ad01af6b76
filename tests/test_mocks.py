import ast
import inspect

import pytest

import lpo.gateway as gw
from lpo import mocks, prompts
from lpo.errors import BackendError
from lpo.gateway import BackendConfig, Budget, ChatRequest, chat


def test_gateway_shares_the_mock_registries():
    assert gw.MOCK_CHAT_BEHAVIORS is mocks.MOCK_CHAT_BEHAVIORS
    assert gw.MOCK_EMBED_BEHAVIORS is mocks.MOCK_EMBED_BEHAVIORS
    assert set(mocks.MOCK_CHAT_BEHAVIORS) == {
        "fixed", "echo", "handler", "sequence", "toy_chat", "toy_task"}
    assert set(mocks.MOCK_EMBED_BEHAVIORS) == {"hash", "toy", "map"}


def test_gateway_holds_no_mock_behavior_and_mocks_import_no_gateway():
    assert not [name for name in vars(gw) if name.startswith("_behavior")]
    imports = [ast.unparse(node) for node in ast.walk(ast.parse(inspect.getsource(mocks)))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and not [line for line in imports if "gateway" in line]


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
