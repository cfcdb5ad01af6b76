import numpy as np
import pytest

from lpo import prompts
from lpo.core import validate_template
from lpo.decoder import DecodeStrategy, decode, refine_format
from lpo.errors import CandidateInvalidError, ValidationError
from lpo.explorer import CandidateRecord, Provenance
from lpo.gateway import BackendConfig, Budget, ChatRequest
from lpo.projector import LinearProjector, apply
from lpo.toyspace import ToySpaceSpec

SPEC = ToySpaceSpec(("tone", "steps"))


def budget():
    return Budget(max_calls=10**6, max_total_tokens=10**9)


def toy_seeds():
    return [
        validate_template("tone=0.2;steps=0.8 {text}", template_id="seed-a"),
        validate_template("tone=0.9;steps=0.1 {text}", template_id="seed-b"),
    ]


def blend_candidate(weight=0.5, embedding=(0.3, 0.7), kind="interpolate"):
    return CandidateRecord(
        id="cand-0",
        embedding=np.asarray(embedding, dtype=float),
        provenance=Provenance(kind=kind, parents=("seed-a", "seed-b"), weight=weight),
    )


class TestDecodeToyInverse:
    def strategy(self):
        return DecodeStrategy(kind="toy_inverse", toy_space=SPEC)

    def test_formats_embedding(self):
        text = decode(self.strategy(), blend_candidate(), toy_seeds(), budget())
        assert text == "tone=0.3;steps=0.7"

    def test_out_of_range_clamped_with_warning(self, caplog):
        candidate = blend_candidate(weight=1.4, embedding=(1.2, 0.5), kind="extrapolate")
        with caplog.at_level("WARNING", logger="lpo.toyspace"):
            text = decode(self.strategy(), candidate, toy_seeds(), budget())
        assert text == "tone=1.0;steps=0.5"
        assert any("clamped" in r.message for r in caplog.records)

    def test_no_chat_calls(self):
        strategy = self.strategy()
        b = budget()
        decode(strategy, blend_candidate(), toy_seeds(), b)
        assert b.calls == 0


class TestDecodeAnchorBlend:
    def test_scripted_reply_returned(self):
        chat = BackendConfig(kind="mock", behavior="fixed",
                             params={"reply": "BLEND(weight=0.50)"})
        strategy = DecodeStrategy(kind="anchor_blend", chat=chat)
        text = decode(strategy, blend_candidate(), toy_seeds(), budget())
        assert text == "BLEND(weight=0.50)"

    def test_instruction_carries_parents_and_weight(self):
        captured = {}

        def handler(req: ChatRequest) -> str:
            captured["text"] = req.user_text
            captured["temperature"] = req.temperature
            return "merged instruction {text}"

        chat = BackendConfig(kind="mock", behavior="handler", params={"fn": handler})
        strategy = DecodeStrategy(kind="anchor_blend", chat=chat, decode_temperature=0.7)
        decode(strategy, blend_candidate(weight=0.6), toy_seeds(), budget())
        assert "tone=0.2;steps=0.8 {text}" in captured["text"]
        assert "tone=0.9;steps=0.1 {text}" in captured["text"]
        assert "blend_weight=0.6" in captured["text"]
        assert captured["temperature"] == 0.7

    def test_one_parent_candidate_rejected(self):
        chat = BackendConfig(kind="mock", behavior="echo")
        strategy = DecodeStrategy(kind="anchor_blend", chat=chat)
        candidate = CandidateRecord(
            id="cand-p",
            embedding=np.array([0.4, 0.6]),
            provenance=Provenance(kind="perturb", parents=("seed-a",),
                                  sigma=0.1, noise_seed=5),
        )
        b = budget()
        with pytest.raises(ValidationError, match="candidate cand-p has 1 parent"):
            decode(strategy, candidate, toy_seeds(), b)
        assert b.calls == 0

    def test_unknown_parent_rejected(self):
        chat = BackendConfig(kind="mock", behavior="echo")
        strategy = DecodeStrategy(kind="anchor_blend", chat=chat)
        candidate = blend_candidate()
        with pytest.raises(ValidationError, match="unknown parents"):
            decode(strategy, candidate, toy_seeds()[:1], budget())

    def test_toy_blend_mock_blends_numerically(self):
        chat = BackendConfig(kind="mock", behavior="toy_chat",
                             params={"parameters": ["tone", "steps"]})
        strategy = DecodeStrategy(kind="anchor_blend", chat=chat)
        text = decode(strategy, blend_candidate(weight=0.5), toy_seeds(), budget())
        # midpoint of (0.2, 0.8) and (0.9, 0.1)
        assert text == f"tone={0.5 * 0.2 + 0.5 * 0.9!r};steps={0.5 * 0.8 + 0.5 * 0.1!r}"


class TestDecodeSoftPrompt:
    def test_projected_vector_sent_over_wire(self):
        chat = BackendConfig(kind="mock", behavior="toy_chat",
                             params={"parameters": ["tone", "steps"]})
        projector = LinearProjector(weights=np.eye(2))
        strategy = DecodeStrategy(kind="soft_prompt", chat=chat, projector=projector)
        text = decode(strategy, blend_candidate(embedding=(0.25, 0.75)), toy_seeds(), budget())
        assert text == "tone=0.25;steps=0.75"

    def test_projection_applied(self):
        seen = {}

        def handler(req: ChatRequest) -> str:
            seen["soft"] = req.soft_prompt
            return "ok {text}"

        chat = BackendConfig(kind="mock", behavior="handler", params={"fn": handler})
        projector = LinearProjector(weights=np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]]))
        strategy = DecodeStrategy(kind="soft_prompt", chat=chat, projector=projector)
        decode(strategy, blend_candidate(embedding=(0.1, 0.2)), toy_seeds(), budget())
        assert np.allclose(seen["soft"], [0.2, 0.4, 0.3])

    def test_soft_prompt_is_a_tuple_of_floats_bit_equal_to_the_projection(self):
        seen = {}

        def handler(req: ChatRequest) -> str:
            seen["soft"] = req.soft_prompt
            return "ok {text}"

        rng = np.random.default_rng(3)
        chat = BackendConfig(kind="mock", behavior="handler", params={"fn": handler})
        projector = LinearProjector(weights=rng.standard_normal((16, 8)),
                                    bias=rng.standard_normal(16))
        strategy = DecodeStrategy(kind="soft_prompt", chat=chat, projector=projector)
        candidate = blend_candidate(embedding=rng.standard_normal(8))
        decode(strategy, candidate, toy_seeds(), budget())
        soft = seen["soft"]
        assert type(soft) is tuple and {type(v) for v in soft} == {float}
        assert np.array(soft).tobytes() == apply(projector, candidate.embedding).tobytes()

    def test_remote_backend_rejects_soft_prompt(self):
        chat = BackendConfig(kind="remote_chat", endpoint="https://api.test/chat",
                             model_name="m")
        with pytest.raises(ValidationError, match="remote backends refuse soft prompts"):
            DecodeStrategy(kind="soft_prompt", chat=chat,
                           projector=LinearProjector(weights=np.eye(2)))

    def test_projector_required(self):
        chat = BackendConfig(kind="mock", behavior="echo")
        with pytest.raises(ValidationError, match="projector"):
            DecodeStrategy(kind="soft_prompt", chat=chat)

    @pytest.mark.parametrize("temperatures", [{"decode_temperature": float("nan")},
                                              {"refinement_temperature": float("nan")},
                                              {"decode_temperature": float("inf")}])
    def test_temperatures_must_be_finite(self, temperatures):
        chat = BackendConfig(kind="mock", behavior="echo")
        with pytest.raises(ValidationError, match="temperatures must be finite"):
            DecodeStrategy(kind="anchor_blend", chat=chat, **temperatures)


class TestRefineFormat:
    def strategy(self, behavior="toy_chat", params=None):
        chat = BackendConfig(kind="mock", behavior=behavior, params=params or {})
        return DecodeStrategy(kind="toy_inverse", toy_space=SPEC, chat=chat)

    def test_valid_text_returned_verbatim(self):
        strategy = self.strategy()
        raw = "Already formatted {text} prompt"
        b = budget()
        template = refine_format(strategy, raw, toy_seeds(), b, template_id="c1")
        assert template.text == raw  # byte-equal
        assert template.origin == "decoded"
        assert b.calls == 0

    def test_missing_placeholder_refined(self):
        strategy = self.strategy()
        template = refine_format(strategy, "tone=0.3;steps=0.7", toy_seeds(), budget(),
                                 template_id="c2")
        assert template.text == "tone=0.3;steps=0.7 {text}"
        assert template.origin == "refined"

    def test_blank_refinement_reply_marks_invalid(self):
        strategy = self.strategy(behavior="fixed", params={"reply": ""})
        with pytest.raises(CandidateInvalidError, match="still invalid"):
            refine_format(strategy, "no placeholder here", toy_seeds(), budget())

    def test_one_refinement_attempt_only(self):
        chat = BackendConfig(kind="mock", behavior="fixed", params={"reply": "still bad"})
        strategy = DecodeStrategy(kind="toy_inverse", toy_space=SPEC, chat=chat)
        b = budget()
        with pytest.raises(CandidateInvalidError):
            refine_format(strategy, "no placeholder", toy_seeds(), b)
        assert b.calls == 1

    def test_requires_seeds(self):
        with pytest.raises(ValidationError, match="at least one seed"):
            refine_format(self.strategy(), "x {text}", [], budget())

    def test_refinement_instruction_embeds_raw_between_markers(self):
        captured = {}

        def handler(req: ChatRequest) -> str:
            captured["text"] = req.user_text
            return "fixed {text}"

        strategy = self.strategy(behavior="handler", params={"fn": handler})
        refine_format(strategy, "rawcandidate", toy_seeds(), budget())
        block = prompts.extract_block(captured["text"], prompts.BLOCK_RAW_OPEN,
                                      prompts.BLOCK_RAW_CLOSE)
        assert block == "rawcandidate"


class TestToyRoundTrip:
    def test_decode_then_encode_identity(self):
        from lpo.toyspace import toy_decode, toy_encode

        rng = np.random.default_rng(21)
        for _ in range(200):
            vec = rng.uniform(0, 1, size=2)
            assert np.array_equal(toy_encode(SPEC, toy_decode(SPEC, vec)), vec)

    def test_encode_then_decode_identity_on_canonical_strings(self):
        from lpo.toyspace import toy_decode, toy_encode

        rng = np.random.default_rng(22)
        for _ in range(200):
            a, b = rng.uniform(0, 1, size=2)
            canonical = f"tone={float(a)!r};steps={float(b)!r}"
            assert toy_decode(SPEC, toy_encode(SPEC, canonical)) == canonical
