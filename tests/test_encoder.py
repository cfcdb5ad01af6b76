import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpo import gateway
from lpo.core import validate_template
from lpo.encoder import EncoderSpec, encode
from lpo.errors import ValidationError
from lpo.gateway import BackendConfig, Budget, call_count
from lpo.toyspace import ToySpaceSpec, strip_placeholder, toy_decode, toy_encode


def budget():
    return Budget(max_calls=10**6, max_total_tokens=10**9)


def hash_spec(dim=16):
    backend = BackendConfig(kind="mock", behavior="hash", params={"dimension": dim})
    return EncoderSpec(backend=backend, dimension=dim)


def templates(texts):
    return [validate_template(t, template_id=f"t{i}") for i, t in enumerate(texts)]


class TestEncode:
    def test_five_seeds_five_vectors(self):
        seeds = templates([f"Prompt {k}: {{text}}" for k in range(5)])
        vectors = encode(hash_spec(), seeds, budget())
        assert len(vectors) == 5
        assert all(v.shape == (16,) for v in vectors)

    def test_order_preserving(self):
        seeds = templates(["alpha {text}", "beta {text}", "alpha2 {text}"])
        spec = hash_spec()
        vectors = encode(spec, seeds, budget())
        again = encode(spec, list(reversed(seeds)), budget())
        assert np.array_equal(vectors[0], again[2])
        assert np.array_equal(vectors[2], again[0])

    def test_identical_prompts_identical_vectors(self):
        seeds = [validate_template("same {text}", template_id="a"),
                 validate_template("same {text}", template_id="b")]
        va, vb = encode(hash_spec(), seeds, budget())
        assert np.array_equal(va, vb)

    def test_dimension_mismatch(self):
        backend = BackendConfig(kind="mock", behavior="hash", params={"dimension": 4})
        spec = EncoderSpec(backend=backend, dimension=8)
        with pytest.raises(ValidationError, match="dimension 4, expected 8"):
            encode(spec, templates(["x {text}"]), budget())

    def test_cache_skips_backend_calls(self):
        spec = hash_spec()
        seeds = templates(["p1 {text}", "p2 {text}"])
        b = budget()
        encode(spec, seeds, b)
        assert call_count(spec.backend) == 1
        encode(spec, seeds, b)
        assert call_count(spec.backend) == 1  # fully served from cache

    def test_two_backends_on_one_budget_keep_their_own_vectors(self, monkeypatch):
        asked = []

        def map_behavior(cfg, texts):
            asked.append((cfg.params["vectors"]["p1 {text}"], list(texts)))
            return [np.asarray(cfg.params["vectors"][t], dtype=float) for t in texts]

        monkeypatch.setitem(gateway.MOCK_EMBED_BEHAVIORS, "map", map_behavior)

        def map_spec(vector):
            backend = BackendConfig(kind="mock", behavior="map",
                                    params={"vectors": {"p1 {text}": vector}})
            return EncoderSpec(backend=backend, dimension=2)

        first, second = map_spec([1.0, 0.0]), map_spec([0.0, 1.0])
        b, seeds = budget(), templates(["p1 {text}"])
        for _ in range(2):
            assert encode(first, seeds, b)[0].tolist() == [1.0, 0.0]
            assert encode(second, seeds, b)[0].tolist() == [0.0, 1.0]
        assert (call_count(first.backend), call_count(second.backend)) == (1, 1)
        assert asked == [([1.0, 0.0], ["p1 {text}"]), ([0.0, 1.0], ["p1 {text}"])]

    def test_empty_templates(self):
        with pytest.raises(ValidationError, match="no templates"):
            encode(hash_spec(), [], budget())


class TestToySpace:
    def test_encode_parses_in_order(self):
        spec = ToySpaceSpec(("tone", "steps"))
        assert np.array_equal(toy_encode(spec, "tone=0.3;steps=0.7"), [0.3, 0.7])

    def test_order_of_segments_does_not_matter(self):
        spec = ToySpaceSpec(("tone", "steps"))
        assert np.array_equal(toy_encode(spec, "steps=0.7;tone=0.3"), [0.3, 0.7])

    def test_missing_parameter(self):
        spec = ToySpaceSpec(("tone", "steps"))
        with pytest.raises(ValidationError, match="missing parameters: \\['steps'\\]"):
            toy_encode(spec, "tone=0.3")

    def test_unknown_parameter(self):
        spec = ToySpaceSpec(("tone",))
        with pytest.raises(ValidationError, match="unknown toy parameter"):
            toy_encode(spec, "tone=0.3;extra=0.1")

    def test_out_of_range_value(self):
        spec = ToySpaceSpec(("tone",))
        with pytest.raises(ValidationError, match="outside \\[0, 1\\]"):
            toy_encode(spec, "tone=1.5")

    def test_non_numeric_value(self):
        spec = ToySpaceSpec(("tone",))
        with pytest.raises(ValidationError, match="non-numeric"):
            toy_encode(spec, "tone=loud")

    def test_duplicate_parameter(self):
        spec = ToySpaceSpec(("tone",))
        with pytest.raises(ValidationError, match="duplicate"):
            toy_encode(spec, "tone=0.1;tone=0.2")

    def test_decode_formats_full_precision(self):
        spec = ToySpaceSpec(("tone", "steps"))
        assert toy_decode(spec, [0.3, 0.7]) == "tone=0.3;steps=0.7"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True),
                    min_size=1, max_size=5, unique=True), st.data())
    def test_round_trip_on_the_unit_cube(self, names, data):
        spec = ToySpaceSpec(tuple(names))
        vec = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(names),
                                          max_size=len(names))))
        text = toy_decode(spec, vec)
        assert np.array_equal(toy_encode(spec, text), vec)
        assert toy_decode(spec, toy_encode(spec, text)) == text

    def test_decode_clamps_with_warning(self, caplog):
        spec = ToySpaceSpec(("tone", "steps"))
        with caplog.at_level("WARNING", logger="lpo.toyspace"):
            text = toy_decode(spec, [1.2, 0.5])
        assert text == "tone=1.0;steps=0.5"
        assert any("clamped" in r.message for r in caplog.records)

    def test_round_trip_exact_for_random_vectors(self):
        spec = ToySpaceSpec(("a", "b", "c"))
        rng = np.random.default_rng(99)
        for _ in range(1000):
            vec = rng.uniform(0.0, 1.0, size=3)
            back = toy_encode(spec, toy_decode(spec, vec))
            assert np.array_equal(back, vec)

    def test_mock_toy_embedder_ignores_placeholder(self):
        backend = BackendConfig(kind="mock", behavior="toy",
                                params={"parameters": ["tone", "steps"]})
        spec = EncoderSpec(backend=backend, dimension=2)
        (v,) = encode(spec, templates(["tone=0.25;steps=0.75 {text}"]), budget())
        assert np.array_equal(v, [0.25, 0.75])

    def test_strip_placeholder(self):
        assert strip_placeholder("tone=0.1 {text}") == "tone=0.1"
        assert strip_placeholder("{text} tone=0.1") == "tone=0.1"

    def test_unique_parameter_names_required(self):
        with pytest.raises(ValidationError, match="unique"):
            ToySpaceSpec(("a", "a"))
