import json

import numpy as np
import pytest

from lpo.core import (
    Dataset,
    Example,
    PromptTemplate,
    SplitSpec,
    as_vector,
    load_dataset,
    render_prompt,
    split_dataset,
    validate_template,
)
from lpo.errors import ValidationError


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestLoadDataset:
    def test_jsonl_preserves_order_and_infers_labels(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"text": "up", "label": "Positive"},
            {"text": "down", "label": "negative"},
            {"text": "up again", "label": "positive"},
        ])
        ds = load_dataset(path)
        assert [ex.text for ex in ds.examples] == ["up", "down", "up again"]
        assert ds.label_set == ("negative", "positive")  # normalized + sorted

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty dataset"):
            load_dataset(path)

    def test_missing_label_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"text": "a", "label": "x"}, {"text": "b"}])
        with pytest.raises(ValidationError, match="line 2"):
            load_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": "x"}\nnot json\n')
        with pytest.raises(ValidationError, match="line 2"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_dataset(tmp_path / "nope.jsonl")

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("text,label\nhello,positive\nbye,negative\n")
        ds = load_dataset(path)
        assert len(ds) == 2
        assert ds.examples[0] == Example(text="hello", label="positive")

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sentence,tag\na,b\n")
        with pytest.raises(ValidationError, match="header"):
            load_dataset(path)

    def test_csv_wrong_column_count(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("text,label\na,b,c\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_dataset(path)

    def test_declared_label_superset(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"text": "a", "label": "positive"}])
        ds = load_dataset(path, labels=["negative", "neutral", "positive"])
        assert ds.label_set == ("negative", "neutral", "positive")

    def test_label_outside_declared_set_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"text": "a", "label": "weird"}])
        with pytest.raises(ValidationError, match="weird"):
            load_dataset(path, labels=["negative", "positive"])


class TestSplitDataset:
    def make(self, n):
        examples = tuple(Example(text=f"t{i}", label="x") for i in range(n))
        return Dataset(examples=examples, label_set=("x",))

    def test_ten_percent_of_100(self):
        validation, remainder = split_dataset(self.make(100), SplitSpec(0.1, 3))
        assert len(validation) == 10
        assert len(remainder) == 90

    def test_deterministic(self):
        ds = self.make(50)
        a = split_dataset(ds, SplitSpec(0.2, 9))
        b = split_dataset(ds, SplitSpec(0.2, 9))
        assert a == b

    def test_partition(self):
        ds = self.make(37)
        validation, remainder = split_dataset(ds, SplitSpec(0.3, 5))
        texts = sorted(ex.text for ex in validation.examples + remainder.examples)
        assert texts == sorted(ex.text for ex in ds.examples)
        assert not set(ex.text for ex in validation.examples) & set(
            ex.text for ex in remainder.examples)

    def test_fraction_rounding_to_zero_errors(self):
        with pytest.raises(ValidationError, match="rounds to 0"):
            split_dataset(self.make(5), SplitSpec(0.01, 1))

    def test_fraction_bounds(self):
        with pytest.raises(ValidationError):
            SplitSpec(0.0, 1)
        with pytest.raises(ValidationError):
            SplitSpec(1.0, 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="rng_seed must be >= 0"):
            SplitSpec(0.5, -1)

    def test_label_set_inherited(self):
        examples = tuple(Example(text=f"t{i}", label="a") for i in range(10))
        ds = Dataset(examples=examples, label_set=("a", "b"))
        validation, remainder = split_dataset(ds, SplitSpec(0.2, 0))
        assert validation.label_set == ("a", "b")
        assert remainder.label_set == ("a", "b")


class TestRenderPrompt:
    def test_basic_substitution(self):
        t = validate_template("Classify: {text}")
        assert render_prompt(t, "good day") == "Classify: good day"

    def test_placeholder_in_input_is_literal(self):
        t = validate_template("Say {text} now")
        assert render_prompt(t, "{text}") == "Say {text} now"

    def test_empty_input_removes_placeholder(self):
        t = validate_template("Read {text} aloud")
        assert render_prompt(t, "") == "Read  aloud"

    def test_random_inputs_inserted_verbatim(self):
        rng = np.random.default_rng(7)
        words = ["alpha", "beta?", "x y z", "42", "ünïcode"]
        for _ in range(50):
            body = " ".join(rng.choice(words, size=3))
            t = validate_template(f"{body} {{text}} end")
            payload = " ".join(rng.choice(words, size=2))
            rendered = render_prompt(t, payload)
            assert payload in rendered
            assert "{text}" not in rendered


class TestValidateTemplate:
    def test_valid(self):
        t = validate_template("Label {text} now")
        assert isinstance(t, PromptTemplate)
        assert t.origin == "seed"

    def test_zero_placeholders(self):
        with pytest.raises(ValidationError, match="no .* placeholder"):
            validate_template("Label now")

    def test_multiple_placeholders(self):
        with pytest.raises(ValidationError, match="2 .* placeholders"):
            validate_template("{text} vs {text}")

    def test_blank(self):
        with pytest.raises(ValidationError, match="blank"):
            validate_template("   \n")

    def test_bad_origin_rejected(self):
        with pytest.raises(ValidationError, match="origin"):
            PromptTemplate(id="x", text="a {text}", origin="mystery")


class TestAsVector:
    @pytest.mark.parametrize("values", ["abc", [[1.0], [1.0, 2.0]], {"a": 1}, [10**400]])
    def test_non_numeric_input_is_named(self, values):
        with pytest.raises(ValidationError, match="seed x is not numeric"):
            as_vector(values, name="seed x")
