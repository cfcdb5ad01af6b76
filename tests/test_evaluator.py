import json
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpo import core, evaluator
from lpo.core import Dataset, Example, text_digest, validate_template
from lpo.errors import BudgetExhaustedError, ValidationError
from lpo.evaluator import (
    EvalConfig,
    PerExample,
    ResponseCache,
    ScoredPrompt,
    classify_one,
    evaluate,
    extract_label,
)
from lpo.gateway import (
    BackendConfig,
    Budget,
    ChatRequest,
    attempt_count,
    blocks,
    call_count,
    chat,
)

LABELS = ("negative", "neutral", "positive")


def budget(max_calls=10**6):
    return Budget(max_calls=max_calls, max_total_tokens=10**9)


def dataset(labels_by_text):
    examples = tuple(Example(text=t, label=l) for t, l in labels_by_text)
    return Dataset(examples=examples, label_set=LABELS)


def scripted_task(reply_by_needle):
    """Task mock answering by which example text appears in the prompt."""

    def handler(req):
        for needle, reply in reply_by_needle.items():
            if needle in req.user_text:
                return reply
        raise AssertionError(f"unscripted prompt: {req.user_text!r}")

    return BackendConfig(kind="mock", behavior="handler", params={"fn": handler})


def fixed_extraction(reply="unparsed"):
    return BackendConfig(kind="mock", behavior="fixed", params={"reply": reply})


def config(task, extraction=None, **kwargs):
    return EvalConfig(task_backend=task,
                      extraction_backend=extraction or fixed_extraction(), **kwargs)


TEMPLATE = validate_template("Classify: {text}", template_id="tpl")


class TestClassifyOne:
    def test_scripted_reply(self):
        cfg = config(scripted_task({"good day": "Positive"}))
        raw = classify_one(TEMPLATE, Example(text="good day", label="positive"),
                           cfg, budget())
        assert raw == "Positive"

    def test_cache_serves_second_call(self):
        cfg = config(scripted_task({"good day": "Positive"}))
        ex = Example(text="good day", label="positive")
        b = budget()
        first = classify_one(TEMPLATE, ex, cfg, b)
        second = classify_one(TEMPLATE, ex, cfg, b)
        assert first == second
        assert call_count(cfg.task_backend) == 1
        assert b.calls == 1

    def test_unreadable_cache_file_falls_back_to_live(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        path.write_text("{broken json\n")
        b = budget()
        with caplog.at_level("WARNING", logger="lpo.evaluator"), b.replies_from(path):
            assert any("unreadable cache" in r.message for r in caplog.records)
            cfg = config(scripted_task({"good day": "Positive"}), cache_path=path)
            raw = classify_one(TEMPLATE, Example(text="good day", label="positive"),
                               cfg, b)
        assert raw == "Positive"

    def test_non_utf8_cache_file_is_ignored_with_one_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(json.dumps({"key_hash": "k", "raw_output": "v"}).encode()
                         + b"\n\xff\xfe\n")
        b = budget()
        cfg = config(scripted_task({"good day": "Positive"}), cache_path=path)
        with caplog.at_level("WARNING"), b.replies_from(path):
            assert b.replies.get("k") is None  # the whole file is set aside
            raw = classify_one(TEMPLATE, Example(text="good day", label="positive"), cfg, b)
        assert raw == "Positive" and call_count(cfg.task_backend) == 1
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1 and warnings[0].startswith(f"ignoring unreadable cache {path}")

    def test_without_cache_leaves_the_cache_file_alone(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        path.write_text("".join(json.dumps({"key_hash": f"k{i}", "raw_output": "x"}) + "\n"
                                for i in range(5000)))
        opened = []

        class SpyCache(ResponseCache):
            def __init__(self, path=None):
                opened.append(path)
                super().__init__(path)

        monkeypatch.setattr(evaluator, "ResponseCache", SpyCache)
        cfg = config(scripted_task({"good day": "Positive"}), fixed_extraction("positive"),
                     cache_path=path)
        ex = Example(text="good day", label="positive")
        assert classify_one(TEMPLATE, ex, cfg, budget()) == "Positive"
        assert extract_label("leans upbeat", LABELS, cfg, budget()) == "positive"
        assert [p for p in opened if p is not None] == []
        assert len(path.read_text().splitlines()) == 5000


class TestExtractLabel:
    def cfg(self, extraction=None):
        return config(fixed_extraction("never called"), extraction)

    def test_single_whole_word(self):
        raw = "Sentiment: Positive\nReason: strong earnings"
        cfg = config(scripted_task({}), fixed_extraction())
        assert extract_label(raw, LABELS, cfg, budget()) == "positive"

    def test_json_field(self):
        raw = '{"label": "Negative", "evidence": ["weak sales"]}'
        cfg = config(scripted_task({}), fixed_extraction())
        assert extract_label(raw, LABELS, cfg, budget()) == "negative"

    def test_json_field_beats_ambiguous_whole_words(self):
        raw = '{"sentiment": "Positive", "note": "not negative at all"}'
        cfg = config(scripted_task({}), fixed_extraction())
        b = budget()
        assert extract_label(raw, LABELS, cfg, b) == "positive"
        assert b.calls == 0  # resolved deterministically

    def test_second_call_resolves_ambiguity(self):
        raw = "The tone is mixed but leans upbeat"
        cfg = config(scripted_task({}), fixed_extraction("positive"))
        b = budget()
        assert extract_label(raw, LABELS, cfg, b) == "positive"
        assert b.calls == 1

    def test_second_call_garbage_is_unparsed(self):
        raw = "completely off topic"
        cfg = config(scripted_task({}), fixed_extraction("no idea, sorry"))
        assert extract_label(raw, LABELS, cfg, budget()) == "unparsed"

    def test_backend_error_degrades_to_unparsed(self, caplog):
        extraction = BackendConfig(kind="mock", behavior="sequence",
                                   params={"replies": [{"error": 400}]})
        cfg = config(scripted_task({}), extraction)
        with caplog.at_level("WARNING", logger="lpo.evaluator"):
            label = extract_label("ambiguous text", LABELS, cfg, budget())
        assert label == "unparsed"
        assert any("counting as unparsed" in r.message for r in caplog.records)

    def test_empty_label_set(self):
        cfg = config(scripted_task({}))
        with pytest.raises(ValidationError, match="non-empty label set"):
            extract_label("x", (), cfg, budget())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from(LABELS + tuple(lab.title() for lab in LABELS)),
        st.sampled_from(["the", "reply", "is", "label", "sentiment:", "not", "-", "mixed"]),
        st.tuples(st.sampled_from(["label", "sentiment", "score"]),
                  st.sampled_from(LABELS + ("unsure",)))), max_size=8),
        st.sampled_from(LABELS + ("Positive\n", "no idea")))
    def test_precedence_whole_word_then_field_then_extraction_call(self, parts, reply):
        raw = " ".join(p if isinstance(p, str) else json.dumps({p[0]: p[1].title()})
                       for p in parts)
        present = set(re.findall(r"\w+", raw.lower())) & set(LABELS)
        fields = [value for p in parts if not isinstance(p, str)
                  for key, value in [p] if key != "score" and value in LABELS]
        if len(present) == 1:
            want, calls = present.pop(), 0
        elif fields:
            want, calls = fields[0], 0
        else:
            want, calls = reply.strip().lower() if reply != "no idea" else "unparsed", 1
        cfg = config(scripted_task({}), fixed_extraction(reply))
        b = budget()
        assert extract_label(raw, LABELS, cfg, b) == want
        assert call_count(cfg.extraction_backend) == b.calls == calls


def old_classify_key(backend_id, cfg, template, ex):
    """The classify key formula the cache files on disk were written with."""
    return text_digest(json.dumps([
        "classify", backend_id,
        text_digest(template.text), text_digest(ex.text), repr(cfg.temperature),
    ]))


def old_extract_key(backend_id, raw, label_set):
    return text_digest(json.dumps(["extract", backend_id, text_digest(raw), list(label_set)]))


def old_whole_word_match(lowered, label_set):
    found = [lab for lab in label_set
             if re.search(rf"(?<!\w){re.escape(lab)}(?!\w)", lowered)]
    return found[0] if len(found) == 1 else None


NO_PLACEHOLDER = st.text().filter(lambda t: "{text}" not in t)
TRICKY_LABELS = ["positive", "very positive", "positive!", "a.b", "c++", "(x)", "[y]",
                 "$", "^a", "a|b", "\\d", "é", "n/a", "-"]


class TestKeysAndPatterns:
    @settings(max_examples=150, deadline=None)
    @given(st.text(), NO_PLACEHOLDER, NO_PLACEHOLDER, st.lists(st.text(min_size=1), min_size=1, max_size=4),
           st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                     st.floats(0.0, 2.0).map(np.float64)))
    def test_classify_keys_equal_the_json_formula(self, backend_id, before, after, texts,
                                                  temperature):
        template = validate_template(before + "{text}" + after, template_id="t")
        cfg = config(fixed_extraction(), temperature=temperature)
        keys = evaluator._classify_keys(backend_id, cfg, template)
        for text in texts:
            ex = Example(text=text, label="positive")
            assert keys(ex) == old_classify_key(backend_id, cfg, template, ex)

    @settings(max_examples=150, deadline=None)
    @given(st.text(), st.lists(st.text(), min_size=1, max_size=4),
           st.lists(st.text(), min_size=1, max_size=5))
    def test_extract_keys_equal_the_json_formula(self, backend_id, raws, label_set):
        keys = evaluator._extract_keys(backend_id, tuple(label_set))
        for raw in raws:
            assert keys(raw) == old_extract_key(backend_id, raw, label_set)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.lists(st.one_of(st.sampled_from(TRICKY_LABELS), st.text(min_size=1)),
                               min_size=1, max_size=6, unique=True))
    def test_whole_word_match_equals_per_label_search(self, data, label_set):
        pieces = data.draw(st.lists(st.one_of(st.sampled_from(label_set), st.text(max_size=4),
                                              st.sampled_from([" ", ".", "_", "x", "!"])),
                                    max_size=8))
        reply = "".join(pieces).lower()
        assert (evaluator._whole_word_match(reply, tuple(label_set))
                == old_whole_word_match(reply, tuple(label_set)))

    def test_overlapping_labels_stay_ambiguous(self):
        labels = ("positive", "very positive")
        assert evaluator._whole_word_match("very positive", labels) is None
        assert evaluator._whole_word_match("positive", labels) == "positive"

    def test_patterns_compile_once_per_label_set(self):
        evaluator._whole_word_patterns.cache_clear()
        cfg = config(scripted_task({}), fixed_extraction())
        for reply in ("positive", "Negative!", "so neutral", "neutral, negative") * 5:
            extract_label(reply, LABELS, cfg, budget())
        assert evaluator._whole_word_patterns.cache_info().misses == 1

    def test_texts_hashed_once_per_process_and_template_once_per_evaluate(
            self, monkeypatch):
        hashed = []

        def spy(text):
            hashed.append(text)
            return text_digest(text)

        monkeypatch.setattr(core, "text_digest", spy)
        monkeypatch.setattr(evaluator, "text_digest", spy)
        ds = dataset([("alpha", "positive"), ("beta", "negative"), ("alpha", "positive")])
        cfg = config(scripted_task({"alpha": "positive", "beta": "negative"}))
        templates = [validate_template(f"Task {i}: {{text}}", template_id=f"t{i}")
                     for i in range(3)]
        for template in templates:
            assert evaluate(template, ds, cfg, budget()).n_correct == 3
        assert hashed.count("alpha") == 2  # two Example objects share the text
        assert hashed.count("beta") == 1
        assert [hashed.count(t.text) for t in templates] == [1, 1, 1]


class TestEvaluate:
    def test_two_of_three_correct(self):
        ds = dataset([("row-a", "positive"), ("row-b", "negative"), ("row-c", "positive")])
        task = scripted_task({"row-a": "positive", "row-b": "negative", "row-c": "neutral"})
        scored = evaluate(TEMPLATE, ds, config(task), budget())
        assert scored.accuracy == 2 / 3
        assert scored.n_correct == 2
        assert scored.n_total == 3
        assert [p.correct for p in scored.per_example] == [True, True, False]
        assert scored.accuracy == scored.n_correct / scored.n_total

    def test_all_unparsed_scores_zero(self):
        ds = dataset([("row-a", "positive"), ("row-b", "negative")])
        task = scripted_task({"row-a": "???", "row-b": "???"})
        scored = evaluate(TEMPLATE, ds, config(task), budget())
        assert scored.accuracy == 0.0
        assert all(p.extracted_label == "unparsed" for p in scored.per_example)

    def test_deterministic(self):
        ds = dataset([("row-a", "positive"), ("row-b", "negative")])
        task = scripted_task({"row-a": "positive", "row-b": "positive"})
        cfg = config(task)
        assert evaluate(TEMPLATE, ds, cfg, budget()) == evaluate(TEMPLATE, ds, cfg, budget())

    def test_budget_exhaustion_names_completed_count(self):
        ds = dataset([(f"ex{i}", "positive") for i in range(5)])
        task = scripted_task({f"ex{i}": "positive" for i in range(5)})
        with pytest.raises(BudgetExhaustedError, match="after 3 of 5"):
            evaluate(TEMPLATE, ds, config(task), budget(max_calls=3))

    def test_max_examples_slices_prefix(self):
        ds = dataset([(f"ex{i}", "positive") for i in range(10)])
        task = scripted_task({f"ex{i}": "positive" for i in range(10)})
        scored = evaluate(TEMPLATE, ds, config(task, max_examples=4), budget())
        assert scored.n_total == 4
        assert [p.index for p in scored.per_example] == [0, 1, 2, 3]

    def test_call_ceiling_two_per_example(self):
        ds = dataset([("row-a", "positive"), ("row-b", "negative"), ("row-c", "neutral")])
        # distinct unparseable replies force a stage-2 call for every example
        task = scripted_task({"row-a": "hmm-1", "row-b": "hmm-2", "row-c": "hmm-3"})
        extraction = fixed_extraction("positive")
        cfg = config(task, extraction)
        b = budget()
        evaluate(TEMPLATE, ds, cfg, b)
        assert b.calls <= 2 * 3
        assert call_count(cfg.task_backend) == 3
        assert call_count(cfg.extraction_backend) == 3

    def test_identical_raw_replies_share_one_extraction_call(self):
        ds = dataset([("row-a", "positive"), ("row-b", "negative"), ("row-c", "neutral")])
        task = scripted_task({"row-a": "hmm", "row-b": "hmm", "row-c": "hmm"})
        cfg = config(task, fixed_extraction("positive"))
        evaluate(TEMPLATE, ds, cfg, budget())
        assert call_count(cfg.extraction_backend) == 1

    def test_warm_cache_issues_zero_calls(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ds = dataset([("row-a", "positive"), ("row-b", "negative")])
        task = scripted_task({"row-a": "positive", "row-b": "negative"})
        cfg = config(task, cache_path=path)
        cold = evaluate(TEMPLATE, ds, cfg, budget())
        calls_after_cold = call_count(cfg.task_backend)
        warm = evaluate(TEMPLATE, ds, cfg, budget())
        assert call_count(cfg.task_backend) == calls_after_cold
        assert warm == cold

    def test_empty_eval_set(self):
        ds = Dataset(examples=(), label_set=LABELS)
        with pytest.raises(ValidationError, match="empty"):
            evaluate(TEMPLATE, ds, config(scripted_task({})), budget())


def sleeping(reply_for, delay=0.002, peak=None):
    """Handler backend that sleeps like a remote call; ``peak`` tracks overlap.

    The reply is worked out first, so a failing request fails at once.
    """
    lock = threading.Lock()
    active = [0]

    def handler(req):
        reply = reply_for(req.user_text)
        with lock:
            active[0] += 1
            if peak is not None:
                peak.append(active[0])
        time.sleep(delay)
        with lock:
            active[0] -= 1
        return reply

    return handler


def blocking_config(task_reply, extraction_reply, width, peak=None, delay=0.002):
    """EvalConfig over sleeping backends that the gateway has already seen block."""
    task = BackendConfig(kind="mock", behavior="handler", max_in_flight=width,
                         params={"fn": sleeping(task_reply, delay, peak)})
    extraction = BackendConfig(kind="mock", behavior="handler", max_in_flight=width,
                               params={"fn": sleeping(extraction_reply, delay)})
    for backend in (task, extraction):
        chat(backend, ChatRequest(user_text="warm-up"), budget())
        assert blocks(backend)
    return config(task, extraction)


def reply_by_example(replies):
    """Task replies looked up by the example text at the end of the prompt."""
    return lambda prompt: replies.get(prompt.rsplit(" ", 1)[-1], "positive")


def extraction_by_hash(prompt):
    return LABELS[sum(prompt.encode()) % 3] if "maybe" in prompt else "no idea"


REPLIES = st.sampled_from(["positive", "negative", "Neutral.", "positive or negative",
                           "maybe-a", "maybe-b", "maybe-a", "???"])


class TestFanOut:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), REPLIES, st.sampled_from(LABELS)),
                    min_size=1, max_size=10))
    def test_width_four_scores_and_calls_like_width_one(self, rows):
        # equal indices make duplicate texts; the replies repeat and some are ambiguous
        replies = {f"ex{i}": reply for i, reply, _ in rows}
        ds = dataset([(f"ex{i}", label) for i, _, label in rows])
        runs = []
        for width in (1, 4):
            cfg = blocking_config(reply_by_example(replies), extraction_by_hash, width)
            b = budget()
            scored = evaluate(TEMPLATE, ds, cfg, b)
            runs.append((scored, call_count(cfg.task_backend),
                         call_count(cfg.extraction_backend), b.calls))
        assert runs[0] == runs[1]

    def test_overlap_is_capped_by_max_in_flight(self):
        peak = []
        ds = dataset([(f"ex{i}", "positive") for i in range(16)])
        cfg = blocking_config(lambda prompt: "positive", extraction_by_hash, 3, peak=peak)
        peak.clear()  # forget the warm-up call
        scored = evaluate(TEMPLATE, ds, cfg, budget())
        assert scored.accuracy == 1.0
        assert 1 < max(peak) <= 3

    def test_computing_backend_starts_no_thread(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a thread was started")

        ds = dataset([(f"ex{i}", "positive") for i in range(6)])
        cfg = config(scripted_task({f"ex{i}": "positive" for i in range(6)}))
        evaluate(TEMPLATE, ds, cfg, budget())  # the gateway sees the mock compute
        monkeypatch.setattr(threading.Thread, "start", forbidden)
        assert evaluate(TEMPLATE, ds, cfg, budget()).accuracy == 1.0

    def test_budget_exhaustion_message_is_deterministic(self):
        ds = dataset([(f"ex{i}", "positive") for i in range(12)])
        messages = set()
        for width in [4] * 20 + [1]:
            cfg = blocking_config(lambda prompt: "positive", extraction_by_hash, width)
            with pytest.raises(BudgetExhaustedError) as caught:
                evaluate(TEMPLATE, ds, cfg, budget(max_calls=7))
            messages.add(str(caught.value))
        assert len(messages) == 1
        assert "after 7 of 12" in messages.pop()

    def test_first_failure_stops_the_pool_and_lowest_index_is_raised(self):
        ds = dataset([(f"ex{i}", "positive") for i in range(20)])

        def task_reply(prompt):
            if prompt.endswith(("ex0", "ex2")):
                raise RuntimeError(f"failed on {prompt.rsplit(' ', 1)[-1]}")
            return "positive"

        cfg = blocking_config(task_reply, extraction_by_hash, 4, delay=0.05)
        with pytest.raises(RuntimeError, match="failed on ex0"):
            evaluate(TEMPLATE, ds, cfg, budget())
        # the warm-up, then at most the four examples handed out before ex0 failed
        assert attempt_count(cfg.task_backend) <= 1 + 4


class TestEvalConfig:
    @pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
    def test_temperature_must_be_finite(self, temperature):
        with pytest.raises(ValidationError, match="temperature must be finite"):
            config(fixed_extraction(), temperature=temperature)


class TestScoredPromptInvariants:
    def test_accuracy_must_match_counts(self):
        per = (PerExample(index=0, raw_output="x", extracted_label="positive",
                          correct=True),)
        with pytest.raises(ValidationError, match="accuracy"):
            ScoredPrompt(template=TEMPLATE, accuracy=0.5, n_correct=1, n_total=1,
                         per_example=per, eval_set_id="e")

    def test_counts_must_match_outcomes(self):
        per = (PerExample(index=0, raw_output="x", extracted_label="positive",
                          correct=False),)
        with pytest.raises(ValidationError, match="n_correct"):
            ScoredPrompt(template=TEMPLATE, accuracy=1.0, n_correct=1, n_total=1,
                         per_example=per, eval_set_id="e")


class TestCachePersistence:
    def test_appended_entries_survive_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with ResponseCache(path) as cache:
            cache.put("k1", "v1")
            cache.put("k2", "v2")
        reloaded = ResponseCache(path)
        assert reloaded.get("k1") == "v1"
        assert reloaded.get("k2") == "v2"
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines == [{"key_hash": "k1", "raw_output": "v1"},
                         {"key_hash": "k2", "raw_output": "v2"}]

    def test_put_is_visible_to_a_second_cache_while_the_first_is_open(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with ResponseCache(path) as first:
            first.put("k1", "v1")
            assert ResponseCache(path).get("k1") == "v1"
            first.put("k2", "v2")
            assert ResponseCache(path).get("k2") == "v2"

    def test_cut_off_line_skipped_and_next_append_kept(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        good = json.dumps({"key_hash": "k1", "raw_output": "v1"})
        # a crash mid-append leaves a line without its end
        path.write_text(good + "\n" + '{"key_hash": "k2", "raw_ou')
        with caplog.at_level("WARNING", logger="lpo.evaluator"), ResponseCache(path) as cache:
            assert cache.get("k1") == "v1"
            assert cache.skipped == 1
            assert len([r for r in caplog.records if "unreadable" in r.message]) == 1
            cache.put("k3", "v3")
        reloaded = ResponseCache(path)
        assert (reloaded.get("k1"), reloaded.get("k3")) == ("v1", "v3")
        assert reloaded.skipped == 1

    def test_failed_append_leaves_only_its_own_line_torn(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"

        class FullDisk:
            """Writes part of its first line, then fails as a full disk would."""

            def __init__(self, fh):
                self.fh, self.failed = fh, False

            def write(self, text):
                if self.failed:
                    return self.fh.write(text)
                self.failed = True
                self.fh.write(text[:12])
                self.fh.flush()
                raise OSError(28, "No space left on device")

            def flush(self):
                self.fh.flush()

            def close(self):
                self.fh.close()

        with caplog.at_level("WARNING"), ResponseCache(path) as cache:
            cache.put("k1", "v1")
            cache._fh = FullDisk(cache._fh)
            cache.put("k2", "v2")
            assert any("could not append" in r.message for r in caplog.records)
            assert cache.get("k2") == "v2"  # still served from memory in this run
            cache.put("k3", "v3")
        reloaded = ResponseCache(path)
        assert (reloaded.get("k1"), reloaded.get("k2"), reloaded.get("k3")) == ("v1", None, "v3")
        assert reloaded.skipped == 1

    def test_backends_sharing_a_cache_file_keep_their_own_replies(self, tmp_path):
        examples = [Example(text=f"sample-{i:02d}", label="positive" if i % 2 else "negative")
                    for i in range(1, 21)]
        ds = Dataset(examples=tuple(examples), label_set=("negative", "positive"))
        template = validate_template("tone=0.3;steps=0.7 {text}", template_id="toy")

        def score(target, cache_path=None, spent=None):
            task = BackendConfig(kind="mock", behavior="toy_task", params={
                "parameters": ["tone", "steps"], "target": list(target),
                "examples": [{"text": ex.text, "label": ex.label} for ex in examples]})
            return evaluate(template, ds, config(task, cache_path=cache_path),
                            spent or budget()).accuracy

        live = {target: score(target) for target in ((0.3, 0.7), (0.9, 0.1))}
        assert live[(0.3, 0.7)] != live[(0.9, 0.1)]
        shared, one_budget = tmp_path / "cache.jsonl", budget()  # a file, and one run's memory
        for target, accuracy in live.items():
            assert score(target, shared) == accuracy
            assert score(target, spent=one_budget) == accuracy

    def test_handlers_of_one_name_keep_their_own_replies(self, tmp_path):
        shared = tmp_path / "cache.jsonl"
        ds = dataset([("row-a", "positive")])
        for reply, accuracy in (("positive", 1.0), ("negative", 0.0)):
            cfg = config(scripted_task({"row-a": reply}), cache_path=shared)
            assert evaluate(TEMPLATE, ds, cfg, budget()).accuracy == accuracy
