import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import threading
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import (open_descriptors, reference_cache_read, scripted, sleeping,
                     spy_on_response_caches)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpo import core, evaluator, gateway
from lpo.core import Dataset, Example, text_digest, validate_template
from lpo.errors import BackendError, BudgetExhaustedError, ValidationError
from lpo.evaluator import (
    EvalConfig,
    PerExample,
    RacedPrompt,
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
from lpo.optimizer import select_top

ROOT = Path(__file__).parent.parent
LABELS = ("negative", "neutral", "positive")


def budget(max_calls=10**6):
    return Budget(max_calls=max_calls, max_total_tokens=10**9)


def dataset(labels_by_text):
    examples = tuple(Example(text=t, label=l) for t, l in labels_by_text)
    return Dataset(examples=examples, label_set=LABELS)


def spy_on_fingerprints(monkeypatch) -> list:
    """The backends ``gateway.backend_fingerprint`` is asked about, in order."""
    seen, fingerprint = [], gateway.backend_fingerprint
    monkeypatch.setattr(gateway, "backend_fingerprint",
                        lambda backend: seen.append(backend) or fingerprint(backend))
    return seen


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
        cfg = config(scripted_task({"good day": "Positive"}), cache_path=path)
        with caplog.at_level("WARNING", logger="lpo.evaluator"):
            scored = evaluate(TEMPLATE, dataset([("good day", "positive")]), cfg, budget())
            assert any("unreadable cache" in r.message for r in caplog.records)
        assert scored.per_example[0].raw_output == "Positive"

    def test_non_utf8_cache_file_is_ignored_with_one_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(json.dumps({"key_hash": "k", "raw_output": "v"}).encode()
                         + b"\n\xff\xfe\n")
        b = budget()
        cfg = config(scripted_task({"good day": "Positive"}), cache_path=path)
        with caplog.at_level("WARNING"):
            scored = evaluate(TEMPLATE, dataset([("good day", "positive")]), cfg, b)
            assert b.replies.path == path
            assert b.replies.get("k") is None  # the whole file is set aside
        assert scored.per_example[0].raw_output == "Positive"
        assert call_count(cfg.task_backend) == 1
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
        extraction = BackendConfig(kind="mock", behavior="handler",
                                   params={"fn": scripted([{"error": 400}])})
        cfg = config(scripted_task({}), extraction)
        with caplog.at_level("WARNING", logger="lpo.evaluator"):
            label = extract_label("ambiguous text", LABELS, cfg, budget())
        assert label == "unparsed"
        assert any("counting as unparsed" in r.message for r in caplog.records)

    def test_failed_extraction_is_asked_again_at_each_occurrence(self):
        def refuse(req):
            raise BackendError("extraction refused")

        extraction = BackendConfig(kind="mock", behavior="handler", params={"fn": refuse})
        ds = dataset([(f"row-{i}", "positive") for i in range(4)])
        cfg = config(scripted_task({"row-": "positive or negative"}), extraction)
        b = budget()
        scored, exhausted = evaluator.evaluate_batch(BATCH[:2], ds, cfg, b)
        assert exhausted is None
        assert {o.extracted_label for s in scored for o in s.per_example} == {"unparsed"}
        assert attempt_count(extraction) == 2 * 4  # one per occurrence, none memoized
        assert call_count(extraction) == 0 and b.calls == 2 * 4  # the task calls only

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

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.lists(st.one_of(st.sampled_from(TRICKY_LABELS), st.text(min_size=1)),
                               min_size=1, max_size=6, unique=True))
    def test_memoized_stage_one_equals_the_unmemoized(self, data, label_set):
        labels = tuple(label_set)
        pieces = data.draw(st.lists(st.one_of(
            st.sampled_from(labels), st.sampled_from(labels).map(str.upper),
            st.sampled_from(labels).map(lambda lab: json.dumps({"label": lab})),
            st.text(max_size=4), st.sampled_from([" ", ".", "_", "x", "!", '"sentiment": "'])),
            max_size=8))
        reply = "".join(pieces)
        unmemoized = evaluator._local_label.__wrapped__(reply, labels)
        assert evaluator._local_label(reply, labels) == unmemoized  # worked out, or memoized
        assert evaluator._local_label(reply, labels) == unmemoized  # from the memo

    def test_stage_one_runs_once_per_distinct_reply(self):
        evaluator._local_label.cache_clear()
        ds = dataset([(f"row-{i}", "positive") for i in range(6)])
        cfg = config(scripted_task({f"row-{i}": ("Positive!", "so positive")[i % 2]
                                    for i in range(6)}))
        scored, exhausted = evaluator.evaluate_batch(BATCH, ds, cfg, budget())
        assert exhausted is None and [s.accuracy for s in scored] == [1.0] * 3
        info = evaluator._local_label.cache_info()
        assert (info.misses, info.hits) == (2, 3 * 6 - 2)

    def test_handler_keys_in_a_fresh_process_are_pinned(self, tmp_path):
        """The cache lines a fresh interpreter writes for a toy evaluation carry
        the keys of the documented formulas, with the task handler numbered
        first and the extraction handler second: the order in which scoring
        first fingerprints the backends is part of the cache format."""
        script = textwrap.dedent("""
            import sys
            from lpo.core import Dataset, Example, validate_template
            from lpo.evaluator import EvalConfig, evaluate
            from lpo.gateway import BackendConfig, Budget

            def task(req):
                return "maybe" if req.user_text.endswith("ex1") else "positive"

            def extract(req):
                return "negative"

            def handler(fn):
                return BackendConfig(kind="mock", behavior="handler", params={"fn": fn})

            ds = Dataset(examples=(Example("ex0", "positive"), Example("ex1", "negative")),
                         label_set=("negative", "positive"))
            cfg = EvalConfig(task_backend=handler(task), extraction_backend=handler(extract),
                             cache_path=sys.argv[1])
            scored = evaluate(validate_template("Classify: {text}", template_id="t"), ds, cfg,
                              Budget())
            assert scored.n_correct == 2
        """)
        path = tmp_path / "cache.jsonl"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        subprocess.run([sys.executable, "-c", script, str(path)], check=True, env=env,
                       timeout=120)

        def backend_id(name, number):
            params = {"fn": f"<callable {name} #{number}>"}
            return text_digest(json.dumps(["mock", "", "", "handler", params], sort_keys=True))

        task_id, extract_id = backend_id("task", 1), backend_id("extract", 2)
        expected = {text_digest(json.dumps(["classify", task_id, text_digest("Classify: {text}"),
                                            text_digest(text), repr(0.0)]))
                    for text in ("ex0", "ex1")}
        expected.add(text_digest(json.dumps(["extract", extract_id, text_digest("maybe"),
                                             ["negative", "positive"]])))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {line["key_hash"] for line in lines} == expected and len(lines) == 3

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


def blocking_config(task_reply, extraction_reply, width, peak=None, delay=0.002, usage=None):
    """EvalConfig over sleeping backends that the gateway has already seen block;
    ``usage`` fixes each call's (prompt, completion) tokens."""
    extra = {} if usage is None else {"usage": usage}
    task = BackendConfig(kind="mock", behavior="handler", max_in_flight=width,
                         params={"fn": sleeping(task_reply, delay, peak), **extra})
    extraction = BackendConfig(kind="mock", behavior="handler", max_in_flight=width,
                               params={"fn": sleeping(extraction_reply, delay), **extra})
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

    def test_token_ceiling_in_a_fan_out_names_the_examples_done_in_order(self):
        ds = dataset([(f"ex{i}", "positive") for i in range(12)])
        done = []
        for _ in range(20):
            cfg = blocking_config(lambda prompt: "positive", extraction_by_hash, 4,
                                  usage=(4, 6))
            # calls may start while fewer than 65 tokens are spent: seven at least
            spent = Budget(max_calls=10**6, max_total_tokens=65)
            with pytest.raises(BudgetExhaustedError) as caught:
                evaluate(TEMPLATE, ds, cfg, spent)
            assert spent.calls_left() >= 24  # so the fan-out ran
            done.append(int(re.search(r"after (\d+) of 12 ", str(caught.value)).group(1)))
        assert min(done) >= 7

    def test_fresh_backends_make_one_call_on_the_calling_thread_then_widen(self):
        task_threads, extraction_threads = [], []
        replies = {f"ex{i}": f"maybe-{i % 3}" for i in range(12)}
        task = BackendConfig(kind="mock", behavior="handler", max_in_flight=4,
                             params={"fn": sleeping(reply_by_example(replies),
                                                    threads=task_threads)})
        extraction = BackendConfig(kind="mock", behavior="handler", max_in_flight=4,
                                   params={"fn": sleeping(extraction_by_hash,
                                                          threads=extraction_threads)})
        ds = dataset([(f"ex{i}", LABELS[i % 3]) for i in range(12)])
        scored = evaluate(TEMPLATE, ds, config(task, extraction), budget())
        assert scored == evaluate(TEMPLATE, ds, blocking_config(
            reply_by_example(replies), extraction_by_hash, 1), budget())
        # the first example's calls show both backends to block; the rest overlap
        assert len(task_threads) == 12 and task_threads.count("MainThread") == 1
        assert task_threads[0] == "MainThread"
        assert extraction_threads.count("MainThread") == 1

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


def batch_config(width=4, peak=None):
    """EvalConfig whose task backend answers ``maybe-<n>`` for ``Template <n>``,
    on sleeping backends that block unless ``width`` is 1."""
    def task_reply(prompt):
        return "maybe-" + prompt.split(":")[0].split()[-1]

    task = BackendConfig(kind="mock", behavior="handler", max_in_flight=width,
                         params={"fn": sleeping(task_reply, 0.002, peak)})
    extraction = BackendConfig(kind="mock", behavior="handler", max_in_flight=width,
                               params={"fn": sleeping(extraction_by_hash, 0.002)})
    if width > 1:
        for backend in (task, extraction):
            chat(backend, ChatRequest(user_text="Template 0: warm-up"), budget())
    return config(task, extraction)


def spy_on_prefetch(monkeypatch) -> list:
    """Each ``_prefetch`` asked for: its template count, and whether it took them on."""
    prefetch, asked = evaluator._prefetch, []

    def spy(templates, view, budget):
        prefetch(templates, view, budget)
        asked.append((len(templates), all(t.text in view.made_ahead for t in templates)))

    monkeypatch.setattr(evaluator, "_prefetch", spy)
    return asked


def spy_on_digests(monkeypatch) -> list:
    """The texts the evaluator hashes, in order."""
    hashed = []

    def spy(text):
        hashed.append(text)
        return text_digest(text)

    monkeypatch.setattr(evaluator, "text_digest", spy)
    return hashed


def is_classify_key(text) -> bool:
    return text.startswith('["classify", ')


BATCH = [validate_template(f"Template {i}: {{text}}", template_id=f"t{i}") for i in range(3)]


class TestEvaluateBatch:
    """Templates scored as one batch score as :func:`evaluate` scores each."""

    def test_scores_equal_one_evaluate_per_template(self):
        ds = dataset([(f"ex{i}", LABELS[i % 3]) for i in range(8)] + [("ex0", "neutral")])
        serial = batch_config(width=1)
        expected = [evaluate(t, ds, serial, budget()) for t in BATCH]
        peak = []
        cfg = batch_config(peak=peak)
        peak.clear()
        b = budget()
        scored, exhausted = evaluator.evaluate_batch(BATCH, ds, cfg, b)
        assert exhausted is None and scored == expected
        assert 1 < max(peak) <= 4
        # one classify call per (template, text); one extraction per distinct reply
        assert (call_count(cfg.task_backend) - 1, call_count(cfg.extraction_backend) - 1) \
            == (3 * 8, 3)

    def test_a_computing_backend_scores_through_evaluate(self, monkeypatch):
        seen = []
        monkeypatch.setattr(evaluator, "evaluate",
                            lambda t, *args: seen.append(t.id) or evaluate(t, *args))
        ds = dataset([("row-a", "positive"), ("row-b", "negative")])
        cfg = config(scripted_task({"row-a": "positive", "row-b": "negative"}))
        scored, exhausted = evaluator.evaluate_batch(BATCH, ds, cfg, budget())
        assert exhausted is None and seen == ["t0", "t1", "t2"]
        assert [s.accuracy for s in scored] == [1.0] * 3

    def test_the_slice_is_fingerprinted_once_per_batch(self, monkeypatch):
        sizes, fingerprint = [], Dataset.fingerprint

        def spy(ds):
            sizes.append(len(ds))
            return fingerprint(ds)

        monkeypatch.setattr(Dataset, "fingerprint", spy)
        ds = dataset([(f"row-{i}", "positive") for i in range(5)])
        cfg = config(scripted_task({"row-": "positive"}), max_examples=3)
        scored, exhausted = evaluator.evaluate_batch(BATCH, ds, cfg, budget())
        assert exhausted is None and len(scored) == 3 and sizes == [3]
        head = Dataset(examples=ds.examples[:3], label_set=LABELS)
        assert {s.eval_set_id for s in scored} == {fingerprint(head)}
        evaluator.evaluate_batch(BATCH, ds, cfg, budget())
        assert evaluate(BATCH[0], ds, cfg, budget()).eval_set_id == fingerprint(head)
        assert sizes == [3, 3, 3]  # once per batch, and once per evaluate on its own

    @pytest.mark.parametrize("width", [1, 4])  # a serial batch, and one that makes its calls ahead
    def test_each_backend_is_fingerprinted_once_per_batch(self, monkeypatch, width):
        cfg = batch_config(width=width)
        seen = spy_on_fingerprints(monkeypatch)
        ds = dataset([(f"ex{i}", "positive") for i in range(5)])
        templates = [validate_template(f"Template {i}: {{text}}", template_id=f"t{i}")
                     for i in range(20)]
        scored, exhausted = evaluator.evaluate_batch(templates, ds, cfg, budget())
        assert exhausted is None and len(scored) == 20
        assert list(map(id, seen)) == [id(cfg.task_backend), id(cfg.extraction_backend)]

    def test_params_changed_between_batches_make_new_keys(self):
        ds = dataset([(f"row-{i}", "positive") for i in range(4)])
        cfg = config(scripted_task({"row-": "maybe"}), fixed_extraction("positive"))
        b = budget()
        for _ in range(2):  # the second batch is served from the cache
            scored, exhausted = evaluator.evaluate_batch(BATCH, ds, cfg, b)
            assert exhausted is None and [s.accuracy for s in scored] == [1.0] * 3
            assert (call_count(cfg.task_backend), call_count(cfg.extraction_backend)) == (12, 1)
        for backend in (cfg.task_backend, cfg.extraction_backend):
            backend.params["revision"] = 2
        evaluator.evaluate_batch(BATCH, ds, cfg, b)
        assert (call_count(cfg.task_backend), call_count(cfg.extraction_backend)) == (24, 2)

    def test_classify_one_and_extract_label_alone_fingerprint_their_backend(self, monkeypatch):
        cfg = config(scripted_task({"row": "maybe"}), fixed_extraction("positive"))
        seen = spy_on_fingerprints(monkeypatch)
        b = budget()
        for _ in range(2):
            assert classify_one(TEMPLATE, Example("row", "positive"), cfg, b) == "maybe"
            assert extract_label("maybe", LABELS, cfg, b) == "positive"
        assert list(map(id, seen)) == [id(cfg.task_backend), id(cfg.extraction_backend)] * 2

    def test_a_template_derives_its_keys_once_per_pass(self, monkeypatch):
        """The scoring loop derives a template's keys once, and so does the
        prefetch that makes its calls ahead."""
        hashed = spy_on_digests(monkeypatch)
        ds = dataset([(f"ex{i}", "positive") for i in range(5)])
        for width, passes in ((1, 1), (4, 2)):  # a serial batch, and one made ahead
            hashed.clear()
            cfg = batch_config(width=width)
            b = budget()
            scored, exhausted = evaluator.evaluate_batch(BATCH, ds, cfg, b)
            assert exhausted is None and len(scored) == 3
            assert [hashed.count(t.text) for t in BATCH] == [passes] * 3
            assert sum(map(is_classify_key, hashed)) == passes * 3 * 5
            assert b.calls == 3 * 5 + 3  # every (template, text), then each distinct reply

    def test_a_raced_template_derives_keys_only_for_the_examples_it_scored(self, monkeypatch):
        hashed = spy_on_digests(monkeypatch)
        ds = dataset([(f"ex{i}", "positive") for i in range(16)])
        cfg = scripted_batch({(1, f"ex{i}"): "negative" for i in range(16)}, width=1)
        scored, exhausted = evaluator.evaluate_batch(BATCH[:2], ds, cfg, budget(), keep=1)
        assert exhausted is None and isinstance(scored[1], RacedPrompt)
        assert scored[1].n_total == evaluator.RACE_EVERY == 8
        assert sum(map(is_classify_key, hashed)) == 16 + 8

    def test_a_warm_batch_makes_its_calls_ahead_in_one_prefetch(self, monkeypatch):
        asked = spy_on_prefetch(monkeypatch)
        cfg = batch_config()
        ds = dataset([(f"ex{i}", LABELS[i % 3]) for i in range(12)])
        scored, exhausted = evaluator.evaluate_batch(BATCH, ds, cfg, budget(), keep=1)
        assert exhausted is None and len(scored) == 3
        assert asked == [(3, True)]  # neither the batch nor evaluate asks again
        # each (template, text) classified once, and each distinct reply extracted once
        assert (call_count(cfg.task_backend) - 1, call_count(cfg.extraction_backend) - 1) \
            == (3 * 12, 3)

    @pytest.mark.parametrize("spare, admitted", [(0, True), (-1, False)])
    def test_the_batch_is_made_ahead_once_the_calls_left_cover_the_plan(
            self, monkeypatch, spare, admitted):
        """Every task reply is new and needs an extraction, so the batch makes
        the two calls per pair that its plan allows. Once admitted, its
        classify pool and then its extract pool start wide at once."""
        asked = spy_on_prefetch(monkeypatch)
        threads = []
        task, extraction = (
            BackendConfig(kind="mock", behavior="handler", max_in_flight=4,
                          params={"fn": sleeping(reply, threads=threads)})
            for reply in (lambda prompt: f"unsure {text_digest(prompt)}", lambda _: "positive"))
        for backend in (task, extraction):
            chat(backend, ChatRequest(user_text="warm-up"), budget())
        threads.clear()
        ds = dataset([(f"ex{i}", LABELS[i % 3]) for i in range(8)] + [("ex0", "neutral")])
        worst = sum(evaluator.call_plan(pairs=3 * 8).values())  # 8 distinct texts
        b = budget(max_calls=worst + spare)
        evaluator.evaluate_batch(BATCH, ds, config(task, extraction), b)
        assert asked[0] == (3, admitted)
        if admitted:
            assert b.calls == worst and "MainThread" not in threads

    def test_file_holds_a_templates_replies_once_its_calls_end(self, tmp_path, monkeypatch):
        """A template's replies made ahead are appended once its calls end, so
        a crash loses at most the replies of templates with calls in flight."""
        path = tmp_path / "cache.jsonl"
        ds = dataset([(f"ex{i}", "positive") for i in range(6)])
        cfg = replace(batch_config(), cache_path=path)
        b = budget()
        b.bind_replies(path)
        flush, lines, at_scoring = b.replies.flush, [], []

        def counted_flush():
            """Records the line count each time it changes: a flush with nothing
            pending, as the serial loop makes after each template, adds none."""
            flush()
            count = len(path.read_text().splitlines()) if path.exists() else 0
            if count != (lines[-1] if lines else 0):
                lines.append(count)

        def scored_first(template, ex, *args, **kwargs):
            """The line count when the scoring loop reads a template's first reply."""
            if threading.current_thread() is threading.main_thread() and ex is ds.examples[0]:
                at_scoring.append(len(path.read_text().splitlines()))
            return classify(template, ex, *args, **kwargs)

        classify = evaluator.classify_one
        monkeypatch.setattr(evaluator, "classify_one", scored_first)
        b.replies.flush = counted_flush
        scored, exhausted = evaluator.evaluate_batch(BATCH, ds, cfg, b)
        assert exhausted is None and len(scored) == 3
        # template k's six classify replies and its one extraction, and those before it
        assert len(at_scoring) == 3
        assert all(count >= 7 * (k + 1) for k, count in enumerate(at_scoring))
        # an append as each template's calls end, and one more at most as its scoring ends
        assert len(lines) <= 2 * 3 and lines[-1] == 3 * 6 + 3

    def test_budget_cut_keeps_the_templates_done_in_order(self):
        ds = dataset([(f"ex{i}", "positive") for i in range(6)])
        expected, _ = evaluator.evaluate_batch(BATCH, ds, batch_config(width=1), budget())
        for ceiling in (30, 70, 110, 150):
            cfg = batch_config()
            for backend in (cfg.task_backend, cfg.extraction_backend):
                backend.params["usage"] = (4, 6)
            spent = Budget(max_calls=10**6, max_total_tokens=ceiling)
            scored, exhausted = evaluator.evaluate_batch(BATCH, ds, cfg, spent)
            assert scored == expected[:len(scored)] and len(scored) < 3
            assert str(exhausted).startswith("budget exhausted after ")
            assert f"for template {BATCH[len(scored)].id}: token budget exhausted" \
                in str(exhausted)


def scripted_batch(replies, width, usage=None, fails=lambda prompt: False):
    """EvalConfig over sleeping backends: the task answers ``replies[(t, text)]``
    for ``Template t`` on ``text`` ("positive" where unscripted), and the
    extraction backend raises ``BackendError`` where ``fails(prompt)``. Unless
    ``width`` is 1, both backends are seen to block from the start."""
    def task_reply(prompt):
        head, text = prompt.rsplit(" ", 1)
        return replies.get((int(head.split(":")[0].split()[-1]), text), "positive")

    def extraction_reply(prompt):
        if fails(prompt):
            raise BackendError("extraction refused")
        return extraction_by_hash(prompt)

    extra = {} if usage is None else {"usage": usage}
    task = BackendConfig(kind="mock", behavior="handler", max_in_flight=width,
                         params={"fn": sleeping(task_reply, 0.001), **extra})
    extraction = BackendConfig(kind="mock", behavior="handler", max_in_flight=width,
                               params={"fn": sleeping(extraction_reply, 0.001), **extra})
    if width > 1:
        for backend in (task, extraction):
            chat(backend, ChatRequest(user_text="Template 0: warm-up"), budget())
    return config(task, extraction)


TEXTS = [f"ex{i}" for i in range(4)]
BATCHES = st.tuples(
    st.integers(1, 3),  # templates
    st.lists(st.tuples(st.sampled_from(TEXTS), st.sampled_from(LABELS)), min_size=1,
             max_size=6),  # examples; texts repeat
    st.dictionaries(st.tuples(st.integers(0, 2), st.sampled_from(TEXTS)),
                    REPLIES | st.sampled_from(["maybe-c", "???!"]), max_size=12))


class TestOneScoringPath:
    """Scores come from one serial loop; making calls ahead changes none of them."""

    @settings(max_examples=25, deadline=None)
    @given(BATCHES, st.integers(1, 40))
    def test_every_call_ceiling_gives_the_serial_scores_and_message(self, batch, max_calls):
        count, rows, replies = batch
        ds = dataset(rows)
        runs = []
        for width in (1, 4):
            b = budget(max_calls)
            scored, exhausted = evaluator.evaluate_batch(BATCH[:count], ds,
                                                         scripted_batch(replies, width), b)
            runs.append((scored, str(exhausted), b.calls))
        assert runs[0] == runs[1]

    @settings(max_examples=25, deadline=None)
    @given(BATCHES, st.integers(1, 400))
    def test_a_token_ceiling_keeps_a_prefix_of_the_full_scores(self, batch, max_tokens):
        count, rows, replies = batch
        ds = dataset(rows)
        full, _ = evaluator.evaluate_batch(BATCH[:count], ds, scripted_batch(replies, 1),
                                           budget())
        cfg = scripted_batch(replies, 4, usage=(4, 6))
        spent = Budget(max_calls=10**6, max_total_tokens=max_tokens)
        scored, exhausted = evaluator.evaluate_batch(BATCH[:count], ds, cfg, spent)
        assert scored == full[:len(scored)]
        if exhausted is None:
            assert len(scored) == count
        else:
            assert re.match(rf"budget exhausted after \d+ of {len(rows)} examples for template "
                            rf"{BATCH[len(scored)].id}: token budget exhausted", str(exhausted))

    @settings(max_examples=25, deadline=None)
    @given(BATCHES)
    def test_failed_extractions_read_unparsed_at_one_extra_call_per_reply(self, batch):
        count, rows, replies = batch
        ds = dataset(rows)

        def fails(prompt):
            return "maybe-b" in prompt or "???" in prompt

        runs = []
        for width in (1, 4):
            cfg = scripted_batch(replies, width, fails=fails)
            scored, exhausted = evaluator.evaluate_batch(BATCH[:count], ds, cfg, budget())
            assert exhausted is None
            runs.append((scored, attempt_count(cfg.extraction_backend) - (width > 1)))
        (serial, serial_calls), (wide, wide_calls) = runs
        assert wide == serial
        outcomes = [o for s in wide for o in s.per_example]
        failing = {o.raw_output for o in outcomes if fails(o.raw_output)}
        assert all(o.extracted_label == "unparsed" for o in outcomes if o.raw_output in failing)
        # the prefetch asks once per failing reply; the loop asks at each occurrence
        assert serial_calls <= wide_calls <= serial_calls + len(failing)


TEMPLATES = [validate_template(f"Template {i}: {{text}}", template_id=f"t{i}") for i in range(6)]


def racing_config(replies, width, asked=None, fails=lambda prompt: False):
    """EvalConfig whose task backend answers ``replies[(t, text)]`` for
    ``Template t`` on ``text`` ("positive" where unscripted) and raises where
    ``fails(prompt)``. At width 1 both backends compute; otherwise they sleep
    like remote ones and are seen to block from the start. ``asked`` collects
    every prompt either backend is sent."""
    def task_reply(prompt):
        if asked is not None:
            asked.append(prompt)
        if fails(prompt):
            raise RuntimeError(f"failed on {prompt}")
        head, text = prompt.rsplit(" ", 1)
        return replies.get((int(head.split(":")[0].split()[-1]), text), "positive")

    def extraction_reply(prompt):
        if asked is not None:
            asked.append(prompt)
        return extraction_by_hash(prompt)

    if width == 1:
        return config(*(BackendConfig(kind="mock", behavior="handler",
                                      params={"fn": lambda req, reply=reply: reply(req.user_text)})
                        for reply in (task_reply, extraction_reply)))
    cfg = scripted_batch({}, width)  # backends already seen to block
    for backend, reply in ((cfg.task_backend, task_reply),
                           (cfg.extraction_backend, extraction_reply)):
        backend.params["fn"] = sleeping(reply, 0.001)
    return cfg


@contextmanager
def race_every(examples):
    """Check the racing rule every ``examples`` examples instead of every
    ``RACE_EVERY``, so the small slices here race."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "RACE_EVERY", examples)
        yield


OUTCOME_MATRICES = st.tuples(
    st.integers(1, 6),  # templates
    st.lists(st.sampled_from(LABELS), min_size=1, max_size=12),  # one label per example
    st.dictionaries(st.tuples(st.integers(0, 5), st.sampled_from([f"ex{j}" for j in range(12)])),
                    REPLIES, max_size=72),
    st.integers(1, 4))  # keep
CHECKPOINTS = st.sampled_from([1, 2, 3, 8])  # examples from one check of the rule to the next
# checked before every example, t1 races before its second example and t2 before its seventh
RACING = (4, ["positive"] * 12,
          {**{(1, f"ex{j}"): "negative" for j in range(12)}, (2, "ex5"): "negative",
           **{(3, f"ex{j}"): "maybe-a" for j in range(0, 12, 2)}}, 1)


class TestRacing:
    """A batch with ``keep`` stops scoring a template once it can no longer be
    selected, and selects what a batch without racing selects."""

    def test_a_template_stops_once_the_floor_is_out_of_reach(self):
        ds = dataset([(f"ex{i}", "positive") for i in range(5)])
        cfg = config(scripted_task({"ex": "negative"}))
        with race_every(1):
            raced = evaluate(TEMPLATE, ds, cfg, budget(), 3)
            # before example 3 it could reach 0 + 2 < 3 at most
            assert raced == RacedPrompt(TEMPLATE, 0, 3, raced.per_example, raced.eval_set_id)
            assert [p.index for p in raced.per_example] == [0, 1, 2]
            assert evaluate(TEMPLATE, ds, cfg, budget(), 2).n_total == 4
            assert isinstance(evaluate(TEMPLATE, ds, cfg, budget(), 1), ScoredPrompt)
            assert isinstance(evaluate(TEMPLATE, ds, cfg, budget()), ScoredPrompt)

    def test_the_rule_is_checked_every_race_every_examples(self):
        assert evaluator.RACE_EVERY == 8
        cfg = config(scripted_task({"ex": "negative"}))
        ds = dataset([(f"ex{i}", "positive") for i in range(20)])
        # out of reach from example 6 on (0 + 14 < 15), stopped at the checkpoint before 8
        assert evaluate(TEMPLATE, ds, cfg, budget(), 15).n_total == 8
        # still in reach before example 8 (0 + 12), out of reach from 9 on, stopped before 16
        assert evaluate(TEMPLATE, ds, cfg, budget(), 12).n_total == 16
        # a slice of eight is scored in full whatever the floor
        short = dataset([(f"ex{i}", "positive") for i in range(8)])
        assert isinstance(evaluate(TEMPLATE, short, cfg, budget(), 8), ScoredPrompt)

    def test_a_template_that_can_still_reach_the_floor_completes(self):
        ds = dataset([(f"ex{i}", "positive") for i in range(4)])
        cfg = config(scripted_task({"ex0": "negative", "ex": "positive"}))
        with race_every(1):
            scored = evaluate(TEMPLATE, ds, cfg, budget(), 3)
        assert isinstance(scored, ScoredPrompt) and scored.n_correct == 3

    @settings(max_examples=30, deadline=None)
    @given(OUTCOME_MATRICES, CHECKPOINTS)
    @example(RACING, 1)
    def test_racing_selects_what_a_full_batch_selects(self, matrix, every):
        count, labels, replies, keep = matrix
        ds = dataset([(f"ex{j}", label) for j, label in enumerate(labels)])
        templates = TEMPLATES[:count]
        full_budget = budget()
        full, exhausted = evaluator.evaluate_batch(templates, ds, racing_config(replies, 1),
                                                   full_budget)
        assert exhausted is None and all(isinstance(s, ScoredPrompt) for s in full)
        runs = []
        with race_every(every):
            for width in (1, 4, 4):
                b = budget()
                cfg = racing_config(replies, width)
                results, exhausted = evaluator.evaluate_batch(templates, ds, cfg, b, keep)
                assert exhausted is None
                # the task calls, less the one that showed a wide backend to block
                runs.append((results, (b.calls, b.total_tokens),
                             call_count(cfg.task_backend) - (width > 1)))
        (serial, serial_usage, serial_pairs), (wide, wide_usage, wide_pairs), again = runs
        assert again == (wide, wide_usage, wide_pairs)  # budget totals included
        assert wide == serial  # serial and wide: only the budget totals may differ
        complete = [r for r in serial if isinstance(r, ScoredPrompt)]
        raced = [r for r in serial if isinstance(r, RacedPrompt)]
        # the serial loop makes the pairs it scores; the calls made ahead cover
        # every template in full
        n = len(labels)
        assert serial_pairs == sum(r.n_total for r in serial)
        assert wide_pairs == n * count
        assert serial_usage[0] <= wide_usage[0] == full_budget.calls
        assert [s.template.id for s in select_top(complete, keep)] == \
            [s.template.id for s in select_top(full, keep)]
        by_id = {s.template.id: s for s in full}
        assert all(s == by_id[s.template.id] for s in complete)
        for r in raced:
            assert r.n_total % every == 0
            assert by_id[r.template.id].n_correct < select_top(full, keep)[-1].n_correct
            assert r.per_example == by_id[r.template.id].per_example[:r.n_total]
        assert complete[:keep] == serial[:keep]  # the first keep always complete
        if (matrix, every) == (RACING, 1):
            assert [r.n_total for r in raced[:2]] == [1, 6]
            assert serial_usage[0] < wide_usage[0]

    @settings(max_examples=20, deadline=None)
    @given(OUTCOME_MATRICES, st.lists(st.sampled_from([f"ex{j}" for j in range(3)]),
                                      min_size=1, max_size=8))
    def test_each_distinct_request_is_made_once(self, matrix, texts):
        count, labels, replies, keep = matrix
        # texts repeat, and so do the ambiguous replies among REPLIES
        ds = dataset([(text, label) for text, label in zip(texts, labels * 8)])
        asked = []
        cfg = racing_config(replies, 4, asked=asked)
        with race_every(1):
            results, exhausted = evaluator.evaluate_batch(TEMPLATES[:count], ds, cfg, budget(),
                                                          keep)
        assert exhausted is None and len(results) == count
        assert len(asked) == len(set(asked))

    @settings(max_examples=25, deadline=None)
    @given(OUTCOME_MATRICES, CHECKPOINTS, st.integers(1, 60))
    def test_a_call_ceiling_keeps_a_prefix_of_the_full_results(self, matrix, every, max_calls):
        count, labels, replies, keep = matrix
        ds = dataset([(f"ex{j}", label) for j, label in enumerate(labels)])
        with race_every(every):
            full, _ = evaluator.evaluate_batch(TEMPLATES[:count], ds, racing_config(replies, 1),
                                               budget(), keep)
            kept = []
            for width in (1, 4):
                results, exhausted = evaluator.evaluate_batch(
                    TEMPLATES[:count], ds, racing_config(replies, width), budget(max_calls), keep)
                assert results == full[:len(results)]
                assert (exhausted is None) == (len(results) == count)
                kept.append(len(results))
        # the calls made ahead include those racing skips, so a wide run keeps no more
        assert kept[1] <= kept[0]

    @settings(max_examples=20, deadline=None)
    @given(OUTCOME_MATRICES, st.integers(1, 400))
    def test_a_token_ceiling_keeps_a_prefix_of_the_full_results(self, matrix, max_tokens):
        count, labels, replies, keep = matrix
        ds = dataset([(f"ex{j}", label) for j, label in enumerate(labels)])
        with race_every(1):
            full, _ = evaluator.evaluate_batch(TEMPLATES[:count], ds, racing_config(replies, 1),
                                               budget(), keep)
            spent = Budget(max_calls=10**6, max_total_tokens=max_tokens)
            results, exhausted = evaluator.evaluate_batch(
                TEMPLATES[:count], ds, racing_config(replies, 4), spent, keep)
        assert results == full[:len(results)]
        assert (exhausted is None) == (len(results) == count)

    def test_calls_made_ahead_cover_a_raced_template_in_full(self):
        ds = dataset([(f"ex{j}", "positive") for j in range(12)])
        cfg = racing_config({(1, f"ex{j}"): "negative" for j in range(12)}, 4)
        with race_every(1):
            results, _ = evaluator.evaluate_batch(TEMPLATES[:2], ds, cfg, budget(), 1)
        assert results[1].n_total == 1
        assert call_count(cfg.task_backend) - 1 == 12 + 12

    def test_many_threads_switching_often_make_the_same_calls(self):
        ds = dataset([(f"ex{j}", LABELS[j % 3]) for j in range(12)])
        words = ("positive", "negative", "Neutral.", "maybe-a", "???")
        replies = {(t, f"ex{j}"): words[(t * 7 + j) % 5] for t in range(6) for j in range(12)}
        interval = sys.getswitchinterval()
        with race_every(1):
            serial, _ = evaluator.evaluate_batch(TEMPLATES, ds, racing_config(replies, 1),
                                                 budget(), 2)
            sys.setswitchinterval(1e-6)
            try:
                seen = set()
                for _ in range(5):
                    cfg = racing_config(replies, 8)
                    b = budget()
                    results, exhausted = evaluator.evaluate_batch(TEMPLATES, ds, cfg, b, 2)
                    assert exhausted is None and results == serial
                    seen.add((b.calls, b.total_tokens, call_count(cfg.task_backend)))
            finally:
                sys.setswitchinterval(interval)
        assert len(seen) == 1

    def test_a_raced_template_scored_again_replays_its_prefix(self):
        ds = dataset([(f"ex{j}", "positive") for j in range(8)])
        asked = []
        cfg = racing_config({(1, f"ex{j}"): "negative" for j in range(3)}, 1, asked)
        b = budget()
        with race_every(1):
            first, _ = evaluator.evaluate_batch(TEMPLATES[:2], ds, cfg, b, 1)
            assert isinstance(first[1], RacedPrompt) and first[1].n_total == 1
            again, _ = evaluator.evaluate_batch(TEMPLATES[1:2], ds, cfg, b, 1)
        assert isinstance(again[0], ScoredPrompt) and again[0].n_correct == 5
        assert again[0].per_example[:1] == first[1].per_example
        assert len(asked) == len(set(asked)) == 8 + 8

    def test_a_failure_past_the_point_a_template_races_is_never_raised(self):
        ds = dataset([(f"ex{j}", "positive") for j in range(8)])
        replies = {(1, "ex0"): "negative"}  # t1 races before its second example
        runs = []
        for width in (1, 4):
            asked = []
            cfg = racing_config(replies, width, asked,
                                fails=lambda prompt: prompt == "Template 1: ex5")
            with race_every(1):
                results, exhausted = evaluator.evaluate_batch(TEMPLATES[:2], ds, cfg, budget(), 1)
            assert exhausted is None
            runs.append((results, asked.count("Template 1: ex5")))
        (serial, serial_asked), (wide, wide_asked) = runs
        assert serial == wide and isinstance(wide[1], RacedPrompt) and wide[1].n_total == 1
        assert (serial_asked, wide_asked) == (0, 1)  # made ahead, failed, and never raised

    def test_a_failure_the_loop_reaches_is_raised_without_asking_again(self):
        ds = dataset([(f"ex{j}", "positive") for j in range(8)])
        asked = []
        cfg = racing_config({}, 4, asked, fails=lambda prompt: prompt == "Template 1: ex2")
        with pytest.raises(RuntimeError, match="failed on Template 1: ex2"):
            evaluator.evaluate_batch(TEMPLATES[:2], ds, cfg, budget(), 1)
        assert asked.count("Template 1: ex2") == 1
        # without a floor a template makes its calls ahead before its first two
        # examples; the second round does not ask for the failed one again
        asked.clear()
        with pytest.raises(RuntimeError, match="failed on Template 1: ex2"):
            evaluate(TEMPLATES[1], ds, cfg, budget())
        assert asked.count("Template 1: ex2") == 1


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

    def test_per_example_is_a_tuple_of_four_named_fields(self):
        outcome = PerExample(3, "Positive!", "positive", True)
        assert PerExample._fields == ("index", "raw_output", "extracted_label", "correct")
        assert outcome == (3, "Positive!", "positive", True) and outcome.correct

    def test_a_raced_prompt_covers_the_examples_it_scored(self):
        per = (PerExample(0, "x", "negative", False), PerExample(1, "y", "positive", True))
        assert RacedPrompt(TEMPLATE, 1, 2, per, "e").n_total == 2
        with pytest.raises(ValidationError, match="examples scored"):
            RacedPrompt(TEMPLATE, 1, 3, per, "e")
        with pytest.raises(ValidationError, match="n_correct"):
            RacedPrompt(TEMPLATE, 2, 2, per, "e")

    def test_counts_must_match_outcomes(self):
        per = (PerExample(index=0, raw_output="x", extracted_label="positive",
                          correct=False),)
        with pytest.raises(ValidationError, match="n_correct"):
            ScoredPrompt(template=TEMPLATE, accuracy=1.0, n_correct=1, n_total=1,
                         per_example=per, eval_set_id="e")


def cache_line(key: str, raw) -> str:
    return json.dumps({"key_hash": key, "raw_output": raw})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
WHOLE_LINES = st.one_of(
    st.builds(cache_line, st.sampled_from(["k1", "k2", "k3"]), st.sampled_from(["a", "b", "ab"])),
    st.builds(cache_line, st.text(max_size=8), st.text(max_size=8)),
    st.builds(lambda k, r: json.dumps({"raw_output": r, "key_hash": k}, ensure_ascii=False),
              st.text(max_size=6), st.text(max_size=6)),
    st.builds(cache_line, st.sampled_from(["k1", "k2"]), JSON_VALUES),
    st.builds(lambda value: json.dumps({"key_hash": value, "raw_output": "v"}), JSON_VALUES),
    JSON_VALUES.map(json.dumps),
    st.sampled_from([
        r'{"key_hash": "\ud800", "raw_output": "\u00e9\n\udc00"}',  # lone surrogates
        r'{"key_hash": "k1", "raw_output": "\u0041\"\\"}',
        '{"key_hash": "k1", "key_hash": "k2", "raw_output": "dup"}',
        '{"key_hash": "k1", "raw_output": NaN}',
        '{"key_hash": "k1", "raw_output": "v"} {"key_hash": "k2", "raw_output": "w"}',
        '{"key_hash": "k1", "raw_output": "v", "n": ' + "9" * 4301 + "}",  # past int's limit
        '{"key_hash": "k2", "raw_output": "v", "n": ' + "9" * 4300 + "}",
        "[" * 100_000 + "]" * 100_000,  # past the recursion limit
        '{"key_hash": "k3", "raw_output": ' + "[" * 100_000 + "]" * 100_000 + "}",
        "\ufeff" + '{"key_hash": "k1", "raw_output": "bom"}',
        "null", "", "}", '"key_hash"',
    ]))
CACHE_LINES = st.one_of(
    st.tuples(st.sampled_from(["", " ", "\t", "  \t"]), WHOLE_LINES,
              st.sampled_from(["", " ", "\t", "\r", "\x0c", "\xa0", "\u2028", " x"]))
    .map("".join).map(str.encode),
    st.tuples(WHOLE_LINES, st.floats(0, 1)).map(  # a line cut short
        lambda cut: cut[0][: int(cut[1] * len(cut[0]))].encode()),
    st.sampled_from([b"", b" ", b"\t\t", b"\x0c", b"\xff\xfe"]))  # blank, or not UTF-8


class TestCachePersistence:
    def test_appended_entries_survive_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path)
        cache.put("k1", "v1")
        cache.put("k2", "v2")
        cache.flush()
        reloaded = ResponseCache(path)
        assert reloaded.get("k1") == "v1"
        assert reloaded.get("k2") == "v2"
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines == [{"key_hash": "k1", "raw_output": "v1"},
                         {"key_hash": "k2", "raw_output": "v2"}]

    def test_a_reload_keeps_one_copy_of_each_distinct_reply(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("".join(json.dumps({"key_hash": f"k{i}", "raw_output": "positive"}) + "\n"
                                for i in range(3)))
        reloaded = ResponseCache(path)
        assert reloaded.get("k0") == "positive"
        assert reloaded.get("k0") is reloaded.get("k1") is reloaded.get("k2")

    def test_put_is_visible_to_a_second_cache_while_the_first_is_open(self, tmp_path):
        """A put is served from memory at once and reaches the file on flush."""
        path = tmp_path / "cache.jsonl"
        first = ResponseCache(path)
        first.put("k1", "v1")
        first.put("k2", "v2")
        assert (first.get("k1"), first.get("k2")) == ("v1", "v2")
        unflushed = ResponseCache(path)
        assert (unflushed.get("k1"), unflushed.get("k2")) == (None, None)
        first.flush()
        flushed = ResponseCache(path)
        assert (flushed.get("k1"), flushed.get("k2")) == ("v1", "v2")
        first.flush()  # nothing new: no line is written twice
        first.put("k3", "v3")
        assert ResponseCache(path).get("k3") is None
        first.flush()
        reloaded = ResponseCache(path)
        assert (reloaded.get("k1"), reloaded.get("k2"), reloaded.get("k3")) == ("v1", "v2", "v3")
        assert len(path.read_text().splitlines()) == 3

    def test_lines_are_the_bytes_of_the_json_of_a_dict(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        pairs = [("k", "plain"), ('q"uote', "line\nbreak\ttab\\"), ("ü", "日本 ✓"), ("", "")]
        cache = ResponseCache(path)
        for key, raw in pairs:
            cache.put(key, raw)
        cache.flush()
        assert path.read_text() == "".join(
            json.dumps({"key_hash": key, "raw_output": raw}) + "\n" for key, raw in pairs)
        assert path.read_text().isascii()

    def test_cut_off_line_skipped_and_next_append_kept(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        good = json.dumps({"key_hash": "k1", "raw_output": "v1"})
        # a crash mid-append leaves a line without its end
        path.write_text(good + "\n" + '{"key_hash": "k2", "raw_ou')
        with caplog.at_level("WARNING", logger="lpo.evaluator"):
            cache = ResponseCache(path)
            assert cache.get("k1") == "v1"
            assert cache.skipped == 1
            assert len([r for r in caplog.records if "unreadable" in r.message]) == 1
            cache.put("k3", "v3")
            cache.flush()
        reloaded = ResponseCache(path)
        assert (reloaded.get("k1"), reloaded.get("k3")) == ("v1", "v3")
        assert reloaded.skipped == 1

    @pytest.mark.parametrize("value", [5, None, ["positive"], {"label": "positive"}])
    @pytest.mark.parametrize("field", ["key_hash", "raw_output"])
    def test_line_whose_key_or_reply_is_not_a_string_is_skipped(self, tmp_path, caplog,
                                                                  field, value):
        path = tmp_path / "cache.jsonl"
        bad = {"key_hash": "k1", "raw_output": "positive", field: value}
        path.write_text(json.dumps(bad) + "\n"
                        + json.dumps({"key_hash": "k2", "raw_output": "negative"}) + "\n")
        with caplog.at_level("WARNING"):
            cache = ResponseCache(path)
        assert cache.skipped == 1 and cache.get("k2") == "negative"
        assert cache.get("k1") is None
        if field == "key_hash" and not isinstance(value, (list, dict)):
            assert cache.get(value) is None  # nor is an int or null key kept
        assert [r.getMessage() for r in caplog.records] == [
            f"skipped 1 unreadable cache line(s) in {path}"]

    @pytest.mark.parametrize("indent", ["", " "])  # the scanner, and json.loads
    def test_line_nested_past_the_recursion_limit_is_skipped(self, tmp_path, caplog, indent):
        path = tmp_path / "cache.jsonl"
        good = json.dumps({"key_hash": "k1", "raw_output": "v1"})
        deep = indent + "[" * 100_000 + "]" * 100_000
        path.write_text(f"{deep}\n{good}\n{indent}" + '{"key_hash": "k2", "raw_output": '
                        + "[" * 100_000 + "]" * 100_000 + "}\n")
        with caplog.at_level("WARNING"):
            cache = ResponseCache(path)
        assert cache.get("k1") == "v1" and cache.get("k2") is None and cache.skipped == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"skipped 2 unreadable cache line(s) in {path}"]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(CACHE_LINES, max_size=12), st.booleans())
    def test_the_loader_keeps_and_skips_what_json_loads_would(self, lines, ends_line):
        """On any mix of lines the loader gives the entries, skipped count and
        cut-off flag of the per-line ``json.loads`` reader, and keeps one copy
        of each distinct reply."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.jsonl"
            path.write_bytes(b"\n".join(lines) + (b"\n" if ends_line and lines else b""))
            cache = ResponseCache(path)
            assert (cache._entries, cache.skipped, cache._cut_off) == reference_cache_read(path)
            replies = cache._entries.values()
            assert len({id(raw) for raw in replies}) == len(set(replies))

    def test_reply_that_is_not_a_string_is_asked_for_again(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cfg = config(scripted_task({"good day": "maybe"}), fixed_extraction("positive"),
                     cache_path=path)
        ex = Example(text="good day", label="positive")
        key = evaluator._classify_keys(gateway.backend_fingerprint(cfg.task_backend), cfg,
                                       TEMPLATE)(ex)
        path.write_text(json.dumps({"key_hash": key, "raw_output": 5}) + "\n")
        scored = evaluate(TEMPLATE, Dataset(examples=(ex,), label_set=LABELS), cfg, budget())
        assert scored.per_example[0].raw_output == "maybe" and scored.accuracy == 1.0
        assert call_count(cfg.task_backend) == 1

    def test_failed_append_leaves_only_its_own_line_torn(self, tmp_path, caplog, monkeypatch):
        path = tmp_path / "cache.jsonl"
        real_write = os.write

        def full_disk(fd, data):
            """Writes part of the group, then fails as a full disk would."""
            real_write(fd, data[:12])
            raise OSError(28, "No space left on device")

        with caplog.at_level("WARNING"):
            cache = ResponseCache(path)
            cache.put("k1", "v1")
            cache.flush()
            cache.put("k2", "v2")
            cache.put("k3", "v3")
            with monkeypatch.context() as patched:
                patched.setattr(os, "write", full_disk)
                cache.flush()
            failures = [r for r in caplog.records if "could not append" in r.message]
            assert len(failures) == 1 and "2 line(s)" in failures[0].message
            assert (cache.get("k2"), cache.get("k3")) == ("v2", "v3")  # still served from memory
            cache.put("k4", "v4")
            cache.put("k5", "v5")
            cache.flush()
        reloaded = ResponseCache(path)
        assert [reloaded.get(f"k{i}") for i in range(1, 6)] == ["v1", None, None, "v4", "v5"]
        assert reloaded.skipped == 1
        assert path.read_text().endswith('{"key_hash": "k5", "raw_output": "v5"}\n')

    @settings(max_examples=80, deadline=None)
    @given(st.booleans(), st.lists(st.tuples(
        st.lists(st.text(max_size=6), min_size=1, max_size=4),
        st.one_of(st.none(), st.tuples(st.sampled_from(["raise", "short"]),
                                       st.floats(0, 1, exclude_max=True)))), max_size=6))
    def test_torn_groups_are_skipped_and_whole_lines_kept(self, crashed_before, groups):
        """Each flush may write only a prefix of its group, then raise ENOSPC
        or return short. A reload serves every line that reached the file
        whole (all of a whole group's), skips one line per group cut within a
        line, and the group after a failure starts on a new line."""
        real_write = os.write
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.jsonl"
            if crashed_before:
                path.write_text('{"key_hash": "old", "raw_ou')
            expected, torn, cut_off = {}, int(crashed_before), crashed_before
            cache = ResponseCache(path)
            for g, (values, fault) in enumerate(groups):
                lines = {f"g{g}-{i}": value for i, value in enumerate(values)}
                dumped = {json.dumps({"key_hash": k, "raw_output": v}): k for k, v in lines.items()}
                data = (("\n" if cut_off else "") + "".join(d + "\n" for d in dumped)).encode()
                kept = len(data) if fault is None else int(fault[1] * len(data))

                def write(fd, out, fault=fault, kept=kept, data=data):
                    assert out == data  # a group after a torn one starts on a new line
                    real_write(fd, out[:kept])
                    if fault is not None and fault[0] == "raise":
                        raise OSError(28, "No space left on device")
                    return kept

                for key, value in lines.items():
                    cache.put(key, value)
                with pytest.MonkeyPatch.context() as patched:
                    patched.setattr(os, "write", write)
                    cache.flush()
                # a line is whole once its closing brace is out, even without its newline
                *out, rest = data[:kept].decode().split("\n")
                for line in filter(None, out + [rest]):
                    if line in dumped:
                        expected[dumped[line]] = lines[dumped[line]]
                torn += bool(rest) and rest not in dumped
                cut_off = fault is not None
                assert all(cache.get(k) == v for k, v in lines.items())  # memory keeps all
            reloaded = ResponseCache(path)
            every = [f"g{g}-{i}" for g, (values, _) in enumerate(groups)
                     for i in range(len(values))]
            assert {k: reloaded.get(k) for k in every if reloaded.get(k) is not None} == expected
            assert reloaded.get("old") is None and reloaded.skipped == torn

    def test_evaluate_writes_each_template_once_its_calls_end(self, tmp_path):
        """A process that dies before a flush loses only the replies put since
        the last template, and leaves no torn line."""
        path = tmp_path / "cache.jsonl"
        code = f"""if True:
            import os
            from lpo.core import Dataset, Example, validate_template
            from lpo.evaluator import EvalConfig, evaluate
            from lpo.gateway import BackendConfig, Budget
            ds = Dataset(examples=tuple(Example(text=f"row-{{i}}", label="positive")
                                        for i in range(6)), label_set=("negative", "positive"))
            fixed = BackendConfig(kind="mock", behavior="fixed", params={{"reply": "positive"}})
            cfg = EvalConfig(task_backend=fixed, extraction_backend=fixed,
                             cache_path={str(path)!r})
            budget = Budget()
            for text in ("First: {{text}}", "Second: {{text}}"):
                evaluate(validate_template(text), ds, cfg, budget)
            budget.replies.put("unflushed", "lost")
            os._exit(0)
            """
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 2 * 6 and all(line.endswith("\n") for line in lines)
        reloaded = ResponseCache(path)
        assert reloaded.skipped == 0 and reloaded.get("unflushed") is None

    def test_template_cut_short_by_the_budget_keeps_its_replies(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ds = dataset([(f"ex{i}", "positive") for i in range(5)])
        cfg = config(scripted_task({f"ex{i}": "positive" for i in range(5)}), cache_path=path)
        spent = budget(max_calls=3)
        with pytest.raises(BudgetExhaustedError, match="after 3 of 5"):
            evaluate(TEMPLATE, ds, cfg, spent)
        assert len(path.read_text().splitlines()) == 3  # written before evaluate returns
        rerun = budget(max_calls=2)  # the three replies kept come from the file
        assert evaluate(TEMPLATE, ds, cfg, rerun).n_total == 5

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


class TestCacheBinding:
    """:func:`evaluate` binds the budget to ``cfg.cache_path``, which stays bound."""

    def test_evaluations_on_one_budget_read_the_file_once(self, tmp_path, monkeypatch):
        made = spy_on_response_caches(monkeypatch)
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps({"key_hash": "k", "raw_output": "v"}) + "\n")
        ds = dataset([("good day", "positive")])
        b = budget()
        for cache_path in (path, str(path)):
            cfg = config(scripted_task({"good day": "Positive"}), cache_path=cache_path)
            evaluate(TEMPLATE, ds, cfg, b)
        assert len(made) == 1 and b.replies is made[0]
        assert b.replies.get("k") == "v"
        assert open_descriptors(path) == []

    def test_another_cache_path_takes_over_after_a_flush(self, tmp_path, monkeypatch):
        made = spy_on_response_caches(monkeypatch)
        first, second = tmp_path / "first.jsonl", tmp_path / "sub" / "second.jsonl"
        ds = dataset([("good day", "positive")])
        b = budget()
        for cache_path in (first, second):
            evaluate(TEMPLATE, ds, config(scripted_task({"good day": "Positive"}),
                                          cache_path=cache_path), b)
        assert [cache.path for cache in made] == [first, second] and b.replies is made[1]
        assert len(first.read_text().splitlines()) == len(second.read_text().splitlines()) == 1

    def test_budget_exhaustion_leaves_the_file_bound_and_no_descriptor_open(self, tmp_path,
                                                                            monkeypatch):
        made = spy_on_response_caches(monkeypatch)
        path = tmp_path / "cache.jsonl"
        b = budget(max_calls=1)
        fixed = BackendConfig(kind="mock", behavior="fixed", params={"reply": "positive"})
        cfg = EvalConfig(task_backend=fixed, extraction_backend=fixed, cache_path=path)
        ds = dataset([("a", "positive"), ("b", "positive")])
        with pytest.raises(BudgetExhaustedError):
            evaluate(TEMPLATE, ds, cfg, b)
        assert len(made) == 1 and b.replies is made[0] and b.replies.path == path
        assert open_descriptors(path) == []
        assert len(path.read_text().splitlines()) == 1
