import json
import sys
import threading
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest
from helpers import (build_toy_pipeline, circle_points, open_descriptors, sleeping,
                     spy_on_response_caches, toy_fitness)
from hypothesis import given, settings
from hypothesis import strategies as st

from lpo import evaluator, fixtures, optimizer, prompts
from lpo import gateway as gw
from lpo.cli import main
from lpo.core import render_prompt, text_digest, validate_template
from lpo.encoder import encode
from lpo.errors import BackendError, BudgetExhaustedError, ValidationError
from lpo.evaluator import PerExample, ScoredPrompt
from lpo.gateway import (MOCK_CHAT_BEHAVIORS, BackendConfig, Budget, ChatRequest, call_count,
                         chat, usage_report)
from lpo.optimizer import cycle_plan, iterate, run_cycle, select_top
from lpo.records import read_run_record, run_record_to_lines, write_run_record


def scored(tid, text, accuracy, n_total=10):
    n_correct = int(round(accuracy * n_total))
    per = tuple(
        PerExample(index=i, raw_output="r", extracted_label="x", correct=i < n_correct)
        for i in range(n_total)
    )
    template = validate_template(text, template_id=tid)
    return ScoredPrompt(template=template, accuracy=n_correct / n_total,
                        n_correct=n_correct, n_total=n_total, per_example=per,
                        eval_set_id="fixed")


def normalized(record) -> list[str]:
    """The record's lines with every timestamp blanked."""
    lines = []
    for line in run_record_to_lines(record):
        obj = json.loads(line)
        for key in list(obj):
            if key.endswith("_at"):
                obj[key] = None
        lines.append(json.dumps(obj, sort_keys=True))
    return lines


class TestSelectTop:
    def test_ties_keep_insertion_order(self):
        pool = [scored("a", "one {text}", 0.8), scored("b", "two {text}", 0.7),
                scored("c", "ten {text}", 0.8)]
        top = select_top(pool, 2)
        assert [s.template.id for s in top] == ["a", "c"]

    def test_tie_prefers_shorter_text(self):
        pool = [scored("long", "a much longer prompt {text}", 0.8),
                scored("short", "tiny {text}", 0.8)]
        assert [s.template.id for s in select_top(pool, 2)] == ["short", "long"]

    def test_n_larger_than_pool(self):
        pool = [scored("a", "one {text}", 0.5), scored("b", "two {text}", 0.9)]
        assert [s.template.id for s in select_top(pool, 10)] == ["b", "a"]

    def test_single_element(self):
        pool = [scored("only", "solo {text}", 0.4)]
        assert select_top(pool, 3) == pool

    def test_sorting_twice_is_stable(self):
        pool = [scored(f"t{i}", f"p{i} {{text}}", acc)
                for i, acc in enumerate([0.5, 0.9, 0.9, 0.1, 0.5])]
        once = select_top(pool, 5)
        twice = select_top(once, 5)
        assert once == twice
        assert len({s.template.id for s in once}) == 5

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            select_top([], 1)


class TestRunCycle:
    def test_five_seeds_fifteen_candidates_three_selected(self):
        p = build_toy_pipeline(rng_seed=0)
        result = run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert len(result.selected) == 3
        assert len(result.candidates) == 15
        assert all(c.refined_template is not None for c in result.candidates)
        # seeds compete alongside all valid candidates; a template that can no
        # longer be selected is raced instead of scored in full
        assert len(result.scored) + len(result.raced) == 20
        assert not result.partial

    def test_scores_match_quantized_fitness(self):
        p = build_toy_pipeline(rng_seed=1, n_examples=20)
        result = run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        from lpo.toyspace import ToySpaceSpec, toy_encode
        spec = ToySpaceSpec(("tone", "steps"))
        for sp in result.scored:
            vec = toy_encode(spec, sp.template.text.replace("{text}", "").strip())
            expected = int(round(toy_fitness(vec, p.target) * 20)) / 20
            assert sp.accuracy == expected

    def test_all_candidates_invalid_falls_back_to_seeds(self):
        p = build_toy_pipeline(rng_seed=2)
        # blank refinement replies make every candidate invalid
        broken = BackendConfig(kind="mock", behavior="fixed", params={"reply": ""})
        from dataclasses import replace
        cfg = replace(p.cfg, decode=replace(p.cfg.decode, chat=broken))
        result = run_cycle(p.seeds, cfg, p.eval_cfg, p.eval_set, p.budget)
        assert all(c.invalid_reason is not None for c in result.candidates)
        assert any("all candidates invalid" in w for w in result.warnings)
        seed_ids = {s.id for s in p.seeds}
        assert {t.id for t in result.selected} <= seed_ids
        assert len(result.selected) == 3

    def test_all_candidates_invalid_without_kept_seeds_scores_the_seeds(self):
        p = build_toy_pipeline(rng_seed=2, keep_seeds=False)
        broken = BackendConfig(kind="mock", behavior="fixed", params={"reply": ""})
        cfg = replace(p.cfg, decode=replace(p.cfg.decode, chat=broken))
        result = run_cycle(p.seeds, cfg, p.eval_cfg, p.eval_set, p.budget)
        assert all(c.invalid_reason is not None for c in result.candidates)
        assert result.warnings == ["all candidates invalid; selecting among seeds"]
        assert [sp.template.id for sp in result.scored] == [s.id for s in p.seeds]
        assert len(result.selected_ids) == 3 and not result.partial

    def test_keep_seeds_false_scores_only_candidates(self):
        p = build_toy_pipeline(rng_seed=3, keep_seeds=False)
        result = run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert len(result.scored) + len(result.raced) == 15
        seed_ids = {s.id for s in p.seeds}
        assert all(sp.template.id not in seed_ids for sp in result.scored + result.raced)

    def test_deterministic_across_runs(self):
        a = build_toy_pipeline(rng_seed=4)
        b = build_toy_pipeline(rng_seed=4)
        ra = run_cycle(a.seeds, a.cfg, a.eval_cfg, a.eval_set, a.budget)
        rb = run_cycle(b.seeds, b.cfg, b.eval_cfg, b.eval_set, b.budget)
        assert [t.id for t in ra.selected] == [t.id for t in rb.selected]
        assert [s.accuracy for s in ra.scored] == [s.accuracy for s in rb.scored]
        for ca, cb in zip(ra.candidates, rb.candidates):
            assert np.array_equal(ca.embedding, cb.embedding)

    def test_budget_exhaustion_yields_partial_results(self):
        # enough budget for encode + decode/refine but not full evaluation
        p = build_toy_pipeline(rng_seed=5, max_calls=30)
        result = run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert result.partial
        assert any("budget exhausted" in w for w in result.warnings)

    def test_no_candidate_leaves_without_outcome(self):
        # budget dies mid-refinement: skipped candidates still carry a reason
        p = build_toy_pipeline(rng_seed=5, max_calls=6)
        result = run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert result.partial
        for c in result.candidates:
            assert (c.refined_template is not None) or (c.invalid_reason is not None)

    def test_incumbent_never_lost(self):
        for rng_seed in range(5):
            p = build_toy_pipeline(rng_seed=rng_seed)
            result = run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
            seed_ids = {s.id for s in p.seeds}
            best_seed = max(s.accuracy for s in result.scored if s.template.id in seed_ids)
            best_selected = max(s.accuracy for s in select_top(result.scored, 3))
            assert best_selected >= best_seed

    def test_select_n_bounded_by_pool(self):
        p = build_toy_pipeline(select_n=25, candidate_count=15)
        with pytest.raises(ValidationError, match="select_n"):
            run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)

    def test_needs_seeds(self):
        p = build_toy_pipeline()
        with pytest.raises(ValidationError, match="at least one seed"):
            run_cycle([], p.cfg, p.eval_cfg, p.eval_set, p.budget)

    def test_duplicate_seed_ids_rejected(self):
        p = build_toy_pipeline()
        seeds = [p.seeds[0], p.seeds[0]]
        with pytest.raises(ValidationError, match="unique"):
            run_cycle(seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)

    def test_anchor_blend_pipeline_runs(self):
        p = build_toy_pipeline(rng_seed=6, decode_kind="anchor_blend")
        result = run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert len(result.selected) == 3
        assert call_count(p.chat_backend) == 2 * 15  # one blend + one refine each

    def test_soft_prompt_pipeline_over_wire_extension(self):
        import numpy as np
        from dataclasses import replace
        from lpo.decoder import DecodeStrategy
        from lpo.projector import LinearProjector

        p = build_toy_pipeline(rng_seed=7, decode_kind="anchor_blend")
        # identity projection keeps the soft vector in toy coordinates, so the
        # toy_chat mock can paraphrase (decode) it exactly
        strategy = DecodeStrategy(
            kind="soft_prompt",
            chat=p.chat_backend,
            projector=LinearProjector(weights=np.eye(2)),
        )
        cfg = replace(p.cfg, decode=strategy)
        result = run_cycle(p.seeds, cfg, p.eval_cfg, p.eval_set, p.budget)
        assert len(result.selected) == 3
        assert all(c.refined_template is not None for c in result.candidates)

    def test_perturb_refused_under_anchor_blend(self):
        p = build_toy_pipeline(decode_kind="anchor_blend")
        policy = replace(p.cfg.policy, strategy_mix={"interpolate": 0.5, "perturb": 0.5})
        with pytest.raises(ValidationError, match="perturb .* anchor_blend"):
            replace(p.cfg, policy=policy)

    @pytest.mark.parametrize("decode_kind", ["toy_inverse", "soft_prompt"])
    def test_perturb_runs_under_the_routes_that_use_the_point(self, decode_kind):
        from lpo.decoder import DecodeStrategy
        from lpo.projector import LinearProjector

        p = build_toy_pipeline(rng_seed=4)
        cfg = replace(p.cfg, policy=replace(p.cfg.policy, strategy_mix={"perturb": 1.0}))
        if decode_kind == "soft_prompt":
            chat = BackendConfig(kind="mock", behavior="toy_chat",
                                 params={"parameters": ["tone", "steps"]})
            cfg = replace(cfg, decode=DecodeStrategy(
                kind="soft_prompt", chat=chat, projector=LinearProjector(weights=np.eye(2))))
        result = run_cycle(p.seeds, cfg, p.eval_cfg, p.eval_set, p.budget)
        assert {c.provenance.kind for c in result.candidates} == {"perturb"}
        assert all(c.refined_template is not None for c in result.candidates)
        assert len(result.selected) == 3


    def test_a_rerun_on_one_cache_file_asks_only_its_sampled_decodes(self, tmp_path,
                                                                      monkeypatch):
        made = spy_on_response_caches(monkeypatch)
        runs = []
        for _ in range(2):
            p = build_toy_pipeline(decode_kind="anchor_blend", cache_path=tmp_path / "c.jsonl")
            result = run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
            runs.append((result, usage_report(p.budget)[0], call_count(p.embed_backend),
                         call_count(p.chat_backend)))
        (first, first_calls, first_embeds, first_chats), (again, calls, embeds, chats) = runs
        assert (first_embeds, first_chats) == (1, 30)  # a decode and a refine per candidate
        assert (calls, embeds, chats) == (15, 0, 15)  # the decodes, at temperature 0.7
        assert first_calls > calls
        assert scores(again) == scores(first) and again.selected_ids == first.selected_ids
        assert len(made) == 2  # each budget read the file once, before its first call

    def test_a_cut_in_decoding_appends_its_finished_replies_as_one_group(self, tmp_path,
                                                                       monkeypatch):
        groups = []
        flush = gw.ResponseCache.flush

        def spy(cache):
            if cache._pending:
                groups.append(len(cache._pending))
            flush(cache)

        monkeypatch.setattr(gw.ResponseCache, "flush", spy)
        path, at_scoring = tmp_path / "c.jsonl", []
        batch = evaluator.evaluate_batch

        def scoring(*args, **kwargs):
            at_scoring.append(len(path.read_text().splitlines()))
            return batch(*args, **kwargs)

        monkeypatch.setattr(evaluator, "evaluate_batch", scoring)
        # the embedding, then a decode and a refine for each of three candidates, one decode
        p = build_toy_pipeline(decode_kind="anchor_blend", cache_path=path, max_calls=8)
        result = run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert result.partial
        assert [c.refined_template is not None for c in result.candidates[:4]] == [True] * 3 + [
            False]
        assert groups == [5 + 3]  # the five seeds' vectors and three refinements
        assert at_scoring == [8]


class TestIterate:
    def test_single_iteration_by_default(self):
        p = build_toy_pipeline(rng_seed=0)
        record = iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert len(record.iterations) == 1
        assert record.iterations[0].index == 1
        assert record.iterations[0].selected_ids

    def test_patience_zero_stops_without_improvement(self):
        # target sits exactly on a seed: no interpolation can beat it
        points = circle_points()
        p = build_toy_pipeline(rng_seed=1, target=points[0], max_iterations=5,
                               patience=0)
        record = iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert len(record.iterations) == 1
        assert any("no improvement" in w for w in record.warnings)

    def test_improvement_resets_patience(self):
        p = build_toy_pipeline(rng_seed=0, max_iterations=3, patience=0)
        record = iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        # iteration 1 improves on the seeds, so the run continues past it
        assert len(record.iterations) >= 2

    def test_best_score_nondecreasing_with_keep_seeds(self):
        for rng_seed in range(5):
            p = build_toy_pipeline(rng_seed=rng_seed, n_examples=10,
                                   max_iterations=3, patience=3)
            record = iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
            bests = [it.best_accuracy for it in record.iterations]
            assert all(a <= b for a, b in zip(bests, bests[1:]))

    def test_selected_feed_next_iteration(self):
        p = build_toy_pipeline(rng_seed=2, max_iterations=2, patience=2)
        record = iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        if len(record.iterations) >= 2:
            first_selected = set(record.iterations[0].selected_ids)
            second_seed_ids = {t.id for t in record.iterations[1].seeds}
            assert second_seed_ids == first_selected

    def test_run_record_is_self_contained(self):
        p = build_toy_pipeline(rng_seed=3)
        record = iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert record.config["policy"]["candidate_count"] == 15
        assert record.dataset["examples"] == 20
        assert record.budget_calls > 0
        for it in record.iterations:
            scored_ids = {s.template.id for s in it.scored}
            assert set(it.selected_ids) <= scored_ids

    def test_determinism_modulo_timestamps(self):
        def run():
            p = build_toy_pipeline(rng_seed=4, max_iterations=2, patience=2)
            return iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)

        assert normalized(run()) == normalized(run())

    @staticmethod
    def first_iteration(rng_seed):
        """An unlimited one-iteration run and the calls it made."""
        p = build_toy_pipeline(rng_seed=rng_seed)
        record = iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        return record.iterations[0], usage_report(p.budget)[0]

    @staticmethod
    def outcome(iteration):
        return iteration.selected_ids, [(s.template.id, s.accuracy) for s in iteration.scored]

    def test_budget_spent_by_one_iteration_stops_before_the_next(self):
        first, calls = self.first_iteration(rng_seed=0)
        p = build_toy_pipeline(rng_seed=0, max_iterations=3, patience=3, max_calls=calls)
        record = iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        # the next cycle's encode finds no call left; iteration 1 is kept whole
        assert [it.partial for it in record.iterations] == [False]
        assert self.outcome(record.iterations[0]) == self.outcome(first)
        assert record.warnings == [
            f"stopped before iteration 2: call budget exhausted ({calls}/{calls} calls)"]
        assert record.budget_calls == calls

    def test_budget_running_out_mid_cycle_stops_after_it(self):
        first, calls = self.first_iteration(rng_seed=0)
        p = build_toy_pipeline(rng_seed=0, max_iterations=3, patience=3, max_calls=calls + 5)
        record = iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert [it.partial for it in record.iterations] == [False, True]
        assert self.outcome(record.iterations[0]) == self.outcome(first)
        assert record.warnings[-1] == "stopped after iteration 2: budget exhausted"
        assert any(w.startswith("budget exhausted during") for w in record.iterations[1].warnings)
        assert record.budget_calls == calls + 5

    def test_partial_iteration_that_scored_nothing_reports_n_a(self, tmp_path, capsys):
        p = build_toy_pipeline(rng_seed=5, max_calls=6)  # gone before any scoring
        record = iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        [iteration] = record.iterations
        assert iteration.partial and iteration.scored == [] and iteration.selected_ids == []
        path = tmp_path / "run_record.jsonl"
        write_run_record(record, path)
        [saved] = read_run_record(path)[1]
        assert (saved["best_accuracy"], saved["mean_accuracy"]) == (None, None)
        assert main(["report", str(path)]) == 0
        row = capsys.readouterr().out.splitlines()[6]
        assert row.split()[:3] == ["1", "n/a", "n/a"]

    def test_budget_error_in_first_iteration_closes_the_cache(self, tmp_path):
        p = build_toy_pipeline(rng_seed=0, cache_path=tmp_path / "cache.jsonl", max_calls=1)
        p.budget.ensure_available()
        p.budget.record(0, 0)  # spent before the run starts
        with pytest.raises(BudgetExhaustedError):
            iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert open_descriptors(tmp_path / "cache.jsonl") == []

    def test_iterate_then_run_cycle_read_the_cache_file_once(self, tmp_path, monkeypatch):
        made = spy_on_response_caches(monkeypatch)
        p = build_toy_pipeline(rng_seed=0, cache_path=tmp_path / "cache.jsonl")
        iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert open_descriptors(tmp_path / "cache.jsonl") == []
        run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert len(made) == 1 and p.budget.replies is made[0]  # the file stays bound
        assert open_descriptors(tmp_path / "cache.jsonl") == []
        assert (tmp_path / "cache.jsonl").stat().st_size > 0

    def test_seed_scores_cached_across_iterations(self, monkeypatch):
        asked = []
        task = MOCK_CHAT_BEHAVIORS["toy_task"]
        monkeypatch.setitem(MOCK_CHAT_BEHAVIORS, "toy_task",
                            lambda cfg, req: asked.append(req.user_text) or task(cfg, req))
        p = build_toy_pipeline(rng_seed=5, max_iterations=2, patience=2)
        iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        # templates selected into iteration 2 were already scored in iteration 1;
        # they, and a raced template that comes back, are scored again from the
        # reply cache, so the task backend sees each classify request once
        assert len(asked) == len(set(asked)) == call_count(p.task_backend)
        assert len(asked) <= 20 * (5 + 15 + 15)  # seeds + 2 rounds of candidates


LABELS = ("negative", "positive")
# how the sleeping task backend words a label; "maybe" replies need the extraction backend
VARIANTS = ("{label}", "{Label}.", "maybe {label}", "maybe", "???", '{{"label": "{label}"}}')


@dataclass
class SleepyRun:
    record: object
    budget: Budget
    calls: dict[str, int]
    peaks: dict[str, list[int]]    # overlap seen by each call, per backend
    threads: dict[str, list[str]]  # the thread making each call, per backend
    spans: dict[str, list[tuple]]  # each call's (start, end, request text), per backend


def sleepy_run(width, rng_seed=0, variants=("{label}", "{label}"), max_calls=10**7,
               max_total_tokens=10**12, usage=None, warm=False) -> SleepyRun:
    """``iterate`` over the anchor_blend toy pipeline (6 examples, 6 candidates,
    2 iterations), with fresh decode, task and extraction backends that sleep
    like remote ones and allow ``width`` calls in flight. ``variants`` words
    the negative and positive task replies; ``usage`` fixes each chat call's
    (prompt, completion) tokens. With ``warm`` each backend answers one
    request before the run, on another budget, so it is seen to block from
    the start; ``calls`` counts it."""
    p = build_toy_pipeline(rng_seed=rng_seed, n_examples=6, candidate_count=6, select_n=2,
                           max_iterations=2, patience=2, decode_kind="anchor_blend")
    peaks = {name: [] for name in ("chat", "task", "extract")}
    threads = {name: [] for name in peaks}
    spans = {name: [] for name in peaks}

    def backend(name, reply_for):
        params = {"fn": sleeping(reply_for, 0.002, peaks[name], threads[name], spans[name])}
        if usage is not None:
            params["usage"] = usage
        return BackendConfig(kind="mock", behavior="handler", max_in_flight=width, params=params)

    def toy(behavior, cfg):
        return lambda text: MOCK_CHAT_BEHAVIORS[behavior](cfg, ChatRequest(user_text=text))

    def task_reply(text):
        label = toy("toy_task", p.task_backend)(text)
        return variants[LABELS.index(label)].format(label=label, Label=label.capitalize())

    backends = {
        "chat": backend("chat", toy("toy_chat", p.chat_backend)),
        "task": backend("task", task_reply),
        "extract": backend("extract", lambda text: LABELS[sum(text.encode()) % 2]
                           if "maybe" in text else "no idea"),
    }
    cfg = replace(p.cfg, decode=replace(p.cfg.decode, chat=backends["chat"]))
    eval_cfg = replace(p.eval_cfg, task_backend=backends["task"],
                       extraction_backend=backends["extract"])
    if warm:
        texts = {"chat": prompts.refine_instruction("warm-up", ["{text}"]),
                 "task": render_prompt(p.seeds[0], p.eval_set.examples[0].text),
                 "extract": "warm-up"}
        for name, b in backends.items():
            chat(b, ChatRequest(user_text=texts[name]), Budget())
        for recorded in (*peaks.values(), *threads.values(), *spans.values()):
            recorded.clear()
    budget = Budget(max_calls=max_calls, max_total_tokens=max_total_tokens)
    record = iterate(p.seeds, cfg, eval_cfg, p.eval_set, budget)
    return SleepyRun(record, budget, {name: call_count(b) for name, b in backends.items()},
                     peaks, threads, spans)


def decoded(iteration) -> list:
    """Each candidate's id and decode, up to the first one without a decode."""
    done = []
    for c in iteration.candidates:
        if c.decoded_text is None:
            break
        done.append((c.id, c.decoded_text))
    return done


def finished(iteration) -> list:
    """Each candidate's id and outcome, up to the first one the budget stopped."""
    done = []
    for c in iteration.candidates:
        if c.invalid_reason is not None and c.invalid_reason.startswith("not decoded"):
            break
        done.append((c.id, c.refined_template, c.invalid_reason))
    return done


def scores(iteration) -> list:
    return [(s.template.id, s.accuracy, s.per_example) for s in iteration.scored]


def is_prefix(part: list, whole: list) -> bool:
    return part == whole[:len(part)]


REFINE_HEAD = prompts.refine_instruction("", [])[:40]


def in_flight(spans) -> int:
    """The most of these (start, end, text) calls in flight at once."""
    steps = sorted([(start, 1) for start, _, _ in spans] + [(end, -1) for _, end, _ in spans])
    depth = most = 0
    for _, step in steps:
        depth += step
        most = max(most, depth)
    return most


def overlapping(spans, others) -> bool:
    """Whether some call of ``spans`` is in flight while one of ``others`` is."""
    return any(start < other_end and other_start < end
               for start, end, _ in spans for other_start, other_end, _ in others)


class TestCycleFanOut:
    """A cycle over backends that block decodes its candidates concurrently
    and scores its templates as one batch, with a serial run's results."""

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10**6), st.tuples(st.sampled_from(VARIANTS), st.sampled_from(VARIANTS)))
    def test_width_four_equals_width_one(self, rng_seed, variants):
        wide, serial = (sleepy_run(width, rng_seed, variants) for width in (4, 1))
        assert normalized(wide.record) == normalized(serial.record)
        assert wide.calls == serial.calls
        assert usage_report(wide.budget) == usage_report(serial.budget)
        for name in ("chat", "task"):
            assert 1 < max(wide.peaks[name]) <= 4
            assert max(serial.peaks[name]) == 1
        # fresh backends: the first candidate (a blend and a refine) and the first
        # template's first classify call run serially, then it widens
        assert wide.threads["chat"][:2] == ["MainThread"] * 2
        assert wide.threads["chat"].count("MainThread") == 2
        assert wide.threads["task"].count("MainThread") == 1

    def test_computing_backends_start_no_thread(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", forbidden)
        p = build_toy_pipeline(rng_seed=3, decode_kind="anchor_blend", max_iterations=2,
                               patience=2)
        record = iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert len(record.iterations) == 2 and not record.iterations[-1].partial

    # what the serial loops made of these budgets before the batch existed
    @pytest.mark.parametrize("max_calls, scored_ids, warning", [
        (60, ["seed-1", "seed-2", "seed-3", "seed-4", "seed-5", "it1-cand-00", "it1-cand-01"],
         "budget exhausted during evaluation: budget exhausted after 5 of 6 examples for "
         "template it1-cand-02: call budget exhausted (60/60 calls)"),
        (90, ["it1-cand-01", "it1-cand-03"],
         "budget exhausted during decoding: call budget exhausted (90/90 calls)"),
    ])
    def test_call_ceiling_too_small_for_the_batch_keeps_the_serial_record(
            self, max_calls, scored_ids, warning):
        wide, serial = (sleepy_run(width, rng_seed=1, max_calls=max_calls) for width in (4, 1))
        assert normalized(wide.record) == normalized(serial.record)
        assert wide.calls == serial.calls
        assert usage_report(wide.budget)[0] == max_calls
        last = wide.record.iterations[-1]
        assert last.partial and [s.template.id for s in last.scored] == scored_ids
        assert last.warnings == [warning]

    def test_candidates_finished_past_the_cut_are_dropped(self):
        p = build_toy_pipeline(rng_seed=0, candidate_count=6, decode_kind="anchor_blend")
        first = run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget).candidates[0]
        parents = {s.id: s.text for s in p.seeds}
        slow = prompts.blend_instruction(*(parents[pid] for pid in first.provenance.parents),
                                         float(first.provenance.weight))

        def reply(req):  # the first candidate's blend outlasts the other five chains
            time.sleep(0.2 if req.user_text == slow else 0.002)
            return MOCK_CHAT_BEHAVIORS["toy_chat"](p.chat_backend, req)

        backend = BackendConfig(kind="mock", behavior="handler",
                                params={"fn": reply, "usage": (5, 5)})
        chat(backend, ChatRequest(user_text=slow), Budget())  # seen to block from the start
        cfg = replace(p.cfg, decode=replace(p.cfg.decode, chat=backend))
        embedded = Budget()
        encode(cfg.encoder, p.seeds, embedded)
        # tokens for the five other chains and the slow blend; its refine is refused
        budget = Budget(max_total_tokens=embedded.total_tokens + 5 * 20 + 5)
        result = run_cycle(p.seeds, cfg, p.eval_cfg, p.eval_set, budget)
        assert call_count(backend) == 1 + 1 + 5 * 2
        assert result.partial and result.warnings[0].startswith("budget exhausted during decoding")
        head, *rest = result.candidates
        assert head.decoded_text == first.decoded_text and head.refined_template is None
        assert all(c.decoded_text is None and c.refined_template is None for c in rest)
        assert all(c.invalid_reason.startswith("not decoded") for c in result.candidates)

    def test_token_ceiling_in_a_fan_out_keeps_a_prefix(self):
        full = sleepy_run(4, rng_seed=2, usage=(5, 5))
        spent = usage_report(full.budget)[1]
        stages = set()
        for share in (0.03, 0.1, 0.3, 0.5, 0.7, 0.9):
            part = sleepy_run(4, rng_seed=2, usage=(5, 5), max_total_tokens=int(share * spent))
            *whole, last = part.record.iterations
            assert last.partial and len(part.record.warnings) >= 1
            assert normalized(part.record)[1:len(whole) + 1] == \
                normalized(full.record)[1:len(whole) + 1]
            same = full.record.iterations[len(whole)]
            assert decoded(last) and is_prefix(decoded(last), decoded(same))
            assert is_prefix(finished(last), finished(same))
            assert all(c.invalid_reason.startswith("not decoded") and c.refined_template is None
                       for c in last.candidates[len(finished(last)):])
            assert is_prefix(scores(last), scores(same))
            stages.update(w.split(":")[0] for w in last.warnings if w.startswith("budget"))
        assert stages == {"budget exhausted during decoding", "budget exhausted during evaluation"}

    def test_scoring_overlaps_decoding_and_extraction_overlaps_classification(self):
        """Backends seen to block from the start: the seeds' classify calls
        are in flight while candidates refine, and extractions while classify
        calls are, with the records and calls of a serial run."""
        variants = ("maybe", "{label}")  # a negative reply needs an extraction
        wide, serial = (sleepy_run(width, variants=variants, warm=True) for width in (4, 1))
        assert normalized(wide.record) == normalized(serial.record)
        assert wide.calls == serial.calls
        refines = [span for span in wide.spans["chat"] if span[2].startswith(REFINE_HEAD)]
        assert refines and overlapping(wide.spans["task"], refines)
        assert overlapping(wide.spans["extract"], wide.spans["task"])
        assert all(in_flight(spans) <= 4 for spans in wide.spans.values())
        # one call at a time: no backend waits while another does
        assert in_flight([span for spans in serial.spans.values() for span in spans]) == 1

    @pytest.mark.parametrize("error", [BackendError("chat backend gone"), KeyboardInterrupt()])
    def test_a_failed_decode_cancels_the_classify_calls_queued_ahead(self, error):
        p = build_toy_pipeline(rng_seed=0, n_examples=20, candidate_count=6,
                               decode_kind="anchor_blend")
        warm_up = prompts.refine_instruction("warm-up", ["{text}"])
        failed_at, decodes, classified, lock = [], [], [], threading.Lock()

        def decode_reply(req):
            """The first decode fails soon, while the others, slower, are in flight."""
            if req.user_text == warm_up:
                time.sleep(0.002)
                return "Answer: {text}"
            with lock:
                first = not decodes
                decodes.append(req.user_text)
            time.sleep(0.005 if first else 0.05)
            if first:
                failed_at.append(time.perf_counter())
            raise error

        def task_reply(text):
            return MOCK_CHAT_BEHAVIORS["toy_task"](p.task_backend, ChatRequest(user_text=text))

        chat_backend = BackendConfig(kind="mock", behavior="handler", max_in_flight=4,
                                     params={"fn": decode_reply})
        task = BackendConfig(kind="mock", behavior="handler", max_in_flight=4,
                             params={"fn": sleeping(task_reply, spans=classified)})
        chat(chat_backend, ChatRequest(user_text=warm_up), Budget())  # seen to block
        chat(task, ChatRequest(user_text=render_prompt(p.seeds[0], p.eval_set.examples[0].text)),
             Budget())
        classified.clear()
        cfg = replace(p.cfg, decode=replace(p.cfg.decode, chat=chat_backend))
        eval_cfg = replace(p.eval_cfg, task_backend=task)
        with pytest.raises(type(error)):
            run_cycle(p.seeds, cfg, eval_cfg, p.eval_set, Budget())
        assert len(decodes) > 1 and len(classified) < len(p.seeds) * 20  # queued, then cancelled
        assert sum(start > failed_at[0] for start, _, _ in classified) <= task.max_in_flight

    def test_many_threads_switching_often_keep_the_serial_record(self):
        """Eight threads per lane on a shared interpreter that switches
        threads every microsecond: a lost count of the calls a template
        waits for would hang the run or change its record."""
        variants = ("maybe", "{Label}.")
        serial, runs = sleepy_run(1, variants=variants, warm=True), []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(
                target=lambda: runs.append(sleepy_run(8, variants=variants, warm=True)))
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and len(runs) == 1
        assert normalized(runs[0].record) == normalized(serial.record)
        assert runs[0].calls == serial.calls

    def test_every_call_of_a_cycle_is_made_inside_it(self, monkeypatch):
        """Calls counted around each ``run_cycle``, as the benchmark counts
        them, add up to the run's: no call made ahead outlives its cycle."""
        threads, cycles, inner = threading.active_count(), [], optimizer.run_cycle

        def counted(seeds, cfg, eval_cfg, *args, **kwargs):
            backends = (cfg.decode.chat, eval_cfg.task_backend, eval_cfg.extraction_backend)
            before = [call_count(b) for b in backends]
            result = inner(seeds, cfg, eval_cfg, *args, **kwargs)
            cycles.append([call_count(b) - n for b, n in zip(backends, before)])
            assert threading.active_count() == threads
            return result

        monkeypatch.setattr(optimizer, "run_cycle", counted)
        run = sleepy_run(4, variants=("maybe", "{label}"), warm=True)
        assert len(cycles) == len(run.record.iterations) == 2
        # the calls of each backend, less its warm-up call
        assert [sum(calls) for calls in zip(*cycles)] == \
            [run.calls[name] - 1 for name in ("chat", "task", "extract")]
        assert all(cycles[0])


def without_racing(monkeypatch) -> None:
    """Make run_cycle score every template on the whole slice."""
    batch = evaluator.evaluate_batch
    monkeypatch.setattr(evaluator, "evaluate_batch",
                        lambda templates, eval_set, cfg, budget, keep=None:
                        batch(templates, eval_set, cfg, budget))


def racing_and_full(monkeypatch, **kwargs):
    """The record of a toy run, and of the same run scoring every template in full."""
    p = build_toy_pipeline(**kwargs)
    racing = iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
    with monkeypatch.context() as patched:
        without_racing(patched)
        q = build_toy_pipeline(**kwargs)
        full = iterate(q.seeds, q.cfg, q.eval_cfg, q.eval_set, q.budget)
    return racing, full


class TestRacing:
    """A cycle stops scoring a template once it can no longer be selected,
    and selects what a cycle that scores every template in full selects."""

    @pytest.mark.parametrize("keep_seeds", [True, False])
    def test_selection_equals_a_run_without_racing(self, monkeypatch, keep_seeds):
        raced_total = 0
        for rng_seed in range(6):
            racing, full = racing_and_full(monkeypatch, rng_seed=rng_seed, max_iterations=3,
                                           patience=3, keep_seeds=keep_seeds)
            assert len(racing.iterations) == len(full.iterations)
            for it, whole in zip(racing.iterations, full.iterations):
                assert it.selected_ids == whole.selected_ids
                assert it.best_accuracy == whole.best_accuracy and not whole.raced
                raced = {r.template.id: r for r in it.raced}
                assert it.scored == [s for s in whole.scored if s.template.id not in raced]
                kth = select_top(whole.scored, 3)[-1].accuracy
                for s in whole.scored:
                    if s.template.id in raced:
                        assert s.accuracy < kth
                        assert raced[s.template.id].per_example == \
                            s.per_example[:raced[s.template.id].n_total]
                raced_total += len(raced)
            assert racing.budget_calls <= full.budget_calls
        assert raced_total > 0

    def test_a_cut_selects_as_without_racing(self, monkeypatch):
        """The budget runs out partway through scoring. Each template kept was
        raced only against templates kept before it, so the cycle selects what
        a cycle without racing selects among them."""
        kwargs = dict(rng_seed=1, keep_seeds=False, select_n=1, target=(0.0, 1.0))
        p = build_toy_pipeline(**kwargs)
        with monkeypatch.context() as patched:
            without_racing(patched)
            whole = run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        cuts = 0
        for max_calls in range(p.budget.calls // 4, p.budget.calls, 5):
            q = build_toy_pipeline(max_calls=max_calls, **kwargs)
            it = run_cycle(q.seeds, q.cfg, q.eval_cfg, q.eval_set, q.budget)
            if not it.partial:
                continue
            kept = {s.template.id for s in it.scored + it.raced}
            cuts += 1
            pool = [s for s in whole.scored if s.template.id in kept]
            expected = [s.template.id for s in select_top(pool, 1)] if pool else []
            assert it.selected_ids == expected
        assert cuts > 0

    def test_the_report_reads_every_record_version(self, monkeypatch, tmp_path, capsys):
        racing, full = racing_and_full(monkeypatch, rng_seed=3, max_iterations=2, patience=2)
        assert [len(it.raced) for it in racing.iterations] != [0, 0]
        reports = {}
        for name, record in (("racing", racing), ("full", full)):
            path = tmp_path / f"{name}.jsonl"
            write_run_record(record, path)
            assert main(["report", str(path)]) == 0
            reports[name] = capsys.readouterr().out.splitlines()
        header, iterations = read_run_record(tmp_path / "racing.jsonl")
        assert header["version"] == 3
        # the raced column counts each iteration's raced templates
        rows = reports["racing"][6:6 + len(iterations)]
        assert [int(row.split()[5]) for row in rows] == [len(it.raced) for it in racing.iterations]
        # the best seed and the best prompt are complete, so the comparison is unchanged
        tail = [line for line in reports["racing"] if line.startswith(("baseline", "best", "impr"))]
        assert len(tail) == 3
        assert tail == [line for line in reports["full"]
                        if line.startswith(("baseline", "best", "impr"))]
        # a version 2 record has no raced templates
        header["version"] = 2
        lines = [json.dumps(header)] + [
            json.dumps({k: v for k, v in it.items() if k != "raced"}) for it in iterations]
        (tmp_path / "v2.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["report", str(tmp_path / "v2.jsonl")]) == 0
        rows = capsys.readouterr().out.splitlines()[6:6 + len(iterations)]
        assert [row.split()[5] for row in rows] == ["0"] * len(iterations)
        assert main(["report", str(fixtures.fixture_path("reference_run.jsonl"))]) == 0
        assert capsys.readouterr().out.splitlines()[6].split()[5] == "0"  # version 1


def counting(reply_for, asked: list):
    """Handler backend that logs each request's text in ``asked``."""
    return BackendConfig(kind="mock", behavior="handler",
                         params={"fn": lambda req: asked.append(req.user_text)
                                 or reply_for(req.user_text)})


class TestOnePoolPerCycle:
    """Each cycle scores its own seeds and candidates in one batch; no score
    outlives its cycle, and the reply cache makes that free."""

    @settings(max_examples=25, deadline=None)
    @given(rng_seed=st.integers(0, 10**6),
           points=st.lists(st.tuples(st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)),
                                     st.sampled_from((0.2, 0.5, 0.8))), min_size=1, max_size=3),
           seed_replies=st.integers(0, 2), select_n=st.integers(2, 3))
    def test_every_id_recorded_is_the_cycles_own(self, rng_seed, points, seed_replies, select_n):
        """The decode backend answers from a small set of texts, some of them
        the first seeds', so texts repeat within and across cycles. The seeds
        compete, so each cycle selects the two seeds that blending needs."""
        p = build_toy_pipeline(rng_seed=rng_seed, n_examples=8, candidate_count=4,
                               select_n=select_n, max_iterations=3, patience=3,
                               decode_kind="anchor_blend",
                               seeds_xy=circle_points(count=3), target=(0.4, 0.6))
        replies = [t.text for t in p.seeds[:seed_replies]] + [
            f"tone={x!r};steps={y!r} {{text}}" for x, y in points]
        chat = BackendConfig(kind="mock", behavior="handler", params={
            "fn": lambda req: replies[sum(req.user_text.encode()) % len(replies)]})
        cfg = replace(p.cfg, decode=replace(p.cfg.decode, chat=chat))
        record = iterate(p.seeds, cfg, p.eval_cfg, p.eval_set, p.budget)
        for it in record.iterations:
            own = {t.id for t in it.seeds} | {
                c.id for c in it.candidates if c.refined_template is not None}
            results = it.scored + it.raced
            assert {r.template.id for r in results} | set(it.selected_ids) <= own
            texts = [r.template.text for r in results]
            assert len(texts) == len(set(texts))

    def test_a_later_cycle_calls_only_for_texts_new_to_it(self, monkeypatch):
        """Cycle 2 re-scores its seeds from the reply cache: it makes the
        classify and extract calls of the texts cycle 1 did not score, and no
        other, and its seeds score what they scored in cycle 1."""
        without_racing(monkeypatch)  # every text is scored in full, in both cycles
        p = build_toy_pipeline(rng_seed=4, n_examples=10, candidate_count=6)
        task = MOCK_CHAT_BEHAVIORS["toy_task"]

        def task_reply(text):  # odd examples reply without a label: stage 2 labels them
            label = task(p.task_backend, ChatRequest(user_text=text))
            return label if int(text.rsplit("sample-", 1)[1]) % 2 == 0 else \
                f"unsure {text_digest(text)}"

        classified, extracted = [], []
        eval_cfg = replace(p.eval_cfg, task_backend=counting(task_reply, classified),
                           extraction_backend=counting(lambda text: "positive", extracted))
        first = run_cycle(p.seeds, p.cfg, eval_cfg, p.eval_set, p.budget)
        asked = len(classified), len(extracted)
        second = run_cycle(first.selected, p.cfg, eval_cfg, p.eval_set, p.budget, iteration=2)
        new = {s.template.text for s in second.scored} - {s.template.text for s in first.scored}
        assert second.seeds and new and not first.raced and not second.raced
        assert len(classified) - asked[0] == 10 * len(new)
        assert len(extracted) - asked[1] == 5 * len(new)
        before_by_id = {s.template.id: s for s in first.scored}
        assert second.scored[:len(second.seeds)] == [before_by_id[t.id] for t in second.seeds]

    def test_a_cut_in_the_seeds_scoring_keeps_the_all_invalid_warning(self):
        """Under keep_seeds the fallback to the seeds is decided before
        scoring, so its warning stands when the budget then cuts the seeds'
        scoring short."""
        p = build_toy_pipeline(rng_seed=2)
        broken = BackendConfig(kind="mock", behavior="fixed", params={"reply": ""})
        cfg = replace(p.cfg, decode=replace(p.cfg.decode, chat=broken))
        whole = run_cycle(p.seeds, cfg, p.eval_cfg, p.eval_set, p.budget)
        q = build_toy_pipeline(rng_seed=2, max_calls=p.budget.calls - 50)
        cut = run_cycle(q.seeds, cfg, q.eval_cfg, q.eval_set, q.budget)
        assert whole.warnings == ["all candidates invalid; selecting among seeds"]
        assert cut.partial and cut.warnings[0] == whole.warnings[0]
        assert [w.split(":")[0] for w in cut.warnings[1:]] == [
            "budget exhausted during evaluation"]
        assert is_prefix(scores(cut), scores(whole)) and len(cut.scored) < len(p.seeds)

    def test_a_failed_extraction_is_asked_again_in_the_next_cycle(self):
        """A seed's stage-2 extraction that failed counts as unparsed in its
        cycle; the next cycle scores the seed again and asks again."""
        p = build_toy_pipeline(rng_seed=1, n_examples=4, candidate_count=4, select_n=2)
        task = MOCK_CHAT_BEHAVIORS["toy_task"]

        def task_reply(text):  # example 1 (label positive) needs stage 2
            label = task(p.task_backend, ChatRequest(user_text=text))
            return f"unsure {text_digest(text)}" if "sample-01" in text else label

        extracted = []

        def extract_reply(text):  # each extraction fails the first time it is asked
            if extracted.count(text) == 1:
                raise BackendError("extraction backend down")
            return "positive"

        eval_cfg = replace(p.eval_cfg, task_backend=counting(task_reply, []),
                           extraction_backend=counting(extract_reply, extracted))
        first = run_cycle(p.seeds, p.cfg, eval_cfg, p.eval_set, p.budget)
        second = run_cycle(first.selected, p.cfg, eval_cfg, p.eval_set, p.budget, iteration=2)
        before = {s.template.id: s for s in first.scored}
        again = {s.template.id: s for s in second.scored}
        assert second.seeds
        for seed in second.seeds:
            assert before[seed.id].per_example[0].extracted_label == "unparsed"
            assert again[seed.id].per_example[0].extracted_label == "positive"
            assert again[seed.id].n_correct == before[seed.id].n_correct + 1
        assert len(extracted) == len(set(extracted)) + len(second.seeds)


class TestCallPlan:
    """``cycle_plan`` bounds each cycle's calls, and a stage fans out exactly
    when the calls left cover its worst case."""

    @settings(max_examples=30, deadline=None)
    @given(rng_seed=st.integers(0, 10**6), keep_seeds=st.booleans(),
           candidates=st.integers(1, 6), seeds=st.integers(2, 6), valid=st.booleans(),
           iterations=st.integers(1, 3))
    def test_the_plan_bounds_each_cycle(self, rng_seed, keep_seeds, candidates, seeds, valid,
                                        iterations):
        """Blends that validate once refined, or replies that never validate,
        so that the seeds are scored in the candidates' place; the cycles
        share one budget. Every task reply is new and needs an extraction,
        so each pair scored makes both the calls the plan allows it."""
        p = build_toy_pipeline(rng_seed=rng_seed, n_examples=6, candidate_count=candidates,
                               select_n=2, keep_seeds=keep_seeds, decode_kind="anchor_blend",
                               seeds_xy=circle_points(count=seeds))
        garbage = BackendConfig(kind="mock", behavior="fixed", params={"reply": "garbage"})
        cfg = p.cfg if valid else replace(p.cfg, decode=replace(p.cfg.decode, chat=garbage))
        eval_cfg = replace(
            p.eval_cfg,
            task_backend=BackendConfig(kind="mock", behavior="handler", params={
                "fn": lambda req: f"unsure {text_digest(req.user_text)}"}),
            extraction_backend=BackendConfig(kind="mock", behavior="fixed",
                                             params={"reply": "positive"}))
        current = p.seeds
        for index in range(1, iterations + 1):
            if len(current) < 2:  # too few to blend; iterate stops here
                break
            plan = cycle_plan(candidates, len(current), keep_seeds, len(p.eval_set))
            before = p.budget.calls
            result = run_cycle(current, cfg, eval_cfg, p.eval_set, p.budget, iteration=index)
            assert not result.partial
            assert p.budget.calls - before <= sum(plan.values())
            current = result.selected

    @pytest.mark.parametrize("spare, wide", [(0, True), (-1, False)])
    def test_decoding_fans_out_once_the_calls_left_cover_the_plan(self, spare, wide):
        p = build_toy_pipeline(rng_seed=0, n_examples=4, candidate_count=4,
                               decode_kind="anchor_blend")
        threads = []
        backend = BackendConfig(kind="mock", behavior="handler", max_in_flight=4, params={
            "fn": sleeping(lambda text: MOCK_CHAT_BEHAVIORS["toy_chat"](
                p.chat_backend, ChatRequest(user_text=text)), threads=threads)})
        chat(backend, ChatRequest(user_text=prompts.refine_instruction("x", ["{text}"])),
             Budget())  # seen to block from the start
        threads.clear()
        cfg = replace(p.cfg, decode=replace(p.cfg.decode, chat=backend))
        worst = sum(evaluator.call_plan(candidates=4).values())
        budget = Budget(max_calls=1 + worst + spare)  # the embed call, then the decode stage
        run_cycle(p.seeds, cfg, p.eval_cfg, p.eval_set, budget)
        assert len(threads) == worst + min(spare, 0)
        assert {name == "MainThread" for name in threads} == {not wide}
