from dataclasses import replace

import numpy as np
import pytest
from helpers import build_toy_pipeline, circle_points, spy_on_response_caches, toy_fitness

from lpo.cli import main
from lpo.core import validate_template
from lpo.errors import BudgetExhaustedError, ValidationError
from lpo.evaluator import PerExample, ScoredPrompt
from lpo.gateway import BackendConfig, call_count, usage_report
from lpo.optimizer import iterate, run_cycle, select_top
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
        # seeds compete alongside all valid candidates
        assert len(result.scored) == 20
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
        assert len(result.scored) == 15
        seed_ids = {s.id for s in p.seeds}
        assert all(sp.template.id not in seed_ids for sp in result.scored)

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

        import json

        def normalized(record):
            lines = []
            for line in run_record_to_lines(record):
                obj = json.loads(line)
                for key in list(obj):
                    if key.endswith("_at"):
                        obj[key] = None
                lines.append(json.dumps(obj, sort_keys=True))
            return lines

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

    def test_budget_error_in_first_iteration_closes_the_cache(self, tmp_path, monkeypatch):
        made = spy_on_response_caches(monkeypatch)
        p = build_toy_pipeline(rng_seed=0, cache_path=tmp_path / "cache.jsonl", max_calls=1)
        p.budget.ensure_available()
        p.budget.record(0, 0)  # spent before the run starts
        with pytest.raises(BudgetExhaustedError):
            iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert made and all(cache.closed for cache in made)

    def test_caches_closed_after_a_run(self, tmp_path, monkeypatch):
        made = spy_on_response_caches(monkeypatch)
        p = build_toy_pipeline(rng_seed=0, cache_path=tmp_path / "cache.jsonl")
        iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        run_cycle(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        assert len(made) == 2 and all(cache.closed for cache in made)
        assert (tmp_path / "cache.jsonl").stat().st_size > 0

    def test_seed_scores_cached_across_iterations(self):
        p = build_toy_pipeline(rng_seed=5, max_iterations=2, patience=2)
        iterate(p.seeds, p.cfg, p.eval_cfg, p.eval_set, p.budget)
        # templates selected into iteration 2 were already scored in iteration 1,
        # so the task backend only sees each distinct template once
        distinct_templates = call_count(p.task_backend) / 20
        assert distinct_templates == int(distinct_templates)
        assert distinct_templates <= 5 + 15 + 15  # seeds + 2 rounds of candidates
