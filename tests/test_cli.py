import hashlib
import json
import re
import urllib.request

import numpy as np
import pytest
import yaml
from helpers import LoopbackServer, open_descriptors, spy_on_response_caches
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import lpo.gateway as gw
from lpo import core, fixtures
from lpo.cli import main
from lpo.config import AppConfig, load_app_config
from lpo.gateway import Budget
from lpo.optimizer import cycle_plan
from lpo.projector import LinearProjector, save_weights
from lpo.records import read_run_record


@pytest.fixture
def toy_workspace(tmp_path):
    fixtures.copy_toy_workspace(tmp_path)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestOptimize:
    def test_toy_run_exits_zero_and_writes_artifacts(self, toy_workspace, capsys):
        code = run(["optimize", "--config", toy_workspace / "config.yaml",
                    "--seeds", toy_workspace / "seeds.jsonl"])
        assert code == 0
        assert (toy_workspace / "out" / "run_record.jsonl").exists()
        assert (toy_workspace / "out" / "summary.txt").exists()
        out = capsys.readouterr().out
        assert "baseline (best seed)" in out

    def test_bad_seed_named_and_exit_2(self, toy_workspace, capsys):
        seeds = toy_workspace / "bad_seeds.jsonl"
        seeds.write_text(
            json.dumps({"id": "ok-seed", "text": "fine {text}"}) + "\n"
            + json.dumps({"id": "broken-seed", "text": "no placeholder"}) + "\n")
        code = run(["optimize", "--config", toy_workspace / "config.yaml",
                    "--seeds", seeds])
        assert code == 2
        err = capsys.readouterr().err
        assert "broken-seed" in err

    def test_all_config_errors_listed(self, toy_workspace, capsys):
        config = toy_workspace / "broken.yaml"
        config.write_text(
            "dataset: {train: missing.jsonl, validation_fraction: 2.0, labels: 5}\n"
            "policy: {candidate_count: 0}\n"
            "encoder: {backend: {kind: mock, params: [1, 2]}}\n"
            "decode: {toy_parameters: 5, chat_backend: {kind: mock, max_in_flight: 0}}\n"
            "evaluator: {task_backend: {kind: mock, timeout: 0}}\n")
        code = run(["optimize", "--config", config,
                    "--seeds", toy_workspace / "seeds.jsonl"])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing.jsonl" in err
        assert "validation_fraction" in err
        assert "candidate_count" in err
        assert "encoder.backend.params: must be a mapping, got [1, 2]" in err
        assert "dataset.labels: must be a list of labels, got 5" in err
        assert "decode.toy_parameters: must be a list of names, got 5" in err
        assert "decode.chat_backend: max_in_flight must be >= 1, got 0" in err
        assert "evaluator.task_backend: timeout must be > 0, got 0.0" in err

    def test_quoted_booleans_are_config_errors(self, toy_workspace, capsys):
        config_text = (toy_workspace / "config.yaml").read_text()
        config_text = config_text.replace("keep_seeds: true", 'keep_seeds: "false"')
        (toy_workspace / "quoted.yaml").write_text(config_text)
        code = run(["optimize", "--config", toy_workspace / "quoted.yaml",
                    "--seeds", toy_workspace / "seeds.jsonl"])
        assert code == 2
        err = capsys.readouterr().err
        assert "optimizer.keep_seeds: must be true or false, got 'false'" in err

    @pytest.mark.parametrize("endpoint, override", [
        ("api.test/v1/chat", None), ("https://api.test/v1/chat", "api.test/v1/chat")])
    def test_endpoint_that_is_not_an_http_url_exits_2(self, toy_workspace, capsys, monkeypatch,
                                                       endpoint, override):
        def forbidden(*args, **kwargs):
            raise AssertionError("backend called with an endpoint that is not a URL")

        monkeypatch.setattr(urllib.request.OpenerDirector, "open", forbidden)
        if override is None:  # refused by the config loader, before any call
            monkeypatch.setattr(gw, "_mock_chat", forbidden)
            monkeypatch.setattr(gw, "_mock_embed", forbidden)
        else:
            monkeypatch.setenv("LPO_ENDPOINT", override)
        config = edited_config(toy_workspace, "evaluator.task_backend",
                               {"kind": "remote_chat", "endpoint": endpoint, "model_name": "m"})
        code = run(["optimize", "--config", config, "--seeds", toy_workspace / "seeds.jsonl"])
        err = capsys.readouterr().err
        assert code == 2
        where = "evaluator.task_backend: " if override is None else "error: "
        assert where + "endpoint must be an http(s) URL, got 'api.test/v1/chat'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["clé✓", "sk-abc\nX-Evil: 1"])
    def test_api_key_that_cannot_be_a_header_exits_2_unsent(self, toy_workspace, capsys,
                                                              monkeypatch, key):
        forbid_backends(monkeypatch)
        monkeypatch.setenv("LPO_API_KEY", key)
        config = edited_config(toy_workspace, "evaluator.task_backend",
                               {"kind": "remote_chat", "endpoint": "https://api.test/v1",
                                "model_name": "m"})
        code = run(["evaluate", "--config", config, "--prompts", toy_workspace / "seeds.jsonl"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: the API key in $LPO_API_KEY must be printable ASCII without spaces" in err
        assert "sk-abc" not in err and "clé" not in err and "Traceback" not in err

    def test_dry_run_makes_zero_backend_calls(self, toy_workspace, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("backend touched during dry run")

        monkeypatch.setattr(gw, "_mock_chat", forbidden)
        monkeypatch.setattr(gw, "_mock_embed", forbidden)
        monkeypatch.setattr(urllib.request.OpenerDirector, "open", forbidden)
        code = run(["optimize", "--config", toy_workspace / "config.yaml",
                    "--seeds", toy_workspace / "seeds.jsonl", "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert "decode:      <= 15" in out

    def test_dry_run_total_bounds_the_calls_of_each_iteration(self, toy_workspace, capsys):
        config_text = (toy_workspace / "config.yaml").read_text()
        config = toy_workspace / "three.yaml"
        config.write_text(config_text.replace("max_iterations: 1", "max_iterations: 3")
                          .replace("patience: 1", "patience: 3"))
        args = ["optimize", "--config", config, "--seeds", toy_workspace / "seeds.jsonl"]
        assert run(args + ["--dry-run"]) == 0
        plan = capsys.readouterr().out
        assert "embed:       <= 1" in plan
        total = int(plan.split("total:")[1].split()[1])
        assert run(args) == 0
        record = (toy_workspace / "out" / "run_record.jsonl").read_text().splitlines()
        header = json.loads(record[0])
        assert header["iterations"] == 3
        assert 0 < header["budget"]["calls"] <= total * header["iterations"]

    @pytest.mark.parametrize("keep_seeds", [True, False])
    @pytest.mark.parametrize("reply", [None, "garbage"], ids=["valid", "never_valid"])
    def test_dry_run_prints_the_cycle_plan_and_bounds_the_run(self, toy_workspace, capsys,
                                                              keep_seeds, reply):
        """Replies that never validate make the cycle score the seeds in the
        candidates' place, which the plan counts."""
        chat = {"kind": "mock", "behavior": "toy_chat", "params": {"parameters": ["tone", "steps"]}}
        if reply is not None:
            chat = {"kind": "mock", "behavior": "fixed", "params": {"reply": reply}}
        edits = ["optimizer.keep_seeds", keep_seeds, "policy.candidate_count", 2,
                 "decode.kind", "anchor_blend", "decode.chat_backend", chat]
        args = ["optimize", "--config", edited_config(toy_workspace, *edits),
                "--seeds", toy_workspace / "seeds.jsonl"]
        assert run(args + ["--dry-run"]) == 0
        printed = re.findall(r"^  (\w+): +<= (\d+)$", capsys.readouterr().out, re.MULTILINE)
        plan = cycle_plan(2, 5, keep_seeds, 10)  # 5 seeds, 10 distinct example texts
        assert printed == [(stage, str(calls))
                           for stage, calls in {**plan, "total": sum(plan.values())}.items()]
        assert run(args) == 0
        header, _ = read_run_record(toy_workspace / "out" / "run_record.jsonl")
        assert 0 < header["budget"]["calls"] <= sum(plan.values())

    @pytest.mark.parametrize("edits", [
        ["optimizer.select_n", 1],
        ["optimizer.keep_seeds", False, "decode.kind", "anchor_blend", "decode.chat_backend",
         {"kind": "mock", "behavior": "fixed", "params": {"reply": "tone=0.5;steps=0.5 {text}"}}],
    ], ids=["select_one", "candidates_of_one_text"])
    def test_a_selection_too_small_to_seed_the_next_cycle_stops_the_run(
            self, toy_workspace, capsys, edits):
        config = edited_config(toy_workspace, "optimizer.max_iterations", 2,
                               "optimizer.patience", 2, *edits)
        assert run(["optimize", "--config", config,
                    "--seeds", toy_workspace / "seeds.jsonl"]) == 0
        header, iterations = read_run_record(toy_workspace / "out" / "run_record.jsonl")
        assert len(iterations) == 1 and len(iterations[0]["selected"]) == 1
        assert header["warnings"][-1] == ("stopped before iteration 2: "
                                          "1 seed(s), but the strategy mix needs 2")

    def test_one_seed_for_a_blending_mix_exits_2_before_any_call(self, toy_workspace, capsys,
                                                                 monkeypatch):
        forbid_backends(monkeypatch)
        seeds = toy_workspace / "one.jsonl"
        seeds.write_text((toy_workspace / "seeds.jsonl").read_text().splitlines()[0] + "\n")
        code = run(["optimize", "--config", toy_workspace / "config.yaml", "--seeds", seeds])
        assert code == 2
        assert "optimize: seeds: 1 seed(s), but the strategy mix needs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["explore"], ["optimize", "--dry-run"]],
                             ids=["explore", "dry_run"])
    def test_one_seed_for_a_blending_mix_stops_a_search_before_any_embedding(
            self, toy_workspace, capsys, monkeypatch, command):
        embedded = []
        monkeypatch.setattr(gw, "embed", lambda *args: embedded.append(args))
        seeds = toy_workspace / "one.jsonl"
        seeds.write_text((toy_workspace / "seeds.jsonl").read_text().splitlines()[0] + "\n")
        code = run([*command, "--config", toy_workspace / "config.yaml", "--seeds", seeds])
        captured = capsys.readouterr()
        assert (code, embedded, captured.out) == (2, [], "")
        assert captured.err == (f"{command[0]}: seeds: "
                                "1 seed(s), but the strategy mix needs 2\n")

    def test_budget_exhaustion_exit_3(self, toy_workspace, capsys):
        config_text = (toy_workspace / "config.yaml").read_text()
        config_text = config_text.replace("max_calls: 100000", "max_calls: 1")
        (toy_workspace / "tight.yaml").write_text(config_text)
        code = run(["evaluate", "--config", toy_workspace / "tight.yaml",
                    "--prompts", toy_workspace / "seeds.jsonl"])
        assert code == 3

    def test_budget_gone_before_iteration_1_exits_3(self, toy_workspace, capsys, monkeypatch):
        spent = Budget(max_calls=1)
        spent.ensure_available()
        spent.record(0, 0)
        monkeypatch.setattr(AppConfig, "budget", lambda self: spent)
        code = run(["optimize", "--config", toy_workspace / "config.yaml",
                    "--seeds", toy_workspace / "seeds.jsonl"])
        assert code == 3
        assert "budget exhausted: call budget exhausted (1/1 calls)" in capsys.readouterr().err
        assert not (toy_workspace / "out" / "run_record.jsonl").exists()

    def test_report_prints_a_partial_run_s_warnings(self, toy_workspace, capsys):
        config_text = (toy_workspace / "config.yaml").read_text()
        (toy_workspace / "tight.yaml").write_text(
            config_text.replace("max_calls: 100000", "max_calls: 30"))
        assert run(["optimize", "--config", toy_workspace / "tight.yaml",
                    "--seeds", toy_workspace / "seeds.jsonl"]) == 0
        capsys.readouterr()
        assert run(["report", toy_workspace / "out" / "run_record.jsonl"]) == 0
        out = capsys.readouterr().out
        assert "warning: stopped after iteration 1: budget exhausted" in out
        assert "warning: budget exhausted during" in out

    def test_report_of_a_run_without_seeds_says_they_were_not_scored(self, toy_workspace,
                                                                      capsys):
        config = edited_config(toy_workspace, "optimizer.keep_seeds", False)
        assert run(["optimize", "--config", config, "--seeds", toy_workspace / "seeds.jsonl"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^best prompt: \d+\.\d\d%  \[it1-\S+\] \(seeds not scored\)$", out,
                         re.MULTILINE)
        assert "baseline" not in out

    @pytest.mark.parametrize("decode_kind", ["toy_inverse", "anchor_blend"])
    def test_a_rerun_in_one_output_directory_makes_only_its_sampled_decodes(
            self, toy_workspace, capsys, decode_kind):
        """The second run finds every embedding, refinement, classification and
        extraction in the reply cache the first run left in ``out``."""
        chat = {"kind": "mock", "behavior": "toy_chat", "params": {"parameters": ["tone", "steps"]}}
        config = edited_config(toy_workspace, "decode.kind", decode_kind,
                               "decode.chat_backend", chat, "optimizer.max_iterations", 2,
                               "optimizer.patience", 2)
        args = ["optimize", "--config", config, "--seeds", toy_workspace / "seeds.jsonl"]
        records = []
        for _ in range(2):
            assert run(args) == 0
            records.append(read_run_record(toy_workspace / "out" / "run_record.jsonl"))
        capsys.readouterr()
        (first, first_its), (second, second_its) = records
        decodes = 0 if decode_kind == "toy_inverse" else sum(
            c["decoded_text"] is not None for it in second_its for c in it["candidates"])
        assert decode_kind == "toy_inverse" or decodes == 30  # 15 candidates, 2 iterations
        assert second["budget"]["calls"] == decodes < first["budget"]["calls"]
        assert [it["scored"] for it in second_its] == [it["scored"] for it in first_its]
        assert [it["selected"] for it in second_its] == [it["selected"] for it in first_its]

    def test_backend_failure_exit_4(self, toy_workspace):
        with LoopbackServer(*[(500, "unavailable")] * 3) as server:
            config = edited_config(toy_workspace, "evaluator.task_backend", {
                "kind": "remote_chat", "endpoint": server.url, "model_name": "m",
                "backoff_base": 0, "max_attempts": 3})
            code = run(["evaluate", "--config", config,
                        "--prompts", toy_workspace / "seeds.jsonl"])
        assert code == 4
        assert len(server.received) == 3


class TestEvaluate:
    def test_table_output(self, toy_workspace, capsys):
        prompts = toy_workspace / "one.jsonl"
        prompts.write_text(json.dumps({"id": "solo", "text": "tone=0.5;steps=0.5 {text}"}) + "\n")
        code = run(["evaluate", "--config", toy_workspace / "config.yaml",
                    "--prompts", prompts, "--split", "validation"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("prompt")
        assert lines[1].startswith("solo")
        assert "%" in lines[1]

    def test_delta_between_best_and_first(self, toy_workspace, capsys):
        code = run(["evaluate", "--config", toy_workspace / "config.yaml",
                    "--prompts", toy_workspace / "seeds.jsonl"])
        assert code == 0
        assert "delta (best vs first):" in capsys.readouterr().out

    def test_splits_have_independent_caches(self, toy_workspace):
        for split in ("validation", "test"):
            code = run(["evaluate", "--config", toy_workspace / "config.yaml",
                        "--prompts", toy_workspace / "seeds.jsonl", "--split", split])
            assert code == 0
        out = toy_workspace / "out"
        assert (out / "cache_validation.jsonl").exists()
        assert (out / "cache_test.jsonl").exists()

    def test_cache_line_nested_past_the_recursion_limit_is_skipped(self, toy_workspace,
                                                                   caplog):
        args = ["evaluate", "--config", toy_workspace / "config.yaml",
                "--prompts", toy_workspace / "seeds.jsonl"]
        assert run(args) == 0
        cache = toy_workspace / "out" / "cache_validation.jsonl"
        with cache.open("a") as fh:
            fh.write("[" * 100_000 + "]" * 100_000 + "\n")
        with caplog.at_level("WARNING"):
            assert run(args) == 0
        assert [r.getMessage() for r in caplog.records] == [
            f"skipped 1 unreadable cache line(s) in {cache}"]

    def test_out_dir_flag_relocates_cache(self, toy_workspace, tmp_path):
        alt = tmp_path / "elsewhere"
        code = run(["evaluate", "--config", toy_workspace / "config.yaml",
                    "--prompts", toy_workspace / "seeds.jsonl", "--out-dir", alt])
        assert code == 0
        assert (alt / "cache_validation.jsonl").exists()

    def test_optimize_out_dir_holds_all_artifacts(self, toy_workspace, tmp_path):
        alt = tmp_path / "artifacts"
        code = run(["optimize", "--config", toy_workspace / "config.yaml",
                    "--seeds", toy_workspace / "seeds.jsonl", "--out-dir", alt])
        assert code == 0
        assert (alt / "run_record.jsonl").exists()
        assert (alt / "summary.txt").exists()
        assert (alt / "cache_validation.jsonl").exists()
        assert not (toy_workspace / "out").exists()

    def test_closes_every_cache_it_opens(self, toy_workspace, monkeypatch, capsys):
        made = spy_on_response_caches(monkeypatch)
        code = run(["evaluate", "--config", toy_workspace / "config.yaml",
                    "--prompts", toy_workspace / "seeds.jsonl"])
        assert code == 0
        cache = toy_workspace / "out" / "cache_validation.jsonl"
        assert open_descriptors(cache) == []
        assert [c.path for c in made] == [cache]  # read once
        assert cache.stat().st_size > 0

    def test_budget_exhaustion_exits_3_naming_the_examples_done_and_the_template(
            self, toy_workspace, capsys):
        config = toy_workspace / "config.yaml"
        config.write_text(config.read_text().replace("max_calls: 100000", "max_calls: 12"))
        code = run(["evaluate", "--config", config, "--prompts", toy_workspace / "seeds.jsonl"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("budget exhausted: budget exhausted after 2 of 10 examples for template "
                       "seed-2: call budget exhausted (12/12 calls)\n")

    def test_missing_test_split_configured(self, toy_workspace, capsys):
        config_text = (toy_workspace / "config.yaml").read_text()
        config_text = config_text.replace("test: test.jsonl", "test: null")
        (toy_workspace / "notest.yaml").write_text(config_text)
        code = run(["evaluate", "--config", toy_workspace / "notest.yaml",
                    "--prompts", toy_workspace / "seeds.jsonl", "--split", "test"])
        assert code == 2


def edited_config(workspace, key, value, *more):
    """Write the toy config with the dotted ``key`` set to ``value``, and each
    further key of ``more``, a flat list of keys and values, set alike;
    returns its path."""
    config = yaml.safe_load((workspace / "config.yaml").read_text())
    edits = [key, value, *more]
    for key, value in zip(edits[::2], edits[1::2]):
        *parents, leaf = key.split(".")
        node = config
        for name in parents:
            node = node[name]
        node[leaf] = value
    path = workspace / "edited.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


def leaf_keys(node, prefix=""):
    """Dotted keys of a config's values that are not non-empty mappings."""
    keys = []
    for name, value in node.items():
        if isinstance(value, dict) and value:
            keys += leaf_keys(value, f"{prefix}{name}.")
        else:
            keys.append(prefix + name)
    return keys


TOY_LEAVES = leaf_keys(yaml.safe_load(fixtures.fixture_path("toy/config.yaml").read_text()))
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
VALUES = (SCALARS | st.lists(SCALARS | st.lists(SCALARS, max_size=2), max_size=3)
          | st.dictionaries(st.text(max_size=8), SCALARS, max_size=2))


EDITS = [  # (key, YAML value, what stderr must name)
    ("out_dir", "5", "out_dir: must be a path, got 5"),
    ("dataset.train", "[a, b]", "dataset.train: must be a path, got ['a', 'b']"),
    ("dataset.train", ".", "dataset.train: file not found"),
    ("dataset.test", "7", "dataset.test: must be a path, got 7"),
    ("decode.projector_path", "5", "decode.projector_path: must be a path, got 5"),
    ("dataset.labels", "[1, 2]", "dataset.labels: must be a list of labels, got [1, 2]"),
    ("decode.toy_parameters", "[[1]]", "decode.toy_parameters: unhashable"),
    ("encoder.dimension", ".inf", "encoder.dimension: cannot convert float infinity"),
    ("budget.max_calls", ".inf", "budget.max_calls: cannot convert float infinity"),
    ("evaluator.temperature", ".nan", "evaluator: temperature must be finite"),
    ("decode.decode_temperature", ".nan", "decode: temperatures must be finite"),
    ("decode.refinement_temperature", ".inf", "decode: temperatures must be finite"),
    ("policy.strategy_mix", "{interpolate: .nan}", "policy: strategy weights"),
    ("policy.sigma", ".nan", "policy: strategy weights, extrapolation bounds and sigma"),
    ("policy.extrapolation_range", "[[.nan, .nan], [1.0, 1.5]]", "policy: strategy weights"),
    ("policy.rng_seed", "-1", "policy: rng_seed must be >= 0, got -1"),
    ("dataset.rng_seed", "-1", "dataset: rng_seed must be >= 0, got -1"),
    ("evaluator.task_backend.backoff_base", ".inf",
     "evaluator.task_backend: backoff_base must be finite and >= 0, got inf"),
    ("encoder.backend", "false", "encoder.backend: backend must be a mapping"),
    ("encoder.backend", "[]", "encoder.backend: backend must be a mapping"),
    ("evaluator.task_backend", "0", "evaluator.task_backend: backend must be a mapping"),
    ("evaluator.extraction_backend", "''",
     "evaluator.extraction_backend: backend must be a mapping"),
    ("evaluator.max_exampels", "3", "evaluator.max_exampels: unknown key"),
    ("evalutor", "{max_examples: 3}", "evalutor: unknown key"),
    ("evaluator.task_backend.max_inflight", "16",
     "evaluator.task_backend.max_inflight: unknown key"),
    ("policy.blend_range", "{}", "policy.blend_range: must be two numbers [low, high], got {}"),
    ("policy.blend_range", "[1]", "policy.blend_range: must be two numbers [low, high], got [1]"),
    ("policy.blend_range", "[0.3, 0.6, 0.9]",
     "policy.blend_range: must be two numbers [low, high], got [0.3, 0.6, 0.9]"),
    ("policy.blend_range", "{0: 0.4, 1: 0.6}",
     "policy.blend_range: must be two numbers [low, high], got {0: 0.4, 1: 0.6}"),
    ("policy.extrapolation_range", "[1, 2]",
     "policy.extrapolation_range: must be two numbers [low, high], got 1"),
    ("policy.extrapolation_range", "{}",
     "policy.extrapolation_range: must be a list of [low, high] bands, got {}"),
    ("policy.strategy_mix", "[1]",
     "policy.strategy_mix: must be a mapping of strategy to weight, got [1]"),
    ("encoder.normalize", "false", "encoder.normalize: unknown key"),
    ("policy.extrapolation_range", "[[0.2, 0.3], [0.4, 0.5]]",
     "policy: extrapolation interval [0.2, 0.3] overlaps (0, 1)"),
    ("policy.extrapolation_range", "[[1.0, 1.0], [1.0, 1.0]]",
     "policy: extrapolation intervals must have a positive finite total length, got 0.0"),
    ("policy.candidate_count", "1001", "policy: candidate_count must be from 1 to 1000, got 1001"),
]


def forbid_backends(monkeypatch):
    """Fail the test on any backend call, mock or remote."""
    def forbidden(*args, **kwargs):
        raise AssertionError("backend called before the config was refused")

    monkeypatch.setattr(gw, "_mock_chat", forbidden)
    monkeypatch.setattr(gw, "_mock_embed", forbidden)
    monkeypatch.setattr(urllib.request.OpenerDirector, "open", forbidden)


class TestConfigValues:
    """A malformed config value is listed before any backend call, never raised."""

    @pytest.mark.parametrize("key, value, named", EDITS, ids=[f"{k}={v}" for k, v, _ in EDITS])
    def test_listed_before_any_backend_call(self, toy_workspace, capsys, monkeypatch,
                                            key, value, named):
        forbid_backends(monkeypatch)
        config = edited_config(toy_workspace, key, yaml.safe_load(value))
        code = run(["optimize", "--config", config, "--seeds", toy_workspace / "seeds.jsonl"])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err
        assert "Traceback" not in err
        assert not list(toy_workspace.rglob("cache_*.jsonl"))

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry_run"])
    def test_perturb_under_anchor_blend_is_listed(self, toy_workspace, capsys, monkeypatch,
                                                  dry_run):
        forbid_backends(monkeypatch)
        config = edited_config(toy_workspace, "decode.kind", "anchor_blend",
                               "policy.strategy_mix", {"perturb": 1.0})
        code = run(["optimize", "--config", config, "--seeds", toy_workspace / "seeds.jsonl",
                    *dry_run])
        err = capsys.readouterr().err
        assert code == 2
        assert ("optimize: config: optimizer: strategy_mix gives perturb a weight, but "
                "anchor_blend decoding sends no latent point: use soft_prompt or toy_inverse"
                in err)
        assert not (toy_workspace / "out").exists()

    def test_perturb_under_toy_inverse_runs(self, toy_workspace, capsys):
        config = edited_config(toy_workspace, "policy.strategy_mix", {"perturb": 1.0})
        assert run(["optimize", "--config", config,
                    "--seeds", toy_workspace / "seeds.jsonl"]) == 0
        _, iterations = read_run_record(toy_workspace / "out" / "run_record.jsonl")
        candidates = iterations[0]["candidates"]
        assert {c["provenance"]["kind"] for c in candidates} == {"perturb"}
        assert all(c["refined_template"] for c in candidates)

    def test_soft_prompt_with_a_remote_chat_backend_is_listed(self, toy_workspace, capsys,
                                                              monkeypatch):
        forbid_backends(monkeypatch)
        save_weights(LinearProjector(weights=np.eye(2)), toy_workspace / "w.json")
        remote = {"kind": "remote_chat", "endpoint": "https://api.test/v1", "model_name": "m"}
        config = edited_config(toy_workspace, "decode.kind", "soft_prompt",
                               "decode.projector_path", "w.json", "decode.chat_backend", remote)
        code = run(["optimize", "--config", config, "--seeds", toy_workspace / "seeds.jsonl"])
        err = capsys.readouterr().err
        assert code == 2
        assert ("decode: soft_prompt decoding needs a mock chat backend: "
                "remote backends refuse soft prompts") in err
        assert not (toy_workspace / "out").exists()

    def test_null_out_dir_means_the_default(self, toy_workspace):
        config = edited_config(toy_workspace, "out_dir", None)
        assert run(["optimize", "--config", config, "--seeds", toy_workspace / "seeds.jsonl"]) == 0
        assert (toy_workspace / "out" / "run_record.jsonl").exists()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(TOY_LEAVES), value=VALUES)
    @example(key="dataset.train", value=["a"])
    def test_no_edit_escapes(self, toy_workspace, capsys, key, value):
        config = edited_config(toy_workspace, key, value)
        app, errors = load_app_config(config)
        assert (app is None) == bool(errors)
        seeds = toy_workspace / "seeds.jsonl"
        code = run(["optimize", "--config", config, "--seeds", seeds, "--dry-run"])
        capsys.readouterr()
        assert code in (0, 2)
        # these call backends, so a budget or backend failure is an answer too;
        # --out-dir keeps an out_dir edit from writing outside the workspace
        for args in (["evaluate", "--prompts", seeds], ["explore", "--seeds", seeds],
                     ["optimize", "--seeds", seeds]):
            code = run(args + ["--config", config, "--out-dir", toy_workspace / "out"])
            capsys.readouterr()
            assert code in (0, 2, 3, 4)


PAIRS = "".join(json.dumps({"x": [float(i), 1.0], "y": [2.0 * i]}) + "\n" for i in range(3))


class TestInputFileEdits:
    """One edited line or field of an input file exits 0 or 2, never with a traceback."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["dataset", "seeds", "pairs", "record"]),
           line=st.integers(min_value=0), field=st.none() | st.integers(min_value=0),
           value=VALUES | st.text())
    def test_no_file_edit_escapes(self, toy_workspace, capsys, kind, line, field, value):
        ws = toy_workspace
        fixtures.copy_toy_workspace(ws)  # undo the previous example's edit
        path = {"dataset": ws / "train.jsonl", "seeds": ws / "seeds.jsonl",
                "pairs": ws / "pairs.jsonl", "record": ws / "record.jsonl"}[kind]
        if kind == "pairs":
            path.write_text(PAIRS)
        elif kind == "record":
            path.write_text(fixtures.fixture_path("reference_run.jsonl").read_text())
        lines = path.read_text().splitlines()
        line %= len(lines)
        if field is None:  # the whole line
            lines[line] = value if isinstance(value, str) else json.dumps(value)
        else:
            obj = json.loads(lines[line])
            obj[sorted(obj)[field % len(obj)]] = value
            lines[line] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        args = {"pairs": ["fit-projector", "--pairs", path, "--out", ws / "w.json"],
                "record": ["report", path]}.get(
            kind, ["optimize", "--config", ws / "config.yaml", "--seeds", ws / "seeds.jsonl"])
        code = run(args)
        err = capsys.readouterr().err
        # a well-formed edit may give the dataset a text the toy task mock does not know
        assert code in (0, 2) or (code == 4 and "toy task mock" in err)


class TestExplore:
    def test_emits_requested_candidate_count(self, toy_workspace):
        out = toy_workspace / "cands.jsonl"
        code = run(["explore", "--config", toy_workspace / "config.yaml",
                    "--seeds", toy_workspace / "seeds.jsonl",
                    "--count", 15, "--out", out])
        assert code == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 15
        for row in rows:
            assert len(row["embedding"]) == 2
            assert row["provenance"]["kind"] == "interpolate"
            assert "decoded_text" not in row

    def test_zero_count_rejected(self, toy_workspace, capsys):
        code = run(["explore", "--config", toy_workspace / "config.yaml",
                    "--seeds", toy_workspace / "seeds.jsonl", "--count", 0])
        assert code == 2

    def test_count_above_the_limit_rejected_before_any_call(self, toy_workspace, capsys,
                                                            monkeypatch):
        forbid_backends(monkeypatch)
        code = run(["explore", "--config", toy_workspace / "config.yaml",
                    "--seeds", toy_workspace / "seeds.jsonl", "--count", 1001])
        assert code == 2
        assert "candidate_count must be from 1 to 1000, got 1001" in capsys.readouterr().err

    def test_fixed_seed_gives_identical_files(self, toy_workspace):
        out_a = toy_workspace / "a.jsonl"
        out_b = toy_workspace / "b.jsonl"
        for out in (out_a, out_b):
            assert run(["explore", "--config", toy_workspace / "config.yaml",
                        "--seeds", toy_workspace / "seeds.jsonl", "--out", out]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_toy_output_keeps_its_bytes(self, toy_workspace):
        """The default candidates file of the toy workspace, byte for byte as
        lpo wrote it line by line before it went through ``write_atomic``."""
        out = toy_workspace / "cands.jsonl"
        assert run(["explore", "--config", toy_workspace / "config.yaml",
                    "--seeds", toy_workspace / "seeds.jsonl", "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3cec7b16bae576404c478898955135a6064b3c5ebb80534d9d3c72876a596e2b")

    def test_write_failing_mid_file_keeps_the_earlier_file(self, toy_workspace, capsys,
                                                           monkeypatch):
        out = toy_workspace / "cands.jsonl"
        out.write_text("earlier\n")
        real_open = open

        class FullDisk:
            """Takes two lines, then fails as a full disk would."""

            def __init__(self, fh):
                self.fh, self.lines = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, text):
                if self.lines == 2:
                    raise OSError(28, "No space left on device")
                self.lines += text == "\n"
                return self.fh.write(text)

        monkeypatch.setattr(core, "open", lambda *a, **k: FullDisk(real_open(*a, **k)),
                            raising=False)
        assert run(["explore", "--config", toy_workspace / "config.yaml",
                    "--seeds", toy_workspace / "seeds.jsonl", "--out", out]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_text() == "earlier\n"
        assert not list(toy_workspace.glob("*.tmp"))


class TestFitProjector:
    def test_exact_pairs_tiny_residual(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        rows = [{"x": [1.0, 0.0], "y": [2.0, 0.0]}, {"x": [0.0, 1.0], "y": [0.0, 3.0]}]
        pairs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "w.json"
        code = run(["fit-projector", "--pairs", pairs, "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        rms = float(printed.split("rms residual:")[1].split()[0])
        assert rms < 1e-8
        assert out.exists()

    def test_empty_pairs_exit_2(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("")
        assert run(["fit-projector", "--pairs", pairs, "--out", tmp_path / "w.json"]) == 2

    def test_negative_reg_exit_2(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"x": [1.0], "y": [1.0]}) + "\n")
        assert run(["fit-projector", "--pairs", pairs, "--reg", -1,
                    "--out", tmp_path / "w.json"]) == 2


NOT_UTF8 = "café".encode("latin-1")


class TestMalformedInput:
    """Each malformed input file exits with code 2, naming the file or the line."""

    def test_pairs_line_not_an_object(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"x": [1.0], "y": [1.0]}) + "\n5\n")
        assert run(["fit-projector", "--pairs", pairs, "--out", tmp_path / "w.json"]) == 2
        assert "line 2: record is not an object" in capsys.readouterr().err

    def test_pairs_vector_not_numeric(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"x": "abc", "y": [1]}) + "\n")
        assert run(["fit-projector", "--pairs", pairs, "--out", tmp_path / "w.json"]) == 2
        assert "pair input is not numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("x", ["abc", [[1.0], [2.0, 3.0]]])
    def test_pairs_vector_not_numeric_names_its_line(self, tmp_path, capsys, x):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"x": [1.0], "y": [1.0]}) + "\n"
                         + json.dumps({"x": x, "y": [1.0]}) + "\n")
        assert run(["fit-projector", "--pairs", pairs, "--out", tmp_path / "w.json"]) == 2
        assert "line 2: pair input is not numeric" in capsys.readouterr().err

    def test_config_nested_too_deep(self, toy_workspace, capsys):
        config = toy_workspace / "deep.yaml"
        config.write_text("policy: " + "[" * 5000 + "]" * 5000 + "\n")
        assert run(["optimize", "--config", config, "--seeds", toy_workspace / "seeds.jsonl",
                    "--dry-run"]) == 2
        assert "config is not valid YAML: maximum recursion depth" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["dataset", "seeds", "pairs", "record"])
    def test_number_too_long_to_convert(self, toy_workspace, capsys, kind):
        line = '{"text": %s, "id": "s", "x": [1], "y": [1], "kind": "header"}\n' % ("1" * 5000)
        bad = toy_workspace / "bad.jsonl"
        bad.write_text(line)
        args = {"dataset": ["optimize", "--config", edited_config(toy_workspace, "dataset.train",
                                                                   "bad.jsonl"),
                            "--seeds", toy_workspace / "seeds.jsonl", "--dry-run"],
                "seeds": ["optimize", "--config", toy_workspace / "config.yaml",
                          "--seeds", bad, "--dry-run"],
                "pairs": ["fit-projector", "--pairs", bad, "--out", toy_workspace / "w.json"],
                "record": ["report", bad]}[kind]
        assert run(args) == 2
        assert "line 1: invalid JSON (Exceeds the limit" in capsys.readouterr().err

    def test_record_line_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        path.write_text("[1, 2]\n")
        assert run(["report", path]) == 2
        assert "line 1: record is not an object" in capsys.readouterr().err

    def test_seed_text_not_a_string(self, toy_workspace, capsys):
        seeds = toy_workspace / "bad_seeds.jsonl"
        seeds.write_text(json.dumps({"id": "number-seed", "text": 5}) + "\n")
        assert run(["optimize", "--config", toy_workspace / "config.yaml",
                    "--seeds", seeds, "--dry-run"]) == 2
        assert "number-seed" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["dataset-jsonl", "dataset-csv", "seeds", "config",
                                      "pairs", "record"])
    def test_non_utf8_file(self, toy_workspace, capsys, kind):
        ws = toy_workspace
        config, seeds = ws / "config.yaml", ws / "seeds.jsonl"
        if kind == "dataset-jsonl":
            bad = ws / "train.jsonl"
            bad.write_bytes(bad.read_bytes() + b'{"text": "' + NOT_UTF8 + b'", "label": "x"}\n')
        elif kind == "dataset-csv":
            bad = ws / "train.csv"
            bad.write_bytes(b"text,label\nfine,positive\n" + NOT_UTF8 + b",negative\n")
            config = ws / "csv.yaml"
            config.write_text((ws / "config.yaml").read_text()
                              .replace("train: train.jsonl", "train: train.csv"))
        else:
            bad = ws / f"bad-{kind}.txt"
            bad.write_bytes(b'{"id": "s", "text": "' + NOT_UTF8 + b' {text}"}\n')
            config = bad if kind == "config" else config
            seeds = bad if kind == "seeds" else seeds
        args = {"pairs": ["fit-projector", "--pairs", bad, "--out", ws / "w.json"],
                "record": ["report", bad]}.get(
            kind, ["optimize", "--config", config, "--seeds", seeds, "--dry-run"])
        assert run(args) == 2
        err = capsys.readouterr().err
        assert f"{bad.name} is not UTF-8 text" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("case", ["optimize", "evaluate", "explore", "config-init", "config-toy"])
def test_unusable_path_exits_2_naming_it(toy_workspace, capsys, case):
    """An input or output path the OS refuses is an error that names it, not a traceback."""
    blocker = toy_workspace / "blocker"
    blocker.write_text("a file where a directory is wanted\n")
    missing = toy_workspace / "missing" / "x.yaml"
    config, seeds = toy_workspace / "config.yaml", toy_workspace / "seeds.jsonl"
    args, named = {
        "optimize": (["optimize", "--config", config, "--seeds", seeds, "--out-dir", blocker],
                     blocker),
        "evaluate": (["evaluate", "--config", config, "--prompts", seeds, "--out-dir", blocker],
                     blocker),
        "explore": (["explore", "--config", config, "--seeds", seeds,
                     "--out", blocker / "x.jsonl"], blocker),
        "config-init": (["config", "init", "--out", missing], missing),
        "config-toy": (["config", "toy", "--dest", blocker], blocker),
    }[case]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err
    assert "Traceback" not in err


class TestReport:
    def test_reference_fixture_prints_comparison(self, capsys):
        path = fixtures.fixture_path("reference_run.jsonl")
        assert run(["report", path]) == 0
        out = capsys.readouterr().out
        assert "75.36%" in out
        assert "78.14%" in out
        assert "+2.78 pp" in out

    @pytest.mark.parametrize("edit", [
        lambda header, it: it.update(scored="x"),
        lambda header, it: it["scored"][0].update(accuracy="high"),
        lambda header, it: header.update(dataset=["a"]),
        lambda header, it: header.update(budget=[1]),
        lambda header, it: it.update(candidates=3),
        lambda header, it: it["scored"][0].pop("template"),
    ], ids=["scored-string", "accuracy-string", "dataset-list", "budget-list",
            "candidates-int", "scored-without-template"])
    def test_malformed_record_exit_2(self, tmp_path, capsys, edit):
        lines = fixtures.fixture_path("reference_run.jsonl").read_text().splitlines()
        header, first = json.loads(lines[0]), json.loads(lines[1])
        edit(header, first)
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(first) + "\n")
        assert run(["report", path]) == 2
        assert "run.jsonl is not a readable run record" in capsys.readouterr().err

    def test_header_only_record_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"kind": "header", "budget": {}}) + "\n")
        assert run(["report", path]) == 2
        assert "no iterations" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        path = fixtures.fixture_path("reference_run.jsonl")
        run(["report", path])
        first = capsys.readouterr().out
        run(["report", path])
        assert capsys.readouterr().out == first

    def test_offline_even_with_backends_broken(self, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("report touched a backend")

        monkeypatch.setattr(gw, "chat", forbidden)
        monkeypatch.setattr(gw, "embed", forbidden)
        monkeypatch.setattr(urllib.request.OpenerDirector, "open", forbidden)
        assert run(["report", fixtures.fixture_path("reference_run.jsonl")]) == 0


class TestConfigHelpers:
    def test_init_writes_default(self, tmp_path, capsys):
        out = tmp_path / "lpo.yaml"
        assert run(["config", "init", "--out", out]) == 0
        text = out.read_text()
        assert "strategy_mix" in text
        assert "candidate_count: 15" in text

    def test_init_refuses_overwrite(self, tmp_path):
        out = tmp_path / "lpo.yaml"
        out.write_text("existing")
        assert run(["config", "init", "--out", out]) == 2
        assert run(["config", "init", "--out", out, "--force"]) == 0

    def test_toy_workspace_is_runnable(self, tmp_path):
        dest = tmp_path / "ws"
        assert run(["config", "toy", "--dest", dest]) == 0
        assert run(["optimize", "--config", dest / "config.yaml",
                    "--seeds", dest / "seeds.jsonl"]) == 0

    def test_app_config_is_frozen(self, toy_workspace):
        from dataclasses import FrozenInstanceError

        from lpo.config import load_app_config

        app, errors = load_app_config(toy_workspace / "config.yaml")
        assert errors == []
        with pytest.raises(FrozenInstanceError):
            app.out_dir = toy_workspace / "elsewhere"

    def test_default_config_round_trips_through_loader(self, tmp_path):
        from lpo.config import load_app_config

        out = tmp_path / "lpo.yaml"
        run(["config", "init", "--out", out])
        (tmp_path / "train.jsonl").write_text(
            json.dumps({"text": "x", "label": "positive"}) + "\n"
            + json.dumps({"text": "y", "label": "negative"}) + "\n"
            + "".join(json.dumps({"text": f"t{i}", "label": "positive"}) + "\n"
                      for i in range(8)))
        app, errors = load_app_config(out)
        assert errors == []
        assert app.optimizer.policy.candidate_count == 15
        assert app.optimizer.select_n == 3
        assert app.optimizer.max_iterations == 1
        assert app.split.validation_fraction == 0.1

    def test_default_config_text_states_the_dataclass_defaults(self, tmp_path):
        from dataclasses import fields, is_dataclass

        from lpo.config import DEFAULT_CONFIG_TEXT, load_app_config
        from lpo.gateway import BackendConfig

        def settings(value):
            if isinstance(value, BackendConfig):
                return None
            if is_dataclass(value):
                return {f.name: settings(getattr(value, f.name))
                        for f in fields(value) if f.name != "path"}
            return value

        (tmp_path / "train.jsonl").write_text(json.dumps({"text": "x", "label": "a"}) + "\n")
        (tmp_path / "default.yaml").write_text(DEFAULT_CONFIG_TEXT)
        # only the required keys: the training file and a chat backend for anchor_blend
        (tmp_path / "minimal.yaml").write_text(
            "dataset: {train: train.jsonl}\ndecode: {chat_backend: {kind: mock}}\n")
        default, errors = load_app_config(tmp_path / "default.yaml")
        assert errors == []
        minimal, errors = load_app_config(tmp_path / "minimal.yaml")
        assert errors == []
        assert settings(minimal) == settings(default)
