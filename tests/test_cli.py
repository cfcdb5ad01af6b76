import json

import pytest
from helpers import spy_on_response_caches

import lpo.gateway as gw
from lpo import fixtures
from lpo.cli import main


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
            "dataset: {train: missing.jsonl, validation_fraction: 2.0}\n"
            "policy: {candidate_count: 0}\n")
        code = run(["optimize", "--config", config,
                    "--seeds", toy_workspace / "seeds.jsonl"])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing.jsonl" in err
        assert "validation_fraction" in err
        assert "candidate_count" in err

    def test_quoted_booleans_are_config_errors(self, toy_workspace, capsys):
        config_text = (toy_workspace / "config.yaml").read_text()
        config_text = config_text.replace("normalize: false", 'normalize: "false"')
        config_text = config_text.replace("keep_seeds: true", 'keep_seeds: "false"')
        (toy_workspace / "quoted.yaml").write_text(config_text)
        code = run(["optimize", "--config", toy_workspace / "quoted.yaml",
                    "--seeds", toy_workspace / "seeds.jsonl"])
        assert code == 2
        err = capsys.readouterr().err
        assert "normalize must be true or false, got 'false'" in err
        assert "keep_seeds must be true or false, got 'false'" in err

    def test_dry_run_makes_zero_backend_calls(self, toy_workspace, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("backend touched during dry run")

        monkeypatch.setattr(gw, "_mock_chat", forbidden)
        monkeypatch.setattr(gw, "_mock_embed", forbidden)
        monkeypatch.setattr(gw.requests, "post", forbidden)
        code = run(["optimize", "--config", toy_workspace / "config.yaml",
                    "--seeds", toy_workspace / "seeds.jsonl", "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert "decode:      <= 15" in out

    def test_budget_exhaustion_exit_3(self, toy_workspace, capsys):
        config_text = (toy_workspace / "config.yaml").read_text()
        config_text = config_text.replace("max_calls: 100000", "max_calls: 1")
        (toy_workspace / "tight.yaml").write_text(config_text)
        code = run(["evaluate", "--config", toy_workspace / "tight.yaml",
                    "--prompts", toy_workspace / "seeds.jsonl"])
        assert code == 3

    def test_backend_failure_exit_4(self, toy_workspace):
        config_text = (toy_workspace / "config.yaml").read_text()
        config_text = config_text.replace(
            "behavior: toy_task",
            "behavior: sequence").replace(
            "      parameters: [tone, steps]\n      target: [0.62, 0.55]\n      dataset: all.jsonl",
            "      replies: [{error: 500}, {error: 500}, {error: 500}]")
        (toy_workspace / "flaky.yaml").write_text(config_text)
        code = run(["evaluate", "--config", toy_workspace / "flaky.yaml",
                    "--prompts", toy_workspace / "seeds.jsonl"])
        assert code == 4


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
        assert made and all(cache.closed for cache in made)
        assert (toy_workspace / "out" / "cache_validation.jsonl").stat().st_size > 0

    def test_missing_test_split_configured(self, toy_workspace, capsys):
        config_text = (toy_workspace / "config.yaml").read_text()
        config_text = config_text.replace("test: test.jsonl", "test: null")
        (toy_workspace / "notest.yaml").write_text(config_text)
        code = run(["evaluate", "--config", toy_workspace / "notest.yaml",
                    "--prompts", toy_workspace / "seeds.jsonl", "--split", "test"])
        assert code == 2


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

    def test_fixed_seed_gives_identical_files(self, toy_workspace):
        out_a = toy_workspace / "a.jsonl"
        out_b = toy_workspace / "b.jsonl"
        for out in (out_a, out_b):
            assert run(["explore", "--config", toy_workspace / "config.yaml",
                        "--seeds", toy_workspace / "seeds.jsonl", "--out", out]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


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


class TestReport:
    def test_reference_fixture_prints_comparison(self, capsys):
        path = fixtures.fixture_path("reference_run.jsonl")
        assert run(["report", path]) == 0
        out = capsys.readouterr().out
        assert "75.36%" in out
        assert "78.14%" in out
        assert "+2.78 pp" in out

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
        monkeypatch.setattr(gw.requests, "post", forbidden)
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
