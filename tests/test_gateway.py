import itertools
import json
import operator
import os
import re
import sys
import tempfile
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from helpers import LoopbackServer, closed_port_url, scripted
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpo
import lpo.gateway as gw
from lpo.errors import BackendError, BudgetExhaustedError, TransientBackendError, ValidationError
from lpo.gateway import (
    BackendConfig,
    Budget,
    ChatRequest,
    attempt_count,
    backend_fingerprint,
    blocks,
    call_count,
    chat,
    embed,
    usage_report,
)


def mock_chat_cfg(**kwargs):
    kwargs.setdefault("kind", "mock")
    kwargs.setdefault("backoff_base", 0.0)
    return BackendConfig(**kwargs)


def big_budget():
    return Budget(max_calls=10**6, max_total_tokens=10**9)


class TestChatMock:
    def test_fixed_reply(self):
        cfg = mock_chat_cfg(behavior="fixed", params={"reply": "Positive"})
        resp = chat(cfg, ChatRequest(user_text="classify this"), big_budget())
        assert resp.text == "Positive"

    def test_echo(self):
        cfg = mock_chat_cfg(behavior="echo")
        assert chat(cfg, ChatRequest(user_text="hello"), big_budget()).text == "hello"

    def test_budget_exhausted_on_second_call(self):
        cfg = mock_chat_cfg(behavior="fixed", params={"reply": "ok"})
        budget = Budget(max_calls=1, max_total_tokens=10**6)
        chat(cfg, ChatRequest(user_text="one"), budget)
        with pytest.raises(BudgetExhaustedError, match="call budget"):
            chat(cfg, ChatRequest(user_text="two"), budget)

    def test_token_budget_exhausted(self):
        cfg = mock_chat_cfg(behavior="fixed", params={"reply": "ok", "usage": [5, 5]})
        budget = Budget(max_calls=100, max_total_tokens=10)
        chat(cfg, ChatRequest(user_text="one"), budget)
        with pytest.raises(BudgetExhaustedError, match="token budget"):
            chat(cfg, ChatRequest(user_text="two"), budget)

    def test_scripted_transient_failures_then_success(self, caplog):
        cfg = mock_chat_cfg(
            behavior="handler",
            params={"fn": scripted([{"error": 500}, {"error": 500}, "recovered"])},
            max_attempts=3,
        )
        with caplog.at_level("WARNING", logger="lpo.gateway"):
            resp = chat(cfg, ChatRequest(user_text="go"), big_budget())
        assert resp.text == "recovered"
        assert attempt_count(cfg) == 3
        assert call_count(cfg) == 1
        assert sum("failed" in r.message for r in caplog.records) == 2

    def test_unreachable_after_max_attempts(self):
        cfg = mock_chat_cfg(
            behavior="handler",
            params={"fn": scripted([{"error": 503}] * 3)},
            max_attempts=3,
        )
        with pytest.raises(BackendError, match="after 3 attempt"):
            chat(cfg, ChatRequest(user_text="go"), big_budget())

    def test_client_error_not_retried(self):
        cfg = mock_chat_cfg(
            behavior="handler",
            params={"fn": scripted([{"error": 400}, "never"])},
            max_attempts=3,
        )
        with pytest.raises(BackendError, match="HTTP 400"):
            chat(cfg, ChatRequest(user_text="go"), big_budget())
        assert attempt_count(cfg) == 1

    def test_429_is_retried(self):
        cfg = mock_chat_cfg(
            behavior="handler",
            params={"fn": scripted([{"error": 429}, "ok"])},
            max_attempts=2,
        )
        assert chat(cfg, ChatRequest(user_text="go"), big_budget()).text == "ok"

    def test_failed_calls_charge_nothing(self):
        cfg = mock_chat_cfg(behavior="handler",
                            params={"fn": scripted([{"error": 500}] * 3)}, max_attempts=3)
        budget = big_budget()
        with pytest.raises(BackendError):
            chat(cfg, ChatRequest(user_text="go"), budget)
        assert usage_report(budget) == (0, 0)

    def test_unknown_behavior(self):
        cfg = mock_chat_cfg(behavior="wat")
        with pytest.raises(ValidationError, match="unknown mock chat behavior"):
            chat(cfg, ChatRequest(user_text="x"), big_budget())


class TestRequestValidation:
    def test_empty_user_text(self):
        with pytest.raises(ValidationError, match="empty user_text"):
            ChatRequest(user_text="")

    def test_negative_temperature(self):
        with pytest.raises(ValidationError, match="temperature"):
            ChatRequest(user_text="x", temperature=-0.1)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf"),
                                             np.float64("nan"), np.float64("inf")])
    def test_non_finite_temperature(self, temperature):
        with pytest.raises(ValidationError, match="finite"):
            ChatRequest(user_text="x", temperature=temperature)

    @pytest.mark.parametrize("temperature", [np.float64(0.7), 0, 1e308, np.float32(0.5)])
    def test_finite_temperatures_of_any_numeric_type(self, temperature):
        assert ChatRequest(user_text="x", temperature=temperature).temperature == temperature

    def test_remote_requires_endpoint_and_model(self):
        with pytest.raises(ValidationError, match="endpoint and model_name"):
            BackendConfig(kind="remote_chat", endpoint="", model_name="m")

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown backend kind"):
            BackendConfig(kind="local")

    @pytest.mark.parametrize("backoff_base", [float("inf"), float("nan"), -0.5])
    def test_backoff_base_finite_and_not_negative(self, backoff_base):
        with pytest.raises(ValidationError, match="backoff_base must be finite and >= 0"):
            BackendConfig(backoff_base=backoff_base)


class TestEmbedMock:
    def test_hash_embed_dimensions(self):
        cfg = BackendConfig(kind="mock", behavior="hash", params={"dimension": 16})
        vectors = embed(cfg, ["a", "b"], big_budget())
        assert len(vectors) == 2
        assert all(v.shape == (16,) for v in vectors)

    def test_empty_text_list(self):
        cfg = BackendConfig(kind="mock", behavior="hash")
        with pytest.raises(ValidationError, match="empty text list"):
            embed(cfg, [], big_budget())

    def test_same_text_same_vector(self):
        cfg = BackendConfig(kind="mock", behavior="hash", params={"dimension": 8})
        a, b = embed(cfg, ["same", "same"], big_budget())
        assert np.array_equal(a, b)

    def test_dimension_mismatch_within_batch(self, monkeypatch):
        monkeypatch.setitem(gw.MOCK_EMBED_BEHAVIORS, "ragged",
                            lambda cfg, texts: [np.ones(2 + i) for i in range(len(texts))])
        cfg = BackendConfig(kind="mock", behavior="ragged")
        with pytest.raises(BackendError, match="dimension mismatch"):
            embed(cfg, ["a", "b"], big_budget())

    def test_batch_counts_one_call(self):
        cfg = BackendConfig(kind="mock", behavior="hash", params={"dimension": 4})
        budget = big_budget()
        embed(cfg, ["a", "b", "c"], budget)
        assert usage_report(budget)[0] == 1


class TestUsageAccounting:
    def test_fresh_budget_reports_zero(self):
        assert usage_report(big_budget()) == (0, 0)

    def test_scripted_usage_totals(self):
        cfg = mock_chat_cfg(behavior="fixed", params={"reply": "ok", "usage": [7, 3]})
        budget = big_budget()
        for _ in range(3):
            chat(cfg, ChatRequest(user_text="x"), budget)
        assert usage_report(budget) == (3, 30)

    def test_monotone_nondecreasing(self):
        cfg = mock_chat_cfg(behavior="fixed", params={"reply": "some words here"})
        budget = big_budget()
        last = (0, 0)
        for _ in range(5):
            chat(cfg, ChatRequest(user_text="a few tokens"), budget)
            now = usage_report(budget)
            assert now[0] >= last[0] and now[1] >= last[1]
            last = now


def chat_body(text, prompt_tokens=4, completion_tokens=2):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


@pytest.fixture(autouse=True)
def no_proxy(monkeypatch):
    """Keep the remote tests' connections on 127.0.0.1, whatever proxy the environment names."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


class TestRemoteChat:
    def remote_cfg(self, **kwargs):
        kwargs.setdefault("kind", "remote_chat")
        kwargs.setdefault("endpoint", "https://api.test/v1/chat")
        kwargs.setdefault("model_name", "test-model")
        kwargs.setdefault("backoff_base", 0.0)
        return BackendConfig(**kwargs)

    def test_success_parses_text_and_usage(self, monkeypatch):
        monkeypatch.setenv("LPO_API_KEY", "secret-key")
        budget = big_budget()
        with LoopbackServer((200, chat_body("All good", 11, 5))) as server:
            cfg = self.remote_cfg(endpoint=server.url + "/v1/chat")
            resp = chat(cfg, ChatRequest(user_text="hi", system_text="sys"), budget)
        assert resp.text == "All good"
        assert (resp.prompt_tokens, resp.completion_tokens) == (11, 5)
        assert usage_report(budget) == (1, 16)
        [(path, headers, payload)] = server.received
        assert path == "/v1/chat"
        assert payload["model"] == "test-model"
        assert payload["messages"][0] == {"role": "system", "content": "sys"}
        assert headers["Authorization"] == "Bearer secret-key"

    def test_retry_on_500_then_success(self):
        with LoopbackServer((500, ""), (500, ""), (200, chat_body("ok"))) as server:
            cfg = self.remote_cfg(endpoint=server.url, max_attempts=3)
            assert chat(cfg, ChatRequest(user_text="x"), big_budget()).text == "ok"
        assert attempt_count(cfg) == 3

    def test_404_fails_immediately(self):
        with LoopbackServer((404, {"error": "nope"})) as server:
            cfg = self.remote_cfg(endpoint=server.url, max_attempts=3)
            with pytest.raises(BackendError, match="HTTP 404"):
                chat(cfg, ChatRequest(user_text="x"), big_budget())
        assert attempt_count(cfg) == 1

    def test_malformed_reply(self):
        with LoopbackServer((200, {"unexpected": True})) as server:
            with pytest.raises(BackendError, match="malformed chat reply"):
                chat(self.remote_cfg(endpoint=server.url), ChatRequest(user_text="x"),
                     big_budget())

    def test_endpoint_env_override(self, monkeypatch):
        with LoopbackServer((200, chat_body("ok"))) as server:
            monkeypatch.setenv("LPO_ENDPOINT", server.url + "/v2")
            chat(self.remote_cfg(), ChatRequest(user_text="x"), big_budget())
        assert [path for path, _, _ in server.received] == ["/v2"]

    def test_fingerprint_follows_endpoint_override(self, monkeypatch):
        configured = gw.backend_fingerprint(self.remote_cfg())
        monkeypatch.setenv("LPO_ENDPOINT", "https://override.test/v2")
        assert gw.backend_fingerprint(self.remote_cfg()) != configured

    def test_soft_prompt_rejected(self):
        with pytest.raises(BackendError, match="soft-prompt"):
            chat(self.remote_cfg(),
                 ChatRequest(user_text="x", soft_prompt=(0.1, 0.2)), big_budget())

    def test_remote_embed(self):
        body = {
            "data": [{"embedding": [0.1, 0.2]}, {"embedding": [0.3, 0.4]}],
            "usage": {"prompt_tokens": 6},
        }
        with LoopbackServer((200, body)) as server:
            cfg = BackendConfig(kind="remote_embed", endpoint=server.url + "/emb",
                                model_name="emb-model")
            vectors = embed(cfg, ["a", "b"], big_budget())
        assert np.allclose(vectors[0], [0.1, 0.2])
        assert np.allclose(vectors[1], [0.3, 0.4])

    @pytest.mark.parametrize("embedding", ["abc", [1.0, float("nan")], [[1.0], [1.0, 2.0]]])
    def test_unusable_remote_embedding_is_a_backend_error(self, embedding):
        body = {"data": [{"embedding": embedding}]}
        with LoopbackServer((200, body)) as server:
            cfg = BackendConfig(kind="remote_embed", endpoint=server.url + "/emb",
                                model_name="emb-model")
            with pytest.raises(BackendError, match="malformed embeddings reply"):
                embed(cfg, ["a"], big_budget())


WIRE_FAULTS = {  # case: (server script, error raised, attempts)
    "ok": ([(200, chat_body("fine", 4, 2))], None, 1),
    "ok_at_the_override": ([(200, chat_body("fine", 4, 2))], None, 1),
    "429_then_ok": ([(429, "slow down"), (200, chat_body("fine", 4, 2))], None, 2),
    "5xx_then_ok": ([(502, "bad gateway"), (200, chat_body("fine", 4, 2))], None, 2),
    "4xx_with_excerpt": ([(422, "e" * 300)], f"^HTTP 422: {'e' * 200}$", 1),
    "not_json": ([(200, "<html>busy</html>")], "^backend reply is not JSON: ", 1),
    "timeout": (["stall", "stall"], r"unreachable after 2 attempt\(s\): "
                                    "connection failure: timed out$", 2),
    "cut_short": (["short", "short"], r"unreachable after 2 attempt\(s\): "
                                      r"connection failure: IncompleteRead\(5 bytes read, 95 more", 2),
}


class TestRemoteWire:
    """Each reply or fault of a real HTTP server on 127.0.0.1 becomes one outcome,
    and the ledger (attempts, calls, usage, slots) shows it."""

    @pytest.mark.parametrize("case", WIRE_FAULTS)
    def test_reply_or_fault(self, monkeypatch, case):
        script, error, attempts = WIRE_FAULTS[case]
        budget = Budget(max_calls=3, max_total_tokens=100)
        with LoopbackServer(*script) as server:
            endpoint = server.url
            if case == "ok_at_the_override":  # nothing listens at the configured endpoint
                endpoint = closed_port_url()
                monkeypatch.setenv("LPO_ENDPOINT", server.url)
            cfg = BackendConfig(kind="remote_chat", endpoint=endpoint, model_name="m",
                                max_attempts=2, backoff_base=0.0, timeout=0.2)
            if error is None:
                assert chat(cfg, ChatRequest(user_text="x"), budget).text == "fine"
            else:
                with pytest.raises(BackendError, match=error):
                    chat(cfg, ChatRequest(user_text="x"), budget)
        done = error is None
        assert len(server.received) == attempts == attempt_count(cfg)
        assert call_count(cfg) == int(done)
        assert usage_report(budget) == ((1, 6) if done else (0, 0))
        assert budget.calls_left() == 3 - int(done)

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_not_followed(self, monkeypatch, status):
        monkeypatch.setenv("LPO_API_KEY", "secret-key")
        budget = Budget(max_calls=3)
        with LoopbackServer((200, chat_body("fine"))) as elsewhere:
            with LoopbackServer((status, "moved", {"Location": elsewhere.url + "/v1"})) as server:
                cfg = BackendConfig(kind="remote_chat", endpoint=server.url, model_name="m",
                                    max_attempts=2, backoff_base=0.0)
                with pytest.raises(BackendError, match=f"^HTTP {status}: moved$"):
                    chat(cfg, ChatRequest(user_text="x"), budget)
        assert elsewhere.received == []  # neither the request nor its key went there
        [(_, headers, _)] = server.received
        assert headers["Authorization"] == "Bearer secret-key"
        assert (attempt_count(cfg), call_count(cfg), budget.calls_left()) == (1, 0, 3)

    def test_refused_connection_is_retried_then_unreachable(self):
        cfg = BackendConfig(kind="remote_embed", endpoint=closed_port_url(), model_name="m",
                            max_attempts=2, backoff_base=0.0)
        budget = Budget(max_calls=3)
        with pytest.raises(BackendError, match=r"embed m unreachable after 2 attempt\(s\): "
                                               r"connection failure: .*refused"):
            embed(cfg, ["a"], budget)
        assert (attempt_count(cfg), call_count(cfg)) == (2, 0)
        assert usage_report(budget) == (0, 0) and budget.calls_left() == 3

    @pytest.mark.parametrize("key", ["secret-key", ""])
    def test_headers(self, monkeypatch, key):
        monkeypatch.setenv("LPO_API_KEY", key)
        with LoopbackServer((200, chat_body("fine"))) as server:
            chat(BackendConfig(kind="remote_chat", endpoint=server.url, model_name="m"),
                 ChatRequest(user_text="x"), big_budget())
        [(_, headers, payload)] = server.received
        assert headers["Content-Type"] == "application/json"
        assert headers["User-Agent"] == f"lpo/{lpo.__version__}"
        assert headers.get("Authorization") == (f"Bearer {key}" if key else None)
        assert payload == {"model": "m", "messages": [{"role": "user", "content": "x"}],
                           "temperature": 0.0, "max_tokens": 512}

    @pytest.mark.parametrize("endpoint", ["api.test/v1/chat", "ftp://api.test/v1", "https://",
                                          "http://[::1/v1", "http://api.test:abc/v1", "http://api.test:0/v1",
                                          "https://api.test/v1/ché", "https://api.test/v1 x"])
    def test_endpoint_must_be_an_http_url(self, monkeypatch, endpoint):
        message = f"endpoint must be an http(s) URL, got {endpoint!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            BackendConfig(kind="remote_chat", endpoint=endpoint, model_name="m")
        # the same check holds for the override, which fails the call without an attempt
        monkeypatch.setenv("LPO_ENDPOINT", endpoint)
        cfg = BackendConfig(kind="remote_chat", endpoint="https://api.test/v1", model_name="m")
        budget = Budget(max_calls=3)
        with pytest.raises(ValidationError, match=re.escape(message)):
            chat(cfg, ChatRequest(user_text="x"), budget)
        assert attempt_count(cfg) == 0 and call_count(cfg) == 0 and budget.calls_left() == 3
        assert not blocks(cfg)  # a call refused unsent casts no blocking vote

    @pytest.mark.parametrize("key", ["clé✓", "sk-abc\nX-Evil: 1", "sk abc"])
    def test_key_that_cannot_be_a_header_is_refused_unsent(self, monkeypatch, key):
        monkeypatch.setenv("LPO_API_KEY", key)
        budget = Budget(max_calls=3)
        with LoopbackServer() as server:
            cfg = BackendConfig(kind="remote_chat", endpoint=server.url, model_name="m")
            with pytest.raises(ValidationError) as caught:
                chat(cfg, ChatRequest(user_text="x"), budget)
        assert str(caught.value) == ("the API key in $LPO_API_KEY must be printable ASCII "
                                     "without spaces")
        assert server.received == [] and call_count(cfg) == 0 and budget.calls_left() == 3
        assert attempt_count(cfg) == 0 and not blocks(cfg)


USAGES = {  # case: (job, the reply's usage, error raised or tokens counted)
    "chat_count_a_string": ("chat", {"prompt_tokens": "abc"},
                            "usage.prompt_tokens must be a non-negative integer, got 'abc'"),
    "chat_usage_a_string": ("chat", "x", "usage must be an object, got 'x'"),
    "chat_usage_a_list": ("chat", [4, 2], "usage must be an object, got [4, 2]"),
    "chat_count_a_bool": ("chat", {"completion_tokens": True},
                          "usage.completion_tokens must be a non-negative integer, got True"),
    "chat_count_a_fraction": ("chat", {"prompt_tokens": 1.5},
                              "usage.prompt_tokens must be a non-negative integer, got 1.5"),
    "chat_count_negative": ("chat", {"completion_tokens": -1},
                            "usage.completion_tokens must be a non-negative integer, got -1"),
    "chat_count_null": ("chat", {"prompt_tokens": None, "completion_tokens": 2}, 2),
    "chat_usage_null": ("chat", None, 0),
    "embed_count_negative": ("embed", {"prompt_tokens": -3},
                             "usage.prompt_tokens must be a non-negative integer, got -3"),
    "embed_count_a_string": ("embed", {"prompt_tokens": "4"},
                             "usage.prompt_tokens must be a non-negative integer, got '4'"),
    "embed_count_huge": ("embed", {"prompt_tokens": 10**30}, 10**30),
}


class TestRemoteUsage:
    """A reply's usage is counted only as non-negative integers; anything else
    fails the call as a BackendError, and the slot goes back."""

    @pytest.mark.parametrize("case", USAGES)
    def test_usage_counts_or_fails(self, case):
        job, usage, outcome = USAGES[case]
        body = ({"choices": [{"message": {"content": "fine"}}]} if job == "chat"
                else {"data": [{"embedding": [0.1, 0.2]}]})
        budget = Budget(max_calls=3)
        with LoopbackServer((200, {**body, "usage": usage})) as server:
            cfg = BackendConfig(kind=f"remote_{job}", endpoint=server.url, model_name="m",
                                max_attempts=2, backoff_base=0.0)
            call = {"chat": lambda: chat(cfg, ChatRequest(user_text="x"), budget),
                    "embed": lambda: embed(cfg, ["a"], budget)}[job]
            if isinstance(outcome, str):
                with pytest.raises(BackendError, match=re.escape(f"malformed reply: {outcome}")):
                    call()
            else:
                call()
        done = not isinstance(outcome, str)
        assert attempt_count(cfg) == 1  # a malformed reply is not retried
        assert usage_report(budget) == ((1, outcome) if done else (0, 0))
        assert budget.calls_left() == 3 - int(done)

    def test_negative_settlement_is_refused_and_the_slot_handed_back(self):
        cfg = BackendConfig(kind="mock", behavior="hash", params={"usage": [-3, 0]})
        budget = Budget(max_calls=3)
        with pytest.raises(ValidationError, match="token counts must be >= 0, got -3, 0"):
            embed(cfg, ["a"], budget)
        assert usage_report(budget) == (0, 0) and budget.calls_left() == 3
        assert call_count(cfg) == 0


JSON_VALUES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
               | st.lists(st.integers(0, 3), max_size=2)
               | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def either(right):
    """``right`` or a value of any JSON type in its place."""
    return right | JSON_VALUES


COUNTS = either(st.integers(0, 50) | st.integers(max_value=-1) | st.integers(min_value=10**18)
                | st.floats(0, 50))
CHAT_BODIES = st.fixed_dictionaries(
    {"choices": either(st.lists(st.fixed_dictionaries(
        {"message": either(st.fixed_dictionaries({"content": either(st.text(max_size=5))}))}),
        min_size=1, max_size=2))},
    optional={"usage": either(st.fixed_dictionaries(
        {}, optional={"prompt_tokens": COUNTS, "completion_tokens": COUNTS}))})
EMBED_BODIES = st.fixed_dictionaries(
    {"data": either(st.lists(st.fixed_dictionaries(
        {"embedding": either(st.lists(st.floats(), min_size=1, max_size=2))}),
        min_size=1, max_size=2))},
    optional={"usage": either(st.fixed_dictionaries({}, optional={"prompt_tokens": COUNTS}))})
STATUSES = [200, 200, 200, 301, 302, 307, 400, 404, 422, 429, 500, 503, "short", "stall"]
REPLIES = st.tuples(st.sampled_from(STATUSES),  # a body cut short, or none before the timeout
                    CHAT_BODIES | EMBED_BODIES | JSON_VALUES | st.text(max_size=8)).map(
    lambda reply: reply[0] if isinstance(reply[0], str) else reply)


class TestRemoteReplyContract:
    """Whatever a server on 127.0.0.1 replies, a call returns or raises an lpo backend
    or budget error, within its attempts, and the tokens spent never go down."""

    def test_every_reply_is_a_reply_or_an_lpo_error(self):
        @settings(max_examples=25, deadline=None)
        @given(jobs=st.lists(st.sampled_from(["chat", "embed"]), min_size=1, max_size=3),
               replies=st.lists(REPLIES, min_size=6, max_size=6),  # 2 attempts for 3 calls
               max_calls=st.integers(1, 3))
        @example(jobs=["chat", "embed"], max_calls=3, replies=[  # each escaped once
            (200, {"choices": [{"message": {"content": "ok"}}], "usage": "x"}),
            (200, {"data": [{"embedding": [0.1]}], "usage": {"prompt_tokens": -3}}),
            *[(500, "")] * 4])
        def check(jobs, replies, max_calls):
            server.script[:], server.received[:] = replies, []
            budget = Budget(max_calls=max_calls, max_total_tokens=100)
            spent = 0
            for job in jobs:
                cfg = BackendConfig(kind=f"remote_{job}", endpoint=server.url, model_name="m",
                                    max_attempts=2, backoff_base=0.0, timeout=0.2)
                try:
                    if job == "chat":
                        chat(cfg, ChatRequest(user_text="x"), budget)
                    else:
                        embed(cfg, ["a"], budget)
                except (BackendError, BudgetExhaustedError):  # a TransientBackendError too
                    pass
                assert attempt_count(cfg) <= cfg.max_attempts
                assert usage_report(budget)[1] >= spent
                spent = usage_report(budget)[1]
            assert len(server.received) <= 2 * len(jobs)

        with LoopbackServer() as server:  # one server, so that no example waits for a shutdown
            check()


class TestConcurrencyCap:
    def test_in_flight_limited(self):
        active = {"now": 0, "peak": 0}
        lock = threading.Lock()

        def handler(req):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0.02)
            with lock:
                active["now"] -= 1
            return "done"

        cfg = BackendConfig(kind="mock", behavior="handler",
                            params={"fn": handler}, max_in_flight=2)
        budget = big_budget()
        threads = [
            threading.Thread(target=chat, args=(cfg, ChatRequest(user_text=f"t{i}"), budget))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert active["peak"] <= 2
        assert usage_report(budget)[0] == 8

    def test_no_way_a_call_ends_loses_a_token(self):
        width = 4  # more than the failing calls below, so that a leak cannot block them
        active = {"now": 0, "peak": 0}
        lock = threading.Lock()
        burst = threading.Barrier(width, timeout=10)
        failures = {"flaky": 1}

        def handler(req):
            text = req.user_text
            if failures.get(text, 0) > 0:
                failures[text] -= 1
                raise TransientBackendError("dropped")
            if text == "broken":
                raise BackendError("refused by the backend")
            if text == "invalid":
                raise ValidationError("refused by the handler")
            if text == "together":
                with lock:
                    active["now"] += 1
                    active["peak"] = max(active["peak"], active["now"])
                try:
                    burst.wait()  # returns only once width calls are in flight at once
                finally:
                    with lock:
                        active["now"] -= 1
            return "ok"

        cfg = mock_chat_cfg(behavior="handler", params={"fn": handler}, max_in_flight=width)
        budget = big_budget()
        assert chat(cfg, ChatRequest(user_text="flaky"), budget).text == "ok"  # 2 attempts
        with pytest.raises(BackendError, match="refused by the backend"):
            chat(cfg, ChatRequest(user_text="broken"), budget)
        with pytest.raises(ValidationError, match="refused by the handler"):
            chat(cfg, ChatRequest(user_text="invalid"), budget)
        spent = Budget(max_calls=1)
        chat(cfg, ChatRequest(user_text="once"), spent)
        with pytest.raises(BudgetExhaustedError):
            chat(cfg, ChatRequest(user_text="once"), spent)  # refused before any attempt
        assert (attempt_count(cfg), call_count(cfg)) == (5, 2)

        replies = []
        threads = [threading.Thread(target=lambda: replies.append(
            chat(cfg, ChatRequest(user_text="together"), budget).text), daemon=True)
            for _ in range(2 * width)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose a lost count
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 15  # a lost token would leave a caller waiting forever
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert replies == ["ok"] * (2 * width)
        assert active["peak"] == width
        assert (attempt_count(cfg), call_count(cfg)) == (5 + 2 * width, 2 + 2 * width)


class TestBudgetUnderThreads:
    def test_racing_callers_complete_exactly_max_calls(self):
        k = 5
        budget = Budget(max_calls=k, max_total_tokens=10**9)
        seen = []
        start = threading.Barrier(8, timeout=10)

        def handler(req):
            seen.append(usage_report(budget)[0])
            time.sleep(0.005)
            return "done"

        cfg = BackendConfig(kind="mock", behavior="handler", params={"fn": handler},
                            max_in_flight=8)
        outcomes = []

        def caller(i):
            start.wait()
            try:
                chat(cfg, ChatRequest(user_text=f"t{i}"), budget)
                outcomes.append("ok")
            except BudgetExhaustedError:
                outcomes.append("refused")
            seen.append(usage_report(budget)[0])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose check-then-act
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert outcomes.count("ok") == k
        assert outcomes.count("refused") == 8 - k
        assert max(seen) <= k
        assert usage_report(budget)[0] == call_count(cfg) == k
        assert budget.calls_left() == 0

    def test_failed_call_hands_its_slot_back(self):
        cfg = mock_chat_cfg(behavior="handler", params={"fn": scripted([{"error": 400}, "ok"])})
        budget = Budget(max_calls=1, max_total_tokens=10**6)
        with pytest.raises(BackendError):
            chat(cfg, ChatRequest(user_text="x"), budget)
        assert budget.calls_left() == 1
        assert chat(cfg, ChatRequest(user_text="x"), budget).text == "ok"
        assert budget.calls_left() == 0


class TestBlocking:
    def test_sleeping_backend_blocks(self):
        def handler(req):
            time.sleep(0.005)
            return "ok"

        cfg = BackendConfig(kind="mock", behavior="handler", params={"fn": handler})
        assert not blocks(cfg)  # nothing observed yet
        chat(cfg, ChatRequest(user_text="x"), big_budget())
        assert blocks(cfg)

    def test_computing_backend_does_not_block(self):
        cfg = mock_chat_cfg(behavior="fixed", params={"reply": "ok"})
        for _ in range(20):
            chat(cfg, ChatRequest(user_text="x"), big_budget())
        assert not blocks(cfg)


class TestSettingsApartFromRunState:
    def test_fields_are_the_loader_keys(self):
        from lpo.config import _BACKEND_KEYS

        assert [f.name for f in fields(BackendConfig)] == [*_BACKEND_KEYS, "params"]

    def test_fields_cannot_be_assigned(self):
        cfg = mock_chat_cfg()
        with pytest.raises(FrozenInstanceError):
            cfg.max_in_flight = 16

    def test_replace_copy_has_its_own_counters_and_cap(self):
        together = threading.Barrier(8, timeout=5)

        def handler(req):
            if req.user_text == "together":
                together.wait()  # returns only once 8 calls are in flight at once
            time.sleep(0.001)
            return "ok"

        original = mock_chat_cfg(behavior="handler", params={"fn": handler}, max_in_flight=4)
        budget = big_budget()
        for _ in range(3):
            chat(original, ChatRequest(user_text="alone"), budget)
        copy = replace(original, max_in_flight=8)
        assert (call_count(copy), attempt_count(copy)) == (0, 0)
        with ThreadPoolExecutor(max_workers=8) as pool:
            replies = list(pool.map(
                lambda _: chat(copy, ChatRequest(user_text="together"), budget).text, range(8)))
        assert replies == ["ok"] * 8
        assert (call_count(copy), attempt_count(copy)) == (8, 8)
        assert (call_count(original), attempt_count(original)) == (3, 3)


class TestFingerprint:
    @staticmethod
    def handler_backend(reply):
        def handler(req):
            return reply

        return BackendConfig(kind="mock", behavior="handler", params={"fn": handler})

    def test_handlers_of_one_name_differ(self):
        positive, negative = self.handler_backend("positive"), self.handler_backend("negative")
        assert backend_fingerprint(positive) != backend_fingerprint(negative)

    def test_one_handler_keeps_its_fingerprint(self):
        cfg = self.handler_backend("positive")
        assert backend_fingerprint(cfg) == backend_fingerprint(cfg)

    def test_id_of_a_dead_handler_is_not_inherited(self):
        fingerprints = {backend_fingerprint(self.handler_backend(r)) for r in "abcdef"}
        assert len(fingerprints) == 6

    def test_record_snapshot_keeps_the_plain_name(self):
        from lpo.core import jsonable

        assert jsonable(self.handler_backend("x").params) == {
            "fn": "<callable TestFingerprint.handler_backend.<locals>.handler>"}


    def test_callable_free_fingerprint_is_pinned(self):
        # cache files written before keep hitting only while this digest holds
        cfg = BackendConfig(kind="mock", behavior="fixed", params={
            "reply": "x", "usage": [1, 2], 3: {"a": (1, 2.5, None, True)}, "v": np.float64(0.5)})
        assert backend_fingerprint(cfg) == (
            "39ed318877066f5d66a186ce69d549006422f54fbb1452eefc4baee13295e303")

    def test_a_callable_without_weak_references_keeps_a_tag_of_its_own(self):
        first, other = operator.itemgetter(0), operator.itemgetter(0)  # builtin callables
        with pytest.raises(TypeError):
            weakref.ref(first)
        tag = gw._callable_tag(first)
        assert tag.startswith("<callable itemgetter #")
        assert gw._callable_tag(first) == tag
        assert gw._callable_tag(other) != tag
        cfg = BackendConfig(kind="mock", behavior="handler", params={"fn": first})
        assert backend_fingerprint(cfg) == backend_fingerprint(replace(cfg))

    def test_nested_callables_are_tagged_in_walk_order(self):
        def handler(req):
            return "x"

        cfg = BackendConfig(kind="mock", behavior="handler",
                            params={"fn": handler, "more": [{"g": len}]})
        fingerprint = backend_fingerprint(cfg)
        tags = gw._callable_tag(handler), gw._callable_tag(len)
        assert fingerprint == gw.text_digest(json.dumps(
            ["mock", "", "", "handler", {"fn": tags[0], "more": [{"g": tags[1]}]}],
            sort_keys=True))


EMBED_OK = {"data": [{"embedding": [0.1, 0.2]}, {"embedding": [0.3, 0.4]}],
            "usage": {"prompt_tokens": 6}}
JOBS = {  # job: (backend kind, one call, good reply, malformed reply, its error)
    "chat": ("remote_chat", lambda cfg, budget: chat(cfg, ChatRequest(user_text="x"), budget),
             chat_body("fine", 4, 2), {"choices": []}, "malformed chat reply"),
    "embed": ("remote_embed", lambda cfg, budget: embed(cfg, ["a", "b"], budget),
              EMBED_OK, {"data": EMBED_OK["data"][:1]}, "returned 1 vectors for 2 texts"),
}
OUTCOMES = {  # outcome: (HTTP statuses in turn, error raised, attempts)
    "transient_then_ok": ([500, 200], None, 2),
    "unreachable": ([503, 503], "{job} m unreachable after 2 attempt", 2),
    "permanent": ([400], "HTTP 400", 1),
    "malformed": (["malformed"], None, 1),
}


PINNED_CFG = dict(kind="mock", behavior="fixed", params={
    "reply": "x", "usage": [1, 2], 3: {"a": (1, 2.5, None, True)}, "v": np.float64(0.5)})
TEXTS = ("alpha {text}", "beta {text}", "gamma {text}")
FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals included


class TestReplyCache:
    """Temperature-0 chat replies and embeddings are asked once per reply cache."""

    def test_keys_are_pinned(self):
        # cache files written before keep hitting only while these digests hold
        from lpo.core import Example, text_digest, validate_template
        from lpo.evaluator import EvalConfig, _classify_keys, _extract_keys

        cfg = BackendConfig(**PINNED_CFG)
        fp = backend_fingerprint(cfg)
        template = validate_template("Review: {text}", template_id="t")
        classify = _classify_keys(fp, EvalConfig(cfg, cfg), template)
        assert classify(Example(text="a fine film", label="positive")) == (
            "bfdbbbf8ee70bb3a2db4f439d9d9338c47c46ce4b7f76fd243fe89b61c9bea54")
        assert _extract_keys(fp, ("negative", "positive"))("it is fine") == (
            "51d47e3f8a919949bcb9cf9869454418b1e3555b7cffdc7199e75498ca1fe973")
        req = ChatRequest("Rewrite: x", system_text="Be brief.", soft_prompt=(-0.0, 5e-324, 1.5))
        soft = "AAAAAAAAAIABAAAAAAAAAAAAAAAAAPg/"  # base64 of the float64 bytes
        assert gw._chat_key(fp, req) == text_digest(json.dumps(
            ["chat", fp, "Rewrite: x", "Be brief.", "0.0", 512, soft])) == (
            "9eabfc809101a27558cf7cda3cc33ee9307974a98f51cdff1ed1248f3d0e1902")
        assert gw._embed_key(fp, "Review: {text}") == text_digest(json.dumps(
            ["embed", fp, "Review: {text}"])) == (
            "9b80293d9ed7a843d77ba7f877741084e1a4aa16820d8eff359ab4da1f1361b0")

    def test_a_hit_is_no_call(self):
        cfg, b = mock_chat_cfg(behavior="echo"), Budget()
        for _ in range(3):
            assert gw.cached_chat(cfg, ChatRequest("hello"), b) == "hello"
        assert (call_count(cfg), attempt_count(cfg), usage_report(b)) == (1, 1, (1, 2))

    def test_every_request_field_is_in_the_key(self):
        cfg, b = mock_chat_cfg(behavior="echo"), Budget()
        requests = [ChatRequest("hi"), ChatRequest("hi", system_text="s"),
                    ChatRequest("hi", max_tokens=7), ChatRequest("hi", soft_prompt=(0.0,)),
                    ChatRequest("hi", soft_prompt=(-0.0,)), ChatRequest("hi!")]
        for req in requests * 2:
            gw.cached_chat(cfg, req, b)
        assert call_count(cfg) == len(requests)

    def test_a_sampled_request_always_reaches_the_backend(self, tmp_path):
        b = Budget()
        b.bind_replies(tmp_path / "cache.jsonl")
        cfg = mock_chat_cfg(behavior="echo")
        for _ in range(3):
            assert gw.cached_chat(cfg, ChatRequest("hello", temperature=0.7), b) == "hello"
        b.replies.flush()
        assert call_count(cfg) == 3
        assert not (tmp_path / "cache.jsonl").exists()

    def test_a_dimension_change_is_refused_from_the_cache_too(self):
        from lpo.core import validate_template
        from lpo.encoder import EncoderSpec, encode

        backend = BackendConfig(kind="mock", behavior="hash", params={"dimension": 4})
        b, seeds = Budget(), [validate_template("x {text}")]
        encode(EncoderSpec(backend, dimension=4), seeds, b)
        with pytest.raises(ValidationError, match="dimension 4, expected 8"):
            encode(EncoderSpec(backend, dimension=8), seeds, b)
        assert call_count(backend) == 1

    @pytest.mark.parametrize("stored", ["not base64!", "AAAA", "", "AAAAAAAAAAAAAAA="])
    def test_a_stored_vector_that_does_not_decode_is_embedded_again(self, tmp_path, stored):
        backend = BackendConfig(kind="mock", behavior="hash", params={"dimension": 4})
        path = tmp_path / "cache.jsonl"
        key = gw._embed_key(backend_fingerprint(backend), "x {text}")
        path.write_text(json.dumps({"key_hash": key, "raw_output": stored}) + "\n")
        for _ in range(2):  # the second run hits the good line appended after the bad one
            b = Budget()
            b.bind_replies(path)
            (vec,) = gw.cached_embed(backend, ["x {text}"], b)
            b.replies.flush()
            assert vec.shape == (4,)
        assert call_count(backend) == 1

    def test_binding_a_cache_file_keeps_the_vectors_embedded_before(self, tmp_path):
        from lpo.core import Dataset, Example, validate_template
        from lpo.encoder import EncoderSpec, encode
        from lpo.evaluator import EvalConfig, evaluate

        backend = BackendConfig(kind="mock", behavior="hash", params={"dimension": 4})
        spec, b, seeds = EncoderSpec(backend, dimension=4), Budget(), [validate_template("x {text}")]
        task = mock_chat_cfg(behavior="fixed", params={"reply": "positive"})
        ds = Dataset(examples=(Example(text="a", label="positive"),),
                     label_set=("negative", "positive"))
        (first,) = encode(spec, seeds, b)
        evaluate(seeds[0], ds, EvalConfig(task, task, cache_path=tmp_path / "c.jsonl"), b)
        (second,) = encode(spec, seeds, b)
        assert call_count(backend) == 1
        assert second.tobytes() == first.tobytes()

    def test_a_reply_in_the_file_wins_over_one_kept_in_memory(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps({"key_hash": "k", "raw_output": "from the file"}) + "\n")
        b = Budget()
        b.replies.put("k", "from memory")
        b.replies.put("only", "in memory")
        b.bind_replies(path)
        assert (b.replies.get("k"), b.replies.get("only")) == ("from the file", "in memory")

    @settings(max_examples=60, deadline=None)
    @given(requests=st.lists(st.tuples(st.sampled_from(("chat", "embed")), st.sampled_from((0, 1)),
                                       st.sampled_from(TEXTS), st.sampled_from((0.0, 0.7))),
                             min_size=1, max_size=12),
           vectors=st.lists(st.lists(FINITE, min_size=3, max_size=3),
                            min_size=2 * len(TEXTS), max_size=2 * len(TEXTS)),
           tear=st.integers(0, 10**6))
    @example(requests=[("embed", 0, TEXTS[0], 0.0), ("embed", 1, TEXTS[0], 0.0)],
             vectors=[[-0.0, 5e-324, 2.2250738585072009e-308]] * 6, tear=0)
    def test_reruns_on_one_cache_file_ask_each_deterministic_request_once(
            self, requests, vectors, tear):
        """Three runs on one cache file, the last line of the first run's file
        torn: the runs agree, each deterministic request is asked once (the
        torn one twice), every sampled one each time, each backend apart."""
        requests = [(kind, n, text, temperature if kind == "chat" else 0.0)
                    for kind, n, text, temperature in requests]
        asked: list[tuple] = []
        draws = itertools.count(1)

        def table_embed(cfg, texts):
            asked.extend(("embed", cfg.params["name"], text, 0.0) for text in texts)
            return [cfg.params["table"][text] for text in texts]

        def chat_handler(name):
            def handler(req):
                asked.append(("chat", name, req.user_text, req.temperature))
                if req.temperature > 0:
                    return f"draw {next(draws)}"  # a fresh reply for every sample
                return f"{name}|{req.user_text}"
            return handler

        tables = [dict(zip(TEXTS, vectors[:3])), dict(zip(TEXTS, vectors[3:]))]
        chats = [mock_chat_cfg(behavior="handler", params={"fn": chat_handler(n)}) for n in (0, 1)]
        embeds = [BackendConfig(kind="mock", behavior="table", params={"name": n, "table": t})
                  for n, t in enumerate(tables)]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setitem(gw.MOCK_EMBED_BEHAVIORS, "table", table_embed)
            path = Path(tmp) / "cache.jsonl"
            runs, asks = [], []
            for rerun in range(3):
                del asked[:]
                b = Budget()
                b.bind_replies(path)
                results = []
                for kind, n, text, temperature in requests:
                    if kind == "chat":
                        req = ChatRequest(text, temperature=temperature)
                        results.append(gw.cached_chat(chats[n], req, b))
                    else:
                        (vec,) = gw.cached_embed(embeds[n], [text], b)
                        results.append(vec.tobytes())
                b.replies.flush()
                runs.append(results)
                asks.append(list(asked))
                if rerun == 0 and path.exists():  # tear the last line, not its first byte
                    data = path.read_bytes()
                    last = data[:-1].rsplit(b"\n", 1)[-1]
                    path.write_bytes(data[:len(data) - 2 - tear % (len(last) - 1)])
            entries = gw.ResponseCache(path)._entries

        deterministic = [r for r in requests if r[0] == "embed" or r[3] == 0.0]
        distinct = list(dict.fromkeys(deterministic))
        sampled = [r for r in requests if r[0] == "chat" and r[3] > 0]
        assert [a for a in asks[0] if a in distinct] == distinct
        assert [a for a in asks[1] if a in distinct] == distinct[-1:]  # the torn line's
        assert [a for a in asks[2] if a in distinct] == []
        assert all([a for a in run_asks if a not in distinct] == sampled for run_asks in asks)
        for position, (kind, n, text, temperature) in enumerate(requests):
            got = [results[position] for results in runs]
            if kind == "embed":
                want = np.asarray(tables[n][text], dtype=float).tobytes()
                assert got == [want] * 3  # bit for bit: -0.0 and subnormals too
            elif temperature == 0.0:
                assert got == [f"{n}|{text}"] * 3
            else:
                assert all(g.startswith("draw") for g in got) and len(set(got)) == 3
        assert not any(v.startswith("draw") for v in entries.values())
        assert len(entries) == len(distinct)


class TestOneCallPath:
    """``chat`` and ``embed`` share one path: reserve, dispatch, retry, settle, count."""

    @pytest.mark.parametrize("outcome", OUTCOMES)
    @pytest.mark.parametrize("job", JOBS)
    def test_attempts_calls_and_budget(self, job, outcome):
        kind, call, good, malformed, malformed_error = JOBS[job]
        statuses, error, attempts = OUTCOMES[outcome]
        script = [(200, malformed) if status == "malformed"
                  else (status, good if status == 200 else "no") for status in statuses]
        budget = Budget(max_calls=3, max_total_tokens=100)
        error = malformed_error if outcome == "malformed" else error and error.format(job=job)
        with LoopbackServer(*script) as server:
            cfg = BackendConfig(kind=kind, endpoint=server.url + "/v1", model_name="m",
                                max_attempts=2, backoff_base=0.0)
            if error is None:
                call(cfg, budget)
            else:
                with pytest.raises(BackendError, match=error):
                    call(cfg, budget)
        done = error is None
        assert attempt_count(cfg) == attempts
        assert call_count(cfg) == int(done)
        assert usage_report(budget) == ((1, 6) if done else (0, 0))
        assert budget.calls_left() == 3 - int(done)

    @pytest.mark.parametrize("kind, job, error", [
        ("remote_embed", "chat", "backend kind 'remote_embed' does not serve chat"),
        ("remote_chat", "embed", "backend kind 'remote_chat' does not serve embeddings"),
        ("remote_chat", "soft", "soft-prompt injection is not supported by remote backends"),
    ])
    def test_refusals_reserve_first_and_hand_the_slot_back(self, kind, job, error):
        cfg = BackendConfig(kind=kind, endpoint="https://api.test/v1", model_name="m")
        make = {"chat": lambda b: chat(cfg, ChatRequest(user_text="x"), b),
                "embed": lambda b: embed(cfg, ["a"], b),
                "soft": lambda b: chat(cfg, ChatRequest(user_text="x", soft_prompt=(0.1,)), b)}
        budget = Budget(max_calls=1)
        with pytest.raises((ValidationError, BackendError), match=re.escape(error)):
            make[job](budget)
        assert budget.calls_left() == 1 and attempt_count(cfg) == 0
        budget.ensure_available()
        budget.record(0, 0)
        with pytest.raises(BudgetExhaustedError):  # the slot is reserved before the kind check
            make[job](budget)


def test_only_gateway_touches_the_network():
    src = Path(__file__).parent.parent / "src" / "lpo"
    pattern = re.compile(
        r"^\s*(import|from)\s+(requests|httpx|urllib|socket|http)\b", re.MULTILINE)
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "gateway.py":
            continue
        if pattern.search(path.read_text(encoding="utf-8")):
            offenders.append(path.name)
    assert offenders == []
