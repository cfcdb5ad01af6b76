"""Shared builders for the toy optimization pipeline and its oracles."""

from __future__ import annotations

import http.server
import json
import os
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from lpo import evaluator, gateway
from lpo.core import Dataset, Example, PromptTemplate, validate_template
from lpo.decoder import DecodeStrategy
from lpo.encoder import EncoderSpec
from lpo.errors import BackendError, TransientBackendError
from lpo.evaluator import EvalConfig
from lpo.explorer import ExplorationPolicy
from lpo.gateway import BackendConfig, Budget
from lpo.optimizer import OptimizerConfig
from lpo.toyspace import ToySpaceSpec

TOY_PARAMS = ("tone", "steps")


def circle_points(radius: float = 0.45, center=(0.5, 0.5), count: int = 5):
    """Seed coordinates evenly spaced on a circle inside [0, 1]^2."""
    points = []
    for k in range(count):
        theta = np.pi / 2 + 2 * np.pi * k / count
        points.append((float(center[0] + radius * np.cos(theta)),
                       float(center[1] + radius * np.sin(theta))))
    return points


def toy_template(tid: str, x: float, y: float) -> PromptTemplate:
    return validate_template(f"tone={x!r};steps={y!r} {{text}}", template_id=tid)


def toy_examples(n: int) -> list[Example]:
    return [Example(text=f"sample-{i:02d}", label="positive" if i % 2 else "negative")
            for i in range(1, n + 1)]


def toy_fitness(vec, target) -> float:
    """The synthetic landscape: 1 - squared distance to target / 2, clipped."""
    vec = np.asarray(vec, dtype=float)
    target = np.asarray(target, dtype=float)
    return float(min(1.0, max(0.0, 1.0 - float(np.sum((vec - target) ** 2)) / 2.0)))


def quantized(fitness: float, n_examples: int) -> float:
    """Accuracy the toy task backend realizes for a given fitness."""
    return int(round(fitness * n_examples)) / n_examples


def grid_best_fitness(seed_vectors, target, steps: int = 101) -> float:
    """Grid-search oracle: best interpolation fitness over all seed pairs."""
    best = -np.inf
    grid = np.linspace(0.0, 1.0, steps)
    vectors = [np.asarray(v, dtype=float) for v in seed_vectors]
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            for lam in grid:
                point = lam * vectors[i] + (1.0 - lam) * vectors[j]
                best = max(best, toy_fitness(point, target))
    return best


@dataclass
class ToyPipeline:
    seeds: list[PromptTemplate]
    cfg: OptimizerConfig
    eval_cfg: EvalConfig
    eval_set: Dataset
    budget: Budget
    embed_backend: BackendConfig
    chat_backend: BackendConfig
    task_backend: BackendConfig
    extraction_backend: BackendConfig
    target: tuple[float, float]


def build_toy_pipeline(
    rng_seed: int = 0,
    n_examples: int = 20,
    target=(0.5, 0.5),
    candidate_count: int = 15,
    select_n: int = 3,
    max_iterations: int = 1,
    patience: int = 1,
    keep_seeds: bool = True,
    decode_kind: str = "toy_inverse",
    cache_path=None,
    seeds_xy=None,
    max_calls: int = 10**7,
    max_examples: int | None = None,
) -> ToyPipeline:
    """A fully mocked pipeline over the synthetic landscape; zero network."""
    spec = ToySpaceSpec(TOY_PARAMS)
    seeds_xy = seeds_xy if seeds_xy is not None else circle_points()
    seeds = [toy_template(f"seed-{k + 1}", x, y) for k, (x, y) in enumerate(seeds_xy)]
    examples = toy_examples(n_examples)
    eval_set = Dataset(examples=tuple(examples), label_set=("negative", "positive"))

    embed_backend = BackendConfig(kind="mock", behavior="toy",
                                  params={"parameters": list(TOY_PARAMS)})
    if decode_kind == "toy_inverse":
        chat_backend = BackendConfig(kind="mock", behavior="toy_chat")
        strategy = DecodeStrategy(kind="toy_inverse", chat=chat_backend, toy_space=spec)
    elif decode_kind == "anchor_blend":
        chat_backend = BackendConfig(kind="mock", behavior="toy_chat",
                                     params={"parameters": list(TOY_PARAMS)})
        strategy = DecodeStrategy(kind="anchor_blend", chat=chat_backend)
    else:
        raise ValueError(f"unsupported toy decode kind {decode_kind}")
    task_backend = BackendConfig(
        kind="mock", behavior="toy_task",
        params={
            "parameters": list(TOY_PARAMS),
            "target": list(target),
            "examples": [{"text": ex.text, "label": ex.label} for ex in examples],
        },
    )
    extraction_backend = BackendConfig(kind="mock", behavior="fixed",
                                       params={"reply": "unparsed"})
    cfg = OptimizerConfig(
        policy=ExplorationPolicy(rng_seed=rng_seed, candidate_count=candidate_count),
        encoder=EncoderSpec(backend=embed_backend, dimension=len(TOY_PARAMS)),
        decode=strategy,
        select_n=select_n,
        max_iterations=max_iterations,
        patience=patience,
        keep_seeds=keep_seeds,
    )
    eval_cfg = EvalConfig(
        task_backend=task_backend,
        extraction_backend=extraction_backend,
        max_examples=max_examples if max_examples is not None else n_examples,
        cache_path=cache_path,
    )
    return ToyPipeline(
        seeds=seeds, cfg=cfg, eval_cfg=eval_cfg, eval_set=eval_set,
        budget=Budget(max_calls=max_calls, max_total_tokens=10**12),
        embed_backend=embed_backend, chat_backend=chat_backend,
        task_backend=task_backend, extraction_backend=extraction_backend,
        target=tuple(target),
    )


def sleeping(reply_for, delay=0.002, peak=None, threads=None, spans=None):
    """Handler backend that sleeps like a remote call; ``peak`` tracks overlap,
    ``threads`` the name of the thread making each call, and ``spans`` each
    call's (start, end, request text) on the ``time.perf_counter`` clock.

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
            if threads is not None:
                threads.append(threading.current_thread().name)
        start = time.perf_counter()
        time.sleep(delay)
        with lock:
            active[0] -= 1
            if spans is not None:
                spans.append((start, time.perf_counter(), req.user_text))
        return reply

    return handler


def scripted(replies):
    """Handler backend that answers each request with the next entry of
    ``replies``, from its own cursor.

    An entry ``{"error": status}`` fails the attempt as that HTTP status
    would: a 429 or 5xx with ``TransientBackendError`` (retried), any other
    with ``BackendError``. A request past the last entry is a ``BackendError``.
    """
    entries, lock = iter(replies), threading.Lock()

    def handler(req):
        with lock:
            entry = next(entries, None)
        if entry is None:
            raise BackendError(f"script exhausted after {len(replies)} replies")
        if isinstance(entry, dict):
            status = int(entry["error"])
            failure = TransientBackendError if status == 429 or status >= 500 else BackendError
            raise failure(f"HTTP {status} (scripted)")
        return str(entry)

    return handler


def spy_on_response_caches(monkeypatch) -> list:
    """Record every ``ResponseCache`` that a budget binds to a file from now
    on (:meth:`lpo.gateway.Budget.bind_replies`); each one read its file once."""
    made = []

    class SpyCache(evaluator.ResponseCache):
        def __init__(self, path=None):
            super().__init__(path)
            made.append(self)

    monkeypatch.setattr(gateway, "ResponseCache", SpyCache)
    return made


def reference_cache_read(path) -> tuple[dict[str, str], int, bool]:
    """The reply-cache reader of earlier versions, one ``json.loads`` per line,
    widened to count a line nested past the recursion limit as undecodable:
    the entries, skipped-line count and cut-off flag that
    ``ResponseCache(path)`` must give."""
    entries, skipped, line = {}, 0, ""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    key, raw = obj["key_hash"], obj["raw_output"]
                except (ValueError, KeyError, TypeError, RecursionError):
                    key = raw = None
                if isinstance(key, str) and isinstance(raw, str):
                    entries[key] = raw
                else:
                    skipped += 1
    except (OSError, UnicodeDecodeError):
        entries = {}
    return entries, skipped, bool(line) and not line.endswith("\n")


def open_descriptors(path) -> list[str]:
    """This process's file descriptors open on ``path``; skips the test where
    ``/proc/self/fd`` does not exist."""
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd to list descriptors")
    target = Path(path).resolve()
    found = []
    for fd in os.listdir(fds):
        try:
            if Path(os.readlink(fds / fd)) == target:
                found.append(fd)
        except OSError:  # the descriptor of the listing itself is gone by now
            pass
    return found


class LoopbackServer:
    """An HTTP server on 127.0.0.1 that answers each POST with the next reply
    of its script, for tests of the remote wire.

    A reply is ``(status, body)`` or ``(status, body, headers)``: a dict or
    list body is sent as JSON, a str as it is. Two replies misbehave:
    ``"stall"`` sends nothing until the server stops (so the client times
    out), and ``"short"`` promises 100 body bytes and sends 5. Each request,
    a GET too, is kept in ``received`` as ``(path, headers, payload)``, with
    payload None for an empty body. Used as a context manager; on exit every
    handler thread has been joined.
    """

    def __init__(self, *script):
        self.script, self.received = list(script), []
        self.stopping = threading.Event()
        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                data = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                server.received.append((self.path, self.headers, json.loads(data) if data else None))
                reply = server.script.pop(0)
                if reply == "stall":
                    server.stopping.wait(30)
                    return
                status, body, *headers = (200, "12345") if reply == "short" else reply
                data = (body if isinstance(body, str) else json.dumps(body)).encode()
                self.send_response(status)
                for name, value in {**(headers[0] if headers else {}),
                                    "Content-Length": "100" if reply == "short" else len(data)}.items():
                    self.send_header(name, str(value))
                self.end_headers()
                self.wfile.write(data)

            do_GET = do_POST  # so that a redirect followed as a GET is seen too

            def log_message(self, *args):
                pass

        class Server(socketserver.ThreadingMixIn, http.server.HTTPServer):
            daemon_threads = False  # so that server_close joins every handler thread

            def handle_error(self, request, client_address):
                raise  # out of the handler thread, which fails the test

        self._server = Server(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}"
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05})

    def __enter__(self) -> LoopbackServer:
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stopping.set()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()


def closed_port_url() -> str:
    """The URL of a port on 127.0.0.1 that nothing listens on (it was just freed)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"
