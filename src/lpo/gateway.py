"""Single choke point for all black-box LLM access.

Chat-style generation and text embedding both go through here, and no
other module in this package performs network access. Mock backends are
dispatched here too; their behaviors live in :mod:`lpo.mocks`.

Every call, chat or embed, mock or remote, takes one path, ``_call``: it
reserves a slot in the run's :class:`Budget`, checks that the backend kind
serves the job (and, for a remote backend, reads its endpoint and key once),
then makes the attempt under the backend's in-flight cap, retrying transient
failures with exponential backoff. The cap is a queue of ``max_in_flight``
tokens: an attempt takes one before it starts and puts it back when it ends,
however it ends, so at most ``max_in_flight`` attempts run at once, from any
thread. A failure hands the slot back; a success settles the call's usage.
Each attempt is counted, with its blocking vote and, once settled, its call,
in one section under the backend's lock. :func:`chat` and :func:`embed` add
only their own checks of the request and the reply.

A :class:`BackendConfig` is frozen; each one builds its own private run
state (lock, in-flight cap, call and attempt counters). There the gateway notes
whether a backend's attempts mostly wait (on a network, say) rather than
compute. :func:`blocks` reports it, and the evaluator fans a template's calls
out to ``max_in_flight`` threads only for a backend that blocks.

Every call receives the run's ledger, a :class:`Budget`: ceilings, usage
and replies. Only this module builds a :class:`ResponseCache`; one keeps no
file open, since each flush appends one group and closes the file.

What is asked the same way twice is asked once. :func:`cached_chat` looks a
chat request at temperature 0 up in ``budget.replies`` before it calls
:func:`chat`, and keeps the reply there after; :func:`cached_embed` does the
same for each text, its vector kept as exact base64 float64. A sampled
request (temperature > 0) always reaches the backend, so a rerun draws its
decodes afresh. A hit enters neither :func:`chat` nor :func:`embed`, so it is
no call: not in the budget and not in :func:`call_count`. The evaluator keys
its classify and extract replies itself (:mod:`lpo.evaluator`).

The remote wire is one JSON POST per attempt, in the de facto
chat-completions / embeddings shape, made with the standard library's
``urllib.request`` (imported on the first remote call, so ``import lpo`` and
a mock run never load it). The request carries ``Content-Type:
application/json``, ``User-Agent: lpo/<version>`` and, when the environment
variable named in the config (default ``LPO_API_KEY``) is set, ``Authorization:
Bearer <key>``; a key that is not printable ASCII without spaces is refused
(a ValidationError that names the variable, not the key) before any request
is sent. ``LPO_ENDPOINT`` overrides the configured endpoint, and either
must be an http(s) URL. HTTPS is checked against the system CA store
(``SSL_CERT_FILE`` selects another). ``timeout`` bounds each socket
operation: the connect and every read. Every transport failure becomes an
lpo error: a status of 429 or 5xx, or a connection that is refused, times
out, resets or ends its body short, is transient and retried; any other
status of 300 or more (a redirect is never followed, so the key goes to no
other URL), a body that is not JSON and a reply of the wrong shape are a
:class:`BackendError`. A usage count must be a non-negative integer; a
missing or null one counts 0. The mock chat backend additionally accepts an
optional soft-prompt vector alongside the user text; remote backends reject
it.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
import queue
import threading
import time
import weakref
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence
from urllib.parse import urlsplit

import numpy as np

from . import __version__, mocks
from .core import as_vector, decode_float64, encode_float64, jsonable, text_digest
from .errors import BackendError, BudgetExhaustedError, TransientBackendError, ValidationError
from .mocks import MOCK_CHAT_BEHAVIORS, MOCK_EMBED_BEHAVIORS

logger = logging.getLogger(__name__)

API_KEY_ENV = "LPO_API_KEY"
ENDPOINT_ENV = "LPO_ENDPOINT"

BACKEND_KINDS = ("remote_chat", "remote_embed", "mock")


@dataclass(frozen=True)
class ChatRequest:
    """One chat-style generation request."""

    user_text: str
    system_text: str | None = None
    temperature: float = 0.0
    max_tokens: int = 512
    soft_prompt: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.user_text:
            raise ValidationError("chat request has empty user_text")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise ValidationError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_tokens <= 0:
            raise ValidationError("max_tokens must be positive")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    prompt_tokens: int
    completion_tokens: int

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValidationError("token counts must be >= 0")


_APPEND = os.O_WRONLY | os.O_APPEND | os.O_CREAT


class ResponseCache:
    """Append-only JSONL cache of backend replies, keyed by content hash.

    The file is read once, here, a line at a time. Each line goes straight to
    the JSON scanner (``json.JSONDecoder().scan_once``), and only whitespace
    may follow its value; a line with no value at its start, such as an
    indented one, goes through ``json.loads``. So a line is accepted or
    skipped exactly as ``json.loads`` would decide, without that call's
    overhead per line, and each distinct reply is kept once. ``put`` serves
    the reply from memory at once and queues its line; :meth:`flush` appends
    the queued lines as one group with one open, one write and one close
    (creating the directory only when the open finds it missing), so they
    have reached the operating system when it returns (they are not fsynced)
    and no file stays open between flushes.
    :func:`lpo.evaluator.evaluate` flushes once per template and
    :func:`lpo.optimizer.run_cycle` once per decode stage, so a crash loses
    at most the replies put since the last flush.

    I/O problems are downgraded to warnings; the evaluator then simply falls
    back to live calls. A group whose write fails or falls short stays in
    memory only, and the next group starts on a new line. Undecodable lines,
    such as one cut short by a crash or one nested past the recursion limit,
    and lines whose key or reply is not a string are skipped and counted,
    with one warning. Puts and flushes are serialized.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, str] = {}
        self._pending: list[str] = []  # lines put since the last flush
        self._lock = threading.Lock()
        self.skipped = 0
        self._cut_off = False  # last line lacks its newline; next append starts a new one
        if self.path is None or not self.path.exists():
            return
        line, replies = "", {}  # one copy of each distinct reply; a label repeats a lot
        scan = json.JSONDecoder().scan_once  # json.loads without its per-call checks
        try:
            # lpo writes ASCII-only JSON, so a cut-off line is still valid UTF-8
            with open(self.path, encoding="utf-8") as fh:
                for line in fh:
                    try:
                        try:
                            obj, end = scan(line, 0)
                        except StopIteration:  # no value at the start: blank, indented or junk
                            if not line.strip():
                                continue
                            obj, end = json.loads(line), len(line)
                        if line[end:].strip(" \t\n\r"):  # what json.loads calls extra data
                            raise ValueError
                        key, raw = obj["key_hash"], obj["raw_output"]
                    except (ValueError, KeyError, TypeError, RecursionError):
                        key = raw = None
                    if isinstance(key, str) and isinstance(raw, str):
                        self._entries[key] = replies.setdefault(raw, raw)
                    else:
                        self.skipped += 1
        except (OSError, UnicodeDecodeError) as exc:
            logger.warning("ignoring unreadable cache %s: %s", self.path, exc)
            self._entries = {}
        self._cut_off = bool(line) and not line.endswith("\n")
        if self.skipped:
            logger.warning("skipped %d unreadable cache line(s) in %s", self.skipped, self.path)

    def get(self, key: str) -> str | None:
        return self._entries.get(key)

    def put(self, key: str, raw_output: str) -> None:
        if self.path is None:
            with self._lock:
                self._entries[key] = raw_output
            return
        # the bytes of json.dumps({"key_hash": key, "raw_output": raw_output})
        line = ('{"key_hash": ' + json.dumps(key) + ', "raw_output": ' + json.dumps(raw_output)
                + "}\n")
        with self._lock:
            self._entries[key] = raw_output
            self._pending.append(line)

    def flush(self) -> None:
        """Append the lines put since the last flush as one group."""
        with self._lock:
            if not self._pending:
                return
            lines, self._pending = self._pending, []
            data = (("\n" if self._cut_off else "") + "".join(lines)).encode("ascii")
            try:
                try:
                    fd = os.open(self.path, _APPEND)
                except FileNotFoundError:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    fd = os.open(self.path, _APPEND)
                self._cut_off = True  # part of the group may be out until all of it is
                try:
                    written = os.write(fd, data)
                finally:
                    os.close(fd)
                if written < len(data):
                    raise OSError(f"short write, {written} of {len(data)} bytes")
                self._cut_off = False
            except OSError as exc:
                logger.warning("could not append %d line(s) to cache %s: %s",
                               len(lines), self.path, exc)


@dataclass
class Budget:
    """One run's ledger: call and token ceilings, exact usage and replies.

    A call reserves a slot before it is made (:meth:`ensure_available`) and
    settles it when it completes (:meth:`record`) or hands it back when it
    fails (:meth:`release`), so concurrent callers never complete more than
    ``max_calls`` calls. Tokens are known only after a call, so the token
    ceiling refuses new calls once the tokens spent reach it; calls already
    admitted may end above it.

    ``replies`` is the run's reply cache: classify and extract replies,
    chat replies at temperature 0 and embeddings, never a sampled reply. It
    stays in memory until :func:`lpo.evaluator.evaluate` or
    :func:`lpo.optimizer.run_cycle` binds it to a cache file
    (:meth:`bind_replies`), which keeps the replies it held in memory; it
    stays bound to the last file it was bound to. A reply served from it is
    no call and is charged nothing. A stored vector that does not decode is
    embedded again.
    """

    max_calls: int = 100_000
    max_total_tokens: int = 10_000_000
    calls: int = field(default=0, init=False)
    total_tokens: int = field(default=0, init=False)
    replies: ResponseCache = field(default_factory=ResponseCache, init=False, repr=False, compare=False)
    _reserved: int = field(default=0, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_calls <= 0 or self.max_total_tokens <= 0:
            raise ValidationError("budget limits must be positive")

    def ensure_available(self) -> None:
        """Reserve one call slot, or raise if none is left."""
        with self._lock:
            if self.calls + self._reserved >= self.max_calls:
                raise BudgetExhaustedError(
                    f"call budget exhausted ({self.calls + self._reserved}/{self.max_calls} calls)"
                )
            if self.total_tokens >= self.max_total_tokens:
                raise BudgetExhaustedError(
                    f"token budget exhausted ({self.total_tokens}/{self.max_total_tokens} tokens)"
                )
            self._reserved += 1

    def record(self, prompt_tokens: int, completion_tokens: int) -> None:
        """Settle a reserved slot as one completed call with its usage, which
        must not be negative (a refused settlement leaves the slot reserved)."""
        if prompt_tokens < 0 or completion_tokens < 0:
            raise ValidationError(f"token counts must be >= 0, got {prompt_tokens}, "
                                  f"{completion_tokens}")
        with self._lock:
            self._reserved -= 1
            self.calls += 1
            self.total_tokens += prompt_tokens + completion_tokens

    def release(self) -> None:
        """Hand back a reserved slot whose call failed."""
        with self._lock:
            self._reserved -= 1

    def calls_left(self) -> int:
        """Call slots neither used nor reserved."""
        with self._lock:
            return self.max_calls - self.calls - self._reserved

    def bind_replies(self, path: str | Path) -> None:
        """Keep replies in the cache file at ``path`` from now on. Unless they
        are kept there already, the current cache is flushed and the file is
        read, once; the budget stays bound to it until another path comes.
        Replies kept in memory only are kept on, under the file's own."""
        if self.replies.path != Path(path):
            self.replies.flush()
            bound = ResponseCache(path)
            if self.replies.path is None:
                for key, raw in self.replies._entries.items():
                    bound._entries.setdefault(key, raw)
            self.replies = bound


def usage_report(budget: Budget) -> tuple[int, int]:
    """Running (calls, tokens) totals; exact sums of per-call reported usage."""
    with budget._lock:
        return budget.calls, budget.total_tokens


class _Runtime:
    """One backend's run state: lock, in-flight cap, counters, blocking tally."""

    def __init__(self, max_in_flight: int):
        self.lock, self.in_flight = threading.Lock(), queue.SimpleQueue()
        for _ in range(max_in_flight):  # an attempt holds one token while it runs
            self.in_flight.put(None)
        self.calls = self.attempts = 0
        self.tally = 0  # +1 per attempt that waited longer than it computed, -1 per other


@dataclass(frozen=True)
class BackendConfig:
    """Where and how to reach one backend.

    ``kind`` is one of remote_chat, remote_embed, mock. Mock backends pick a
    registered deterministic behavior by name and parameterize it via
    ``params``; see :mod:`lpo.mocks`. ``max_in_flight`` caps the calls in
    flight at once and is the width the evaluator fans a template's calls
    out to, for a backend that :func:`blocks`. Fields are settings only; the
    run state (counters, in-flight cap, blocking tally) is kept apart, and a
    ``replace`` copy gets its own, at zero calls under its own cap.
    """

    kind: str = "mock"
    endpoint: str = ""
    model_name: str = ""
    api_key_env: str = API_KEY_ENV
    timeout: float = 30.0
    max_attempts: int = 3
    backoff_base: float = 0.5
    max_in_flight: int = 4
    behavior: str = "fixed"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValidationError(f"unknown backend kind {self.kind!r}")
        if self.kind.startswith("remote"):
            if not (self.endpoint and self.model_name):
                raise ValidationError(f"{self.kind} backend requires endpoint and model_name")
            _check_url(self.endpoint)
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")
        if self.max_in_flight < 1:  # a cap of 0 would block the first call forever
            raise ValidationError(f"max_in_flight must be >= 1, got {self.max_in_flight!r}")
        if not self.timeout > 0:
            raise ValidationError(f"timeout must be > 0, got {self.timeout!r}")
        if not 0 <= self.backoff_base < math.inf:
            raise ValidationError(f"backoff_base must be finite and >= 0, got {self.backoff_base}")
        object.__setattr__(self, "_runtime", _Runtime(self.max_in_flight))


def call_count(cfg: BackendConfig) -> int:
    """Completed gateway calls against this backend (accounting hook)."""
    return cfg._runtime.calls


def attempt_count(cfg: BackendConfig) -> int:
    """Total attempts including retried failures."""
    return cfg._runtime.attempts


def blocks(cfg: BackendConfig) -> bool:
    """Whether most of this backend's attempts so far waited longer than they
    computed: wall time minus the thread's CPU time against that CPU time.

    A remote backend waits on the network; an in-process mock computes.
    Counting attempts rather than summing seconds keeps one preempted call,
    or threads queueing for the interpreter lock, from tipping the verdict.
    """
    with cfg._runtime.lock:
        return cfg._runtime.tally > 0


# process-wide on purpose: a number must never be given to two callables
_callable_serials: dict[int, tuple[Callable[[], object], int]] = {}
_serial_numbers = itertools.count(1)
_serials_lock = threading.Lock()


def _callable_tag(fn) -> str:
    """Qualified name plus a number no other callable of this process gets."""
    with _serials_lock:
        entry = _callable_serials.get(id(fn))
        if entry is None or entry[0]() is not fn:  # new, or a dead one's id reused
            try:
                ref = weakref.ref(fn)
            except TypeError:  # e.g. a builtin: holding it keeps its id its own
                ref = lambda held=fn: held
            entry = _callable_serials[id(fn)] = (ref, next(_serial_numbers))
    return f"<callable {getattr(fn, '__qualname__', type(fn).__qualname__)} #{entry[1]}>"


def backend_fingerprint(cfg: BackendConfig) -> str:
    """Digest of what decides a backend's replies: kind, resolved endpoint,
    model, mock behavior and params. Response-cache keys include it.

    A callable in ``params`` counts by its qualified name and a number that
    no other callable of this process gets, so two handlers of one name never
    share replies. The numbers follow the order callables are first
    fingerprinted in, so a rerun of one script numbers them alike.
    """
    endpoint = _resolve_endpoint(cfg) if cfg.kind != "mock" else ""
    return text_digest(json.dumps(jsonable(
        [cfg.kind, endpoint, cfg.model_name, cfg.behavior, cfg.params], _callable_tag),
        sort_keys=True))


_SERVED = {"chat": "chat", "embed": "embeddings"}


def _call(cfg: BackendConfig, budget: Budget, job: str, attempt: Callable, mock: Callable,
          remote: Callable, refusal: str | None = None):
    """Make one budgeted call from start to end (see the module docstring).

    ``attempt(backend)`` tries ``mock`` or ``remote`` once and returns ``(reply,
    (prompt_tokens, completion_tokens))``. ``refusal`` is why a remote backend refuses.
    """
    budget.ensure_available()
    try:
        if cfg.kind == "mock":
            label, backend = f"mock {job} [{cfg.behavior}]", mock
        elif cfg.kind != f"remote_{job}":
            raise ValidationError(f"backend kind {cfg.kind!r} does not serve {_SERVED[job]}")
        elif refusal is not None:
            raise BackendError(refusal)
        else:  # read once per call, so that a bad endpoint or key is refused before any attempt
            wire = _resolve_endpoint(cfg), _auth_headers(cfg)
            label, backend = f"{job} {cfg.model_name}", partial(remote, wire=wire)
        runtime = cfg._runtime
        for attempts in range(1, cfg.max_attempts + 1):
            settled = False
            runtime.in_flight.get()  # a token, put back as soon as the attempt ends
            started, cpu_started = time.perf_counter(), time.thread_time()
            try:
                try:
                    reply, usage = attempt(backend)
                finally:
                    cpu = time.thread_time() - cpu_started
                    waited = time.perf_counter() - started - cpu > cpu
                    runtime.in_flight.put(None)
                budget.record(*usage)
                settled = True
            except TransientBackendError as exc:
                last = exc
            finally:
                with runtime.lock:
                    runtime.attempts += 1
                    runtime.tally += 1 if waited else -1
                    runtime.calls += settled
            if settled:
                return reply
            logger.warning("%s attempt %d/%d failed: %s", label, attempts, cfg.max_attempts, last)
            if attempts < cfg.max_attempts and cfg.backoff_base > 0:
                time.sleep(cfg.backoff_base * (2 ** (attempts - 1)))
        raise BackendError(f"{label} unreachable after {cfg.max_attempts} attempt(s): {last}")
    except BaseException:
        budget.release()
        raise


def chat(cfg: BackendConfig, req: ChatRequest, budget: Budget) -> ChatResponse:
    """Issue one chat call, retrying transient failures, charging the budget."""
    refusal = (None if req.soft_prompt is None
               else "soft-prompt injection is not supported by remote backends")
    return _call(cfg, budget, "chat", lambda backend: backend(cfg, req), _mock_chat, _remote_chat,
                 refusal)


def embed(cfg: BackendConfig, texts: Sequence[str], budget: Budget) -> list[np.ndarray]:
    """Embed a batch of texts; one vector per text, order preserved.

    The whole batch counts as a single budgeted call. A dimension mismatch
    within the batch is a hard error.
    """
    if not texts:
        raise ValidationError("embed called with an empty text list")

    def attempt(backend: Callable) -> tuple[list[np.ndarray], tuple[int, int]]:
        vectors, usage = backend(cfg, texts)
        if len(vectors) != len(texts):
            raise BackendError(f"backend returned {len(vectors)} vectors for {len(texts)} texts")
        dims = {v.size for v in vectors}
        if len(dims) > 1:
            raise BackendError(f"embedding dimension mismatch within batch: {sorted(dims)}")
        return vectors, usage

    return _call(cfg, budget, "embed", attempt, _mock_embed, _remote_embed)


def _chat_key(backend_id: str, req: ChatRequest) -> str:
    """The digest of ``json.dumps(["chat", backend_id, user_text, system_text,
    repr(temperature), max_tokens, soft prompt])``, the soft prompt as base64
    float64 or null."""
    soft = None if req.soft_prompt is None else encode_float64(req.soft_prompt)
    return text_digest(json.dumps(["chat", backend_id, req.user_text, req.system_text,
                                   repr(req.temperature), req.max_tokens, soft]))


def _embed_key(backend_id: str, text: str) -> str:
    """The digest of ``json.dumps(["embed", backend_id, text])``."""
    return text_digest(json.dumps(["embed", backend_id, text]))


def cached_chat(cfg: BackendConfig, req: ChatRequest, budget: Budget,
                backend_id: str | None = None) -> str:
    """The text of the reply to ``req``. At temperature 0 it is looked up in
    ``budget.replies`` first and kept there after, keyed by ``backend_id``,
    ``cfg``'s fingerprint (taken here when not given); a sampled request
    (temperature > 0) is always asked afresh."""
    if req.temperature > 0:
        return chat(cfg, req, budget).text
    key = _chat_key(backend_id or backend_fingerprint(cfg), req)
    text = budget.replies.get(key)
    if text is None:
        text = chat(cfg, req, budget).text
        budget.replies.put(key, text)
    return text


def cached_embed(cfg: BackendConfig, texts: Sequence[str], budget: Budget) -> list[np.ndarray]:
    """One vector per text, order preserved. Each distinct text is looked up
    in ``budget.replies`` under ``cfg``'s fingerprint; the rest, and any whose
    stored vector does not decode, are embedded as one :func:`embed` call and
    kept as base64 float64, so a vector comes back bit for bit."""
    backend_id, replies, vectors = backend_fingerprint(cfg), budget.replies, {}
    keys = {text: _embed_key(backend_id, text) for text in texts}
    for text, key in keys.items():
        stored = replies.get(key)
        if stored is not None:
            try:
                vector = decode_float64(stored)
            except ValueError:  # not base64, or not whole float64s
                continue
            if vector.size:
                vectors[text] = vector
    missing = [text for text in keys if text not in vectors]
    if missing:
        for text, vector in zip(missing, embed(cfg, missing, budget)):
            replies.put(keys[text], encode_float64(vector))
            vectors[text] = vector
    return [vectors[text] for text in texts]


# --- remote wire ----------------------------------------------------------


def _plain(text: str) -> bool:
    """Whether ``text`` is printable ASCII without spaces, as a request line
    and a header value must be (in a URL, any other character is to be
    percent-encoded)."""
    return text.isascii() and text.isprintable() and " " not in text


def _check_url(endpoint: str) -> str:
    """``endpoint``, if it is an http(s) URL with a host and, if it has one, a
    port from 1 to 65535, and is :func:`_plain`."""
    try:
        parts = urlsplit(endpoint)
        valid = (parts.scheme in ("http", "https") and bool(parts.hostname)
                 and parts.port != 0  # a port that is not a number in range raises ValueError
                 and _plain(endpoint))
    except ValueError:  # also an unclosed IPv6 bracket
        valid = False
    if not valid:
        raise ValidationError(f"endpoint must be an http(s) URL, got {endpoint!r}")
    return endpoint


def _resolve_endpoint(cfg: BackendConfig) -> str:
    return _check_url(os.environ.get(ENDPOINT_ENV, "").strip() or cfg.endpoint)


def _auth_headers(cfg: BackendConfig) -> dict[str, str]:
    headers = {"Content-Type": "application/json", "User-Agent": f"lpo/{__version__}"}
    key = os.environ.get(cfg.api_key_env, "").strip()
    if key:
        if not _plain(key):  # the message must not carry the key
            raise ValidationError(f"the API key in ${cfg.api_key_env} must be printable ASCII "
                                  "without spaces")
        headers["Authorization"] = f"Bearer {key}"
    return headers


def _post_json(cfg: BackendConfig, wire: tuple[str, dict[str, str]], payload: dict) -> dict:
    """POST ``payload`` to ``wire``'s endpoint with its headers (read once per
    call by ``_call``)."""
    import http.client, urllib.request  # here, so that only a remote call pays for them

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):  # so that every 3xx status is an HTTPError
            return None

    endpoint, headers = wire
    request = urllib.request.Request(endpoint, json.dumps(payload).encode(), headers)
    try:
        try:
            response = urllib.request.build_opener(NoRedirect).open(request, timeout=cfg.timeout)
        except urllib.request.HTTPError as exc:  # an error status; its body is read below
            response = exc
        with response:
            status, body = response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        raise TransientBackendError(f"connection failure: {exc}") from exc
    if status == 429 or status >= 500:
        raise TransientBackendError(f"HTTP {status}")
    if status >= 300:  # also a redirect, which is never followed
        raise BackendError(f"HTTP {status}: {body.decode('utf-8', 'replace')[:200]}")
    try:
        return json.loads(body)
    except ValueError as exc:
        raise BackendError(f"backend reply is not JSON: {exc}") from exc


def _remote_chat(cfg: BackendConfig, req: ChatRequest, *,
                 wire: tuple[str, dict[str, str]]) -> tuple[ChatResponse, tuple[int, int]]:
    messages = []
    if req.system_text:
        messages.append({"role": "system", "content": req.system_text})
    messages.append({"role": "user", "content": req.user_text})
    payload = {
        "model": cfg.model_name,
        "messages": messages,
        "temperature": req.temperature,
        "max_tokens": req.max_tokens,
    }
    body = _post_json(cfg, wire, payload)
    try:
        text = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise BackendError(f"malformed chat reply: missing choices/message ({exc!r})") from exc
    usage = _usage(body, "prompt_tokens"), _usage(body, "completion_tokens")
    return ChatResponse(str(text), *usage), usage


def _remote_embed(cfg: BackendConfig, texts: Sequence[str], *,
                  wire: tuple[str, dict[str, str]]) -> tuple[list[np.ndarray], tuple[int, int]]:
    payload = {"model": cfg.model_name, "input": list(texts)}
    body = _post_json(cfg, wire, payload)
    try:
        vectors = [as_vector(item["embedding"], name="embedding") for item in body["data"]]
    except (KeyError, TypeError, ValidationError) as exc:  # the backend's fault, not the caller's
        raise BackendError(f"malformed embeddings reply: {exc!r}") from exc
    return vectors, (_usage(body, "prompt_tokens"), 0)


def _usage(body: dict, name: str) -> int:
    """The reply's ``usage[name]`` token count: 0 if it or ``usage`` is missing
    or null, else a non-negative integer or the reply is a BackendError."""
    counts = body.get("usage")
    if counts is not None and not isinstance(counts, dict):
        raise BackendError(f"malformed reply: usage must be an object, got {counts!r:.80}")
    count = (counts or {}).get(name)
    if count is None:
        return 0
    if type(count) is not int or count < 0:  # also a bool, which is an int
        raise BackendError(f"malformed reply: usage.{name} must be a non-negative integer, "
                           f"got {count!r:.80}")
    return count


# --- mock dispatch --------------------------------------------------------


def _mock_behavior(table: dict, what: str, cfg: BackendConfig) -> Callable:
    try:
        return table[cfg.behavior]
    except KeyError:
        raise ValidationError(f"unknown mock {what} behavior {cfg.behavior!r}") from None


def _mock_chat(cfg: BackendConfig, req: ChatRequest) -> tuple[ChatResponse, tuple[int, int]]:
    reply = _mock_behavior(MOCK_CHAT_BEHAVIORS, "chat", cfg)(cfg, req)
    usage = mocks.usage(cfg, [req.user_text], reply)
    return ChatResponse(reply, *usage), usage


def _mock_embed(cfg: BackendConfig, texts: Sequence[str]) -> tuple[list[np.ndarray], tuple[int, int]]:
    vectors = _mock_behavior(MOCK_EMBED_BEHAVIORS, "embed", cfg)(cfg, texts)
    return [as_vector(v, name="mock embedding") for v in vectors], mocks.usage(cfg, texts)
