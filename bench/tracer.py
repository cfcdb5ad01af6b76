"""Spans around lpo's public layer functions, recorded from outside ``src/``.

``Tracer.install`` replaces each layer's entry point with a wrapper that
records a span: name, start, end, the span open around it (its parent) and
whether it returned. Spans stay in memory; ``Tracer.restore`` puts the
original functions back. A span's self time is its duration minus the
durations of its children, so the self times of one traced run add up to
the run's wall time when lpo runs on one thread.

Stacks are per thread, so a span opened on another thread has no parent
there; self times then add up to more than the wall time.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict

from lpo import decoder, encoder, evaluator, explorer, gateway, optimizer

NAME, START, END, PARENT, OK, CHILD_S = range(6)

# the span a backend call is made under names its pipeline stage
STAGE_OF = {"encoder.encode": "embed", "decoder.decode": "decode",
            "decoder.refine_format": "refine", "evaluator.classify_one": "classify",
            "evaluator.extract_label": "extract"}
STAGES = ("embed", "decode", "refine", "classify", "extract")
GATEWAY = ("gateway.chat", "gateway.embed")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recording one span per call; hooks update ``self.counts``."""
        spans, counts, local, clock = self.spans, self.counts, self._local, time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None, False, 0.0]
            spans.append(span)
            stack.append(span)
            if before is not None:
                before(counts, args, kwargs)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                span[OK] = True
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, name, **hooks) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def _patch_item(self, table, key, name) -> None:
        original = table[key]
        self._patches.append((table, key, original))
        table[key] = self.wrap(name, original)

    def install(self) -> None:
        p = self._patch
        p(optimizer, "run_cycle", "optimizer.run_cycle", after=_score_requests)
        p(encoder, "encode", "encoder.encode", before=_encode_hits)
        p(explorer, "generate_candidates", "explorer.generate_candidates",
          after=lambda c, a, k, r: c.update({"explorer.candidates": len(r)}))
        p(decoder, "decode", "decoder.decode")
        p(decoder, "refine_format", "decoder.refine_format")
        p(decoder, "project", "projector.apply")
        p(evaluator, "evaluate", "evaluator.evaluate",
          after=lambda c, a, k, r: c.update({"evaluator.pairs": r.n_total}))
        p(evaluator, "classify_one", "evaluator.classify_one")
        p(evaluator, "extract_label", "evaluator.extract_label")
        cache = evaluator.ResponseCache
        p(cache, "__init__", "evaluator.cache_load")
        p(cache, "get", "evaluator.cache_get",
          after=lambda c, a, k, r: c.update({"evaluator.cache_hits": r is not None}))
        p(cache, "put", "evaluator.cache_put")
        p(gateway, "chat", "gateway.chat")
        p(gateway, "embed", "gateway.embed",
          after=lambda c, a, k, r: c.update({"encoder.texts_embedded": len(a[1])}))
        p(gateway.Budget, "ensure_available", "gateway.budget")
        p(gateway.Budget, "record", "gateway.budget")
        for table in (gateway.MOCK_CHAT_BEHAVIORS, gateway.MOCK_EMBED_BEHAVIORS):
            for key in list(table):
                self._patch_item(table, key, "gateway.backend")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent line (or -1), ok."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                parent = -1 if span[PARENT] is None else index[id(span[PARENT])]
                fh.write(json.dumps([span[NAME], span[START], span[END], parent,
                                     span[OK]]) + "\n")

    def layer_metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer self times, call counts by stage and ratios of one run."""
        self_s: dict[str, float] = defaultdict(float)
        n: Counter = Counter()
        for span in self.spans:
            if span[PARENT] is not None:
                span[PARENT][CHILD_S] += span[END] - span[START]
        calls: Counter = Counter()
        fallback_gets = 0
        events = []
        for span in self.spans:
            name = span[NAME]
            self_s[name] += span[END] - span[START] - span[CHILD_S]
            n[name] += 1
            if name in GATEWAY:
                events += [(span[START], 1), (span[END], -1)]
                if span[OK]:
                    calls[_stage(span)] += 1
            elif name == "decoder.refine_format" and span[OK]:
                n["decoder.valid"] += 1
            elif name == "evaluator.cache_get" and span[PARENT] is not None \
                    and span[PARENT][NAME] == "evaluator.extract_label":
                fallback_gets += 1
        depth = in_flight = 0
        for _, step in sorted(events):
            depth += step
            in_flight = max(in_flight, depth)
        c = self.counts
        s = self_s
        gateway_self = s["gateway.chat"] + s["gateway.embed"] + s["gateway.budget"]
        metrics = {f"gateway.calls.{stage}": calls[stage] for stage in STAGES}
        metrics.update({
            "gateway.self_s": gateway_self,
            "gateway.budget_s": s["gateway.budget"],
            "gateway.backend_s": s["gateway.backend"],
            "gateway.backend_share": s["gateway.backend"] / run_s,
            "gateway.in_flight_max": in_flight,
            "encoder.self_s": s["encoder.encode"],
            "encoder.texts_embedded": c["encoder.texts_embedded"],
            "encoder.cache_hit_share": _share(c["encoder.cache_hits"], c["encoder.templates"]),
            "explorer.self_s": s["explorer.generate_candidates"],
            "explorer.candidates": c["explorer.candidates"],
            "projector.apply_s": s["projector.apply"],
            "projector.apply_calls": n["projector.apply"],
            "decoder.decode_self_s": s["decoder.decode"],
            "decoder.refine_self_s": s["decoder.refine_format"],
            "decoder.valid_share": _share(n["decoder.valid"], n["decoder.decode"]),
            "evaluator.evaluate_self_s": s["evaluator.evaluate"],
            "evaluator.templates": n["evaluator.evaluate"],
            "evaluator.pairs": c["evaluator.pairs"],
            "evaluator.classify_self_s": s["evaluator.classify_one"],
            "evaluator.extract_self_s": s["evaluator.extract_label"],
            "evaluator.extract_fallback_share": _share(fallback_gets,
                                                       n["evaluator.extract_label"]),
            "evaluator.cache_load_s": s["evaluator.cache_load"],
            "evaluator.cache_get_s": s["evaluator.cache_get"],
            "evaluator.cache_put_s": s["evaluator.cache_put"],
            "evaluator.cache_hit_share": _share(c["evaluator.cache_hits"],
                                                n["evaluator.cache_get"]),
            "optimizer.self_s": s["optimizer.iterate"] + s["optimizer.run_cycle"],
            "optimizer.score_cache_hit_share": 1.0 - _share(n["evaluator.evaluate"],
                                                            c["optimizer.score_requests"]),
            "records.write_s": s["records.write"],
            "records.read_s": s["records.read"],
            "trace.unattributed_share": s["run"] / run_s,
        })
        return metrics

    def evaluate_ms(self) -> list[float]:
        return [1e3 * (span[END] - span[START]) for span in self.spans
                if span[NAME] == "evaluator.evaluate"]


def _stage(span) -> str:
    parent = span[PARENT]
    while parent is not None:
        if parent[NAME] in STAGE_OF:
            return STAGE_OF[parent[NAME]]
        parent = parent[PARENT]
    return "unattributed"


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _encode_hits(counts, args, kwargs) -> None:
    templates = args[1]
    cache = kwargs.get("cache")
    if cache is None and len(args) > 3:
        cache = args[3]
    counts["encoder.templates"] += len(templates)
    counts["encoder.cache_hits"] += sum(1 for t in templates if cache and t.text in cache)


def _score_requests(counts, args, kwargs, result) -> None:
    """Templates run_cycle asks to score: its seeds and its valid candidates."""
    cfg = args[1]
    seeds = len(args[0]) if cfg.keep_seeds else 0
    counts["optimizer.score_requests"] += seeds + sum(
        1 for c in result.candidates if c.refined_template is not None)
