"""Outside-in tracing of judgeval's layers.

``install`` wraps the public functions of each package module, and a few
methods, from outside the package: nothing under ``src/`` changes. A
module-level function is replaced in every ``judgeval`` module that binds
it by name, so it is patched where it is looked up, whether a caller
imported it by name (``judgeval.pipeline.ndcg_at_k``) or resolves it from
its own module's globals (``judgeval.stability.kendall_tau``). Methods are
patched on their class.

Each call becomes one span ``(id, name, start, end, parent, info)`` kept
in memory; ``info`` carries a per-span count where one is needed.
``layer_metrics`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable

# (defining module, function name, span name)
FUNCTIONS = [
    ("judgeval.config", "load_config", "config.load_config"),
    ("judgeval.trec_io", "load_corpus", "trec_io.load_corpus"),
    ("judgeval.trec_io", "load_runs_dir", "trec_io.load_runs_dir"),
    ("judgeval.trec_io", "parse_qrels", "trec_io.parse_qrels"),
    ("judgeval.judge", "load_topics", "judge.load_topics"),
    ("judgeval.judge", "judge_pool", "judge.judge_pool"),
    ("judgeval.summarizer", "summarize_corpus", "summarizer.summarize_corpus"),
    ("judgeval.agreement", "agreement_report", "agreement.agreement_report"),
    ("judgeval.effectiveness", "ndcg_at_k", "effectiveness.ndcg_at_k"),
    ("judgeval.effectiveness", "average_precision", "effectiveness.average_precision"),
    ("judgeval.stability", "stability_report", "stability.stability_report"),
    ("judgeval.stability", "bootstrap_tau_ci", "stability.bootstrap_tau_ci"),
    ("judgeval.stability", "kendall_tau", "stability.kendall_tau"),
    ("judgeval.cost", "tally_observed", "cost.tally_observed"),
    ("judgeval.pipeline", "sha256_file", "pipeline.sha256_file"),
    ("judgeval.pipeline", "run_pipeline", "pipeline.run_pipeline"),
]

# (module, class name, method name, span name)
METHODS = [
    ("judgeval.trec_io", "JudgmentSet", "grades_for_topic", "trec_io.grades_for_topic"),
    ("judgeval.gateway", "ResponseCache", "_load", "gateway.cache_load"),
    ("judgeval.gateway", "ResponseCache", "put", "gateway.cache_put"),
    ("judgeval.gateway", "ChatRequest", "digest", "gateway.digest"),
    ("judgeval.gateway", "Gateway", "complete", "gateway.complete"),
    ("judgeval.gateway", "MockBackend", "send", "gateway.backend_send"),
    ("judgeval.gateway", "HttpBackend", "send", "gateway.backend_send"),
]

CACHED, NUDGED = 1, 2


def _complete_info(args, _kwargs, result) -> int:
    from judgeval.judge import GRADE_NUDGE

    flags = CACHED if result.cached else 0
    if args[1].user_text.endswith(GRADE_NUDGE):
        flags |= NUDGED
    return flags


def _summaries_info(args, kwargs, result) -> list[int]:
    corpus = args[0] if args else kwargs["corpus"]
    equal = sum(
        1
        for doc_id, record in result.records.items()
        if record.text == corpus.entries[doc_id].text
    )
    return [len(corpus.entries), equal, len(result.errors)]


INFO: dict[str, Callable] = {
    "gateway.complete": _complete_info,
    "gateway.cache_load": lambda args, _kw, _r: len(args[0]),
    "summarizer.summarize_corpus": _summaries_info,
    "judge.judge_pool": lambda _a, _kw, r: [len(r.judgments) + len(r.failures), len(r.failures)],
    "pipeline.sha256_file": lambda args, _kw, _r: os.path.getsize(args[0]),
}


class Tracer:
    """Records one span per wrapped call; spans stay in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, type(exc).__name__))
                raise
            end = clock()
            stack.pop()
            extra = info(args, kwargs, result) if info is not None else None
            spans.append((span_id, name, start, end, parent, extra))
            return result

        return traced

    def dump(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Patch every layer of the judgeval package for the rest of the process."""
    import judgeval.cli  # noqa: F401  (imports every layer module)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "judgeval"]
    for module_name, func_name, span in FUNCTIONS:
        original = getattr(sys.modules[module_name], func_name)
        wrapped = tracer.wrap(span, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    for module_name, class_name, method, span in METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        setattr(cls, method, tracer.wrap(span, getattr(cls, method)))

    gateway_cls = sys.modules["judgeval.gateway"].Gateway
    original_init = gateway_cls.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        # The retry backoff sleeps through this attribute (time.sleep by default).
        self._sleep = tracer.wrap("gateway.backoff_sleep", self._sleep)

    gateway_cls.__init__ = init


# --- per-layer metrics ----------------------------------------------------


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _max_overlap(intervals: list[tuple[float, float]]) -> int:
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    level = peak = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer counts and busy times (seconds) from a list of spans."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time: dict[int, float] = {}
    for span_id, name, start, end, parent, _info in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def self_time(name: str) -> float:
        return sum(
            ((end - start) - child_time.get(span_id, 0.0)
             for span_id, n, start, end, _p, _i in spans
             if n == name),
            0.0,
        )

    def infos(name: str) -> list:
        return [info for _id, n, _s, _e, _p, info in spans if n == name]

    completes = infos("gateway.complete")
    hits = sum(1 for flags in completes if isinstance(flags, int) and flags & CACHED)
    sends = [(s, e) for _id, n, s, e, _p, _i in spans if n == "gateway.backend_send"]
    send_ms = sorted((e - s) * 1000.0 for s, e in sends)
    summaries = [i for i in infos("summarizer.summarize_corpus") if isinstance(i, list)]
    pools = [i for i in infos("judge.judge_pool") if isinstance(i, list)]
    loads = [i for i in infos("gateway.cache_load") if isinstance(i, int)]
    hashed = [i for i in infos("pipeline.sha256_file") if isinstance(i, int)]

    return {
        "cli.main_s": total.get("cli.main", 0.0),
        "config.load_config_s": total.get("config.load_config", 0.0),
        "trec_io.load_corpus_s": total.get("trec_io.load_corpus", 0.0),
        "trec_io.load_runs_dir_s": total.get("trec_io.load_runs_dir", 0.0),
        "trec_io.parse_qrels_s": total.get("trec_io.parse_qrels", 0.0),
        "trec_io.grades_for_topic_calls": calls.get("trec_io.grades_for_topic", 0),
        "trec_io.grades_for_topic_s": total.get("trec_io.grades_for_topic", 0.0),
        "gateway.cache_load_s": total.get("gateway.cache_load", 0.0),
        "gateway.cache_entries": sum(loads),
        "gateway.cache_put_calls": calls.get("gateway.cache_put", 0),
        "gateway.cache_put_s": total.get("gateway.cache_put", 0.0),
        "gateway.digest_calls": calls.get("gateway.digest", 0),
        "gateway.digest_s": total.get("gateway.digest", 0.0),
        "gateway.complete_calls": len(completes),
        "gateway.complete_self_s": self_time("gateway.complete"),
        "gateway.cache_hits": hits,
        "gateway.hit_ratio": hits / len(completes) if completes else 0.0,
        "gateway.backend_calls": len(sends),
        "gateway.backend_send_s": total.get("gateway.backend_send", 0.0),
        "gateway.inflight_max": _max_overlap(sends),
        "gateway.request_p50_ms": _percentile(send_ms, 50),
        "gateway.request_p99_ms": _percentile(send_ms, 99),
        "gateway.retries": calls.get("gateway.backoff_sleep", 0),
        "gateway.backoff_sleep_s": total.get("gateway.backoff_sleep", 0.0),
        "summarizer.summarize_corpus_s": total.get("summarizer.summarize_corpus", 0.0),
        "summarizer.docs": sum(i[0] for i in summaries),
        "summarizer.summary_equals_source": sum(i[1] for i in summaries),
        "judge.judge_pool_s": total.get("judge.judge_pool", 0.0),
        "judge.tasks": sum(i[0] for i in pools),
        "judge.nudged_requests": sum(
            1 for flags in completes if isinstance(flags, int) and flags & NUDGED
        ),
        "judge.failed_tasks": sum(i[1] for i in pools),
        "agreement.agreement_report_s": total.get("agreement.agreement_report", 0.0),
        "effectiveness.ndcg_at_k_s": total.get("effectiveness.ndcg_at_k", 0.0),
        "effectiveness.average_precision_s": total.get("effectiveness.average_precision", 0.0),
        "effectiveness.calls": calls.get("effectiveness.ndcg_at_k", 0)
        + calls.get("effectiveness.average_precision", 0),
        "stability.stability_report_s": total.get("stability.stability_report", 0.0),
        "stability.bootstrap_tau_ci_s": total.get("stability.bootstrap_tau_ci", 0.0),
        "stability.kendall_tau_calls": calls.get("stability.kendall_tau", 0),
        "stability.kendall_tau_s": total.get("stability.kendall_tau", 0.0),
        "cost.tally_observed_s": total.get("cost.tally_observed", 0.0),
        "pipeline.sha256_file_calls": calls.get("pipeline.sha256_file", 0),
        "pipeline.sha256_bytes": sum(hashed),
        "pipeline.sha256_file_s": total.get("pipeline.sha256_file", 0.0),
        "pipeline.run_self_s": self_time("pipeline.run_pipeline"),
    }
