"""The names the benchmark's tracer (perfbench/tracer.py) patches, and the
record attributes its span info reads, must exist.

The tracer wraps functions and methods by name from outside the package and
reads fields of their arguments and results, so deleting or renaming one of
them would break ``perfbench/run.py --trace 1`` without failing any other
test.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

import judgeval.cli  # noqa: F401  (imports every layer module, as the tracer does)
from judgeval.gateway import ChatRequest, ChatResponse, Gateway, MockBackend
from judgeval.judge import GRADE_NUDGE, JudgingTask, Topic, judge_pool
from judgeval.summarizer import summarize_corpus
from judgeval.trec_io import FULL_DOCUMENT, CorpusEntry, DocCorpus

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_and_method_resolves():
    tracer = _load_tracer()
    for module_name, func_name, _span in tracer.FUNCTIONS:
        assert callable(getattr(sys.modules[module_name], func_name, None)), (
            f"{module_name}.{func_name}"
        )
    for module_name, class_name, method, _span in tracer.METHODS:
        cls = getattr(sys.modules[module_name], class_name, None)
        assert cls is not None, f"{module_name}.{class_name}"
        assert callable(getattr(cls, method, None)), f"{class_name}.{method}"


def test_gateway_exposes_what_the_tracer_reads(tmp_path):
    # the tracer wraps a fresh gateway's backoff sleep and reads the
    # ``cached`` flag of every response
    gateway = Gateway(MockBackend(seed=0), tmp_path / "cache.jsonl")
    assert callable(gateway._sleep)
    assert "cached" in {f.name for f in fields(ChatResponse)}


def test_records_expose_what_the_tracer_reads(tmp_path):
    # span info reads corpus and summary texts, a summary set's records and
    # errors, a judge pool's judgments and failures, each request's user
    # text and the response cache's size
    tracer = _load_tracer()
    info = tracer.INFO
    gateway = Gateway(MockBackend(seed=0), tmp_path / "cache.jsonl")

    corpus = DocCorpus({"d1": CorpusEntry("alpha beta gamma delta"), "d2": CorpusEntry("")})
    summaries = summarize_corpus(corpus, 80, gateway, "m")
    docs, _equal, errors = info["summarizer.summarize_corpus"]((corpus,), {}, summaries)
    assert (docs, errors) == (2, 0)

    tasks = [JudgingTask(Topic("t1", "query"), "d1", "alpha beta gamma delta")]
    result = judge_pool(tasks, gateway, "m", FULL_DOCUMENT)
    assert info["judge.judge_pool"]((tasks,), {}, result) == [1, len(result.failures)]

    nudged = ChatRequest(model="m", user_text="grade it\n\n" + GRADE_NUDGE, max_output_tokens=8)
    flags = info["gateway.complete"]((gateway, nudged), {}, gateway.complete(nudged))
    assert flags == tracer.NUDGED
    assert info["gateway.cache_load"]((gateway.cache,), {}, None) == len(gateway.cache)
