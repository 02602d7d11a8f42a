"""The names the benchmark's tracer (perfbench/tracer.py) patches, and the
record attributes its span info reads, must exist, and a traced run must
reach every one of them.

The tracer wraps functions and methods by name from outside the package and
reads fields of their arguments and results, so deleting or renaming one of
them would break ``perfbench/run.py --trace 1`` without failing any other
test.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import judgeval.cli  # noqa: F401  (imports every layer module, as the tracer does)
from conftest import build_toy_experiment
from judgeval.gateway import ChatRequest, ChatResponse, Gateway, MockBackend
from judgeval.judge import GRADE_NUDGE, JudgingTask, judge_pool, load_judge_template
from judgeval.summarizer import load_summary_template, summarize_corpus
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
    summaries = summarize_corpus(corpus, 80, gateway, "m", template=load_summary_template())
    docs, _equal, errors = info["summarizer.summarize_corpus"]((corpus,), {}, summaries)
    assert (docs, errors) == (2, 0)

    tasks = [JudgingTask(("t1", "d1"), "query", "alpha beta gamma delta")]
    result = judge_pool(tasks, gateway, "m", FULL_DOCUMENT, template=load_judge_template())
    assert info["judge.judge_pool"]((tasks,), {}, result) == [1, len(result.failures)]

    nudged = ChatRequest(model="m", user_text="grade it\n\n" + GRADE_NUDGE, max_output_tokens=8)
    flags = info["gateway.complete"]((gateway, nudged), {}, gateway.complete(nudged))
    assert flags == tracer.NUDGED
    assert info["gateway.cache_load"]((gateway.cache,), {}, None) == len(gateway.cache)


# The spans a traced toy run must record: every name the tracer patches, but
# - ``trec_io.grades_for_topic``: no code under src/ calls it, NDCG and AP
#   read ``JudgmentSet.by_topic``, so it reads 0 by design;
# - ``HttpBackend.send``: the toy experiment runs on the mock backend, whose
#   ``MockBackend.send`` records ``gateway.backend_send``;
# and the retry sleep ``gateway.backoff_sleep``, as the mock never throttles.
TRACED_SPANS = {
    "config.load_config",
    "trec_io.load_corpus",
    "trec_io.load_runs_dir",
    "trec_io.parse_qrels",
    "judge.load_topics",
    "judge.judge_pool",
    "summarizer.summarize_corpus",
    "agreement.agreement_report",
    "effectiveness.ndcg_at_k",
    "effectiveness.average_precision",
    "stability.stability_report",
    "stability.bootstrap_tau_ci",
    "stability.kendall_tau",
    "cost.tally_observed",
    "pipeline.sha256_file",
    "pipeline.run_pipeline",
    "gateway.cache_load",
    "gateway.cache_put",
    "gateway.digest",
    "gateway.complete",
    "gateway.backend_send",
}


def test_a_traced_run_reaches_every_layer(tmp_path):
    # A cold run, then a forced one that loads the cache the first wrote.
    # A function the package holds by reference where it was imported (in a
    # table built at import, say) escapes the tracer's patch, and its layer
    # would read 0 in the benchmark while every other test passes.
    tracer = _load_tracer()
    declared = {span for _m, _f, span in tracer.FUNCTIONS} | {
        span for _m, cls, _f, span in tracer.METHODS if cls != "HttpBackend"
    }
    assert declared - {"trec_io.grades_for_topic"} == TRACED_SPANS

    config = build_toy_experiment(tmp_path)
    code = (
        "import importlib.util, json, sys\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {str(TRACER_PATH)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "spans = tracer.Tracer()\n"
        "tracer.install(spans)\n"
        "import judgeval.cli\n"
        f"argv = ['run', '--config', {str(config)!r}]\n"
        "codes = [judgeval.cli.main(argv), judgeval.cli.main(argv + ['--force'])]\n"
        "print(json.dumps(sorted({span[1] for span in spans.spans})))\n"
        "sys.exit(max(codes))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert set(json.loads(done.stdout.splitlines()[-1])) == TRACED_SPANS
