"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import stub_server

HERE = Path(__file__).resolve().parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_generator_is_deterministic_per_seed(tmp_path):
    gen.generate(tmp_path / "a", gen.TINY, 7)
    gen.generate(tmp_path / "b", gen.TINY, 7)
    gen.generate(tmp_path / "c", gen.TINY, 8)
    a, b, c = _files(tmp_path / "a"), _files(tmp_path / "b"), _files(tmp_path / "c")
    assert a == b
    assert a["corpus.jsonl"] != c["corpus.jsonl"]
    assert len(a["qrels.txt"].splitlines()) == gen.TINY.topics * gen.TINY.pairs_per_topic


def test_generator_keeps_the_length_mix_across_seeds(tmp_path):
    def lengths(seed):
        gen.generate(tmp_path / str(seed), gen.TINY, seed)
        lines = (tmp_path / str(seed) / "corpus.jsonl").read_text().splitlines()
        return sorted(len(json.loads(line)["text"].split()) for line in lines)

    assert lengths(1) == lengths(2)


def test_http_config_points_at_the_endpoint(tmp_path):
    config = gen.generate(tmp_path, gen.HTTP_SWEEP, 3, endpoint="http://127.0.0.1:1/x")
    text = config.read_text()
    assert "backend = http" in text and "endpoint = http://127.0.0.1:1/x" in text
    assert "backend = mock" in gen.write_config(tmp_path, gen.HTTP_SWEEP, 3).read_text()


def _body(user: str, max_tokens: int = 64) -> dict:
    return {"model": "m1", "messages": [{"role": "user", "content": user}],
            "temperature": 0.0, "max_tokens": max_tokens}


def test_stub_grades_judge_prompts_from_the_request_hash():
    body = _body("Query: q one\nPassage: some passage text")
    digest = stub_server.request_hash(body)
    assert digest == stub_server.request_hash(json.loads(json.dumps(body)))
    text = stub_server.reply_text(body, digest)
    assert text == str(int(digest[:2], 16) % 4)


def test_stub_summaries_are_prefixes_within_budget():
    doc = " ".join(f"w{i}" for i in range(100))
    body = _body(f"Give me a summary at maximum about 20 tokens.\nDocument: {doc}", 40)
    reply = stub_server.completion(body, stub_server.request_hash(body))
    text = reply["choices"][0]["message"]["content"]
    assert doc.startswith(text)
    assert stub_server.count_tokens(text) <= 20
    assert len(text.split()) == 15
    assert reply["usage"]["completion_tokens"] == stub_server.count_tokens(text)
    assert reply["usage"]["prompt_tokens"] == stub_server.count_tokens(body["messages"][0]["content"])
    empty = _body("about 20 tokens.\nDocument:   ")
    assert stub_server.reply_text(empty, "00") == "NO_CONTENT"


def test_stub_refuses_only_first_attempts_of_a_capped_hash_set():
    policy = stub_server.FailurePolicy(mod=16, limit=2)
    chosen = ["00000010", "00000020", "00000030"]  # divisible by 16
    assert policy.should_fail(chosen[0]) and not policy.should_fail(chosen[0])
    assert policy.should_fail(chosen[1])
    assert not policy.should_fail(chosen[2])  # the cap is reached
    assert not stub_server.FailurePolicy(mod=16, limit=9).should_fail("00000011")


def test_metric_names_and_units_follow_the_grammar():
    names = [n for n, _, _ in run.END_TO_END] + [n for n, *_ in run.PER_LAYER]
    names += list(run.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for _, unit, better, *_ in run.END_TO_END + run.PER_LAYER:
        assert UNIT_RE.match(unit) and better in ("higher", "lower")


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, u, b) for n, u, b, _ in run.PER_LAYER
    ]
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def test_tracer_computes_every_layer_metric():
    import tracer

    spans = [
        (1, "pipeline.run_pipeline", 0.0, 10.0, 0, None),
        (2, "gateway.complete", 1.0, 3.0, 1, tracer.CACHED),
        (3, "gateway.digest", 1.0, 1.5, 2, None),
        (4, "gateway.backend_send", 4.0, 6.0, 1, None),
        (5, "gateway.backend_send", 5.0, 7.0, 1, None),
        (6, "gateway.backoff_sleep", 7.0, 8.0, 1, None),
    ]
    metrics = tracer.layer_metrics(spans)
    assert set(metrics) == {n for n, *_ in run.PER_LAYER} - {"trace.overhead_s"}
    assert metrics["gateway.complete_self_s"] == pytest.approx(1.5)
    assert metrics["pipeline.run_self_s"] == pytest.approx(10.0 - 2.0 - 2.0 - 2.0 - 1.0)
    assert metrics["gateway.inflight_max"] == 2
    assert metrics["gateway.hit_ratio"] == 1.0
    assert metrics["gateway.retries"] == 1
    assert metrics["gateway.request_p50_ms"] == pytest.approx(2000.0)


def test_ledger_check_rejects_a_cell_that_loses_pairs(tmp_path):
    judgments = tmp_path / "judgments"
    judgments.mkdir()
    (judgments / "m1__full.qrels").write_text("t1 0 d1 2\nt1 0 d2 0\n")
    (judgments / "m1__full.errors.json").write_text(
        json.dumps({"failed_tasks": [], "skipped_pairs": []}))
    assert run.check_bundle(tmp_path, pool=2, docs=0) == (2, 0)
    with pytest.raises(run.CheckFailed):
        run.check_bundle(tmp_path, pool=3, docs=0)


def test_reports_digest_ignores_stamped_files(tmp_path):
    (tmp_path / "reports").mkdir()
    (tmp_path / "reports" / "a.csv").write_text("x\n")
    (tmp_path / "cache.jsonl").write_text('{"ts": 1}\n')
    first = run.bundle_digest(tmp_path, reports_only=True)
    full = run.bundle_digest(tmp_path)
    (tmp_path / "cache.jsonl").write_text('{"ts": 2}\n')
    assert run.bundle_digest(tmp_path, reports_only=True) == first
    assert run.bundle_digest(tmp_path) != full


@pytest.mark.parametrize(
    "mode,trace", [("cold", False), ("warm", False), ("cold", True), ("http", True)]
)
def test_smoke_run_on_a_tiny_workload(tmp_path, mode, trace):
    spec = gen.TINY if mode != "http" else gen.HTTP_SWEEP
    w = run.Workload(f"tiny-{mode}", mode, spec, "smoke", latency_ms=1.0)
    result = run.run_workload(w, 5, 0.1, trace, tmp_path)
    assert result.correct, result.problems
    metrics = run.report(w, 5, trace, result)
    if not trace:
        assert [m for m, *_ in run.END_TO_END] == list(metrics)
        assert all(v["value"] > 0 for v in metrics.values())
        return
    assert list(metrics) == [n for n, *_ in run.PER_LAYER]
    values = {name: m["value"] for name, m in metrics.items()}
    # Each of these is reached through a different kind of lookup.
    for name in ("effectiveness.calls", "trec_io.grades_for_topic_calls",
                 "stability.kendall_tau_calls", "pipeline.sha256_file_calls",
                 "gateway.digest_calls", "judge.tasks", "config.load_config_s"):
        assert values[name] > 0, name
    if mode == "http":
        assert values["gateway.retries"] == stub_server.MAX_FAILURES


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dl19-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
