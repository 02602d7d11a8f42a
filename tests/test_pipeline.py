"""Pipeline orchestration: stage outputs, resumability, determinism."""

from __future__ import annotations

import csv
import json
from dataclasses import replace

import pytest

from conftest import EMPTY_DOC, build_toy_experiment, bundle_digests
from judgeval import pipeline
from judgeval.config import load_config
from judgeval.errors import ConfigError
from judgeval.gateway import ResponseCache
from judgeval.pipeline import run_pipeline
from judgeval.trec_io import parse_qrels, summary_modality


def test_full_run_produces_all_stage_outputs(toy_experiment):
    config = load_config(toy_experiment)
    result = run_pipeline(config)
    assert len(result.stages_run()) == 10  # 2 summarize + 3 judge + 5 reports
    assert result.stages_skipped() == []
    out = result.output_dir
    for rel in (
        "summaries/summ80.jsonl",
        "summaries/summ120.jsonl",
        "judgments/mock-judge__full.qrels",
        "judgments/mock-judge__summ-80.qrels",
        "judgments/mock-judge__summ-120.qrels",
        "reports/label_distribution.csv",
        "reports/agreement.csv",
        "reports/effectiveness.csv",
        "reports/effectiveness_per_topic.csv",
        "reports/effectiveness_coverage.csv",
        "reports/scatter_ndcg10.csv",
        "reports/scatter_map.csv",
        "reports/stability.csv",
        "reports/cost.csv",
        "manifest.json",
        "cache.jsonl",
    ):
        assert (out / rel).exists(), rel


def test_one_judgment_set_per_model_modality(toy_experiment):
    config = load_config(toy_experiment)
    result = run_pipeline(config)
    qrels_files = sorted((result.output_dir / "judgments").glob("*.qrels"))
    assert len(qrels_files) == 3  # one model x three modalities
    budgets = set()
    for path in qrels_files:
        judgments = parse_qrels(path)
        assert judgments.source.model == "mock-judge"
        if judgments.modality.kind == "summary":
            budgets.add(judgments.modality.budget_tokens)
    assert budgets == {80, 120}


def test_manifest_lists_every_emitted_file_with_correct_digest(toy_experiment):
    config = load_config(toy_experiment)
    result = run_pipeline(config)
    out = result.output_dir
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = bundle_digests(out)
    on_disk.pop("manifest.json")  # the manifest cannot contain its own digest
    assert manifest["files"] == on_disk
    assert manifest["config_hash"] == config.config_hash()
    assert manifest["seed"] == 42
    assert len(manifest["prompts"]["summary_sha256"]) == 64


def test_rerun_skips_everything_with_zero_backend_calls(toy_experiment):
    config = load_config(toy_experiment)
    first = run_pipeline(config)
    assert first.backend_calls > 0
    second = run_pipeline(config)
    assert second.stages_run() == []
    assert len(second.stages_skipped()) == 10
    assert second.backend_calls == 0
    assert bundle_digests(first.output_dir) == bundle_digests(second.output_dir)


def test_forced_rerun_is_fully_cache_served(toy_experiment):
    config = load_config(toy_experiment)
    fresh = bundle_digests(run_pipeline(config).output_dir)
    forced = run_pipeline(config, force=True)
    assert len(forced.stages_run()) == 10
    assert forced.backend_calls == 0
    assert forced.cache_hits > 0
    assert bundle_digests(forced.output_dir) == fresh


def test_deleting_one_report_recomputes_only_that_stage(toy_experiment):
    config = load_config(toy_experiment)
    result = run_pipeline(config)
    (result.output_dir / "reports" / "stability.csv").unlink()
    again = run_pipeline(config)
    assert again.stages_run() == ["stability"]
    assert again.backend_calls == 0


def test_effectiveness_table_is_computed_only_when_a_stage_runs(toy_experiment, monkeypatch):
    config = load_config(toy_experiment)
    first = run_pipeline(config)
    sources = []
    original = pipeline.effectiveness_by_metric

    def counted(runs, judgments, **kwargs):
        sources.append(judgments.source.label())
        return original(runs, judgments, **kwargs)

    monkeypatch.setattr(pipeline, "effectiveness_by_metric", counted)
    assert run_pipeline(config).stages_run() == []
    assert sources == []

    stability = first.output_dir / "reports" / "stability.csv"
    expected = stability.read_bytes()
    stability.unlink()
    assert run_pipeline(config).stages_run() == ["stability"]
    assert sources == ["human"] + ["mock-judge"] * 3  # one table, four qrels sources
    assert stability.read_bytes() == expected


def test_warm_rerun_parses_only_what_a_running_stage_needs(toy_experiment, monkeypatch):
    config = load_config(toy_experiment)
    out = run_pipeline(config).output_dir
    parsed = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            parsed.append((name, str(args[0])))
            return fn(*args, **kwargs)

        return wrapper

    for name in ("load_corpus", "load_topics", "load_runs_dir", "parse_qrels"):
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    monkeypatch.setattr(ResponseCache, "_load", counted("cache", ResponseCache._load))
    assert run_pipeline(config).stages_run() == []
    assert parsed == []

    (out / "reports" / "agreement.csv").unlink()
    assert run_pipeline(config).stages_run() == ["agreement"]
    cells = [
        out / "judgments" / f"mock-judge__{slug}.qrels" for slug in ("full", "summ-80", "summ-120")
    ]
    assert sorted(parsed) == sorted(("parse_qrels", str(path)) for path in [config.qrels, *cells])


def test_renaming_dataset_reruns_the_reports_that_print_it(toy_experiment):
    config = load_config(toy_experiment)
    run_pipeline(config)
    again = run_pipeline(replace(config, dataset="renamed"))
    assert again.stages_run() == ["distribution", "agreement", "stability", "cost"]
    assert again.backend_calls == 0
    for name in ("label_distribution", "agreement", "stability", "cost"):
        with open(again.output_dir / "reports" / f"{name}.csv", newline="") as fh:
            assert {row["dataset"] for row in csv.DictReader(fh)} == {"renamed"}, name


def test_deleting_judgments_recomputes_judge_stage_only(toy_experiment):
    config = load_config(toy_experiment)
    result = run_pipeline(config)
    fresh = bundle_digests(result.output_dir)
    (result.output_dir / "judgments" / "mock-judge__summ-80.qrels").unlink()
    again = run_pipeline(config)
    assert again.stages_run() == ["judge:mock-judge:summ:80"]
    assert again.backend_calls == 0  # cached responses cover the recompute
    assert bundle_digests(again.output_dir) == fresh


def test_changing_metric_knob_recomputes_downstream_only(toy_experiment):
    config = load_config(toy_experiment)
    run_pipeline(config)
    changed = replace(config, rbo_p=0.8)
    again = run_pipeline(changed)
    assert again.stages_run() == ["stability"]
    manifest = json.loads((again.output_dir / "manifest.json").read_text())
    assert manifest["config_hash"] == changed.config_hash() != config.config_hash()


def test_two_fresh_runs_are_byte_identical(toy_experiment):
    config = load_config(toy_experiment)
    out_a = run_pipeline(replace(config, output_dir=config.output_dir.parent / "out_a"))
    out_b = run_pipeline(replace(config, output_dir=config.output_dir.parent / "out_b"))
    assert bundle_digests(out_a.output_dir) == bundle_digests(out_b.output_dir)


@pytest.mark.parametrize(
    "cache_line", ["", "cache = shared/cache.jsonl\n"], ids=["cache-inside", "cache-outside"]
)
def test_a_copied_experiment_gives_a_byte_identical_bundle(tmp_path, cache_line):
    # inputs, prices, outputs and an outside cache all live somewhere else;
    # only their contents may reach the bundle, manifest.json included
    bundles = []
    for name in ("a", "copy"):
        config_path = build_toy_experiment(tmp_path / name)
        text = config_path.read_text().replace("backend = mock\n", "backend = mock\n" + cache_line)
        config_path.write_text(text)
        bundles.append(run_pipeline(load_config(config_path)).output_dir)
    assert bundle_digests(bundles[0]) == bundle_digests(bundles[1])


def test_run_resumes_after_a_cache_append_cut_short(toy_experiment, capsys):
    config = load_config(toy_experiment)
    reference = run_pipeline(replace(config, output_dir=config.output_dir.parent / "ref"))
    out = run_pipeline(config).output_dir

    # A kill during the last append leaves half a record, no outputs for the
    # stage that was writing it and no reports.
    cache = out / "cache.jsonl"
    data = cache.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    torn_hash = json.loads(data[start:])["hash"]
    cache.write_bytes(data[: start + (len(data) - start) // 2])
    stages = [
        usage
        for usage in sorted(out.rglob("*.usage.json"))
        if torn_hash in json.loads(usage.read_text())["request_hashes"]
    ]
    assert stages
    for usage in stages:
        stem = usage.name[: -len(".usage.json")]
        for path in usage.parent.glob(stem + ".*"):
            path.unlink()
    for path in (out / "reports").iterdir():
        path.unlink()
    capsys.readouterr()

    again = run_pipeline(config)
    assert "unterminated" in capsys.readouterr().err
    assert again.backend_calls == 1
    assert bundle_digests(out) == bundle_digests(reference.output_dir)


def test_distribution_rows_sum_to_about_hundred(toy_experiment):
    config = load_config(toy_experiment)
    result = run_pipeline(config)
    with open(result.output_dir / "reports" / "label_distribution.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # human + three cells
    for row in rows:
        total = sum(float(row[f"grade_{g}"]) for g in range(4))
        assert total == pytest.approx(100.0, abs=0.1)


def test_error_ledgers_track_pairs_without_evidence(tmp_path):
    config_path = build_toy_experiment(tmp_path)
    # drop one judged doc from the corpus so its pairs cannot be judged
    corpus_path = tmp_path / "corpus.jsonl"
    lines = corpus_path.read_text().splitlines()
    kept = [line for line in lines if '"d01"' not in line]
    assert len(kept) == len(lines) - 1
    corpus_path.write_text("".join(line + "\n" for line in kept))
    config = load_config(config_path)
    result = run_pipeline(config)
    ledger = json.loads(
        (result.output_dir / "judgments" / "mock-judge__full.errors.json").read_text()
    )
    human = parse_qrels(config.qrels)
    expected_missing = sum(1 for (_t, d) in human.grades if d == "d01")
    assert len(ledger["skipped_pairs"]) == expected_missing
    assert all(e["doc_id"] == "d01" for e in ledger["skipped_pairs"])
    judged = parse_qrels(result.output_dir / "judgments" / "mock-judge__full.qrels")
    assert len(judged) + expected_missing == len(human)


def test_cost_rows_equal_gateway_recorded_totals(toy_experiment):
    # Two documents judged for one topic share their text, so both the
    # summarize and the judge stages send a request twice; each counts once.
    config = load_config(toy_experiment)
    human = parse_qrels(config.qrels)
    topic = sorted(human.grades)[0][0]
    first, second = [d for t, d in sorted(human.grades) if t == topic and d != EMPTY_DOC][:2]
    docs = [json.loads(line) for line in config.corpus.read_text().splitlines()]
    text = next(doc["text"] for doc in docs if doc["docid"] == first)
    for doc in docs:
        if doc["docid"] == second:
            doc["text"] = text
    config.corpus.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    result = run_pipeline(config)
    out = result.output_dir
    with open(out / "reports" / "cost.csv", newline="") as fh:
        rows = {(r["stage"], r["modality"]): r for r in csv.DictReader(fh)}
    for budget in (80, 120):
        usage = json.loads((out / "summaries" / f"summ{budget}.usage.json").read_text())
        row = rows[("summarization", f"summ:{budget}")]
        assert float(row["input_tokens_millions"]) == pytest.approx(
            usage["input_tokens"] / 1e6, abs=1e-9
        )
    for modality, slug in (("full", "full"), ("summ:80", "summ-80"), ("summ:120", "summ-120")):
        usage = json.loads(
            (out / "judgments" / f"mock-judge__{slug}.usage.json").read_text()
        )
        row = rows[("judgment", modality)]
        assert float(row["input_tokens_millions"]) == pytest.approx(
            usage["input_tokens"] / 1e6, abs=1e-9
        )


def test_run_pool_judges_retrieved_documents(tmp_path):
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text().replace(
        "[experiment]", "[experiment]\npool = runs\npool_depth = 5"
    )
    config_path.write_text(text)
    config = load_config(config_path)
    assert config.pool == "runs"
    result = run_pipeline(config)
    judged = parse_qrels(result.output_dir / "judgments" / "mock-judge__full.qrels")
    from judgeval.trec_io import load_runs_dir

    expected_pairs = {
        (topic_id, doc_id)
        for run in load_runs_dir(config.runs_dir)
        for topic_id, ranking in run.topics.items()
        for doc_id in ranking[:5]
    }
    assert set(judged.grades) == expected_pairs


def test_seed_override_changes_outputs(tmp_path):
    config_path = build_toy_experiment(tmp_path)
    config = load_config(config_path)
    base = run_pipeline(config)
    other = run_pipeline(
        replace(config, seed=43, output_dir=config.output_dir.parent / "out43")
    )
    manifest = json.loads((other.output_dir / "manifest.json").read_text())
    assert manifest["seed"] == 43
    base_qrels = (base.output_dir / "judgments" / "mock-judge__full.qrels").read_text()
    other_qrels = (other.output_dir / "judgments" / "mock-judge__full.qrels").read_text()
    assert base_qrels != other_qrels  # mock grades depend on the seed


def test_missing_input_path_is_config_error(toy_experiment, tmp_path):
    config = load_config(toy_experiment)
    broken = replace(config, corpus=tmp_path / "missing.jsonl")
    with pytest.raises(ConfigError):
        run_pipeline(broken)


def test_judgment_sidecars_round_trip_modality(toy_experiment):
    config = load_config(toy_experiment)
    result = run_pipeline(config)
    judged = parse_qrels(
        result.output_dir / "judgments" / "mock-judge__summ-120.qrels"
    )
    assert judged.modality == summary_modality(120)
    assert judged.prompt_sha256 is not None
