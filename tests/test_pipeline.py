"""Pipeline orchestration: stage outputs, resumability, determinism."""

from __future__ import annotations

import csv
import gc
import json
import re
import shutil
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import EMPTY_DOC, build_toy_experiment, build_two_model_experiment, bundle_digests
from judgeval import pipeline, trec_io
from judgeval.cli import main
from judgeval.config import load_config
from judgeval.errors import ConfigError, JudgevalError, ProtocolError
from judgeval.gateway import ChatRequest, Gateway, MockBackend, ResponseCache
from judgeval.pipeline import StageError, run_pipeline, sha256_file
from judgeval.trec_io import Modality, parse_qrels


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


@pytest.mark.parametrize("model", ["mock-judge", "m.1"])
def test_bundle_layout_of_the_stage_files(tmp_path, model):
    # a dot in the model name stays in every file name of its cells
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text().replace("models = mock-judge\n", f"models = {model}\n")
    config_path.write_text(text)
    prices = json.loads((tmp_path / "prices.json").read_text())
    (tmp_path / "prices.json").write_text(json.dumps({model: prices["mock-judge"]}))
    out = run_pipeline(load_config(config_path)).output_dir
    exts = (".qrels", ".qrels.meta.json", ".errors.json", ".usage.json")
    cells = {f"judgments/{model}__{m}{ext}" for m in ("full", "summ-80", "summ-120") for ext in exts}
    exts = (".jsonl", ".errors.json", ".usage.json")
    summaries = {f"summaries/summ{b}{ext}" for b in (80, 120) for ext in exts}
    written = {str(p.relative_to(out)) for d in ("judgments", "summaries") for p in (out / d).iterdir()}
    assert written == cells | summaries


def test_a_run_closes_the_cache_file_it_opened(toy_experiment):
    gc.collect()  # what earlier tests left open warns now, not below
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_pipeline(load_config(toy_experiment))
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_one_judgment_set_per_model_modality(toy_experiment):
    config = load_config(toy_experiment)
    result = run_pipeline(config)
    qrels_files = sorted((result.output_dir / "judgments").glob("*.qrels"))
    assert len(qrels_files) == 3  # one model x three modalities
    budgets = set()
    for path in qrels_files:
        judgments = parse_qrels(path)
        assert judgments.model == "mock-judge"
        if judgments.modality.kind == "summary":
            budgets.add(judgments.modality.budget_tokens)
    assert budgets == {80, 120}


@pytest.mark.parametrize("shape", ["cold", "warm", "force", "reports-deleted"])
def test_manifest_lists_every_emitted_file_with_correct_digest(toy_experiment, monkeypatch, shape):
    config = load_config(toy_experiment)
    if shape != "cold":
        out = run_pipeline(config).output_dir
        if shape == "reports-deleted":
            shutil.rmtree(out / "reports")
        if shape == "warm":  # with the files map of earlier versions, which the run drops
            manifest = json.loads((out / "manifest.json").read_text())
            manifest["files"] = bundle_digests(out)
            (out / "manifest.json").write_text(json.dumps(manifest))
    hashed = []
    original = pipeline.sha256_file
    monkeypatch.setattr(pipeline, "sha256_file", lambda p: hashed.append(p.name) or original(p))
    result = run_pipeline(config, force=shape == "force")
    assert (result.stages_run() == []) == (shape == "warm")
    out = result.output_dir
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = bundle_digests(out)
    # the manifest cannot contain its own digest, and no stage writes the cache
    for rel in ("manifest.json", "cache.jsonl"):
        on_disk.pop(rel)
    listed = [item for record in manifest["stages"].values() for item in record["outputs"].items()]
    assert sorted(listed) == sorted(on_disk.items())  # each file in exactly one record
    assert "files" not in manifest
    assert hashed.count("cache.jsonl") == 0
    assert manifest["config_hash"] == config.config_hash()
    assert manifest["seed"] == 42
    assert len(manifest["prompts"]["summary_sha256"]) == 64


@pytest.mark.parametrize("models, failing_call", [(["mock-judge"], 2), (["mock-judge", "m2"], 1)],
                         ids=["cold", "resumed"])
def test_a_failed_run_lists_only_true_digests(toy_experiment, monkeypatch, models, failing_call):
    # the failing judge stage appends its replies to the cache before it fails
    config = load_config(toy_experiment)
    if failing_call == 1:  # a complete bundle first, then one more model
        run_pipeline(config)
    calls = []
    original = pipeline.judge_pool

    def failing(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        if len(calls) == failing_call:
            raise JudgevalError("judge failed after caching its replies")
        return result

    monkeypatch.setattr(pipeline, "judge_pool", failing)
    with pytest.raises(StageError):
        run_pipeline(replace(config, models=models))
    out = config.output_dir
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    listed = {
        rel: digest for record in stages.values() for rel, digest in record["outputs"].items()
    }
    assert listed
    assert listed == {rel: digest for rel, digest in bundle_digests(out).items() if rel in listed}


def test_a_one_run_experiment_leaves_stability_undefined(toy_experiment, tmp_path, capsys):
    for run in sorted((tmp_path / "runs").iterdir())[1:]:
        run.unlink()
    assert main(["run", "--config", str(toy_experiment)]) == 0
    reports = tmp_path / "out" / "reports"
    assert (reports / "cost.csv").exists()
    rows = list(csv.DictReader((reports / "stability.csv").open()))
    assert len(rows) == 6
    # tau through rbo are empty; p, B and seed are still filled in
    undefined = ("tau", "tau_lo", "tau_hi", "spearman", "pearson", "rbo")
    assert all(all(row[key] == "" for key in undefined) and row["B"] == "500" for row in rows)

    capsys.readouterr()  # the same for the stability subcommand
    argv = ["stability", "--config", str(toy_experiment), "--qrels", str(tmp_path / "qrels.txt")]
    assert main(argv) == 0
    cli_rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(cli_rows) == 2
    assert all(row[key] == "" for row in cli_rows for key in undefined)


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
    original = pipeline.Experiment.score_runs

    def counted(experiment, qrels_sources):
        sources.append([judgments.label() for _label, judgments in qrels_sources])
        return original(experiment, qrels_sources)

    monkeypatch.setattr(pipeline.Experiment, "score_runs", counted)
    assert run_pipeline(config).stages_run() == []
    assert sources == []

    stability = first.output_dir / "reports" / "stability.csv"
    expected = stability.read_bytes()
    stability.unlink()
    assert run_pipeline(config).stages_run() == ["stability"]
    assert sources == [["human"] + ["mock-judge"] * 3]  # one table, four qrels sources
    assert stability.read_bytes() == expected


@pytest.mark.parametrize("pool, parses", [("qrels", 1), ("runs", 2)])
def test_a_run_holds_at_most_one_parsed_run(toy_experiment, monkeypatch, pool, parses):
    # with pool = runs a cold run parses each file for the pool and for effectiveness
    text = toy_experiment.read_text().replace("[experiment]", f"[experiment]\npool = {pool}")
    toy_experiment.write_text(text)
    config = load_config(toy_experiment)
    parsed, live = [], {"now": 0, "most": 0}
    original = trec_io.parse_run

    def died() -> None:
        live["now"] -= 1

    def tracked(path):
        run = original(path)
        parsed.append(Path(path).name)
        live["now"] += 1
        live["most"] = max(live["most"], live["now"])
        weakref.finalize(run, died)
        return run

    monkeypatch.setattr(trec_io, "parse_run", tracked)
    out = run_pipeline(config).output_dir
    assert sorted(parsed) == sorted(["run1.txt", "run2.txt", "run3.txt"] * parses)
    assert live == {"now": 0, "most": 1}

    parsed.clear()
    (out / "reports" / "stability.csv").unlink()
    assert run_pipeline(config).stages_run() == ["stability"]
    assert sorted(parsed) == ["run1.txt", "run2.txt", "run3.txt"]
    assert live == {"now": 0, "most": 1}


def test_a_duplicate_run_tag_fails_the_effectiveness_stage_before_it_writes(
    toy_experiment, capsys
):
    runs = toy_experiment.parent / "runs"
    (runs / "zz.txt").write_text((runs / "run2.txt").read_text())
    assert main(["run", "--config", str(toy_experiment)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'effectiveness' failed: ")
    assert "duplicate run tag 'run2'" in err
    reports = toy_experiment.parent / "out" / "reports"
    assert sorted(p.name for p in reports.iterdir()) == ["agreement.csv", "label_distribution.csv"]


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


def test_reordering_modalities_reruns_the_reports_that_list_cells(toy_experiment):
    config = load_config(toy_experiment)
    run_pipeline(config)
    full, summ80, summ120 = config.modalities
    reordered = replace(config, modalities=[summ120, full, summ80])
    again = run_pipeline(reordered)
    assert again.stages_run() == ["distribution", "agreement", "effectiveness", "stability", "cost"]
    assert again.backend_calls == 0
    fresh = run_pipeline(replace(reordered, output_dir=config.output_dir.parent / "fresh"))
    # cache.jsonl keeps the order of first requests, so it and the manifest
    # that lists its digest depend on the run history
    def kept(out):
        return {k: v for k, v in bundle_digests(out).items() if k not in {"cache.jsonl", "manifest.json"}}

    assert kept(again.output_dir) == kept(fresh.output_dir)


def test_two_fresh_runs_are_byte_identical(toy_experiment):
    config = load_config(toy_experiment)
    out_a = run_pipeline(replace(config, output_dir=config.output_dir.parent / "out_a"))
    out_b = run_pipeline(replace(config, output_dir=config.output_dir.parent / "out_b"))
    assert bundle_digests(out_a.output_dir) == bundle_digests(out_b.output_dir)


# Every stage fingerprint of the toy experiment at seed 42. A fingerprint
# covers the package version, so a version bump changes all of them; any
# other change here means existing bundles re-run that stage, which a
# refactor of how the fingerprint inputs are built must not cause.
TOY_FINGERPRINTS = {
    "summarize:80": "4ba97510c09e3d8d6e7bffe46f876723782d2989ab5f556ecd2c73cf6df6041c",
    "summarize:120": "39a2b7e5bbd1f0a18cec24d457ee7c8a6291d85174453a1ccc145754fa0d5b8f",
    "judge:mock-judge:full": "4b38d0f91e4a906d2f6aec3cbd9c22eec7168dd9f127c5dc7093452904808ae4",
    "judge:mock-judge:summ:80": "04c7cc17b04edbca3a1a8fb02fbad61fcb33b3beb7f60434ceb13a33d711d413",
    "judge:mock-judge:summ:120": "f3d7d982d66f739e3aede051070340adfedb976416e9ad99721c81cf9f44853d",
    "distribution": "0adf5b169e811e4e612072d8d24b74e0aebf0c349028b76829eefb325ee3b0ac",
    "agreement": "2b7d20d6afc1a102a1a02153f4a68921565e2a5dc46baedc6efc2d67afbacf6d",
    "effectiveness": "c49cd6cc71e9ec4051430bee0550aa2657a961b37f072853a19db8d109b5d6b8",
    "stability": "bdd168287efef9285d14d00b565c97022bb30f877638cb77240894dbba5b0717",
    "cost": "496d6b5c7ca976ca4b8eca84e996bb3f0d8121e7bec0df8f05b661186e5b98cf",
}

# The same stages at earlier versions, as their bundles record them.
TOY_FINGERPRINTS_0_2_0 = {
    "summarize:80": "28225762ec7fc6b37b37a9aabb656fd24d2a9d31026df94604dc1f8303fe3e0d",
    "summarize:120": "489d583fc46abe045dcfc9b482ba302de841a6c5ab73c267f63bde6bb4135350",
    "judge:mock-judge:full": "866bd50e517bf8a626ee1bb8a59175ce029be4bf25b76e686a84fbf2477b91c0",
    "judge:mock-judge:summ:80": "7f888ba9247432de24de2398c2f0a5be3d2767e615a177c3a60572aad3326df3",
    "judge:mock-judge:summ:120": "77012246092f9c798e03c4417b71982ef7332f551a36bc43ced0dabdcb52f13f",
    "distribution": "d71749bd5845951e9550fae61abf0c3e267c8f8707ea98de3b51040ea3fad129",
    "agreement": "d0a3c53ef112549b1eeb187290ccd44cb49c42947ced89a6c9ec40fa990307e6",
    "effectiveness": "2d27d70dcbea6e1e5265cdeb866153b87f935404b690d283ac8ec6aabb3ea6cd",
    "stability": "f4e09d2f88842dffe5e65e4dcd7e46be825d814d0dfc141ae83c2b54aa1290bd",
    "cost": "10d1bb765e3b9d88b38706b3c6bdd80dcc563e587592d3d3df65afa077689c6a",
}
TOY_FINGERPRINTS_0_1_0 = {
    "summarize:80": "8bbd8ebef6c4a9b4f778fee55fa4319f69c299121cc453fc6b5b7bc6bce41b63",
    "summarize:120": "f6eb871c095e0f70027c220805d6e025514a010dcbe52f98ea8d13fb61ac7d0c",
    "judge:mock-judge:full": "0c4ff32e525ce1f1f375751d0781546d11340eeda960b28eab994f3a10615bc0",
    "judge:mock-judge:summ:80": "437ae3947b760e46bf784c0f228afbc496ea6a214cde37d5c34a927bbaa941fb",
    "judge:mock-judge:summ:120": "110615b7776a9fb7e1f8c26c44391850f14954dce915d6224c77137e6a07fb00",
    "distribution": "1937a31ea599bc1ac2a9e6e094871b6e1b24ede5b484f17571206dd583d79e46",
    "agreement": "9ba407d0cd1fade86a13506ce6c4b257efdfed3a398d1662eba7302a91e51340",
    "effectiveness": "cf21bd7e786374386f830f72774d15e67409d00128273939a33c77faba861b25",
    "stability": "7f262d9fdb6588403ed2dfb525e9f352cb1cb1c9179d3d41cd0e2b5799230ea7",
    "cost": "19882559f714396ae952d1baa8a9e8883c3116010172a52a2950db3cc7e6f9c9",
}


def test_stage_fingerprints_are_pinned(toy_experiment):
    out = run_pipeline(load_config(toy_experiment)).output_dir
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert {name: record["fingerprint"] for name, record in stages.items()} == TOY_FINGERPRINTS


def test_only_the_version_changed_the_pinned_summarize_fingerprints(toy_experiment, monkeypatch):
    # since 0.3.0 a judge stage covers only the inputs of its pool, and every
    # report stage covers the judge fingerprints, so only those changed too
    monkeypatch.setattr(pipeline, "__version__", "0.2.0")
    out = run_pipeline(load_config(toy_experiment)).output_dir
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    kept = {name for name, record in stages.items()
            if record["fingerprint"] == TOY_FINGERPRINTS_0_2_0[name]}
    assert kept == {"summarize:80", "summarize:120"}


@pytest.mark.parametrize("pool", ["qrels", "runs"])
def test_a_judge_stage_covers_only_the_inputs_of_its_pool(toy_experiment, pool):
    # pool = qrels reads the qrels, and pool = runs the runs and pool_depth
    config = replace(load_config(toy_experiment), pool=pool)
    run_pipeline(config)
    if pool == "qrels":
        again = run_pipeline(replace(config, pool_depth=5))
        assert again.stages_run() == []
    else:
        first, rest = config.qrels.read_text().split("\n", 1)
        config.qrels.write_text(f"{first[:-1]}{3 - int(first[-1])}\n{rest}")  # one grade edited
        again = run_pipeline(config)
        assert again.stages_run() == ["distribution", "agreement", "effectiveness", "stability"]
    assert again.backend_calls == 0


def _as_written_by(out: Path, version: str) -> None:
    """Give a toy bundle the files that ``version`` wrote, under a manifest of
    that version's fingerprints whose digests match them. Both wrote usage
    files without their stage and modality labels; 0.1.0 listed request hashes
    in them, wrote no summary ledgers, and kept a ``files`` map of every stage
    output and ``cache.jsonl`` in the manifest."""
    for usage in out.rglob("*.usage.json"):
        text = re.sub(r'^\{"stage": "\w+", "modality": "[\w:]+", ', "{", usage.read_text())
        if version == "0.1.0":
            recorded = json.loads(text)
            hashes = [row[0] for row in recorded.pop("rows")]
            text = json.dumps({"request_hashes": hashes, **recorded})
        usage.write_text(text)
    if version == "0.1.0":
        for ledger in (out / "summaries").glob("*.errors.json"):
            ledger.unlink()

    def digests(rels) -> dict[str, str]:
        return {rel: sha256_file(out / rel) for rel in rels if (out / rel).exists()}

    fingerprints = {"0.1.0": TOY_FINGERPRINTS_0_1_0, "0.2.0": TOY_FINGERPRINTS_0_2_0}[version]
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["version"] = version
    for name, record in manifest["stages"].items():
        record["fingerprint"], record["outputs"] = fingerprints[name], digests(record["outputs"])
    if version == "0.1.0":
        listed = [rel for record in manifest["stages"].values() for rel in record["outputs"]]
        manifest["files"] = digests([*listed, "cache.jsonl"])
    trec_io.write_json(out / "manifest.json", manifest)


def _an_old_bundle_reruns_every_stage_from_the_cache(config_path: Path, version: str) -> None:
    config = load_config(config_path)
    fresh = run_pipeline(replace(config, output_dir=config.output_dir.parent / "fresh")).output_dir
    out = run_pipeline(config).output_dir
    _as_written_by(out, version)
    assert all(b"stage" not in usage.read_bytes() for usage in out.rglob("*.usage.json"))
    again = run_pipeline(config)
    assert again.stages_run() == list(TOY_FINGERPRINTS)
    assert again.backend_calls == 0
    # the rerun rewrites every stage output, usage files included, and the
    # manifest, which drops an old files map: all as a fresh run's
    assert bundle_digests(out) == bundle_digests(fresh)


def test_a_bundle_of_version_0_1_0_reruns_every_stage_from_the_cache(toy_experiment):
    _an_old_bundle_reruns_every_stage_from_the_cache(toy_experiment, "0.1.0")


def test_a_bundle_of_version_0_2_0_reruns_every_stage_from_the_cache(toy_experiment):
    _an_old_bundle_reruns_every_stage_from_the_cache(toy_experiment, "0.2.0")


def _listed_outputs(stages: dict) -> dict:
    record = stages["summarize:80"]
    return {**stages, "summarize:80": {**record, "outputs": sorted(record["outputs"])}}


@pytest.mark.parametrize(
    "damage, reruns",
    [
        (lambda stages: [], list(TOY_FINGERPRINTS)),
        (lambda stages: {**stages, "judge:mock-judge:summ:80": "x"}, ["judge:mock-judge:summ:80"]),
        (_listed_outputs, ["summarize:80"]),
    ],
    ids=["stages-a-list", "record-a-string", "outputs-a-list"],
)
def test_a_manifest_of_the_wrong_shape_reruns_only_what_it_no_longer_vouches_for(
    toy_experiment, capsys, damage, reruns
):
    config = load_config(toy_experiment)
    fresh = run_pipeline(replace(config, output_dir=config.output_dir.parent / "fresh"))
    out = run_pipeline(config).output_dir
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["stages"] = damage(manifest["stages"])
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()

    assert main(["run", "--config", str(toy_experiment)]) == 0
    printed = capsys.readouterr().out
    assert [line.split()[1] for line in printed.splitlines() if line.split()[0] == "ran"] == reruns
    assert "0 backend calls" in printed
    assert bundle_digests(out) == bundle_digests(fresh.output_dir)


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
        if torn_hash in [row[0] for row in json.loads(usage.read_text())["rows"]]
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


def test_a_cold_run_hashes_each_request_once(toy_experiment, monkeypatch):
    calls = {"digest": 0, "complete": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ChatRequest, "digest", counted("digest", ChatRequest.digest))
    monkeypatch.setattr(Gateway, "complete", counted("complete", Gateway.complete))
    result = run_pipeline(load_config(toy_experiment))
    assert result.backend_calls > 0
    assert calls["digest"] == calls["complete"] > result.backend_calls


def test_summaries_are_read_at_most_once_per_budget(tmp_path, monkeypatch):
    # two models, so a read per judge cell would show as two per budget
    config = load_config(build_two_model_experiment(tmp_path))
    fresh = bundle_digests(run_pipeline(replace(config, output_dir=tmp_path / "ref")).output_dir)

    reads = []
    original = pipeline.read_summaries
    monkeypatch.setattr(pipeline, "read_summaries", lambda p: reads.append(p) or original(p))
    out = run_pipeline(config).output_dir
    assert reads == []  # the judge stages take the summaries their stage made
    assert bundle_digests(out) == fresh

    for path in (out / "judgments").iterdir():
        path.unlink()
    again = run_pipeline(config)
    cells = [(m, mod) for m in ("mock-judge", "other") for mod in ("full", "summ:80", "summ:120")]
    assert again.stages_run() == [f"judge:{m}:{mod}" for m, mod in cells]
    assert sorted(reads) == [out / "summaries" / f"summ{b}.jsonl" for b in (120, 80)]
    assert again.backend_calls == 0
    assert bundle_digests(out) == fresh


@pytest.mark.parametrize("pool", ["qrels", "runs"])
def test_each_judged_cell_keys_its_grades_by_the_pools_own_tuples(tmp_path, monkeypatch, pool):
    config = replace(load_config(build_two_model_experiment(tmp_path)), pool=pool)
    experiment = pipeline.Experiment(config)
    results = []
    original = pipeline.judge_pool
    monkeypatch.setattr(
        pipeline, "judge_pool", lambda *a, **kw: results.append(original(*a, **kw)) or results[-1]
    )
    experiment.run()
    assert len(results) == 6  # two models x three modalities
    pairs = {pair: pair for pair in experiment.pool}
    for result in results:
        assert result.judgments.grades
        assert all(pairs[pair] is pair for pair in result.judgments.grades)


def test_a_run_reads_back_only_what_skipped_stages_wrote(toy_experiment, monkeypatch):
    config = load_config(toy_experiment)
    calls = []
    for name in ("parse_qrels", "read_summaries", "sha256_file"):
        original = getattr(pipeline, name)
        monkeypatch.setattr(
            pipeline, name, lambda p, _n=name, _f=original: calls.append((_n, p)) or _f(p)
        )
    out = run_pipeline(config).output_dir
    # a cold run hands summaries and judgments on in memory: only the human
    # qrels are parsed
    assert [call for call in calls if call[0] != "sha256_file"] == [("parse_qrels", config.qrels)]

    calls.clear()
    shutil.rmtree(out / "reports")
    reports = ["distribution", "agreement", "effectiveness", "stability", "cost"]
    assert run_pipeline(config).stages_run() == reports
    # no stage record covers the cache, so no run hashes it
    assert calls.count(("sha256_file", out / "cache.jsonl")) == 0


def test_a_run_releases_each_input_after_its_last_reader(tmp_path, monkeypatch):
    config = load_config(build_two_model_experiment(tmp_path))
    refs: dict[str, weakref.ref] = {}

    def tracked(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            refs[name(*args)] = weakref.ref(result)
            return result

        return wrapper

    load_corpus = tracked(lambda _path: "corpus", pipeline.load_corpus)
    summarize = tracked(lambda _corpus, budget, *_: f"summ:{budget}", pipeline.summarize_corpus)
    monkeypatch.setattr(pipeline, "load_corpus", load_corpus)
    monkeypatch.setattr(pipeline, "summarize_corpus", summarize)
    gateway_init = Gateway.__init__

    def init(self, *args, **kwargs):
        gateway_init(self, *args, **kwargs)
        refs["gateway"], refs["cache"] = weakref.ref(self), weakref.ref(self.cache)

    monkeypatch.setattr(Gateway, "__init__", init)
    live = {}  # stage -> the tracked inputs alive when it ends, or for a report as it starts

    def alive() -> list[str]:
        return sorted(name for name, ref in refs.items() if ref() is not None)

    judge_stage, report_stage = pipeline.Experiment._judge_stage, pipeline.Experiment._report_stage

    def judged(self, model, modality):
        judge_stage(self, model, modality)
        live[f"{model}:{modality}"] = alive()

    def reported(self, name, *args):
        live[name] = alive()
        report_stage(self, name, *args)

    monkeypatch.setattr(pipeline.Experiment, "_judge_stage", judged)
    monkeypatch.setattr(pipeline.Experiment, "_report_stage", reported)
    result = run_pipeline(config)

    held = ["cache", "corpus", "gateway", "summ:120", "summ:80"]
    reports = ("distribution", "agreement", "effectiveness", "stability", "cost")
    assert live == {
        "mock-judge:full": held,
        "mock-judge:summ:80": held,
        "mock-judge:summ:120": held,
        "other:full": ["cache", "gateway", "summ:120", "summ:80"],
        "other:summ:80": ["cache", "gateway", "summ:120"],
        "other:summ:120": ["cache", "gateway"],
        **{name: [] for name in reports},  # neither the gateway nor its cache
    }
    # the counts outlive the gateway: each distinct request reached the backend once
    lines = (result.output_dir / "cache.jsonl").read_text().splitlines()
    assert (result.backend_calls, result.cache_hits) == (len(lines), 130) == (148, 130)


@pytest.mark.parametrize(
    "change", ["none", "force", "cell-and-cost-deleted", "prices", "reports-deleted"]
)
def test_a_rerun_loads_the_cache_at_most_once(tmp_path, monkeypatch, change):
    # only a summarize or judge stage that runs loads the cache; no report does
    config = load_config(build_two_model_experiment(tmp_path))
    loads = []
    load = ResponseCache._load
    monkeypatch.setattr(ResponseCache, "_load", lambda cache: loads.append(1) or load(cache))
    first = run_pipeline(config)
    assert loads == []  # a cold run starts without a cache file
    out = first.output_dir
    cold = (out / "reports" / "cost.csv").read_bytes()
    expected = {"none": [], "force": first.stages_run()}.get(change)
    if change == "prices":
        prices = {model: {"input_usd_per_1m": 1.25, "output_usd_per_1m": 4.0}
                  for model in ("mock-judge", "other")}
        (tmp_path / "prices.json").write_text(json.dumps(prices))
        expected = ["cost"]
    elif change == "reports-deleted":
        shutil.rmtree(out / "reports")
        expected = ["distribution", "agreement", "effectiveness", "stability", "cost"]
    elif change == "cell-and-cost-deleted":
        (out / "reports" / "cost.csv").unlink()
        (out / "judgments" / "other__summ-80.qrels").unlink()
        expected = ["judge:other:summ:80", "cost"]
    again = run_pipeline(config, force=change == "force")
    assert again.stages_run() == expected
    assert again.backend_calls == 0
    assert len(loads) == (1 if change in ("force", "cell-and-cost-deleted") else 0)
    cost = (out / "reports" / "cost.csv").read_bytes()
    if change == "prices":
        fresh = run_pipeline(replace(config, output_dir=tmp_path / "fresh")).output_dir
        assert cost == (fresh / "reports" / "cost.csv").read_bytes() != cold
    else:
        assert cost == cold


def test_a_reports_only_rerun_needs_no_response_cache(toy_experiment, monkeypatch, capsys):
    # each usage file holds its own token counts, so the cost stage prices a
    # bundle whose cache is gone, and no report stage opens the gateway
    out = run_pipeline(load_config(toy_experiment)).output_dir
    cold = {path.name: path.read_bytes() for path in (out / "reports").iterdir()}
    (out / "cache.jsonl").unlink()
    shutil.rmtree(out / "reports")
    opened = []
    monkeypatch.setattr(ResponseCache, "_load", lambda cache: opened.append("cache"))
    init = Gateway.__init__
    monkeypatch.setattr(
        Gateway, "__init__", lambda self, *a, **kw: opened.append("gateway") or init(self, *a, **kw)
    )
    capsys.readouterr()
    assert main(["run", "--config", str(toy_experiment)]) == 0
    printed = capsys.readouterr().out
    assert "5 stages ran, 5 skipped, 0 backend calls" in printed
    assert opened == []
    assert {path.name: path.read_bytes() for path in (out / "reports").iterdir()} == cold
    assert not (out / "cache.jsonl").exists()


def test_a_damaged_usage_file_reruns_its_stage_before_the_cost_stage(toy_experiment):
    # the cost stage never prices a usage file its stage did not write: a
    # damaged one re-runs that judge stage from the cache first
    config = load_config(toy_experiment)
    out = run_pipeline(config).output_dir
    cold = (out / "reports" / "cost.csv").read_bytes()
    (out / "reports" / "cost.csv").unlink()
    usage = out / "judgments" / "mock-judge__full.usage.json"
    written = usage.read_bytes()
    usage.write_text('{"rows": 5}')
    again = run_pipeline(config)
    assert again.stages_run() == ["judge:mock-judge:full", "cost"]
    assert again.backend_calls == 0
    assert usage.read_bytes() == written
    assert (out / "reports" / "cost.csv").read_bytes() == cold


def test_a_failed_summary_keeps_its_reason_in_the_summary_ledger(toy_experiment, monkeypatch):
    config = load_config(toy_experiment)
    texts = {}
    for line in config.corpus.read_text().splitlines():
        doc = json.loads(line)
        texts[doc["docid"]] = doc["text"]
    judged = sorted({doc for _t, doc in parse_qrels(config.qrels).grades} - {EMPTY_DOC})
    failing = {texts[doc]: doc for doc in judged[:2]}
    send = MockBackend.send

    def refusing(self, req, request_hash):
        doc = failing.get(req.user_text.rsplit("Document:", 1)[-1].strip())
        if doc is not None and "Passage:" not in req.user_text:  # a summary request
            raise ProtocolError(f"refused to summarize {doc}")
        return send(self, req, request_hash)

    monkeypatch.setattr(MockBackend, "send", refusing)
    out = run_pipeline(config).output_dir
    failed = sorted(failing.values())
    for budget in (80, 120):
        ledger = json.loads((out / "summaries" / f"summ{budget}.errors.json").read_text())
        assert [entry["doc_id"] for entry in ledger["failed_docs"]] == failed
        for entry in ledger["failed_docs"]:
            assert f"refused to summarize {entry['doc_id']}" in entry["reason"]
    for slug in ("summ-80", "summ-120"):
        ledger = json.loads((out / "judgments" / f"mock-judge__{slug}.errors.json").read_text())
        skipped = {entry["doc_id"]: entry["reason"] for entry in ledger["skipped_pairs"]}
        assert {doc: skipped.get(doc) for doc in failed} == dict.fromkeys(
            failed, "no summary available"
        )
    ledger = json.loads((out / "judgments" / "mock-judge__full.errors.json").read_text())
    assert ledger["skipped_pairs"] == []


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
    assert judged.modality == Modality("summary", 120)
    assert judged.prompt_sha256 is not None
