"""The judgeval command line: subcommands, exit codes, wiring."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import build_toy_experiment
from judgeval.cli import main
from judgeval.judge import load_judge_template
from judgeval.templates import template_sha256
from judgeval.trec_io import (
    JudgmentSet,
    model_source,
    parse_qrels,
    summary_modality,
    write_judgments,
)


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def test_run_subcommand_end_to_end(toy_experiment, capsys):
    assert main(["run", "--config", str(toy_experiment)]) == 0
    printed = capsys.readouterr().out
    assert "manifest:" in printed
    assert "10 stages ran" in printed


def test_run_exit_code_2_on_config_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2


def test_run_rejects_unconfigured_model(toy_experiment):
    assert main(["run", "--config", str(toy_experiment), "--model", "nope"]) == 2


def test_run_modality_filter(toy_experiment, capsys):
    assert (
        main(["run", "--config", str(toy_experiment), "--modality", "full"]) == 0
    )
    printed = capsys.readouterr().out
    assert "judge:mock-judge:full" in printed
    assert "summ:80" not in printed


@pytest.mark.parametrize("modality", ["bogus", "summ:x", "summ:0"])
def test_malformed_modality_is_config_error(toy_experiment, tmp_path, capsys, modality):
    run = ["run", "--config", str(toy_experiment), "--modality", modality]
    judge = [
        "judge", "--config", str(toy_experiment), "--model", "mock-judge",
        "--modality", modality, "--out", str(tmp_path / "x.qrels"),
    ]
    for argv in (run, judge):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and modality in err
    assert not (tmp_path / "x.qrels").exists()


def test_importing_cli_loads_no_scipy():
    # scipy cost about a second of start-up on every command
    code = (
        "import sys, judgeval.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_summarize_subcommand(toy_experiment, tmp_path, capsys):
    out = tmp_path / "summ80.jsonl"
    code = main(
        [
            "summarize",
            "--config",
            str(toy_experiment),
            "--budget",
            "80",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 20
    assert all(json.loads(line)["budget_tokens"] == 80 for line in lines)


def test_judge_subcommand_full_and_summary(toy_experiment, tmp_path):
    summaries = tmp_path / "summ80.jsonl"
    assert (
        main(
            [
                "summarize", "--config", str(toy_experiment),
                "--budget", "80", "--out", str(summaries),
            ]
        )
        == 0
    )
    out_full = tmp_path / "full.qrels"
    assert (
        main(
            [
                "judge", "--config", str(toy_experiment),
                "--model", "mock-judge", "--modality", "full",
                "--out", str(out_full),
            ]
        )
        == 0
    )
    out_summ = tmp_path / "summ.qrels"
    assert (
        main(
            [
                "judge", "--config", str(toy_experiment),
                "--model", "mock-judge", "--modality", "summ:80",
                "--summaries", str(summaries), "--out", str(out_summ),
            ]
        )
        == 0
    )
    assert out_full.exists() and out_summ.exists()
    # summary modality without --summaries is a config error
    assert (
        main(
            [
                "judge", "--config", str(toy_experiment),
                "--model", "mock-judge", "--modality", "summ:80",
                "--out", str(tmp_path / "x.qrels"),
            ]
        )
        == 2
    )


def test_agreement_subcommand_identical_files_kappa_one(tmp_path, capsys):
    qrels = tmp_path / "a.qrels"
    judgments = JudgmentSet(
        grades={("t1", "d1"): 0, ("t1", "d2"): 1, ("t2", "d1"): 2, ("t2", "d3"): 3},
        source=model_source("m"),
    )
    write_judgments(judgments, qrels)
    assert main(["agreement", "--qrels-a", str(qrels), "--qrels-b", str(qrels)]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    by_metric = {row["metric"]: row for row in rows}
    # the same four metrics as reports/agreement.csv
    assert list(by_metric) == [
        "weighted_kappa_quadratic", "alpha_ordinal", "kappa_binary_t1", "alpha_nominal_binary_t1",
    ]
    assert float(by_metric["weighted_kappa_quadratic"]["value"]) == pytest.approx(1.0)
    assert float(by_metric["alpha_ordinal"]["value"]) == pytest.approx(1.0)
    assert float(by_metric["kappa_binary_t1"]["value"]) == pytest.approx(1.0)


def test_agreement_subcommand_disjoint_files_flags_every_row(tmp_path, capsys):
    a, b = tmp_path / "a.qrels", tmp_path / "b.qrels"
    write_judgments(JudgmentSet(grades={("t1", "d1"): 1, ("t1", "d2"): 0}), a)
    write_judgments(JudgmentSet(grades={("t1", "d3"): 2}, source=model_source("m")), b)
    assert main(["agreement", "--qrels-a", str(a), "--qrels-b", str(b)]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 4
    for row in rows:
        assert (row["value"], row["n_items"], row["n_missing"], row["flags"]) == (
            "", "0", "3", "degenerate"
        )


def test_effectiveness_and_stability_subcommands(toy_experiment, tmp_path, capsys):
    config_dir = toy_experiment.parent
    per_topic = tmp_path / "per_topic.csv"
    code = main(
        [
            "effectiveness",
            "--qrels", str(config_dir / "qrels.txt"),
            "--runs-dir", str(config_dir / "runs"),
            "--out", str(tmp_path / "eff.csv"),
            "--per-topic-out", str(per_topic),
        ]
    )
    assert code == 0
    assert per_topic.exists()
    # identical score tables: tau = spearman = rbo = 1, CI [1, 1]
    code = main(
        [
            "stability",
            "--per-topic-h", str(per_topic),
            "--per-topic-l", str(per_topic),
            "--metric", "ndcg@10",
            "--resamples", "200",
            "--seed", "3",
        ]
    )
    assert code == 0
    row = _csv_rows(capsys.readouterr().out)[0]
    assert float(row["tau"]) == pytest.approx(1.0)
    assert float(row["spearman"]) == pytest.approx(1.0)
    assert float(row["rbo"]) == pytest.approx(1.0)
    assert float(row["tau_lo"]) == pytest.approx(1.0)
    assert float(row["tau_hi"]) == pytest.approx(1.0)


def test_cost_extrapolate_subcommand(capsys):
    assert (
        main(
            [
                "cost", "--extrapolate",
                "--pairs", "108479", "--avg-tokens", "363", "--overhead", "0",
            ]
        )
        == 0
    )
    row = _csv_rows(capsys.readouterr().out)[0]
    tokens_m = float(row["input_tokens_millions"])
    assert 39.0 <= tokens_m <= 39.8
    assert 95.0 <= float(row["cost_usd"]) <= 105.0


def test_cost_tally_subcommand(toy_experiment, tmp_path, capsys):
    assert main(["run", "--config", str(toy_experiment)]) == 0
    capsys.readouterr()
    out_dir = toy_experiment.parent / "out"
    usage = out_dir / "judgments" / "mock-judge__full.usage.json"
    code = main(
        [
            "cost",
            "--cache", str(out_dir / "cache.jsonl"),
            "--usage", str(usage),
            "--prices", str(toy_experiment.parent / "prices.json"),
            "--stage", "judgment", "--modality", "full",
        ]
    )
    assert code == 0
    row = _csv_rows(capsys.readouterr().out)[0]
    recorded = json.loads(usage.read_text())
    assert float(row["input_tokens_millions"]) == pytest.approx(
        recorded["input_tokens"] / 1e6, abs=1e-9
    )


def test_cost_tally_rejects_usage_hashes_missing_from_cache(toy_bundle, tmp_path, capsys):
    usage = toy_bundle / "out" / "judgments" / "mock-judge__full.usage.json"
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    argv = ["cost", "--cache", str(empty), "--usage", str(usage)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(usage) in err and str(empty) in err


def test_run_fails_when_cache_lacks_usage_hashes(toy_experiment, capsys):
    # without its cache a bundle cannot be costed; the cost stage must not
    # report zero tokens
    assert main(["run", "--config", str(toy_experiment)]) == 0
    out_dir = toy_experiment.parent / "out"
    (out_dir / "cache.jsonl").unlink()
    (out_dir / "reports" / "cost.csv").unlink()
    capsys.readouterr()
    assert main(["run", "--config", str(toy_experiment)]) == 1
    assert "stage 'cost' failed" in capsys.readouterr().err
    assert not (out_dir / "reports" / "cost.csv").exists()


def test_cost_requires_cache_or_extrapolate():
    assert main(["cost"]) == 2


def test_cost_missing_cache_is_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    assert main(["cost", "--cache", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no all-zero cost table
    assert captured.err.startswith("config error: ") and str(missing) in captured.err
    assert not missing.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "--cache", "{cache}", "--usage", "{missing}"],
        ["agreement", "--qrels-a", "{missing}", "--qrels-b", "{qrels}"],
        ["agreement", "--qrels-a", "{qrels}", "--qrels-b", "{missing}"],
        ["effectiveness", "--qrels", "{missing}", "--runs-dir", "{runs}"],
        ["effectiveness", "--qrels", "{qrels}", "--runs-dir", "{missing}"],
        ["stability", "--per-topic-h", "{missing}", "--per-topic-l", "{missing}",
         "--metric", "map"],
    ],
    ids=["cost-usage", "agreement-a", "agreement-b", "eff-qrels", "eff-runs", "stability"],
)
def test_missing_input_file_is_config_error(toy_bundle, tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    paths = {
        "cache": toy_bundle / "out" / "cache.jsonl",
        "qrels": toy_bundle / "qrels.txt",
        "runs": toy_bundle / "runs",
        "missing": missing,
    }
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: path does not exist: {missing}\n"


@pytest.mark.parametrize("content", ["not json", "{}", "[]"])
def test_bad_usage_file_is_parse_error(toy_bundle, tmp_path, capsys, content):
    usage = tmp_path / "usage.json"
    usage.write_text(content)
    cache = toy_bundle / "out" / "cache.jsonl"
    assert main(["cost", "--cache", str(cache), "--usage", str(usage)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {usage}: bad usage file")


@pytest.mark.parametrize("resamples", ["0", "-5"])
def test_stability_rejects_non_positive_resamples(toy_bundle, capsys, resamples):
    per_topic = toy_bundle / "out" / "reports" / "effectiveness_per_topic.csv"
    argv = [
        "stability", "--per-topic-h", str(per_topic), "--per-topic-l", str(per_topic),
        "--metric", "map", "--resamples", resamples,
    ]
    assert main(argv) == 2
    assert "--resamples" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["summarize", "--config", "{config}", "--budget", "0", "--out", "{out}"], "--budget"),
        (["effectiveness", "--qrels", "{qrels}", "--runs-dir", "{runs}", "--k", "0"], "--k"),
        (["effectiveness", "--qrels", "{qrels}", "--runs-dir", "{runs}", "--threshold", "4"],
         "--threshold"),
        (["agreement", "--qrels-a", "{qrels}", "--qrels-b", "{qrels}", "--threshold", "0"],
         "--threshold"),
        (["stability", "--per-topic-h", "{per_topic}", "--per-topic-l", "{per_topic}",
          "--metric", "map", "--rbo-p", "1.5"], "--rbo-p"),
        (["cost", "--extrapolate", "--pairs", "-1", "--avg-tokens", "3"], "--pairs"),
        (["effectiveness", "--qrels", "{qrels}", "--runs-dir", "{qrels}"], "{qrels}"),
    ],
    ids=["budget", "k", "eff-threshold", "agreement-threshold", "rbo-p", "pairs", "runs-dir"],
)
def test_out_of_range_flags_are_config_errors(toy_bundle, tmp_path, capsys, argv, flag):
    per_topic = tmp_path / "per_topic.csv"  # one qrels source, so only --rbo-p is wrong
    eff = ["effectiveness", "--qrels", str(toy_bundle / "qrels.txt"),
           "--runs-dir", str(toy_bundle / "runs"), "--per-topic-out", str(per_topic)]
    assert main(eff) == 0
    capsys.readouterr()
    paths = {
        "config": toy_bundle / "config.ini",
        "out": tmp_path / "out.jsonl",
        "qrels": toy_bundle / "qrels.txt",
        "runs": toy_bundle / "runs",
        "per_topic": per_topic,
    }
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert flag.format(**paths) in captured.err
    assert not paths["out"].exists()


def test_cells_without_tasks_keep_their_provenance(tmp_path, capsys):
    config = build_toy_experiment(tmp_path)
    (tmp_path / "topics.tsv").write_text("t99\ta topic the qrels never judged\n")
    assert main(["run", "--config", str(config)]) == 0
    judged = parse_qrels(tmp_path / "out" / "judgments" / "mock-judge__summ-80.qrels")
    assert len(judged) == 0
    assert judged.modality == summary_modality(80)
    assert judged.prompt_sha256 == template_sha256(load_judge_template())
    # every statistic the empty cells leave undefined is an empty field
    reports = tmp_path / "out" / "reports"
    shares = _csv_rows((reports / "label_distribution.csv").read_text())
    grades = [[row[f"grade_{g}"] for g in range(4)] for row in shares]
    assert "" not in grades[0] and grades[1:] == [[""] * 4] * 3
    assert [row["n_judgments"] for row in shares[1:]] == ["0"] * 3
    agreement = _csv_rows((reports / "agreement.csv").read_text())
    assert len(agreement) == 12
    assert {(row["value"], row["n_items"], row["flags"]) for row in agreement} == {
        ("", "0", "degenerate")
    }
    n_human = len(parse_qrels(tmp_path / "qrels.txt"))
    assert {row["n_missing"] for row in agreement} == {str(n_human)}
    stability = _csv_rows((reports / "stability.csv").read_text())
    assert len(stability) == 6
    for row in stability:
        undefined = ("tau", "tau_lo", "tau_hi", "spearman", "pearson", "rbo")
        assert [row[name] for name in undefined] == [""] * 6
        assert "" not in (row["p"], row["B"], row["seed"])


def test_summarize_and_judge_subcommands_write_the_bundle_bytes(toy_bundle, tmp_path):
    config, bundle = str(toy_bundle / "config.ini"), toy_bundle / "out"
    summaries = tmp_path / "summ80.jsonl"
    argv = ["summarize", "--config", config, "--budget", "80", "--out", str(summaries)]
    assert main(argv) == 0
    assert summaries.read_bytes() == (bundle / "summaries" / "summ80.jsonl").read_bytes()
    judged = tmp_path / "judged.qrels"
    argv = [
        "judge", "--config", config, "--model", "mock-judge", "--modality", "summ:80",
        "--summaries", str(summaries), "--out", str(judged),
    ]
    assert main(argv) == 0
    for suffix in ("", ".meta.json"):
        expected = bundle / "judgments" / f"mock-judge__summ-80.qrels{suffix}"
        assert Path(f"{judged}{suffix}").read_bytes() == expected.read_bytes()


def test_judge_pricing_error_exit_code_1(toy_experiment, tmp_path):
    # a price table missing the mock model fails in the cost stage
    prices = toy_experiment.parent / "prices.json"
    prices.write_text(json.dumps({"other": {"input_usd_per_1m": 1, "output_usd_per_1m": 1}}))
    assert main(["run", "--config", str(toy_experiment)]) == 1


def test_judge_subcommand_follows_pool_runs(toy_experiment, tmp_path):
    config = toy_experiment.read_text().replace(
        "[experiment]\n", "[experiment]\npool = runs\npool_depth = 10\n"
    )
    toy_experiment.write_text(config)
    assert main(["run", "--config", str(toy_experiment), "--modality", "full"]) == 0
    out = tmp_path / "full.qrels"
    assert (
        main(
            [
                "judge", "--config", str(toy_experiment),
                "--model", "mock-judge", "--modality", "full", "--out", str(out),
            ]
        )
        == 0
    )
    bundle = toy_experiment.parent / "out" / "judgments" / "mock-judge__full.qrels"
    human = parse_qrels(toy_experiment.parent / "qrels.txt")
    judged = parse_qrels(out).grades
    assert judged == parse_qrels(bundle).grades
    assert set(judged) != set(human.grades)  # the run pool, not the qrels pool


@pytest.fixture(scope="module")
def toy_bundle(tmp_path_factory) -> Path:
    """Input directory of one completed toy ``run``; the bundle is under ``out/``."""
    config = build_toy_experiment(tmp_path_factory.mktemp("toy"))
    assert main(["run", "--config", str(config)]) == 0
    return config.parent


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _bundle_lines(path: Path, keep) -> list[str]:
    header, *rows = _lines(path)
    return [header] + [row for row in rows if keep(row.split(","))]


def test_stage_subcommands_match_bundle_reports(toy_bundle, tmp_path):
    reports = toy_bundle / "out" / "reports"
    means, per_topic = tmp_path / "eff.csv", tmp_path / "per_topic.csv"
    assert (
        main(
            [
                "effectiveness", "--qrels", str(toy_bundle / "qrels.txt"),
                "--runs-dir", str(toy_bundle / "runs"),
                "--out", str(means), "--per-topic-out", str(per_topic),
            ]
        )
        == 0
    )
    for cli_out, bundle in [
        (means, reports / "effectiveness.csv"),
        (per_topic, reports / "effectiveness_per_topic.csv"),
    ]:
        expected = _bundle_lines(bundle, lambda row: row[2] == "human")
        assert len(_lines(cli_out)) == len(expected)
        assert set(_lines(cli_out)) == set(expected)

    agreement = tmp_path / "agreement.csv"
    judged = toy_bundle / "out" / "judgments" / "mock-judge__full.qrels"
    assert (
        main(
            [
                "agreement", "--qrels-a", str(toy_bundle / "qrels.txt"),
                "--qrels-b", str(judged), "--dataset", "toy", "--out", str(agreement),
            ]
        )
        == 0
    )
    expected = _bundle_lines(
        reports / "agreement.csv", lambda row: row[:2] == ["mock-judge", "full"]
    )
    assert len(expected) == 5
    assert set(_lines(agreement)) == set(expected)

    cost = tmp_path / "cost.csv"
    usage = toy_bundle / "out" / "judgments" / "mock-judge__full.usage.json"
    assert (
        main(
            [
                "cost", "--cache", str(toy_bundle / "out" / "cache.jsonl"),
                "--usage", str(usage), "--prices", str(toy_bundle / "prices.json"),
                "--stage", "judgment", "--modality", "full", "--dataset", "toy",
                "--out", str(cost),
            ]
        )
        == 0
    )
    expected = _bundle_lines(reports / "cost.csv", lambda row: row[:2] == ["judgment", "full"])
    assert _lines(cost) == expected

    stability = tmp_path / "stability.csv"
    assert (
        main(
            [
                "stability", "--per-topic-h", str(per_topic), "--per-topic-l", str(per_topic),
                "--metric", "map", "--resamples", "50", "--out", str(stability),
            ]
        )
        == 0
    )
    assert _lines(stability)[0] == _lines(reports / "stability.csv")[0]


def test_stability_rejects_mixed_qrels_sources(toy_bundle, capsys):
    # the bundle's per-topic table holds human and model rows for every run
    per_topic = toy_bundle / "out" / "reports" / "effectiveness_per_topic.csv"
    code = main(
        [
            "stability", "--per-topic-h", str(per_topic), "--per-topic-l", str(per_topic),
            "--metric", "ndcg@10", "--resamples", "50",
        ]
    )
    assert code == 2
    assert "mixes qrels sources" in capsys.readouterr().err
