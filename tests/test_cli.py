"""The judgeval command line: subcommands, exit codes, wiring."""

from __future__ import annotations

import csv
import gc
import io
import json
import os
import shlex
import subprocess
import sys
import tomllib
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import build_toy_experiment, build_two_model_experiment, bundle_digests
from judgeval.cli import _build_parser, _load_config_with_overrides, main
from judgeval.config import load_config
from judgeval.judge import load_judge_template
from judgeval.templates import template_sha256
from judgeval.trec_io import (
    JudgmentSet,
    Modality,
    parse_qrels,
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


def test_grid_and_backend_flags_are_unrecognized(toy_experiment, capsys):
    # the grid (models, modalities) and the backend are set in the config alone
    for command, *argv in [
        ["run", "--model", "x"],
        ["run", "--modality", "full"],
        ["run", "--mock"],
        ["summarize", "--budget", "80", "--out", "s.jsonl", "--mock"],
        ["judge", "--model", "mock-judge", "--out", "j.qrels", "--mock"],
        # judge's cell is full, or the budget of its --summaries
        ["judge", "--model", "mock-judge", "--modality", "full", "--out", "j.qrels"],
        ["judge", "--model", "m", "--summaries", "s.jsonl", "--modality", "summ:80", "--out", "j"],
    ]:
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(toy_experiment), *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments: " in capsys.readouterr().err, (command, argv)
    assert not (toy_experiment.parent / "out").exists()


def test_models_sharing_a_judgment_file_name_are_config_errors(tmp_path, capsys):
    config = build_toy_experiment(tmp_path)
    text = config.read_text().replace("models = mock-judge", "models = mock/judge, mockjudge")
    config.write_text(text)
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "'mock/judge'" in err and "'mockjudge'" in err
    assert not (tmp_path / "out").exists()


def test_a_model_named_human_is_a_config_error(tmp_path, capsys):
    # the reports label the human qrels "human", so the two could not be told apart
    config = build_toy_experiment(tmp_path)
    config.write_text(config.read_text().replace("models = mock-judge", "models = human"))
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: model name 'human' is reserved for the human qrels\n"
    assert not (tmp_path / "out").exists()


def test_judge_rejects_a_model_named_human(toy_experiment, tmp_path, capsys):
    before = sorted(tmp_path.rglob("*"))
    argv = [
        "judge", "--config", str(toy_experiment), "--model", "human",
        "--out", str(tmp_path / "full.qrels"),
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: model name 'human' is reserved for the human qrels\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_cache_line_without_reply_text_is_an_error_naming_it(tmp_path, capsys):
    config = build_toy_experiment(tmp_path)
    cache = tmp_path / "out" / "cache.jsonl"
    cache.parent.mkdir()
    line = {"hash": "h1", "model": "mock-judge", "text": None, "in_tok": 1, "out_tok": 0}
    cache.write_text(json.dumps(line) + "\n")
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{cache}:1" in err


def test_flags_that_mirror_a_setting_default_to_it(tmp_path):
    # every setting comes from the config: given every flag it has, a configured
    # subcommand's config differs from the file's only in --seed, run's output
    # directory and the one model judge judges
    config_path = _toy_config_with(
        tmp_path, "backend = mock\n", "backend = http\nendpoint = http://127.0.0.1:9/v1\n"
    )
    config_path.write_text(config_path.read_text().replace("models = mock-judge", "models = a, b"))
    base = load_config(config_path)
    values = {"config": str(config_path), "model": "b", "budget": "80"}
    (commands,) = [a.choices for a in _build_parser()._actions if a.choices and a.dest == "command"]
    changed = {}
    for command, parser in commands.items():
        flags = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        argv = [command]
        for flag in flags:
            value = values.get(flag.dest, "7" if flag.type is int else str(tmp_path / command))
            argv += [flag.option_strings[0]] + ([value] if flag.nargs != 0 else [])
        config = _load_config_with_overrides(_build_parser().parse_args(argv))
        changed[command] = {
            f.name for f in fields(config) if getattr(config, f.name) != getattr(base, f.name)
        }
    assert changed == {
        "run": {"seed", "output_dir"},
        "summarize": {"seed"},
        "judge": {"seed", "models"},
        "agreement": set(),
        "effectiveness": set(),
        "stability": {"seed"},
        "cost": set(),
    }
    for command in ("agreement", "effectiveness", "stability", "cost"):
        options = {o for a in commands[command]._actions for o in a.option_strings}
        mirrored = {"--threshold", "--k", "--gain", "--dataset", "--prices", "--runs-dir"}
        assert not options & mirrored, command


def test_run_follows_a_config_narrowed_to_full(tmp_path, capsys):
    config = _toy_config_with(tmp_path, "modalities = full, summ:80, summ:120", "modalities = full")
    assert main(["run", "--config", str(config)]) == 0
    printed = capsys.readouterr().out
    assert "judge:mock-judge:full" in printed
    assert "summ:" not in printed and "summarize:" not in printed


@pytest.mark.parametrize("modality", ["bogus", "summ:x", "summ:0"])
def test_malformed_modality_is_config_error(tmp_path, capsys, modality):
    # in the config's modalities, the only place a modality is given
    config = _toy_config_with(
        tmp_path / "grid", "modalities = full, summ:80, summ:120", f"modalities = full, {modality}"
    )
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(modality) in err
    assert not (tmp_path / "grid" / "out").exists()


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


def _python(code: str, *args: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; its stdout lines."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_importing_cli_loads_neither_numpy_nor_the_http_client():
    # together about 180 ms of the start-up of every command
    heavy = ["numpy", "urllib.request", "http.client", "ssl", "email"]
    code = "import sys, judgeval.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    assert _python(code, *heavy) == ["[]"]


def test_a_warm_run_skips_every_stage_without_importing_numpy(tmp_path):
    config = build_toy_experiment(tmp_path)
    code = (
        "import sys; from judgeval.cli import main; "
        "code = main(['run', '--config', sys.argv[1]]); "
        "print(code, 'numpy' in sys.modules)"
    )
    cold = _python(code, str(config))
    assert cold[-1] == "0 True"  # the report stages do import it
    before = bundle_digests(tmp_path / "out")
    warm = _python(code, str(config))
    assert warm[-1] == "0 False"
    assert "done: 0 stages ran, 10 skipped" in "\n".join(warm)
    assert bundle_digests(tmp_path / "out") == before


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
    # without --summaries judge judges the full cell, with them the summary cell of their budget
    judge = ["judge", "--config", str(toy_experiment), "--model", "mock-judge"]
    out_full, out_summ = tmp_path / "full.qrels", tmp_path / "summ.qrels"
    assert main([*judge, "--out", str(out_full)]) == 0
    assert main([*judge, "--summaries", str(summaries), "--out", str(out_summ)]) == 0
    assert parse_qrels(out_full).modality == Modality("full")
    assert parse_qrels(out_summ).modality == Modality("summary", 80)


def _agreement_argv(root: Path, human: dict, judged: dict) -> list[str]:
    """``agreement`` on the toy experiment under ``root`` with ``human`` as the
    config's qrels and ``judged`` (by model ``m``) as ``--qrels``."""
    config = build_toy_experiment(root)
    write_judgments(JudgmentSet(grades=human), root / "qrels.txt")
    write_judgments(JudgmentSet(grades=judged, model="m"), root / "judged.qrels")
    return ["agreement", "--config", str(config), "--qrels", str(root / "judged.qrels")]


def test_judge_rejects_summaries_with_no_records(toy_bundle, tmp_path, capsys):
    # a summaries file without a record names no budget, so no cell to judge
    summaries = tmp_path / "inputs" / "summ80.jsonl"
    summaries.parent.mkdir()
    summaries.write_text("\n")
    out = tmp_path / "out"
    out.mkdir()
    argv = [
        "judge", "--config", str(toy_bundle / "config.ini"), "--model", "mock-judge",
        "--summaries", str(summaries), "--out", str(out / "judged.qrels"),
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: no summary of a budget >= 1 in {summaries}\n"
    assert not any(out.iterdir())


def test_agreement_subcommand_identical_files_kappa_one(tmp_path, capsys):
    grades = {("t1", "d1"): 0, ("t1", "d2"): 1, ("t2", "d1"): 2, ("t2", "d3"): 3}
    assert main(_agreement_argv(tmp_path, grades, grades)) == 0
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
    argv = _agreement_argv(tmp_path, {("t1", "d1"): 1, ("t1", "d2"): 0}, {("t1", "d3"): 2})
    assert main(argv) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 4
    for row in rows:
        assert (row["value"], row["n_items"], row["n_missing"], row["flags"]) == (
            "", "0", "3", "degenerate"
        )


def test_effectiveness_and_stability_subcommands(toy_experiment, tmp_path, capsys):
    config_dir = toy_experiment.parent
    per_topic = tmp_path / "per_topic.csv"
    argv = ["--config", str(toy_experiment), "--qrels", str(config_dir / "qrels.txt")]
    assert main(["effectiveness", *argv, "--per-topic-out", str(per_topic)]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert {(row["qrels_source"], row["modality"], row["metric"]) for row in rows} == {
        ("human", "full", "ndcg@10"), ("human", "full", "map"),
    }
    assert per_topic.exists()
    # the config's own qrels rank the runs as the human side does:
    # tau = spearman = rbo = 1, CI [1, 1]
    assert main(["stability", *argv, "--seed", "3"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert [(row["model"], row["modality"], row["metric"]) for row in rows] == [
        ("human", "full", "ndcg@10"), ("human", "full", "map"),
    ]
    for row in rows:
        for name in ("tau", "spearman", "rbo", "tau_lo", "tau_hi"):
            assert float(row[name]) == pytest.approx(1.0), name
        assert (row["dataset"], row["B"], row["seed"]) == ("toy", "500", "3")


def test_effectiveness_subcommand_rejects_a_duplicate_run_tag(toy_experiment, tmp_path, capsys):
    config_dir = toy_experiment.parent
    runs, out = config_dir / "runs", tmp_path / "eff.csv"
    (runs / "zz.txt").write_text((runs / "run2.txt").read_text())
    qrels = str(config_dir / "qrels.txt")
    argv = ["effectiveness", "--config", str(toy_experiment), "--qrels", qrels]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {runs / 'zz.txt'}: duplicate run tag 'run2'\n"
    assert captured.out == ""
    assert not out.exists()


def test_cost_tally_subcommand(toy_experiment, tmp_path, capsys):
    assert main(["run", "--config", str(toy_experiment)]) == 0
    capsys.readouterr()
    out_dir = toy_experiment.parent / "out"
    usage = out_dir / "judgments" / "mock-judge__full.usage.json"
    code = main(
        [
            "cost", "--config", str(toy_experiment),
            "--usage", str(usage),
        ]
    )
    assert code == 0
    row = _csv_rows(capsys.readouterr().out)[0]
    recorded = json.loads(usage.read_text())
    assert (row["stage"], row["modality"]) == (recorded["stage"], recorded["modality"])
    assert (recorded["stage"], recorded["modality"]) == ("judgment", "full")
    assert float(row["input_tokens_millions"]) == pytest.approx(
        recorded["input_tokens"] / 1e6, abs=1e-9
    )


def test_cost_tallies_a_usage_file_without_the_cache(toy_experiment, capsys):
    # a usage file holds its own token counts, so its bundle's cache can be gone
    assert main(["run", "--config", str(toy_experiment)]) == 0
    out_dir = toy_experiment.parent / "out"
    (out_dir / "cache.jsonl").unlink()
    capsys.readouterr()
    argv = [
        "cost", "--config", str(toy_experiment),
        "--usage", str(out_dir / "judgments" / "mock-judge__full.usage.json"),
    ]
    assert main(argv) == 0
    expected = _bundle_lines(
        out_dir / "reports" / "cost.csv", lambda row: row[:2] == ["judgment", "full"]
    )
    assert len(expected) == 2
    assert capsys.readouterr().out.splitlines() == expected


def test_run_costs_a_bundle_whose_cache_is_gone(toy_experiment, capsys):
    # the cost stage reads the usage files, so losing the cache changes no cost
    assert main(["run", "--config", str(toy_experiment)]) == 0
    out_dir = toy_experiment.parent / "out"
    cold = (out_dir / "reports" / "cost.csv").read_bytes()
    (out_dir / "cache.jsonl").unlink()
    (out_dir / "reports" / "cost.csv").unlink()
    capsys.readouterr()
    assert main(["run", "--config", str(toy_experiment)]) == 0
    assert capsys.readouterr().err == ""
    assert (out_dir / "reports" / "cost.csv").read_bytes() == cold


def test_cost_requires_usage_and_takes_no_removed_flag(toy_bundle, capsys):
    # a stage's cost comes from its usage file alone, priced and labelled from the config
    config = str(toy_bundle / "config.ini")
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--config", config])
    assert exc.value.code == 2
    assert "the following arguments are required: --usage" in capsys.readouterr().err
    usage = str(toy_bundle / "out" / "judgments" / "mock-judge__full.usage.json")
    for flag in [["--cache", usage], ["--extrapolate"], ["--prices", usage], ["--dataset", "toy"],
                 ["--pairs", "10"], ["--avg-tokens", "5"], ["--overhead", "3"], ["--model", "m"],
                 ["--stage", "judgment"], ["--modality", "full"]]:
        with pytest.raises(SystemExit) as exc:
            main(["cost", "--config", config, "--usage", usage, *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err, flag


@pytest.mark.parametrize(
    "labels",
    [
        {}, {"modality": "summ:80"}, {"stage": "summarization"},
        {"stage": "summarization", "modality": "full"}, {"stage": "cost", "modality": "full"},
        {"stage": None, "modality": "full"}, {"stage": "judgment", "modality": "summ:0"},
        {"stage": "judgment", "modality": "bogus"}, {"stage": "judgment", "modality": 80},
        {"stage": ["judgment"], "modality": "full"},
    ],
)
def test_a_usage_file_with_bad_labels_is_a_bad_usage_file_error(
    toy_bundle, tmp_path, capsys, labels
):
    # no bundle's cost.csv holds a row of another stage, nor a summarization row
    # but a summ:<B> one
    recorded = json.loads((toy_bundle / "out" / "summaries" / "summ80.usage.json").read_text())
    usage, out = tmp_path / "usage.json", tmp_path / "cost.csv"
    del recorded["stage"], recorded["modality"]
    usage.write_text(json.dumps({**labels, **recorded}))
    argv = ["cost", "--config", str(toy_bundle / "config.ini"), "--usage", str(usage),
            "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {usage}: bad usage file: stage ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "--config", "{config}", "--usage", "{missing}"],
        ["agreement", "--config", "{config}", "--qrels", "{missing}"],
        ["effectiveness", "--config", "{config}", "--qrels", "{missing}"],
        ["stability", "--config", "{config}", "--qrels", "{missing}"],
    ],
    ids=["cost-usage", "agreement", "eff-qrels", "stability"],
)
def test_missing_input_file_is_config_error(toy_bundle, tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    paths = {"config": toy_bundle / "config.ini", "missing": missing}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: path does not exist: {missing}\n"


@pytest.mark.parametrize("flag, path", [("--usage", "dir"), ("--usage", "")])
def test_a_directory_given_as_a_file_is_config_error(
    toy_bundle, tmp_path, capsys, monkeypatch, flag, path
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    assert main(["cost", "--config", str(toy_bundle / "config.ini"), flag, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: path is a directory: {path or '.'}\n"


@pytest.mark.parametrize(
    "content",
    [
        "not json", "{}", "[]", '{"request_hashes": null}', '{"request_hashes": 5}',
        '{"request_hashes": "ab"}', '{"request_hashes": ["ab"], "input_tokens": 1}',
        '{"rows": null}', '{"rows": [["ab", "m", 1]]}', '{"rows": [["ab", 5, 1, 1]]}',
        '{"rows": [["ab", "m", true, 1]]}', '{"rows": [["ab", "m", 1, -1]]}',
        '{"rows": [["ab", "m", 2.0, 1]]}', '{"rows": [["ab", "m", 1, 1], "ab"]}',
    ],
)
def test_bad_usage_file_is_parse_error(toy_bundle, tmp_path, capsys, content):
    usage = tmp_path / "usage.json"
    if content.startswith('{"'):  # well labelled, so each row check is reached
        content = '{"stage": "judgment", "modality": "full", ' + content[1:]
    usage.write_text(content)
    assert main(["cost", "--config", str(toy_bundle / "config.ini"), "--usage", str(usage)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {usage}: bad usage file")


def _toy_config_with(root: Path, old: str, new: str) -> Path:
    """The toy experiment under ``root``, with ``old`` in its config replaced by ``new``."""
    config = build_toy_experiment(root)
    text = config.read_text()
    assert old in text
    config.write_text(text.replace(old, new))
    return config


@pytest.mark.parametrize("resamples", ["0", "-5"])
def test_stability_rejects_non_positive_resamples(tmp_path, capsys, resamples):
    config = _toy_config_with(
        tmp_path, "bootstrap_samples = 500", f"bootstrap_samples = {resamples}"
    )
    argv = ["stability", "--config", str(config), "--qrels", str(tmp_path / "qrels.txt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: bootstrap_samples must be >= 1, got {resamples}\n"


@pytest.mark.parametrize("runs", ["empty", "file", "missing"])
@pytest.mark.parametrize("command", ["agreement", "effectiveness", "stability", "cost"])
def test_a_report_subcommand_needs_run_files(tmp_path, capsys, command, runs):
    config = build_toy_experiment(tmp_path)
    runs_dir, out = tmp_path / "runs", tmp_path / "report.csv"
    for run in runs_dir.iterdir():
        run.unlink()
    if runs != "empty":
        runs_dir.rmdir()
    if runs == "file":
        runs_dir.write_text("")
    judged = ["--usage", str(tmp_path / "x.usage.json")] if command == "cost" else [
        "--qrels", str(tmp_path / "qrels.txt")
    ]
    assert main([command, "--config", str(config), *judged, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: " + {
        "empty": f"no run files found in {runs_dir}",
        "file": f"path is not a directory: {runs_dir}",
        "missing": f"runs_dir path does not exist: {runs_dir}",
    }[runs] + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["summarize", "--config", "{config}", "--budget", "0", "--out", "{out}"], "--budget"),
        (["effectiveness", "--config", "{k_config}", "--qrels", "{qrels}", "--out", "{out}"],
         "ndcg_k"),
        (["effectiveness", "--config", "{t4_config}", "--qrels", "{qrels}", "--out", "{out}"],
         "binarize_threshold"),
        (["agreement", "--config", "{t0_config}", "--qrels", "{qrels}", "--out", "{out}"],
         "binarize_threshold"),
        (["stability", "--config", "{rbo_config}", "--qrels", "{qrels}", "--out", "{out}"],
         "rbo_p"),
    ],
    ids=["budget", "k", "eff-threshold", "agreement-threshold", "rbo-p"],
)
def test_out_of_range_flags_are_config_errors(toy_bundle, tmp_path, capsys, argv, flag):
    paths = {
        "config": toy_bundle / "config.ini",
        "out": tmp_path / "out.jsonl",
        "qrels": toy_bundle / "qrels.txt",
    }
    # a toy config with one setting out of range, built for the case that names it
    edits = {
        "k_config": ("[metrics]\n", "[metrics]\nndcg_k = 0\n"),
        "t4_config": ("binarize_threshold = 1", "binarize_threshold = 4"),
        "t0_config": ("binarize_threshold = 1", "binarize_threshold = 0"),
        "rbo_config": ("[metrics]\n", "[metrics]\nrbo_p = 1.5\n"),
    }
    for name, (old, new) in edits.items():
        if f"{{{name}}}" in argv:
            paths[name] = _toy_config_with(tmp_path / "toy", old, new)
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
    assert judged.modality == Modality("summary", 80)
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
    effectiveness = _csv_rows((reports / "effectiveness.csv").read_text())
    assert len(effectiveness) == 4 * 2 * 3  # (human + 3 cells) x 2 metrics x 3 runs
    for row in effectiveness:
        defined = row["qrels_source"] == "human"
        assert (row["mean"] != "", row["topics_evaluated"] != "0") == (defined, defined)
    for name in ("scatter_ndcg10.csv", "scatter_map.csv"):
        scatter = _csv_rows((reports / name).read_text())
        assert len(scatter) == 3 * 3
        assert "" not in {row["human"] for row in scatter}
        assert {row["llm"] for row in scatter} == {""}


def test_summarize_and_judge_subcommands_write_the_bundle_bytes(toy_bundle, tmp_path):
    config, bundle = str(toy_bundle / "config.ini"), toy_bundle / "out"
    summaries = tmp_path / "summ80.jsonl"
    argv = ["summarize", "--config", config, "--budget", "80", "--out", str(summaries)]
    assert main(argv) == 0
    assert summaries.read_bytes() == (bundle / "summaries" / "summ80.jsonl").read_bytes()
    judged = tmp_path / "judged.qrels"
    argv = [
        "judge", "--config", config, "--model", "mock-judge",
        "--summaries", str(summaries), "--out", str(judged),
    ]
    assert main(argv) == 0
    for suffix in ("", ".meta.json"):
        expected = bundle / "judgments" / f"mock-judge__summ-80.qrels{suffix}"
        assert Path(f"{judged}{suffix}").read_bytes() == expected.read_bytes()
    for suffix in (".errors.json", ".usage.json"):
        expected = bundle / "summaries" / f"summ80{suffix}"
        assert (tmp_path / f"summ80{suffix}").read_bytes() == expected.read_bytes()
    for suffix in (".errors.json", ".usage.json"):
        expected = bundle / "judgments" / f"mock-judge__summ-80{suffix}"
        assert (tmp_path / f"judged{suffix}").read_bytes() == expected.read_bytes()


def test_cost_tallies_the_usage_file_of_the_judge_subcommand(toy_bundle, tmp_path, capsys):
    config, bundle = str(toy_bundle / "config.ini"), toy_bundle / "out"
    summaries, judged = tmp_path / "summ80.jsonl", tmp_path / "judged.qrels"
    argv = ["summarize", "--config", config, "--budget", "80", "--out", str(summaries)]
    assert main(argv) == 0
    argv = [
        "judge", "--config", config, "--model", "mock-judge",
        "--summaries", str(summaries), "--out", str(judged),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    argv = ["cost", "--config", config, "--usage", str(tmp_path / "judged.usage.json")]
    assert main(argv) == 0
    # the toy experiment has one model, so its cell's tally is the modality's row
    expected = _bundle_lines(
        bundle / "reports" / "cost.csv", lambda row: row[:2] == ["judgment", "summ:80"]
    )
    assert len(expected) == 2
    assert capsys.readouterr().out.splitlines() == expected


def test_the_summarize_and_judge_subcommands_close_the_cache_file(toy_experiment, tmp_path):
    config = str(toy_experiment)
    summaries = tmp_path / "summ80.jsonl"
    gc.collect()  # what earlier tests left open warns now, not below
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        argv = ["summarize", "--config", config, "--budget", "80", "--out", str(summaries)]
        assert main(argv) == 0
        argv = [
            "judge", "--config", config, "--model", "mock-judge",
            "--summaries", str(summaries), "--out", str(tmp_path / "judged.qrels"),
        ]
        assert main(argv) == 0
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("text", [None, 5])
def test_judge_rejects_a_summary_whose_text_is_not_a_string(toy_experiment, tmp_path, capsys, text):
    record = {
        "doc_id": "d01", "budget_tokens": 80, "text": text, "output_token_count": 1,
        "model": "mock-judge", "prompt_sha256": "ab", "flags": [],
    }
    summaries, out = tmp_path / "summ80.jsonl", tmp_path / "judged.qrels"
    summaries.write_text(json.dumps(record) + "\n")
    argv = [
        "judge", "--config", str(toy_experiment), "--model", "mock-judge",
        "--summaries", str(summaries), "--out", str(out),
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {summaries}:1: 'text' must be a str")
    assert not out.exists()


def test_judge_pricing_error_exit_code_1(toy_experiment, tmp_path):
    # a price table missing the mock model fails in the cost stage
    prices = toy_experiment.parent / "prices.json"
    prices.write_text(json.dumps({"other": {"input_usd_per_1m": 1, "output_usd_per_1m": 1}}))
    assert main(["run", "--config", str(toy_experiment)]) == 1


def test_judge_subcommand_follows_pool_runs(toy_experiment, tmp_path):
    config = toy_experiment.read_text().replace(
        "[experiment]\n", "[experiment]\npool = runs\npool_depth = 10\n"
    )
    toy_experiment.write_text(config.replace("full, summ:80, summ:120", "full"))
    assert main(["run", "--config", str(toy_experiment)]) == 0
    out = tmp_path / "full.qrels"
    assert (
        main(
            [
                "judge", "--config", str(toy_experiment),
                "--model", "mock-judge", "--out", str(out),
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


@pytest.fixture(scope="module")
def non_default_bundle(tmp_path_factory) -> Path:
    """Input directory of one completed toy ``run`` whose config moves every
    report setting off its default; the bundle is under ``out/``."""
    config = build_toy_experiment(tmp_path_factory.mktemp("toy-non-default"))
    text = config.read_text().replace("dataset = toy", "dataset = toy-nd")
    text = text.replace("binarize_threshold = 1", "binarize_threshold = 2")
    config.write_text(text.replace("[metrics]\n", "[metrics]\nndcg_k = 5\ngain = exponential\n"))
    assert main(["run", "--config", str(config)]) == 0
    return config.parent


@pytest.fixture(scope="module")
def two_model_bundle(tmp_path_factory) -> Path:
    """Input directory of one completed ``run`` of the toy experiment judged by
    ``mock-judge`` and ``other``, which share every modality; the bundle is under ``out/``."""
    config = build_two_model_experiment(tmp_path_factory.mktemp("toy-two-models"))
    assert main(["run", "--config", str(config)]) == 0
    return config.parent


# (report subcommand, its bundle report, the columns naming a row's cell, rows per cell)
_CELL_REPORTS = [
    ("agreement", "agreement.csv", slice(0, 2), 4),
    ("effectiveness", "effectiveness.csv", slice(2, 4), 6),
    ("stability", "stability.csv", slice(1, 3), 2),
]


def test_stage_subcommands_match_bundle_reports(
    toy_bundle, non_default_bundle, two_model_bundle, tmp_path
):
    # each report subcommand writes Q's rows of its bundle report, labelled from
    # Q's sidecar, with every setting from the config: first the toy config, then
    # one with ndcg_k, gain, binarize_threshold and dataset off their defaults,
    # then one whose two models share every modality, so only Q's sidecar tells
    # their cells apart
    out, per_topic = tmp_path / "report.csv", tmp_path / "per_topic.csv"
    for bundle in (toy_bundle, non_default_bundle, two_model_bundle):
        reports, config = bundle / "out" / "reports", str(bundle / "config.ini")
        models = load_config(config).models
        for model, cell in [(m, c) for m in models for c in ("full", "summ-80", "summ-120")]:
            judged = bundle / "out" / "judgments" / f"{model}__{cell}.qrels"
            argv = ["--config", config, "--qrels", str(judged), "--out", str(out)]
            name = [model, cell.replace("-", ":")]
            for command, report, columns, rows in _CELL_REPORTS:
                extra = ["--per-topic-out", str(per_topic)] if command == "effectiveness" else []
                assert main([command, *argv, *extra]) == 0
                expected = _bundle_lines(reports / report, lambda row: row[columns] == name)
                assert len(expected) == 1 + rows
                assert _lines(out) == expected
            expected = _bundle_lines(
                reports / "effectiveness_per_topic.csv", lambda row: row[2:4] == name
            )
            assert len(expected) > 1
            assert _lines(per_topic) == expected

        # the config's own qrels give the bundle's human rows
        argv = ["--config", config, "--qrels", str(bundle / "qrels.txt"), "--out", str(out)]
        assert main(["effectiveness", *argv, "--per-topic-out", str(per_topic)]) == 0
        for got, report in [(out, "effectiveness.csv"), (per_topic, "effectiveness_per_topic.csv")]:
            expected = _bundle_lines(reports / report, lambda row: row[2] == "human")
            assert len(expected) > 1
            assert _lines(got) == expected

        # cost.csv has no model column: a judgment row sums every model's usage file
        # of its modality, in the config's model order, and so does the subcommand
        # given them; each row is labelled from its files
        rows = [("summarization", [f"summaries/summ{b}"], f"summ:{b}") for b in (80, 120)]
        rows += [("judgment", [f"judgments/{m}__{cell}" for m in models], cell.replace("-", ":"))
                 for cell in ("full", "summ-80", "summ-120")]
        for stage, stems, modality in rows:
            usage = [str(bundle / "out" / f"{stem}.usage.json") for stem in stems]
            assert main(["cost", "--config", config, "--usage", *usage, "--out", str(out)]) == 0
            expected = _bundle_lines(reports / "cost.csv", lambda row: row[:2] == [stage, modality])
            assert len(expected) == 2
            assert _lines(out) == expected
            assert expected[1].split(",")[2] == load_config(config).dataset
        # and every usage file, in the cost stage's order, gives the whole report
        usage = [str(bundle / "out" / f"{s}.usage.json") for _, stems, _ in rows for s in stems]
        assert main(["cost", "--config", config, "--usage", *usage, "--out", str(out)]) == 0
        assert out.read_bytes() == (reports / "cost.csv").read_bytes()


def test_the_package_version_has_one_source():
    # pyproject.toml takes the version from the package, so the two cannot disagree
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "judgeval.__version__"}


@pytest.mark.parametrize(
    "kind, text, marker",
    [("judge", "Rate <QUERY> 0-3\n", "<PASSAGE>"), ("summary", "About <N> tokens\n", "<DOC>")],
)
def test_a_template_without_its_markers_is_a_config_error(tmp_path, capsys, kind, text, marker):
    config = build_toy_experiment(tmp_path)
    (tmp_path / "prompt.txt").write_text(text)
    with config.open("a") as handle:
        handle.write(f"[prompts]\n{kind}_template = prompt.txt\n")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {kind} template missing {marker} placeholder\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("which", ["config", "template"])
def test_a_config_or_template_that_is_not_utf8_is_a_config_error(tmp_path, capsys, which):
    config = build_toy_experiment(tmp_path)
    if which == "config":
        bad = config
        text = config.read_bytes().replace(b"dataset = toy", b"dataset = caf\xe9")
    else:
        bad = tmp_path / "summary.txt"
        bad.write_bytes(b"Summ\xe9 <N> <DOC>\n")
        text = config.read_bytes() + b"[prompts]\nsummary_template = summary.txt\n"
    config.write_bytes(text)
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: ") and "not UTF-8" in err
    assert not (tmp_path / "out").exists()


def _readme_commands() -> list[list[str]]:
    """The argv of each ``judgeval ...`` line in README's fenced blocks, with
    continuation lines joined and ``#`` comments dropped."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands, fenced, line = [], False, ""
    for raw in readme.read_text(encoding="utf-8").splitlines():
        if raw.lstrip().startswith("```"):
            fenced, line = not fenced, ""
            continue
        if not fenced:
            continue
        line += raw
        if line.endswith("\\"):
            line = line[:-1]
            continue
        if line.lstrip().startswith("judgeval "):
            commands.append(shlex.split(line, comments=True))
        line = ""
    return commands


def test_every_readme_command_parses(capsys):
    commands = _readme_commands()
    assert len(commands) >= 12
    for argv in commands:
        try:
            _build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"{shlex.join(argv)}: {capsys.readouterr().err}")
