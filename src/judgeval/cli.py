"""Command-line entry points.

``judgeval run`` drives the whole experiment from a config file; the other
subcommands run one stage in isolation so any report can be reproduced or
debugged on its own. ``summarize``, ``judge`` and the four report subcommands
(``agreement``, ``effectiveness``, ``stability``, ``cost``) take the config
too and go through the same ``pipeline`` code as ``run``. The config is the
only source of its settings: the grid (``models``, ``modalities``), the
backend, the dataset and the price table are edited there, and a flag
overrides only ``--seed``, ``run --out`` and ``judge``'s one model. A cell
comes from the input files: ``judge``'s from its ``--summaries`` (``full``
without), and a report row's labels from Q's sidecar (as the bundle's
reports label each cell from its judgments' provenance) or the usage files.

Exit codes: 0 success, 1 fatal stage error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, reports
from .config import ExperimentConfig, load_config
from .errors import ConfigError, JudgevalError
from .pipeline import Experiment, cell_key, run_pipeline
from .summarizer import read_summaries
from .trec_io import FULL_DOCUMENT, Modality, atomic_write_text, parse_qrels


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: path does not exist: {exc.filename}", file=sys.stderr)
        return 2
    except (IsADirectoryError, NotADirectoryError) as exc:
        wrong = "a directory" if isinstance(exc, IsADirectoryError) else "not a directory"
        print(f"config error: path is {wrong}: {exc.filename}", file=sys.stderr)
        return 2
    except JudgevalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="judgeval",
        description="LLM relevance judging workbench: summaries, judgments, and reports.",
    )
    parser.add_argument("--version", action="version", version=f"judgeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", required=True)
    configured.add_argument("--seed", type=int, help="override the configured seed")

    run = sub.add_parser(
        "run", parents=[configured], help="run the full pipeline from a config file"
    )
    run.add_argument("--out", help="override the configured output directory")
    run.add_argument("--force", action="store_true", help="rerun all stages")
    run.set_defaults(handler=_cmd_run)

    summ = sub.add_parser(
        "summarize", parents=[configured], help="summarize a corpus at one budget"
    )
    summ.add_argument("--budget", type=int, required=True)
    summ.add_argument("--out", required=True)
    summ.set_defaults(handler=_cmd_summarize)

    judge = sub.add_parser(
        "judge", parents=[configured], help="judge one model's full or summary cell"
    )
    judge.add_argument("--model", required=True)
    judge.add_argument("--summaries", help="summaries JSONL: judge their budget's cell, not full")
    judge.add_argument("--out", required=True)
    judge.set_defaults(handler=_cmd_judge)

    # the report subcommands: the rows of one cell (Q) or usage file, settings from the config
    reported = argparse.ArgumentParser(add_help=False)
    reported.add_argument("--config", required=True)
    reported.add_argument("--out")
    for name, about in [
        ("agreement", "agreement of one judgment set with the human qrels"),
        ("effectiveness", "evaluate the runs under one judgment set"),
        ("stability", "ranking stability of one judgment set"),
        ("cost", "token and dollar cost of stage usage files"),
    ]:
        report = sub.add_parser(name, parents=[reported], help=about)
        report.set_defaults(handler=_cmd_report, seed=None, per_topic_out=None)
        if name != "cost":
            report.add_argument("--qrels", required=True, help="the judgments Q of one cell")
    sub.choices["effectiveness"].add_argument("--per-topic-out")
    sub.choices["stability"].add_argument("--seed", type=int, help="override the configured seed")
    sub.choices["cost"].add_argument("--usage", required=True, nargs="+", help="usage JSON files")

    return parser


def _load_config_with_overrides(args) -> ExperimentConfig:
    config = load_config(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.command == "judge":  # its model need not be configured, but is checked as one
        updates["models"] = [args.model]
    if args.command == "run" and args.out:
        updates["output_dir"] = Path(args.out)
    return replace(config, **updates) if updates else config


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write_text(Path(out), text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    config = _load_config_with_overrides(args)
    result = run_pipeline(config, force=args.force)
    for outcome in result.outcomes:
        print(f"{outcome.status:>7}  {outcome.name}")
    print(
        f"done: {len(result.stages_run())} stages ran, "
        f"{len(result.stages_skipped())} skipped, "
        f"{result.backend_calls} backend calls ({result.cache_hits} cache hits)"
    )
    print(f"manifest: {result.manifest_path}")
    return 0


def _cmd_summarize(args) -> int:
    if args.budget < 1:
        raise ConfigError("--budget must be >= 1")
    with Experiment(_load_config_with_overrides(args)) as experiment:
        summaries = experiment.summarize(args.budget, Path(args.out))
    print(f"{len(summaries)} summaries -> {args.out} ({len(summaries.errors)} errors)")
    return 0


def _cmd_judge(args) -> int:
    experiment = Experiment(_load_config_with_overrides(args))
    summaries, modality = None, FULL_DOCUMENT
    if args.summaries is not None:  # the summary cell at the file's budget
        summaries = read_summaries(args.summaries)
        if summaries.budget_tokens < 1:
            raise ConfigError(f"no summary of a budget >= 1 in {args.summaries}")
        modality = Modality("summary", summaries.budget_tokens)
    with experiment:
        result, skipped = experiment.judge(args.model, modality, summaries, Path(args.out))
    print(
        f"{len(result.judgments)} judgments -> {args.out} "
        f"({len(result.failures)} failed, {len(skipped)} pairs skipped)"
    )
    return 0


def _cmd_report(args) -> int:
    experiment = Experiment(_load_config_with_overrides(args))  # checks the config's inputs
    if args.command == "cost":  # a row per stage and modality the files U record, in order
        _emit(experiment.cost_text([Path(usage) for usage in args.usage]), args.out)
        return 0
    judged = parse_qrels(args.qrels)  # labels Q's rows, as the bundle's reports label a cell's
    if args.command == "agreement":
        texts = [experiment.agreement_text([judged])]
    elif args.command == "effectiveness":
        texts = reports.effectiveness_csvs(experiment.score_runs([(cell_key(judged), judged)]))
    else:
        table = experiment.score_runs(experiment.sources([judged]))
        texts = [experiment.stability_text(table, [judged])]
    _emit(texts[0], args.out)
    if args.per_topic_out:
        _emit(texts[1], args.per_topic_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
