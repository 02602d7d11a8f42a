"""Command-line entry points.

``judgeval run`` drives the whole experiment from a config file; the other
subcommands run one stage in isolation over explicit input/output paths so
any report can be reproduced or debugged on its own.

Exit codes: 0 success, 1 fatal stage error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, reports
from .config import ExperimentConfig, load_config
from .cost import (
    DEFAULT_PRICES,
    extrapolate,
    load_price_table,
    price_for,
    tally_observed,
    usage_entries,
)
from .errors import ConfigError, JudgevalError
from .gateway import ResponseCache
from .pipeline import Experiment, effectiveness_by_metric, run_pipeline
from .stability import SystemScores, stability_report
from .summarizer import read_summaries, write_summaries
from .trec_io import Modality, atomic_write_text, load_runs_dir, parse_qrels, write_judgments


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
    except NotADirectoryError as exc:
        print(f"config error: path is not a directory: {exc.filename}", file=sys.stderr)
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
    configured.add_argument("--mock", action="store_true", help="force the mock backend")

    run = sub.add_parser(
        "run", parents=[configured], help="run the full pipeline from a config file"
    )
    run.add_argument("--model", help="restrict to one configured model")
    run.add_argument(
        "--modality", help="restrict to one modality (full | summ:80 | summ:120)"
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
        "judge", parents=[configured], help="judge one model x modality cell"
    )
    judge.add_argument("--model", required=True)
    judge.add_argument("--modality", required=True)
    judge.add_argument(
        "--summaries", help="summaries JSONL (required for summary modalities)"
    )
    judge.add_argument("--out", required=True)
    judge.set_defaults(handler=_cmd_judge)

    agree = sub.add_parser("agreement", help="agreement between two qrels files")
    agree.add_argument("--qrels-a", required=True, help="reference judgments")
    agree.add_argument("--qrels-b", required=True, help="candidate judgments")
    agree.add_argument("--threshold", type=int, default=1)
    agree.add_argument("--dataset", default="-")
    agree.add_argument("--out")
    agree.set_defaults(handler=_cmd_agreement)

    eff = sub.add_parser("effectiveness", help="evaluate runs under a qrels file")
    eff.add_argument("--qrels", required=True)
    eff.add_argument("--runs-dir", required=True)
    eff.add_argument("--k", type=int, default=10)
    eff.add_argument("--gain", choices=("linear", "exponential"), default="linear")
    eff.add_argument("--threshold", type=int, default=1)
    eff.add_argument("--out")
    eff.add_argument("--per-topic-out")
    eff.set_defaults(handler=_cmd_effectiveness)

    stab = sub.add_parser("stability", help="ranking stability between two score tables")
    stab.add_argument("--per-topic-h", required=True, help="per-topic CSV, human side")
    stab.add_argument("--per-topic-l", required=True, help="per-topic CSV, LLM side")
    stab.add_argument("--metric", required=True)
    stab.add_argument("--rbo-p", type=float, default=0.9)
    stab.add_argument("--resamples", type=int, default=2000)
    stab.add_argument("--seed", type=int, default=0)
    stab.add_argument("--dataset", default="-")
    stab.add_argument("--model", default="-")
    stab.add_argument("--modality", default="-")
    stab.add_argument("--out")
    stab.set_defaults(handler=_cmd_stability)

    cost = sub.add_parser("cost", help="token/cost tally or extrapolation")
    cost.add_argument("--cache", help="response cache JSONL to tally")
    cost.add_argument("--usage", help="usage JSON restricting the tally to one stage")
    cost.add_argument("--stage", default="judgment")
    cost.add_argument("--modality", default="full")
    cost.add_argument("--dataset", default="-")
    cost.add_argument("--prices", help="price table JSON")
    cost.add_argument("--extrapolate", action="store_true")
    cost.add_argument("--pairs", type=int)
    cost.add_argument("--avg-tokens", type=float)
    cost.add_argument("--overhead", type=float, default=0.0)
    cost.add_argument("--model", default="gpt-4o")
    cost.add_argument("--out")
    cost.set_defaults(handler=_cmd_cost)

    return parser


def _load_config_with_overrides(args) -> ExperimentConfig:
    config = load_config(args.config)
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "mock", False):
        updates["backend"] = "mock"
    if args.command == "run":
        # run executes the configured grid; filters narrow it, other
        # subcommands take their model/modality/paths verbatim
        if args.model:
            if args.model not in config.models:
                raise ConfigError(f"model {args.model!r} is not configured")
            updates["models"] = [args.model]
        if args.modality:
            modality = _parse_modality(args.modality)
            if str(modality) not in {str(m) for m in config.modalities}:
                raise ConfigError(f"modality {args.modality!r} is not configured")
            updates["modalities"] = [modality]
        if args.out:
            updates["output_dir"] = Path(args.out)
    return replace(config, **updates) if updates else config


def _parse_modality(text: str) -> Modality:
    try:
        return Modality.parse(text)
    except ValueError as exc:
        raise ConfigError(f"bad --modality {text!r}: {exc}") from exc


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


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
    _check(args.budget >= 1, "--budget must be >= 1")
    experiment = Experiment(_load_config_with_overrides(args))
    summaries = experiment.summarize(args.budget, experiment.gateway)
    write_summaries(summaries, args.out)
    print(f"{len(summaries)} summaries -> {args.out} ({len(summaries.errors)} errors)")
    return 0


def _cmd_judge(args) -> int:
    modality = _parse_modality(args.modality)
    experiment = Experiment(_load_config_with_overrides(args))
    summaries = None
    if modality.kind == "summary":
        if not args.summaries:
            raise ConfigError("summary modalities need --summaries")
        summaries = read_summaries(args.summaries)
        if summaries.budget_tokens != modality.budget_tokens:
            raise ConfigError(
                f"summaries budget {summaries.budget_tokens} does not match {modality}"
            )
    result, skipped = experiment.judge(args.model, modality, summaries, experiment.gateway)
    write_judgments(result.judgments, args.out)
    print(
        f"{len(result.judgments)} judgments -> {args.out} "
        f"({len(result.failures)} failed, {len(skipped)} pairs skipped)"
    )
    return 0


def _cmd_agreement(args) -> int:
    _check(args.threshold in (1, 2, 3), "--threshold must be 1, 2 or 3")
    a = parse_qrels(args.qrels_a)
    b = parse_qrels(args.qrels_b)
    cell = (b.source.label(), str(b.modality), b)
    _emit(reports.agreement_csv(args.dataset, args.threshold, a, [cell]), args.out)
    return 0


def _cmd_effectiveness(args) -> int:
    _check(args.k >= 1, "--k must be >= 1")
    _check(args.threshold in (1, 2, 3), "--threshold must be 1, 2 or 3")
    qrels = parse_qrels(args.qrels)
    runs = load_runs_dir(args.runs_dir)
    by_metric = effectiveness_by_metric(
        runs, qrels, k=args.k, gain=args.gain, threshold=args.threshold
    )
    means, per_topic, _ = reports.effectiveness_csvs(
        [row for metric in sorted(by_metric) for row in by_metric[metric]]
    )
    _emit(means, args.out)
    if args.per_topic_out:
        _emit(per_topic, args.per_topic_out)
    return 0


def _system_scores(path: str, metric: str) -> SystemScores:
    try:
        rows = reports.read_per_topic(path, metric)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"no rows for metric {metric!r} in {path}")
    try:
        return SystemScores.from_rows(rows)
    except ValueError as exc:
        sources = sorted({f"{row.qrels_source}:{row.modality}" for row in rows})
        raise ConfigError(f"{path} mixes qrels sources for {metric}: {sources}") from exc


def _cmd_stability(args) -> int:
    _check(args.resamples >= 1, "--resamples must be >= 1")
    _check(0.0 < args.rbo_p < 1.0, "--rbo-p must lie strictly between 0 and 1")
    report = stability_report(
        _system_scores(args.per_topic_h, args.metric),
        _system_scores(args.per_topic_l, args.metric),
        rbo_p=args.rbo_p,
        n_resamples=args.resamples,
        seed=args.seed,
    )
    cell = (args.model, args.modality, report)
    _emit(reports.stability_csv(args.dataset, [cell]), args.out)
    return 0


def _cmd_cost(args) -> int:
    prices = load_price_table(args.prices) if args.prices else dict(DEFAULT_PRICES)
    if args.extrapolate:
        if args.pairs is None or args.avg_tokens is None:
            raise ConfigError("--extrapolate needs --pairs and --avg-tokens")
        _check(
            min(args.pairs, args.avg_tokens, args.overhead) >= 0,
            "--pairs, --avg-tokens and --overhead must be >= 0",
        )
        report = extrapolate(
            args.pairs,
            args.avg_tokens,
            args.overhead,
            price_for(args.model, prices),
            stage=args.stage,
            modality=args.modality,
        )
    else:
        if not args.cache:
            raise ConfigError("either --cache or --extrapolate is required")
        if not Path(args.cache).exists():
            raise ConfigError(f"cache path does not exist: {args.cache}")
        cache = ResponseCache(args.cache)
        entries = usage_entries(args.usage, cache) if args.usage else list(cache.entries())
        report = tally_observed(
            entries, prices, stage=args.stage, modality=args.modality
        )
    _emit(reports.cost_csv(args.dataset, [report]), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
