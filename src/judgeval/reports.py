"""CSV report schemas: one function per report, returning the report's text.

``judgeval run`` and the stage subcommands both format their reports here,
so a subcommand writes the same columns, row set and float precision as the
matching file under a bundle's ``reports/`` directory. A judged cell's rows
are labelled with the model and modality of its ``JudgmentSet`` (or, in the
scatter, of its effectiveness rows); the human qrels are ``human,full``.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable

from .agreement import GRADED_LABELS, agreement_report, format_percentages, label_distribution
from .cost import CostReport
from .effectiveness import EffectivenessRow, ScoreTable
from .stability import StabilityReport
from .trec_io import JudgmentSet

_ROW_KEY = ["run_tag", "metric", "qrels_source", "modality"]


def _decimal(value: float | None) -> str:
    """Six decimals; an empty field for a statistic too few items left undefined."""
    return "" if value is None else f"{value:.6f}"


def csv_text(header: list[str], rows: Iterable[list]) -> str:
    """A header plus rows as CSV text with ``\\n`` line endings."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def agreement_csv(
    dataset: str,
    threshold: int,
    reference: JudgmentSet,
    cells: Iterable[JudgmentSet],
) -> str:
    """Agreement of each judged cell with ``reference``: quadratic-weighted
    kappa and ordinal alpha on grades, then kappa and nominal alpha with both
    sides binarized at ``threshold``."""
    rows = []
    for judged in cells:
        report = agreement_report(reference, judged, threshold)
        stats = {
            "weighted_kappa_quadratic": report.weighted_kappa,
            "alpha_ordinal": report.alpha_ordinal,
            f"kappa_binary_t{threshold}": report.kappa_binary,
            f"alpha_nominal_binary_t{threshold}": report.alpha_nominal_binary,
        }
        rows += [
            [
                judged.label(), str(judged.modality), dataset, name, _decimal(stat.value),
                report.n_items, report.n_missing, "degenerate" if stat.degenerate else "",
            ]
            for name, stat in stats.items()
        ]
    header = ["model", "modality", "dataset", "metric", "value", "n_items", "n_missing", "flags"]
    return csv_text(header, rows)


def effectiveness_csvs(table: ScoreTable) -> tuple[str, str, str]:
    """Mean, per-topic and coverage CSV text for every row of ``table``, in
    the order of its keys."""
    # by the label string: "gpt-4o:full" sorts after "gpt-4o-mini:full"
    rows = [row for key in sorted(table) for row in table[key]]

    def key(row: EffectivenessRow) -> list:
        return [row.run_tag, row.metric, row.qrels_source, row.modality]

    # generators: the per-topic table is the largest report, so stream its rows
    means = (key(row) + [_decimal(row.mean), row.topics_evaluated] for row in rows)
    per_topic = (
        key(row) + [topic_id, f"{row.per_topic[topic_id]:.6f}"]
        for row in rows
        for topic_id in sorted(row.per_topic)
    )
    coverage = (
        key(row)
        + [
            row.topics_evaluated,
            row.topics_skipped_unjudged,
            row.topics_skipped_no_relevant,
            row.unjudged_at_cutoff,
        ]
        for row in rows
    )
    coverage_header = _ROW_KEY + [
        "topics_evaluated", "topics_skipped_unjudged",
        "topics_skipped_no_relevant", "unjudged_at_cutoff",
    ]
    return (
        csv_text(_ROW_KEY + ["mean", "topics_evaluated"], means),
        csv_text(_ROW_KEY + ["topic_id", "value"], per_topic),
        csv_text(coverage_header, coverage),
    )


def scatter_csv(cells: Iterable[tuple[list[EffectivenessRow], list[EffectivenessRow]]]) -> str:
    """Human against LLM mean score per run, for each cell's ``(human_rows,
    llm_rows)``, labelled from the LLM rows; both hold the same runs in one order."""
    rows = [
        [llm.qrels_source, llm.modality, llm.metric, llm.run_tag,
         _decimal(human.mean), _decimal(llm.mean)]
        for human_rows, llm_rows in cells
        for human, llm in zip(human_rows, llm_rows, strict=True)
    ]
    return csv_text(["model", "modality", "metric", "run_tag", "human", "llm"], rows)


def stability_csv(
    dataset: str,
    cells: Iterable[tuple[JudgmentSet, str, StabilityReport]],
    *,
    rbo_p: float,
    n_resamples: int,
    seed: int,
) -> str:
    """Rank correlations, tau CI and RBO for each ``(judged cell, metric,
    report)``, with the RBO ``p`` and the bootstrap's resample count and seed."""
    rows = [
        [
            dataset, judged.label(), str(judged.modality), metric,
            _decimal(report.kendall_tau.value), _decimal(report.tau_ci_low),
            _decimal(report.tau_ci_high), _decimal(report.spearman_rho.value),
            _decimal(report.pearson_rho.value), _decimal(report.rbo),
            f"{rbo_p}", n_resamples, seed,
        ]
        for judged, metric, report in cells
    ]
    header = [
        "dataset", "model", "modality", "metric",
        "tau", "tau_lo", "tau_hi", "spearman", "pearson", "rbo", "p", "B", "seed",
    ]
    return csv_text(header, rows)


def distribution_csv(dataset: str, reference: JudgmentSet, cells: Iterable[JudgmentSet]) -> str:
    """Percentage of each grade of the human ``reference``, then of each
    judged cell; empty grade fields for an annotator with no judgments."""

    def row(annotator: str, modality: str, judgments: JudgmentSet) -> list:
        shares = format_percentages(label_distribution(judgments)) if len(judgments) else {}
        grades = [shares.get(g, "") for g in GRADED_LABELS]
        return [annotator, modality, dataset] + grades + [len(judgments)]

    rows = [row("human", "full", reference)]
    rows += [row(judged.label(), str(judged.modality), judged) for judged in cells]
    header = ["annotator", "modality", "dataset"] + [f"grade_{g}" for g in GRADED_LABELS]
    return csv_text(header + ["n_judgments"], rows)


def cost_csv(dataset: str, tallies: Iterable[tuple[tuple[str, str], CostReport]]) -> str:
    """Input tokens (millions) and dollar cost of each ``((stage, modality),
    tally)``, a row labelled from its key."""
    rows = [
        [stage, modality, dataset, f"{r.input_tokens / 1e6:.6f}", f"{r.usd:.6f}"]
        for (stage, modality), r in tallies
    ]
    return csv_text(["stage", "modality", "dataset", "input_tokens_millions", "cost_usd"], rows)
