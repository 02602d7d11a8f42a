"""CSV report schemas: one function per report, returning the report's text.

``judgeval run`` and the stage subcommands both format their reports here,
so a subcommand writes the same columns, row set and float precision as the
matching file under a bundle's ``reports/`` directory.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable

from .agreement import GRADED_LABELS, agreement_report, format_percentages, label_distribution
from .cost import CostReport
from .effectiveness import EffectivenessRow, ScatterPoint
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
    cells: Iterable[tuple[str, str, JudgmentSet]],
) -> str:
    """Agreement of each ``(model, modality, judgments)`` cell with
    ``reference``: quadratic-weighted kappa and ordinal alpha on grades, then
    kappa and nominal alpha with both sides binarized at ``threshold``."""
    rows = []
    for model, modality, judged in cells:
        report = agreement_report(reference, judged, threshold)
        stats = {
            "weighted_kappa_quadratic": report.weighted_kappa,
            "alpha_ordinal": report.alpha_ordinal,
            f"kappa_binary_t{threshold}": report.kappa_binary,
            f"alpha_nominal_binary_t{threshold}": report.alpha_nominal_binary,
        }
        rows += [
            [
                model, modality, dataset, name, _decimal(stat.value),
                report.n_items, report.n_missing, "degenerate" if stat.degenerate else "",
            ]
            for name, stat in stats.items()
        ]
    header = ["model", "modality", "dataset", "metric", "value", "n_items", "n_missing", "flags"]
    return csv_text(header, rows)


def effectiveness_csvs(rows: list[EffectivenessRow]) -> tuple[str, str, str]:
    """Mean, per-topic and coverage CSV text for the same effectiveness rows."""

    def key(row: EffectivenessRow) -> list:
        return [row.run_tag, row.metric, row.qrels_source, row.modality]

    # generators: the per-topic table is the largest report, so stream its rows
    means = (key(row) + [f"{row.mean:.6f}", row.topics_evaluated] for row in rows)
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


def read_per_topic(path: str | Path, metric: str) -> list[EffectivenessRow]:
    """Parse a per-topic CSV back into one row per (run, qrels source, modality)
    for ``metric``; only the per-topic scores and the mean are recovered.

    Raises ``ValueError`` on a malformed value or a repeated topic.
    """
    groups: dict[tuple[str, str, str], dict[str, float]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line in csv.DictReader(fh):
            if line["metric"] != metric:
                continue
            key = (line["run_tag"], line["qrels_source"], line["modality"])
            per_topic = groups.setdefault(key, {})
            if line["topic_id"] in per_topic:
                raise ValueError(f"topic {line['topic_id']} repeated for {key}")
            per_topic[line["topic_id"]] = float(line["value"])
    return [
        EffectivenessRow(
            run_tag=tag,
            metric=metric,
            qrels_source=source,
            modality=modality,
            per_topic=per_topic,
            mean=sum(per_topic.values()) / len(per_topic),
            topics_evaluated=len(per_topic),
            topics_skipped_unjudged=0,
            topics_skipped_no_relevant=0,
            unjudged_at_cutoff=0,
        )
        for (tag, source, modality), per_topic in groups.items()
    ]


def scatter_csv(cells: Iterable[tuple[str, str, list[ScatterPoint]]]) -> str:
    """Human against LLM mean score per run, for each ``(model, modality, points)``."""
    rows = [
        [
            model, modality, point.metric, point.run_tag,
            f"{point.human_score:.6f}", f"{point.llm_score:.6f}",
        ]
        for model, modality, points in cells
        for point in points
    ]
    return csv_text(["model", "modality", "metric", "run_tag", "human", "llm"], rows)


def stability_csv(dataset: str, cells: Iterable[tuple[str, str, StabilityReport]]) -> str:
    """Rank correlations, tau CI and RBO for each ``(model, modality, report)``."""
    rows = [
        [
            dataset, model, modality, report.metric,
            _decimal(report.kendall_tau.value), _decimal(report.tau_ci_low),
            _decimal(report.tau_ci_high), _decimal(report.spearman_rho.value),
            _decimal(report.pearson_rho.value), _decimal(report.rbo),
            f"{report.rbo_p}", report.n_resamples, report.seed,
        ]
        for model, modality, report in cells
    ]
    header = [
        "dataset", "model", "modality", "metric",
        "tau", "tau_lo", "tau_hi", "spearman", "pearson", "rbo", "p", "B", "seed",
    ]
    return csv_text(header, rows)


def distribution_csv(dataset: str, annotators: Iterable[tuple[str, str, JudgmentSet]]) -> str:
    """Percentage of each grade per ``(annotator, modality, judgments)``;
    empty grade fields for an annotator with no judgments."""
    rows = []
    for annotator, modality, judgments in annotators:
        shares = format_percentages(label_distribution(judgments)) if len(judgments) else {}
        grades = [shares.get(g, "") for g in GRADED_LABELS]
        rows.append([annotator, modality, dataset] + grades + [len(judgments)])
    header = ["annotator", "modality", "dataset"] + [f"grade_{g}" for g in GRADED_LABELS]
    return csv_text(header + ["n_judgments"], rows)


def cost_csv(dataset: str, tallies: Iterable[CostReport]) -> str:
    """Input tokens (millions) and dollar cost per stage and modality."""
    rows = [
        [r.stage, r.modality, dataset, f"{r.input_tokens / 1e6:.6f}", f"{r.usd:.6f}"]
        for r in tallies
    ]
    return csv_text(["stage", "modality", "dataset", "input_tokens_millions", "cost_usd"], rows)
