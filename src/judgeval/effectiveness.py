"""Retrieval effectiveness of runs under a judgment set: NDCG@k and MAP.

Conventions follow the usual pooled-evaluation defaults: unjudged retrieved
documents score 0 (their count at cutoff is reported so judging-pool gaps
stay visible), and topics with no relevant documents are excluded from
means rather than silently averaged in as zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .trec_io import JudgmentSet, Run


class ScatterPoint(NamedTuple):
    run_tag: str
    metric: str
    human_score: float
    llm_score: float


@dataclass(frozen=True)
class EffectivenessRow:
    """One run evaluated with one metric under one judgment source."""

    run_tag: str
    metric: str
    qrels_source: str
    modality: str
    per_topic: dict[str, float]
    mean: float
    topics_evaluated: int
    topics_skipped_unjudged: int
    topics_skipped_no_relevant: int
    unjudged_at_cutoff: int


def _gain_fn(gain: str):
    if gain == "linear":
        return float
    if gain == "exponential":
        return lambda rel: float(2**rel - 1)
    raise ValueError(f"unknown gain function {gain!r}")


def ndcg_at_k(
    run: Run, qrels: JudgmentSet, k: int = 10, gain: str = "linear"
) -> EffectivenessRow:
    """NDCG@k per topic and its mean over evaluated topics.

    DCG sums g(rel_i)/log2(i+1) over the top k of the run's ranking with
    unjudged documents at relevance 0; the ideal DCG ranks the topic's
    judged grades in descending order. Topics absent from the qrels, or
    with zero ideal DCG, are excluded from the mean and counted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    g = _gain_fn(gain)
    per_topic: dict[str, float] = {}
    skipped_unjudged = 0
    skipped_no_relevant = 0
    unjudged_at_cutoff = 0
    for topic_id in sorted(run.topics):
        topic_grades = qrels.by_topic.get(topic_id)
        if topic_grades is None:
            skipped_unjudged += 1
            continue
        ideal = sorted(topic_grades.values(), reverse=True)[:k]
        idcg = sum(g(rel) / math.log2(i + 1) for i, rel in enumerate(ideal, start=1))
        if idcg == 0.0:
            skipped_no_relevant += 1
            continue
        dcg = 0.0
        for rank, doc_id in enumerate(run.topics[topic_id][:k], start=1):
            if doc_id not in topic_grades:
                unjudged_at_cutoff += 1
                continue
            dcg += g(topic_grades[doc_id]) / math.log2(rank + 1)
        per_topic[topic_id] = dcg / idcg
    return EffectivenessRow(
        run_tag=run.run_tag,
        metric=f"ndcg@{k}",
        qrels_source=qrels.source.label(),
        modality=str(qrels.modality),
        per_topic=per_topic,
        mean=_mean(per_topic.values()),
        topics_evaluated=len(per_topic),
        topics_skipped_unjudged=skipped_unjudged,
        topics_skipped_no_relevant=skipped_no_relevant,
        unjudged_at_cutoff=unjudged_at_cutoff,
    )


def average_precision(run: Run, qrels: JudgmentSet) -> EffectivenessRow:
    """AP per topic and MAP over evaluated topics; requires binary qrels.

    AP averages precision at each relevant retrieved rank over R, the
    topic's total number of relevant documents (retrieved or not). Topics
    with R = 0 are excluded and counted.
    """
    bad = qrels.label_values() - {0, 1}
    if bad:
        raise ValueError(
            f"average precision needs binarized qrels, found grades {sorted(bad)}"
        )
    per_topic: dict[str, float] = {}
    skipped_unjudged = 0
    skipped_no_relevant = 0
    unjudged = 0
    for topic_id in sorted(run.topics):
        topic_grades = qrels.by_topic.get(topic_id)
        if topic_grades is None:
            skipped_unjudged += 1
            continue
        total_relevant = sum(topic_grades.values())
        if total_relevant == 0:
            skipped_no_relevant += 1
            continue
        hits = 0
        precision_sum = 0.0
        for rank, doc_id in enumerate(run.topics[topic_id], start=1):
            if doc_id not in topic_grades:
                unjudged += 1
                continue
            if topic_grades[doc_id] == 1:
                hits += 1
                precision_sum += hits / rank
        per_topic[topic_id] = precision_sum / total_relevant
    return EffectivenessRow(
        run_tag=run.run_tag,
        metric="map",
        qrels_source=qrels.source.label(),
        modality=str(qrels.modality),
        per_topic=per_topic,
        mean=_mean(per_topic.values()),
        topics_evaluated=len(per_topic),
        topics_skipped_unjudged=skipped_unjudged,
        topics_skipped_no_relevant=skipped_no_relevant,
        unjudged_at_cutoff=unjudged,
    )


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def scatter_data(
    rows_human: Iterable[EffectivenessRow], rows_llm: Iterable[EffectivenessRow]
) -> list[ScatterPoint]:
    """Pair human and LLM means per run for scatter plotting.

    Both row sets must cover the same runs and a single common metric;
    mismatches are an error naming the missing tags.
    """
    human = {row.run_tag: row for row in rows_human}
    llm = {row.run_tag: row for row in rows_llm}
    missing_from_llm = sorted(human.keys() - llm.keys())
    missing_from_human = sorted(llm.keys() - human.keys())
    if missing_from_llm or missing_from_human:
        raise ValueError(
            "run sets differ: "
            f"missing from LLM table {missing_from_llm}, "
            f"missing from human table {missing_from_human}"
        )
    metrics = {row.metric for row in human.values()} | {
        row.metric for row in llm.values()
    }
    if len(metrics) > 1:
        raise ValueError(f"tables mix metrics: {sorted(metrics)}")
    return [
        ScatterPoint(
            run_tag=tag,
            metric=llm[tag].metric,
            human_score=human[tag].mean,
            llm_score=llm[tag].mean,
        )
        for tag in sorted(human)
    ]
