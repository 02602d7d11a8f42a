"""Retrieval effectiveness of runs under a judgment set: NDCG@k and MAP.

Conventions follow the usual pooled-evaluation defaults: unjudged retrieved
documents score 0 (their count at cutoff is reported so judging-pool gaps
stay visible), and topics with no relevant documents are excluded from
means, not averaged in as zeros; with no topic left, the mean is None.
Each set's per-topic normalizers are computed once and memoised on the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import compress, count
from operator import add, truediv
from typing import Callable, Iterable

from .trec_io import JudgmentSet, Run


@dataclass(frozen=True)
class EffectivenessRow:
    """One run evaluated with one metric under one judgment source."""

    run_tag: str
    metric: str
    qrels_source: str
    modality: str
    per_topic: dict[str, float]
    mean: float | None  # None when no topic was evaluated
    topics_evaluated: int
    topics_skipped_unjudged: int
    topics_skipped_no_relevant: int
    unjudged_at_cutoff: int


# (judgment source label, metric) -> one row per run, as ``Experiment.score_runs`` builds it
ScoreTable = dict[tuple[str, str], list[EffectivenessRow]]


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

    def ideal(topic_grades: dict[str, int]) -> float:
        ranked = sorted(topic_grades.values(), reverse=True)[:k]
        return sum(g(rel) / math.log2(i + 1) for i, rel in enumerate(ranked, start=1))

    def dcg(ranked: list[int | None]) -> float:
        total = 0.0
        for rank, rel in enumerate(ranked, start=1):
            if rel is not None:
                total += g(rel) / math.log2(rank + 1)
        return total

    norms = _normalizers(qrels, ("ndcg", k, gain), ideal)
    return _evaluate(run, qrels, f"ndcg@{k}", k, norms, dcg)


def average_precision(run: Run, qrels: JudgmentSet) -> EffectivenessRow:
    """AP per topic and MAP over evaluated topics; requires binary qrels.

    AP averages precision at each relevant retrieved rank over R, the
    topic's total number of relevant documents (retrieved or not). Topics
    with R = 0 are excluded and counted.
    """
    bad = qrels.label_values - {0, 1}
    if bad:
        raise ValueError(
            f"average precision needs binarized qrels, found grades {sorted(bad)}"
        )

    def precision_sum(ranked: list[int | None]) -> float:
        # hits / rank at each relevant rank (1; not 0 or None), added in rank order
        return reduce(add, map(truediv, count(1), compress(count(1), ranked)), 0.0)

    relevant = _normalizers(qrels, ("map",), lambda grades: sum(grades.values()))
    return _evaluate(run, qrels, "map", None, relevant, precision_sum)


def _normalizers(qrels: JudgmentSet, key: tuple, ideal: Callable) -> dict[str, float]:
    """``ideal(grades)`` of each of the set's topics, computed once per set and ``key``."""
    if key not in qrels.normalizers:
        qrels.normalizers[key] = {topic: ideal(grades) for topic, grades in qrels.by_topic.items()}
    return qrels.normalizers[key]


def _evaluate(
    run: Run, qrels: JudgmentSet, metric: str, depth: int | None, norms: dict, score: Callable
) -> EffectivenessRow:
    """The per-topic loop NDCG and AP share. A judged topic with a nonzero
    normalizer ``norms[topic]`` scores ``score(ranked) / norms[topic]``, where
    ``ranked`` lists the grade at each rank of the top ``depth`` (the whole
    ranking when None), None for an unjudged document; those are counted."""
    per_topic: dict[str, float] = {}
    skipped_unjudged = skipped_no_relevant = unjudged = 0
    for topic_id in sorted(run.topics):
        topic_grades = qrels.by_topic.get(topic_id)
        if topic_grades is None:
            skipped_unjudged += 1
            continue
        norm = norms[topic_id]
        if norm == 0:
            skipped_no_relevant += 1
            continue
        ranked = list(map(topic_grades.get, run.topics[topic_id][:depth]))
        unjudged += ranked.count(None)
        per_topic[topic_id] = score(ranked) / norm
    return EffectivenessRow(
        run_tag=run.run_tag,
        metric=metric,
        qrels_source=qrels.label(),
        modality=str(qrels.modality),
        per_topic=per_topic,
        mean=_mean(per_topic.values()),
        topics_evaluated=len(per_topic),
        topics_skipped_unjudged=skipped_unjudged,
        topics_skipped_no_relevant=skipped_no_relevant,
        unjudged_at_cutoff=unjudged,
    )


def _mean(values: Iterable[float]) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None

