"""Ranking stability between human-derived and model-derived system scores.

Correlations are tie-aware numpy code (Kendall's tau-b from pairwise signs,
Spearman over average ranks, Pearson product-moment); rank-biased overlap
uses the extrapolated form for two conjoint full-length rankings. The
bootstrap resamples topics with replacement (topics are the exchangeable unit
of a test collection), is fully determined by its seed, and is vectorized.
numpy is imported by the functions that use it, as in ``agreement``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .agreement import UNDEFINED, StatValue
from .effectiveness import EffectivenessRow

BOOTSTRAP_BLOCK = 64  # resamples per tau-b batch, which holds runs x 64 x topics floats at once
CI_LEVEL = 0.95  # coverage of the bootstrap tau interval


@dataclass(frozen=True)
class SystemScores:
    """Per-system means plus the per-topic scores they were averaged from.

    ``topics`` and the means cover the topics every run of this source was
    evaluated on; ``stability_report`` compares two sources over the topics
    both cover.
    """

    metric: str
    per_topic: dict[str, dict[str, float]]  # run_tag -> topic_id -> score
    topics: tuple[str, ...]
    per_system: dict[str, float]

    @classmethod
    def from_rows(cls, rows: Iterable[EffectivenessRow]) -> "SystemScores":
        rows = list(rows)
        if not rows:
            raise ValueError("no effectiveness rows given")
        metrics = {row.metric for row in rows}
        if len(metrics) > 1:
            raise ValueError(f"rows mix metrics: {sorted(metrics)}")
        tags = [row.run_tag for row in rows]
        if len(tags) != len(set(tags)):
            raise ValueError("duplicate run tags in effectiveness rows")
        shared = set.intersection(*(set(row.per_topic) for row in rows))
        topics = tuple(sorted(shared))
        per_topic = {row.run_tag: dict(row.per_topic) for row in rows}
        per_system = {
            row.run_tag: _mean([row.per_topic[t] for t in topics]) for row in rows
        }
        return cls(
            metric=metrics.pop(),
            per_topic=per_topic,
            topics=topics,
            per_system=per_system,
        )

    def systems(self) -> list[str]:
        return sorted(self.per_system)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _shared(scores_h: SystemScores, scores_l: SystemScores) -> tuple[list[str], list[str]]:
    """The systems of two score sources, which must agree, and the sorted
    topics both evaluated: the one topic set every statistic compares over."""
    only_h = sorted(set(scores_h.per_system) - set(scores_l.per_system))
    only_l = sorted(set(scores_l.per_system) - set(scores_h.per_system))
    if only_h or only_l:
        raise ValueError(f"run sets differ: only human-side {only_h}, only LLM-side {only_l}")
    return scores_h.systems(), sorted(set(scores_h.topics) & set(scores_l.topics))


def _tau_b(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tau-b along the last axis from the signs of all pairwise differences:
    (C - D) / sqrt(n_x) / sqrt(n_y) over the n_x, n_y pairs untied in x, y,
    clipped to [-1, 1] as scipy does; 0 where either side is entirely tied."""
    import numpy as np
    i, j = np.triu_indices(x.shape[-1], k=1)
    sign_x, sign_y = np.sign(x[..., i] - x[..., j]), np.sign(y[..., i] - y[..., j])
    untied_x, untied_y = np.count_nonzero(sign_x, -1), np.count_nonzero(sign_y, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = (sign_x * sign_y).sum(axis=-1) / np.sqrt(untied_x) / np.sqrt(untied_y)
    return np.where((untied_x == 0) | (untied_y == 0), 0.0, np.clip(tau, -1.0, 1.0))


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    import numpy as np
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _correlation(x: Sequence[float], y: Sequence[float], fn) -> StatValue:
    import numpy as np
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("vectors must share a length >= 2")
    if len(set(x)) == 1 or len(set(y)) == 1:
        return StatValue(0.0, degenerate=True)
    return StatValue(float(fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))))


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> StatValue:
    """Tie-aware Kendall's tau-b; 0 with the degenerate flag when either
    vector is entirely tied."""
    return _correlation(x, y, _tau_b)


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> StatValue:
    """Pearson correlation over average-ranked values."""
    return pearson_rho(_average_ranks(x), _average_ranks(y))


def pearson_rho(x: Sequence[float], y: Sequence[float]) -> StatValue:
    """Product-moment correlation; degenerate when either variance is zero."""
    import numpy as np
    return _correlation(x, y, lambda a, b: np.corrcoef(a, b)[0, 1])


def rbo_ext(
    x_ranking: Sequence[str], y_ranking: Sequence[str], p: float = 0.9
) -> float:
    """Extrapolated rank-biased overlap of two conjoint rankings.

    Both rankings must be permutations of the same item set. With overlap
    X_d at depth d and n = len(ranking):

        rbo = (X_n / n) * p^n + ((1 - p) / p) * sum_d (X_d / d) * p^d
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    n = len(x_ranking)
    if n == 0:
        raise ValueError("rankings are empty")
    if len(set(x_ranking)) != n or len(set(y_ranking)) != len(y_ranking):
        raise ValueError("rankings contain duplicates")
    if set(x_ranking) != set(y_ranking):
        raise ValueError("rankings are not permutations of the same set")
    seen_x: set[str] = set()
    seen_y: set[str] = set()
    overlap = 0
    weighted_sum = 0.0
    for depth in range(1, n + 1):
        item_x = x_ranking[depth - 1]
        item_y = y_ranking[depth - 1]
        if item_x == item_y:
            overlap += 1
        else:
            if item_x in seen_y:
                overlap += 1
            if item_y in seen_x:
                overlap += 1
            seen_x.add(item_x)
            seen_y.add(item_y)
        weighted_sum += (overlap / depth) * (p**depth)
    agreement_at_n = overlap / n
    return agreement_at_n * (p**n) + ((1.0 - p) / p) * weighted_sum


def bootstrap_tau_ci(
    scores_h: SystemScores,
    scores_l: SystemScores,
    n_resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap CI (``CI_LEVEL``) for tau-b between two score sources.

    Resamples the shared evaluated-topic set with replacement, recomputes
    every system's mean over the sampled multiset for both sources, and
    takes percentile endpoints of the resulting tau distribution.
    """
    import numpy as np
    systems, topics = _shared(scores_h, scores_l)
    if len(systems) < 2:
        raise ValueError("need at least two systems")
    if len(topics) < 2:
        raise ValueError("need at least two shared evaluated topics")
    h_matrix = np.array([[scores_h.per_topic[s][t] for t in topics] for s in systems])
    l_matrix = np.array([[scores_l.per_topic[s][t] for t in topics] for s in systems])
    rng = np.random.default_rng(seed)
    n_topics = len(topics)
    taus = []
    for start in range(0, n_resamples, BOOTSTRAP_BLOCK):
        # one draw per resample, in order, as the seed's resample sequence
        block = range(start, min(start + BOOTSTRAP_BLOCK, n_resamples))
        picks = np.array([rng.integers(0, n_topics, size=n_topics) for _ in block])
        means_h, means_l = h_matrix[:, picks].mean(axis=2), l_matrix[:, picks].mean(axis=2)
        taus.append(_tau_b(means_h.T, means_l.T))
    tail = 100.0 * (1.0 - CI_LEVEL) / 2.0
    low, high = np.percentile(np.concatenate(taus), [tail, 100.0 - tail])
    return float(low), float(high)


@dataclass(frozen=True)
class StabilityReport:
    kendall_tau: StatValue
    spearman_rho: StatValue
    pearson_rho: StatValue
    rbo: float | None
    tau_ci_low: float | None
    tau_ci_high: float | None


def ranking_from_scores(per_system: dict[str, float]) -> list[str]:
    """Systems ordered by descending mean score; ties break by tag."""
    return [tag for tag, _ in sorted(per_system.items(), key=lambda kv: (-kv[1], kv[0]))]


def stability_report(
    scores_h: SystemScores,
    scores_l: SystemScores,
    *,
    rbo_p: float = 0.9,
    n_resamples: int = 2000,
    seed: int = 0,
) -> StabilityReport:
    """Tau, rho, RBO and the tau CI between two score sources, all over the
    topics both evaluated; with fewer than two systems or two such topics
    each is undefined (UNDEFINED or None)."""
    systems, topics = _shared(scores_h, scores_l)
    if len(systems) < 2 or len(topics) < 2:
        return StabilityReport(UNDEFINED, UNDEFINED, UNDEFINED,
                               rbo=None, tau_ci_low=None, tau_ci_high=None)
    x, y = (
        [_mean([scores.per_topic[s][t] for t in topics]) for s in systems]
        for scores in (scores_h, scores_l)
    )
    ci_low, ci_high = bootstrap_tau_ci(scores_h, scores_l, n_resamples=n_resamples, seed=seed)
    return StabilityReport(
        kendall_tau=kendall_tau(x, y),
        spearman_rho=spearman_rho(x, y),
        pearson_rho=pearson_rho(x, y),
        rbo=rbo_ext(
            ranking_from_scores(dict(zip(systems, x))),
            ranking_from_scores(dict(zip(systems, y))),
            p=rbo_p,
        ),
        tau_ci_low=ci_low,
        tau_ci_high=ci_high,
    )
