"""Label distributions and chance-corrected agreement between two judgment sets.

Agreement statistics are computed over the intersection of judged pairs;
pairs judged by only one side are counted as missing, never defaulted.
Degenerate inputs (a constant rater, a single pooled value) yield a flagged
value instead of NaN so reports stay machine-readable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .trec_io import JudgmentSet

GRADED_LABELS = (0, 1, 2, 3)
BINARY_LABELS = (0, 1)


class StatValue(NamedTuple):
    """A statistic plus a flag marking degenerate inputs."""

    value: float
    degenerate: bool = False


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of co-judged pairs: rows index rater A's label, columns rater B's."""

    labels: tuple[int, ...]
    counts: np.ndarray
    total: int

    @classmethod
    def from_sets(
        cls,
        a: JudgmentSet,
        b: JudgmentSet,
        labels: Sequence[int] | None = None,
    ) -> "ConfusionMatrix":
        if labels is None:
            observed = a.label_values() | b.label_values()
            labels = GRADED_LABELS if any(v > 1 for v in observed) else BINARY_LABELS
        labels = tuple(labels)
        index = {label: i for i, label in enumerate(labels)}
        counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
        for key in a.grades.keys() & b.grades.keys():
            ga, gb = a.grades[key], b.grades[key]
            if ga not in index or gb not in index:
                raise ValueError(f"grade outside label set {labels}: {(ga, gb)}")
            counts[index[ga], index[gb]] += 1
        return cls(labels=labels, counts=counts, total=int(counts.sum()))


def pair_coverage(a: JudgmentSet, b: JudgmentSet) -> tuple[int, int]:
    """(pairs judged by both, pairs judged by exactly one)."""
    keys_a, keys_b = set(a.grades), set(b.grades)
    return len(keys_a & keys_b), len(keys_a ^ keys_b)


def label_distribution(
    judgments: JudgmentSet, labels: Sequence[int] | None = None
) -> dict[int, Fraction]:
    """Exact per-label shares; the returned fractions sum to exactly 1."""
    if len(judgments) == 0:
        raise ValueError("cannot take the label distribution of an empty set")
    if labels is None:
        labels = GRADED_LABELS
    labels = tuple(labels)
    extra = judgments.label_values() - set(labels)
    if extra:
        raise ValueError(f"grades {sorted(extra)} outside label set {labels}")
    total = len(judgments)
    counts = {label: 0 for label in labels}
    for grade in judgments.grades.values():
        counts[grade] += 1
    return {label: Fraction(counts[label], total) for label in labels}


def format_percentages(distribution: dict[int, Fraction]) -> dict[int, str]:
    """Shares as percentages rounded to one decimal for display."""
    return {
        label: f"{float(share * 100):.1f}" for label, share in distribution.items()
    }


def _both_constant(counts: np.ndarray) -> bool:
    return (
        int((counts.sum(axis=1) > 0).sum()) == 1
        and int((counts.sum(axis=0) > 0).sum()) == 1
    )


def cohen_kappa(matrix: ConfusionMatrix) -> StatValue:
    """Cohen's kappa: (p_o - p_e) / (1 - p_e).

    When both raters are constant the statistic is undefined; it is pinned
    to 1.0 (same constant label) or 0.0 (different labels) with the
    degenerate flag set.
    """
    if matrix.total < 1:
        raise ValueError("confusion matrix is empty")
    proportions = matrix.counts / matrix.total
    p_o = float(np.trace(proportions))
    rows = proportions.sum(axis=1)
    cols = proportions.sum(axis=0)
    p_e = float(rows @ cols)
    if _both_constant(matrix.counts):
        return StatValue(1.0 if p_o == 1.0 else 0.0, degenerate=True)
    return StatValue((p_o - p_e) / (1.0 - p_e))


def weighted_kappa(matrix: ConfusionMatrix, scheme: str = "quadratic") -> StatValue:
    """Weighted kappa: 1 - sum(w*o) / sum(w*e).

    Disagreement weights grow with label distance: w_ij = |i-j|^q / (L-1)^q
    with q=2 (quadratic, default) or q=1 (linear). With two labels both
    schemes collapse to Cohen's kappa.
    """
    if scheme == "quadratic":
        q = 2
    elif scheme == "linear":
        q = 1
    else:
        raise ValueError(f"unknown weighting scheme {scheme!r}")
    size = len(matrix.labels)
    if size < 2:
        raise ValueError("weighted kappa needs at least two labels")
    if matrix.total < 1:
        raise ValueError("confusion matrix is empty")
    idx = np.arange(size)
    weights = (np.abs(idx[:, None] - idx[None, :]) ** q) / float((size - 1) ** q)
    observed = matrix.counts / matrix.total
    rows = observed.sum(axis=1)
    cols = observed.sum(axis=0)
    expected = np.outer(rows, cols)
    expected_disagreement = float((weights * expected).sum())
    if _both_constant(matrix.counts):
        observed_disagreement = float((weights * observed).sum())
        if expected_disagreement == 0.0:
            return StatValue(1.0 if observed_disagreement == 0.0 else 0.0, degenerate=True)
        return StatValue(
            1.0 - observed_disagreement / expected_disagreement, degenerate=True
        )
    return StatValue(1.0 - float((weights * observed).sum()) / expected_disagreement)


ALPHA_METRICS = ("nominal", "ordinal", "interval")


def krippendorff_alpha(
    a: JudgmentSet, b: JudgmentSet, metric: str = "nominal"
) -> StatValue:
    """Krippendorff's alpha between two judgment sets.

    Items judged by only one side carry no pairable values and are dropped
    from the coincidence matrix (see pair_coverage for how many).
    """
    keys = a.grades.keys() | b.grades.keys()
    pairs = [(a.grades.get(key), b.grades.get(key)) for key in sorted(keys)]
    return alpha_from_pairs(pairs, metric)


def alpha_from_pairs(
    pairs: Sequence[tuple[int | None, int | None]], metric: str = "nominal"
) -> StatValue:
    """Alpha over (rater A, rater B) value pairs; None marks a missing value.

    alpha = 1 - D_o / D_e over the coincidence matrix, with the nominal,
    ordinal (cumulative-marginal rank distance), or interval (squared value
    difference) difference function.
    """
    if metric not in ALPHA_METRICS:
        raise ValueError(f"unknown alpha metric {metric!r}")
    paired = [(x, y) for x, y in pairs if x is not None and y is not None]
    if len(paired) < 1:
        raise ValueError("alpha needs at least one fully judged item")
    values = sorted({v for pair in paired for v in pair})
    index = {value: i for i, value in enumerate(values)}
    size = len(values)
    coincidence = np.zeros((size, size), dtype=float)
    for x, y in paired:
        coincidence[index[x], index[y]] += 1.0
        coincidence[index[y], index[x]] += 1.0
    marginals = coincidence.sum(axis=1)
    n = float(coincidence.sum())
    delta = _alpha_delta(values, marginals, metric)
    observed = float((coincidence * delta).sum()) / n
    expected = float((np.outer(marginals, marginals) * delta).sum()) / (n * (n - 1.0))
    if expected == 0.0:
        return StatValue(1.0 if observed == 0.0 else 0.0, degenerate=True)
    return StatValue(1.0 - observed / expected)


def _alpha_delta(values: list[int], marginals: np.ndarray, metric: str) -> np.ndarray:
    size = len(values)
    delta = np.zeros((size, size), dtype=float)
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            if metric == "nominal":
                delta[i, j] = 1.0
            elif metric == "interval":
                delta[i, j] = float(values[i] - values[j]) ** 2
            else:  # ordinal
                lo, hi = min(i, j), max(i, j)
                span = float(marginals[lo : hi + 1].sum())
                delta[i, j] = (span - (marginals[lo] + marginals[hi]) / 2.0) ** 2
    return delta


@dataclass(frozen=True)
class AgreementReport:
    """Agreement between one model judgment set and the human reference."""

    kappa: StatValue
    alpha: StatValue
    n_items: int
    n_missing: int
    weighted_kappa: StatValue | None = None


def agreement_report(a: JudgmentSet, b: JudgmentSet, *, graded: bool) -> AgreementReport:
    """Graded reports pair quadratic weighted kappa with ordinal alpha;
    binary reports pair plain kappa with nominal alpha."""
    labels = GRADED_LABELS if graded else BINARY_LABELS
    n_items, n_missing = pair_coverage(a, b)
    if n_items < 2:
        raise ValueError("agreement needs at least two co-judged pairs")
    matrix = ConfusionMatrix.from_sets(a, b, labels=labels)
    return AgreementReport(
        kappa=cohen_kappa(matrix),
        weighted_kappa=weighted_kappa(matrix) if graded else None,
        alpha=krippendorff_alpha(a, b, "ordinal" if graded else "nominal"),
        n_items=n_items,
        n_missing=n_missing,
    )
