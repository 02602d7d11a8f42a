"""Label distributions and chance-corrected agreement between two judgment sets.

Agreement statistics are computed over the intersection of judged pairs;
pairs judged by only one side are counted as missing, never defaulted.
Degenerate inputs (a constant rater, a single pooled value) yield a flagged
value instead of NaN so reports stay machine-readable; a statistic that too
few items leave undefined is the flagged value None. numpy is imported by the
functions that use it, so a run that skips every report stage never loads it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .trec_io import VALID_GRADES, JudgmentSet

GRADED_LABELS = VALID_GRADES
BINARY_LABELS = (0, 1)


class StatValue(NamedTuple):
    """A statistic plus a flag marking degenerate inputs; the value is None
    when too few items define the statistic."""

    value: float | None
    degenerate: bool = False


UNDEFINED = StatValue(None, degenerate=True)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of co-judged pairs: rows index rater A's label, columns rater B's."""

    labels: tuple[int, ...]
    counts: np.ndarray
    total: int

    @classmethod
    def from_sets(
        cls, a: JudgmentSet, b: JudgmentSet, labels: Sequence[int]
    ) -> "ConfusionMatrix":
        import numpy as np
        labels = tuple(labels)
        index = {label: i for i, label in enumerate(labels)}
        counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
        for key in a.grades.keys() & b.grades.keys():
            ga, gb = a.grades[key], b.grades[key]
            if ga not in index or gb not in index:
                raise ValueError(f"grade outside label set {labels}: {(ga, gb)}")
            counts[index[ga], index[gb]] += 1
        return cls(labels=labels, counts=counts, total=int(counts.sum()))


def label_distribution(judgments: JudgmentSet) -> dict[int, Fraction]:
    """Exact share of each grade in GRADED_LABELS; the fractions sum to exactly 1."""
    if len(judgments) == 0:
        raise ValueError("cannot take the label distribution of an empty set")
    extra = judgments.label_values - set(GRADED_LABELS)
    if extra:
        raise ValueError(f"grades {sorted(extra)} outside label set {GRADED_LABELS}")
    counts = Counter(judgments.grades.values())
    return {label: Fraction(counts[label], len(judgments)) for label in GRADED_LABELS}


def format_percentages(distribution: dict[int, Fraction]) -> dict[int, str]:
    """Shares as percentages rounded to one decimal for display."""
    return {
        label: f"{float(share * 100):.1f}" for label, share in distribution.items()
    }


def cohen_kappa(matrix: ConfusionMatrix) -> StatValue:
    """Cohen's kappa: (p_o - p_e) / (1 - p_e).

    When both raters are constant the statistic is undefined; it is pinned
    to 1.0 (same constant label) or 0.0 (different labels) with the
    degenerate flag set.
    """
    import numpy as np
    if matrix.total < 1:
        raise ValueError("confusion matrix is empty")
    proportions = matrix.counts / matrix.total
    p_o = float(np.trace(proportions))
    rows = proportions.sum(axis=1)
    cols = proportions.sum(axis=0)
    p_e = float(rows @ cols)
    if np.count_nonzero(matrix.counts) == 1:  # both raters constant
        return StatValue(1.0 if p_o == 1.0 else 0.0, degenerate=True)
    return StatValue((p_o - p_e) / (1.0 - p_e))


def weighted_kappa(matrix: ConfusionMatrix, scheme: str = "quadratic") -> StatValue:
    """Weighted kappa: 1 - sum(w*o) / sum(w*e).

    Disagreement weights grow with label distance: w_ij = |i-j|^q / (L-1)^q
    with q=2 (quadratic, default) or q=1 (linear). With two labels both
    schemes collapse to Cohen's kappa.
    """
    import numpy as np
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
    if np.count_nonzero(matrix.counts) == 1:
        # both raters constant: observed and expected disagreement are the
        # weight of the one filled cell, 0 on the diagonal
        return StatValue(1.0 if expected_disagreement == 0.0 else 0.0, degenerate=True)
    return StatValue(1.0 - float((weights * observed).sum()) / expected_disagreement)


ALPHA_METRICS = ("nominal", "ordinal", "interval")


def alpha_from_pairs(
    pairs: Sequence[tuple[int | None, int | None]], metric: str = "nominal"
) -> StatValue:
    """Alpha over (rater A, rater B) value pairs; None marks a missing value.

    alpha = 1 - D_o / D_e over the coincidence matrix, with the nominal,
    ordinal (cumulative-marginal rank distance), or interval (squared value
    difference) difference function.
    """
    import numpy as np
    if metric not in ALPHA_METRICS:
        raise ValueError(f"unknown alpha metric {metric!r}")
    paired = [(x, y) for x, y in pairs if x is not None and y is not None]
    if len(paired) < 1:
        raise ValueError("alpha needs at least one fully judged item")
    values = sorted({v for pair in paired for v in pair})
    index = {value: i for i, value in enumerate(values)}
    counts = np.zeros((len(values), len(values)), dtype=np.int64)
    for x, y in paired:
        counts[index[x], index[y]] += 1
    return _alpha(counts + counts.T, values, metric)


def _alpha(coincidence: np.ndarray, values: Sequence[int], metric: str) -> StatValue:
    """Alpha from an integer coincidence matrix whose rows follow ``values``.

    Values with a zero marginal are dropped first, so a matrix over a fixed
    label set becomes the very array built over the observed values alone,
    and both give the same float result.
    """
    import numpy as np
    keep = coincidence.sum(axis=1) > 0
    coincidence = coincidence[np.ix_(keep, keep)].astype(float)
    values = [value for value, kept in zip(values, keep) if kept]
    marginals = coincidence.sum(axis=1)
    n = float(coincidence.sum())
    delta = _alpha_delta(values, marginals, metric)
    observed = float((coincidence * delta).sum()) / n
    expected = float((np.outer(marginals, marginals) * delta).sum()) / (n * (n - 1.0))
    if expected == 0.0:
        return StatValue(1.0 if observed == 0.0 else 0.0, degenerate=True)
    return StatValue(1.0 - observed / expected)


def _alpha_delta(values: list[int], marginals: np.ndarray, metric: str) -> np.ndarray:
    import numpy as np
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

    weighted_kappa: StatValue  # quadratic, on grades
    alpha_ordinal: StatValue
    kappa_binary: StatValue  # both sides relevant iff grade >= threshold
    alpha_nominal_binary: StatValue
    n_items: int
    n_missing: int


def agreement_report(
    reference: JudgmentSet, judged: JudgmentSet, threshold: int
) -> AgreementReport:
    """All four statistics from one count matrix C over GRADED_LABELS of the
    co-judged pairs: weighted kappa and ordinal alpha (C + C^T) on grades,
    kappa and nominal alpha on C collapsed to 2x2 at ``threshold``. Each
    statistic is UNDEFINED with fewer than two co-judged pairs."""
    import numpy as np
    if threshold not in GRADED_LABELS[1:]:
        raise ValueError("threshold must be 1, 2, or 3")
    graded = ConfusionMatrix.from_sets(reference, judged, GRADED_LABELS)
    n_items = graded.total
    n_missing = len(reference) + len(judged) - 2 * n_items
    if n_items < 2:
        return AgreementReport(UNDEFINED, UNDEFINED, UNDEFINED, UNDEFINED, n_items, n_missing)
    bounds = [0, threshold]
    collapsed = np.add.reduceat(np.add.reduceat(graded.counts, bounds, axis=0), bounds, axis=1)
    binary = ConfusionMatrix(labels=BINARY_LABELS, counts=collapsed, total=n_items)
    return AgreementReport(
        weighted_kappa=weighted_kappa(graded),
        alpha_ordinal=_alpha(graded.counts + graded.counts.T, GRADED_LABELS, "ordinal"),
        kappa_binary=cohen_kappa(binary),
        alpha_nominal_binary=_alpha(collapsed + collapsed.T, BINARY_LABELS, "nominal"),
        n_items=n_items,
        n_missing=n_missing,
    )
