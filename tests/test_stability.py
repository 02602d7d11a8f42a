"""Rank correlations, RBO, and the topic bootstrap against oracles."""

from __future__ import annotations

import random

import numpy as np
import pytest

import oracles
from judgeval import stability
from judgeval.agreement import UNDEFINED, StatValue
from judgeval.reports import stability_csv
from judgeval.stability import (
    BOOTSTRAP_BLOCK,
    StabilityReport,
    SystemScores,
    bootstrap_tau_ci,
    kendall_tau,
    pearson_rho,
    ranking_from_scores,
    rbo_ext,
    spearman_rho,
    stability_report,
)
from judgeval.trec_io import JudgmentSet, Modality


def _scores(metric, per_topic):
    topics = tuple(sorted(set.intersection(*(set(v) for v in per_topic.values()))))
    per_system = {
        tag: sum(scores[t] for t in topics) / len(topics)
        for tag, scores in per_topic.items()
    }
    return SystemScores(
        metric=metric, per_topic=per_topic, topics=topics, per_system=per_system
    )


def _random_vector(rng, n, tie_prob=0.4):
    values = []
    for _ in range(n):
        if values and rng.random() < tie_prob:
            values.append(rng.choice(values))
        else:
            values.append(round(rng.uniform(0, 1), 3))
    return values


# -- correlations -------------------------------------------------------------


def test_tau_identical_and_reversed():
    x = [0.1, 0.4, 0.2, 0.9]
    assert kendall_tau(x, x).value == pytest.approx(1.0)
    assert kendall_tau(x, [-v for v in x]).value == pytest.approx(-1.0)


def test_tau_all_tied_is_degenerate_zero():
    assert kendall_tau([1.0, 1.0, 1.0], [0.3, 0.2, 0.9]) == (0.0, True)
    assert kendall_tau([0.3, 0.2, 0.9], [2.0, 2.0, 2.0]) == (0.0, True)


def test_tau_matches_pair_counting_oracle_with_ties():
    rng = random.Random(71)
    for _ in range(400):
        n = rng.randint(2, 12)
        x = _random_vector(rng, n)
        y = _random_vector(rng, n)
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        assert kendall_tau(x, y).value == pytest.approx(
            oracles.kendall_tau_b(x, y), abs=1e-12
        )


def test_spearman_pearson_affine_and_monotone():
    x = [1.0, 2.0, 3.0, 5.0, 8.0]
    y = [2 * v + 3 for v in x]
    assert pearson_rho(x, y).value == pytest.approx(1.0)
    assert spearman_rho(x, y).value == pytest.approx(1.0)
    cubed = [v**3 for v in x]
    assert spearman_rho(x, cubed).value == pytest.approx(1.0)
    assert pearson_rho(x, cubed).value < 1.0


def test_spearman_pearson_match_oracles():
    rng = random.Random(73)
    for _ in range(400):
        n = rng.randint(2, 12)
        x = _random_vector(rng, n)
        y = _random_vector(rng, n)
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        assert pearson_rho(x, y).value == pytest.approx(oracles.pearson(x, y), abs=1e-12)
        assert spearman_rho(x, y).value == pytest.approx(oracles.spearman(x, y), abs=1e-12)


def test_correlations_zero_variance_degenerate():
    assert pearson_rho([1, 1, 1], [1, 2, 3]) == (0.0, True)
    assert spearman_rho([1, 2, 3], [4, 4, 4]) == (0.0, True)


def test_tau_spearman_invariant_under_monotone_transform_of_one_input():
    rng = random.Random(79)
    for _ in range(100):
        n = rng.randint(3, 10)
        x = _random_vector(rng, n)
        y = _random_vector(rng, n)
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        x2 = [v**3 + 2 * v for v in x]  # strictly increasing transform
        assert kendall_tau(x, y).value == pytest.approx(
            kendall_tau(x2, y).value, abs=1e-12
        )
        assert spearman_rho(x, y).value == pytest.approx(
            spearman_rho(x2, y).value, abs=1e-12
        )


def test_pearson_invariant_under_positive_affine():
    rng = random.Random(83)
    for _ in range(100):
        n = rng.randint(3, 10)
        x = _random_vector(rng, n, tie_prob=0.0)
        y = _random_vector(rng, n, tie_prob=0.0)
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        x2 = [3.5 * v + 1.25 for v in x]
        assert pearson_rho(x, y).value == pytest.approx(
            pearson_rho(x2, y).value, abs=1e-12
        )


# -- RBO -----------------------------------------------------------------------


def test_rbo_identical_is_one_for_any_permutation():
    rng = random.Random(89)
    for _ in range(50):
        n = rng.randint(1, 10)
        ranking = [f"s{i}" for i in range(n)]
        rng.shuffle(ranking)
        assert rbo_ext(ranking, ranking, p=0.9) == pytest.approx(1.0)


def test_rbo_two_item_reversal_equals_p():
    # X_1 = 0, X_2 = 2, A_2 = 1 -> direct sum collapses to p
    for p in (0.5, 0.9, 0.99):
        assert rbo_ext(["a", "b"], ["b", "a"], p=p) == pytest.approx(p)


def test_rbo_matches_prefix_oracle_on_small_permutations():
    rng = random.Random(97)
    for _ in range(400):
        n = rng.randint(1, 8)
        base = [f"s{i}" for i in range(n)]
        x = base[:]
        y = base[:]
        rng.shuffle(x)
        rng.shuffle(y)
        p = rng.choice([0.5, 0.8, 0.9, 0.95])
        assert rbo_ext(x, y, p=p) == pytest.approx(oracles.rbo_ext(x, y, p), abs=1e-12)


def test_rbo_symmetric():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(2, 8)
        base = [f"s{i}" for i in range(n)]
        x, y = base[:], base[:]
        rng.shuffle(x)
        rng.shuffle(y)
        assert rbo_ext(x, y, 0.9) == pytest.approx(rbo_ext(y, x, 0.9), abs=1e-12)


def test_rbo_parameter_and_input_errors():
    with pytest.raises(ValueError):
        rbo_ext(["a"], ["a"], p=1.0)
    with pytest.raises(ValueError):
        rbo_ext(["a"], ["a"], p=0.0)
    with pytest.raises(ValueError):
        rbo_ext(["a", "b"], ["a", "c"], p=0.9)
    with pytest.raises(ValueError):
        rbo_ext(["a", "a"], ["a", "a"], p=0.9)


def test_rbo_top_weighted():
    """A top swap moves RBO at least as much as a bottom swap, on average
    over random counterpart rankings and exactly against the identity."""
    rng = random.Random(103)
    n, p = 6, 0.9
    base = [f"s{i}" for i in range(n)]

    def swap(ranking, i):
        out = ranking[:]
        out[i], out[i + 1] = out[i + 1], out[i]
        return out

    # exact case: against the identical ranking
    top = abs(rbo_ext(base, swap(base, 0), p) - 1.0)
    bottom = abs(rbo_ext(base, swap(base, n - 2), p) - 1.0)
    assert top >= bottom
    # aggregate case over random counterparts
    top_deltas = []
    bottom_deltas = []
    for _ in range(300):
        other = base[:]
        rng.shuffle(other)
        reference = rbo_ext(base, other, p)
        top_deltas.append(abs(rbo_ext(swap(base, 0), other, p) - reference))
        bottom_deltas.append(abs(rbo_ext(swap(base, n - 2), other, p) - reference))
    assert sum(top_deltas) / len(top_deltas) >= sum(bottom_deltas) / len(bottom_deltas)


# -- bootstrap -------------------------------------------------------------------


def _toy_pair(offset=0.0):
    h = {
        "s1": {"t1": 0.9, "t2": 0.7, "t3": 0.8},
        "s2": {"t1": 0.5, "t2": 0.6, "t3": 0.4},
        "s3": {"t1": 0.2, "t2": 0.3, "t3": 0.1},
    }
    l = {
        tag: {t: v + offset for t, v in scores.items()} for tag, scores in h.items()
    }
    return _scores("map", h), _scores("map", l)


def test_bootstrap_identical_scores_gives_unit_interval():
    scores_h, scores_l = _toy_pair()
    low, high = bootstrap_tau_ci(scores_h, scores_l, n_resamples=500, seed=7)
    assert (low, high) == (1.0, 1.0)


def test_bootstrap_seed_determinism():
    h = {
        "s1": {"t1": 0.9, "t2": 0.1, "t3": 0.5},
        "s2": {"t1": 0.2, "t2": 0.8, "t3": 0.6},
        "s3": {"t1": 0.4, "t2": 0.3, "t3": 0.9},
    }
    l = {
        "s1": {"t1": 0.8, "t2": 0.2, "t3": 0.4},
        "s2": {"t1": 0.3, "t2": 0.9, "t3": 0.5},
        "s3": {"t1": 0.1, "t2": 0.6, "t3": 0.7},
    }
    scores_h, scores_l = _scores("map", h), _scores("map", l)
    first = bootstrap_tau_ci(scores_h, scores_l, n_resamples=400, seed=11)
    second = bootstrap_tau_ci(scores_h, scores_l, n_resamples=400, seed=11)
    assert first == second


def test_bootstrap_matches_exhaustive_enumeration():
    h = {
        "s1": {"t1": 0.92, "t2": 0.10, "t3": 0.55},
        "s2": {"t1": 0.25, "t2": 0.85, "t3": 0.60},
        "s3": {"t1": 0.40, "t2": 0.30, "t3": 0.95},
    }
    l = {
        "s1": {"t1": 0.80, "t2": 0.25, "t3": 0.45},
        "s2": {"t1": 0.35, "t2": 0.95, "t3": 0.50},
        "s3": {"t1": 0.15, "t2": 0.55, "t3": 0.70},
    }
    scores_h, scores_l = _scores("map", h), _scores("map", l)
    systems = scores_h.systems()
    topics = sorted(scores_h.topics)
    h_matrix = [[h[s][t] for t in topics] for s in systems]
    l_matrix = [[l[s][t] for t in topics] for s in systems]
    exact = oracles.exhaustive_bootstrap_taus(h_matrix, l_matrix)
    exact_low, exact_high = np.percentile(exact, [2.5, 97.5])
    low, high = bootstrap_tau_ci(scores_h, scores_l, n_resamples=2000, seed=5)
    assert low == pytest.approx(exact_low, abs=0.05)
    assert high == pytest.approx(exact_high, abs=0.05)


def test_bootstrap_point_estimate_inside_ci_usually():
    rng = random.Random(107)
    inside = 0
    trials = 40
    for _ in range(trials):
        topics = [f"t{i}" for i in range(5)]
        h = {
            f"s{j}": {t: rng.uniform(0, 1) for t in topics} for j in range(4)
        }
        l = {
            tag: {t: v + rng.uniform(-0.2, 0.2) for t, v in scores.items()}
            for tag, scores in h.items()
        }
        scores_h, scores_l = _scores("map", h), _scores("map", l)
        x = [scores_h.per_system[s] for s in scores_h.systems()]
        y = [scores_l.per_system[s] for s in scores_l.systems()]
        point = kendall_tau(x, y).value
        low, high = bootstrap_tau_ci(scores_h, scores_l, n_resamples=500, seed=rng.randint(0, 9999))
        if low - 1e-12 <= point <= high + 1e-12:
            inside += 1
    assert inside / trials >= 0.95


def _loop_bootstrap_ci(scores_h, scores_l, n_resamples, seed, level=0.95):
    """Reference: one resample at a time through the pair-counting oracle."""
    systems = scores_h.systems()
    topics = sorted(set(scores_h.topics) & set(scores_l.topics))
    h_matrix = np.array([[scores_h.per_topic[s][t] for t in topics] for s in systems])
    l_matrix = np.array([[scores_l.per_topic[s][t] for t in topics] for s in systems])
    rng = np.random.default_rng(seed)
    taus = []
    for _ in range(n_resamples):
        picks = rng.integers(0, len(topics), size=len(topics))
        taus.append(
            oracles.kendall_tau_b(
                h_matrix[:, picks].mean(axis=1).tolist(),
                l_matrix[:, picks].mean(axis=1).tolist(),
            )
        )
    tail = 100.0 * (1.0 - level) / 2.0
    return np.percentile(taus, [tail, 100.0 - tail])


@pytest.mark.parametrize(
    "block, n_resamples",
    [(BOOTSTRAP_BLOCK, BOOTSTRAP_BLOCK + 17), (256, 273), (7, 100), (7, 5)],
)
def test_vectorized_bootstrap_matches_loop(monkeypatch, block, n_resamples):
    monkeypatch.setattr(stability, "BOOTSTRAP_BLOCK", block)
    rng = random.Random(131)
    for trial in range(12):
        topics = [f"t{i}" for i in range(rng.randint(2, 9))]
        # few distinct scores, so system means tie often
        h = {f"s{j}": {t: rng.choice([0.0, 0.5, 1.0]) for t in topics} for j in range(6)}
        l = {
            tag: {t: rng.choice([v, 0.25]) for t, v in scores.items()}
            for tag, scores in h.items()
        }
        if trial % 3 == 0:
            # every system equal but on one topic: resamples that miss it tie all
            h = {tag: {t: (float(j) if t == "t0" else 0.5) for t in topics}
                 for j, tag in enumerate(h)}
        scores_h, scores_l = _scores("map", h), _scores("map", l)
        seed = rng.randint(0, 9999)
        low, high = bootstrap_tau_ci(scores_h, scores_l, n_resamples=n_resamples, seed=seed)
        ref_low, ref_high = _loop_bootstrap_ci(scores_h, scores_l, n_resamples, seed)
        assert low == pytest.approx(ref_low, abs=1e-12)
        assert high == pytest.approx(ref_high, abs=1e-12)


def _assert_undefined(scores: SystemScores) -> None:
    """The report leaves every statistic undefined where the bootstrap raises."""
    report = stability_report(scores, scores, n_resamples=10, seed=1)
    stats = (report.kendall_tau, report.spearman_rho, report.pearson_rho)
    assert stats == (UNDEFINED,) * 3
    assert (report.rbo, report.tau_ci_low, report.tau_ci_high) == (None, None, None)


def test_bootstrap_needs_two_topics():
    h = {"s1": {"t1": 0.5}, "s2": {"t1": 0.2}}
    scores = _scores("map", h)
    with pytest.raises(ValueError):
        bootstrap_tau_ci(scores, scores, n_resamples=10, seed=1)
    _assert_undefined(scores)


def test_bootstrap_needs_two_systems():
    scores = _scores("map", {"s1": {"t1": 0.5, "t2": 0.2}})
    with pytest.raises(ValueError, match="two systems"):
        bootstrap_tau_ci(scores, scores, n_resamples=10, seed=1)
    _assert_undefined(scores)


# -- report assembly ------------------------------------------------------------


def test_stability_report_identical_sources():
    scores_h, scores_l = _toy_pair()
    report = stability_report(scores_h, scores_l, n_resamples=300, seed=3)
    assert report.kendall_tau.value == pytest.approx(1.0)
    assert report.spearman_rho.value == pytest.approx(1.0)
    assert report.pearson_rho.value == pytest.approx(1.0)
    assert report.rbo == pytest.approx(1.0)
    assert (report.tau_ci_low, report.tau_ci_high) == (1.0, 1.0)


def test_every_statistic_compares_over_the_shared_topics():
    # identical scores on t1-t2; the human side also covers t3-t4, where s2
    # overtakes s1, so its means over its own topics would rank differently
    shared = {"s1": [0.9, 0.8], "s2": [0.5, 0.6], "s3": [0.2, 0.1]}
    extra = {"s1": [0.0, 0.0], "s2": [0.55, 0.55], "s3": [0.15, 0.15]}
    human = {s: dict(zip(("t1", "t2", "t3", "t4"), shared[s] + extra[s])) for s in shared}
    llm = {s: dict(zip(("t1", "t2"), shared[s])) for s in shared}
    report = stability_report(_scores("map", human), _scores("map", llm), n_resamples=200, seed=3)
    assert report.kendall_tau.value == 1.0
    assert report.tau_ci_low <= report.kendall_tau.value <= report.tau_ci_high
    assert report.spearman_rho.value == pytest.approx(1.0)
    assert report.rbo == pytest.approx(1.0)


def test_stability_report_deterministic():
    scores_h, scores_l = _toy_pair(offset=0.01)
    a = stability_report(scores_h, scores_l, n_resamples=200, seed=9)
    b = stability_report(scores_h, scores_l, n_resamples=200, seed=9)
    assert a == b


def test_stability_csv_labels_each_row_from_its_cell_and_metric():
    defined = StabilityReport(StatValue(1 / 3), StatValue(0.5), StatValue(0.25, degenerate=True),
                              rbo=0.9, tau_ci_low=0.1234567, tau_ci_high=1.0)
    one_system = _scores("map", {"s1": {"t1": 0.5, "t2": 0.2}})
    undefined = stability_report(one_system, one_system, n_resamples=10, seed=1)
    cells = [
        (JudgmentSet(model="m"), "ndcg@10", defined),
        (JudgmentSet(model="m", modality=Modality("summary", 80)), "map", undefined),
    ]
    text = stability_csv("dl19", cells, rbo_p=0.9, n_resamples=200, seed=7)
    assert text.splitlines() == [
        "dataset,model,modality,metric,tau,tau_lo,tau_hi,spearman,pearson,rbo,p,B,seed",
        "dl19,m,full,ndcg@10,0.333333,0.123457,1.000000,0.500000,0.250000,0.900000,0.9,200,7",
        "dl19,m,summ:80,map,,,,,,,0.9,200,7",
    ]


def test_system_scores_mean_consistency():
    rng = random.Random(113)
    per_topic = {
        f"s{j}": {f"t{i}": rng.uniform(0, 1) for i in range(6)} for j in range(5)
    }
    scores = _scores("ndcg@10", per_topic)
    for tag, mean in scores.per_system.items():
        expected = sum(per_topic[tag][t] for t in scores.topics) / len(scores.topics)
        assert mean == pytest.approx(expected, abs=1e-12)


def test_ranking_from_scores_breaks_ties_by_tag():
    ranking = ranking_from_scores({"b": 0.5, "a": 0.5, "c": 0.9})
    assert ranking == ["c", "a", "b"]


def test_aligned_rejects_mismatched_systems():
    scores_h, _ = _toy_pair()
    other = _scores(
        "map",
        {
            "s1": {"t1": 0.1, "t2": 0.2, "t3": 0.3},
            "sX": {"t1": 0.1, "t2": 0.2, "t3": 0.3},
            "s3": {"t1": 0.1, "t2": 0.2, "t3": 0.3},
        },
    )
    with pytest.raises(ValueError):
        stability_report(scores_h, other, n_resamples=10, seed=1)
