"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line per
criterion as it completes.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import build_toy_experiment
from judgeval.agreement import (
    ConfusionMatrix,
    alpha_from_pairs,
    cohen_kappa,
    format_percentages,
    label_distribution,
    weighted_kappa,
)
from judgeval.cli import main
from judgeval.config import load_config
from judgeval.cost import DEFAULT_PRICES, extrapolate, price_for
from judgeval.effectiveness import average_precision, ndcg_at_k
from judgeval.gateway import count_tokens
from judgeval.judge import binarize
from judgeval.pipeline import run_pipeline, sha256_file
from judgeval.stability import (
    SystemScores,
    bootstrap_tau_ci,
    kendall_tau,
    pearson_rho,
    rbo_ext,
    spearman_rho,
    stability_report,
)
from judgeval.trec_io import JudgmentSet, Run, parse_qrels, write_judgments

N_INSTANCES = 1000
TOL = 1e-10


@contextmanager
def _verdict(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _pairs_to_matrix(pairs, labels):
    a = JudgmentSet(grades={("t", f"d{i}"): v for i, (v, _) in enumerate(pairs)})
    b = JudgmentSet(grades={("t", f"d{i}"): v for i, (_, v) in enumerate(pairs)})
    return ConfusionMatrix.from_sets(a, b, labels=labels)


def _run_from_ranking(rankings: dict[str, list[str]]) -> Run:
    return Run("r", rankings)


def _vector(rng, n, tie_prob=0.35):
    values = []
    for _ in range(n):
        if values and rng.random() < tie_prob:
            values.append(rng.choice(values))
        else:
            values.append(round(rng.uniform(0, 1), 3))
    return values


# -- criterion 1 ----------------------------------------------------------------


def test_criterion_1_metric_oracle_equivalence():
    with _verdict(1, "metric-oracle equivalence"):
        start = time.monotonic()
        rng = random.Random(20240)

        # Cohen's kappa
        for _ in range(N_INSTANCES):
            pairs = [
                (rng.randint(0, 3), rng.randint(0, 3))
                for _ in range(rng.randint(2, 25))
            ]
            ours = cohen_kappa(_pairs_to_matrix(pairs, (0, 1, 2, 3))).value
            assert abs(ours - oracles.kappa(pairs)) <= TOL

        # weighted kappa, both schemes
        for scheme, power in (("quadratic", 2), ("linear", 1)):
            for _ in range(N_INSTANCES):
                pairs = [
                    (rng.randint(0, 3), rng.randint(0, 3))
                    for _ in range(rng.randint(2, 25))
                ]
                ours = weighted_kappa(_pairs_to_matrix(pairs, (0, 1, 2, 3)), scheme).value
                expected = oracles.weighted_kappa(pairs, (0, 1, 2, 3), power)
                assert abs(ours - expected) <= TOL

        # Krippendorff's alpha, all three difference functions
        for metric in ("nominal", "ordinal", "interval"):
            produced = 0
            while produced < N_INSTANCES:
                pairs = []
                for _ in range(rng.randint(2, 20)):
                    a = rng.randint(0, 3) if rng.random() > 0.15 else None
                    b = rng.randint(0, 3) if rng.random() > 0.15 else None
                    pairs.append((a, b))
                if sum(1 for a, b in pairs if a is not None and b is not None) < 2:
                    continue
                produced += 1
                ours = alpha_from_pairs(pairs, metric).value
                expected = oracles.krippendorff_alpha(pairs, metric)
                assert abs(ours - expected) <= TOL

        # NDCG@10 and MAP on random 20-doc, 5-topic instances
        docs = [f"d{i:02d}" for i in range(20)]
        for binary in (False, True):
            for _ in range(N_INSTANCES):
                rankings = {}
                grades = {}
                for t in range(5):
                    topic = f"t{t}"
                    judged = rng.sample(docs, rng.randint(3, 12))
                    top = 1 if binary else 3
                    topic_grades = {d: rng.randint(0, top) for d in judged}
                    grades.update(
                        {(topic, d): g for d, g in topic_grades.items()}
                    )
                    rankings[topic] = rng.sample(docs, rng.randint(1, 20))
                run = _run_from_ranking(rankings)
                qrels = JudgmentSet(grades=grades)
                if binary:
                    row = average_precision(run, qrels)
                    for topic in rankings:
                        expected = oracles.average_precision(
                            rankings[topic], qrels.grades_for_topic(topic)
                        )
                        if expected is None:
                            assert topic not in row.per_topic
                        else:
                            assert abs(row.per_topic[topic] - expected) <= TOL
                else:
                    gain = rng.choice(("linear", "exponential"))
                    row = ndcg_at_k(run, qrels, k=10, gain=gain)
                    for topic in rankings:
                        expected = oracles.ndcg_at_k(
                            rankings[topic], qrels.grades_for_topic(topic), 10, gain
                        )
                        if expected is None:
                            assert topic not in row.per_topic
                        else:
                            assert abs(row.per_topic[topic] - expected) <= TOL

        # rank correlations with ties
        for _ in range(N_INSTANCES):
            n = rng.randint(2, 12)
            x, y = _vector(rng, n), _vector(rng, n)
            if len(set(x)) == 1 or len(set(y)) == 1:
                continue
            assert abs(kendall_tau(x, y).value - oracles.kendall_tau_b(x, y)) <= TOL
            assert abs(spearman_rho(x, y).value - oracles.spearman(x, y)) <= TOL
            assert abs(pearson_rho(x, y).value - oracles.pearson(x, y)) <= TOL

        # extrapolated RBO over permutations up to n = 8
        for _ in range(N_INSTANCES):
            n = rng.randint(1, 8)
            base = [f"s{i}" for i in range(n)]
            x, y = base[:], base[:]
            rng.shuffle(x)
            rng.shuffle(y)
            p = rng.choice([0.5, 0.8, 0.9, 0.95])
            assert abs(rbo_ext(x, y, p) - oracles.rbo_ext(x, y, p)) <= TOL

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


# -- criterion 2 ----------------------------------------------------------------


def test_criterion_2_trivial_cases():
    with _verdict(2, "trivial-case suite"):
        pairs = [(g, g) for g in (0, 1, 2, 3, 2, 1)]
        matrix = _pairs_to_matrix(pairs, (0, 1, 2, 3))
        assert cohen_kappa(matrix).value == pytest.approx(1.0)
        assert weighted_kappa(matrix, "quadratic").value == pytest.approx(1.0)
        assert weighted_kappa(matrix, "linear").value == pytest.approx(1.0)
        for metric in ("nominal", "ordinal", "interval"):
            assert alpha_from_pairs(pairs, metric).value == pytest.approx(1.0)

        x = [0.9, 0.4, 0.7, 0.1]
        assert kendall_tau(x, x).value == pytest.approx(1.0)
        assert spearman_rho(x, x).value == pytest.approx(1.0)
        assert pearson_rho(x, x).value == pytest.approx(1.0)
        assert kendall_tau(x, [-v for v in x]).value == pytest.approx(-1.0)
        ranking = ["a", "b", "c", "d"]
        assert rbo_ext(ranking, ranking, 0.9) == pytest.approx(1.0)

        qrels = JudgmentSet(grades={("t", "a"): 3, ("t", "b"): 2, ("t", "c"): 1})
        ideal = _run_from_ranking({"t": ["a", "b", "c"]})
        assert ndcg_at_k(ideal, qrels, k=10).per_topic["t"] == pytest.approx(1.0)

        binary = JudgmentSet(grades={("t", "a"): 1, ("t", "b"): 0})
        first = _run_from_ranking({"t": ["a", "b"]})
        assert average_precision(first, binary).per_topic["t"] == pytest.approx(1.0)

        graded = JudgmentSet(
            grades={("t", "d0"): 0, ("t", "d1"): 1, ("t", "d2"): 2, ("t", "d3"): 3}
        )
        binarized = binarize(graded, 1)
        assert [binarized.grades[("t", f"d{i}")] for i in range(4)] == [0, 1, 1, 1]


# -- criterion 3 ----------------------------------------------------------------


def test_criterion_3_bootstrap_correctness():
    with _verdict(3, "bootstrap correctness"):
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

        def scores(per_topic):
            topics = tuple(sorted(next(iter(per_topic.values())).keys()))
            per_system = {
                tag: sum(vals.values()) / len(vals) for tag, vals in per_topic.items()
            }
            return SystemScores(
                metric="map", per_topic=per_topic, topics=topics, per_system=per_system
            )

        scores_h, scores_l = scores(h), scores(l)
        systems = sorted(h)
        topics = sorted(h["s1"])
        exact = oracles.exhaustive_bootstrap_taus(
            [[h[s][t] for t in topics] for s in systems],
            [[l[s][t] for t in topics] for s in systems],
        )
        assert len(exact) == 27  # 3^3 equally likely resample sequences
        exact_low, exact_high = np.percentile(exact, [2.5, 97.5])
        low, high = bootstrap_tau_ci(scores_h, scores_l, n_resamples=2000, seed=42)
        assert abs(low - exact_low) <= 0.05
        assert abs(high - exact_high) <= 0.05

        # identical per-topic scores: every resample tau is 1
        same_low, same_high = bootstrap_tau_ci(
            scores_h, scores_h, n_resamples=2000, seed=7
        )
        assert (same_low, same_high) == (1.0, 1.0)

        # identical seeds give byte-identical reports
        report_a = stability_report(scores_h, scores_l, n_resamples=2000, seed=11)
        report_b = stability_report(scores_h, scores_l, n_resamples=2000, seed=11)
        assert report_a == report_b
        assert repr(report_a).encode() == repr(report_b).encode()


# -- criterion 4 ----------------------------------------------------------------


def test_criterion_4_cost_arithmetic():
    with _verdict(4, "cost arithmetic"):
        report = extrapolate(108479, 363.0, 0.0, price_for("gpt-4o", DEFAULT_PRICES))
        assert 39.0e6 <= report.input_tokens <= 39.8e6
        assert 95.0 <= report.usd <= 105.0
        reduction_pct = (1.0 - 7.7 / 13.3) * 100.0
        assert abs(reduction_pct - 42.0) <= 1.0


# -- criterion 5 ----------------------------------------------------------------


def _bundle(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): sha256_file(p)
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def test_criterion_5_end_to_end_determinism(tmp_path):
    with _verdict(5, "end-to-end determinism"):
        start = time.monotonic()
        config_path = build_toy_experiment(tmp_path)
        out_a = tmp_path / "bundle_a"
        out_b = tmp_path / "bundle_b"
        assert main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
        bundle_a, bundle_b = _bundle(out_a), _bundle(out_b)
        assert bundle_a and bundle_a == bundle_b

        import csv as csv_mod

        with open(out_a / "reports" / "label_distribution.csv", newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        assert rows
        for row in rows:
            total = sum(float(row[f"grade_{g}"]) for g in range(4))
            assert abs(total - 100.0) <= 0.1
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"two toy runs took {elapsed:.1f}s"


# -- criterion 6 ----------------------------------------------------------------


def test_criterion_6_format_fidelity(tmp_path):
    with _verdict(6, "format fidelity"):
        shares = {0: Fraction(500, 1000), 1: Fraction(314, 1000), 2: Fraction(99, 1000), 3: Fraction(87, 1000)}
        assert [format_percentages(shares)[g] for g in (0, 1, 2, 3)] == [
            "50.0", "31.4", "9.9", "8.7",
        ]
        counts = [0] * 4
        judgments = JudgmentSet(
            grades={
                ("t", f"d{i}"): g
                for i, g in enumerate([0] * 500 + [1] * 314 + [2] * 99 + [3] * 87)
            }
        )
        assert format_percentages(label_distribution(judgments)) == format_percentages(shares)

        rng = random.Random(60)
        grades = {}
        while len(grades) < 10_000:
            grades[(f"t{rng.randint(1, 500)}", f"d{rng.randint(1, 5000)}")] = rng.randint(0, 3)
        original = JudgmentSet(grades=grades)
        path = tmp_path / "big.qrels"
        write_judgments(original, path)
        parsed = parse_qrels(path)
        assert parsed.grades == original.grades
        assert len(parsed) == 10_000


# -- criterion 7 ----------------------------------------------------------------


def test_criterion_7_resumability(tmp_path):
    with _verdict(7, "resumability"):
        config = load_config(build_toy_experiment(tmp_path))
        first = run_pipeline(config)
        assert first.backend_calls > 0
        manifest_digest_before = sha256_file(first.manifest_path)

        second = run_pipeline(config)
        assert second.backend_calls == 0
        assert second.stages_run() == []
        assert sha256_file(second.manifest_path) == manifest_digest_before

        # even a forced recompute is fully served by the cache
        forced = run_pipeline(config, force=True)
        assert forced.backend_calls == 0
        assert forced.cache_hits > 0
