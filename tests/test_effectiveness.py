"""NDCG@k and MAP against naive oracles plus boundary behavior."""

from __future__ import annotations

import csv
import io
import random

import pytest

import oracles
from judgeval.effectiveness import average_precision, ndcg_at_k
from judgeval.judge import binarize
from judgeval.reports import scatter_csv
from judgeval.trec_io import JudgmentSet, Run


def _run(tag: str, rankings: dict[str, list[str]]) -> Run:
    return Run(tag, rankings)


def _qrels(by_topic: dict[str, dict[str, int]], **kwargs) -> JudgmentSet:
    grades = {
        (topic_id, doc_id): grade
        for topic_id, docs in by_topic.items()
        for doc_id, grade in docs.items()
    }
    return JudgmentSet(grades=grades, **kwargs)


def _random_instance(rng, n_topics=5, n_docs=20, binary=False):
    topics = [f"t{i}" for i in range(n_topics)]
    docs = [f"d{i:02d}" for i in range(n_docs)]
    qrels_by_topic = {}
    rankings = {}
    for topic in topics:
        judged = rng.sample(docs, rng.randint(3, 12))
        top = 1 if binary else 3
        qrels_by_topic[topic] = {d: rng.randint(0, top) for d in judged}
        rankings[topic] = rng.sample(docs, rng.randint(1, n_docs))
    return _run("r", rankings), _qrels(qrels_by_topic), qrels_by_topic, rankings


# -- NDCG -----------------------------------------------------------------------


def test_ndcg_perfect_ranking_is_one():
    qrels = _qrels({"t1": {"a": 3, "b": 2, "c": 1, "d": 0}})
    run = _run("r", {"t1": ["a", "b", "c", "d"]})
    row = ndcg_at_k(run, qrels, k=10)
    assert row.per_topic["t1"] == pytest.approx(1.0)
    assert row.mean == pytest.approx(1.0)


def test_ndcg_all_retrieved_irrelevant_is_zero():
    qrels = _qrels({"t1": {"a": 0, "b": 0, "x": 2}})
    run = _run("r", {"t1": ["a", "b"]})
    row = ndcg_at_k(run, qrels, k=10)
    assert row.per_topic["t1"] == 0.0


def test_ndcg_matches_oracle_on_random_instances():
    rng = random.Random(41)
    for _ in range(300):
        run, qrels, by_topic, rankings = _random_instance(rng)
        for gain in ("linear", "exponential"):
            row = ndcg_at_k(run, qrels, k=10, gain=gain)
            for topic, grades in by_topic.items():
                expected = oracles.ndcg_at_k(rankings[topic], grades, 10, gain)
                if expected is None:
                    assert topic not in row.per_topic
                else:
                    assert row.per_topic[topic] == pytest.approx(expected, abs=1e-12)


def test_normalizers_are_memoised_per_set_k_and_gain():
    # a memo keyed by the metric alone would reuse the first call's ideal DCG
    rng = random.Random(43)
    for _ in range(50):
        run, qrels, by_topic, rankings = _random_instance(rng, n_topics=6)
        settings = ((5, "linear"), (10, "exponential"), (10, "linear"), (5, "exponential"))
        for k, gain in settings:
            row = ndcg_at_k(run, qrels, k=k, gain=gain)
            assert row == ndcg_at_k(run, _qrels(by_topic), k=k, gain=gain)  # a fresh set
            for topic, grades in by_topic.items():
                expected = oracles.ndcg_at_k(rankings[topic], grades, k, gain)
                if expected is None:
                    assert topic not in row.per_topic
                else:
                    assert row.per_topic[topic] == pytest.approx(expected, abs=1e-12)
        assert set(qrels.normalizers) == {("ndcg", k, gain) for k, gain in settings}
        for threshold in (1, 2):
            row = average_precision(run, binarize(qrels, threshold))
            for topic, grades in by_topic.items():
                binary = {doc: int(grade >= threshold) for doc, grade in grades.items()}
                expected = oracles.average_precision(rankings[topic], binary)
                if expected is None:
                    assert topic not in row.per_topic
                else:
                    assert row.per_topic[topic] == pytest.approx(expected, abs=1e-12)


def test_ndcg_excludes_and_counts_unjudged_topics():
    qrels = _qrels({"t1": {"a": 1}})
    run = _run("r", {"t1": ["a"], "t9": ["a"]})
    row = ndcg_at_k(run, qrels, k=10)
    assert row.topics_evaluated == 1
    assert row.topics_skipped_unjudged == 1


def test_ndcg_excludes_topics_with_no_relevant():
    qrels = _qrels({"t1": {"a": 0, "b": 0}})
    run = _run("r", {"t1": ["a", "b"]})
    row = ndcg_at_k(run, qrels, k=10)
    assert row.topics_evaluated == 0
    assert row.topics_skipped_no_relevant == 1


def test_ndcg_counts_unjudged_at_cutoff():
    qrels = _qrels({"t1": {"a": 2}})
    run = _run("r", {"t1": ["zzz", "a", "yyy"]})
    row = ndcg_at_k(run, qrels, k=3)
    assert row.unjudged_at_cutoff == 2


def test_ndcg_gains_agree_on_binary_qrels():
    rng = random.Random(43)
    for _ in range(100):
        run, qrels, _, _ = _random_instance(rng, binary=True)
        linear = ndcg_at_k(run, qrels, k=10, gain="linear")
        expo = ndcg_at_k(run, qrels, k=10, gain="exponential")
        assert linear.per_topic == pytest.approx(expo.per_topic)


def test_ndcg_swap_toward_higher_grade_earlier_never_decreases():
    rng = random.Random(47)
    for _ in range(200):
        docs = [f"d{i}" for i in range(12)]
        grades = {d: rng.randint(0, 3) for d in rng.sample(docs, 8)}
        # keep at least one positive grade so the topic is evaluated
        grades[docs[0]] = max(grades.get(docs[0], 0), 1)
        ranking = rng.sample(docs, 10)
        qrels = _qrels({"t": grades})
        i = rng.randint(0, len(ranking) - 2)
        if grades.get(ranking[i], 0) > grades.get(ranking[i + 1], 0):
            # start from the lower-grade-earlier order
            ranking[i], ranking[i + 1] = ranking[i + 1], ranking[i]
        before = ndcg_at_k(_run("r", {"t": ranking}), qrels, k=10).per_topic["t"]
        swapped = ranking[:]
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        # the swap places the higher grade earlier, so NDCG may only grow
        after = ndcg_at_k(_run("r", {"t": swapped}), qrels, k=10).per_topic["t"]
        assert after >= before - 1e-12


def test_ndcg_range_and_k_validation():
    rng = random.Random(53)
    run, qrels, _, _ = _random_instance(rng)
    row = ndcg_at_k(run, qrels, k=10)
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in row.per_topic.values())
    with pytest.raises(ValueError):
        ndcg_at_k(run, qrels, k=0)
    with pytest.raises(ValueError):
        ndcg_at_k(run, qrels, k=10, gain="log")


# -- MAP ---------------------------------------------------------------------------


def test_ap_single_relevant_at_rank_one():
    qrels = _qrels({"t1": {"a": 1}})
    run = _run("r", {"t1": ["a", "b", "c"]})
    assert average_precision(run, qrels).per_topic["t1"] == pytest.approx(1.0)


def test_ap_single_relevant_at_rank_two():
    qrels = _qrels({"t1": {"a": 1, "b": 0}})
    run = _run("r", {"t1": ["b", "a", "c"]})
    assert average_precision(run, qrels).per_topic["t1"] == pytest.approx(0.5)


def test_ap_requires_binary_qrels():
    qrels = _qrels({"t1": {"a": 2}})
    run = _run("r", {"t1": ["a"]})
    with pytest.raises(ValueError):
        average_precision(run, qrels)


def test_ap_builds_the_label_set_of_a_binarized_set_once():
    scans = []

    class Grades(dict):  # counts the scans of every grade
        def values(self):
            scans.append(1)
            return super().values()

    graded = _qrels({"t1": {"a": 2, "b": 0, "c": 3}, "t2": {"d": 1, "e": 0}})
    binary = binarize(graded, 2)
    counted = JudgmentSet(grades=Grades(binary.grades))
    runs = [_run(tag, {"t1": ["c", "a", "b"], "t2": ["e", "d"]}) for tag in ("r1", "r2", "r3")]
    rows = [average_precision(run, counted) for run in runs]
    assert len(scans) == 1
    assert rows == [average_precision(run, binary) for run in runs]
    with pytest.raises(ValueError, match=r"found grades \[2, 3\]"):
        average_precision(runs[0], graded)


def test_ap_unretrieved_relevant_counts_in_denominator():
    qrels = _qrels({"t1": {"a": 1, "missing": 1}})
    run = _run("r", {"t1": ["a"]})
    assert average_precision(run, qrels).per_topic["t1"] == pytest.approx(0.5)


def test_ap_matches_oracle_on_random_instances():
    rng = random.Random(59)
    for _ in range(300):
        run, qrels, by_topic, rankings = _random_instance(rng, binary=True)
        row = average_precision(run, qrels)
        for topic, grades in by_topic.items():
            expected = oracles.average_precision(rankings[topic], grades)
            if expected is None:
                assert topic not in row.per_topic
            else:
                assert row.per_topic[topic] == pytest.approx(expected, abs=1e-12)


def test_ap_invariant_to_permuting_tail_nonrelevant():
    rng = random.Random(61)
    for _ in range(100):
        docs = [f"d{i}" for i in range(15)]
        grades = {d: rng.randint(0, 1) for d in docs}
        if sum(grades.values()) == 0:
            grades[docs[0]] = 1
        ranking = rng.sample(docs, 12)
        relevant_positions = [i for i, d in enumerate(ranking) if grades.get(d, 0) == 1]
        if not relevant_positions:
            continue
        last = relevant_positions[-1]
        tail = ranking[last + 1 :]
        rng.shuffle(tail)
        permuted = ranking[: last + 1] + tail
        qrels = _qrels({"t": grades})
        before = average_precision(_run("r", {"t": ranking}), qrels).per_topic["t"]
        after = average_precision(_run("r", {"t": permuted}), qrels).per_topic["t"]
        assert before == pytest.approx(after, abs=1e-15)


# -- scatter pairing -------------------------------------------------------------


def _row(tag, mean, metric="map"):
    from judgeval.effectiveness import EffectivenessRow

    return EffectivenessRow(
        run_tag=tag,
        metric=metric,
        qrels_source="human",
        modality="full",
        per_topic={"t1": mean},
        mean=mean,
        topics_evaluated=1,
        topics_skipped_unjudged=0,
        topics_skipped_no_relevant=0,
        unjudged_at_cutoff=0,
    )


def test_scatter_identical_tables_on_diagonal():
    rows = [_row("r1", 0.3), _row("r2", 0.6), _row("r3", 0.9)]
    lines = csv.DictReader(io.StringIO(scatter_csv([(rows, rows)])))
    # labelled from the LLM-side rows' qrels_source and modality
    assert [(line["model"], line["modality"], line["run_tag"], line["human"], line["llm"])
            for line in lines] == [
        ("human", "full", "r1", "0.300000", "0.300000"),
        ("human", "full", "r2", "0.600000", "0.600000"),
        ("human", "full", "r3", "0.900000", "0.900000"),
    ]
