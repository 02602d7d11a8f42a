"""Parsing, serialization, and round-trip behavior of the file formats."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judgeval.effectiveness import average_precision, ndcg_at_k
from judgeval.errors import ConflictError, ParseError
from judgeval.judge import binarize
from judgeval.trec_io import (
    FULL_DOCUMENT,
    HUMAN,
    JudgmentSet,
    Modality,
    Run,
    Source,
    load_corpus,
    load_runs_dir,
    model_source,
    parse_qrels,
    parse_run,
    sidecar_path,
    summary_modality,
    write_judgments,
)


# -- qrels ---------------------------------------------------------------


def test_parse_qrels_basic_line(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("19335 0 D123 2\n")
    judgments = parse_qrels(path)
    assert judgments.grades == {("19335", "D123"): 2}
    assert judgments.source == HUMAN
    assert judgments.modality == FULL_DOCUMENT


def test_parse_qrels_grade_out_of_range(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("19335 0 D123 5\n")
    with pytest.raises(ParseError) as err:
        parse_qrels(path)
    assert err.value.line == 1


def test_parse_qrels_duplicate_pair_conflicts(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("t1 0 d1 0\nt1 0 d1 3\n")
    with pytest.raises(ConflictError) as err:
        parse_qrels(path)
    assert err.value.line == 2


def test_parse_qrels_bad_field_count_names_line(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("t1 0 d1 1\nt2 0 d2\n")
    with pytest.raises(ParseError) as err:
        parse_qrels(path)
    assert err.value.line == 2


def test_parse_qrels_non_integer_grade(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("t1 0 d1 high\n")
    with pytest.raises(ParseError):
        parse_qrels(path)


def test_parse_qrels_accepts_crlf_and_blank_lines(tmp_path):
    path = tmp_path / "q.txt"
    path.write_bytes(b"t1 0 d1 1\r\n\r\nt1 0 d2 0\r\n")
    judgments = parse_qrels(path)
    assert len(judgments) == 2


def _random_judgment_set(rng: random.Random) -> JudgmentSet:
    n = rng.randint(0, 40)
    grades = {}
    for _ in range(n):
        key = (f"t{rng.randint(1, 9)}", f"d{rng.randint(1, 30)}")
        grades[key] = rng.randint(0, 3)
    if rng.random() < 0.5:
        source, modality = HUMAN, FULL_DOCUMENT
    else:
        source = model_source(rng.choice(["gpt-4o", "llama-3.1-8b"]))
        modality = (
            FULL_DOCUMENT if rng.random() < 0.4 else summary_modality(rng.choice([80, 120]))
        )
    return JudgmentSet(grades=grades, source=source, modality=modality)


def test_write_then_parse_round_trips(tmp_path):
    rng = random.Random(7)
    for i in range(50):
        original = _random_judgment_set(rng)
        path = tmp_path / f"r{i}.qrels"
        write_judgments(original, path)
        parsed = parse_qrels(path)
        assert parsed.grades == original.grades
        assert parsed.source == original.source
        assert parsed.modality == original.modality


def test_write_judgments_empty_set_valid_sidecar(tmp_path):
    path = tmp_path / "empty.qrels"
    write_judgments(JudgmentSet(), path)
    assert path.read_text() == ""
    assert sidecar_path(path).exists()
    assert len(parse_qrels(path)) == 0


def test_sidecar_records_summary_budget(tmp_path):
    import json

    path = tmp_path / "s.qrels"
    judgments = JudgmentSet(
        grades={("t1", "d1"): 2},
        source=model_source("m"),
        modality=summary_modality(80),
    )
    write_judgments(judgments, path)
    meta = json.loads(sidecar_path(path).read_text())
    assert meta["budget_tokens"] == 80
    assert meta["modality"] == "summary"
    assert meta["source"] == "model"
    assert set(meta) == {
        "source", "modality", "budget_tokens", "model", "prompt_sha256",
    }


# -- runs ------------------------------------------------------------------


def test_parse_run_basic_line(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("101 Q0 D9 1 7.25 bm25run\n")
    run = parse_run(path)
    assert run.run_tag == "bm25run"
    assert run.topics == {"101": ["D9"]}


def test_parse_run_ties_break_by_doc_id(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("t1 Q0 db 1 2.0 r\nt1 Q0 da 2 2.0 r\nt1 Q0 dc 3 5.0 r\n")
    run = parse_run(path)
    assert run.topics == {"t1": ["dc", "da", "db"]}


def test_parse_run_empty_file(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("")
    run = parse_run(path)
    assert run.topics == {}


def test_parse_run_rejects_bad_score(tmp_path):
    # NaN has no place in the score order, so the ranking would hang on line order
    path = tmp_path / "r.txt"
    for score in ("notanumber", "nan"):
        path.write_text(f"t1 Q0 d0 1 inf r\nt1 Q0 d1 2 {score} r\n")
        with pytest.raises(ParseError) as err:
            parse_run(path)
        assert err.value.line == 2


def test_parse_run_rejects_duplicate_doc(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("t1 Q0 d1 1 2.0 r\nt1 Q0 d1 2 1.0 r\n")
    with pytest.raises(ConflictError):
        parse_run(path)


def test_parse_run_rejects_mixed_tags(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("t1 Q0 d1 1 2.0 r1\nt1 Q0 d2 2 1.0 r2\n")
    with pytest.raises(ConflictError):
        parse_run(path)


def test_parse_run_ranks_are_permutation_and_scores_non_increasing(tmp_path):
    rng = random.Random(3)
    for i in range(30):
        path = tmp_path / f"r{i}.txt"
        lines = []
        for topic in ("a", "b"):
            docs = rng.sample(range(100), rng.randint(1, 12))
            for j, doc in enumerate(docs):
                score = rng.choice([1.0, 2.5, 2.5, 7.0, rng.uniform(0, 10)])
                lines.append(f"{topic} Q0 d{doc} {j + 1} {score} tag\n")
        path.write_text("".join(lines))
        run = parse_run(path)
        for topic in ("a", "b"):
            fields = [line.split() for line in lines if line.startswith(f"{topic} ")]
            expected = sorted((-float(f[4]), f[2]) for f in fields)
            assert run.topics[topic] == [doc_id for _score, doc_id in expected]


def test_load_runs_dir_sorts_and_rejects_duplicate_tags(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "b.txt").write_text("t1 Q0 d1 1 1.0 zeta\n")
    (runs / "a.txt").write_text("t1 Q0 d1 1 1.0 alpha\n")
    loaded = load_runs_dir(runs)
    assert [r.run_tag for r in loaded] == ["alpha", "zeta"]
    (runs / "c.txt").write_text("t1 Q0 d2 1 1.0 alpha\n")
    with pytest.raises(ConflictError):
        load_runs_dir(runs)


# -- corpus ------------------------------------------------------------------


def test_load_corpus_counts_tokens(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"docid":"D1","text":"hello world"}\n{"docid":"D2","text":""}\n')
    corpus = load_corpus(path)
    assert {doc_id: entry.text for doc_id, entry in corpus.entries.items()} == {
        "D1": "hello world",
        "D2": "",
    }


def test_load_corpus_duplicate_docid(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"docid":"D1","text":"a"}\n{"docid":"D1","text":"b"}\n')
    with pytest.raises(ConflictError) as err:
        load_corpus(path)
    assert err.value.line == 2


def test_load_corpus_invalid_json_and_missing_field(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"docid":"D1"\n')
    with pytest.raises(ParseError) as err:
        load_corpus(path)
    assert err.value.line == 1
    path.write_text('{"docid":"D1"}\n')
    with pytest.raises(ParseError):
        load_corpus(path)


# -- modality / source --------------------------------------------------------


@pytest.mark.parametrize("text", ["full", "summ:80", "summ:120"])
def test_modality_parse_str_round_trip(text):
    assert str(Modality.parse(text)) == text


def test_modality_validation():
    with pytest.raises(ValueError):
        Modality("summary", 0)
    with pytest.raises(ValueError):
        Modality("full", 80)
    with pytest.raises(ValueError):
        Modality.parse("summaries:80")


def test_source_validation():
    with pytest.raises(ValueError):
        Source("model", None)
    with pytest.raises(ValueError):
        Source("human", "gpt")
    assert model_source("m").label() == "m"
    assert HUMAN.label() == "human"


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(
            st.text(alphabet="abcdefg123", min_size=1, max_size=6),
            st.text(alphabet="XYZ0189", min_size=1, max_size=6),
        ),
        st.integers(min_value=0, max_value=3),
        max_size=25,
    )
)
def test_round_trip_property(tmp_path_factory, grades):
    path = tmp_path_factory.mktemp("rt") / "q.qrels"
    original = JudgmentSet(grades=grades, source=model_source("m"), modality=summary_modality(80))
    write_judgments(original, path)
    parsed = parse_qrels(path)
    assert parsed.grades == original.grades
    assert parsed.source == original.source
    assert parsed.modality == original.modality


TOPIC_IDS = ["t1", "t2", "t3", "t4"]  # t4 never has qrels
DOC_IDS = ["a", "b", "c", "d", "e"]


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from(TOPIC_IDS[:3]), st.sampled_from(DOC_IDS)),
        st.integers(min_value=0, max_value=3),
        max_size=15,
    ),
    st.permutations(DOC_IDS),
)
def test_by_topic_index_matches_brute_force_scan(grades, ranking):
    judgments = JudgmentSet(grades=grades)
    for topic_id in TOPIC_IDS:
        expected = {doc: g for (topic, doc), g in grades.items() if topic == topic_id}
        assert judgments.grades_for_topic(topic_id) == expected
    assert judgments.grades_for_topic("t4") == {}
    assert sorted(judgments.by_topic) == sorted({topic for topic, _ in grades})

    run = Run("r", {topic_id: list(ranking) for topic_id in TOPIC_IDS})
    binary = binarize(judgments, 1)
    before = (ndcg_at_k(run, judgments), average_precision(run, binary))
    # grades_for_topic hands out copies: editing them leaves the index intact
    for judged in (judgments, binary):
        for topic_id in TOPIC_IDS:
            view = judged.grades_for_topic(topic_id)
            view.update(dict.fromkeys(view, 0))
            view["unjudged"] = 1
    assert (ndcg_at_k(run, judgments), average_precision(run, binary)) == before
