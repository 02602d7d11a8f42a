"""Parsing, serialization, and round-trip behavior of the file formats."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judgeval.config import load_config
from judgeval.cost import load_price_table
from judgeval.effectiveness import average_precision, ndcg_at_k
from judgeval.errors import ConflictError, ParseError
from judgeval.judge import binarize, load_judge_template, load_topics
from judgeval.summarizer import load_summary_template, read_summaries
from judgeval.trec_io import (
    FULL_DOCUMENT,
    JudgmentSet,
    Modality,
    Run,
    load_corpus,
    load_runs_dir,
    parse_qrels,
    parse_run,
    sidecar_path,
    write_judgments,
)


# -- qrels ---------------------------------------------------------------


def test_parse_qrels_basic_line(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("19335 0 D123 2\n")
    judgments = parse_qrels(path)
    assert judgments.grades == {("19335", "D123"): 2}
    assert judgments.model is None
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
        model, modality = None, FULL_DOCUMENT
    else:
        model = rng.choice(["gpt-4o", "llama-3.1-8b"])
        modality = (
            FULL_DOCUMENT if rng.random() < 0.4 else Modality("summary", rng.choice([80, 120]))
        )
    return JudgmentSet(grades=grades, model=model, modality=modality)


def test_write_then_parse_round_trips(tmp_path):
    rng = random.Random(7)
    for i in range(50):
        original = _random_judgment_set(rng)
        path = tmp_path / f"r{i}.qrels"
        write_judgments(original, path)
        parsed = parse_qrels(path)
        assert parsed.grades == original.grades
        assert parsed.model == original.model
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
        model="m",
        modality=Modality("summary", 80),
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
    # NaN has no place in the score order, so the ranking would hang on line order;
    # a line short of a field or with a non-integer rank is named the same way
    path = tmp_path / "r.txt"
    for line, message in [
        ("t1 Q0 d1 2 notanumber r", "score 'notanumber' is not numeric"),
        ("t1 Q0 d1 2 nan r", "score 'nan' is NaN"),
        ("t1 Q0 d1 2 1.0", "expected 6 fields 'topic Q0 docid rank score tag', got 5"),
        ("t1 Q0 d1 two 1.0 r", "rank 'two' is not an integer"),
    ]:
        path.write_text(f"t1 Q0 d0 1 inf r\n{line}\n")
        with pytest.raises(ParseError) as err:
            parse_run(path)
        assert (err.value.line, str(err.value)) == (2, f"{path}:2: {message}")


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
    loaded = list(load_runs_dir(runs))
    assert [r.run_tag for r in loaded] == ["alpha", "zeta"]
    (runs / "c.txt").write_text("t1 Q0 d2 1 1.0 alpha\n")
    with pytest.raises(ConflictError, match="'alpha'"):
        list(load_runs_dir(runs))


def _parse_qrels_with_sidecar(sidecar):
    qrels = sidecar.with_name(sidecar.name + ".qrels")
    qrels.write_text("t1 0 d1 2\n")
    sidecar.replace(sidecar_path(qrels))
    return parse_qrels(qrels)


SUMMARY_LINE = {
    "doc_id": "d1", "budget_tokens": 80, "text": "one", "output_token_count": 1,
    "model": "m", "prompt_sha256": "ab", "flags": [],
}


@pytest.mark.parametrize(
    "load, text",
    [
        (parse_qrels, "t1 0 d1 2\nt1 0 d2 0\nt2 0 d1 1\n"),
        (parse_run, "t1 Q0 d1 1 2.5 r\nt1 Q0 d2 2 1.5 r\n"),
        (load_topics, "t1\tfirst query\nt2\tsecond query\n"),
        (load_corpus, '{"docid": "d1", "text": "one"}\n{"docid": "d2", "text": "two"}\n'),
        (load_config, "[data]\ndataset = d\ncorpus = c\ntopics = t\nqrels = q\nruns_dir = r\n"
                      "[experiment]\nmodels = m\nmodalities = full\nseed = 1\noutput_dir = o\n"),
        (load_price_table, '{"m": {"input_usd_per_1m": 1.5, "output_usd_per_1m": 6.0}}'),
        (load_summary_template, "Summarize in about <N> tokens:\n<DOC>\n"),
        (load_judge_template, "Query: <QUERY>\nPassage: <PASSAGE>\nGrade 0-3:\n"),
        (_parse_qrels_with_sidecar, '{"source": "model", "model": "m", "modality": "summary", '
                                    '"budget_tokens": 80, "prompt_sha256": "ab"}'),
        (read_summaries, json.dumps(SUMMARY_LINE) + "\n"),
    ],
    ids=[
        "qrels", "run", "topics", "corpus", "config", "prices", "summary-template",
        "judge-template", "sidecar", "summaries",
    ],
)
def test_leading_byte_order_mark_is_dropped(tmp_path, load, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))  # as Notepad saves UTF-8
    assert load(marked) == load(plain)


@pytest.mark.parametrize("load", [parse_qrels, load_topics])
def test_text_that_is_not_utf8_is_a_parse_error_naming_the_file(tmp_path, load):
    path = tmp_path / "latin1"
    path.write_bytes("t1 0 caf\xe9 1\n".encode("latin-1"))
    with pytest.raises(ParseError) as err:
        load(path)
    assert err.value.path == str(path)


@pytest.mark.parametrize(
    "change", [{"text": None}, {"text": 5}, {"budget_tokens": "80"}, {"flags": None}]
)
def test_summary_fields_must_have_their_declared_types(tmp_path, change):
    path = tmp_path / "summ80.jsonl"
    second = {**SUMMARY_LINE, "doc_id": "d2", **change}
    path.write_text(json.dumps(SUMMARY_LINE) + "\n" + json.dumps(second) + "\n")
    with pytest.raises(ParseError, match=f"'{next(iter(change))}' must be a") as err:
        read_summaries(path)
    assert err.value.line == 2


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


def test_load_corpus_lone_surrogate_is_a_parse_error(tmp_path):
    # the \ud800 escape decodes, but no request over the text could be hashed
    path = tmp_path / "c.jsonl"
    path.write_text('{"docid":"D0","text":"fine"}\n{"docid":"D1","text":"a \\ud800 b"}\n')
    with pytest.raises(ParseError, match=r"c\.jsonl:2: 'text' is not UTF-8 text"):
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


def test_a_judgment_set_is_labelled_by_its_model_or_as_human():
    assert JudgmentSet(model="m").label() == "m"
    assert JudgmentSet().label() == "human"


_SIDECAR = {"source": "model", "model": "m", "modality": "summary", "budget_tokens": 80}


@pytest.mark.parametrize(
    "meta, model, modality",
    [
        (_SIDECAR, "m", Modality("summary", 80)),
        ({**_SIDECAR, "prompt_sha256": "ab", "created_at": "2024-01-01"}, "m",
         Modality("summary", 80)),
        ({"source": "human", "model": None, "modality": "full", "budget_tokens": None,
          "prompt_sha256": None}, None, FULL_DOCUMENT),
    ],
    ids=["model-summary", "extra-keys", "human-full"],
)
def test_the_sidecar_reader_accepts_what_write_judgments_writes(tmp_path, meta, model, modality):
    sidecar = tmp_path / "meta"
    sidecar.write_text(json.dumps(meta))
    parsed = _parse_qrels_with_sidecar(sidecar)
    assert (parsed.model, parsed.modality) == (model, modality)


@pytest.mark.parametrize(
    "meta",
    [
        {"source": "robot", "modality": "bogus", "budget_tokens": 80.9, "model": "m"},
        {"source": "model", "modality": "summary", "budget_tokens": True, "model": 5,
         "prompt_sha256": 7},
        {**_SIDECAR, "model": None},  # a model source needs a name
        {**_SIDECAR, "model": ""},
        {**_SIDECAR, "model": 5},
        {**_SIDECAR, "source": "human"},  # a human source has no model
        {**_SIDECAR, "source": "robot"},
        {**_SIDECAR, "modality": "bogus"},
        {**_SIDECAR, "budget_tokens": None},
        {**_SIDECAR, "budget_tokens": 0},
        {**_SIDECAR, "budget_tokens": 80.0},
        {**_SIDECAR, "budget_tokens": "80"},
        {**_SIDECAR, "budget_tokens": True},
        {**_SIDECAR, "modality": "full"},  # a full document has no budget
        {**_SIDECAR, "prompt_sha256": 7},
        {key: value for key, value in _SIDECAR.items() if key != "model"},
        {key: value for key, value in _SIDECAR.items() if key != "budget_tokens"},
        [],
        "model",
    ],
)
def test_the_sidecar_reader_rejects_any_other_shape(tmp_path, meta):
    sidecar = tmp_path / "meta"
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ParseError, match="bad judgment sidecar"):
        _parse_qrels_with_sidecar(sidecar)


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
    original = JudgmentSet(grades=grades, model="m", modality=Modality("summary", 80))
    write_judgments(original, path)
    parsed = parse_qrels(path)
    assert parsed.grades == original.grades
    assert parsed.model == original.model
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
