"""Grade elicitation, parsing, and binarization."""

from __future__ import annotations

import random

import pytest

from judgeval.errors import ParseError
from judgeval.gateway import BackendReply, Gateway, MockBackend
from judgeval.judge import (
    GRADE_NUDGE,
    JudgingTask,
    Topic,
    binarize,
    build_judge_prompt,
    judge_pool,
    load_judge_template,
    load_topics,
    parse_grade,
)
from judgeval.trec_io import FULL_DOCUMENT, JudgmentSet, model_source, summary_modality


class _FixedBackend:
    def __init__(self, text):
        self.text = text
        self.calls = 0
        self.requests = []

    def send(self, req):
        self.calls += 1
        self.requests.append(req)
        return BackendReply(text=self.text, input_tokens=5, output_tokens=2)


def _gateway(tmp_path, backend):
    return Gateway(backend, tmp_path / "cache.jsonl", sleep=lambda _s: None)


def _tasks(n=6):
    topics = [Topic(f"t{i}", f"query {i}") for i in range(1, 3)]
    tasks = []
    for i in range(n):
        topic = topics[i % len(topics)]
        tasks.append(
            JudgingTask(topic, f"d{i:02d}", f"evidence text {i}")
        )
    return tasks


# -- topics file ---------------------------------------------------------------


def test_load_topics(tmp_path):
    path = tmp_path / "topics.tsv"
    path.write_text("t1\twhat is rbo\nt2\thow do tides work\n")
    topics = load_topics(path)
    assert topics["t2"].query_text == "how do tides work"


def test_load_topics_rejects_bad_lines(tmp_path):
    path = tmp_path / "topics.tsv"
    path.write_text("t1 no tab here\n")
    with pytest.raises(ParseError):
        load_topics(path)
    path.write_text("t1\tq\nt1\tq again\n")
    with pytest.raises(ParseError):
        load_topics(path)
    path.write_text("t1\t\n")
    with pytest.raises(ParseError):
        load_topics(path)


def test_topic_requires_query_text():
    with pytest.raises(ValueError):
        Topic("t1", "")


# -- grade parsing ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2", 2),
        ("Final score: 1", 1),
        ("score is 7", None),
        ("O: 3", 3),
        ("the rating is 2.", 2),
        ("grade 1 or maybe 3", 3),
        ("1.5", None),
        ("10", None),
        ("33", None),
        ("probability 0.25 so 2", 2),
        ("", None),
        ("no digits at all", None),
    ],
)
def test_parse_grade(text, expected):
    assert parse_grade(text) == expected


def test_parse_grade_never_out_of_domain():
    rng = random.Random(4)
    for _ in range(300):
        text = " ".join(str(rng.randint(0, 99)) for _ in range(rng.randint(1, 8)))
        grade = parse_grade(text)
        assert grade is None or grade in (0, 1, 2, 3)


# -- prompt construction ----------------------------------------------------------


def test_judge_prompt_substitution():
    task = JudgingTask(Topic("t1", "the query"), "d1", "the passage")
    req = build_judge_prompt(task, "m")
    assert "Query: the query" in req.user_text
    assert "Passage: the passage" in req.user_text


def test_judge_prompt_markers_inside_inputs_stay_literal():
    task = JudgingTask(Topic("t1", "what does <PASSAGE> mean"), "d1", "EVIDENCE <QUERY>")
    req = build_judge_prompt(task, "m", template="Q=<QUERY>|P=<PASSAGE>|Q=<QUERY>")
    assert req.user_text == (
        "Q=what does <PASSAGE> mean|P=EVIDENCE <QUERY>|Q=what does <PASSAGE> mean"
    )
    # inputs without markers render exactly as plain replacement would
    plain = JudgingTask(Topic("t1", "the query"), "d1", "the passage")
    template = load_judge_template()
    expected = template.replace("<QUERY>", "the query").replace("<PASSAGE>", "the passage")
    assert build_judge_prompt(plain, "m", template=template).user_text == expected


def test_judge_template_requires_markers(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("rate <QUERY> only")
    from judgeval.errors import JudgevalError

    with pytest.raises(JudgevalError):
        load_judge_template(bad)


# -- judging pools ------------------------------------------------------------------


def test_judge_pool_all_twos(tmp_path):
    gw = _gateway(tmp_path, _FixedBackend("2"))
    result = judge_pool(_tasks(8), gw, "m", FULL_DOCUMENT)
    assert len(result.judgments) == 8
    assert set(result.judgments.grades.values()) == {2}
    assert result.failures == []
    assert result.judgments.source == model_source("m")
    assert result.judgments.modality == FULL_DOCUMENT
    from judgeval.agreement import format_percentages, label_distribution

    shares = format_percentages(label_distribution(result.judgments))
    assert shares == {0: "0.0", 1: "0.0", 2: "100.0", 3: "0.0"}


def test_judge_pool_parses_decorated_answer(tmp_path):
    gw = _gateway(tmp_path, _FixedBackend("O: 3"))
    result = judge_pool(_tasks(2), gw, "m", FULL_DOCUMENT)
    assert set(result.judgments.grades.values()) == {3}


def test_judge_pool_unparseable_goes_to_ledger(tmp_path):
    backend = _FixedBackend("maybe")
    gw = _gateway(tmp_path, backend)
    requests = backend.requests
    tasks = _tasks(5)
    result = judge_pool(tasks, gw, "m", FULL_DOCUMENT)
    assert len(result.judgments) == 0
    assert len(result.failures) == 5
    assert all(f.reason == "no parseable grade" for f in result.failures)
    # pool coverage: every task is either a record or a ledger entry
    assert len(result.judgments) + len(result.failures) == len(tasks)
    # one plain and one nudged attempt per task, none answered by the cache
    assert len(requests) == 10
    assert sum(req.user_text.endswith(GRADE_NUDGE) for req in requests) == 5
    assert backend.calls == gw.backend_calls == 10
    assert gw.cache_hits == 0


def test_judge_pool_nudge_rescues_final_attempt(tmp_path):
    class _NudgeOnly:
        def send(self, req):
            if req.user_text.endswith(GRADE_NUDGE):
                return BackendReply(text="1", input_tokens=1, output_tokens=1)
            return BackendReply(text="hmm", input_tokens=1, output_tokens=1)

    gw = _gateway(tmp_path, _NudgeOnly())
    result = judge_pool(_tasks(3), gw, "m", FULL_DOCUMENT)
    assert len(result.judgments) == 3
    assert set(result.judgments.grades.values()) == {1}
    assert result.failures == []


def test_judge_pool_respects_modality_and_rejects_mixtures(tmp_path):
    gw = _gateway(tmp_path, _FixedBackend("2"))
    result = judge_pool(_tasks(4), gw, "m", summary_modality(80))
    assert result.judgments.modality == summary_modality(80)


def test_modality_isolation_same_keys(tmp_path):
    gw = _gateway(tmp_path, MockBackend(seed=5))
    full = judge_pool(_tasks(6), gw, "m", FULL_DOCUMENT)
    summ_tasks = [
        JudgingTask(t.topic, t.doc_id, "summary: " + t.evidence_text) for t in _tasks(6)
    ]
    summ = judge_pool(summ_tasks, gw, "m", summary_modality(80))
    assert set(full.judgments.grades) == set(summ.judgments.grades)


def test_empty_pool(tmp_path):
    gw = _gateway(tmp_path, _FixedBackend("2"))
    result = judge_pool([], gw, "m", FULL_DOCUMENT)
    assert len(result.judgments) == 0
    assert result.failures == []


# -- binarization ----------------------------------------------------------------


def _graded_set():
    return JudgmentSet(
        grades={("t1", "d0"): 0, ("t1", "d1"): 1, ("t1", "d2"): 2, ("t1", "d3"): 3},
        source=model_source("m"),
        modality=summary_modality(80),
        prompt_sha256="abc",
    )


def test_binarize_default_threshold_maps_1_to_3_relevant():
    out = binarize(_graded_set(), 1)
    assert [out.grades[(f"t1", f"d{i}")] for i in range(4)] == [0, 1, 1, 1]


def test_binarize_threshold_two():
    out = binarize(_graded_set(), 2)
    assert [out.grades[(f"t1", f"d{i}")] for i in range(4)] == [0, 0, 1, 1]


def test_binarize_preserves_provenance_and_empty():
    src = _graded_set()
    out = binarize(src, 3)
    assert out.source == src.source
    assert out.modality == src.modality
    assert out.prompt_sha256 == src.prompt_sha256
    assert len(binarize(JudgmentSet(), 1)) == 0


def test_binarize_idempotent():
    rng = random.Random(2)
    for _ in range(50):
        grades = {
            (f"t{rng.randint(1, 4)}", f"d{i}"): rng.randint(0, 3) for i in range(20)
        }
        judgments = JudgmentSet(grades=grades)
        for threshold in (1, 2, 3):
            once = binarize(judgments, threshold)
            assert binarize(once, 1).grades == once.grades


def test_binarize_rejects_bad_threshold():
    with pytest.raises(ValueError):
        binarize(_graded_set(), 0)
