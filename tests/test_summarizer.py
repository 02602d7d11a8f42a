"""Summary prompt construction and corpus sweeps."""

from __future__ import annotations

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judgeval.errors import JudgevalError, ParseError
from judgeval.gateway import (
    BackendReply,
    ChatRequest,
    Gateway,
    MockBackend,
    TransportError,
    count_tokens,
)
from judgeval.summarizer import (
    NO_CONTENT,
    SummaryRecord,
    SummarySet,
    build_summary_prompt,
    load_summary_template,
    read_summaries,
    summarize_corpus,
    write_summaries,
)
from judgeval.templates import template_sha256
from judgeval.trec_io import CorpusEntry, DocCorpus

TEMPLATE = load_summary_template()


def _corpus(**texts) -> DocCorpus:
    return DocCorpus(entries={doc_id: CorpusEntry(text) for doc_id, text in texts.items()})


def _mock_gateway(tmp_path, seed=1, **kwargs):
    kwargs.setdefault("sleep", lambda _s: None)
    return Gateway(MockBackend(seed=seed), tmp_path / "cache.jsonl", **kwargs)


def test_template_has_placeholders_and_stable_hash():
    template = load_summary_template()
    assert "<N>" in template and "<DOC>" in template
    assert len(template_sha256(template)) == 64


@pytest.mark.parametrize("budget", [80, 120])
def test_prompt_contains_budget_phrase(budget):
    req = build_summary_prompt("some document text", budget, "m", template=TEMPLATE)
    assert f"maximum about {budget} tokens" in req.user_text
    assert "some document text" in req.user_text
    assert req.max_output_tokens == 2 * budget


def test_prompt_well_formed_for_empty_document():
    req = build_summary_prompt("", 80, "m", template=TEMPLATE)
    assert "maximum about 80 tokens" in req.user_text
    assert req.user_text.rstrip().endswith("Document:")


def test_summary_prompt_markers_inside_the_document_stay_literal():
    req = build_summary_prompt("what <DOC> and <N> mean", 80, "m", template="N=<N>|D=<DOC>|<N>")
    assert req.user_text == "N=80|D=what <DOC> and <N> mean|80"


@pytest.mark.parametrize("doc", ["plain text", "", "what <N> and <DOC> mean", "<DOC><QUERY>"])
@pytest.mark.parametrize("budget", [80, 120])
def test_summary_prompt_bytes_equal_the_chained_replacement(doc, budget):
    # prompt bytes are cache keys: one-pass filling keeps every earlier request
    text = TEMPLATE.replace("<N>", str(budget)).replace("<DOC>", doc)
    expected = ChatRequest("m", text, 2 * budget)
    assert build_summary_prompt(doc, budget, "m", template=TEMPLATE) == expected


def test_prompt_rejects_nonpositive_budget(tmp_path):
    gw = _mock_gateway(tmp_path)
    for budget in (0, -80):
        with pytest.raises(ValueError, match="budget must be positive"):
            summarize_corpus(_corpus(d1="x"), budget, gw, "m", template=TEMPLATE)
    assert gw.backend_calls == 0


def test_empty_document_short_circuits_backend(tmp_path):
    gw = _mock_gateway(tmp_path)
    corpus = _corpus(d1="one doc " * 30, d2="", d3="other doc " * 30, d4=" \n\t ")
    summaries = summarize_corpus(corpus, 80, gw, "m", template=TEMPLATE)
    assert len(summaries) == 4
    assert summaries.records["d2"].text == NO_CONTENT
    assert summaries.records["d2"].output_token_count == 0
    assert summaries.records["d4"] == replace(summaries.records["d2"], doc_id="d4")
    assert gw.backend_calls == 2


def test_mock_summaries_fit_budget(tmp_path):
    gw = _mock_gateway(tmp_path)
    corpus = _corpus(d1=" ".join(f"w{i}" for i in range(400)))
    summaries = summarize_corpus(corpus, 80, gw, "m", template=TEMPLATE)
    record = summaries.records["d1"]
    assert record.output_token_count == count_tokens(record.text)
    assert record.output_token_count <= 80
    assert record.flags == ()


def test_budget_coverage_and_prompt_fidelity(tmp_path):
    gw = _mock_gateway(tmp_path)
    template = load_summary_template()
    corpus = _corpus(**{f"d{i}": f"text {i} " * 20 for i in range(7)})
    summaries = summarize_corpus(corpus, 80, gw, "m", template=template)
    assert sorted(summaries.records) == sorted(corpus.entries)
    expected_hash = template_sha256(template)
    assert all(r.prompt_sha256 == expected_hash for r in summaries.records.values())


def test_rerun_over_cache_is_identical_with_zero_calls(tmp_path):
    corpus = _corpus(d1="alpha beta " * 40, d2="", d3="gamma delta " * 25)
    first = summarize_corpus(corpus, 80, _mock_gateway(tmp_path), "m", template=TEMPLATE)
    gw2 = _mock_gateway(tmp_path)
    second = summarize_corpus(corpus, 80, gw2, "m", template=TEMPLATE)
    assert gw2.backend_calls == 0
    assert second.records == first.records
    assert second.errors == {} == first.errors


def test_over_budget_and_longer_than_source_flags(tmp_path):
    class _Verbose:
        def send(self, req, request_hash):
            text = "word " * 500
            return BackendReply(text=text, input_tokens=1, output_tokens=count_tokens(text))

    gw = Gateway(_Verbose(), tmp_path / "cache.jsonl", sleep=lambda _s: None)
    corpus = _corpus(d1="short doc")
    summaries = summarize_corpus(corpus, 80, gw, "m", template=TEMPLATE)
    assert set(summaries.records["d1"].flags) == {"over_budget", "longer_than_source"}


def test_gateway_failures_go_to_ledger_not_abort(tmp_path):
    class _FailsOnMarker:
        def send(self, req, request_hash):
            if "poison" in req.user_text:
                raise TransportError("down")
            return BackendReply(text="fine", input_tokens=1, output_tokens=1)

    gw = Gateway(
        _FailsOnMarker(), tmp_path / "cache.jsonl", max_attempts=2, sleep=lambda _s: None
    )
    corpus = _corpus(d1="good text", d2="poison text", d3=" \n ")
    summaries = summarize_corpus(corpus, 80, gw, "m", template=TEMPLATE)
    assert "d1" in summaries.records
    assert "d2" in summaries.errors
    assert "d2" not in summaries.records
    # only d1's reply was used: d2 failed and d3 never reached the gateway
    only = build_summary_prompt("good text", 80, "m", template=TEMPLATE)
    assert summaries.request_hashes == {only.digest()}


def test_write_read_round_trip(tmp_path):
    gw = _mock_gateway(tmp_path)
    corpus = _corpus(d1="one " * 50, d2="")
    summaries = summarize_corpus(corpus, 80, gw, "m", template=TEMPLATE)
    path = tmp_path / "summ.jsonl"
    write_summaries(summaries, path)
    loaded = read_summaries(path)
    assert loaded.budget_tokens == 80
    assert loaded.records == summaries.records


@pytest.mark.parametrize(
    "second, message",
    [({"doc_id": "d1"}, "duplicate summary for doc d1"),
     ({"doc_id": "d2", "budget_tokens": 120}, "mixed budgets 80 and 120 in one set")],
    ids=["duplicate-doc", "mixed-budgets"],
)
def test_read_summaries_rejects_a_record_that_conflicts_with_the_first(tmp_path, second, message):
    first = {
        "doc_id": "d1", "budget_tokens": 80, "text": "t", "output_token_count": 1,
        "model": "m", "prompt_sha256": "ab", "flags": [],
    }
    path = tmp_path / "summ.jsonl"
    path.write_text(json.dumps(first) + "\n" + json.dumps({**first, **second}) + "\n")
    with pytest.raises(ParseError) as err:
        read_summaries(path)
    assert (err.value.line, str(err.value)) == (2, f"{path}:2: {message}")


def test_summary_file_bytes_are_pinned(tmp_path):
    # one NO_CONTENT record, one non-ASCII text and one record with both flags
    class _Canned:
        def send(self, req, request_hash):
            if "café" in req.user_text:
                return BackendReply(text="café — 東京", input_tokens=9, output_tokens=4)
            return BackendReply(text="verbose", input_tokens=9, output_tokens=500)

    gw = Gateway(_Canned(), tmp_path / "cache.jsonl", sleep=lambda _s: None)
    corpus = _corpus(d1="", d2="un café au lait bien chaud", d3="short doc")
    summaries = summarize_corpus(corpus, 80, gw, "m", template="About <N> tokens: <DOC>")
    path = tmp_path / "summ.jsonl"
    write_summaries(summaries, path)
    sha = "11dc6fb2224568ed267fca84435059d6e7a1353e765a01c8dfbbfe9747295898"
    assert path.read_bytes() == (
        '{"budget_tokens": 80, "doc_id": "d1", "flags": [], "model": "m", '
        f'"output_token_count": 0, "prompt_sha256": "{sha}", "text": "NO_CONTENT"}}\n'
        '{"budget_tokens": 80, "doc_id": "d2", "flags": [], "model": "m", '
        f'"output_token_count": 4, "prompt_sha256": "{sha}", "text": "café — 東京"}}\n'
        '{"budget_tokens": 80, "doc_id": "d3", "flags": ["over_budget", "longer_than_source"], '
        f'"model": "m", "output_token_count": 500, "prompt_sha256": "{sha}", "text": "verbose"}}\n'
    ).encode("utf-8")


def _json_dumps_lines(summaries: SummarySet) -> bytes:
    # the summary file as it was written before the fixed frame
    return "".join(
        json.dumps(vars(summaries.records[doc_id]), sort_keys=True, ensure_ascii=False) + "\n"
        for doc_id in sorted(summaries.records)
    ).encode("utf-8")


def _framed_bytes(records: list[SummaryRecord]) -> tuple[bytes, bytes]:
    summaries = SummarySet(80, {rec.doc_id: rec for rec in records})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "summ.jsonl"
        write_summaries(summaries, path)
        return path.read_bytes(), _json_dumps_lines(summaries)


def test_framed_summary_lines_are_the_json_dumps_lines():
    sha = "ab" * 32
    records = [
        SummaryRecord("d0", 80, 'say "hi"', 3, "m", sha),
        SummaryRecord('d"1\\', 80, "back\\slash \\n", 1, 'm"x', sha, ("over_budget",)),
        SummaryRecord("d2", 80, "tab\t nul\x00 bell\x07 del\x7f \u2028", 0, "m", sha,
                      ("over_budget", "longer_than_source")),
        SummaryRecord("dé", 80, "café — 東京 \U0001f600", 12, "模型", sha, ("a\u00e9", "b")),
    ]
    framed, expected = _framed_bytes(records)
    assert framed == expected


_FLAGS = st.lists(st.text(max_size=12), max_size=2).map(tuple)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(SummaryRecord, st.text(), st.integers(min_value=0), st.text(),
                          st.integers(min_value=0), st.text(), st.text(), _FLAGS), max_size=4))
def test_framed_summary_lines_are_the_json_dumps_lines_on_any_record(records):
    framed, expected = _framed_bytes(records)
    assert framed == expected


def test_template_without_markers_rejected(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("no placeholders here")
    with pytest.raises(JudgevalError):
        load_summary_template(bad)
