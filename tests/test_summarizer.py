"""Summary prompt construction and corpus sweeps."""

from __future__ import annotations

from dataclasses import replace

import pytest

from judgeval.errors import JudgevalError
from judgeval.gateway import (
    BackendReply,
    Gateway,
    MockBackend,
    TransportError,
    count_tokens,
)
from judgeval.summarizer import (
    NO_CONTENT,
    build_summary_prompt,
    load_summary_template,
    read_summaries,
    summarize_corpus,
    write_summaries,
)
from judgeval.templates import template_sha256
from judgeval.trec_io import CorpusEntry, DocCorpus


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
    req = build_summary_prompt("some document text", budget, "m")
    assert f"maximum about {budget} tokens" in req.user_text
    assert "some document text" in req.user_text
    assert req.max_output_tokens == 2 * budget


def test_prompt_well_formed_for_empty_document():
    req = build_summary_prompt("", 80, "m")
    assert "maximum about 80 tokens" in req.user_text
    assert req.user_text.rstrip().endswith("Document:")


def test_prompt_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        build_summary_prompt("x", 0, "m")


def test_empty_document_short_circuits_backend(tmp_path):
    gw = _mock_gateway(tmp_path)
    corpus = _corpus(d1="one doc " * 30, d2="", d3="other doc " * 30, d4=" \n\t ")
    summaries = summarize_corpus(corpus, 80, gw, "m")
    assert len(summaries) == 4
    assert summaries.records["d2"].text == NO_CONTENT
    assert summaries.records["d2"].output_token_count == 0
    assert summaries.records["d4"] == replace(summaries.records["d2"], doc_id="d4")
    assert gw.backend_calls == 2


def test_mock_summaries_fit_budget(tmp_path):
    gw = _mock_gateway(tmp_path)
    corpus = _corpus(d1=" ".join(f"w{i}" for i in range(400)))
    summaries = summarize_corpus(corpus, 80, gw, "m")
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
    first = summarize_corpus(corpus, 80, _mock_gateway(tmp_path), "m")
    gw2 = _mock_gateway(tmp_path)
    second = summarize_corpus(corpus, 80, gw2, "m")
    assert gw2.backend_calls == 0
    assert second.records == first.records
    assert second.errors == {} == first.errors


def test_over_budget_and_longer_than_source_flags(tmp_path):
    class _Verbose:
        def send(self, req):
            text = "word " * 500
            return BackendReply(text=text, input_tokens=1, output_tokens=count_tokens(text))

    gw = Gateway(_Verbose(), tmp_path / "cache.jsonl", sleep=lambda _s: None)
    corpus = _corpus(d1="short doc")
    summaries = summarize_corpus(corpus, 80, gw, "m")
    assert set(summaries.records["d1"].flags) == {"over_budget", "longer_than_source"}


def test_gateway_failures_go_to_ledger_not_abort(tmp_path):
    class _FailsOnMarker:
        def send(self, req):
            if "poison" in req.user_text:
                raise TransportError("down")
            return BackendReply(text="fine", input_tokens=1, output_tokens=1)

    gw = Gateway(
        _FailsOnMarker(), tmp_path / "cache.jsonl", max_attempts=2, sleep=lambda _s: None
    )
    corpus = _corpus(d1="good text", d2="poison text")
    summaries = summarize_corpus(corpus, 80, gw, "m")
    assert "d1" in summaries.records
    assert "d2" in summaries.errors
    assert "d2" not in summaries.records


def test_write_read_round_trip(tmp_path):
    gw = _mock_gateway(tmp_path)
    corpus = _corpus(d1="one " * 50, d2="")
    summaries = summarize_corpus(corpus, 80, gw, "m")
    path = tmp_path / "summ.jsonl"
    write_summaries(summaries, path)
    loaded = read_summaries(path)
    assert loaded.budget_tokens == 80
    assert loaded.records == summaries.records


def test_template_without_markers_rejected(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("no placeholders here")
    with pytest.raises(JudgevalError):
        load_summary_template(bad)
