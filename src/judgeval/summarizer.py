"""Length-budgeted document summarization.

The prompt template ships as a text file with ``<N>`` and ``<DOC>``
placeholders, filled by ``templates.fill``; its SHA-256 (computed with the
markers still in place) is recorded on every summary so downstream
judgments can state exactly which prompt produced their evidence.

Budgets are soft: the instruction says "about N tokens", so over-budget
outputs are flagged, never truncated; truncation would fabricate output
the model did not produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring as _json_str  # the str encoder of ensure_ascii=False
from pathlib import Path
from typing import get_type_hints

from .errors import GatewayError, ParseError
from .gateway import ChatRequest, Gateway, count_tokens
from .trec_io import DocCorpus, atomic_write_text, json_records
from .templates import fill, load_template, template_sha256

NO_CONTENT = "NO_CONTENT"

# Request headroom over the soft budget; generations beyond
# SUMMARY_SLACK * budget are flagged as over budget.
OUTPUT_HEADROOM = 2
SUMMARY_SLACK = 1.5


@dataclass(frozen=True)
class SummaryRecord:
    doc_id: str
    budget_tokens: int
    text: str
    output_token_count: int
    model: str
    prompt_sha256: str
    flags: tuple[str, ...] = ()


# the fields every summary line holds, at these types; ``flags`` is optional
_RECORD_FIELDS = {k: t for k, t in get_type_hints(SummaryRecord).items() if k != "flags"}


@dataclass
class SummarySet:
    """All summaries for one corpus at one token budget.

    ``errors`` maps doc ids to the failure that prevented their summary;
    failed docs never appear in ``records``. ``request_hashes`` holds the
    distinct requests whose replies became records; it is empty for a set
    read back from a file.
    """

    budget_tokens: int
    records: dict[str, SummaryRecord] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    request_hashes: set[str] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.records)


def load_summary_template(path: str | Path | None = None) -> str:
    return load_template("summary", ("<N>", "<DOC>"), path)


def build_summary_prompt(doc_text: str, budget: int, model: str, *, template: str) -> ChatRequest:
    """Render the summary request for one document at a token budget."""
    user_text = fill(template, {"<N>": str(budget), "<DOC>": doc_text})
    return ChatRequest(
        model=model, user_text=user_text, max_output_tokens=OUTPUT_HEADROOM * budget
    )


def summarize_corpus(
    corpus: DocCorpus,
    budget: int,
    gateway: Gateway,
    model: str,
    *,
    template: str,
) -> SummarySet:
    """Summarize every corpus document at one budget.

    Empty and whitespace-only documents become NO_CONTENT records without
    touching the backend.
    Gateway failures are recorded per document in the error ledger; the
    sweep never aborts mid-corpus. Rerunning over a populated response
    cache performs zero backend calls and reproduces the same set.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    prompt_hash = template_sha256(template)
    result = SummarySet(budget_tokens=budget)
    doc_ids, entries = corpus.doc_ids(), corpus.entries
    replies = gateway.complete_many(
        build_summary_prompt(entries[doc_id].text, budget, model, template=template)
        for doc_id in doc_ids
        if entries[doc_id].text.strip()
    )
    for doc_id in doc_ids:
        text = entries[doc_id].text
        response = next(replies) if text.strip() else None  # one reply per nonblank doc
        if isinstance(response, GatewayError):
            result.errors[doc_id] = str(response)
            continue
        flags = []
        if response is None:
            summary, out_tokens = NO_CONTENT, 0
        else:
            result.request_hashes.add(response.request_hash)
            summary, out_tokens = response.text, response.output_tokens
            if out_tokens > SUMMARY_SLACK * budget:
                flags.append("over_budget")
            if out_tokens > count_tokens(text):
                flags.append("longer_than_source")
        result.records[doc_id] = SummaryRecord(
            doc_id, budget, summary, out_tokens, model, prompt_hash, tuple(flags)
        )
    return result


def write_summaries(summaries: SummarySet, path: str | Path) -> None:
    """Write one summary record per line, in doc id order, from one fixed frame:
    the bytes of ``json.dumps(vars(record), sort_keys=True, ensure_ascii=False)``."""
    text = "".join(
        f'{{"budget_tokens": {r.budget_tokens}, "doc_id": {_json_str(r.doc_id)}, '
        f'"flags": [{", ".join(map(_json_str, r.flags))}], "model": {_json_str(r.model)}, '
        f'"output_token_count": {r.output_token_count}, '
        f'"prompt_sha256": {_json_str(r.prompt_sha256)}, "text": {_json_str(r.text)}}}\n'
        for r in map(summaries.records.get, sorted(summaries.records))
    )
    atomic_write_text(Path(path), text)


def read_summaries(path: str | Path) -> SummarySet:
    path = Path(path)
    records: dict[str, SummaryRecord] = {}
    budget: int | None = None
    for line_no, obj in json_records(path, _RECORD_FIELDS):
        flags = obj.get("flags", [])
        if not isinstance(flags, list):
            raise ParseError(f"'flags' must be a list, got {flags!r}", path=str(path), line=line_no)
        rec = SummaryRecord(**{name: obj[name] for name in _RECORD_FIELDS}, flags=tuple(flags))
        if rec.doc_id in records:
            raise ParseError(
                f"duplicate summary for doc {rec.doc_id}",
                path=str(path),
                line=line_no,
            )
        if budget is None:
            budget = rec.budget_tokens
        elif budget != rec.budget_tokens:
            raise ParseError(
                f"mixed budgets {budget} and {rec.budget_tokens} in one set",
                path=str(path),
                line=line_no,
            )
        records[rec.doc_id] = rec
    return SummarySet(budget_tokens=budget if budget is not None else 0, records=records)
