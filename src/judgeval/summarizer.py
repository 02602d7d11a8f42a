"""Length-budgeted document summarization.

The prompt template ships as a text file with ``<N>`` and ``<DOC>``
placeholders and is substituted verbatim; its SHA-256 (computed with the
markers still in place) is recorded on every summary so downstream
judgments can state exactly which prompt produced their evidence.

Budgets are soft: the instruction says "about N tokens", so over-budget
outputs are flagged, never truncated; truncation would fabricate output
the model did not produce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import GatewayError, JudgevalError, ParseError
from .gateway import ChatRequest, Gateway, count_tokens
from .trec_io import DocCorpus, atomic_write_text, nonblank_lines
from .templates import load_template, template_sha256

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


@dataclass
class SummarySet:
    """All summaries for one corpus at one token budget.

    ``errors`` maps doc ids to the failure that prevented their summary;
    failed docs never appear in ``records``.
    """

    budget_tokens: int
    records: dict[str, SummaryRecord] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)


def load_summary_template(path: str | Path | None = None) -> str:
    """Read the summary prompt template (shipped default when path is None)."""
    template = load_template("summary_prompt.txt", path)
    for marker in ("<N>", "<DOC>"):
        if marker not in template:
            raise JudgevalError(f"summary template missing {marker} placeholder")
    return template


def build_summary_prompt(
    doc_text: str,
    budget: int,
    model: str,
    *,
    template: str | None = None,
) -> ChatRequest:
    """Render the summary request for one document at a token budget."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    if template is None:
        template = load_summary_template()
    user_text = template.replace("<N>", str(budget)).replace("<DOC>", doc_text)
    return ChatRequest(
        model=model, user_text=user_text, max_output_tokens=OUTPUT_HEADROOM * budget
    )


def summarize_corpus(
    corpus: DocCorpus,
    budget: int,
    gateway: Gateway,
    model: str,
    *,
    template: str | None = None,
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
    if template is None:
        template = load_summary_template()
    prompt_hash = template_sha256(template)
    result = SummarySet(budget_tokens=budget)
    asked = []
    for doc_id in corpus.doc_ids():
        if corpus.entries[doc_id].text.strip():
            asked.append(doc_id)
            continue
        result.records[doc_id] = SummaryRecord(
            doc_id=doc_id,
            budget_tokens=budget,
            text=NO_CONTENT,
            output_token_count=0,
            model=model,
            prompt_sha256=prompt_hash,
        )
    requests = (
        build_summary_prompt(corpus.entries[doc_id].text, budget, model, template=template)
        for doc_id in asked
    )
    for doc_id, response in zip(asked, gateway.complete_many(requests)):
        if isinstance(response, GatewayError):
            result.errors[doc_id] = str(response)
            continue
        out_tokens = response.output_tokens
        flags = []
        if out_tokens > SUMMARY_SLACK * budget:
            flags.append("over_budget")
        if out_tokens > count_tokens(corpus.entries[doc_id].text):
            flags.append("longer_than_source")
        result.records[doc_id] = SummaryRecord(
            doc_id=doc_id,
            budget_tokens=budget,
            text=response.text,
            output_token_count=out_tokens,
            model=model,
            prompt_sha256=prompt_hash,
            flags=tuple(flags),
        )
    return result


def write_summaries(summaries: SummarySet, path: str | Path) -> None:
    """Write one summary record per line as JSON."""
    path = Path(path)
    lines = []
    for doc_id in sorted(summaries.records):
        rec = summaries.records[doc_id]
        lines.append(
            json.dumps(
                {
                    "doc_id": rec.doc_id,
                    "budget_tokens": rec.budget_tokens,
                    "text": rec.text,
                    "output_token_count": rec.output_token_count,
                    "model": rec.model,
                    "prompt_sha256": rec.prompt_sha256,
                    "flags": list(rec.flags),
                },
                sort_keys=True,
                ensure_ascii=False,
            )
        )
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def read_summaries(path: str | Path) -> SummarySet:
    path = Path(path)
    records: dict[str, SummaryRecord] = {}
    budget: int | None = None
    for line_no, line in nonblank_lines(path):
        try:
            obj = json.loads(line)
            rec = SummaryRecord(
                doc_id=obj["doc_id"],
                budget_tokens=int(obj["budget_tokens"]),
                text=obj["text"],
                output_token_count=int(obj["output_token_count"]),
                model=obj["model"],
                prompt_sha256=obj["prompt_sha256"],
                flags=tuple(obj.get("flags", [])),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(
                f"bad summary record: {exc}", path=str(path), line=line_no
            ) from exc
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
