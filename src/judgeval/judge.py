"""Graded relevance judging of (topic, evidence) pairs.

A Bing-style zero-shot prompt, its ``<QUERY>`` and ``<PASSAGE>`` markers
filled by ``templates.fill``, elicits a 0-3 label per pair; the grade is
extracted as the last standalone integer in that range, which tolerates the
decoration zero-shot models add around their answers. A task whose response
has no grade is asked once more with a "single digit" nudge appended; one
that still has none is recorded as missing rather than defaulted to 0, so
downstream agreement statistics see true missing data instead of a biased
pile of non-relevant labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import GatewayError, ParseError
from .gateway import ChatRequest, Gateway
from .templates import fill, load_template, template_sha256
from .trec_io import VALID_GRADES, JudgmentSet, Modality, nonblank_lines

GRADE_NUDGE = "Answer with a single digit."
MAX_OUTPUT_TOKENS = 64

# A standalone 0-3: not glued to other digits and not part of a decimal
# number on either side.
_GRADE_RE = re.compile(r"(?<!\d)(?<!\d\.)([0-3])(?!\.?\d)")


@dataclass(frozen=True)
class JudgingTask:
    pair: tuple[str, str]  # (topic id, doc id), the pool's own tuple
    query_text: str
    evidence_text: str


class TaskFailure(NamedTuple):
    topic_id: str
    doc_id: str
    reason: str


class JudgePoolResult(NamedTuple):
    judgments: JudgmentSet
    failures: list[TaskFailure]
    request_hashes: set[str]  # of every reply used, nudged ones included


def load_topics(path: str | Path) -> dict[str, str]:
    """Load a tab-separated topics file (``topic_id<TAB>query_text``) as
    topic id -> query text."""
    path = Path(path)
    topics: dict[str, str] = {}
    for line_no, line in nonblank_lines(path):
        if "\t" not in line:
            raise ParseError(
                "expected 'topic_id<TAB>query_text'", path=str(path), line=line_no
            )
        topic_id, query_text = (part.strip() for part in line.split("\t", 1))
        if not topic_id or not query_text:
            raise ParseError(
                "topic id and query text must be non-empty", path=str(path), line=line_no
            )
        if topic_id in topics:
            raise ParseError(f"duplicate topic {topic_id}", path=str(path), line=line_no)
        topics[topic_id] = query_text
    return topics


def load_judge_template(path: str | Path | None = None) -> str:
    return load_template("judge", ("<QUERY>", "<PASSAGE>"), path)


def build_judge_prompt(task: JudgingTask, model: str, *, template: str) -> ChatRequest:
    user_text = fill(template, {"<QUERY>": task.query_text, "<PASSAGE>": task.evidence_text})
    return ChatRequest(model=model, user_text=user_text, max_output_tokens=MAX_OUTPUT_TOKENS)


def parse_grade(text: str) -> int | None:
    """Extract the last standalone integer in 0-3, or None when absent."""
    matches = _GRADE_RE.findall(text)
    if not matches:
        return None
    return int(matches[-1])


def judge_pool(
    tasks: Iterable[JudgingTask],
    gateway: Gateway,
    model: str,
    modality: Modality,
    *,
    template: str,
) -> JudgePoolResult:
    """Judge a pool of tasks with one model, all showing ``modality`` evidence.

    Each task gets one plain attempt and, if its response has no grade, one
    attempt with a "single digit" nudge appended; the nudged requests go out
    as a second wave after the plain ones. (Repeating the plain request
    would only replay the cached response.) Tasks still unparseable
    after that, or failing at the gateway, land in the failure ledger. Every
    task ends up either as a judgment record or a ledger entry.
    """
    prompt_hash = template_sha256(template)
    ordered = sorted(tasks, key=lambda task: task.pair)
    for before, task in zip(ordered, ordered[1:]):
        if before.pair == task.pair:
            raise ValueError("duplicate task for topic {} doc {}".format(*task.pair))

    grades: dict[tuple[str, str], int] = {}
    reasons: dict[tuple[str, str], str] = {}
    unparsed: list[JudgingTask] = []  # filled by the first wave, asked by the second
    request_hashes: set[str] = set()
    for batch, suffix in ((ordered, ""), (unparsed, "\n\n" + GRADE_NUDGE)):
        prompts = (build_judge_prompt(task, model, template=template + suffix) for task in batch)
        for task, response in zip(batch, gateway.complete_many(prompts)):
            if isinstance(response, GatewayError):
                reasons[task.pair] = str(response)
                continue
            request_hashes.add(response.request_hash)
            if (grade := parse_grade(response.text)) is not None:
                grades[task.pair] = grade
            elif suffix:
                reasons[task.pair] = "no parseable grade"
            else:
                unparsed.append(task)

    judgments = JudgmentSet(
        grades=grades,
        model=model,
        modality=modality,
        prompt_sha256=prompt_hash,
    )
    failures = [TaskFailure(*key, reasons[key]) for key in sorted(reasons)]
    return JudgePoolResult(judgments, failures, request_hashes)


def binarize(judgments: JudgmentSet, threshold: int = 1) -> JudgmentSet:
    """Collapse graded labels to {0,1}: relevant iff grade >= threshold."""
    if threshold not in VALID_GRADES[1:]:
        raise ValueError("threshold must be 1, 2, or 3")
    return JudgmentSet(
        grades={
            key: (1 if grade >= threshold else 0)
            for key, grade in judgments.grades.items()
        },
        model=judgments.model,
        modality=judgments.modality,
        prompt_sha256=judgments.prompt_sha256,
    )
