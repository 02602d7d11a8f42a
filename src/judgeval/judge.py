"""Graded relevance judging of (topic, evidence) pairs.

A Bing-style zero-shot prompt elicits a 0-3 label per pair; the grade is
extracted as the last standalone integer in that range, which tolerates the
decoration zero-shot models add around their answers. A task whose response
has no grade is asked once more with a "single digit" nudge appended; one
that still has none is recorded as missing rather than defaulted to 0, so
downstream agreement statistics see true missing data instead of a biased
pile of non-relevant labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import GatewayError, JudgevalError, ParseError
from .gateway import ChatRequest, Gateway
from .templates import load_template, template_sha256
from .trec_io import JudgmentSet, Modality, model_source

GRADE_NUDGE = "Answer with a single digit."
MAX_OUTPUT_TOKENS = 64

# A standalone 0-3: not glued to other digits and not part of a decimal
# number on either side.
_GRADE_RE = re.compile(r"(?<!\d)(?<!\d\.)([0-3])(?!\.?\d)")
_MARKER_RE = re.compile("<QUERY>|<PASSAGE>")


@dataclass(frozen=True)
class Topic:
    topic_id: str
    query_text: str

    def __post_init__(self) -> None:
        if not self.query_text:
            raise ValueError(f"topic {self.topic_id} has empty query text")


@dataclass(frozen=True)
class JudgingTask:
    topic: Topic
    doc_id: str
    evidence_text: str


class TaskFailure(NamedTuple):
    topic_id: str
    doc_id: str
    reason: str


class JudgePoolResult(NamedTuple):
    judgments: JudgmentSet
    failures: list[TaskFailure]


def load_topics(path: str | Path) -> dict[str, Topic]:
    """Load a tab-separated topics file (``topic_id<TAB>query_text``)."""
    path = Path(path)
    topics: dict[str, Topic] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip("\n").strip("\r")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ParseError(
                    "expected 'topic_id<TAB>query_text'", path=str(path), line=line_no
                )
            topic_id, query_text = line.split("\t", 1)
            topic_id = topic_id.strip()
            query_text = query_text.strip()
            if not topic_id or not query_text:
                raise ParseError(
                    "topic id and query text must be non-empty",
                    path=str(path),
                    line=line_no,
                )
            if topic_id in topics:
                raise ParseError(
                    f"duplicate topic {topic_id}", path=str(path), line=line_no
                )
            topics[topic_id] = Topic(topic_id, query_text)
    return topics


def load_judge_template(path: str | Path | None = None) -> str:
    template = load_template("judge_prompt.txt", path)
    for marker in ("<QUERY>", "<PASSAGE>"):
        if marker not in template:
            raise JudgevalError(f"judge template missing {marker} placeholder")
    return template


def build_judge_prompt(
    task: JudgingTask,
    model: str,
    *,
    template: str | None = None,
) -> ChatRequest:
    if template is None:
        template = load_judge_template()
    # one pass, so a marker inside the query or evidence stays literal text
    values = {"<QUERY>": task.topic.query_text, "<PASSAGE>": task.evidence_text}
    user_text = _MARKER_RE.sub(lambda match: values[match.group()], template)
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
    template: str | None = None,
) -> JudgePoolResult:
    """Judge a pool of tasks with one model, all showing ``modality`` evidence.

    Each task gets one plain attempt and, if its response has no grade, one
    attempt with a "single digit" nudge appended; the nudged requests go out
    as a second wave after the plain ones. (Repeating the plain request
    would only replay the cached response.) Tasks still unparseable
    after that, or failing at the gateway, land in the failure ledger. Every
    task ends up either as a judgment record or a ledger entry.
    """
    if template is None:
        template = load_judge_template()
    prompt_hash = template_sha256(template)
    ordered = sorted(tasks, key=_task_key)
    for before, task in zip(ordered, ordered[1:]):
        if _task_key(before) == _task_key(task):
            raise ValueError(f"duplicate task for topic {task.topic.topic_id} doc {task.doc_id}")

    def prompts(batch: list[JudgingTask], suffix: str):
        for task in batch:
            request = build_judge_prompt(task, model, template=template)
            yield replace(request, user_text=request.user_text + suffix) if suffix else request

    grades: dict[tuple[str, str], int] = {}
    reasons: dict[tuple[str, str], str] = {}
    unparsed: list[JudgingTask] = []  # filled by the first wave, asked by the second
    for batch, suffix in ((ordered, ""), (unparsed, "\n\n" + GRADE_NUDGE)):
        for task, response in zip(batch, gateway.complete_many(prompts(batch, suffix))):
            if isinstance(response, GatewayError):
                reasons[_task_key(task)] = str(response)
            elif (grade := parse_grade(response.text)) is not None:
                grades[_task_key(task)] = grade
            elif suffix:
                reasons[_task_key(task)] = "no parseable grade"
            else:
                unparsed.append(task)

    judgments = JudgmentSet(
        grades=grades,
        source=model_source(model),
        modality=modality,
        prompt_sha256=prompt_hash,
    )
    failures = [TaskFailure(*key, reasons[key]) for key in sorted(reasons)]
    return JudgePoolResult(judgments, failures)


def _task_key(task: JudgingTask) -> tuple[str, str]:
    return (task.topic.topic_id, task.doc_id)


def binarize(judgments: JudgmentSet, threshold: int = 1) -> JudgmentSet:
    """Collapse graded labels to {0,1}: relevant iff grade >= threshold."""
    if threshold not in (1, 2, 3):
        raise ValueError("threshold must be 1, 2, or 3")
    return JudgmentSet(
        grades={
            key: (1 if grade >= threshold else 0)
            for key, grade in judgments.grades.items()
        },
        source=judgments.source,
        modality=judgments.modality,
        prompt_sha256=judgments.prompt_sha256,
    )
