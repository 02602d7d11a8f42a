"""Readers and writers for the on-disk evaluation artifacts.

Formats handled here:

- qrels: ``topic iter docid grade``, ASCII whitespace separated, LF or CRLF.
  Grades are the four-point scale 0-3; the ``iter`` column is read and
  discarded. A judgment sidecar (``<path>.meta.json``) records provenance:
  ``source``, ``modality``, ``budget_tokens``, ``model``, ``prompt_sha256``.
  It carries no time stamp, so it is a function of the judgments alone.
- runs: ``topic Q0 docid rank score tag``. A parsed run keeps, per topic,
  only its doc ids in descending score order, with score ties broken by
  ascending docid so evaluation is deterministic across platforms; a doc's
  rank is its position in that list. The rank column is checked to be an
  integer and then ignored. NaN scores are rejected: they have no place in
  the order, so the ranking would depend on line order.
- corpus: UTF-8 line-oriented JSON, one object per line with string fields
  ``docid`` and ``text``.

Parsing is pure per-file and every returned structure is safe to share
across threads once built. Malformed input raises ParseError with the
offending line number; duplicate keys raise ConflictError. No line is ever
silently dropped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator

from .errors import ConflictError, ParseError

VALID_GRADES = (0, 1, 2, 3)


@dataclass(frozen=True)
class Modality:
    """Evidence shown to an assessor: the full document, or a budgeted summary."""

    kind: str  # "full" | "summary"
    budget_tokens: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "full":
            if self.budget_tokens is not None:
                raise ValueError("full-document modality carries no budget")
        elif self.kind == "summary":
            if self.budget_tokens is None or self.budget_tokens <= 0:
                raise ValueError("summary modality requires a positive token budget")
        else:
            raise ValueError(f"unknown modality kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "Modality":
        text = text.strip()
        if text == "full":
            return FULL_DOCUMENT
        if text.startswith("summ:"):
            return cls("summary", int(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse modality {text!r} (expected 'full' or 'summ:<N>')")

    def __str__(self) -> str:
        if self.kind == "full":
            return "full"
        return f"summ:{self.budget_tokens}"


FULL_DOCUMENT = Modality("full")


def summary_modality(budget_tokens: int) -> Modality:
    return Modality("summary", budget_tokens)


@dataclass(frozen=True)
class Source:
    """Who produced a judgment set: a human pool or a named model."""

    kind: str  # "human" | "model"
    model: str | None = None

    def __post_init__(self) -> None:
        if self.kind == "human":
            if self.model is not None:
                raise ValueError("human source carries no model name")
        elif self.kind == "model":
            if not self.model:
                raise ValueError("model source requires a model name")
        else:
            raise ValueError(f"unknown source kind {self.kind!r}")

    def label(self) -> str:
        return "human" if self.kind == "human" else str(self.model)


HUMAN = Source("human")


def model_source(name: str) -> Source:
    return Source("model", name)


@dataclass
class JudgmentSet:
    """Graded labels for (topic, doc) pairs plus their provenance.

    Absent pairs are simply absent; there is no sentinel grade for missing
    data. Pair uniqueness is structural (dict keyed by the pair).
    """

    grades: dict[tuple[str, str], int] = field(default_factory=dict)
    source: Source = HUMAN
    modality: Modality = FULL_DOCUMENT
    prompt_sha256: str | None = None

    def __len__(self) -> int:
        return len(self.grades)

    @cached_property
    def by_topic(self) -> dict[str, dict[str, int]]:
        """topic -> {doc: grade}, built on first use; ``grades`` is frozen after."""
        index: dict[str, dict[str, int]] = {}
        for (topic_id, doc_id), grade in self.grades.items():
            index.setdefault(topic_id, {})[doc_id] = grade
        return index

    def grades_for_topic(self, topic_id: str) -> dict[str, int]:
        return dict(self.by_topic.get(topic_id, {}))

    def label_values(self) -> set[int]:
        return set(self.grades.values())


def nonblank_lines(path: Path) -> Iterator[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield line_no, line


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta.json")


def parse_qrels(path: str | Path) -> JudgmentSet:
    """Parse a qrels file into a JudgmentSet.

    Provenance comes from the sidecar next to the file; without one, records
    default to human full-document provenance.
    """
    path = Path(path)
    grades: dict[tuple[str, str], int] = {}
    for line_no, line in nonblank_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(
                f"expected 4 fields 'topic iter docid grade', got {len(parts)}",
                path=str(path),
                line=line_no,
            )
        topic_id, _iter, doc_id, grade_str = parts
        try:
            grade = int(grade_str)
        except ValueError as exc:
            raise ParseError(
                f"grade {grade_str!r} is not an integer", path=str(path), line=line_no
            ) from exc
        if grade not in VALID_GRADES:
            raise ParseError(
                f"grade {grade} outside 0-3", path=str(path), line=line_no
            )
        key = (topic_id, doc_id)
        if key in grades:
            raise ConflictError(
                f"duplicate judgment for topic {topic_id} doc {doc_id}",
                path=str(path),
                line=line_no,
            )
        grades[key] = grade

    meta_source, meta_modality, prompt_sha = _read_sidecar(sidecar_path(path))
    return JudgmentSet(
        grades=grades,
        source=meta_source or HUMAN,
        modality=meta_modality or FULL_DOCUMENT,
        prompt_sha256=prompt_sha,
    )


def _read_sidecar(path: Path) -> tuple[Source | None, Modality | None, str | None]:
    if not path.exists():
        return None, None, None
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
        source = (
            HUMAN if meta["source"] == "human" else model_source(meta["model"])
        )
        if meta["modality"] == "full":
            modality = FULL_DOCUMENT
        else:
            modality = summary_modality(int(meta["budget_tokens"]))
        return source, modality, meta.get("prompt_sha256")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad judgment sidecar: {exc}", path=str(path)) from exc


def write_judgments(judgments: JudgmentSet, path: str | Path) -> None:
    """Write a qrels file plus its provenance sidecar.

    Round-trips losslessly through parse_qrels, including provenance.
    """
    path = Path(path)
    lines = [
        f"{topic_id} 0 {doc_id} {grade}\n"
        for (topic_id, doc_id), grade in sorted(judgments.grades.items())
    ]
    atomic_write_text(path, "".join(lines))
    meta = {
        "source": judgments.source.kind,
        "modality": judgments.modality.kind,
        "budget_tokens": judgments.modality.budget_tokens,
        "model": judgments.source.model,
        "prompt_sha256": judgments.prompt_sha256,
    }
    atomic_write_text(
        sidecar_path(path), json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )


def atomic_write_text(path: Path, text: str) -> None:
    """Write through a temporary file and a rename, creating parent directories."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


@dataclass
class Run:
    """One system's ranked retrieval output: each topic's doc ids sorted by
    descending score (docid breaks ties); a doc's rank is its index plus one."""

    run_tag: str
    topics: dict[str, list[str]] = field(default_factory=dict)


def parse_run(path: str | Path) -> Run:
    """Parse a TREC run file (``topic Q0 docid rank score tag``)."""
    path = Path(path)
    by_topic: dict[str, dict[str, float]] = {}
    tag: str | None = None
    for line_no, line in nonblank_lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(
                f"expected 6 fields 'topic Q0 docid rank score tag', got {len(parts)}",
                path=str(path),
                line=line_no,
            )
        topic_id, _q0, doc_id, rank_str, score_str, line_tag = parts
        try:
            int(rank_str)
        except ValueError as exc:
            raise ParseError(
                f"rank {rank_str!r} is not an integer", path=str(path), line=line_no
            ) from exc
        try:
            score = float(score_str)
        except ValueError as exc:
            raise ParseError(
                f"score {score_str!r} is not numeric", path=str(path), line=line_no
            ) from exc
        if math.isnan(score):
            raise ParseError(f"score {score_str!r} is NaN", path=str(path), line=line_no)
        if tag is None:
            tag = line_tag
        elif tag != line_tag:
            raise ConflictError(
                f"mixed run tags {tag!r} and {line_tag!r} in one file",
                path=str(path),
                line=line_no,
            )
        docs = by_topic.setdefault(topic_id, {})
        if doc_id in docs:
            raise ConflictError(
                f"duplicate doc {doc_id} for topic {topic_id}",
                path=str(path),
                line=line_no,
            )
        docs[doc_id] = score

    return Run(
        run_tag=tag if tag is not None else path.stem,
        topics={
            topic_id: sorted(docs, key=lambda doc_id: (-docs[doc_id], doc_id))
            for topic_id, docs in by_topic.items()
        },
    )


def load_runs_dir(path: str | Path) -> list[Run]:
    """Parse every regular file in a directory as a run, sorted by run tag."""
    path = Path(path)
    runs = [parse_run(p) for p in sorted(path.iterdir()) if p.is_file()]
    tags = [run.run_tag for run in runs]
    dupes = {t for t in tags if tags.count(t) > 1}
    if dupes:
        raise ConflictError(f"duplicate run tags across files: {sorted(dupes)}", path=str(path))
    return sorted(runs, key=lambda run: run.run_tag)


@dataclass(frozen=True)
class CorpusEntry:
    text: str


@dataclass
class DocCorpus:
    entries: dict[str, CorpusEntry] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def doc_ids(self) -> list[str]:
        return sorted(self.entries)


def load_corpus(path: str | Path) -> DocCorpus:
    """Load a line-oriented JSON corpus (fields ``docid``, ``text``)."""
    path = Path(path)
    entries: dict[str, CorpusEntry] = {}
    for line_no, line in nonblank_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", path=str(path), line=line_no) from exc
        if not isinstance(obj, dict) or "docid" not in obj or "text" not in obj:
            raise ParseError(
                "corpus line must be an object with 'docid' and 'text'",
                path=str(path),
                line=line_no,
            )
        doc_id, text = obj["docid"], obj["text"]
        if not isinstance(doc_id, str) or not isinstance(text, str):
            raise ParseError(
                "'docid' and 'text' must be strings", path=str(path), line=line_no
            )
        if doc_id in entries:
            raise ConflictError(
                f"duplicate docid {doc_id}", path=str(path), line=line_no
            )
        entries[doc_id] = CorpusEntry(text=text)
    return DocCorpus(entries=entries)
