"""Readers and writers for the on-disk evaluation artifacts.

Formats handled here:

- qrels: ``topic iter docid grade``, ASCII whitespace separated, LF or CRLF.
  Grades are the four-point scale 0-3; the ``iter`` column is read and
  discarded. A judgment sidecar (``<path>.meta.json``) records provenance:
  ``source`` (``human`` with a null ``model``, or ``model`` with its name),
  ``modality`` (``full`` with a null ``budget_tokens``, or ``summary`` with
  a positive int) and ``prompt_sha256``; the reader rejects any other shape.
  It carries no time stamp, so it is a function of the judgments alone.
- runs: ``topic Q0 docid rank score tag``. A parsed run keeps, per topic,
  only its doc ids in descending score order, with score ties broken by
  ascending docid so evaluation is deterministic across platforms; a doc's
  rank is its position in that list. The rank column is checked to be an
  integer and then ignored. NaN scores are rejected: they have no place in
  the order, so the ranking would depend on line order.
- corpus: JSON lines, one object per line with string fields ``docid`` and
  ``text``.

Every file judgeval reads as text is decoded as UTF-8 with a leading
byte-order mark dropped. Three shapes are read here: lines of text
(``nonblank_lines``), JSON lines, each line one object holding declared
fields at declared types (``json_records``: the corpus and summary
files), and one JSON document (``read_json``: sidecars, usage files,
price tables and the manifest), which ``write_json`` writes (usage files
have their own compact writer, ``cost.write_usage``). The config and
prompt templates have readers of their own, and the response cache is read
as bytes.

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
        try:
            if text.startswith("summ:"):
                return cls("summary", int(text.split(":", 1)[1]))
        except ValueError:
            pass  # as any other text, it is named below
        raise ValueError(f"cannot parse modality {text!r} (expected 'full' or 'summ:<N>', N >= 1)")

    def __str__(self) -> str:
        if self.kind == "full":
            return "full"
        return f"summ:{self.budget_tokens}"


FULL_DOCUMENT = Modality("full")


@dataclass
class JudgmentSet:
    """Graded labels for (topic, doc) pairs plus their provenance.

    Absent pairs are simply absent; there is no sentinel grade for missing
    data. Pair uniqueness is structural (dict keyed by the pair).
    """

    grades: dict[tuple[str, str], int] = field(default_factory=dict)
    model: str | None = None  # the judge; None for the human assessors
    modality: Modality = FULL_DOCUMENT
    prompt_sha256: str | None = None

    def __len__(self) -> int:
        return len(self.grades)

    def label(self) -> str:
        return "human" if self.model is None else self.model

    @cached_property
    def by_topic(self) -> dict[str, dict[str, int]]:
        """topic -> {doc: grade}, built on first use; ``grades`` is frozen after."""
        index: dict[str, dict[str, int]] = {}
        for (topic_id, doc_id), grade in self.grades.items():
            index.setdefault(topic_id, {})[doc_id] = grade
        return index

    def grades_for_topic(self, topic_id: str) -> dict[str, int]:
        return dict(self.by_topic.get(topic_id, {}))

    @cached_property
    def label_values(self) -> frozenset[int]:
        return frozenset(self.grades.values())

    @cached_property
    def normalizers(self) -> dict[tuple, dict[str, float]]:  # memo of ``effectiveness``
        return {}


def nonblank_lines(path: Path) -> Iterator[tuple[int, str]]:
    """Number and text, without the line ending, of each line that is not blank."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            for line_no, raw in enumerate(fh, start=1):
                if not raw.isspace():
                    yield line_no, raw.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", path=str(path)) from exc


def json_records(path: Path, fields: dict[str, type]) -> Iterator[tuple[int, dict]]:
    """Number and object of each nonblank line, which must be a JSON object
    holding every one of ``fields`` at its declared type, strings as UTF-8 text."""
    for line_no, line in nonblank_lines(path):
        try:
            obj = json.loads(line.strip())
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", path=str(path), line=line_no) from exc
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", path=str(path), line=line_no)
        for name, kind in fields.items():
            if type(obj.get(name)) is not kind:  # exact: a bool is no int here
                raise ParseError(
                    f"{name!r} must be a {kind.__name__}, got {obj.get(name)!r}",
                    path=str(path),
                    line=line_no,
                )
            if kind is str:  # a lone surrogate escape decodes, but cannot be hashed
                try:
                    obj[name].encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise ParseError(
                        f"{name!r} is not UTF-8 text: {exc}", path=str(path), line=line_no
                    ) from exc
        yield line_no, obj


def read_text(path: str | Path) -> str:
    """A whole file's text (UTF-8, a leading BOM dropped); other bytes are a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", path=str(path)) from exc


def read_json(path: str | Path, what: str):
    """One JSON document; undecodable text or malformed JSON is a ParseError."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad {what}: {exc}", path=str(path)) from exc


def write_json(path: Path, obj) -> None:
    """Indented JSON with sorted keys, written atomically."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


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

    model, modality, prompt_sha = _read_sidecar(sidecar_path(path))
    return JudgmentSet(grades, model, modality, prompt_sha)


def _read_sidecar(path: Path) -> tuple[str | None, Modality, str | None]:
    """Model, modality and prompt digest of a sidecar shaped as ``write_judgments``
    writes it (other keys are ignored); with no sidecar, human full-document."""
    if not path.exists():
        return None, FULL_DOCUMENT, None
    meta = read_json(path, "judgment sidecar")
    keys = ("source", "model", "modality", "budget_tokens")
    if not isinstance(meta, dict) or not meta.keys() >= set(keys):
        raise ParseError(f"bad judgment sidecar: needs the keys {keys}", path=str(path))
    source, model, kind, budget = map(meta.get, keys)
    prompt_sha = meta.get("prompt_sha256")
    named = isinstance(model, str) and model != ""
    if not (
        (source == "human" and model is None or source == "model" and named)
        and (kind == "full" and budget is None
             or kind == "summary" and type(budget) is int and budget >= 1)  # a bool is no int
        and (prompt_sha is None or isinstance(prompt_sha, str))
    ):
        raise ParseError(f"bad judgment sidecar: {json.dumps(meta)}", path=str(path))
    return model, FULL_DOCUMENT if budget is None else Modality("summary", budget), prompt_sha


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
        "source": "human" if judgments.model is None else "model",
        "modality": judgments.modality.kind,
        "budget_tokens": judgments.modality.budget_tokens,
        "model": judgments.model,
        "prompt_sha256": judgments.prompt_sha256,
    }
    write_json(sidecar_path(path), meta)


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


def load_runs_dir(path: str | Path) -> Iterator[Run]:
    """Each regular file of a directory parsed as a run, one at a time in file-name order."""
    tags: set[str] = set()
    for file in sorted(Path(path).iterdir()):
        if file.is_file():
            run = parse_run(file)
            if run.run_tag in tags:
                raise ConflictError(f"duplicate run tag {run.run_tag!r}", path=str(file))
            tags.add(run.run_tag)
            yield run
            del run  # the caller holds the only reference while it uses the run


@dataclass(frozen=True)
class CorpusEntry:
    text: str


@dataclass
class DocCorpus:
    entries: dict[str, CorpusEntry] = field(default_factory=dict)

    def doc_ids(self) -> list[str]:
        return sorted(self.entries)


def load_corpus(path: str | Path) -> DocCorpus:
    """Load a line-oriented JSON corpus (fields ``docid``, ``text``)."""
    path = Path(path)
    entries: dict[str, CorpusEntry] = {}
    for line_no, obj in json_records(path, {"docid": str, "text": str}):
        doc_id, text = obj["docid"], obj["text"]
        if doc_id in entries:
            raise ConflictError(
                f"duplicate docid {doc_id}", path=str(path), line=line_no
            )
        entries[doc_id] = CorpusEntry(text=text)
    return DocCorpus(entries=entries)
