"""Shared fixtures: a deterministic toy experiment on disk."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from judgeval.pipeline import sha256_file

VOCAB = (
    "coral reef survey ocean temperature rise sensor data model forecast "
    "harbor tide chart vessel route cargo manifest port authority permit "
    "apple orchard harvest yield soil moisture irrigation pump schedule "
    "museum exhibit ticket archive record catalog restoration grant fund "
    "railway signal network delay timetable platform junction freight"
).split()

N_TOPICS = 5
N_DOCS = 20
N_RUNS = 3
EMPTY_DOC = "d13"


def build_toy_experiment(root: Path, *, seed: int = 42, out_name: str = "out") -> Path:
    """Write a small self-contained experiment under ``root``.

    Deterministic: repeated calls produce byte-identical input files. Returns
    the config file path.
    """
    rng = random.Random(9172)
    root.mkdir(parents=True, exist_ok=True)

    topic_ids = [f"t{i}" for i in range(1, N_TOPICS + 1)]
    doc_ids = [f"d{i:02d}" for i in range(1, N_DOCS + 1)]

    with open(root / "topics.tsv", "w", encoding="utf-8") as fh:
        for topic_id in topic_ids:
            words = " ".join(rng.choice(VOCAB) for _ in range(4))
            fh.write(f"{topic_id}\thow does {words} work\n")

    with open(root / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for doc_id in doc_ids:
            if doc_id == EMPTY_DOC:
                text = ""
            else:
                length = rng.randint(30, 80)
                text = " ".join(rng.choice(VOCAB) for _ in range(length))
            fh.write(json.dumps({"docid": doc_id, "text": text}) + "\n")

    grade_pool = [0, 0, 0, 1, 1, 2, 3]
    with open(root / "qrels.txt", "w", encoding="utf-8") as fh:
        for topic_id in topic_ids:
            judged = sorted(rng.sample(doc_ids, 8))
            for i, doc_id in enumerate(judged):
                grade = 2 if i == 0 else rng.choice(grade_pool)
                fh.write(f"{topic_id} 0 {doc_id} {grade}\n")

    runs_dir = root / "runs"
    runs_dir.mkdir(exist_ok=True)
    for r in range(1, N_RUNS + 1):
        tag = f"run{r}"
        with open(runs_dir / f"{tag}.txt", "w", encoding="utf-8") as fh:
            for topic_id in topic_ids:
                retrieved = rng.sample(doc_ids, 10)
                for rank, doc_id in enumerate(retrieved, start=1):
                    score = round(rng.uniform(0.1, 9.9), 4)
                    fh.write(f"{topic_id} Q0 {doc_id} {rank} {score} {tag}\n")

    (root / "prices.json").write_text(
        json.dumps(
            {"mock-judge": {"input_usd_per_1m": 2.50, "output_usd_per_1m": 10.00}},
            indent=2,
        ),
        encoding="utf-8",
    )

    config_path = root / "config.ini"
    config_path.write_text(
        "\n".join(
            [
                "[data]",
                "dataset = toy",
                "corpus = corpus.jsonl",
                "topics = topics.tsv",
                "qrels = qrels.txt",
                "runs_dir = runs",
                "",
                "[experiment]",
                "models = mock-judge",
                "modalities = full, summ:80, summ:120",
                f"seed = {seed}",
                f"output_dir = {out_name}",
                "binarize_threshold = 1",
                "",
                "[metrics]",
                "bootstrap_samples = 500",
                "",
                "[gateway]",
                "backend = mock",
                "",
                "[pricing]",
                "prices = prices.json",
                "",
            ]
        ),
        encoding="utf-8",
    )
    return config_path


def bundle_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file of a bundle, keyed by its path inside ``out``."""
    return {str(p.relative_to(out)): sha256_file(p) for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture
def toy_experiment(tmp_path: Path) -> Path:
    return build_toy_experiment(tmp_path)
