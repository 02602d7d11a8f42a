"""Seeded input generator for the benchmark workloads.

Writes a corpus, topics, qrels, a runs directory, a price table and a
config file. Everything is derived from ``random.Random(seed)`` and written
with fixed formatting, so the same seed and spec give byte-identical files.
The program under test only ever sees these files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Spec:
    """Size and experiment grid of one generated workload."""

    dataset: str
    topics: int
    pairs_per_topic: int
    docs: int
    runs: int
    depth: int
    models: tuple[str, ...]
    modalities: str
    bootstrap_samples: int


# DL19-shaped: TREC DL 2019 passage has 43 topics and about 9.2k judged
# pairs. Topics, runs, depth and the grid are kept; judged pairs and docs are
# halved (4,300 and 4,000) so that a cold run plus the warm workload's
# untimed cold build fit the benchmark's per-invocation time limit.
DL19 = Spec(
    dataset="dl19-synth",
    topics=43,
    pairs_per_topic=100,
    docs=4000,
    runs=30,
    depth=100,
    models=("m1", "m2"),
    modalities="full, summ:80, summ:120",
    bootstrap_samples=200,
)

# Small enough that the 50 ms per request of the stub server dominates.
HTTP_SWEEP = Spec(
    dataset="http-sweep",
    topics=10,
    pairs_per_topic=10,
    docs=100,
    runs=10,
    depth=20,
    models=("m1",),
    modalities="full, summ:80",
    bootstrap_samples=50,
)

# A scaled-down DL19 grid for the benchmark's own smoke test.
TINY = Spec(
    dataset="tiny",
    topics=4,
    pairs_per_topic=8,
    docs=40,
    runs=4,
    depth=10,
    models=("m1", "m2"),
    modalities="full, summ:80, summ:120",
    bootstrap_samples=20,
)

_SYLLABLES = (
    "ka ri to mo sa len dar vi pe lo nu gra ste fo qua bel tin hor zu ma "
    "cle dov ex ryn pal sut wo jen bri kel"
).split()
_GRADE_WEIGHTS = (0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3)
MIN_WORDS, MAX_WORDS = 40, 120  # document lengths; summ:80 keeps at most 60 words


def _vocabulary() -> list[str]:
    """A fixed 1,500-word vocabulary of pseudo-words (independent of the seed)."""
    rng = random.Random(20251205)
    words: set[str] = set()
    while len(words) < 1500:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3))))
    return sorted(words)


def generate(root: Path, spec: Spec, seed: int, endpoint: str | None = None) -> Path:
    """Write the inputs of one workload under ``root``; return the config path.

    ``endpoint`` selects the HTTP backend; without it the config uses the mock.
    """
    rng = random.Random(seed)
    vocab = _vocabulary()
    root.mkdir(parents=True, exist_ok=True)

    topic_ids = [f"t{i:03d}" for i in range(1, spec.topics + 1)]
    doc_ids = [f"d{i:05d}" for i in range(1, spec.docs + 1)]

    with open(root / "topics.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for topic_id in topic_ids:
            query = " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 6)))
            fh.write(f"{topic_id}\twhat is {query}\n")

    # Lengths are spread evenly over the range and then shuffled, so every
    # seed has the same length mix (and the same share of documents short
    # enough to "summarize" to themselves); only their order varies.
    span = MAX_WORDS - MIN_WORDS + 1
    lengths = [MIN_WORDS + (i * span) // spec.docs for i in range(spec.docs)]
    rng.shuffle(lengths)
    with open(root / "corpus.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for doc_id, length in zip(doc_ids, lengths):
            text = " ".join(rng.choice(vocab) for _ in range(length))
            fh.write(json.dumps({"docid": doc_id, "text": text}) + "\n")

    judged: dict[str, dict[str, int]] = {}
    with open(root / "qrels.txt", "w", encoding="utf-8", newline="\n") as fh:
        for topic_id in topic_ids:
            docs = sorted(rng.sample(doc_ids, spec.pairs_per_topic))
            grades = {doc: rng.choice(_GRADE_WEIGHTS) for doc in docs}
            grades[docs[0]] = max(grades[docs[0]], 2)  # every topic has a relevant doc
            judged[topic_id] = grades
            for doc in docs:
                fh.write(f"{topic_id} 0 {doc} {grades[doc]}\n")

    runs_dir = root / "runs"
    runs_dir.mkdir(exist_ok=True)
    for r in range(1, spec.runs + 1):
        tag = f"sys{r:02d}"
        skill = rng.uniform(0.0, 2.0)  # how strongly the run follows relevance
        with open(runs_dir / f"{tag}.run", "w", encoding="utf-8", newline="\n") as fh:
            for topic_id in topic_ids:
                grades = judged[topic_id]
                n_judged = min(len(grades), (spec.depth * 4) // 5)
                picked = rng.sample(sorted(grades), n_judged)
                picked_set = set(picked)
                while len(picked) < spec.depth:
                    doc = rng.choice(doc_ids)
                    if doc not in picked_set:
                        picked_set.add(doc)
                        picked.append(doc)
                scored = [
                    (skill * grades.get(doc, 0) + rng.uniform(0.0, 4.0), doc)
                    for doc in picked
                ]
                scored.sort(key=lambda item: (-item[0], item[1]))
                for rank, (score, doc) in enumerate(scored, start=1):
                    fh.write(f"{topic_id} Q0 {doc} {rank} {score:.4f} {tag}\n")

    prices = {
        model: {"input_usd_per_1m": 1.25 * (i + 1), "output_usd_per_1m": 5.0 * (i + 1)}
        for i, model in enumerate(spec.models)
    }
    (root / "prices.json").write_text(
        json.dumps(prices, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    return write_config(root, spec, seed, endpoint)


def write_config(root: Path, spec: Spec, seed: int, endpoint: str | None = None) -> Path:
    """Write ``config.ini`` next to the generated inputs; return its path."""
    gateway = ["backend = mock"]
    if endpoint:
        # max_in_flight matches the 2 cores of the reference machine.
        gateway = [
            "backend = http",
            f"endpoint = {endpoint}",
            "max_in_flight = 2",
            "max_attempts = 5",
        ]
    config = [
        "[data]",
        f"dataset = {spec.dataset}",
        "corpus = corpus.jsonl",
        "topics = topics.tsv",
        "qrels = qrels.txt",
        "runs_dir = runs",
        "",
        "[experiment]",
        f"models = {', '.join(spec.models)}",
        f"modalities = {spec.modalities}",
        f"seed = {seed}",
        "output_dir = out",
        "",
        "[metrics]",
        f"bootstrap_samples = {spec.bootstrap_samples}",
        "",
        "[gateway]",
        *gateway,
        "",
        "[pricing]",
        "prices = prices.json",
        "",
    ]
    config_path = root / "config.ini"
    config_path.write_text("\n".join(config), encoding="utf-8")
    return config_path
