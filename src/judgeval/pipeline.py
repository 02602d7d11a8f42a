"""End-to-end experiment orchestration with resumable, manifest-backed stages.

Stage outputs are content-addressed: each stage records a fingerprint over
its inputs (config slice, input-file digests, upstream fingerprints) plus
digests of the files it wrote. A re-run skips every stage whose fingerprint
and outputs are intact, so completed experiments replay with zero backend
calls and deleted outputs trigger exactly the stages that produced them. A
manifest record of the wrong shape counts as missing: only its stage re-runs.

The report stages are one declared list, ``REPORT_STAGES``: each entry names
a stage, its outputs, the fingerprint inputs it covers and the method giving
the outputs' texts. Its inputs are built when the stage is reached, since
``stability`` covers the ``effectiveness`` fingerprint and ``cost`` the
``summarize:*`` ones.

An ``Experiment`` loads each input (corpus, topics, qrels, runs, response
cache) the first time a stage that runs needs it, so a run that skips every
stage reads only the input digests and the manifest. Run files are streamed,
one parsed run at a time, by each use: a cold ``pool = runs`` run parses each
file twice, for the pool and for the effectiveness stage. Each input is
released after its last reader: the corpus and each summary set after the
last model's cell judged on it, and the response cache after the last judge
stage. Each usage file holds its own token counts and names its stage and
modality, so no report stage opens the cache, and a cost row is labelled
from its files. It is also the one wiring from a config to summarizer and
judge calls, and the one writer of their files: the ``summarize`` and
``judge`` subcommands call the same two methods as the stages, and the report
subcommands (``agreement``, ``effectiveness``, ``stability``, ``cost``) build
the rows of one cell or of usage files through the stages' own methods. A
report takes each cell as its ``JudgmentSet`` and labels its rows from that
set's provenance, as a subcommand labels Q's rows. ``run`` returns the
``Experiment``, whose ``outcomes`` and backend counts tell what the run did.

A stage hands its result on in memory: whatever a stage produced in this
run (summaries, judgments, the token counts of its usage file) goes
downstream as it is, and a bundle file is read back only when the stage
that owns it was skipped, at most once per run. The manifest vouches only
for stage outputs: ``cache.jsonl``, which no stage writes, is never hashed. A
stage that runs again first withdraws its old record, so a run that fails or
is killed leaves a manifest whose every digest matches its file.

All outputs are written atomically, all floats are formatted with fixed
precision, and no file carries a time stamp, so a bundle's bytes depend
only on the config, the seed, the inputs and the backend's replies. Under
either backend, a fresh run and a ``--force`` re-run served from the cache
give the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from . import __version__, reports
from .config import ExperimentConfig
from .cost import DEFAULT_PRICES, load_price_table, tally_observed, usage_entries, write_usage
from .effectiveness import ScoreTable, average_precision, ndcg_at_k
from .errors import ConfigError, JudgevalError, ParseError
from .gateway import Gateway, HttpBackend, MockBackend
from .judge import (
    MAX_OUTPUT_TOKENS,
    JudgePoolResult,
    JudgingTask,
    binarize,
    judge_pool,
    load_judge_template,
    load_topics,
)
from .stability import SystemScores, stability_report
from .summarizer import (
    SUMMARY_SLACK,
    SummarySet,
    load_summary_template,
    read_summaries,
    summarize_corpus,
    write_summaries,
)
from .templates import template_sha256
from .trec_io import (
    JudgmentSet,
    Modality,
    atomic_write_text,
    load_corpus,
    load_runs_dir,
    parse_qrels,
    read_json,
    write_json,
    write_judgments,
)


class StageError(JudgevalError):
    """A stage failed fatally; carries the stage name in the message."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")


class StageOutcome(NamedTuple):
    name: str
    status: str  # "ran" | "skipped"


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _is_stage_record(record) -> bool:
    """Whether a manifest's stage record has the shape ``_stage`` writes."""
    return (
        isinstance(record, dict)
        and record.keys() == {"fingerprint", "outputs"}
        and isinstance(record["fingerprint"], str)
        and isinstance(record["outputs"], dict)
        and all(isinstance(digest, str) for digest in record["outputs"].values())
    )


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "", text.replace(":", "-"))


def _summary_stem(budget: int) -> str:
    """Bundle path of one budget's summary files, without the suffix."""
    return f"summaries/summ{budget}"


def _cell_stem(model: str, modality: Modality) -> str:
    """Bundle path of one judge cell's files, without the suffix."""
    return f"judgments/{_slug(model)}__{_slug(str(modality))}"


def cell_key(judged: JudgmentSet) -> str:
    """A judged cell's score-table key, ``model:modality`` from its provenance."""
    return f"{judged.label()}:{judged.modality}"


def run_pipeline(config: ExperimentConfig, *, force: bool = False) -> Experiment:
    """Run summarize -> judge -> report stages for one experiment config."""
    return Experiment(config, force=force).run()


class Experiment:
    """One experiment config: its inputs, loaded the first time a stage uses
    them, and the one wiring from the config to summarizer and judge calls
    and to report texts, shared by ``judgeval run`` and the ``summarize``,
    ``judge``, ``agreement``, ``effectiveness``, ``stability`` and ``cost``
    subcommands.
    Leaving its ``with`` block closes the response cache's file."""

    def __init__(self, config: ExperimentConfig, *, force: bool = False):
        self.config = config
        self.force = force
        stems: dict[str, str] = {}
        for model in config.models:  # each model's judgments need their own files
            if (other := stems.setdefault(_slug(model), model)) != model:
                raise ConfigError(f"models {other!r} and {model!r} map to one judgment file name")
        for name in ("corpus", "topics", "qrels", "runs_dir"):
            path = getattr(config, name)
            if not Path(path).exists():
                raise ConfigError(f"{name} path does not exist: {path}")
        self.output_dir = Path(config.output_dir)
        self.manifest_path = self.output_dir / "manifest.json"
        self.outcomes: list[StageOutcome] = []

        self.summary_template = load_summary_template(config.summary_template)
        self.judge_template = load_judge_template(config.judge_template)
        self.prices = (
            load_price_table(config.prices) if config.prices else dict(DEFAULT_PRICES)
        )

        self.input_digests = {
            name: sha256_file(Path(getattr(config, name)))
            for name in ("corpus", "topics", "qrels")
        }
        runs_dir = Path(config.runs_dir)
        run_files = [p for p in sorted(runs_dir.iterdir()) if p.is_file()]
        if not run_files:
            raise ConfigError(f"no run files found in {runs_dir}")
        self.input_digests["runs"] = _canonical({p.name: sha256_file(p) for p in run_files})

        self.summary_budgets = sorted(
            m.budget_tokens for m in config.modalities if m.kind == "summary"
        )
        self._held: dict[Path, object] = {}  # file -> its content, see _recall
        self.backend_calls = self.cache_hits = 0  # of each gateway released so far

    # -- inputs, each loaded on first use --------------------------------------

    @cached_property
    def gateway(self) -> Gateway:
        """The configured backend behind the response cache, which it loads."""
        config = self.config
        if config.backend == "mock":
            backend = MockBackend(seed=config.seed)
        else:
            backend = HttpBackend(config.endpoint, config.api_key_env)
        return Gateway(
            backend,
            config.cache_path or self.output_dir / "cache.jsonl",
            max_attempts=config.max_attempts,
            max_in_flight=config.max_in_flight,
        )

    @cached_property
    def topics(self) -> dict[str, str]:
        return load_topics(self.config.topics)

    @cached_property
    def human(self) -> JudgmentSet:
        return parse_qrels(self.config.qrels)

    @cached_property
    def pool(self) -> list[tuple[str, str]]:
        """The (topic, doc) pairs to judge: every human-judged pair, or with
        ``pool = runs`` the union of each run's top ``pool_depth`` documents."""
        if self.config.pool == "qrels":
            return sorted(self.human.grades)
        depth, pairs = self.config.pool_depth, set()
        for run in load_runs_dir(self.config.runs_dir):
            pairs.update((t, doc) for t, ranking in run.topics.items() for doc in ranking[:depth])
            del run  # not held while the next one is parsed
        return sorted(pairs)

    # -- summarizer and judge calls --------------------------------------------

    def summarize(self, budget: int, path: Path) -> SummarySet:
        """Summarize the corpus at one budget. Writes the summaries to ``path``, and
        next to it the ``.errors.json`` ledger of failed docs and the ``.usage.json`` file."""
        summaries = self._held[path] = summarize_corpus(
            self._recall(self.config.corpus, load_corpus),
            budget,
            self.gateway,
            self.config.summarizer_model,
            template=self.summary_template,
        )
        write_summaries(summaries, path)
        failed = [{"doc_id": doc, "reason": why} for doc, why in sorted(summaries.errors.items())]
        write_json(path.with_suffix(".errors.json"), {"failed_docs": failed})
        self._write_usage(path, summaries.request_hashes, "summarization", f"summ:{budget}")
        return summaries

    def judge(
        self, model: str, modality: Modality, summaries: SummarySet | None, path: Path
    ) -> tuple[JudgePoolResult, list[dict]]:
        """Judge the pool for one cell: one task per pair with a topic and
        evidence for ``modality`` (the corpus, or ``summaries``); every other
        pair becomes a skip-ledger entry with its reason. Writes the qrels and
        their ``.meta.json`` sidecar to ``path``, and the error ledger and the
        usage file to ``path.with_suffix(".errors.json")`` and ``".usage.json"``."""
        if modality.kind == "full":
            corpus = self._recall(self.config.corpus, load_corpus)
            evidence, missing = corpus.entries, "doc not in corpus"
        else:
            evidence, missing = summaries.records, "no summary available"
        tasks: list[JudgingTask] = []
        skipped: list[dict] = []
        for pair in self.pool:  # each task keys its grade by the pool's own tuple
            topic_id, doc_id = pair
            query_text, record = self.topics.get(topic_id), evidence.get(doc_id)
            if query_text is None or record is None:
                reason = "topic not in topics file" if query_text is None else missing
                skipped.append({"topic_id": topic_id, "doc_id": doc_id, "reason": reason})
                continue
            tasks.append(JudgingTask(pair, query_text, record.text))
        result = judge_pool(tasks, self.gateway, model, modality, template=self.judge_template)
        write_judgments(result.judgments, path)
        self._held[path] = result.judgments
        ledger = {"skipped_pairs": skipped, "failed_tasks": [f._asdict() for f in result.failures]}
        write_json(path.with_suffix(".errors.json"), ledger)
        self._write_usage(path, result.request_hashes, "judgment", str(modality))
        return result, skipped

    def __enter__(self) -> Experiment:
        return self

    def __exit__(self, *exc_info) -> None:
        """Release the gateway and close its cache's file, if a stage opened it."""
        if (gateway := self.__dict__.pop("gateway", None)) is not None:
            gateway.cache.close()
            self.backend_calls += gateway.backend_calls
            self.cache_hits += gateway.cache_hits

    # -- manifest bookkeeping ------------------------------------------------

    def _load_manifest(self) -> dict[str, dict]:
        """The stage records of an earlier run's manifest. A missing or damaged
        manifest means a fresh start; a record of the wrong shape counts as
        missing, so only its stage runs again."""
        try:
            manifest = read_json(self.manifest_path, "manifest")
        except (FileNotFoundError, ParseError):
            return {}
        stages = manifest.get("stages") if isinstance(manifest, dict) else None
        if not isinstance(stages, dict):
            return {}
        return {name: record for name, record in stages.items() if _is_stage_record(record)}

    def _save_manifest(self) -> None:
        """Write the manifest of the stage records."""
        manifest = {
            "tool": "judgeval",
            "version": __version__,
            "config_hash": self.config.config_hash(),
            "seed": self.config.seed,
            "dataset": self.config.dataset,
            "prompts": {
                "summary_sha256": template_sha256(self.summary_template),
                "judge_sha256": template_sha256(self.judge_template),
            },
            "stages": self.records,
        }
        write_json(self.manifest_path, manifest)

    def _stage(
        self,
        name: str,
        inputs: dict,
        outputs: list[str],
        producer: Callable[[], None],
    ) -> None:
        fingerprint = hashlib.sha256(
            _canonical({"stage": name, "version": __version__, "inputs": inputs}).encode()
        ).hexdigest()
        record = self.records.get(name)
        if (
            not self.force
            and record is not None
            and record["fingerprint"] == fingerprint
            # before any hashing, so no record makes the run open another path
            and record["outputs"].keys() == set(outputs)
            and all(
                (self.output_dir / rel).exists() and sha256_file(self.output_dir / rel) == digest
                for rel, digest in record["outputs"].items()
            )
        ):
            self.outcomes.append(StageOutcome(name, "skipped"))
            return
        if self.records.pop(name, None) is not None:
            self._save_manifest()  # no record vouches for a file the producer rewrites
        try:
            producer()
        except (JudgevalError, ValueError) as exc:
            raise StageError(name, exc) from exc
        digests = {rel: sha256_file(self.output_dir / rel) for rel in outputs}
        self.records[name] = {"fingerprint": fingerprint, "outputs": digests}
        self.outcomes.append(StageOutcome(name, "ran"))
        self._save_manifest()

    def _recall(self, path: Path, read: Callable[[Path], object]):
        """File ``path`` as this run holds it: what the stage that wrote it in
        this run produced, else ``read(path)``, called at most once."""
        if path not in self._held:
            self._held[path] = read(path)
        return self._held[path]

    def _write_usage(self, path: Path, request_hashes: set[str], stage: str, modality: str) -> None:
        """Write the usage file of stage output ``path``, with its two labels, next to it."""
        entries = [self.gateway.cache.get(h) for h in request_hashes]
        usage = path.with_suffix(".usage.json")
        self._held[usage] = write_usage(usage, entries, stage, modality)

    # -- stages ---------------------------------------------------------------

    def stages_run(self) -> list[str]:
        return [o.name for o in self.outcomes if o.status == "ran"]

    def stages_skipped(self) -> list[str]:
        return [o.name for o in self.outcomes if o.status == "skipped"]

    def run(self) -> Experiment:
        """Run every stage, each skipped if its outputs are intact; the outcomes,
        the backend counts and the bundle's paths are then read off ``self``."""
        self.records = self._load_manifest()
        with self:  # the cache file is closed however the stages end
            for budget in self.summary_budgets:
                self._summarize_stage(budget)
            for model, modality in self._cells():  # this order is cache.jsonl's line order
                self._judge_stage(model, modality)
        for name, outputs, inputs, texts in REPORT_STAGES:
            self._report_stage(name, outputs, inputs, texts)
        # config_hash covers fields no stage fingerprint does (max_attempts),
        # and an older manifest's files map goes even when every stage skipped
        self._save_manifest()
        return self

    def _summarize_stage(self, budget: int) -> None:
        name, stem = f"summarize:{budget}", _summary_stem(budget)
        inputs = {
            "corpus": self.input_digests["corpus"],
            "budget": budget,
            "model": self.config.summarizer_model,
            "template_sha256": template_sha256(self.summary_template),
            "slack": SUMMARY_SLACK,
            "backend": self.config.backend,
            "seed": self.config.seed,
        }
        outputs = [f"{stem}.jsonl", f"{stem}.errors.json", f"{stem}.usage.json"]
        path = self.output_dir / outputs[0]
        self._stage(name, inputs, outputs, lambda: self.summarize(budget, path))

    def _judge_stage(self, model: str, modality: Modality) -> None:
        stem = _cell_stem(model, modality)
        name = f"judge:{model}:{modality}"
        inputs = {
            "topics": self.input_digests["topics"],
            "corpus": self.input_digests["corpus"],
            "summaries": (
                self.records[f"summarize:{modality.budget_tokens}"]["fingerprint"]
                if modality.kind == "summary"
                else None
            ),
            "pool": self.config.pool,  # and what it is built from, and no more
            **({"qrels": self.input_digests["qrels"]} if self.config.pool == "qrels" else
               {"runs": self.input_digests["runs"], "pool_depth": self.config.pool_depth}),
            "model": model,
            "modality": str(modality),
            "template_sha256": template_sha256(self.judge_template),
            "max_output_tokens": MAX_OUTPUT_TOKENS,
            "backend": self.config.backend,
            "seed": self.config.seed,
        }
        exts = (".qrels", ".qrels.meta.json", ".errors.json", ".usage.json")
        outputs = [f"{stem}{ext}" for ext in exts]
        summaries = self.output_dir / f"{_summary_stem(modality.budget_tokens)}.jsonl"
        self._stage(name, inputs, outputs, lambda: self.judge(
            model,
            modality,
            self._recall(summaries, read_summaries) if modality.kind == "summary" else None,
            self.output_dir / outputs[0],
        ))
        if model == self.config.models[-1]:  # no later cell is judged on the same evidence
            self._held.pop(self.config.corpus if modality.kind == "full" else summaries, None)

    def _cells(self) -> list[tuple[str, Modality]]:
        config = self.config
        return [(model, modality) for model in config.models for modality in config.modalities]

    def _judged_cells(self) -> list[JudgmentSet]:
        """Each cell's judgments, as its judge stage made them or read from
        the file a skipped judge stage found intact."""
        stems = [_cell_stem(model, modality) for model, modality in self._cells()]
        return [self._recall(self.output_dir / f"{stem}.qrels", parse_qrels) for stem in stems]

    def _report_stage(self, name: str, outputs: list[str], inputs: tuple, texts: Callable) -> None:
        """Run one ``REPORT_STAGES`` entry. Its fingerprint inputs are built
        now, when the stage is reached, and ``texts`` runs only if it runs."""
        rels = [rel.format(k=self.config.ndcg_k) for rel in outputs]
        covered = {
            key: _REPORT_INPUTS[key](self) if key in _REPORT_INPUTS else getattr(self.config, key)
            for key in inputs
        }

        def produce() -> None:
            for rel, text in zip(rels, texts(self), strict=True):
                atomic_write_text(self.output_dir / rel, text)

        self._stage(name, covered, rels, produce)

    def sources(self, cells: Iterable[JudgmentSet]) -> list[tuple[str, JudgmentSet]]:
        """The human qrels, keyed 'human', then each judged cell, keyed
        'model:modality' from its provenance: what the reports score."""
        return [("human", self.human)] + [(cell_key(judged), judged) for judged in cells]

    def score_runs(self, sources: list[tuple[str, JudgmentSet]]) -> ScoreTable:
        """(source label, metric) -> NDCG@k and AP (binarized at the configured
        threshold) rows of the config's runs under each labelled judgment set,
        sorted by run tag. Each run is scored under every source, then dropped."""
        config, k, threshold = self.config, self.config.ndcg_k, self.config.binarize_threshold
        graded = [(label, judged, binarize(judged, threshold)) for label, judged in sources]
        table = {(label, metric): [] for label, _ in sources for metric in (f"ndcg@{k}", "map")}
        for run in load_runs_dir(config.runs_dir):
            for label, judged, binary in graded:
                table[(label, f"ndcg@{k}")].append(ndcg_at_k(run, judged, k=k, gain=config.gain))
                table[(label, "map")].append(average_precision(run, binary))
            del run  # not held while the next one is parsed
        return {key: sorted(rows, key=lambda row: row.run_tag) for key, rows in table.items()}

    @cached_property
    def _effectiveness(self) -> ScoreTable:
        """``score_runs`` of the human qrels and every cell, built on first use:
        a run that skips both report stages computes no NDCG/AP."""
        return self.score_runs(self.sources(self._judged_cells()))

    # -- report texts: the report subcommands', then one per REPORT_STAGES entry --

    def agreement_text(self, cells: Iterable[JudgmentSet]) -> str:
        """``reports/agreement.csv`` text: each judged cell against the human qrels."""
        config = self.config
        return reports.agreement_csv(config.dataset, config.binarize_threshold, self.human, cells)

    def stability_text(self, table: ScoreTable, cells: Iterable[JudgmentSet]) -> str:
        """``reports/stability.csv`` text: each judged cell's rows of a
        ``score_runs`` table against its ``human`` rows under NDCG@k and MAP,
        cell-major."""
        config = self.config
        settings = {"rbo_p": config.rbo_p, "n_resamples": config.bootstrap_samples,
                    "seed": config.seed}
        reports_by_cell = [
            (judged, metric, stability_report(
                SystemScores.from_rows(table[("human", metric)]),
                SystemScores.from_rows(table[(cell_key(judged), metric)]),
                **settings,
            ))
            for judged in cells
            for metric in (f"ndcg@{config.ndcg_k}", "map")
        ]
        return reports.stability_csv(config.dataset, reports_by_cell, **settings)

    def cost_text(self, paths: list[Path]) -> str:
        """``reports/cost.csv`` text: one row per stage and modality that the
        usage files at ``paths`` record, in order of first appearance, with
        the token counts of its files joined and priced per request."""
        rows: dict[tuple[str, str], list[list]] = {}
        for path in paths:
            stage, modality, counts = self._recall(path, usage_entries)
            for joined, more in zip(rows.setdefault((stage, modality), [[], [], []]), counts):
                joined += more
        tallies = [(key, tally_observed(counts, self.prices)) for key, counts in rows.items()]
        return reports.cost_csv(self.config.dataset, tallies)

    def _distribution_texts(self) -> list[str]:
        return [reports.distribution_csv(self.config.dataset, self.human, self._judged_cells())]

    def _agreement_texts(self) -> list[str]:
        return [self.agreement_text(self._judged_cells())]

    def _effectiveness_texts(self) -> list[str]:
        table, cells = self._effectiveness, self._judged_cells()
        return [*reports.effectiveness_csvs(table)] + [
            reports.scatter_csv(
                (table[("human", metric)], table[(cell_key(judged), metric)]) for judged in cells
            )
            for metric in (f"ndcg@{self.config.ndcg_k}", "map")
        ]

    def _stability_texts(self) -> list[str]:
        return [self.stability_text(self._effectiveness, self._judged_cells())]

    def _cost_texts(self) -> list[str]:
        stems = [_summary_stem(b) for b in self.summary_budgets]
        stems += [_cell_stem(model, modality) for model, modality in self._cells()]
        return [self.cost_text([self.output_dir / f"{stem}.usage.json" for stem in stems])]


# How each report fingerprint input that is not a config field of its name is built.
_REPORT_INPUTS: dict[str, Callable[[Experiment], object]] = {
    "qrels": lambda x: x.input_digests["qrels"],
    "runs": lambda x: x.input_digests["runs"],
    "threshold": lambda x: x.config.binarize_threshold,
    # [cell, fingerprint] in the config's cell order, which the reports list
    # cells in: a list, so a reordered config is a changed input
    "judges": lambda x: [
        [f"{m}:{mod}", x.records[f"judge:{m}:{mod}"]["fingerprint"]] for m, mod in x._cells()
    ],
    "effectiveness": lambda x: x.records["effectiveness"]["fingerprint"],
    "summarize": lambda x: {f"summ:{b}": x.records[f"summarize:{b}"]["fingerprint"]
                            for b in x.summary_budgets},
    "prices": lambda x: {model: [price.input_usd_per_1m, price.output_usd_per_1m]
                         for model, price in sorted(x.prices.items())},
}

# The report stages in run order: name, output paths ({k} is ndcg_k), the
# fingerprint inputs covered, and the method giving the outputs' texts in order.
REPORT_STAGES = [
    ("distribution", ["reports/label_distribution.csv"],
     ("dataset", "qrels", "judges"), Experiment._distribution_texts),
    ("agreement", ["reports/agreement.csv"],
     ("dataset", "qrels", "threshold", "judges"), Experiment._agreement_texts),
    ("effectiveness", ["reports/effectiveness.csv", "reports/effectiveness_per_topic.csv",
                       "reports/effectiveness_coverage.csv", "reports/scatter_ndcg{k}.csv",
                       "reports/scatter_map.csv"],
     ("qrels", "runs", "threshold", "gain", "ndcg_k", "judges"), Experiment._effectiveness_texts),
    ("stability", ["reports/stability.csv"],
     ("dataset", "effectiveness", "rbo_p", "bootstrap_samples", "seed"),
     Experiment._stability_texts),
    ("cost", ["reports/cost.csv"],
     ("dataset", "summarize", "judges", "prices"), Experiment._cost_texts),
]
