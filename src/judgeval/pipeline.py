"""End-to-end experiment orchestration with resumable, manifest-backed stages.

Stage outputs are content-addressed: each stage records a fingerprint over
its inputs (config slice, input-file digests, upstream fingerprints) plus
digests of the files it wrote. A re-run skips every stage whose fingerprint
and outputs are intact, so completed experiments replay with zero backend
calls and deleted outputs trigger exactly the stages that produced them.

An ``Experiment`` loads each input (corpus, topics, qrels, runs, response
cache, judge-cell read-backs) the first time a stage that runs needs it, so
a run that skips every stage reads only the input digests and the manifest.
It is also the one wiring from a config to summarizer and judge calls: the
``summarize`` and ``judge`` subcommands call the same two methods as the
stages.

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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

from . import __version__, reports
from .config import ExperimentConfig
from .cost import DEFAULT_PRICES, load_price_table, tally_observed, usage_entries
from .effectiveness import EffectivenessRow, average_precision, ndcg_at_k, scatter_data
from .errors import ConfigError, JudgevalError
from .gateway import ChatResponse, Gateway, HttpBackend, MockBackend
from .judge import (
    MAX_OUTPUT_TOKENS,
    JudgePoolResult,
    JudgingTask,
    Topic,
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
    DocCorpus,
    JudgmentSet,
    Modality,
    Run,
    atomic_write_text,
    load_corpus,
    load_runs_dir,
    parse_qrels,
    write_judgments,
)


class StageError(JudgevalError):
    """A stage failed fatally; carries the stage name in the message."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass
class StageOutcome:
    name: str
    status: str  # "ran" | "skipped"


@dataclass
class PipelineResult:
    outcomes: list[StageOutcome]
    backend_calls: int
    cache_hits: int
    output_dir: Path
    manifest_path: Path

    def stages_run(self) -> list[str]:
        return [o.name for o in self.outcomes if o.status == "ran"]

    def stages_skipped(self) -> list[str]:
        return [o.name for o in self.outcomes if o.status == "skipped"]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "", text.replace(":", "-"))


def _summary_stem(budget: int) -> str:
    """Bundle path of one budget's summary files, without the suffix."""
    return f"summaries/summ{budget}"


def _cell_stem(model: str, modality: Modality) -> str:
    """Bundle path of one judge cell's files, without the suffix."""
    return f"judgments/{_slug(model)}__{_slug(str(modality))}"


class _RecordingGateway:
    """Per-stage wrapper that records the distinct request hashes a stage
    used, whether the cache or the backend answered them."""

    def __init__(self, inner: Gateway):
        self._inner = inner
        self.hashes: set[str] = set()

    def complete_many(self, requests):
        for outcome in self._inner.complete_many(requests):
            if isinstance(outcome, ChatResponse):
                self.hashes.add(outcome.request_hash)
            yield outcome


def effectiveness_by_metric(
    runs: list[Run], judgments: JudgmentSet, *, k: int, gain: str, threshold: int
) -> dict[str, list[EffectivenessRow]]:
    """NDCG@k (graded) and AP (binarized at ``threshold``) of every run under
    one judgment set, keyed by metric name."""
    ndcg_rows = [ndcg_at_k(run, judgments, k=k, gain=gain) for run in runs]
    binary = binarize(judgments, threshold)
    map_rows = [average_precision(run, binary) for run in runs]
    return {f"ndcg@{k}": ndcg_rows, "map": map_rows}


def run_pipeline(config: ExperimentConfig, *, force: bool = False) -> PipelineResult:
    """Run summarize -> judge -> report stages for one experiment config."""
    return Experiment(config, force=force).run()


class Experiment:
    """One experiment config: its inputs, loaded the first time a stage uses
    them, and the one wiring from the config to summarizer and judge calls,
    shared by ``judgeval run`` and the ``summarize``/``judge`` subcommands."""

    def __init__(self, config: ExperimentConfig, *, force: bool = False):
        self.config = config
        self.force = force
        for name in ("corpus", "topics", "qrels", "runs_dir"):
            path = getattr(config, name)
            if not Path(path).exists():
                raise ConfigError(f"{name} path does not exist: {path}")
        self.out = Path(config.output_dir)
        self.manifest_path = self.out / "manifest.json"
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
        self.stage_fingerprints: dict[str, str] = {}

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
            config.resolved_cache_path(),
            max_attempts=config.max_attempts,
            max_in_flight=config.max_in_flight,
        )

    @cached_property
    def corpus(self) -> DocCorpus:
        return load_corpus(self.config.corpus)

    @cached_property
    def topics(self) -> dict[str, Topic]:
        return load_topics(self.config.topics)

    @cached_property
    def human(self) -> JudgmentSet:
        return parse_qrels(self.config.qrels)

    @cached_property
    def runs(self) -> list[Run]:
        return load_runs_dir(self.config.runs_dir)

    @cached_property
    def pool(self) -> list[tuple[str, str]]:
        """The (topic, doc) pairs to judge: every human-judged pair, or with
        ``pool = runs`` the union of each run's top ``pool_depth`` documents."""
        if self.config.pool == "qrels":
            return sorted(self.human.grades)
        depth = self.config.pool_depth
        return sorted(
            {
                (topic_id, doc_id)
                for run in self.runs
                for topic_id, ranking in run.topics.items()
                for doc_id in ranking[:depth]
            }
        )

    # -- summarizer and judge calls --------------------------------------------

    def summarize(self, budget: int, gateway) -> SummarySet:
        """Summarize the corpus at one budget through ``gateway``."""
        return summarize_corpus(
            self.corpus,
            budget,
            gateway,
            self.config.summarizer_model,
            template=self.summary_template,
        )

    def judge(
        self, model: str, modality: Modality, summaries: SummarySet | None, gateway
    ) -> tuple[JudgePoolResult, list[dict]]:
        """Judge the pool for one cell through ``gateway``: one task per pair
        with a topic and evidence for ``modality`` (the corpus, or
        ``summaries``); every other pair becomes a skip-ledger entry with its
        reason."""
        if modality.kind == "full":
            evidence, missing = self.corpus.entries, "doc not in corpus"
        else:
            evidence, missing = summaries.records, "no summary available"
        tasks: list[JudgingTask] = []
        skipped: list[dict] = []
        for topic_id, doc_id in self.pool:
            topic = self.topics.get(topic_id)
            record = evidence.get(doc_id)
            if topic is None or record is None:
                reason = "topic not in topics file" if topic is None else missing
                skipped.append({"topic_id": topic_id, "doc_id": doc_id, "reason": reason})
                continue
            tasks.append(JudgingTask(topic=topic, doc_id=doc_id, evidence_text=record.text))
        result = judge_pool(tasks, gateway, model, modality, template=self.judge_template)
        return result, skipped

    # -- manifest bookkeeping ------------------------------------------------

    def _load_manifest(self) -> dict:
        if self.manifest_path.exists():
            try:
                manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
                if isinstance(manifest, dict) and "stages" in manifest:
                    return manifest
            except json.JSONDecodeError:
                pass
        return {"stages": {}}

    def _save_manifest(self) -> None:
        files: dict[str, str] = {}
        for record in self.manifest["stages"].values():
            files.update(record["outputs"])
        # a cache outside the output directory is shared across experiments,
        # so it is not a bundle file
        cache = self.config.resolved_cache_path().resolve()
        out = self.out.resolve()
        if cache.is_relative_to(out) and cache.exists():
            files[str(cache.relative_to(out))] = sha256_file(cache)
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
            "stages": self.manifest["stages"],
            "files": dict(sorted(files.items())),
        }
        atomic_write_text(
            self.manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )

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
        self.stage_fingerprints[name] = fingerprint
        record = self.manifest["stages"].get(name)
        if (
            not self.force
            and record
            and record.get("fingerprint") == fingerprint
            and all(
                (self.out / rel).exists()
                and sha256_file(self.out / rel) == digest
                for rel, digest in record.get("outputs", {}).items()
            )
            and set(record.get("outputs", {})) == set(outputs)
        ):
            self.outcomes.append(StageOutcome(name, "skipped"))
            return
        try:
            producer()
        except (JudgevalError, ValueError) as exc:
            raise StageError(name, exc) from exc
        digests = {rel: sha256_file(self.out / rel) for rel in outputs}
        self.manifest["stages"][name] = {
            "fingerprint": fingerprint,
            "outputs": digests,
        }
        self.outcomes.append(StageOutcome(name, "ran"))
        self._save_manifest()

    def _write(self, rel: str, text: str) -> None:
        atomic_write_text(self.out / rel, text)

    def _write_usage(self, rel: str, recorder: _RecordingGateway) -> None:
        hashes = sorted(recorder.hashes)
        entries = [self.gateway.cache.get(request_hash) for request_hash in hashes]
        usage = {
            "request_hashes": hashes,
            "input_tokens": sum(entry.input_tokens for entry in entries),
            "output_tokens": sum(entry.output_tokens for entry in entries),
        }
        self._write(rel, json.dumps(usage, indent=2, sort_keys=True) + "\n")

    # -- stages ---------------------------------------------------------------

    def run(self) -> PipelineResult:
        self.manifest = self._load_manifest()
        for budget in self.summary_budgets:
            self._summarize_stage(budget)
        for model, modality in self._cells():
            self._judge_stage(model, modality)
        self._distribution_stage()
        self._agreement_stage()
        self._effectiveness_stage()
        self._stability_stage()
        self._cost_stage()
        # config_hash covers fields no stage fingerprint does (max_attempts)
        self._save_manifest()
        gateway = self.__dict__.get("gateway")  # None when no stage opened it
        return PipelineResult(
            outcomes=self.outcomes,
            backend_calls=gateway.backend_calls if gateway else 0,
            cache_hits=gateway.cache_hits if gateway else 0,
            output_dir=self.out,
            manifest_path=self.manifest_path,
        )

    def _summarize_stage(self, budget: int) -> None:
        name = f"summarize:{budget}"
        rel = f"{_summary_stem(budget)}.jsonl"
        rel_usage = f"{_summary_stem(budget)}.usage.json"
        inputs = {
            "corpus": self.input_digests["corpus"],
            "budget": budget,
            "model": self.config.summarizer_model,
            "template_sha256": template_sha256(self.summary_template),
            "slack": SUMMARY_SLACK,
            "backend": self.config.backend,
            "seed": self.config.seed,
        }

        def produce() -> None:
            recorder = _RecordingGateway(self.gateway)
            summaries = self.summarize(budget, recorder)
            write_summaries(summaries, self.out / rel)
            self._write_usage(rel_usage, recorder)

        self._stage(name, inputs, [rel, rel_usage], produce)

    def _judge_stage(self, model: str, modality: Modality) -> None:
        stem = _cell_stem(model, modality)
        name = f"judge:{model}:{modality}"
        rel_qrels = f"{stem}.qrels"
        rel_meta = f"{stem}.qrels.meta.json"
        rel_errors = f"{stem}.errors.json"
        rel_usage = f"{stem}.usage.json"
        inputs = {
            "qrels": self.input_digests["qrels"],
            "topics": self.input_digests["topics"],
            "corpus": self.input_digests["corpus"],
            "summaries": (
                self.stage_fingerprints.get(f"summarize:{modality.budget_tokens}")
                if modality.kind == "summary"
                else None
            ),
            "pool": self.config.pool,
            "pool_depth": self.config.pool_depth,
            "runs": self.input_digests["runs"] if self.config.pool == "runs" else None,
            "model": model,
            "modality": str(modality),
            "template_sha256": template_sha256(self.judge_template),
            "max_output_tokens": MAX_OUTPUT_TOKENS,
            "backend": self.config.backend,
            "seed": self.config.seed,
        }

        def produce() -> None:
            recorder = _RecordingGateway(self.gateway)
            summaries = None
            if modality.kind == "summary":
                # the file the summarize stage wrote or found intact
                summaries = read_summaries(
                    self.out / f"{_summary_stem(modality.budget_tokens)}.jsonl"
                )
            result, skipped = self.judge(model, modality, summaries, recorder)
            write_judgments(result.judgments, self.out / rel_qrels)
            ledger = {
                "skipped_pairs": skipped,
                "failed_tasks": [f._asdict() for f in result.failures],
            }
            self._write(rel_errors, json.dumps(ledger, indent=2, sort_keys=True) + "\n")
            self._write_usage(rel_usage, recorder)

        self._stage(name, inputs, [rel_qrels, rel_meta, rel_errors, rel_usage], produce)

    def _cells(self) -> list[tuple[str, Modality]]:
        return [
            (model, modality)
            for model in self.config.models
            for modality in self.config.modalities
        ]

    @cached_property
    def _judged_cells(self) -> list[tuple[str, str, JudgmentSet]]:
        """Each cell's judgments, read on first use from the file its judge
        stage wrote or found intact."""
        return [
            (model, str(modality), parse_qrels(self.out / f"{_cell_stem(model, modality)}.qrels"))
            for model, modality in self._cells()
        ]

    def _judge_fingerprints(self) -> dict[str, str]:
        return {
            f"{m}:{mod}": self.stage_fingerprints[f"judge:{m}:{mod}"]
            for m, mod in self._cells()
        }

    def _distribution_stage(self) -> None:
        rel = "reports/label_distribution.csv"
        inputs = {
            "dataset": self.config.dataset,
            "qrels": self.input_digests["qrels"],
            "judges": self._judge_fingerprints(),
        }

        def produce() -> None:
            annotators = [("human", "full", self.human)] + self._judged_cells
            self._write(rel, reports.distribution_csv(self.config.dataset, annotators))

        self._stage("distribution", inputs, [rel], produce)

    def _agreement_stage(self) -> None:
        rel = "reports/agreement.csv"
        threshold = self.config.binarize_threshold
        inputs = {
            "dataset": self.config.dataset,
            "qrels": self.input_digests["qrels"],
            "threshold": threshold,
            "judges": self._judge_fingerprints(),
        }

        def produce() -> None:
            text = reports.agreement_csv(
                self.config.dataset, threshold, self.human, self._judged_cells
            )
            self._write(rel, text)

        self._stage("agreement", inputs, [rel], produce)

    @cached_property
    def _effectiveness(self) -> dict[tuple[str, str], list[EffectivenessRow]]:
        """(qrels label, metric) -> per-run rows; label 'human' or 'model:modality'.
        Built on first use: a run that skips both report stages computes no NDCG/AP."""
        sources = [("human", self.human)] + [
            (f"{model}:{modality}", judged) for model, modality, judged in self._judged_cells
        ]
        table: dict[tuple[str, str], list[EffectivenessRow]] = {}
        for label, judgments in sources:
            by_metric = effectiveness_by_metric(
                self.runs,
                judgments,
                k=self.config.ndcg_k,
                gain=self.config.gain,
                threshold=self.config.binarize_threshold,
            )
            for metric, rows in by_metric.items():
                table[(label, metric)] = rows
        return table

    def _effectiveness_stage(self) -> None:
        k = self.config.ndcg_k
        rel_tables = [
            "reports/effectiveness.csv",
            "reports/effectiveness_per_topic.csv",
            "reports/effectiveness_coverage.csv",
        ]
        rel_scatter = {
            f"ndcg@{k}": f"reports/scatter_ndcg{k}.csv",
            "map": "reports/scatter_map.csv",
        }
        inputs = {
            "qrels": self.input_digests["qrels"],
            "runs": self.input_digests["runs"],
            "threshold": self.config.binarize_threshold,
            "gain": self.config.gain,
            "ndcg_k": k,
            "judges": self._judge_fingerprints(),
        }

        def produce() -> None:
            table = self._effectiveness
            rows = [row for key in sorted(table) for row in table[key]]
            for rel, text in zip(rel_tables, reports.effectiveness_csvs(rows)):
                self._write(rel, text)
            for metric, rel in rel_scatter.items():
                cells = [
                    (
                        model,
                        str(modality),
                        scatter_data(
                            table[("human", metric)], table[(f"{model}:{modality}", metric)]
                        ),
                    )
                    for model, modality in self._cells()
                ]
                self._write(rel, reports.scatter_csv(cells))

        outputs = rel_tables + sorted(rel_scatter.values())
        self._stage("effectiveness", inputs, outputs, produce)

    def _stability_stage(self) -> None:
        rel = "reports/stability.csv"
        inputs = {
            "dataset": self.config.dataset,
            "effectiveness": self.stage_fingerprints["effectiveness"],
            "rbo_p": self.config.rbo_p,
            "bootstrap_samples": self.config.bootstrap_samples,
            "seed": self.config.seed,
        }

        def produce() -> None:
            table = self._effectiveness
            cells = []
            for model, modality in self._cells():
                for metric in (f"ndcg@{self.config.ndcg_k}", "map"):
                    report = stability_report(
                        SystemScores.from_rows(table[("human", metric)]),
                        SystemScores.from_rows(table[(f"{model}:{modality}", metric)]),
                        rbo_p=self.config.rbo_p,
                        n_resamples=self.config.bootstrap_samples,
                        seed=self.config.seed,
                    )
                    cells.append((model, str(modality), report))
            self._write(rel, reports.stability_csv(self.config.dataset, cells))

        self._stage("stability", inputs, [rel], produce)

    def _cost_stage(self) -> None:
        rel = "reports/cost.csv"
        summary_usage = {
            f"summ:{b}": f"{_summary_stem(b)}.usage.json" for b in self.summary_budgets
        }
        judge_usage = {
            str(modality): [
                f"{_cell_stem(model, modality)}.usage.json" for model in self.config.models
            ]
            for modality in self.config.modalities
        }
        inputs = {
            "dataset": self.config.dataset,
            "summarize": {
                f"summ:{b}": self.stage_fingerprints[f"summarize:{b}"]
                for b in self.summary_budgets
            },
            "judges": self._judge_fingerprints(),
            "prices": {
                model: [price.input_usd_per_1m, price.output_usd_per_1m]
                for model, price in sorted(self.prices.items())
            },
        }

        def produce() -> None:
            cache = self.gateway.cache
            tallies = [
                tally_observed(
                    usage_entries(self.out / usage_rel, cache),
                    self.prices,
                    stage="summarization",
                    modality=modality_str,
                )
                for modality_str, usage_rel in summary_usage.items()
            ]
            tallies += [
                tally_observed(
                    [entry for usage in rels for entry in usage_entries(self.out / usage, cache)],
                    self.prices,
                    stage="judgment",
                    modality=modality_str,
                )
                for modality_str, rels in judge_usage.items()
            ]
            self._write(rel, reports.cost_csv(self.config.dataset, tallies))

        self._stage("cost", inputs, [rel], produce)
