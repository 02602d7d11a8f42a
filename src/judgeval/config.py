"""Experiment configuration: an INI file with sections, resolved and hashed.

Relative paths are resolved against the config file's directory. Secrets
never live in the file: only the *name* of the API-key environment variable
is configured. The config hash covers every field that can change outputs:
where files live is left out (the input, template, price, output and cache
paths), so the same experiment copied to another directory, or written to
two directories, produces identical bundles, and so is ``max_in_flight``,
which changes how fast replies arrive but not which. The contents behind
those paths are fingerprinted elsewhere in the manifest: input digests,
template SHA-256s and price values.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .trec_io import Modality

UNHASHED_FIELDS = (
    "corpus", "topics", "qrels", "runs_dir", "output_dir",
    "summary_template", "judge_template", "prices", "cache_path",
    "max_in_flight",
)


@dataclass
class ExperimentConfig:
    dataset: str
    corpus: Path
    topics: Path
    qrels: Path
    runs_dir: Path
    output_dir: Path
    seed: int
    models: list[str]
    modalities: list[Modality]
    summarizer_model: str
    binarize_threshold: int = 1
    gain: str = "linear"
    ndcg_k: int = 10
    rbo_p: float = 0.9
    bootstrap_samples: int = 2000
    pool: str = "qrels"  # "qrels" | "runs"
    pool_depth: int = 10
    backend: str = "mock"  # "mock" | "http"
    endpoint: str = ""
    api_key_env: str = ""
    max_attempts: int = 5
    max_in_flight: int = 1
    summary_template: Path | None = None
    judge_template: Path | None = None
    prices: Path | None = None
    cache_path: Path | None = None

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigError("at least one model is required")
        if not self.modalities:
            raise ConfigError("at least one modality is required")
        if self.binarize_threshold not in (1, 2, 3):
            raise ConfigError("binarize_threshold must be 1, 2, or 3")
        if self.gain not in ("linear", "exponential"):
            raise ConfigError("gain must be 'linear' or 'exponential'")
        if self.pool not in ("qrels", "runs"):
            raise ConfigError("pool must be 'qrels' or 'runs'")
        if self.backend not in ("mock", "http"):
            raise ConfigError("backend must be 'mock' or 'http'")
        if self.backend == "http" and not self.endpoint:
            raise ConfigError("http backend requires an endpoint")
        if not 0.0 < self.rbo_p < 1.0:
            raise ConfigError("rbo_p must lie strictly between 0 and 1")
        counts = ("bootstrap_samples", "ndcg_k", "pool_depth", "max_attempts", "max_in_flight")
        for name in counts:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if len(set(map(str, self.modalities))) != len(self.modalities):
            raise ConfigError("duplicate modalities configured")
        if len(set(self.models)) != len(self.models):
            raise ConfigError("duplicate models configured")

    def resolved_cache_path(self) -> Path:
        return self.cache_path or (self.output_dir / "cache.jsonl")

    def hashed_fields(self) -> dict:
        """Every output-affecting field, in hash-stable form."""
        out = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name not in UNHASHED_FIELDS
        }
        out["modalities"] = [str(m) for m in self.modalities]
        return out

    def config_hash(self) -> str:
        payload = json.dumps(self.hashed_fields(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _require(parser: configparser.ConfigParser, section: str, option: str) -> str:
    try:
        return parser.get(section, option)
    except (configparser.NoSectionError, configparser.NoOptionError) as exc:
        raise ConfigError(f"missing [{section}] {option}") from exc


def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse an experiment config file.

    Expected sections: [data] (dataset, corpus, topics, qrels, runs_dir),
    [experiment] (models, modalities, seed, output_dir, ...), and optional
    [metrics], [gateway], [prompts], [pricing] overrides.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    base = path.parent

    def resolve(raw: str) -> Path:
        p = Path(raw)
        return p if p.is_absolute() else (base / p)

    def opt(section: str, option: str, fallback: str | None = None) -> str | None:
        return parser.get(section, option, fallback=fallback)

    try:
        seed_raw = _require(parser, "experiment", "seed")
        models = _split_list(_require(parser, "experiment", "models"))
        if not models:
            raise ConfigError("at least one model is required")
        modalities = [
            Modality.parse(item)
            for item in _split_list(_require(parser, "experiment", "modalities"))
        ]
        config = ExperimentConfig(
            dataset=_require(parser, "data", "dataset"),
            corpus=resolve(_require(parser, "data", "corpus")),
            topics=resolve(_require(parser, "data", "topics")),
            qrels=resolve(_require(parser, "data", "qrels")),
            runs_dir=resolve(_require(parser, "data", "runs_dir")),
            output_dir=resolve(_require(parser, "experiment", "output_dir")),
            seed=int(seed_raw),
            models=models,
            modalities=modalities,
            summarizer_model=opt("experiment", "summarizer_model") or models[0],
            binarize_threshold=int(opt("experiment", "binarize_threshold", "1")),
            gain=opt("metrics", "gain", "linear"),
            ndcg_k=int(opt("metrics", "ndcg_k", "10")),
            rbo_p=float(opt("metrics", "rbo_p", "0.9")),
            bootstrap_samples=int(opt("metrics", "bootstrap_samples", "2000")),
            pool=opt("experiment", "pool", "qrels"),
            pool_depth=int(opt("experiment", "pool_depth", "10")),
            backend=opt("gateway", "backend", "mock"),
            endpoint=opt("gateway", "endpoint", ""),
            api_key_env=opt("gateway", "api_key_env", ""),
            max_attempts=int(opt("gateway", "max_attempts", "5")),
            max_in_flight=int(opt("gateway", "max_in_flight", "1")),
            summary_template=_opt_path(opt("prompts", "summary_template", ""), resolve),
            judge_template=_opt_path(opt("prompts", "judge_template", ""), resolve),
            prices=_opt_path(opt("pricing", "prices", ""), resolve),
            cache_path=_opt_path(opt("gateway", "cache", ""), resolve),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad config value in {path}: {exc}") from exc
    return config


def _opt_path(raw: str | None, resolve) -> Path | None:
    if not raw:
        return None
    return resolve(raw)
