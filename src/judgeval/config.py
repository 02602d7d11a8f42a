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
import urllib.parse  # already loaded by pathlib
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import ConfigError, ParseError
from .trec_io import VALID_GRADES, Modality, read_text

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
    summarizer_model: str = ""  # "" is the first model
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
        self.summarizer_model = self.summarizer_model or self.models[0]
        if not self.modalities:
            raise ConfigError("at least one modality is required")
        if self.binarize_threshold not in VALID_GRADES[1:]:
            raise ConfigError("binarize_threshold must be 1, 2, or 3")
        if self.gain not in ("linear", "exponential"):
            raise ConfigError("gain must be 'linear' or 'exponential'")
        if self.pool not in ("qrels", "runs"):
            raise ConfigError("pool must be 'qrels' or 'runs'")
        if self.backend not in ("mock", "http"):
            raise ConfigError("backend must be 'mock' or 'http'")
        if self.backend == "http":
            url = urllib.parse.urlsplit(self.endpoint)  # .port raises ValueError if not 0-65535
            if url.scheme not in ("http", "https") or not url.hostname or url.port == 0:
                raise ConfigError(f"http backend needs an http(s) endpoint, got {self.endpoint!r}")
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
        if "human" in self.models:  # the reports' label of the human qrels
            raise ConfigError("model name 'human' is reserved for the human qrels")

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


def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


# The options of each section; each sets the field of its name, but for
# [gateway] cache, which sets cache_path.
SECTIONS = {
    "data": ("dataset", "corpus", "topics", "qrels", "runs_dir"),
    "experiment": (
        "models", "modalities", "seed", "output_dir", "summarizer_model",
        "binarize_threshold", "pool", "pool_depth",
    ),
    "metrics": ("gain", "ndcg_k", "rbo_p", "bootstrap_samples"),
    "gateway": ("backend", "endpoint", "api_key_env", "max_attempts", "max_in_flight", "cache"),
    "prompts": ("summary_template", "judge_template"),
    "pricing": ("prices",),
}
# Options of older versions, which load and are ignored: what they set is fixed.
LEGACY = {"experiment": ("summary_slack", "judge_max_output_tokens")}

# An option's text as its field's declared type; a path resolves against
# the config file's directory (an absolute one stays as it is).
_CONVERT = {
    "str": lambda raw, base: raw,
    "int": lambda raw, base: int(raw),
    "float": lambda raw, base: float(raw),
    "Path": lambda raw, base: base / raw,
    "Path | None": lambda raw, base: base / raw if raw else None,
    "list[str]": lambda raw, base: _split_list(raw),
    "list[Modality]": lambda raw, base: [Modality.parse(item) for item in _split_list(raw)],
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse an experiment config file.

    Each option of ``SECTIONS`` the file sets is converted to its field's
    type; one it leaves out keeps the field's default, and is an error when
    the field has none. Any other section or option but a ``LEGACY`` one is an error too.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(read_text(path), source=str(path))
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    for section in [parser.default_section, *parser.sections()]:  # [DEFAULT]'s options first
        if section not in SECTIONS and section != parser.default_section:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for option in parser[section]:
            if option not in SECTIONS.get(section, ()) + LEGACY.get(section, ()):
                raise ConfigError(f"unknown option [{section}] {option} in {path}")
    declared = {f.name: f for f in fields(ExperimentConfig)}
    values = {}
    try:
        for section, options in SECTIONS.items():
            for option in options:
                f = declared["cache_path" if option == "cache" else option]
                if parser.has_option(section, option):
                    values[f.name] = _CONVERT[f.type](parser.get(section, option), path.parent)
                elif f.default is MISSING:
                    raise ConfigError(f"missing [{section}] {option}")
        return ExperimentConfig(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad config value in {path}: {exc}") from exc
