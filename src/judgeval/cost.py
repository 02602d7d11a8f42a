"""Token and dollar accounting for judging stages, observed or extrapolated.

Observed tallies sum the token counts recorded in the response cache for a
caller-supplied slice of entries (the pipeline records which request hashes
belong to each stage), so they are reproducible from the cache alone.
Extrapolation projects a per-pair average onto a full collection, with the
per-call prompt overhead kept as an explicit parameter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import JudgevalError, ParseError, PricingError
from .gateway import CacheEntry, ResponseCache


@dataclass(frozen=True)
class Price:
    input_usd_per_1m: float
    output_usd_per_1m: float

    def __post_init__(self) -> None:
        if self.input_usd_per_1m < 0 or self.output_usd_per_1m < 0:
            raise ValueError("prices must be non-negative")

    def usd(self, input_tokens: int, output_tokens: int) -> float:
        return (
            input_tokens / 1e6 * self.input_usd_per_1m
            + output_tokens / 1e6 * self.output_usd_per_1m
        )


PriceTable = dict[str, Price]

# GPT-4o-class list prices; override with a price table file whenever these
# drift.
DEFAULT_PRICES: PriceTable = {"gpt-4o": Price(2.50, 10.00)}


def load_price_table(path: str | Path) -> PriceTable:
    """Load a JSON price table: model -> {input_usd_per_1m, output_usd_per_1m}."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
        table = {
            model: Price(
                float(entry["input_usd_per_1m"]), float(entry["output_usd_per_1m"])
            )
            for model, entry in raw.items()
        }
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad price table: {exc}", path=str(path)) from exc
    return table


def price_for(model: str, prices: PriceTable) -> Price:
    if model not in prices:
        raise PricingError(f"no price entry for model {model!r}")
    return prices[model]


@dataclass(frozen=True)
class CostReport:
    stage: str  # "summarization" | "judgment"
    modality: str
    input_tokens: int
    output_tokens: int
    usd: float


def usage_entries(usage_path: str | Path, cache: ResponseCache) -> list[CacheEntry]:
    """Cache entries of the distinct request hashes a stage's usage file
    records, one per hash. A hash the cache lacks is an error: leaving it out
    would understate the cost."""
    try:
        hashes = json.loads(Path(usage_path).read_text(encoding="utf-8"))["request_hashes"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"bad usage file: {exc}", path=str(usage_path)) from exc
    entries = [cache.get(request_hash) for request_hash in hashes]
    missing = entries.count(None)
    if missing:
        raise JudgevalError(
            f"{usage_path}: {missing} of {len(hashes)} request hashes "
            f"are not in the cache {cache.path}"
        )
    return entries


def tally_observed(
    entries: Iterable[CacheEntry],
    prices: PriceTable,
    *,
    stage: str,
    modality: str,
) -> CostReport:
    """Sum recorded token usage over cache entries and price it per model."""
    input_tokens = 0
    output_tokens = 0
    usd = 0.0
    for entry in entries:
        price = price_for(entry.model, prices)
        input_tokens += entry.input_tokens
        output_tokens += entry.output_tokens
        usd += price.usd(entry.input_tokens, entry.output_tokens)
    return CostReport(
        stage=stage,
        modality=modality,
        input_tokens=input_tokens,
        output_tokens=output_tokens,
        usd=usd,
    )


def extrapolate(
    pairs: int,
    avg_tokens_per_pair: float,
    overhead_tokens_per_call: float,
    price: Price,
    *,
    stage: str = "judgment",
    modality: str = "full",
) -> CostReport:
    """Project input-token usage and cost for judging ``pairs`` pairs."""
    if pairs < 0 or avg_tokens_per_pair < 0 or overhead_tokens_per_call < 0:
        raise ValueError("extrapolation inputs must be non-negative")
    input_tokens = int(round(pairs * (avg_tokens_per_pair + overhead_tokens_per_call)))
    return CostReport(
        stage=stage,
        modality=modality,
        input_tokens=input_tokens,
        output_tokens=0,
        usd=price.usd(input_tokens, 0),
    )
