"""Token and dollar accounting for judging stages, observed or extrapolated.

Observed tallies sum the token counts the response cache records for the
requests a stage's usage file names, taken as ``token_counts`` lists, so
they are reproducible from the cache alone.
Extrapolation projects a per-pair average onto a full collection, with the
per-call prompt overhead kept as an explicit parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import JudgevalError, ParseError, PricingError
from .gateway import CacheEntry, ResponseCache
from .trec_io import read_json


@dataclass(frozen=True)
class Price:
    input_usd_per_1m: float
    output_usd_per_1m: float

    def __post_init__(self) -> None:
        prices = self.input_usd_per_1m, self.output_usd_per_1m
        if not all(math.isfinite(price) and price >= 0 for price in prices):  # json reads NaN
            raise ValueError(f"prices {prices} must be finite and non-negative")

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
    raw = read_json(path, "price table")
    try:
        table = {
            model: Price(_number(entry["input_usd_per_1m"]), _number(entry["output_usd_per_1m"]))
            for model, entry in raw.items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # not a dict of dicts
        raise ParseError(f"bad price table: {exc}", path=str(path)) from exc
    return table


def _number(value) -> float:
    """A JSON number as a float; a bool or a string is no price."""
    if type(value) not in (int, float):
        raise TypeError(f"price {value!r} is not a number")
    return float(value)


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


def token_counts(entries: list[CacheEntry]) -> tuple[list[str], list[int], list[int]]:
    """Model, input and output tokens of each entry, as three lists without its reply text."""
    return (
        [entry.model for entry in entries],
        [entry.input_tokens for entry in entries],
        [entry.output_tokens for entry in entries],
    )


def usage_entries(usage_path: str | Path, cache: ResponseCache) -> tuple[list, list, list]:
    """Token counts of the distinct request hashes a stage's usage file
    records, in its order, read from the cache. A hash the cache lacks is an
    error: leaving it out would understate the cost."""
    usage = read_json(usage_path, "usage file")
    hashes = usage.get("request_hashes") if isinstance(usage, dict) else None
    if not isinstance(hashes, list) or not all(isinstance(h, str) for h in hashes):
        raise ParseError(
            f"bad usage file: 'request_hashes' is {hashes!r}, not a list of strings",
            path=str(usage_path),
        )
    entries = [cache.get(request_hash) for request_hash in hashes]
    if missing := entries.count(None):
        raise JudgevalError(
            f"{usage_path}: {missing} of {len(hashes)} request hashes "
            f"are not in the cache {cache.path}"
        )
    return token_counts(entries)


def tally_observed(
    usage: tuple[list[str], list[int], list[int]],
    prices: PriceTable,
    *,
    stage: str,
    modality: str,
) -> CostReport:
    """Sum the recorded token counts, ``token_counts``' three lists, and price
    each request per model, in the lists' order."""
    models, input_tokens, output_tokens = usage
    usd = 0.0
    for model, in_tok, out_tok in zip(models, input_tokens, output_tokens, strict=True):
        usd += price_for(model, prices).usd(in_tok, out_tok)
    return CostReport(
        stage=stage,
        modality=modality,
        input_tokens=sum(input_tokens),
        output_tokens=sum(output_tokens),
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
    """Project input-token usage and cost for judging ``pairs`` pairs. The
    inputs must be non-negative, and they and the token total finite."""
    inputs = pairs, avg_tokens_per_pair, overhead_tokens_per_call
    if not all(value >= 0 for value in inputs):  # False for NaN
        raise ValueError("extrapolation inputs must be finite and non-negative")
    try:
        tokens = pairs * (avg_tokens_per_pair + overhead_tokens_per_call)
    except OverflowError:  # pairs is an int too large for a float
        tokens = math.inf
    if not math.isfinite(tokens):
        raise ValueError(f"the extrapolated token total {tokens} is not finite")
    input_tokens = int(round(tokens))
    return CostReport(
        stage=stage,
        modality=modality,
        input_tokens=input_tokens,
        output_tokens=0,
        usd=price.usd(input_tokens, 0),
    )
