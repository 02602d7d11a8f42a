"""Token and dollar accounting for judging stages, observed or extrapolated.

Observed tallies sum the token counts of a stage's usage files, taken as
the model, input and output tokens of each row. A usage file names its stage
and modality and holds one row per distinct request of it, so pricing a stage
needs no response cache, and the caller that groups tallies labels them.
Extrapolation projects a per-pair average onto a full collection, with the
per-call prompt overhead kept as an explicit parameter.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps' str encoder
from pathlib import Path

from .errors import ParseError, PricingError
from .gateway import CacheEntry
from .trec_io import Modality, atomic_write_text, read_json


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
    input_tokens: int
    output_tokens: int
    usd: float


def write_usage(path: Path, entries: list[CacheEntry], stage: str, modality: str) -> tuple:
    """Write a stage's usage file: its ``stage`` and ``modality`` labels, its
    token totals and one row ``[request_hash, model, input_tokens,
    output_tokens]`` per entry, in hash order, each row a compact JSON array on
    its own line. Returns what ``usage_entries`` reads back from the file."""
    entries = sorted(entries, key=lambda entry: entry.request_hash)
    rows = (  # json.dumps of each row, framed without its per-call cost
        f"[{_json_str(e.request_hash)}, {_json_str(e.model)}, {e.input_tokens}, {e.output_tokens}]"
        for e in entries
    )
    usage = ([e.model for e in entries], [e.input_tokens for e in entries],
             [e.output_tokens for e in entries])
    head = (f'"stage": {_json_str(stage)}, "modality": {_json_str(modality)}, '
            f'"input_tokens": {sum(usage[1])}, "output_tokens": {sum(usage[2])}')
    atomic_write_text(path, f'{{{head}, "rows": [\n' + ",\n".join(rows) + "\n]}\n")
    return stage, modality, usage


def usage_entries(usage_path: str | Path) -> tuple[str, str, tuple[list, list, list]]:
    """The stage and modality of a stage's usage file, a ``summarization`` of
    ``summ:<B>`` or a ``judgment`` of either, and the model, input and output
    tokens of each row, in its order: two strings, then two ints >= 0."""
    usage = read_json(usage_path, "usage file")
    usage = usage if isinstance(usage, dict) else {}  # reads as a file without labels or rows
    stage, modality = usage.get("stage"), usage.get("modality")
    try:
        label = Modality.parse(modality)
        valid = stage == "judgment" or stage == "summarization" and label.kind == "summary"
    except (AttributeError, ValueError):  # not a string, or not a modality
        valid = False
    if not valid:
        raise ParseError(f"bad usage file: stage {stage!r} of modality {modality!r} is neither "
                         "a summarization of summ:<B> nor a judgment of full or summ:<B>",
                         path=str(usage_path))
    rows = usage.get("rows")
    for row in rows if isinstance(rows, list) else [rows]:  # no list reads as one bad row
        if not (isinstance(row, list) and len(row) == 4 and all(isinstance(s, str) for s in row[:2])
                and all(type(n) is int and n >= 0 for n in row[2:])):  # no bool or float
            raise ParseError(f"bad usage file: {row!r} is not a row [request_hash, model, "
                             "input_tokens, output_tokens] of two strings and two ints >= 0",
                             path=str(usage_path))
    models = [sys.intern(row[1]) for row in rows]  # one string per model, not one per row
    return stage, str(label), (models, [row[2] for row in rows], [row[3] for row in rows])


def tally_observed(usage: tuple[list[str], list[int], list[int]], prices: PriceTable) -> CostReport:
    """Sum the recorded token counts, the three lists ``usage_entries`` reads,
    and price each request per model, in the lists' order."""
    models, input_tokens, output_tokens = usage
    usd = 0.0
    for model, in_tok, out_tok in zip(models, input_tokens, output_tokens, strict=True):
        usd += price_for(model, prices).usd(in_tok, out_tok)
    return CostReport(sum(input_tokens), sum(output_tokens), usd)


def extrapolate(
    pairs: int, avg_tokens_per_pair: float, overhead_tokens_per_call: float, price: Price
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
    return CostReport(input_tokens, 0, price.usd(input_tokens, 0))
