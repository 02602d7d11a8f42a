"""Token tallies, pricing, and full-collection extrapolation arithmetic."""

from __future__ import annotations

import json

import pytest

from judgeval.cost import (
    DEFAULT_PRICES,
    CostReport,
    Price,
    extrapolate,
    load_price_table,
    price_for,
    tally_observed,
)
from judgeval.errors import ParseError, PricingError
from judgeval.gateway import CacheEntry


def _entry(model="gpt-4o", in_tok=100, out_tok=10, h="x"):
    return CacheEntry(
        request_hash=h,
        model=model,
        text="...",
        input_tokens=in_tok,
        output_tokens=out_tok,
    )


def test_tally_empty_cache():
    report = tally_observed([], DEFAULT_PRICES, stage="judgment", modality="full")
    assert (report.input_tokens, report.output_tokens, report.usd) == (0, 0, 0.0)


def test_tally_two_entries_exact_usd():
    entries = [_entry(h="a"), _entry(h="b")]
    report = tally_observed(entries, DEFAULT_PRICES, stage="judgment", modality="full")
    assert report.input_tokens == 200
    assert report.output_tokens == 20
    # 200/1e6 * 2.50 + 20/1e6 * 10.00
    assert report.usd == pytest.approx(0.000700, abs=1e-12)


def test_tally_missing_model_names_it():
    with pytest.raises(PricingError, match="unknown-model"):
        tally_observed(
            [_entry(model="unknown-model")],
            DEFAULT_PRICES,
            stage="judgment",
            modality="full",
        )


def test_extrapolate_full_collection_token_figure():
    report = extrapolate(108479, 363.0, 0.0, price_for("gpt-4o", DEFAULT_PRICES))
    assert 39.0e6 <= report.input_tokens <= 39.8e6
    assert 95.0 <= report.usd <= 105.0


def test_extrapolate_zero_pairs():
    report = extrapolate(0, 363.0, 25.0, Price(2.5, 10.0))
    assert (report.input_tokens, report.usd) == (0, 0.0)


def test_extrapolate_linear_in_pairs():
    price = Price(2.5, 10.0)
    one = extrapolate(1000, 363.0, 17.0, price)
    two = extrapolate(2000, 363.0, 17.0, price)
    assert two.input_tokens == 2 * one.input_tokens
    assert two.usd == pytest.approx(2 * one.usd, rel=1e-12)


def test_extrapolate_rejects_negative_inputs():
    with pytest.raises(ValueError):
        extrapolate(-1, 363.0, 0.0, Price(2.5, 10.0))
    with pytest.raises(ValueError):
        extrapolate(1, -363.0, 0.0, Price(2.5, 10.0))


def test_summary_reduction_ratio_matches_published_pool_totals():
    # judged-pool totals: 7.7M under 80-token summaries vs 13.3M full
    reduction = 1.0 - 7.7 / 13.3
    assert reduction * 100 == pytest.approx(42.0, abs=1.0)


def test_price_validation_and_table_io(tmp_path):
    with pytest.raises(ValueError):
        Price(-1.0, 2.0)
    table_path = tmp_path / "prices.json"
    table_path.write_text(
        json.dumps({"m1": {"input_usd_per_1m": 1.5, "output_usd_per_1m": 6.0}})
    )
    table = load_price_table(table_path)
    assert table["m1"] == Price(1.5, 6.0)
    table_path.write_text(json.dumps({"m1": {"input_usd_per_1m": 1.5}}))
    with pytest.raises(ParseError):
        load_price_table(table_path)


def test_tally_reproducible_from_cache_entries_alone():
    entries = [_entry(h=f"h{i}", in_tok=i * 10, out_tok=i) for i in range(5)]
    first = tally_observed(entries, DEFAULT_PRICES, stage="judgment", modality="full")
    second = tally_observed(entries, DEFAULT_PRICES, stage="judgment", modality="full")
    assert first == second == CostReport(
        stage="judgment",
        modality="full",
        input_tokens=100,
        output_tokens=10,
        usd=first.usd,
    )
