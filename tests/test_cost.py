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
    write_usage,
)
from judgeval.errors import ParseError, PricingError
from judgeval.gateway import CacheEntry
from judgeval.reports import cost_csv

NAN, INF = float("nan"), float("inf")


def _entry(model="gpt-4o", in_tok=100, out_tok=10, h="x"):
    return CacheEntry(
        request_hash=h,
        model=model,
        text="...",
        input_tokens=in_tok,
        output_tokens=out_tok,
    )


def _usage(tmp_path, entries):
    """The model, input and output tokens that a usage file of ``entries`` records."""
    return write_usage(tmp_path / "cell.usage.json", entries, "judgment", "full")[2]


def test_tally_empty_cache(tmp_path):
    report = tally_observed(_usage(tmp_path, []), DEFAULT_PRICES)
    assert (report.input_tokens, report.output_tokens, report.usd) == (0, 0, 0.0)


def test_tally_two_entries_exact_usd(tmp_path):
    report = tally_observed(_usage(tmp_path, [_entry(h="a"), _entry(h="b")]), DEFAULT_PRICES)
    assert report.input_tokens == 200
    assert report.output_tokens == 20
    # 200/1e6 * 2.50 + 20/1e6 * 10.00
    assert report.usd == pytest.approx(0.000700, abs=1e-12)


def test_tally_missing_model_names_it(tmp_path):
    with pytest.raises(PricingError, match="unknown-model"):
        tally_observed(_usage(tmp_path, [_entry(model="unknown-model")]), DEFAULT_PRICES)


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


@pytest.mark.parametrize("avg, overhead", [(NAN, 0.0), (INF, 0.0), (363.0, NAN), (363.0, INF)])
def test_extrapolate_rejects_non_finite_inputs(avg, overhead):
    with pytest.raises(ValueError, match="finite"):
        extrapolate(10, avg, overhead, Price(2.5, 10.0))


@pytest.mark.parametrize("pairs, avg", [(10, 1e308), (10**400, 363.0)], ids=["avg", "pairs"])
def test_extrapolate_rejects_a_token_total_that_overflows(pairs, avg):
    with pytest.raises(ValueError, match="not finite"):
        extrapolate(pairs, avg, 0.0, Price(2.5, 10.0))


def test_summary_reduction_ratio_matches_published_pool_totals():
    # judged-pool totals: 7.7M under 80-token summaries vs 13.3M full
    reduction = 1.0 - 7.7 / 13.3
    assert reduction * 100 == pytest.approx(42.0, abs=1.0)


def test_price_validation_and_table_io(tmp_path):
    with pytest.raises(ValueError):
        Price(-1.0, 2.0)
    table_path = tmp_path / "prices.json"
    table_path.write_text(
        json.dumps({
            "m1": {"input_usd_per_1m": 1.5, "output_usd_per_1m": 6.0},
            "m2": {"input_usd_per_1m": 2, "output_usd_per_1m": 10},
        })
    )
    table = load_price_table(table_path)
    assert table["m1"] == Price(1.5, 6.0)
    assert table["m2"] == Price(2.0, 10.0) and type(table["m2"].input_usd_per_1m) is float
    for bad in (
        {"m1": {"input_usd_per_1m": 1.5}},
        [],
        {"m1": {"input_usd_per_1m": True, "output_usd_per_1m": "10"}},
        {"m1": {"input_usd_per_1m": 1.5, "output_usd_per_1m": "10"}},
        {"m1": {"input_usd_per_1m": False, "output_usd_per_1m": 6.0}},
    ):
        table_path.write_text(json.dumps(bad))
        with pytest.raises(ParseError):
            load_price_table(table_path)


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_non_finite_prices_are_rejected(tmp_path, value):
    with pytest.raises(ValueError, match="finite"):
        Price(1.0, value)
    table_path = tmp_path / "prices.json"  # json reads the NaN and Infinity tokens
    table_path.write_text(json.dumps({"m1": {"input_usd_per_1m": value, "output_usd_per_1m": 6.0}}))
    with pytest.raises(ParseError, match="bad price table"):
        load_price_table(table_path)


def test_tally_reproducible_from_cache_entries_alone(tmp_path):
    usage = _usage(tmp_path, [_entry(h=f"h{i}", in_tok=i * 10, out_tok=i) for i in range(5)])
    first = tally_observed(usage, DEFAULT_PRICES)
    second = tally_observed(usage, DEFAULT_PRICES)
    assert first == second == CostReport(input_tokens=100, output_tokens=10, usd=first.usd)


def test_cost_csv_labels_each_row_from_its_key_in_key_order():
    tallies = [
        (("summarization", "summ:80"), CostReport(1_500_000, 20, 3.0303031)),
        (("judgment", "full"), CostReport(7, 0, 0.0000176)),
    ]
    assert cost_csv("dl19", tallies).splitlines() == [
        "stage,modality,dataset,input_tokens_millions,cost_usd",
        "summarization,summ:80,dl19,1.500000,3.030303",
        "judgment,full,dl19,0.000007,0.000018",
    ]
