"""Agreement statistics against brute-force oracles and hand-worked cases."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from judgeval import reports
from judgeval.agreement import (
    GRADED_LABELS,
    UNDEFINED,
    ConfusionMatrix,
    agreement_report,
    alpha_from_pairs,
    cohen_kappa,
    format_percentages,
    label_distribution,
    weighted_kappa,
)
from judgeval.trec_io import JudgmentSet, Modality


def _sets_from_pairs(pairs) -> tuple[JudgmentSet, JudgmentSet]:
    a = JudgmentSet(grades={("t", f"d{i}"): v for i, (v, _) in enumerate(pairs)})
    b = JudgmentSet(grades={("t", f"d{i}"): v for i, (_, v) in enumerate(pairs)})
    return a, b


def _matrix_from_pairs(pairs, labels=(0, 1, 2, 3)) -> ConfusionMatrix:
    a, b = _sets_from_pairs(pairs)
    return ConfusionMatrix.from_sets(a, b, labels=labels)


def _random_pairs(rng, n=None, labels=(0, 1, 2, 3)):
    n = n or rng.randint(2, 30)
    return [(rng.choice(labels), rng.choice(labels)) for _ in range(n)]


# -- label distribution ---------------------------------------------------------


def test_label_distribution_even_split():
    judgments = JudgmentSet(
        grades={("t", "a"): 0, ("t", "b"): 0, ("t", "c"): 1, ("t", "d"): 1}
    )
    dist = label_distribution(judgments)
    assert format_percentages(dist) == {0: "50.0", 1: "50.0", 2: "0.0", 3: "0.0"}


def test_label_distribution_single_grade():
    judgments = JudgmentSet(grades={("t", "a"): 3, ("t", "b"): 3})
    assert format_percentages(label_distribution(judgments))[3] == "100.0"


def test_label_distribution_empty_set_is_error():
    with pytest.raises(ValueError):
        label_distribution(JudgmentSet())


def test_label_distribution_fractions_sum_to_exactly_one():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 37)
        judgments = JudgmentSet(
            grades={("t", f"d{i}"): rng.randint(0, 3) for i in range(n)}
        )
        dist = label_distribution(judgments)
        assert sum(dist.values()) == Fraction(1)


def test_published_row_formats_from_equivalent_fractions():
    # counts proportional to the published 50.0 / 31.4 / 9.9 / 8.7 row
    judgments = JudgmentSet(
        grades={
            ("t", f"d{i}"): grade
            for i, grade in enumerate([0] * 500 + [1] * 314 + [2] * 99 + [3] * 87)
        }
    )
    shares = format_percentages(label_distribution(judgments))
    assert [shares[g] for g in (0, 1, 2, 3)] == ["50.0", "31.4", "9.9", "8.7"]


# -- Cohen's kappa -----------------------------------------------------------------


def test_kappa_identical_is_one():
    pairs = [(g, g) for g in (0, 1, 2, 3, 2, 1)]
    assert cohen_kappa(_matrix_from_pairs(pairs)).value == pytest.approx(1.0)


def test_kappa_hand_case_zero():
    # p_o = p_e = 0.5 by direct evaluation of the formula
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    stat = cohen_kappa(_matrix_from_pairs(pairs, labels=(0, 1)))
    assert stat.value == pytest.approx(0.0, abs=1e-15)
    assert not stat.degenerate


def test_kappa_degenerate_cases():
    both_same = cohen_kappa(_matrix_from_pairs([(1, 1), (1, 1)]))
    assert both_same == (1.0, True)
    both_diff = cohen_kappa(_matrix_from_pairs([(0, 2), (0, 2)]))
    assert both_diff == (0.0, True)


def test_kappa_matches_oracle_on_random_instances():
    rng = random.Random(101)
    for _ in range(400):
        pairs = _random_pairs(rng)
        ours = cohen_kappa(_matrix_from_pairs(pairs)).value
        assert ours == pytest.approx(oracles.kappa(pairs), abs=1e-12)


def test_kappa_symmetric_under_transpose():
    rng = random.Random(5)
    for _ in range(100):
        pairs = _random_pairs(rng)
        flipped = [(b, a) for a, b in pairs]
        assert cohen_kappa(_matrix_from_pairs(pairs)).value == pytest.approx(
            cohen_kappa(_matrix_from_pairs(flipped)).value, abs=1e-12
        )


def test_kappa_permutation_invariant():
    rng = random.Random(6)
    pairs = _random_pairs(rng, n=25)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    assert cohen_kappa(_matrix_from_pairs(pairs)).value == pytest.approx(
        cohen_kappa(_matrix_from_pairs(shuffled)).value, abs=1e-15
    )


# -- weighted kappa -----------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["quadratic", "linear"])
def test_weighted_kappa_identical_is_one(scheme):
    pairs = [(g, g) for g in (0, 1, 2, 3, 3)]
    assert weighted_kappa(_matrix_from_pairs(pairs), scheme).value == pytest.approx(1.0)


@pytest.mark.parametrize("scheme", ["quadratic", "linear"])
def test_weighted_kappa_equals_cohen_for_two_labels(scheme):
    rng = random.Random(77)
    for _ in range(200):
        pairs = _random_pairs(rng, labels=(0, 1))
        matrix = _matrix_from_pairs(pairs, labels=(0, 1))
        assert weighted_kappa(matrix, scheme).value == pytest.approx(
            cohen_kappa(matrix).value, abs=1e-12
        )


def test_weighted_kappa_extreme_disagreement_cell():
    # all mass on (0,3) and (3,0): kappa_w = 1 - observed/expected by the
    # direct formula
    pairs = [(0, 3)] * 3 + [(3, 0)] * 5
    for scheme, power in (("quadratic", 2), ("linear", 1)):
        ours = weighted_kappa(_matrix_from_pairs(pairs), scheme).value
        expected = oracles.weighted_kappa(pairs, (0, 1, 2, 3), power)
        assert ours == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("scheme,power", [("quadratic", 2), ("linear", 1)])
def test_weighted_kappa_matches_oracle_on_random_instances(scheme, power):
    rng = random.Random(11 if power == 2 else 13)
    for _ in range(300):
        pairs = _random_pairs(rng)
        ours = weighted_kappa(_matrix_from_pairs(pairs), scheme).value
        assert ours == pytest.approx(
            oracles.weighted_kappa(pairs, (0, 1, 2, 3), power), abs=1e-12
        )


def test_weighted_kappa_degenerate_flags():
    assert weighted_kappa(_matrix_from_pairs([(2, 2), (2, 2)])) == (1.0, True)
    stat = weighted_kappa(_matrix_from_pairs([(0, 3), (0, 3)]))
    assert stat == (0.0, True)


def test_weighted_kappa_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        weighted_kappa(_matrix_from_pairs([(0, 1)]), "cubic")


# -- Krippendorff's alpha --------------------------------------------------------------


@pytest.mark.parametrize("metric", ["nominal", "ordinal", "interval"])
def test_alpha_identical_is_one(metric):
    pairs = [(g, g) for g in (0, 1, 2, 3, 2)]
    assert alpha_from_pairs(pairs, metric).value == pytest.approx(1.0)


def test_alpha_interval_worked_example():
    a_vals = [1, 2, 3, 3, 2, 1, 4, 1, 2]
    b_vals = [1, 2, 3, 3, 2, 2, 4, 1, 2]
    pairs = list(zip(a_vals, b_vals))
    ours = alpha_from_pairs(pairs, "interval").value
    # hand-worked: D_o = 1/9, D_e = 594/306
    assert ours == pytest.approx(0.9427609427609428, abs=1e-12)
    assert ours == pytest.approx(oracles.krippendorff_alpha(pairs, "interval"), abs=1e-10)


@pytest.mark.parametrize("metric", ["nominal", "ordinal", "interval"])
def test_alpha_matches_oracle_on_random_instances(metric):
    rng = random.Random(19)
    for _ in range(250):
        n = rng.randint(2, 25)
        pairs = []
        for _ in range(n):
            a = rng.randint(0, 3) if rng.random() > 0.15 else None
            b = rng.randint(0, 3) if rng.random() > 0.15 else None
            pairs.append((a, b))
        if sum(1 for a, b in pairs if a is not None and b is not None) < 2:
            continue
        ours = alpha_from_pairs(pairs, metric).value
        assert ours == pytest.approx(oracles.krippendorff_alpha(pairs, metric), abs=1e-10)


def test_alpha_degenerate_constant_values_flagged():
    assert alpha_from_pairs([(1, 1), (1, 1)], "nominal") == (1.0, True)


def test_alpha_symmetric_in_raters():
    rng = random.Random(23)
    for _ in range(100):
        pairs = _random_pairs(rng)
        flipped = [(b, a) for a, b in pairs]
        assert alpha_from_pairs(pairs, "ordinal").value == pytest.approx(
            alpha_from_pairs(flipped, "ordinal").value, abs=1e-12
        )


def test_binary_alpha_vs_kappa_small_sample_gap():
    """On marginal-matched binary instances, nominal alpha differs from kappa
    by exactly the small-sample correction (1 - pi) / (2n)."""
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(4, 40)
        a_vals = [rng.randint(0, 1) for _ in range(n)]
        b_vals = a_vals[:]
        rng.shuffle(b_vals)  # same marginals, so kappa == Scott's pi
        pairs = list(zip(a_vals, b_vals))
        if len(set(a_vals)) == 1:
            continue
        alpha = alpha_from_pairs(pairs, "nominal").value
        kappa = cohen_kappa(_matrix_from_pairs(pairs, labels=(0, 1))).value
        pi = oracles.scott_pi(pairs)
        assert kappa == pytest.approx(pi, abs=1e-12)
        assert alpha == pytest.approx(pi + (1 - pi) / (2 * n), abs=1e-12)
        assert abs(alpha - kappa) <= (1 - kappa) / (2 * n) + 1e-12


# -- report assembly --------------------------------------------------------------------


def test_agreement_report_graded_and_binary():
    pairs = [(0, 0), (1, 1), (2, 1), (3, 3), (0, 1), (2, 2)]
    a, b = _sets_from_pairs(pairs)
    report = agreement_report(a, b, 1)
    assert (report.n_items, report.n_missing) == (6, 0)
    assert not (report.weighted_kappa.degenerate or report.alpha_ordinal.degenerate)
    assert -1.0 <= report.kappa_binary.value <= 1.0
    assert report.alpha_nominal_binary.value <= 1.0
    with pytest.raises(ValueError, match="threshold"):
        agreement_report(a, b, 0)
    # a grade outside 0-3 is an error, never counted in some other cell
    for bad in (5, -1):
        a.grades[("t", "d0")] = bad
        with pytest.raises(ValueError, match=r"label set \(0, 1, 2, 3\)"):
            agreement_report(a, b, 1)


def test_agreement_report_flags_degenerate():
    a, b = _sets_from_pairs([(1, 1), (1, 1), (1, 1)])
    report = agreement_report(a, b, 1)
    assert report.weighted_kappa.degenerate
    assert report.alpha_ordinal.degenerate
    assert report.kappa_binary.degenerate


def test_agreement_report_needs_overlap():
    # one co-judged pair leaves every statistic undefined, not an error
    a = JudgmentSet(grades={("t", "d1"): 1, ("t", "d3"): 2})
    b = JudgmentSet(grades={("t", "d2"): 1, ("t", "d3"): 0})
    report = agreement_report(a, b, 2)
    assert (report.n_items, report.n_missing) == (1, 2)
    stats = [report.weighted_kappa, report.alpha_ordinal]
    stats += [report.kappa_binary, report.alpha_nominal_binary]
    assert stats == [UNDEFINED] * 4 == [(None, True)] * 4
    empty = agreement_report(a, JudgmentSet(), 1)
    assert (empty.n_items, empty.n_missing, empty.weighted_kappa) == (0, 2, UNDEFINED)


def test_agreement_csv_makes_one_report_per_cell(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return agreement_report(*args)

    monkeypatch.setattr(reports, "agreement_report", counted)
    a, b = _sets_from_pairs([(0, 0), (1, 2), (3, 3)])
    cells = [JudgmentSet(b.grades, "m"), JudgmentSet(a.grades, "m", Modality("summary", 80))]
    text = reports.agreement_csv("d", 2, a, cells)
    assert len(calls) == 2
    # each cell's rows are labelled from its provenance
    assert [line.split(",")[:2] for line in text.splitlines()[1:]] == (
        [["m", "full"]] * 4 + [["m", "summ:80"]] * 4
    )


def _skewed_grades(rng, n):
    weights = [rng.random() ** 3 * (rng.random() > 0.2) for _ in GRADED_LABELS]
    weights[rng.randrange(4)] += 0.01
    return rng.choices(GRADED_LABELS, weights=weights, k=n)


def test_agreement_report_equals_the_public_functions_exactly():
    """Every field equals (==, no tolerance) the public function on the
    co-judged pairs, binarized at the threshold for the binary statistics."""
    rng = random.Random(2011)
    for _ in range(40):
        n_shared = rng.choice([2, 3, rng.randint(2, 60), rng.randint(2, 3000)])
        only_ref, only_cell = rng.randint(0, n_shared // 4), rng.randint(0, n_shared // 4)
        keys = [(f"t{i % 7}", f"d{i}") for i in range(n_shared + only_ref + only_cell)]
        ref_keys = keys[: n_shared + only_ref]
        cell_keys = keys[:n_shared] + keys[n_shared + only_ref :]
        ref = JudgmentSet(grades=dict(zip(ref_keys, _skewed_grades(rng, len(ref_keys)))))
        cell = JudgmentSet(grades=dict(zip(cell_keys, _skewed_grades(rng, len(cell_keys)))))
        shared = set(ref.grades) & set(cell.grades)
        pairs = [(ref.grades[key], cell.grades[key]) for key in sorted(shared)]
        graded = ConfusionMatrix.from_sets(ref, cell, GRADED_LABELS)
        for threshold in (1, 2, 3):
            report = agreement_report(ref, cell, threshold)
            assert report.n_items == len(shared)
            assert report.n_missing == len(set(ref.grades) ^ set(cell.grades))
            assert report.weighted_kappa == weighted_kappa(graded)
            assert report.alpha_ordinal == alpha_from_pairs(pairs, "ordinal")
            binary = [(int(x >= threshold), int(y >= threshold)) for x, y in pairs]
            assert report.kappa_binary == cohen_kappa(_matrix_from_pairs(binary, (0, 1)))
            assert report.alpha_nominal_binary == alpha_from_pairs(binary, "nominal")
