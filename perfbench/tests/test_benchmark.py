"""Unit tests of the benchmark's statistics and correctness gates.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gates  # noqa: E402
import spans  # noqa: E402
from common import tail  # noqa: E402
from prepare import probability_digest  # noqa: E402


# -- tail rule -----------------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 50, 100, 295, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    value, percentile = tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_is_the_highest_such_percentile():
    values = [float(v) for v in range(100)]
    value, percentile = tail(values)
    assert value == 89.0 and percentile == 90.0
    # One rank higher would leave only nine samples beyond it.
    assert sum(v > 90.0 for v in values) == 9


def test_tail_with_too_few_samples_is_the_maximum_without_percentile():
    assert tail([3.0, 1.0, 2.0]) == (3.0, None)
    assert tail([float(v) for v in range(10)]) == (9.0, None)


def test_tail_rejects_empty_sample():
    with pytest.raises(ValueError):
        tail([])


# -- correctness gates -------------------------------------------------------


def _bump(value: float) -> float:
    """The next float above *value*: the smallest possible perturbation."""
    return float(np.nextafter(value, np.inf))


@pytest.fixture
def d1_pair():
    probabilities = np.array([0.1, 0.99, 0.5, 0.985])
    reference = {
        "n_comments": 40,
        "reported_ids": [11, 13],
        "probability_digest": probability_digest(probabilities),
    }
    return dict(reference), reference, probabilities


def test_d1_gate_accepts_identical_output(d1_pair):
    result, reference, _ = d1_pair
    assert gates.d1_batch_gate(result, reference) == []


def test_d1_gate_rejects_one_ulp_probability_change(d1_pair):
    result, reference, probabilities = d1_pair
    perturbed = probabilities.copy()
    perturbed[2] = _bump(perturbed[2])
    result["probability_digest"] = probability_digest(perturbed)
    assert gates.d1_batch_gate(result, reference)


def test_d1_gate_rejects_changed_report(d1_pair):
    result, reference, _ = d1_pair
    result["reported_ids"] = [11]
    assert gates.d1_batch_gate(result, reference)
    result["reported_ids"] = [11, 13]
    result["n_comments"] = 39
    assert gates.d1_batch_gate(result, reference)


@pytest.fixture
def live_pair():
    reference = {
        "fed_items": [1, 2, 3],
        "probabilities": {"1": 0.2, "2": 0.99, "3": 0.0},
        "threshold": 0.98,
        "must_alert": [2],
    }
    return dict(reference["probabilities"]), {2, 7}, reference


def test_live_gate_accepts_identical_output(live_pair):
    scores, alerted, reference = live_pair
    assert gates.live_feed_gate(scores, alerted, reference) == []


def test_live_gate_rejects_one_ulp_score_change(live_pair):
    scores, alerted, reference = live_pair
    scores["1"] = _bump(scores["1"])
    assert gates.live_feed_gate(scores, alerted, reference)


def test_live_gate_rejects_missing_item_and_missing_alert(live_pair):
    scores, alerted, reference = live_pair
    del scores["3"]
    assert gates.live_feed_gate(scores, alerted, reference)
    scores, alerted, reference = copy.deepcopy(live_pair)
    assert gates.live_feed_gate(scores, {7}, reference)


@pytest.fixture
def retrain_pair():
    cv = {"precision": 0.5, "recall": 0.25, "f1": 1 / 3}
    reference = {
        "cv": cv,
        "features_digest": "f",
        "probability_digest": "p",
    }
    cycle = {
        "cv": dict(cv),
        "features_digest": "f",
        "probability_digest": "p",
        "in_memory_digest": "p",
    }
    return [cycle, dict(cycle)], reference


def test_retrain_gate_accepts_identical_cycles(retrain_pair):
    cycles, reference = retrain_pair
    assert gates.retrain_gate(cycles, reference) == []


@pytest.mark.parametrize(
    "field", ["probability_digest", "in_memory_digest", "features_digest"]
)
def test_retrain_gate_rejects_changed_digest(retrain_pair, field):
    cycles, reference = retrain_pair
    cycles[1][field] = "x"
    assert gates.retrain_gate(cycles, reference)


def test_retrain_gate_rejects_one_ulp_cv_change(retrain_pair):
    cycles, reference = retrain_pair
    cycles[0]["cv"]["f1"] = _bump(cycles[0]["cv"]["f1"])
    assert gates.retrain_gate(cycles, reference)


# -- per-layer table -----------------------------------------------------------


def test_finish_reports_every_layer_metric_with_ratios():
    table = spans.finish(
        {
            "features.cache_hits": 1,
            "features.cache_lookups": 4,
            "rules.passed": 3,
            "rules.evaluated": 12,
            "inference.rows": 10,
            "inference.margins_calls": 5,
            "gbdt.fits": 6,
        }
    )
    assert list(table) == list(spans.PER_LAYER)
    assert table["features.cache_hit_rate"] == 0.25
    assert table["rules.pass_ratio"] == 0.25
    assert table["inference.rows_per_call"] == 2.0
    assert table["gbdt.fits"] == 6.0
    assert table["httpd.requests"] == 0.0
