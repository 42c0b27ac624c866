"""Correctness gates: each returns a list of failures (empty = correct).

A run whose gate reports any failure prints ``"correct": false``.
"""

from __future__ import annotations


def d1_batch_gate(result: dict, reference: dict) -> list[str]:
    """Reported item ids and the probability digest equal the serial
    ``CATS.extract_features`` + ``detect_with_features`` reference."""
    failures = []
    if result["n_comments"] != reference["n_comments"]:
        failures.append(
            f"read {result['n_comments']} comments, "
            f"expected {reference['n_comments']}"
        )
    if result["reported_ids"] != reference["reported_ids"]:
        failures.append(
            f"reported {len(result['reported_ids'])} items, reference "
            f"{len(reference['reported_ids'])} (or different ids)"
        )
    if result["probability_digest"] != reference["probability_digest"]:
        failures.append("fraud probabilities differ from the reference")
    return failures


def live_feed_gate(
    scores: dict[str, float], alerted: set[int], reference: dict
) -> list[str]:
    """The final ``/score`` of every fed item equals the in-process
    ``StreamingDetector`` fed the same pages, and ``/alerts`` covers
    every item at or above the threshold."""
    failures = []
    expected = reference["probabilities"]
    if set(scores) != set(expected):
        failures.append(
            f"scored {len(scores)} items, reference {len(expected)}"
        )
    wrong = [k for k in expected if k in scores and scores[k] != expected[k]]
    if wrong:
        failures.append(
            f"{len(wrong)} probabilities differ from the reference "
            f"(first: item {wrong[0]}: {scores[wrong[0]]!r} != "
            f"{expected[wrong[0]]!r})"
        )
    missing = [i for i in reference["must_alert"] if i not in alerted]
    if missing:
        failures.append(
            f"{len(missing)} items at or above the threshold never alerted"
        )
    return failures


def retrain_gate(cycles: list[dict], reference: dict) -> list[str]:
    """Every cycle's reloaded champion scores like the in-memory fit and
    like the reference fit, bit for bit, and its CV metrics equal the
    reference's."""
    failures = []
    for n, cycle in enumerate(cycles):
        if cycle["features_digest"] != reference["features_digest"]:
            failures.append(
                f"cycle {n}: store feature matrix differs from the "
                f"serial reference"
            )
        if cycle["probability_digest"] != cycle["in_memory_digest"]:
            failures.append(
                f"cycle {n}: reloaded champion scores differ from the "
                f"in-memory fit"
            )
        if cycle["probability_digest"] != reference["probability_digest"]:
            failures.append(f"cycle {n}: scores differ from the reference")
        if cycle["cv"] != reference["cv"]:
            failures.append(f"cycle {n}: CV metrics differ from the reference")
    return failures
