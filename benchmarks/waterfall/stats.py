"""Percentile and spread rules shared by the runner, ``compare.py`` and
the self-tests."""

from __future__ import annotations

import statistics

#: a percentile is reported only with this many samples beyond it
SAMPLES_BEYOND = 10
#: (percentile, one sample in this many lies beyond it)
_TAILS = ((99.9, 1000), (99.0, 100), (95.0, 20), (90.0, 10))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample:
    the smallest value with at least ``q`` % of the sample at or below."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def supported_tail(count: int) -> float | None:
    """The highest tail percentile a sample of ``count`` supports: at
    least :data:`SAMPLES_BEYOND` samples must lie beyond it."""
    for q, one_in in _TAILS:
        if count >= SAMPLES_BEYOND * one_in:
            return q
    return None


def describe(values, scale: float = 1.0) -> dict:
    """Median, the highest supported tail and the sample count."""
    if not values:
        return {"n": 0}
    summary = {"n": len(values), "p50": percentile(values, 50) * scale}
    tail = supported_tail(len(values))
    if tail is not None:
        summary["tail_q"] = tail
        summary["tail"] = percentile(values, tail) * scale
    return summary


def iqr_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the run-to-run spread the bounds are judged against."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")
