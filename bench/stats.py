"""The small statistics the harness reports: the guarded tail percentile,
quartile spread and Jain's fairness index.

Kept here rather than borrowed from ``repro.sim.metrics.percentile``: the
yardstick must not move when the measured program does, and the parent
process and ``compare.py`` never import the program at all."""

from __future__ import annotations

import math
import statistics

#: A percentile is only reported with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100], of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the nearest-rank ``q``-th."""
    return count - max(1, math.ceil(q / 100.0 * count)) if count else 0


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples leave :data:`MIN_BEYOND` beyond ``q``."""
    return samples_beyond(count, q) >= MIN_BEYOND


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the contract's run-to-run spread."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def jain(values) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)``: 1 when all are equal,
    1/n when one takes all. An empty or all-zero sample is 1.0 — nobody
    waited, so nobody was treated unequally."""
    values = list(values)
    squares = sum(v * v for v in values)
    if not values or squares == 0.0:
        return 1.0
    total = sum(values)
    return total * total / (len(values) * squares)
