"""Summary statistics the benchmark reports: medians and the tail rule."""

from __future__ import annotations

import statistics

#: The tail percentile is the highest one that still has this many samples above it.
TAIL_MIN_ABOVE = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(samples, min_above: int = TAIL_MIN_ABOVE) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that still
    has ``min_above`` samples above it.

    With n samples that is the (min_above + 1)-th largest, which is the
    100 * (n - min_above) / n percentile.  With too few samples for any such
    percentile the maximum is returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= min_above:
        return float(ordered[-1]), 100.0
    k = n - min_above - 1
    return float(ordered[k]), 100.0 * (k + 1) / n

