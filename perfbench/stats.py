"""Order statistics shared by the benchmark and its steadiness report."""

import math
import statistics

# Percentiles tried for a tail figure, highest first.  A percentile is only
# reported when at least MIN_BEYOND samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """(q3 - q1) / median; 0 for a sample whose median is 0."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _rank(pct, count):
    # Rounded before the ceiling so that 99.9% of 1000 is rank 999, not 1000.
    return max(math.ceil(round(pct * count / 100, 9)), 1)


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of the
    sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(pct, len(ordered)) - 1]


def samples_beyond(values, pct):
    """How many samples lie strictly above the pct-th percentile's rank."""
    count = len(values)
    return count - _rank(pct, count)


def tail(values):
    """(pct, value, beyond): the highest ladder percentile with at least
    MIN_BEYOND samples beyond it.  None when the sample is too small for
    even the median to qualify."""
    for pct in TAIL_LADDER:
        beyond = samples_beyond(values, pct)
        if beyond >= MIN_BEYOND:
            return pct, percentile(values, pct), beyond
    return None
