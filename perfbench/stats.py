"""Order statistics shared by every workload of the benchmark."""

import math
import statistics


def percentile(values, q):
    """The q-th percentile (0-100) of `values`, interpolating linearly
    between the two closest ranks (rank = q/100 * (n - 1))."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = q / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def median(values):
    return percentile(values, 50)


def beyond(n, q):
    """How many of n samples lie above the q-th percentile: a percentile
    is reported only when at least ten do."""
    return n - math.ceil(n * q / 100.0)


def quartile_spread(values):
    """Distance between the first and third quartiles as a share of the
    median, with quartiles as Python's `statistics.quantiles(n=4)`
    (exclusive method) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))
