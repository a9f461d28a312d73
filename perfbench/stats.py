"""Order statistics and the log-log slope fit used by the benchmark."""

import math
import statistics

TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``: the sample with exactly ``beyond``
    samples ranked above it, and the share of samples at or below it.  With
    too few samples there is no such percentile and the result is None.
    """
    if len(values) <= beyond:
        return None
    ordered = sorted(values)
    rank = len(ordered) - beyond - 1
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x): 1 for linear cost,
    2 for quadratic."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    if sxx == 0:
        raise ValueError("x values must differ")
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx

