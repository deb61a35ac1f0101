"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(values):
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it: ``(value, percentile, samples, beyond)``.

    With ``n`` sorted samples that is the ``(n - 10)``-th, the
    ``100 * (n - 10) / n`` percentile.  With ten samples or fewer no
    percentile qualifies, and the maximum is returned with ``beyond``
    0, so the stated count shows it is not a qualified tail.
    """
    ordered = sorted(values)
    samples = len(ordered)
    if samples > TAIL_BEYOND:
        rank = samples - TAIL_BEYOND
        return (ordered[rank - 1], 100.0 * rank / samples, samples,
                TAIL_BEYOND)
    return ordered[-1], 100.0, samples, 0
