"""Summary statistics shared by the workloads and the steadiness report."""

from __future__ import annotations

import math
import resource
import statistics
import time


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of *samples* (``pct`` in 0..100)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(samples: list[float], pct: float) -> int:
    """How many samples lie above the nearest-rank *pct* percentile."""
    return len(samples) - max(1, math.ceil(pct / 100.0 * len(samples)))


def relative_iqr(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


LOW_PCT = 5
"""The percentile reported of set-up times: their fast end, which the
machine's slow spells leave alone (see README)."""


def low_percentile(by_input: list[list[float]]) -> float:
    """Mean over inputs of each input's nearest-rank ``LOW_PCT`` percentile.

    Every input is one unit of identical work (one case, one cohort, one
    server boot), so each input's fast end is its cost on an undisturbed
    machine, and averaging over inputs keeps cheap inputs from standing
    for expensive ones.  A slower program is slower in every sample, so
    it still shows.
    """
    return statistics.fmean(percentile(samples, LOW_PCT) for samples in by_input)


def _reference_work() -> float:
    rows = [(key, str(key), key * 0.5) for key in range(1500)]
    index = {key: value for key, _text, value in rows}
    rows.sort(key=lambda row: row[2], reverse=True)
    total = 0.0
    for key, text, _value in rows:
        total += index[key] * len(text)
    return total


def reference_ms() -> float:
    """Time one run of a fixed piece of pure-Python work, in ms.

    The work is the benchmark's own and no change to the program touches
    it, so its time measures the machine's speed at the time of the run:
    the gated ask latency is given in units of it (see README).
    """
    began = time.perf_counter_ns()
    _reference_work()
    return (time.perf_counter_ns() - began) / 1e6


def per_reference(latencies: list[float], reference: list[float]) -> float:
    """Mean of *latencies* over the mean of *reference*, both in ms.

    One reference run follows every ask, so both means cover the same
    stretch of the run and a slow spell of the machine stretches both.
    """
    return statistics.fmean(latencies) / statistics.fmean(reference)
