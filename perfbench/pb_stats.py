"""Order statistics the benchmark reports, and the host-speed probe."""

from __future__ import annotations

import math
import statistics
import time

#: Conventional percentiles considered for the tail-latency report.
PERCENTILES = (50, 75, 90, 95, 99)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_TAIL = 10


def nearest_rank(values, percentile: float) -> float:
    """The nearest-rank percentile: the ``ceil(p/100 * n)``-th smallest."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(1, math.ceil(percentile / 100.0 * count))


def tail_percentile(count: int, min_tail: int = MIN_TAIL) -> int:
    """The highest of :data:`PERCENTILES` with ``min_tail`` samples beyond.

    Raises when even the median lacks that many (too few samples to
    report a tail at all).
    """
    eligible = [p for p in PERCENTILES if samples_beyond(count, p) >= min_tail]
    if not eligible:
        raise ValueError(
            f"{count} samples leave fewer than {min_tail} beyond the median"
        )
    return max(eligible)


def median(values) -> float:
    return statistics.median(values)


# A shared VM drifts between fast and slow phases lasting seconds to
# minutes (on a 2-vCPU 2.0 GHz Xeon: about +-25% between 30 s runs of
# identical work). A fixed pure-Python loop, timed just before each
# timed run, tracks that drift to within about 5%, so every timed run is
# rescaled to the host speed at which the probe takes PROBE_REFERENCE_S.
PROBE_LOOPS = 16_000
PROBE_REFERENCE_S = 0.0015


def probe_host() -> float:
    """Seconds the probe loop takes now (fastest of three tries)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for index in range(PROBE_LOOPS):
            total += index * index % 7
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(seconds: float, probe_seconds: float) -> float:
    """``seconds`` measured while the probe took ``probe_seconds``,
    rescaled to the reference host speed."""
    return seconds * PROBE_REFERENCE_S / probe_seconds
