"""Order statistics for per-job latencies."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail value


def tail_index(n: int) -> int:
    """0-based rank of the highest sample with TAIL_BEYOND samples above it.

    With fewer than TAIL_BEYOND + 1 samples no such rank exists and the
    maximum is reported instead.
    """
    if n < 1:
        raise ValueError("no samples")
    return max(n - 1 - TAIL_BEYOND, 0) if n > TAIL_BEYOND else n - 1


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the tail rule above."""
    ordered = sorted(values)
    i = tail_index(len(ordered))
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered)


def median(values) -> float:
    return float(statistics.median(values))

