"""Tail percentiles with the benchmark's sample-count rule."""

from __future__ import annotations

import math

# A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile (0 < q < 1) of values.

    Raises ValueError unless at least MIN_BEYOND samples rank above it, so a
    p99 needs 1000 samples and a p95 needs 200.
    """
    if not 0 < q < 1:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    n = len(values)
    rank = math.ceil(q * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {max(n - rank, 0)} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def tail(values, q: float, scale: float = 1.0) -> float | None:
    """scale times the q-percentile, or None when too few samples lie beyond it."""
    try:
        return percentile(values, q) * scale
    except ValueError:
        return None
