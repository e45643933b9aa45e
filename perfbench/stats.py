"""Summary statistics with the benchmark's sample-count rule.

A timing is reported as its median and a tail percentile. A tail
percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it, so p90 needs at least 100 samples.
"""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the ``pct``-th
    percentile's rank."""
    return n - math.ceil(n * pct / 100.0)


def min_samples(pct: float) -> int:
    """Smallest sample count for which ``pct`` has ``MIN_BEYOND`` beyond it."""
    n = 1
    while samples_beyond(n, pct) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; refuses a tail with too few samples beyond."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if pct > 50 and samples_beyond(n, pct) < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} needs {min_samples(pct)} samples for {MIN_BEYOND} beyond it, "
            f"got {n}"
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(n * pct / 100.0) - 1)]
