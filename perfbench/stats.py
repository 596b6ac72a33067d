"""Statistics used by the benchmark: percentiles and self time.

Everything here is pure Python/NumPy with no dependency on the program under
test, so ``perfbench/test_stats.py`` can pin each rule down in isolation.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

#: Samples that must lie beyond a percentile before it is reported as measured.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation; NaN when empty."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))


def supported_percentile(n: int, candidates: Sequence[float] = (99.9, 99.0, 95.0, 90.0, 50.0),
                         min_beyond: int = MIN_TAIL_SAMPLES) -> Optional[float]:
    """The highest candidate percentile with at least ``min_beyond`` samples beyond it.

    ``n * (1 - q/100)`` samples lie above the ``q``-th percentile; a tail
    estimate resting on fewer than ``min_beyond`` of them is mostly noise.
    Returns ``None`` when even the lowest candidate is unsupported.
    """
    for q in sorted(candidates, reverse=True):
        if n * (1.0 - q / 100.0) >= min_beyond - 1e-9:
            return q
    return None


def self_time(total_s: float, child_s: Iterable[float]) -> float:
    """A layer's self time: its duration minus the child layers it waited on.

    Children are sequential calls made from the layer's own thread, so their
    durations add.  Clamped at zero, which only matters when clock
    granularity makes the children look longer than the parent.
    """
    return max(0.0, float(total_s) - float(sum(child_s)))
