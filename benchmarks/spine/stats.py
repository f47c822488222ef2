"""Sample statistics the benchmark reports: medians, supported tails,
slice throughputs and the quartile spread the acceptance rule uses."""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence, Tuple

#: A tail percentile is only reported when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10

#: Contiguous equal-count pieces a window is cut into for throughput.
SLICES = 8


def median(values: Sequence[float]) -> float:
    """Median, 0.0 for an empty sample (a metric that does not apply)."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * len(ordered))) - 1))
    return float(ordered[rank])


def supported_tail(values: Sequence[float], cap: float = 0.99) -> Tuple[float, float]:
    """``(fraction, value)`` of the highest percentile, at most ``cap``,
    that still has :data:`TAIL_MIN_BEYOND` samples beyond it; ``(0, 0)``
    when the sample is too small to support any tail."""
    n = len(values)
    if n <= TAIL_MIN_BEYOND:
        return 0.0, 0.0
    fraction = min(cap, 1.0 - TAIL_MIN_BEYOND / n)
    return fraction, percentile(values, fraction)


def slice_rates(completions: Sequence[Tuple[float, int]], count: int = SLICES) -> List[float]:
    """Throughput of ``count`` contiguous equal-op-count slices of a window.

    ``completions`` is ``(finish_time, ops_finished_by_this_event)`` in
    time order.  A slice runs from the last event of the previous slice to
    its own last event; the first starts at the window's first event, which
    it therefore does not count.  One stalled fsync lands in one slice, so
    the median over slices does not move with it.
    """
    count = max(1, min(count, len(completions) - 1))
    size = (len(completions) - 1) // count
    rates: List[float] = []
    for k in range(count if size else 0):
        begin = completions[k * size][0]
        piece = completions[k * size + 1 : (k + 1) * size + 1]
        elapsed = piece[-1][0] - begin
        if elapsed > 0:
            rates.append(sum(ops for _, ops in piece) / elapsed)
    return rates


def quartile_spread(values: Sequence[float]) -> Optional[float]:
    """(Q3 - Q1) / median as ``statistics.quantiles(values, n=4)`` gives
    them -- the run-to-run spread the acceptance rule bounds.  ``None`` for
    a single run: it has no spread, which is not a spread of 0."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
