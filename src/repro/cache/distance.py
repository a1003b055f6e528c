"""LRU stack-distance analysis and miss-ratio curves.

Mattson's classic result: for a fully-associative LRU cache, an access
hits iff its *stack distance* -- the number of distinct lines touched since
the previous access to the same line -- is at most the cache's line
capacity.  One pass over the trace therefore yields the miss count of
EVERY cache size at once (the miss-ratio curve).

This is the machinery behind the capacity analysis of
:func:`repro.cache.stats.classify_misses`, exposed directly because it
explains the one systematic deviation of this reproduction from the paper:
the paper's analytic model ignores cross-sweep retention, i.e. it prices
every cache size on the curve at the curve's plateau, while the simulator
follows the curve down (see EXPERIMENTS.md, Figures 3-4).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.cache.stackdist import COLD, set_local_distances
from repro.cache.trace import MemoryTrace

__all__ = [
    "miss_ratio_curve",
    "reuse_profile",
    "stack_distances",
]


def stack_distances(line_ids: Sequence[int]) -> np.ndarray:
    """LRU stack distance of every access (``COLD`` for first touches).

    A distance of 1 means "the most recently used line was re-touched";
    an access with distance ``d`` hits any fully-associative LRU cache of
    at least ``d`` lines.  The one-set case of
    :func:`repro.cache.stackdist.set_local_distances`.
    """
    return set_local_distances(line_ids, 1)


def miss_ratio_curve(
    trace: MemoryTrace, line_size: int, capacities: Sequence[int]
) -> Dict[int, float]:
    """Fully-associative LRU miss ratio at each capacity (in lines).

    One stack-distance pass prices every requested capacity: an access
    misses a ``c``-line cache iff it is cold or its distance exceeds ``c``.
    """
    if any(c <= 0 for c in capacities):
        raise ValueError("capacities must be positive line counts")
    distances = stack_distances(trace.line_ids(line_size))
    n = distances.size
    if n == 0:
        return {c: 0.0 for c in capacities}
    cold = int((distances == COLD).sum())
    warm = distances[distances != COLD]
    return {
        c: (cold + int((warm > c).sum())) / n
        for c in capacities
    }


def reuse_profile(trace: MemoryTrace, line_size: int) -> Dict[str, float]:
    """Summary statistics of a trace's temporal locality.

    Returns the compulsory fraction, the median and 90th-percentile stack
    distance of the warm accesses, and the line-capacity knee: the
    smallest power-of-two capacity whose fully-associative miss ratio is
    within 1% of compulsory-only.
    """
    distances = stack_distances(trace.line_ids(line_size))
    n = distances.size
    if n == 0:
        return {
            "compulsory_fraction": 0.0,
            "median_distance": 0.0,
            "p90_distance": 0.0,
            "knee_lines": 1,
        }
    cold_mask = distances == COLD
    warm = distances[~cold_mask]
    compulsory_fraction = float(cold_mask.mean())
    if warm.size == 0:
        return {
            "compulsory_fraction": compulsory_fraction,
            "median_distance": 0.0,
            "p90_distance": 0.0,
            "knee_lines": 1,
        }
    floor_mr = compulsory_fraction
    knee = 1
    while True:
        mr = (int(cold_mask.sum()) + int((warm > knee).sum())) / n
        if mr <= floor_mr + 0.01 or knee > int(warm.max()):
            break
        knee *= 2
    return {
        "compulsory_fraction": compulsory_fraction,
        "median_distance": float(np.median(warm)),
        "p90_distance": float(np.percentile(warm, 90)),
        "knee_lines": knee,
    }
