"""Set sampling: estimate miss rates from a fraction of the cache sets.

The classic trick for scaling trace-driven studies (Puzak; later the
backbone of hardware utility monitors): because a set-associative cache's
sets operate independently, simulating only every ``k``-th set and scaling
by the sampled fraction estimates the whole cache's miss count from a
fraction of the trace.  Exact for uniformly spread traffic; the error on
skewed traffic is what the sampling ablation bench measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.stackdist import lru_miss_vector

__all__ = ["SampledEstimate", "sampled_miss_rate"]


@dataclass(frozen=True)
class SampledEstimate:
    """A sampled miss-rate estimate and its coverage."""

    miss_rate: float
    sampled_accesses: int
    total_accesses: int
    sampled_sets: int
    total_sets: int

    @property
    def coverage(self) -> float:
        """Fraction of the trace actually simulated."""
        if not self.total_accesses:
            return 0.0
        return self.sampled_accesses / self.total_accesses


def sampled_miss_rate(
    line_ids: np.ndarray,
    num_sets: int,
    ways: int,
    sample_every: int = 4,
    offset: int = 0,
) -> SampledEstimate:
    """Estimate the LRU miss rate simulating every ``sample_every``-th set.

    The sampled sets are ``{offset, offset + sample_every, ...}``; their
    accesses are simulated exactly (set behaviour is independent of the
    discarded traffic) and the miss rate of the sample estimates the whole.
    ``sample_every = 1`` degenerates to the exact computation.
    """
    if sample_every < 1:
        raise ValueError("sampling stride must be at least 1")
    if not 0 <= offset < sample_every:
        raise ValueError("offset must lie in [0, sample_every)")
    line_ids = np.ascontiguousarray(line_ids, dtype=np.int64)
    total = int(line_ids.size)
    set_ids = line_ids % num_sets
    mask = (set_ids % sample_every) == offset
    sampled = line_ids[mask]
    sampled_sets = len(
        {s for s in range(num_sets) if s % sample_every == offset}
    )
    if sampled.size == 0:
        return SampledEstimate(0.0, 0, total, sampled_sets, num_sets)
    miss = lru_miss_vector(sampled, num_sets, ways)
    return SampledEstimate(
        miss_rate=float(miss.mean()),
        sampled_accesses=int(sampled.size),
        total_accesses=total,
        sampled_sets=sampled_sets,
        total_sets=num_sets,
    )
