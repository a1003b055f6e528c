"""Split vs unified caches: spending one on-chip budget on I and D.

The paper explores the data cache alone (and sketches the instruction side
as future work).  A real SoC splits one silicon budget between the two --
or buys a single unified cache serving both streams.  This module builds
the merged instruction+data trace of a loop kernel (each iteration fetches
its loop body, then performs its data accesses) and compares:

* **split** -- an instruction cache and a data cache, each a power-of-two
  share of the budget, each serving its own stream;
* **unified** -- one cache of the full budget serving the interleaved
  stream, where hot loop code and data evict each other.

The expected embedded-systems result (borne out by the bench): a tiny
dedicated I-cache pins the loop body, so the best split beats the unified
cache whenever the data stream is eviction-prone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.stackdist import lru_miss_vector
from repro.cache.trace import MemoryTrace
from repro.core.config import powers_of_two
from repro.kernels.base import Kernel

__all__ = ["SplitComparison", "merged_trace", "split_vs_unified"]

#: Instruction width in bytes (matches the basic-block model's default).
INSTRUCTION_BYTES = 4


def merged_trace(
    kernel: Kernel,
    body_instructions: int = 12,
    code_base: Optional[int] = None,
) -> Tuple[MemoryTrace, np.ndarray]:
    """Interleave per-iteration instruction fetches with the data accesses.

    Returns the merged trace plus a boolean mask marking the instruction
    fetches.  The loop body is ``body_instructions`` straight-line
    instructions starting at ``code_base`` (defaults to just past the data
    footprint, rounded to 4 KiB -- code and data segments are disjoint).
    """
    if body_instructions < 1:
        raise ValueError("a loop body needs at least one instruction")
    data = kernel.trace()
    if code_base is None:
        footprint = int(data.addresses.max()) + 1 if len(data) else 0
        code_base = -(-footprint // 4096) * 4096
    iterations = kernel.nest.iterations
    refs_per_iter = len(kernel.nest.refs)
    fetches = code_base + INSTRUCTION_BYTES * np.arange(
        body_instructions, dtype=np.int64
    )

    addresses: List[np.ndarray] = []
    masks: List[np.ndarray] = []
    data_matrix = data.addresses.reshape(iterations, refs_per_iter)
    for it in range(iterations):
        addresses.append(fetches)
        masks.append(np.ones(body_instructions, dtype=bool))
        addresses.append(data_matrix[it])
        masks.append(np.zeros(refs_per_iter, dtype=bool))
    merged = MemoryTrace(np.concatenate(addresses))
    return merged, np.concatenate(masks)


@dataclass(frozen=True)
class SplitComparison:
    """One budget: the best split pair vs the unified cache."""

    budget: int
    line_size: int
    best_icache: int
    best_dcache: int
    split_misses: int
    unified_misses: int

    @property
    def winner(self) -> str:
        """``"split"`` or ``"unified"`` by total miss count."""
        return "split" if self.split_misses <= self.unified_misses else "unified"


def _misses(line_ids: np.ndarray, num_lines: int) -> int:
    """Misses of a direct-mapped cache of ``num_lines`` lines."""
    return int(lru_miss_vector(line_ids, num_lines, 1).sum())


def split_vs_unified(
    kernel: Kernel,
    budget: int,
    line_size: int = 8,
    body_instructions: int = 12,
) -> SplitComparison:
    """Best split of ``budget`` bytes vs one unified cache (direct-mapped).

    The split search tries every power-of-two partition with at least one
    line per side; both organisations serve the same merged trace.
    """
    if budget < 2 * line_size:
        raise ValueError("budget must hold at least one line per side")
    merged, is_fetch = merged_trace(kernel, body_instructions)
    line_ids = merged.line_ids(line_size)
    i_lines = line_ids[is_fetch]
    d_lines = line_ids[~is_fetch]

    best: Optional[Tuple[int, int, int]] = None
    seen = set()
    for i_size in powers_of_two(line_size, budget - line_size):
        remainder = budget - i_size
        d_size = 1 << (remainder.bit_length() - 1)  # round down to 2^k
        if d_size < line_size or (i_size, d_size) in seen:
            continue
        seen.add((i_size, d_size))
        i_misses = _misses(i_lines, i_size // line_size)
        d_misses = _misses(d_lines, d_size // line_size)
        total = i_misses + d_misses
        if best is None or total < best[0]:
            best = (total, i_size, d_size)
    assert best is not None
    unified_misses = _misses(line_ids, budget // line_size)
    return SplitComparison(
        budget=budget,
        line_size=line_size,
        best_icache=best[1],
        best_dcache=best[2],
        split_misses=best[0],
        unified_misses=unified_misses,
    )
