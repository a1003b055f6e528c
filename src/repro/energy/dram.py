"""DRAM row-buffer model for the off-chip side.

The paper's off-chip memory is an SRAM with one flat cost ``Em``.  A DRAM
main memory (what most of the paper's successors assumed) has structure:
each bank holds one *open row*, and an access either hits the open row
(cheap column access) or must precharge and activate a new one (expensive).
That makes off-chip energy sensitive to the very thing Section 4.1
manipulates -- the placement of arrays in memory -- so the model closes a
loop the paper opened: layout affects not only cache conflicts but also
row-buffer locality of the resulting miss stream.

:class:`DramModel` replays a line-fetch address stream against per-bank
open-row state and prices each fetch; :func:`miss_stream_energy` wraps the
common case (price the main-memory side of a cache's miss stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.cache.trace import MemoryTrace

__all__ = ["DramModel", "DramStats", "miss_stream_energy"]


@dataclass(frozen=True)
class DramStats:
    """Row-buffer behaviour and energy of one fetch stream."""

    fetches: int
    row_hits: int
    row_misses: int
    energy_nj: float

    @property
    def row_hit_rate(self) -> float:
        """Fraction of fetches served from an open row."""
        return self.row_hits / self.fetches if self.fetches else 0.0


class DramModel:
    """Open-page DRAM with per-bank row buffers.

    Parameters
    ----------
    row_bytes:
        Bytes per row (page); addresses in the same row and bank hit the
        open page.
    banks:
        Number of banks (rows interleave across banks by row index).
    row_hit_nj / row_miss_nj:
        Energy of a column access into an open row vs a full
        precharge+activate+access cycle.  Defaults keep the *average* cost
        near the paper's Cypress Em (4.95 nJ) so cache-side conclusions
        carry over: hits well under it, misses several times it.
    """

    def __init__(
        self,
        row_bytes: int = 512,
        banks: int = 4,
        row_hit_nj: float = 1.5,
        row_miss_nj: float = 12.0,
    ) -> None:
        if row_bytes <= 0 or banks <= 0:
            raise ValueError("row size and bank count must be positive")
        if row_hit_nj < 0 or row_miss_nj < row_hit_nj:
            raise ValueError("row-miss energy must be >= row-hit energy >= 0")
        self.row_bytes = row_bytes
        self.banks = banks
        self.row_hit_nj = row_hit_nj
        self.row_miss_nj = row_miss_nj

    def replay(self, addresses: Sequence[int]) -> DramStats:
        """Price a stream of byte addresses (one fetch per entry)."""
        open_rows: Dict[int, int] = {}
        hits = 0
        misses = 0
        for address in np.asarray(addresses, dtype=np.int64).tolist():
            row = address // self.row_bytes
            bank = row % self.banks
            if open_rows.get(bank) == row:
                hits += 1
            else:
                misses += 1
                open_rows[bank] = row
        energy = hits * self.row_hit_nj + misses * self.row_miss_nj
        return DramStats(
            fetches=hits + misses,
            row_hits=hits,
            row_misses=misses,
            energy_nj=energy,
        )


def miss_stream_energy(
    trace: MemoryTrace,
    cache_size: int,
    line_size: int,
    ways: int = 1,
    dram: "DramModel | None" = None,
) -> DramStats:
    """Price the main-memory side of a cache's miss stream.

    Simulates the cache (the LRU engine), extracts the missing accesses'
    addresses in order, and replays them against the DRAM model -- the
    off-chip energy a real system would pay for this trace and geometry.
    The miss vector is memoised in the engine's process-wide
    :class:`~repro.engine.cache.EvalCache`, so pricing several DRAM
    configurations over one trace simulates the cache once.
    """
    # Imported lazily: repro.engine pulls in the core/energy model stack,
    # and this module is imported during repro.energy's own initialisation.
    from repro.engine.backends import cached_miss_vector

    model = dram if dram is not None else DramModel()
    num_sets = (cache_size // line_size) // ways
    miss = cached_miss_vector(trace, line_size, num_sets, ways)
    miss_addresses = trace.addresses[miss]
    return model.replay(miss_addresses)
