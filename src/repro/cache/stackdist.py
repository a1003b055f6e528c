"""The LRU engine: one-pass, all-configuration simulation (vectorized Mattson).

Mattson's stack-distance pass prices every *capacity* of a
fully-associative LRU cache at once; this module generalises the trick
to the set-associative, bit-selected caches of the MemExplore space.  With
``set = line mod S`` a line's set never changes, so the LRU state of each
set is the global recency order restricted to that set, and an access hits
an ``(S, W)`` cache iff its *set-local* stack distance is at most ``W``.
One pass per set count therefore yields exact miss counts for every
associativity at once, and a whole ``(sets, ways)`` grid costs one pass
per distinct set count instead of one simulation per configuration;
direct-mapped falls out as ``W = 1``.

Two vectorized passes live here (no Python loop over accesses):

* the *stack filter* behind :func:`grid_miss_counts` (the sweep
  workhorse) and :func:`lru_miss_vector` (one geometry's per-access
  miss flags).  Accesses are stably grouped by set index (segments
  stay in time order), then the filter peels one LRU depth per level:
  at level ``k`` every event carries the value it pushes (``P``, the
  top it demoted at level ``k-1``; at the base level its own line) and
  the line it looks for (``Q``).  Because segments are contiguous the
  current top is simply the previous event's push, so each level is
  one shift-and-compare; ``Q == P[t-1]`` means the line sat at depth
  exactly ``k`` and the event drops out, everything else survives with
  ``P`` replaced by the demoted top.  Values from different segments
  differ mod ``S`` and can never compare equal, so no boundary
  bookkeeping is needed.  ``cap`` levels (the largest requested ways)
  over shrinking arrays price the whole associativity range; events
  still unresolved miss everywhere.
  The filter yields the accesses each level resolves, so histograms
  and miss flags both come out of the same loop.
* :func:`set_local_distances` -- exact, uncapped distances.  ``prev``
  occurrences come from one stable sort on line id, and the distance of
  a warm access at grouped position ``t`` is ``c(t) - prev(t)`` where
  ``c(t) = #{s < t : prev(s) <= prev(t)}``, an inversion-style count
  computed by top-down merge counting, O(n log^2 n) inside numpy.

Histograms of either answer every ways value in O(1).  Bit-exact with
the reference simulator, :mod:`repro.cache.simulator` (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

__all__ = [
    "COLD",
    "GridCounts",
    "grid_miss_counts",
    "lru_miss_vector",
    "set_local_distances",
]

#: Stack distance reported for a line's first touch (a compulsory miss).
COLD = -1


@dataclass(frozen=True)
class GridCounts:
    """Exact miss behaviour of one ``(num_sets, ways)`` grid point."""

    accesses: int
    reads: int
    misses: int
    read_misses: int


# Below this block width the level loop hands over to one broadcasted
# triangular comparison; the narrow levels are overhead-bound otherwise.
_BOTTOM_WIDTH = 16


def _count_preceding_leq(values: np.ndarray) -> np.ndarray:
    """For every position ``t``: ``#{s < t : values[s] <= values[t]}``.

    Top-down merge-sort counting: one global stable argsort, then one
    cheap O(n) pass per level.  The layout invariant is "original
    positions, grouped by width-``w`` block of the *original* index,
    sorted by value within each block"; splitting a block into its halves
    is a stable partition (a cumsum), and while splitting, every
    right-half element reads off the number of left-half elements ``<=``
    itself as its rank among the lefts.  Each (s, t) pair is counted
    exactly once, at the level where the two positions last share a
    block; pairs inside the narrowest blocks are finished off with one
    broadcasted triangular comparison.
    """
    n = int(values.size)
    counts = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return counts
    width = 1
    while width < n:
        width *= 2
    if width > _BOTTOM_WIDTH:
        # Layout: original positions in global value order (stable, so
        # equal values keep time order and "<=" ties resolve correctly).
        pos = np.argsort(values, kind="stable").astype(np.int64)
        slots = np.arange(n, dtype=np.int64)
        scratch = np.empty(n, dtype=np.int64)
        while width > _BOTTOM_WIDTH:
            half = width >> 1
            right = (pos & half) != 0
            block_start = pos & ~(width - 1)
            rank = slots - block_start
            # Right-half elements strictly before each layout slot.
            before = np.empty(n, dtype=np.int64)
            before[0] = 0
            np.cumsum(right[:-1], out=before[1:])
            rights_before = before - before[block_start]
            lefts_before = rank - rights_before
            counts[pos[right]] += lefts_before[right]
            # Stable partition into the two half-blocks (the last block
            # may be short; its left half then holds whatever remains).
            left_count = np.minimum(half, n - block_start)
            new_slot = block_start + np.where(
                right, left_count + rights_before, lefts_before
            )
            scratch[new_slot] = pos
            pos, scratch = scratch, pos
            width = half
    # Remaining pairs live inside width-sized blocks of original
    # positions: one triangular broadcast finishes them.
    blocks = (n + width - 1) // width
    padded = np.full(blocks * width, np.iinfo(np.int64).max, dtype=np.int64)
    padded[:n] = values
    tiles = padded.reshape(blocks, width)
    leq = tiles[:, None, :] <= tiles[:, :, None]
    strictly_before = np.tril(np.ones((width, width), dtype=bool), k=-1)
    counts += (leq & strictly_before).sum(axis=2).ravel()[:n]
    return counts


def set_local_distances(line_ids: np.ndarray, num_sets: int) -> np.ndarray:
    """Per-access LRU stack distance *within each access's set*.

    ``COLD`` marks first touches.  An access with distance ``d`` hits
    every ``num_sets``-set LRU cache with at least ``d`` ways;
    ``num_sets = 1`` gives the classic fully-associative stack distance
    (:func:`repro.cache.distance.stack_distances`).
    """
    if num_sets < 1:
        raise ValueError("num_sets must be positive")
    line_ids = np.asarray(line_ids, dtype=np.int64)
    n = line_ids.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    set_ids = line_ids % num_sets
    order = np.argsort(set_ids, kind="stable")
    grouped_lines = line_ids[order]
    grouped_sets = set_ids[order]
    positions = np.arange(n, dtype=np.int64)
    is_start = np.ones(n, dtype=bool)
    is_start[1:] = grouped_sets[1:] != grouped_sets[:-1]
    seg_start = np.maximum.accumulate(np.where(is_start, positions, 0))
    # Previous occurrence of the same line, as a grouped position.  A
    # line's set is fixed, so "same line" already implies "same segment".
    by_line = np.argsort(grouped_lines, kind="stable")
    prev = np.full(n, -1, dtype=np.int64)
    same = grouped_lines[by_line[1:]] == grouped_lines[by_line[:-1]]
    prev[by_line[1:][same]] = by_line[:-1][same]
    cold = prev < 0
    prev[cold] = seg_start[cold] - 1
    distances = _count_preceding_leq(prev) - prev
    distances[cold] = COLD
    out = np.empty(n, dtype=np.int64)
    out[order] = distances
    return out


def _stack_filter(
    line_ids: np.ndarray, num_sets: int, cap: int, payload: np.ndarray
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(depth, payload of the accesses hitting at that depth)``.

    ``payload`` carries one value per access (read flags, positions);
    accesses never yielded are cold or deeper than ``cap``.  The stack
    filter: group by set, then per level shift-and-compare.  Every event
    pushes its ``P`` (own line at the base level, the demoted top
    afterwards), so the top seen by event ``t`` is ``P[t-1]``; a match
    resolves the event at depth ``k``, everything else survives to the
    next level carrying the demoted top.  Pushes that cross a segment
    boundary (or the ``-1`` start sentinel) differ mod ``num_sets`` from
    every query in the segment, so they behave as an empty stack and
    simply produce the misses they should.
    """
    if num_sets == 1:
        queries = line_ids
    else:
        order = np.argsort(line_ids % num_sets, kind="stable")
        queries = line_ids[order]
        payload = payload[order]
    pushes = queries
    for depth in range(1, cap + 1):
        if queries.size == 0:
            return
        top = np.empty_like(pushes)
        top[0] = -1
        top[1:] = pushes[:-1]
        hit = queries == top
        if depth == cap:  # the last level: no survivors to carry on
            yield depth, payload[hit]
        elif hit.any():
            yield depth, payload[hit]
            survive = ~hit
            queries = queries[survive]
            pushes = top[survive]
            payload = payload[survive]
        else:
            pushes = top


def lru_miss_vector(
    line_ids: np.ndarray, num_sets: int, ways: int
) -> np.ndarray:
    """Per-access miss flags of a ``num_sets`` x ``ways`` LRU cache.

    ``line_ids`` is the global line-number stream
    (:meth:`repro.cache.trace.MemoryTrace.line_ids`); the stack filter
    runs ``ways`` levels deep, so the cost grows with the associativity
    asked for, not with the trace's reuse distances.
    """
    if num_sets <= 0 or ways <= 0:
        raise ValueError("geometry parameters must be positive")
    line_ids = np.asarray(line_ids, dtype=np.int64)
    miss = np.ones(line_ids.size, dtype=bool)
    positions = np.arange(line_ids.size)
    for _, hits in _stack_filter(line_ids, num_sets, ways, positions):
        miss[hits] = False
    return miss


def grid_miss_counts(
    line_ids: np.ndarray,
    is_write: np.ndarray,
    points: Iterable[Tuple[int, int]],
) -> Dict[Tuple[int, int], GridCounts]:
    """Exact miss counts for every requested ``(num_sets, ways)`` point.

    One stack-filter pass per *distinct set count* prices every
    associativity at that set count: an access misses ``(S, W)`` iff its
    set-local stack depth exceeds ``W`` (cold accesses never resolve and
    miss everywhere).
    """
    line_ids = np.asarray(line_ids, dtype=np.int64)
    is_write = np.asarray(is_write, dtype=bool)
    if line_ids.shape != is_write.shape:
        raise ValueError("line_ids and is_write must have the same length")
    by_sets: Dict[int, List[int]] = {}
    for num_sets, ways in points:
        num_sets, ways = int(num_sets), int(ways)
        if num_sets < 1 or ways < 1:
            raise ValueError("grid points need positive sets and ways")
        by_sets.setdefault(num_sets, []).append(ways)
    n = int(line_ids.size)
    read_mask = ~is_write
    reads = int(read_mask.sum())
    results: Dict[Tuple[int, int], GridCounts] = {}
    for num_sets in sorted(by_sets):
        ways_list = sorted(set(by_sets[num_sets]))
        if n == 0:
            for ways in ways_list:
                results[(num_sets, ways)] = GridCounts(0, 0, 0, 0)
            continue
        cap = ways_list[-1]
        hits_all = np.zeros(cap + 1, dtype=np.int64)
        hits_read = np.zeros(cap + 1, dtype=np.int64)
        for depth, hit_reads in _stack_filter(
            line_ids, num_sets, cap, read_mask
        ):
            hits_all[depth] = hit_reads.size
            hits_read[depth] = np.count_nonzero(hit_reads)
        cum_all = np.cumsum(hits_all)
        cum_read = np.cumsum(hits_read)
        for ways in ways_list:
            results[(num_sets, ways)] = GridCounts(
                accesses=n,
                reads=reads,
                misses=n - int(cum_all[ways]),
                read_misses=reads - int(cum_read[ways]),
            )
    return results
