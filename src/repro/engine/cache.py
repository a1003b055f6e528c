"""Process-wide, size-bounded memoisation for the evaluation engine.

Every exploration layer runs the same pipeline -- trace generation, miss
measurement, metric assembly -- and its two expensive stages are pure
functions of small keys:

* an address trace depends only on ``(workload, T, L, B)`` (the
  associativity sweep reuses it);
* a miss measurement depends only on ``(trace, line size, sets, ways)``
  and the measuring backend;
* a kernel's Section 4.1 padded layout depends only on ``(nest, T, L)``,
  so every tiling ``B`` of one geometry shares it.

:class:`EvalCache` memoises all three, each behind its own bounded LRU
store, so that repeated sweeps -- within one explorer, across explorers
sharing a kernel, or across CLI invocations in one process -- never
recompute.  The cache is deliberately dependency-free (numpy and
:mod:`repro.obs` only) so low-level call sites such as
:func:`repro.energy.dram.miss_stream_energy` can use it without import
cycles.

Each store also feeds the :mod:`repro.obs` metrics registry
(``evalcache.<store>.hits`` / ``.misses`` / ``.evictions``), and
:meth:`EvalCache.merge_remote` lets
:class:`~repro.engine.parallel.ParallelSweep` fold worker-side counter
deltas back in, so :meth:`EvalCache.stats` stays truthful after a
multi-process run.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional

from repro.obs.metrics import get_metrics

#: Bound on the ``layout`` store: an AssignmentResult is a few placements,
#: and a 1 KiB-to-64 KiB grid has well under a hundred (T, L) per nest.
_MAX_LAYOUTS = 1024

__all__ = ["CacheStats", "EvalCache", "configure_eval_cache", "get_eval_cache"]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of one :class:`EvalCache` store.

    After a parallel sweep the counts include merged worker activity (see
    :meth:`EvalCache.merge_remote`).
    """

    trace_hits: int
    trace_misses: int
    miss_hits: int
    miss_misses: int
    trace_evictions: int = 0
    miss_evictions: int = 0

    @property
    def trace_hit_rate(self) -> float:
        """Fraction of trace requests served from the cache."""
        total = self.trace_hits + self.trace_misses
        return self.trace_hits / total if total else 0.0

    @property
    def miss_hit_rate(self) -> float:
        """Fraction of miss-measurement requests served from the cache."""
        total = self.miss_hits + self.miss_misses
        return self.miss_hits / total if total else 0.0


class _LruStore:
    """A bounded, thread-safe LRU map with get-or-compute semantics.

    ``metric_prefix`` names the registry counters the store feeds
    (``<prefix>.hits`` etc.); instrument references are resolved once so
    the hot path pays one locked integer add per event.
    """

    def __init__(
        self, max_entries: int, metric_prefix: str = "evalcache"
    ) -> None:
        if max_entries <= 0:
            raise ValueError("cache capacity must be positive")
        self.max_entries = max_entries
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        metrics = get_metrics()
        self._hit_counter = metrics.counter(f"{metric_prefix}.hits")
        self._miss_counter = metrics.counter(f"{metric_prefix}.misses")
        self._eviction_counter = metrics.counter(f"{metric_prefix}.evictions")

    def get_or_compute(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """One-key :meth:`get_or_compute_many` (same counters, same races)."""
        return self.get_or_compute_many([key], lambda _: {key: builder()})[key]

    def get_or_compute_many(
        self,
        keys: "list[Hashable]",
        builder: Callable[["list[Hashable]"], Dict[Hashable, Any]],
    ) -> Dict[Hashable, Any]:
        """Batch get-or-compute: ``builder`` sees only the missing keys.

        Lets a builder amortise work across misses (the one-pass grid
        backend).  Hit/miss/eviction accounting is per key.  The builder
        runs outside the lock -- builders can be slow (trace generation,
        reference simulation) and must not serialise unrelated lookups --
        and races resolve first-writer-wins, with late duplicates counted
        as hits.
        """
        results: Dict[Hashable, Any] = {}
        missing: "list[Hashable]" = []
        with self._lock:
            for key in keys:
                if key in results or key in missing:
                    continue
                if key in self._data:
                    self.hits += 1
                    self._data.move_to_end(key)
                    results[key] = self._data[key]
                    self._hit_counter.inc()
                else:
                    missing.append(key)
        if not missing:
            return results
        computed = builder(missing)
        hit_late = 0
        fresh = 0
        evicted = 0
        with self._lock:
            for key in missing:
                if key in self._data:
                    self.hits += 1  # someone else computed it meanwhile
                    self._data.move_to_end(key)
                    results[key] = self._data[key]
                    hit_late += 1
                    continue
                self.misses += 1
                self._data[key] = computed[key]
                results[key] = computed[key]
                fresh += 1
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        if hit_late:
            self._hit_counter.inc(hit_late)
        if fresh:
            self._miss_counter.inc(fresh)
        if evicted:
            self._eviction_counter.inc(evicted)
        return results

    def counters(self) -> Dict[str, int]:
        """Consistent copy of the raw counters (no remote contributions)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._data),
            }

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)


class EvalCache:
    """Three-store evaluation cache: traces, layouts and miss measurements.

    Parameters
    ----------
    max_traces:
        Bound on retained traces.  Traces are the large objects (one numpy
        row per access), so the bound is small by default.
    max_miss_entries:
        Bound on retained miss measurements (small records) and DRAM
        miss-stream vectors (one bool per access).

    The ``layout`` store holds at most :data:`_MAX_LAYOUTS` kernel layouts
    (one small :class:`~repro.layout.assignment.AssignmentResult` per
    ``(nest, T, L)``).
    """

    _STORES = ("trace", "miss", "layout")

    def __init__(
        self,
        max_traces: int = 64,
        max_miss_entries: int = 1024,
    ) -> None:
        bounds = {
            "trace": max_traces,
            "miss": max_miss_entries,
            "layout": _MAX_LAYOUTS,
        }
        self._stores = {
            store: _LruStore(bounds[store], metric_prefix=f"evalcache.{store}")
            for store in self._STORES
        }
        # Worker-side counter deltas merged in by ParallelSweep; guarded by
        # its own lock because merges race with snapshot() readers.
        self._remote_lock = threading.Lock()
        self._remote: Dict[str, Dict[str, int]] = {
            store: {"hits": 0, "misses": 0, "evictions": 0}
            for store in self._STORES
        }

    def trace(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """The trace bundle for ``key``, computing it on first use."""
        return self._stores["trace"].get_or_compute(key, builder)

    def layout(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """The kernel layout for ``key``, computing it on first use."""
        return self._stores["layout"].get_or_compute(key, builder)

    def miss(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """The miss measurement for ``key``, computing it on first use."""
        return self._stores["miss"].get_or_compute(key, builder)

    def miss_many(
        self,
        keys: "list[Hashable]",
        builder: Callable[["list[Hashable]"], Dict[Hashable, Any]],
    ) -> Dict[Hashable, Any]:
        """Batch miss-measurement lookup; ``builder(missing)`` fills holes.

        Lets a grid-capable backend measure all cold keys of a sweep
        group in one pass while warm keys still count as cache hits --
        the counter semantics match ``len(keys)`` :meth:`miss` calls.
        """
        return self._stores["miss"].get_or_compute_many(keys, builder)

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Raw per-store counters of **this process only**.

        The baseline/delta primitive :class:`~repro.engine.parallel.ParallelSweep`
        workers use; remote contributions are deliberately excluded so a
        worker forked from an already-merged parent cannot re-export them.
        """
        return {store: lru.counters() for store, lru in self._stores.items()}

    def merge_remote(self, delta: Dict[str, Dict[str, int]]) -> None:
        """Fold a worker's counter delta (``counters`` diff) into this cache.

        The delta is validated before anything is accumulated: a worker
        payload that survived the executor's structural checks but still
        carries garbage here (the fault-injection harness's corrupt-payload
        mode, or a genuinely mangled pickle) must not poison the stats.
        ``ValueError`` is raised *before* any mutation, so a rejected merge
        leaves the counters untouched.
        """
        if not isinstance(delta, dict):
            raise ValueError("cache delta must be a dict of per-store dicts")
        for store in self._STORES:
            row = delta.get(store, {})
            if not isinstance(row, dict) or any(
                isinstance(value, bool) or not isinstance(value, int)
                for value in row.values()
            ):
                raise ValueError(
                    f"cache delta for store {store!r} is malformed"
                )
        with self._remote_lock:
            for store in self._STORES:
                accumulated = self._remote[store]
                for field, value in delta.get(store, {}).items():
                    if field in accumulated:
                        accumulated[field] += value

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Consistent, JSON-compatible view including merged worker counts.

        Safe to call concurrently from any thread or from ParallelSweep
        workers: every store is read under its lock and the result is a
        plain dict detached from live state.
        """
        local = self.counters()
        with self._remote_lock:
            remote = {store: dict(self._remote[store]) for store in self._STORES}
        combined: Dict[str, Dict[str, Any]] = {}
        for store in self._STORES:
            row: Dict[str, Any] = dict(local[store])
            for field, value in remote[store].items():
                row[field] += value
            total = row["hits"] + row["misses"]
            row["hit_rate"] = row["hits"] / total if total else 0.0
            combined[store] = row
        return combined

    def stats(self) -> CacheStats:
        """Current counters (including merged worker activity)."""
        view = self.snapshot()
        return CacheStats(
            trace_hits=view["trace"]["hits"],
            trace_misses=view["trace"]["misses"],
            miss_hits=view["miss"]["hits"],
            miss_misses=view["miss"]["misses"],
            trace_evictions=view["trace"]["evictions"],
            miss_evictions=view["miss"]["evictions"],
        )

    def clear(self) -> None:
        """Drop all entries and zero the counters (local and remote)."""
        for lru in self._stores.values():
            lru.clear()
        with self._remote_lock:
            for store in self._STORES:
                for field in self._remote[store]:
                    self._remote[store][field] = 0

    @property
    def trace_entries(self) -> int:
        """Number of traces currently retained."""
        return len(self._stores["trace"])

    @property
    def miss_entries(self) -> int:
        """Number of miss measurements currently retained."""
        return len(self._stores["miss"])


_global_cache = EvalCache()
_global_lock = threading.Lock()


def get_eval_cache() -> EvalCache:
    """The process-wide cache shared by every engine consumer."""
    return _global_cache


def configure_eval_cache(
    max_traces: Optional[int] = None, max_miss_entries: Optional[int] = None
) -> EvalCache:
    """Replace the process-wide cache with a freshly sized one."""
    global _global_cache
    with _global_lock:
        _global_cache = EvalCache(
            max_traces=max_traces if max_traces is not None else 64,
            max_miss_entries=(
                max_miss_entries if max_miss_entries is not None else 1024
            ),
        )
        return _global_cache
