"""Performance benchmark: the unified evaluation engine.

Times what :mod:`repro.engine` adds over the old per-explorer pipelines:

* the process-wide :class:`~repro.engine.cache.EvalCache` -- a warm sweep
  re-runs the full pipeline against memoised traces and miss vectors, so
  its throughput bounds the cost of everything *outside* simulation;
* the :class:`~repro.engine.parallel.ParallelSweep` executor -- serial
  versus ``jobs=2`` on the same sweep.  On a single-core machine the
  process fan-out is pure overhead; the recorded numbers state that
  honestly (the engine's value there is the transparent serial fallback
  and the unchanged results, which this bench asserts bit for bit);
* the one-pass grid backend -- a cold (sets, ways) grid sweep through
  ``onepass`` versus the serial per-config ``fastsim`` baseline, on a
  fixed trace so simulation (not trace generation) dominates.  Both run
  the same stack-filter engine, so the bench gates the grouping itself
  (one pass for the whole grid versus one simulation per configuration)
  and records the speedup; ``check_regression.py`` guards both timings;
* the paper's cold kernel sweep -- compress over its 568-configuration
  space through ``auto`` in a fresh cache, where layout placement
  dominates.  The bench asserts one placement per distinct (T, L) and
  appends its wall time as a ``(s)`` row that ``check_regression.py``
  guards.
"""

import os
import time

import numpy as np

from repro.cache.trace import MemoryTrace
from repro.core.config import CacheConfig
from repro.engine import (
    EvalCache,
    Evaluator,
    KernelWorkload,
    TraceWorkload,
)
from repro.kernels import get_kernel
from repro.obs.metrics import get_metrics

SWEEP = dict(max_size=256, min_size=16, ways=(1, 2, 4), tilings=(1, 2))


def test_perf_engine_sweep(benchmark, report):
    kernel = get_kernel("compress")

    def compare():
        cold_cache = EvalCache()
        evaluator = Evaluator(KernelWorkload(kernel), cache=cold_cache)

        t0 = time.perf_counter()
        cold = evaluator.sweep(**SWEEP)
        t_cold = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm = evaluator.sweep(**SWEEP)
        t_warm = time.perf_counter() - t0

        parallel_evaluator = Evaluator(
            KernelWorkload(kernel), cache=EvalCache()
        )
        t0 = time.perf_counter()
        par = parallel_evaluator.sweep(jobs=2, **SWEEP)
        t_parallel = time.perf_counter() - t0

        return cold, warm, par, t_cold, t_warm, t_parallel, cold_cache.stats()

    cold, warm, par, t_cold, t_warm, t_parallel, stats = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )

    # Hard requirements first: every path returns identical estimates.
    assert list(warm) == list(cold)
    assert list(par) == list(cold)

    n = len(list(cold))
    report(
        "perf_engine",
        f"Performance -- evaluation engine (compress sweep, {n} configs, "
        f"{os.cpu_count()} CPU(s))",
        ("path", "seconds", "configs/s"),
        [
            ("serial, cold cache", round(t_cold, 5), round(n / t_cold)),
            ("serial, warm cache", round(t_warm, 5), round(n / t_warm)),
            ("2 processes, cold", round(t_parallel, 5), round(n / t_parallel)),
        ],
    )
    # Append the cache behaviour to the same results file: both tables are
    # one story (the warm throughput IS the hit rate made visible).
    from conftest import RESULTS_DIR

    cache_lines = [
        "",
        "EvalCache behaviour over the cold+warm sweeps",
        "",
        f"{'store':>22}  {'hits':>6}  {'misses':>6}  {'hit rate':>8}",
        f"{'traces (T,L,B)':>22}  {stats.trace_hits:>6}  "
        f"{stats.trace_misses:>6}  {stats.trace_hit_rate:>8.4f}",
        f"{'miss vectors / Add_bs':>22}  {stats.miss_hits:>6}  "
        f"{stats.miss_misses:>6}  {stats.miss_hit_rate:>8.4f}",
    ]
    path = RESULTS_DIR / "perf_engine.txt"
    path.write_text(path.read_text() + "\n".join(cache_lines) + "\n")

    # The warm sweep must profit from the cache: every trace and miss
    # vector the second pass needed was already resident.
    assert stats.trace_hit_rate > 0.5
    assert stats.miss_hit_rate > 0.4
    assert t_warm < t_cold


# The one-pass grid: every (sets, ways) point of a fixed line size, on a
# fixed trace.  Sizes are chosen so each distinct set count serves the
# whole ways range -- the shape explore/serve grids have -- and the trace
# mixes a hot working set with a drifting scan so every associativity
# level stays populated.
ONEPASS_LINE = 8
ONEPASS_GRID = [
    CacheConfig(ONEPASS_LINE * ways * sets, ONEPASS_LINE, ways)
    for ways in (1, 2, 4, 8, 16)
    for sets in (16, 32, 64, 128, 256)
]


def _onepass_trace(n=60_000):
    rng = np.random.default_rng(19991231)
    hot = rng.integers(0, 1024, size=n)
    scan = np.cumsum(rng.integers(-2, 3, size=n)) % 4096
    lines = np.where(rng.random(n) < 0.5, hot, scan)
    return MemoryTrace(lines * ONEPASS_LINE, rng.random(n) < 0.3)


def test_perf_onepass_cold_sweep(benchmark, report):
    trace = _onepass_trace()
    counters = (
        "backend.fastsim.simulations",
        "onepass.passes",
        "onepass.set_counts",
        "onepass.configs_measured",
    )

    def counted(sweep):
        metrics = get_metrics()
        before = {name: metrics.counter(name).value for name in counters}
        t0 = time.perf_counter()
        result = sweep()
        elapsed = time.perf_counter() - t0
        delta = {
            name: metrics.counter(name).value - before[name]
            for name in counters
        }
        return result, elapsed, delta

    def compare():
        serial = Evaluator(
            TraceWorkload(trace), backend="fastsim", cache=EvalCache()
        )
        grouped = Evaluator(
            TraceWorkload(trace), backend="onepass", cache=EvalCache()
        )
        return (
            counted(lambda: serial.sweep(configs=ONEPASS_GRID)),
            counted(lambda: grouped.sweep(configs=ONEPASS_GRID)),
        )

    (baseline, t_serial, serial_work), (onepass, t_onepass, grouped_work) = (
        benchmark.pedantic(compare, rounds=1, iterations=1)
    )

    # Correctness before speed: the grid path is bit-identical.
    assert list(onepass) == list(baseline)

    n = len(ONEPASS_GRID)
    speedup = t_serial / t_onepass
    report(
        "perf_onepass",
        f"Performance -- one-pass grid backend (fixed {len(trace)}-access "
        f"trace, {n}-config (sets, ways) grid at L={ONEPASS_LINE})",
        ("path", "seconds", "configs/s"),
        [
            ("serial cold, fastsim", round(t_serial, 5), round(n / t_serial)),
            ("grouped cold, onepass", round(t_onepass, 5),
             round(n / t_onepass)),
        ],
    )
    from conftest import RESULTS_DIR

    path = RESULTS_DIR / "perf_onepass.txt"
    path.write_text(
        path.read_text()
        + f"\none-pass speedup over serial cold: {speedup:.1f}x"
        + " (CI gates the grouping: 1 pass for 25 configs)\n"
    )

    # The CI perf job's cold-sweep gate is the grouping mechanism itself:
    # the serial sweep simulates every configuration, the grouped sweep
    # prices the whole grid (5 set counts x 5 ways) in a single pass.
    assert serial_work["backend.fastsim.simulations"] == 25
    assert serial_work["onepass.passes"] == 0
    assert grouped_work == {
        "backend.fastsim.simulations": 0,
        "onepass.passes": 1,
        "onepass.set_counts": 5,
        "onepass.configs_measured": 25,
    }


#: The paper's cold path: one kernel's full MemExplore space.
COLD_KERNEL_SPACE = dict(max_size=1024, ways=(1, 2, 4, 8))
COLD_KERNEL_ROW = "compress-568 cold sweep, auto, fresh EvalCache (s)"


def test_perf_kernel_cold_sweep(benchmark):
    from repro.core.config import design_space

    configs = list(design_space(**COLD_KERNEL_SPACE))
    geometries = {(config.size, config.line_size) for config in configs}
    simulations = get_metrics().counter("layout.verify.simulations")

    def cold_sweep():
        cache = EvalCache()
        evaluator = Evaluator(
            KernelWorkload(get_kernel("compress")), backend="auto", cache=cache
        )
        before = simulations.value
        t0 = time.perf_counter()
        result = evaluator.sweep(configs=configs)
        elapsed = time.perf_counter() - t0
        return result, elapsed, simulations.value - before, cache.snapshot()

    result, elapsed, placed, snapshot = benchmark.pedantic(
        cold_sweep, rounds=1, iterations=1
    )

    # The gate is the count: each (nest, T, L) layout is placed (and
    # certified) once, however many tilings and ways share it.
    assert len(list(result)) == len(configs) == 568
    assert len(geometries) == 39
    assert placed == len(geometries)
    assert snapshot["layout"]["misses"] == len(geometries)

    # Rewrite this bench's row in place so a lone re-run does not stack
    # copies; test_perf_engine_sweep regenerates the rest of the file.
    from conftest import RESULTS_DIR

    path = RESULTS_DIR / "perf_engine.txt"
    kept = [
        line
        for line in path.read_text().splitlines()
        if not line.startswith(COLD_KERNEL_ROW)
    ]
    while kept and not kept[-1].strip():
        kept.pop()
    kept += ["", f"{COLD_KERNEL_ROW}   {elapsed:.4f}"]
    path.write_text("\n".join(kept) + "\n")
