"""The evaluation engine: workloads, backends, memoisation, parallelism.

The load-bearing claims:

* every vector backend agrees with the reference simulator *bit for bit*
  on arbitrary traces and geometries (hypothesis property);
* the process-wide :class:`EvalCache` is bounded, thread-safe, and
  actually hit by the sweep pipeline;
* ``sweep(jobs=N)`` returns results identical to the serial sweep, in the
  same order (the ISSUE's hard determinism requirement);
* the legacy explorer surfaces are thin shims over one shared pipeline.
"""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.trace import MemoryTrace
from repro.core.analytic import AnalyticExplorer
from repro.core.config import CacheConfig
from repro.core.explorer import MemExplorer, evaluate_trace
from repro.engine import (
    EvalCache,
    Evaluator,
    InstructionWorkload,
    KernelWorkload,
    ParallelSweep,
    TraceWorkload,
    available_backends,
    cached_miss_vector,
    configure_eval_cache,
    get_backend,
    get_eval_cache,
    order_configs,
    trace_fingerprint,
)
from repro.engine.backends import (
    AnalyticBackend,
    FastSimBackend,
    OnePassBackend,
    ReferenceBackend,
    SampledBackend,
)
from repro.icache.blocks import ControlFlowTrace, Program
from repro.kernels import get_kernel


def _loop_execution() -> ControlFlowTrace:
    program = Program.sequential([("prologue", 8), ("body", 16)])
    return ControlFlowTrace.loop(
        program, body=["body"], iterations=20, prologue=["prologue"]
    )


GEOMETRIES = [
    CacheConfig(32, 4, 1),
    CacheConfig(64, 4, 2),
    CacheConfig(64, 8, 1),
    CacheConfig(128, 8, 4),
    CacheConfig(128, 16, 2),
    CacheConfig(256, 16, 8),
]


@st.composite
def traces(draw):
    n = draw(st.integers(1, 200))
    addresses = draw(
        st.lists(st.integers(0, 2047), min_size=n, max_size=n)
    )
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return MemoryTrace(addresses, writes)


class TestBackendRegistry:
    def test_names(self):
        assert available_backends() == (
            "analytic", "auto", "fastsim", "onepass", "reference", "sampled"
        )

    def test_get_by_name(self):
        assert isinstance(get_backend("fastsim"), FastSimBackend)
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("sampled"), SampledBackend)
        assert isinstance(get_backend("analytic"), AnalyticBackend)
        assert isinstance(get_backend("onepass"), OnePassBackend)
        # "auto" resolves to the concrete one-pass backend at creation,
        # so fingerprints and store rows always see the name "onepass".
        auto = get_backend("auto")
        assert isinstance(auto, OnePassBackend)
        assert auto.name == "onepass"

    def test_default_and_passthrough(self):
        assert isinstance(get_backend(None), FastSimBackend)
        instance = SampledBackend(sample_every=2)
        assert get_backend(instance) is instance

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("dinero")

    def test_backend_kwargs(self):
        backend = get_backend("sampled", sample_every=8, offset=3)
        assert backend.params == (8, 3)

    def test_analytic_rejects_raw_traces(self):
        trace = MemoryTrace([0, 4, 8])
        with pytest.raises(ValueError, match="loop nest"):
            AnalyticBackend().measure(trace, CacheConfig(64, 8))


class TestCrossBackendEquivalence:
    """fastsim and the reference simulator must agree bit for bit."""

    @given(trace=traces(), config=st.sampled_from(GEOMETRIES))
    @settings(max_examples=80, deadline=None)
    def test_miss_vectors_identical(self, trace, config):
        fast = FastSimBackend().miss_vector(trace, config)
        reference = ReferenceBackend().miss_vector(trace, config)
        assert np.array_equal(fast, reference)

    @given(trace=traces(), config=st.sampled_from(GEOMETRIES))
    @settings(max_examples=40, deadline=None)
    def test_measurements_identical(self, trace, config):
        fast = FastSimBackend().measure(trace, config)
        reference = ReferenceBackend().measure(trace, config)
        assert fast == reference
        assert fast.exact and fast.misses is not None

    @given(trace=traces(), config=st.sampled_from(GEOMETRIES))
    @settings(max_examples=40, deadline=None)
    def test_stride_one_sampling_is_exact(self, trace, config):
        exact = FastSimBackend().measure(trace, config)
        sampled = SampledBackend(sample_every=1).measure(trace, config)
        assert sampled.exact
        assert sampled.miss_rate == pytest.approx(exact.miss_rate)

    def test_sampled_estimate_is_bounded(self):
        trace = MemoryTrace(np.arange(0, 4096, 4))
        config = CacheConfig(256, 16, 1)
        estimate = SampledBackend(sample_every=4).measure(trace, config)
        assert 0.0 <= estimate.miss_rate <= 1.0
        assert not estimate.exact and estimate.misses is None


class TestEvalCache:
    def test_get_or_compute_runs_builder_once(self):
        cache = EvalCache()
        calls = []
        for _ in range(3):
            value = cache.miss("k", lambda: calls.append(1) or 42)
        assert value == 42 and len(calls) == 1
        stats = cache.stats()
        assert stats.miss_misses == 1 and stats.miss_hits == 2
        assert stats.miss_hit_rate == pytest.approx(2 / 3)

    def test_trace_store_is_bounded(self):
        cache = EvalCache(max_traces=2)
        for key in ("a", "b", "c"):
            cache.trace(key, lambda k=key: k.upper())
        assert cache.trace_entries == 2
        # "a" was evicted: rebuilding it is a miss, not a hit.
        before = cache.stats().trace_misses
        cache.trace("a", lambda: "A")
        assert cache.stats().trace_misses == before + 1

    def test_clear_resets_entries_and_counters(self):
        cache = EvalCache()
        cache.miss("k", lambda: 1)
        cache.clear()
        assert cache.miss_entries == 0
        stats = cache.stats()
        assert (stats.miss_hits, stats.miss_misses) == (0, 0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EvalCache(max_traces=0)

    def test_configure_replaces_global(self):
        original = get_eval_cache()
        try:
            replaced = configure_eval_cache(max_traces=8, max_miss_entries=16)
            assert get_eval_cache() is replaced
            assert replaced is not original
        finally:
            configure_eval_cache()

    def test_sweep_hits_the_cache(self):
        cache = EvalCache()
        evaluator = Evaluator(
            KernelWorkload(get_kernel("compress")), cache=cache
        )
        evaluator.sweep(max_size=64, min_size=32, ways=(1, 2), tilings=(1,))
        stats = cache.stats()
        # The associativity sweep reuses each (T, L, B) trace.
        assert stats.trace_hits > 0
        # Add_bs depends only on the trace, so the ways sweep hits it too.
        assert stats.miss_hits > 0

    def test_cached_miss_vector_memoises(self):
        cache = EvalCache()
        trace = MemoryTrace([0, 8, 16, 0, 8, 16])
        first = cached_miss_vector(trace, 8, 4, 1, cache=cache)
        second = cached_miss_vector(trace, 8, 4, 1, cache=cache)
        assert first is second
        assert cache.stats().miss_hits == 1


def _cold_compress_sweep(jobs=1):
    """The paper's cold compress sweep in a fresh cache: (estimates,
    layout-store row, certificate simulations made)."""
    from repro.obs.metrics import get_metrics

    simulations = get_metrics().counter("layout.verify.simulations")
    before = simulations.value
    cache = EvalCache()
    estimates = Evaluator(
        KernelWorkload(get_kernel("compress")), cache=cache
    ).sweep(max_size=1024, ways=(1, 2, 4, 8), jobs=jobs)
    return (
        list(estimates),
        cache.snapshot()["layout"],
        simulations.value - before,
    )


class TestLayoutStore:
    """Each (nest, T, L) layout is placed once per EvalCache.

    The 568-config compress sweep has 157 (T, L, B) traces over 39
    distinct (T, L) geometries: 39 placements (one certificate
    simulation each) and 118 layout-store hits.
    """

    def test_cold_sweep_places_each_geometry_once(self):
        for _ in range(2):  # a second fresh cache starts cold again
            estimates, row, simulations = _cold_compress_sweep()
            assert len(estimates) == 568
            assert simulations == 39
            assert (row["misses"], row["hits"]) == (39, 118)
            assert row["entries"] == 39

    def test_parallel_sweep_merges_layout_counters(self):
        serial, _, _ = _cold_compress_sweep()
        parallel, row, _ = _cold_compress_sweep(jobs=2)
        assert parallel == serial
        assert row["hits"] + row["misses"] == 157

    def test_key_is_the_nest_not_the_invocations(self):
        cache = EvalCache()
        config = CacheConfig(64, 8)
        kernel = get_kernel("compress")
        for invocations in (1, 7):
            KernelWorkload(kernel.with_invocations(invocations)).trace_for(
                config, cache
            )
        row = cache.snapshot()["layout"]
        assert (row["misses"], row["hits"]) == (1, 1)

    def test_memoised_trace_matches_uncached(self):
        kernel = get_kernel("pde")
        config = CacheConfig(128, 8, tiling=2)
        cached = KernelWorkload(kernel).trace_for(config, EvalCache())
        assignment = kernel.optimized_layout(128, 8)
        fresh = kernel.trace(layout=assignment.layout, tile=2)
        assert np.array_equal(cached.trace.addresses, fresh.addresses)
        assert cached.conflict_free == assignment.conflict_free


class TestCachedHash:
    def test_hash_cached_but_not_pickled(self):
        import pickle

        kernel = get_kernel("compress")
        expected = hash(kernel)
        assert "_hash" in kernel.__dict__ and "_hash" in kernel.nest.__dict__
        clone = pickle.loads(pickle.dumps(kernel))
        assert "_hash" not in clone.__dict__
        assert "_hash" not in clone.nest.__dict__
        assert clone == kernel and hash(clone) == expected

    def test_equality_stays_field_based(self):
        kernel = get_kernel("compress")
        hash(kernel)
        other = kernel.with_invocations(2)
        assert other != kernel
        assert other.with_invocations(1) == kernel
        assert hash(other.with_invocations(1)) == hash(kernel)


class TestWorkloads:
    def test_kernel_workloads_share_keys(self):
        a = KernelWorkload(get_kernel("compress"))
        b = KernelWorkload(get_kernel("compress"))
        config = CacheConfig(64, 8)
        assert a.trace_key(config) == b.trace_key(config)
        assert a.trace_key(config) != KernelWorkload(
            get_kernel("compress"), optimize_layout=False
        ).trace_key(config)

    def test_kernel_trace_key_ignores_ways(self):
        workload = KernelWorkload(get_kernel("compress"))
        assert workload.trace_key(CacheConfig(64, 8, 1)) == workload.trace_key(
            CacheConfig(64, 8, 2)
        )

    def test_instruction_workload_rejects_tiling(self):
        workload = InstructionWorkload(_loop_execution())
        with pytest.raises(ValueError, match="tiling"):
            workload.validate(CacheConfig(64, 8, 1, 2))

    def test_trace_workload_is_content_addressed(self):
        t1 = MemoryTrace([0, 4, 8])
        t2 = MemoryTrace([0, 4, 8])
        t3 = MemoryTrace([0, 4, 12])
        assert TraceWorkload(t1).key == TraceWorkload(t2).key
        assert TraceWorkload(t1).key != TraceWorkload(t3).key
        assert trace_fingerprint(t1) != trace_fingerprint(t3)

    def test_fingerprint_sees_write_flags(self):
        reads = MemoryTrace([0, 4], [False, False])
        writes = MemoryTrace([0, 4], [False, True])
        assert trace_fingerprint(reads) != trace_fingerprint(writes)


class TestEvaluator:
    def test_matches_legacy_explorer(self):
        kernel = get_kernel("compress")
        evaluator = Evaluator(KernelWorkload(kernel), cache=EvalCache())
        explorer = MemExplorer(kernel)
        for config in (
            CacheConfig(32, 4), CacheConfig(64, 8, 2), CacheConfig(128, 8, 1, 2)
        ):
            assert evaluator.evaluate(config) == explorer.evaluate(config)

    def test_trace_workload_matches_evaluate_trace(self):
        kernel = get_kernel("compress")
        trace = kernel.trace(layout=kernel.default_layout())
        config = CacheConfig(64, 8)
        evaluator = Evaluator(
            TraceWorkload(trace, events=kernel.nest.iterations),
            cache=EvalCache(),
        )
        direct = evaluate_trace(trace, config, events=kernel.nest.iterations)
        assert evaluator.evaluate(config) == direct

    def test_analytic_backend_routes_to_closed_form(self):
        kernel = get_kernel("compress")
        evaluator = Evaluator(KernelWorkload(kernel), backend="analytic")
        config = CacheConfig(64, 8)
        expected = AnalyticExplorer(kernel).evaluate(config)
        assert evaluator.evaluate(config) == expected

    def test_analytic_backend_needs_a_kernel(self):
        workload = TraceWorkload(MemoryTrace([0, 4, 8]))
        evaluator = Evaluator(workload, backend="analytic")
        with pytest.raises(ValueError, match="kernel"):
            evaluator.evaluate(CacheConfig(64, 8))

    def test_reference_backend_agrees_on_a_kernel(self):
        kernel = get_kernel("matadd")
        config = CacheConfig(64, 8, 2)
        fast = Evaluator(
            KernelWorkload(kernel), backend="fastsim", cache=EvalCache()
        ).evaluate(config)
        slow = Evaluator(
            KernelWorkload(kernel), backend="reference", cache=EvalCache()
        ).evaluate(config)
        assert fast == slow

    def test_pickle_drops_local_cache(self):
        import pickle

        evaluator = Evaluator(
            KernelWorkload(get_kernel("compress")), cache=EvalCache()
        )
        clone = pickle.loads(pickle.dumps(evaluator))
        assert clone._cache is None  # rebinds to the worker's global cache
        config = CacheConfig(64, 8)
        assert clone.evaluate(config) == evaluator.evaluate(config)


class TestParallelSweep:
    def test_parallel_identical_to_serial(self):
        kernel = get_kernel("compress")
        evaluator = Evaluator(KernelWorkload(kernel), cache=EvalCache())
        serial = evaluator.sweep(
            max_size=128, min_size=16, ways=(1, 2), tilings=(1, 2)
        )
        parallel = evaluator.sweep(
            max_size=128, min_size=16, ways=(1, 2), tilings=(1, 2), jobs=2
        )
        assert list(parallel) == list(serial)

    def test_explorer_jobs_identical_to_serial(self):
        explorer = MemExplorer(get_kernel("matadd"))
        serial = explorer.explore(max_size=64, min_size=32, tilings=(1,))
        parallel = explorer.explore(
            max_size=64, min_size=32, tilings=(1,), jobs=2
        )
        assert list(parallel) == list(serial)

    def test_chunks_respect_trace_groups(self):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = order_configs(
            CacheConfig(size, line, ways)
            for size in (32, 64)
            for line in (4, 8)
            for ways in (1, 2)
        )
        sweep = ParallelSweep(jobs=2)
        chunks = sweep._chunks(evaluator, configs)
        seen = {}
        for chunk_index, chunk in enumerate(chunks):
            for _, config in chunk:
                key = evaluator.workload.trace_key(config)
                assert seen.setdefault(key, chunk_index) == chunk_index
        assert [c for chunk in chunks for _, c in chunk] == configs

    def test_jobs_one_is_serial(self):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = [CacheConfig(32, 4), CacheConfig(64, 4)]
        estimates = ParallelSweep(jobs=1).run(evaluator, configs)
        assert [e.config for e in estimates] == configs


class TestLegacyShims:
    """MemExplorer stays a thin facade over the engine evaluator."""

    def test_explorer_exposes_engine_evaluator(self):
        explorer = MemExplorer(get_kernel("compress"), backend="sampled")
        assert isinstance(explorer.evaluator, Evaluator)
        assert explorer.backend.name == "sampled"


class TestCliFlags:
    def test_backend_and_jobs_accepted(self, capsys):
        from repro.cli import main

        main([
            "explore", "compress", "--max-size", "32", "--min-size", "32",
            "--tilings", "1", "--backend", "reference", "--jobs", "2",
        ])
        out = capsys.readouterr().out
        assert "C32L4S1B1" in out

    def test_unknown_backend_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "x", "--backend", "dinero"])
