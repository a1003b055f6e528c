"""Tests for the Section 5 composite-program model."""

import pytest

from repro.core.composite import CompositeProgram
from repro.core.config import CacheConfig, design_space
from repro.core.explorer import MemExplorer
from repro.engine import cache as eval_cache
from repro.engine.cache import EvalCache
from repro.kernels import make_compress, make_matadd
from repro.obs.metrics import get_metrics


def _two_kernels(backend):
    return CompositeProgram(
        [
            make_compress(n=7).with_invocations(3),
            make_matadd(n=6).with_invocations(5),
        ],
        backend=backend,
    )


@pytest.fixture
def program():
    return _two_kernels("fastsim")


class TestAggregation:
    def test_paper_formulas_exact(self, program):
        """MISS_R, CYCLES and ENERGY follow the printed Section 5 sums."""
        config = CacheConfig(64, 8)
        parts = program.contributions(config)
        total_trip = sum(p.trip for p in parts)
        agg = program.evaluate(config)
        assert agg.miss_rate == pytest.approx(
            sum(p.estimate.miss_rate * p.trip for p in parts) / total_trip
        )
        assert agg.cycles == pytest.approx(
            sum(p.estimate.cycles * p.trip for p in parts)
        )
        assert agg.energy_nj == pytest.approx(
            sum(p.estimate.energy_nj * p.trip for p in parts)
        )

    def test_trip_weights_from_invocations(self, program):
        assert program.trips == {"compress": 3, "matadd": 5}
        assert program.total_trips == 8

    def test_trip_override(self):
        program = CompositeProgram(
            [make_compress(n=7)], trips={"compress": 10}
        )
        assert program.trips["compress"] == 10

    def test_contributions_match_standalone_explorers(self, program):
        config = CacheConfig(64, 8)
        parts = {p.kernel_name: p.estimate for p in program.contributions(config)}
        solo = MemExplorer(make_compress(n=7)).evaluate(config)
        assert parts["compress"].miss_rate == solo.miss_rate
        assert parts["compress"].energy_nj == pytest.approx(solo.energy_nj)

    def test_single_kernel_composite_equals_scaled_kernel(self):
        kernel = make_compress(n=7).with_invocations(4)
        program = CompositeProgram([kernel])
        config = CacheConfig(64, 8)
        agg = program.evaluate(config)
        solo = MemExplorer(make_compress(n=7)).evaluate(config)
        assert agg.cycles == pytest.approx(4 * solo.cycles)
        assert agg.energy_nj == pytest.approx(4 * solo.energy_nj)
        assert agg.miss_rate == pytest.approx(solo.miss_rate)


class TestExploration:
    def test_explore_returns_all_configs(self, program):
        configs = [CacheConfig(32, 4), CacheConfig(64, 8)]
        result = program.explore(configs)
        assert len(result) == 2

    def test_per_kernel_optima(self, program):
        configs = [CacheConfig(32, 4), CacheConfig(64, 8), CacheConfig(128, 8)]
        optima = program.per_kernel_optima(configs)
        assert set(optima) == {"compress", "matadd"}
        for config, energy in optima.values():
            assert config in configs
            assert energy > 0


def _small_space():
    return list(design_space(max_size=128, max_line=16, tilings=(1, 2)))


class TestBatchEvaluation:
    @pytest.mark.parametrize("backend", ["fastsim", "onepass"])
    def test_batch_equals_per_config_evaluate(self, backend, monkeypatch):
        """Bit for bit, each side computed from its own cold cache."""
        configs = _small_space()
        monkeypatch.setattr(eval_cache, "_global_cache", EvalCache())
        batched = _two_kernels(backend).evaluate_batch(configs)
        monkeypatch.setattr(eval_cache, "_global_cache", EvalCache())
        single = [_two_kernels(backend).evaluate(c) for c in configs]
        assert batched == single
        assert [e.config for e in batched] == configs

    def test_explore_makes_one_pass_per_trace_group(self, monkeypatch):
        monkeypatch.setattr(eval_cache, "_global_cache", EvalCache())
        program = _two_kernels("onepass")
        configs = _small_space()
        # A kernel's trace key is (kernel, T, L, B): ways share a pass.
        groups = {(c.size, c.line_size, c.tiling) for c in configs}
        assert len(groups) < len(configs)
        passes = get_metrics().counter("onepass.passes")
        before = passes.value
        program.explore(configs)
        assert passes.value - before == len(program.kernels) * len(groups)


class TestValidation:
    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            CompositeProgram([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CompositeProgram([make_compress(), make_compress()])

    def test_non_positive_trips_rejected(self):
        with pytest.raises(ValueError):
            CompositeProgram([make_compress()], trips={"compress": 0})


class TestSharedCache:
    def test_trace_volume(self, program):
        config = CacheConfig(64, 8)
        trace = program.shared_cache_trace(config)
        expected = sum(
            k.accesses_per_invocation * program.trips[k.name]
            for k in program.kernels
        )
        assert len(trace) == expected

    def test_kernels_occupy_disjoint_memory(self, program):
        config = CacheConfig(64, 8)
        trace = program.shared_cache_trace(config)
        # The first round starts with one compress invocation followed by
        # one matadd invocation; their address ranges must not intersect.
        compress_accesses = program.kernels[0].accesses_per_invocation
        matadd_accesses = program.kernels[1].accesses_per_invocation
        first = trace.addresses[:compress_accesses]
        second = trace.addresses[compress_accesses:compress_accesses + matadd_accesses]
        assert int(first.max()) < int(second.min())

    def test_events_match_record_model(self, program):
        config = CacheConfig(64, 8)
        record = program.evaluate(config)
        shared = program.evaluate_shared_cache(config)
        assert shared.events == record.events

    def test_shared_cache_close_to_record_model(self):
        """The paper's independence assumption: for the MPEG-style small
        kernels, totals agree within a modest factor."""
        from repro.kernels import mpeg_decoder_kernels

        program = CompositeProgram(mpeg_decoder_kernels(macroblocks=2))
        config = CacheConfig(64, 8)
        record = program.evaluate(config)
        shared = program.evaluate_shared_cache(config)
        assert shared.cycles == pytest.approx(record.cycles, rel=0.25)
        assert shared.energy_nj == pytest.approx(record.energy_nj, rel=0.25)
