"""Tests for the instruction-cache extension."""

import pytest

from repro.core.config import CacheConfig
from repro.icache.blocks import BasicBlock, ControlFlowTrace, Program
from repro.icache.explorer import ICacheExplorer


@pytest.fixture
def program():
    return Program.sequential(
        [("prologue", 8), ("loop_body", 16), ("epilogue", 4)]
    )


@pytest.fixture
def execution(program):
    return ControlFlowTrace.loop(
        program,
        body=["loop_body"],
        iterations=50,
        prologue=["prologue"],
        epilogue=["epilogue"],
    )


class TestBasicBlock:
    def test_fetch_addresses(self):
        block = BasicBlock("b", address=100, instructions=3, instruction_size=4)
        assert block.fetch_addresses().tolist() == [100, 104, 108]
        assert block.size_bytes == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            BasicBlock("b", -1, 4)
        with pytest.raises(ValueError):
            BasicBlock("b", 0, 0)


class TestProgram:
    def test_sequential_layout(self, program):
        assert program.block("prologue").address == 0
        assert program.block("loop_body").address == 32
        assert program.block("epilogue").address == 96

    def test_footprint(self, program):
        assert program.footprint_bytes == (8 + 16 + 4) * 4

    def test_lookup_error(self, program):
        with pytest.raises(KeyError):
            program.block("nope")

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            Program((BasicBlock("a", 0, 4), BasicBlock("b", 8, 4)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Program((BasicBlock("a", 0, 2), BasicBlock("a", 100, 2)))


class TestControlFlowTrace:
    def test_dynamic_instruction_count(self, execution):
        assert execution.dynamic_instructions == 8 + 50 * 16 + 4

    def test_block_frequencies(self, execution):
        freq = execution.block_frequencies()
        assert freq == {"prologue": 1, "loop_body": 50, "epilogue": 1}

    def test_fetch_trace_is_all_reads(self, execution):
        trace = execution.fetch_trace()
        assert len(trace) == execution.dynamic_instructions
        assert trace.num_writes == 0

    def test_unknown_block_rejected(self, program):
        with pytest.raises(ValueError):
            ControlFlowTrace(program, ("missing",))

    def test_empty_trace(self, program):
        assert len(ControlFlowTrace(program, ()).fetch_trace()) == 0


class TestICacheExplorer:
    def test_loop_fits_after_warmup(self, program):
        execution = ControlFlowTrace.loop(program, ["loop_body"], 100)
        explorer = ICacheExplorer(execution)
        # 16 instructions x 4 bytes = 64 bytes of loop body: a 64-byte
        # i-cache holds it entirely, so only the first pass misses.
        est = explorer.evaluate(CacheConfig(64, 16))
        assert est.miss_rate < 0.01

    def test_too_small_cache_thrashes_less_with_bigger(self, execution):
        explorer = ICacheExplorer(execution)
        small = explorer.evaluate(CacheConfig(16, 16))
        large = explorer.evaluate(CacheConfig(128, 16))
        assert large.miss_rate <= small.miss_rate

    def test_tiling_rejected(self, execution):
        with pytest.raises(ValueError, match="tiling"):
            ICacheExplorer(execution).evaluate(CacheConfig(64, 16, 1, 4))

    def test_explore_space_pins_tiling(self, execution):
        result = ICacheExplorer(execution).explore(max_size=64, min_size=32)
        assert len(result) > 0
        assert all(e.config.tiling == 1 for e in result)

    def test_trace_is_cached(self, execution):
        explorer = ICacheExplorer(execution)
        assert explorer.workload.trace is explorer.workload.trace
