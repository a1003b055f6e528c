"""Tests for the pruned exploration strategies."""

import pytest

from repro.core.config import CacheConfig, design_space
from repro.core.explorer import MemExplorer
from repro.kernels import make_compress, make_dequant
from repro.moo.heuristics import greedy_descent, pruned_min_energy


@pytest.fixture(scope="module")
def explorer():
    return MemExplorer(make_compress())


@pytest.fixture(scope="module")
def exhaustive(explorer):
    grid = [
        CacheConfig(t, l)
        for t in (16, 32, 64, 128, 256, 512)
        for l in (4, 8, 16, 32)
        if l <= t
    ]
    return explorer.explore(configs=grid)


class TestGreedyDescent:
    def test_finds_the_global_optimum_on_compress(self, explorer, exhaustive):
        outcome = greedy_descent(
            explorer.evaluate,
            objective="energy",
            sizes=(16, 32, 64, 128, 256, 512),
            line_sizes=(4, 8, 16, 32),
            ways=(1,),
            tilings=(1,),
        )
        assert outcome.best.config == exhaustive.min_energy().config

    def test_uses_fewer_evaluations_than_exhaustive(self, explorer, exhaustive):
        outcome = greedy_descent(
            explorer.evaluate,
            sizes=(16, 32, 64, 128, 256, 512),
            line_sizes=(4, 8, 16, 32),
            ways=(1,),
            tilings=(1,),
        )
        assert outcome.evaluations < len(exhaustive)

    def test_cycles_objective(self, explorer, exhaustive):
        outcome = greedy_descent(
            explorer.evaluate,
            objective="cycles",
            sizes=(16, 32, 64, 128, 256, 512),
            line_sizes=(4, 8, 16, 32),
            ways=(1,),
            tilings=(1,),
        )
        assert outcome.best.cycles == exhaustive.min_cycles().cycles

    def test_never_evaluates_twice(self, explorer):
        outcome = greedy_descent(
            explorer.evaluate,
            sizes=(16, 32, 64),
            line_sizes=(4, 8),
            ways=(1,),
            tilings=(1,),
        )
        assert len(outcome.visited) == len(set(outcome.visited))

    def test_bad_objective(self, explorer):
        with pytest.raises(ValueError):
            greedy_descent(explorer.evaluate, objective="area")


class TestPrunedSweep:
    def test_optimality_preserved(self):
        kernel = make_dequant()
        explorer = MemExplorer(kernel)
        configs = list(
            design_space(max_size=512, min_size=16, max_line=16,
                         ways=(1,), tilings=(1,))
        )
        exhaustive = explorer.explore(configs=configs)

        events = kernel.nest.iterations
        model = explorer.energy_model

        def bound(config):
            return events * model.e_cell(
                config.size, config.line_size, config.ways
            )

        fresh = MemExplorer(kernel)
        outcome = pruned_min_energy(fresh.evaluate, configs, bound)
        assert outcome.best.config == exhaustive.min_energy().config
        assert outcome.best.energy_nj == pytest.approx(
            exhaustive.min_energy().energy_nj
        )

    def test_pruning_skips_evaluations(self):
        kernel = make_dequant()
        explorer = MemExplorer(kernel)
        configs = list(
            design_space(max_size=1024, min_size=16, max_line=16,
                         ways=(1,), tilings=(1,))
        )
        events = kernel.nest.iterations
        model = explorer.energy_model

        def bound(config):
            return events * model.e_cell(
                config.size, config.line_size, config.ways
            )

        outcome = pruned_min_energy(explorer.evaluate, configs, bound)
        assert outcome.evaluations < len(configs)

    def test_empty_configs_rejected(self, explorer):
        with pytest.raises(ValueError):
            pruned_min_energy(explorer.evaluate, [], lambda c: 0.0)
