"""Ablation: set-sampled exploration accuracy.

Full MemExplore sweeps simulate every access at every configuration; set
sampling simulates a quarter (or an eighth) of the sets and scales.  This
ablation measures the sampled miss-rate error across the Figure 1-4 grid
and checks the property that matters: the minimum-energy configuration
chosen from sampled estimates matches the exact sweep's choice.
"""

import numpy as np

from conftest import FIGURE_GRID

from repro.cache.sampling import sampled_miss_rate
from repro.core.cycles import processor_cycles
from repro.core.explorer import MemExplorer
from repro.engine import EvalCache, KernelWorkload
from repro.kernels import make_compress, make_dequant

STRIDES = (2, 4)


def run_comparison():
    out = {}
    for make in (make_compress, make_dequant):
        kernel = make()
        explorer = MemExplorer(kernel)
        workload = KernelWorkload(kernel)
        cache = EvalCache()
        model = explorer.energy_model
        rows = []
        for config in FIGURE_GRID:
            exact = explorer.evaluate(config)
            trace = workload.trace_for(config, cache).trace
            line_ids = trace.line_ids(config.line_size)
            sampled = {}
            for stride in STRIDES:
                if config.num_sets < stride:
                    sampled[stride] = exact.miss_rate
                    continue
                est = sampled_miss_rate(
                    line_ids, config.num_sets, config.ways, sample_every=stride
                )
                sampled[stride] = est.miss_rate
            energy = {
                stride: model.total_energy(
                    config.size, config.line_size, config.ways,
                    miss_rate=mr, events=exact.events, add_bs=exact.add_bs,
                )
                for stride, mr in sampled.items()
            }
            rows.append((config, exact, sampled, energy))
        out[kernel.name] = rows
    return out


def test_ablation_sampling(benchmark, report):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table = []
    for name, rows in results.items():
        for config, exact, sampled, _ in rows:
            table.append(
                (name, config.label(), exact.miss_rate,
                 sampled[2], sampled[4])
            )
    report(
        "ablation_sampling",
        "Ablation -- exact vs set-sampled miss rates (strides 2 and 4)",
        ("kernel", "config", "exact mr", "mr @ 1/2", "mr @ 1/4"),
        table,
    )

    for name, rows in results.items():
        errors = [
            abs(sampled[4] - exact.miss_rate)
            for _, exact, sampled, _ in rows
        ]
        # Quarter-sampling stays within a few points of exact everywhere.
        assert max(errors) < 0.12, name
        assert float(np.mean(errors)) < 0.03, name
        # The sampled sweep picks the same minimum-energy configuration.
        exact_best = min(rows, key=lambda r: r[1].energy_nj)[0]
        sampled_best = min(rows, key=lambda r: r[3][4])[0]
        assert sampled_best == exact_best, name
