"""Miss flags from the object-oriented reference simulator.

The independent oracle the LRU engine's equivalence tests compare
against: :class:`~repro.cache.simulator.CacheSimulator` fed line ids as
byte addresses of one-byte lines, so ``num_sets * ways`` lines make up
the cache (both powers of two, as the simulator requires).
"""

import numpy as np

from repro.cache.simulator import CacheGeometry, CacheSimulator


def reference_miss_vector(line_ids, num_sets, ways):
    """Per-access LRU miss flags of a ``num_sets`` x ``ways`` cache."""
    sim = CacheSimulator(CacheGeometry(num_sets * ways, 1, ways))
    return np.array([not sim.access(int(line)) for line in line_ids], dtype=bool)


def reference_misses(line_ids, num_sets, ways):
    """LRU miss count of a ``num_sets`` x ``ways`` cache."""
    return int(reference_miss_vector(line_ids, num_sets, ways).sum())
