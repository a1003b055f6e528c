"""Host speed: a fixed reference computation timed between operations.

The benchmark was defined on a shared 2-vCPU host whose speed flips, many
times a second, between a fast state and one about 1.5x slower; the share
of time spent slow drifts from minute to minute.  A timed operation
therefore measures the neighbours as much as the program: identical
``paper-sweep`` runs of 16 operations spread 12-18% (interquartile range
over median) in raw wall time.

A ``HostClock`` runs a fixed pure-Python reference (``_reference``)
before the first operation of a run and after each operation, for about
``SHARE`` of the time just measured.  ``factor`` is the reference's
nominal duration divided by its mean measured duration: 1.0 on the host
at full speed, lower when it was slowed.  Run totals are multiplied by
the factor over the whole run, and each operation's time by the factor
of the two samples around it, so times are in *reference seconds*: wall
seconds on this host running at its fast state.  On such runs the spread
fell to 3-8%.  The reference is the benchmark's own code, so no change
to the program can move it; only the host's speed does.
"""

from __future__ import annotations

import time
from typing import List, Tuple

#: Iterations of one reference chunk, and its duration on the defining
#: host (Intel Xeon, 2.1 GHz, CPython 3.11) in its fast state.
CHUNK_ITERATIONS = 60_000
NOMINAL_CHUNK_S = 0.0070
#: Reference time run per second measured.
SHARE = 0.08


def _reference(iterations: int) -> int:
    total = 0
    table = {}
    for i in range(iterations):
        total += i * i % 7
        table[i % 97] = total
    return total


class HostClock:
    """Reference samples taken between measurements, and speed factors."""

    def __init__(self, share: float = SHARE) -> None:
        self.share = share
        #: (chunks, wall seconds, CPU seconds) of each ``sample`` call.
        self.samples: List[Tuple[int, float, float]] = []

    def sample(self, measured_s: float) -> None:
        """Run the reference for about ``share * measured_s`` seconds,
        one chunk at least."""
        budget = self.share * measured_s
        cpu0 = time.process_time()
        start = time.perf_counter()
        chunks = 0
        while True:
            _reference(CHUNK_ITERATIONS)
            chunks += 1
            spent = time.perf_counter() - start
            if spent >= budget:
                break
        self.samples.append((chunks, spent, time.process_time() - cpu0))

    def spent(self, first: int = 0) -> Tuple[float, float]:
        """(wall, CPU) seconds of the samples from index ``first`` on."""
        chosen = self.samples[first:]
        return sum(s[1] for s in chosen), sum(s[2] for s in chosen)

    def factor(self, first: int = 0) -> float:
        """Nominal over measured mean chunk time of the samples from index
        ``first`` on: 1.0 at full speed."""
        chosen = self.samples[first:]
        wall = sum(s[1] for s in chosen)
        return NOMINAL_CHUNK_S * sum(s[0] for s in chosen) / wall
