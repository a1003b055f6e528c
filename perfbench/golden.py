"""Result digests, the goldens they are checked against, and result capture.

Every operation of the benchmark returns cache estimates; each estimate is
reduced to one canonical row (full config label, accesses, miss count, and
the exact bits of miss rate, cycles and energy) and a result to the sha256
of its sorted rows.  ``goldens.json`` holds the digests of the same
operations computed with the ``reference`` oracle backend (see
``make_goldens.py``), so a match means the simulated statistics are
bit-identical to the oracle's.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterable, List

from layers import Patches

GOLDENS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "goldens.json"
)

#: Section 5 of the paper: the MPEG whole-program selections.
MPEG_MIN_ENERGY = "C32L4S8B4"
MPEG_MIN_CYCLES = "C256L16S2B1"


def estimate_row(estimate) -> str:
    """One estimate as a canonical text row (floats as exact hex)."""
    misses = round(estimate.miss_rate * estimate.accesses)
    return " ".join(
        (
            estimate.config.label(full=True),
            str(estimate.accesses),
            str(misses),
            float(estimate.miss_rate).hex(),
            float(estimate.cycles).hex(),
            float(estimate.energy_nj).hex(),
        )
    )


def row_hash(estimate) -> str:
    """Short hash of one estimate's row (per-config golden entries)."""
    return hashlib.sha256(estimate_row(estimate).encode()).hexdigest()[:16]


def digest(estimates: Iterable[Any]) -> str:
    """Order-independent digest of a whole result."""
    rows = sorted(estimate_row(e) for e in estimates)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def optima_digest(optima: Dict[str, Any]) -> str:
    """Digest of ``CompositeProgram.per_kernel_optima``.

    The optima map kernel name -> (config, energy in nJ).
    """
    rows = sorted(
        f"{name} {config.label(full=True)} {float(energy).hex()}"
        for name, (config, energy) in optima.items()
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_key(kernel: str, sram: str, optimize_layout: bool) -> str:
    """Golden key of one served sweep spec."""
    return f"{kernel}|{sram}|{int(optimize_layout)}"


def load_goldens() -> Dict[str, Any]:
    with open(GOLDENS_PATH) as handle:
        return json.load(handle)


class Capture:
    """Keeps the results the CLI commands compute but only print.

    Observes ``MemExplorer.explore``, ``CompositeProgram.explore`` and
    ``CompositeProgram.per_kernel_optima`` so the benchmark can digest the
    returned estimates; the wrappers only store a reference.
    """

    def __init__(self) -> None:
        self.results: Dict[str, List[Any]] = {}
        self._patches = Patches()

    def install(self) -> "Capture":
        from repro.core.composite import CompositeProgram
        from repro.core.explorer import MemExplorer

        for owner, attr, key in (
            (MemExplorer, "explore", "explore"),
            (CompositeProgram, "explore", "composite"),
            (CompositeProgram, "per_kernel_optima", "optima"),
        ):
            self._patches.observe(owner, attr, self._keeper(key))
        return self

    def _keeper(self, key: str):
        def keep(args, kwargs, result):
            self.results.setdefault(key, []).append(result)

        return keep

    def take(self) -> Dict[str, List[Any]]:
        """The results captured since the last call (and forget them)."""
        taken = dict(self.results)
        self.results.clear()
        return taken

    def uninstall(self) -> None:
        self._patches.restore()
