"""Objective vectors for multi-objective search.

Search operates on plain minimisation tuples extracted from
:class:`~repro.core.metrics.PerformanceEstimate` records: execution time
(``cycles``), energy (``energy_nj``) and silicon area (the tag+data+valid
bit count of :func:`~repro.energy.area.cache_area_bits`).  Keeping the
mapping in one place means the archive, the searchers and the service all
agree on what a point *is* -- and adding an objective (leakage, latency
percentiles, ...) is one entry here, not a change to every searcher.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.metrics import PerformanceEstimate
from repro.energy.area import cache_area_bits

__all__ = ["OBJECTIVES", "objective_vector", "reference_point", "validate_objectives"]

#: The objectives the subsystem knows how to extract, in canonical order.
OBJECTIVES: Tuple[str, ...] = ("cycles", "energy", "area")


def validate_objectives(objectives: Sequence[str]) -> Tuple[str, ...]:
    """Normalise and validate an objective-name list (1-3 known names)."""
    if not isinstance(objectives, (list, tuple)) or not all(
        isinstance(name, str) for name in objectives
    ):
        raise ValueError("objectives must be a list of names")
    names = tuple(objectives)
    if not names:
        raise ValueError("at least one objective is required")
    if len(names) != len(set(names)):
        raise ValueError(f"duplicate objectives in {names!r}")
    unknown = [name for name in names if name not in OBJECTIVES]
    if unknown:
        raise ValueError(
            f"unknown objectives {unknown!r}; choose from {list(OBJECTIVES)}"
        )
    if len(names) > 3:
        raise ValueError("at most three objectives are supported (exact hypervolume)")
    return names


def objective_vector(
    estimate: PerformanceEstimate, objectives: Sequence[str] = ("cycles", "energy")
) -> Tuple[float, ...]:
    """The minimisation tuple of ``estimate`` under the named objectives."""
    values = []
    for name in objectives:
        if name == "cycles":
            values.append(float(estimate.cycles))
        elif name == "energy":
            values.append(float(estimate.energy_nj))
        elif name == "area":
            config = estimate.config
            values.append(
                float(cache_area_bits(config.size, config.line_size, config.ways))
            )
        else:
            raise ValueError(
                f"unknown objective {name!r}; choose from {list(OBJECTIVES)}"
            )
    return tuple(values)


def reference_point(
    vectors: Sequence[Sequence[float]], margin: float = 1.05
) -> Tuple[float, ...]:
    """A fixed hypervolume reference: the per-objective maximum plus margin.

    Derived once (from the first generation's evaluations) and then held
    fixed, so the hypervolume series is comparable across generations and
    monotone under an elitist archive.  A zero-valued axis still gets a
    strictly positive reference so points on it can contribute volume.
    """
    if not vectors:
        raise ValueError("cannot derive a reference from no points")
    width = len(vectors[0])
    if any(len(v) != width for v in vectors):
        raise ValueError("objective vectors differ in length")
    reference = []
    for axis in range(width):
        worst = max(float(v[axis]) for v in vectors)
        reference.append(worst * margin if worst > 0 else 1.0)
    return tuple(reference)
