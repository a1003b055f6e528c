"""Regenerate ``goldens.json`` with the ``reference`` oracle backend.

Run from the root of a checkout::

    python3 perfbench/make_goldens.py

Takes a few minutes.  The goldens are the digests of every result the
workloads can return, computed by the object-oriented reference simulator,
so a benchmark run whose digests match has simulated statistics identical
to the oracle's.  Regenerate only when the model itself changes on
purpose (a new cost-model constant, a new grid), never to absorb a
mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import env

env.require_program()

from golden import (  # noqa: E402
    GOLDENS_PATH,
    MPEG_MIN_CYCLES,
    MPEG_MIN_ENERGY,
    Capture,
    digest,
    optima_digest,
    row_hash,
    sweep_key,
    text_digest,
)
from workloads import (  # noqa: E402
    EXPLORE_ARGS,
    PAPER_KERNELS,
    SRAMS,
    grid_spec,
    sweep_spec,
)

REFERENCE = "reference"


def _cli(argv, capture):
    import repro.cli
    from repro.engine import configure_eval_cache

    configure_eval_cache()
    capture.take()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = repro.cli.main(argv)
    if code != 0:
        raise SystemExit(f"repro {' '.join(argv)} exited {code}")
    return buffer.getvalue(), capture.take()


def _estimates(spec):
    """Every estimate of a served spec, evaluated in-process."""
    return spec.build_evaluator().sweep(configs=spec.configs()).estimates


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def main() -> int:
    from repro.core.pareto import hypervolume, pareto_points
    from repro.moo import objective_vector
    from repro.moo.objectives import reference_point

    capture = Capture().install()
    sweeps, grids = {}, {}
    goldens = {
        "backend": REFERENCE,
        "paper-sweep": {},
        "served-mix": {"sweeps": sweeps, "grid": grids},
    }
    for kernel in PAPER_KERNELS:
        argv = ["explore", kernel, *EXPLORE_ARGS, "--backend", REFERENCE]
        stdout, captured = _cli(argv, capture)
        (result,) = captured["explore"]
        goldens["paper-sweep"][kernel] = {
            "configs": len(result.estimates),
            "estimates": digest(result.estimates),
            "stdout": text_digest(stdout),
        }
        _log(f"paper-sweep {kernel}: {len(result.estimates)} configs")

    stdout, captured = _cli(["mpeg", "--backend", REFERENCE], capture)
    (result,) = captured["composite"]
    (optima,) = captured["optima"]
    selections = (
        result.min_energy().config.label(full=True),
        result.min_cycles().config.label(full=True),
    )
    if selections != (MPEG_MIN_ENERGY, MPEG_MIN_CYCLES):
        raise SystemExit(f"reference MPEG selections {selections} moved")
    goldens["mpeg-composite"] = {
        "configs": len(result.estimates),
        "estimates": digest(result.estimates),
        "optima": optima_digest(optima),
        "stdout": text_digest(stdout),
    }
    _log(f"mpeg-composite: {len(result.estimates)} configs")

    for kernel in PAPER_KERNELS:
        for sram in SRAMS:
            for layout in (True, False):
                spec = sweep_spec(kernel, sram, layout, backend=REFERENCE)
                key = sweep_key(kernel, sram, layout)
                sweeps[key] = digest(_estimates(spec))
        estimates = _estimates(grid_spec(kernel, backend=REFERENCE))
        vectors = [objective_vector(e) for e in estimates]
        reference = list(reference_point(vectors))
        rows = {e.config.label(full=True): row_hash(e) for e in estimates}
        grids[kernel] = {
            "reference": reference,
            "hypervolume": hypervolume(pareto_points(vectors), reference),
            "rows": rows,
        }
        _log(f"served-mix {kernel}: sweeps and search grid")

    with open(GOLDENS_PATH, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    _log(f"wrote {GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
