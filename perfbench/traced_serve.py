"""``repro serve`` with the layer tracer installed, for traced served-mix runs.

    python3 perfbench/traced_serve.py STATS.json serve --port 0 --jobs 1 ...

Everything after the stats path is passed to ``repro.cli.main``.  When the
server shuts down (SIGTERM drains it), the tracer's per-layer aggregates,
keyed per job by trace id, and the program's own ``repro.obs`` span
collector are written to ``STATS.json``.
"""

from __future__ import annotations

import json
import os
import sys

import env

env.require_program()

from layers import LayerTracer  # noqa: E402


def _job_tag():
    from repro.obs import current_trace

    recorder = current_trace()
    return recorder.trace_id if recorder is not None else None


def main() -> int:
    import repro.cli
    from repro import obs

    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = LayerTracer(tag=_job_tag).install(include_cli=False)
    obs.enable_profiling()
    try:
        code = repro.cli.main(argv)
    finally:
        obs.disable_profiling()
        tracer.uninstall()
        dump = tracer.to_json()
        dump["spans"] = obs.get_collector().snapshot()
        partial = stats_path + ".part"
        with open(partial, "w") as handle:
            json.dump(dump, handle)
        os.replace(partial, stats_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
