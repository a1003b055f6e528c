"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-sweep --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` runs half of ``--seconds`` worth of the workload untraced,
replays the same operations with the layer tracer installed, and reports
the per-layer metrics.  Every metric is printed as ``name value unit``;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every operation's estimates are checked
against the ``reference``-backend goldens, and a mismatch counts as a
failed operation.  Times are reported in reference seconds: measured
seconds times a host speed factor of ``hostspeed.py``; the run's factor
is printed beside them.  ``perfbench/README.md`` describes the
workloads, the seeds and the layer behind each metric.
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
import sys
from typing import Dict, List, Tuple

import env

#: The seed used when none is given, and the one kept back for checking
#: a claimed gain on inputs not used while the change was written.
DEFAULT_SEED = 1
HELDOUT_SEED = 9176

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("configs_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("cpu_s_per_kconfig", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER: List[Tuple[str, str]] = [
    ("fail_frac", "ratio"),
    ("job_cold_p50_s", "s"),
    ("job_stored_p50_s", "s"),
    ("job_search_p50_s", "s"),
    ("search_hv_frac", "ratio"),
    ("layout.calls", "count/op"),
    ("layout.self_s", "s/op"),
    ("layout.verify_share", "ratio"),
    ("loops.trace_gen.calls", "count/op"),
    ("loops.trace_gen.self_s", "s/op"),
    ("loops.trace_gen.accesses", "count/op"),
    ("backends.measure.calls", "count/op"),
    ("backends.measure.configs", "count/op"),
    ("backends.measure.self_s", "s/op"),
    ("energy.bus.self_s", "s/op"),
    ("model.self_s", "s/op"),
    ("evalcache.trace.hit_ratio", "ratio"),
    ("evalcache.trace.evictions", "count/op"),
    ("evalcache.miss.hit_ratio", "ratio"),
    ("evalcache.miss.evictions", "count/op"),
    ("evaluator.self_s", "s/op"),
    ("composite.self_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("serve.http.submit_s", "s/op"),
    ("serve.http.result_s", "s/op"),
    ("serve.queue.wait_s", "s/op"),
    ("serve.job_s", "s/op"),
    ("store.hit_ratio", "ratio"),
    ("store.read_s", "s/op"),
    ("store.write_s", "s/op"),
    ("store.puts", "count/op"),
    ("serve.eval_ratio", "ratio"),
    ("moo.evaluations", "count"),
    ("moo.generations", "count"),
    ("moo.evals_per_job", "count/op"),
    ("unattributed_s", "s/op"),
    ("obs.trace_overhead", "ratio"),
    ("workload.trace_keys", "count/op"),
    ("workload.trace_keys_per_bound", "ratio"),
    ("workload.layout_calls_per_tl", "ratio"),
]

JOB_KINDS = ("cold", "stored", "search")


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    leaves at least ten samples beyond it.

    With fewer than 21 samples that percentile is missing or lies below
    the median, which is no tail; the maximum is then reported as the
    100th percentile with zero samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 11
    if index < (n - 1) / 2.0:
        return ordered[-1], 100.0, 0
    return ordered[index], 100.0 * index / (n - 1), n - 1 - index


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mix_shares(ops) -> Dict[str, float]:
    """Share of each served job kind (printed beside the metrics)."""
    return {
        f"mix.{kind}_share": _ratio(
            sum(op.kind == kind for op in ops), len(ops)
        )
        for kind in JOB_KINDS
    }


def end_to_end(workload, seconds: float):
    setup_s = workload.setup_s()
    run = workload.run(seconds)
    configs = sum(op.configs for op in run.ops)
    op_s = [op.reference_s for op in run.ops]
    value, pct, beyond = tail(op_s)
    metrics = {
        "setup_s": setup_s,
        "configs_per_s": configs / (run.wall_s * run.host_factor),
        "op_p50_s": statistics.median(op_s),
        "op_tail_s": value,
        "cpu_s_per_kconfig": _ratio(
            run.cpu_s * run.host_factor, configs / 1000.0
        ),
        "peak_rss_mb": run.peak_rss_mb,
    }
    notes = {
        "op_tail_pct": pct,
        "op_tail_beyond": beyond,
        "ops": len(run.ops),
        "blocks": len(run.blocks),
        "configs": configs,
        "wall_s": run.wall_s,
        "host_factor": run.host_factor,
    }
    if workload.name == "served-mix":
        notes.update(_mix_shares(run.ops))
    return metrics, notes, run.ops


def _cache_metrics(snapshots: List[dict], ops: int) -> Dict[str, float]:
    metrics = {}
    for store in ("trace", "miss"):
        hits = sum(s[store]["hits"] for s in snapshots)
        misses = sum(s[store]["misses"] for s in snapshots)
        evictions = sum(s[store]["evictions"] for s in snapshots)
        metrics[f"evalcache.{store}.hit_ratio"] = _ratio(hits, hits + misses)
        metrics[f"evalcache.{store}.evictions"] = evictions / ops
    return metrics


def _unattributed_s(ops, top_spans_s: float) -> float:
    """Per operation: the program's wall time outside its top-level spans.

    An operation's time is the program's alone (``repro.cli.main``, or a
    job's submit, wait and result calls); the top-level spans are those
    of the ``repro.obs`` collector in the process that did the work.
    """
    return (sum(op.seconds for op in ops) - top_spans_s) / len(ops)


def _in_process_layers(traced, n: int, seed: int) -> Dict[str, float]:
    import layers

    info = traced.traced
    metrics = layers.summarize(info["layers"], n)
    metrics.update(_cache_metrics(info["caches"], n))
    metrics["layout.verify_share"] = layers.verify_share(info["points"], seed)
    metrics["unattributed_s"] = _unattributed_s(
        traced.ops, info["top_spans_s"]
    )
    return metrics


def _served_layers(traced, n: int, seed: int) -> Dict[str, float]:
    import layers
    from repro.kernels import get_kernel

    dump = traced.traced["server"]
    doc = traced.traced["metrics"]
    counters = doc["metrics"]["counters"]
    histograms = doc["metrics"]["histograms"]
    metrics = layers.summarize(dump, n)
    metrics.update(_cache_metrics([doc["cache"]], n))
    points = {
        (get_kernel(name).nest, size, line)
        for tagged in dump["layout_points"].values()
        for name, size, line in tagged
    }
    metrics["layout.verify_share"] = layers.verify_share(points, seed)
    events = [e for t in traced.traced["traces"] for e in t["events"]]
    job_s = sum(e["total_s"] for e in events if e["path"] == ["job"])
    wait_s = sum(e["total_s"] for e in events if e["name"] == "queue.wait")
    hits = counters.get("store.hits", 0)
    misses = counters.get("store.misses", 0)
    delivered = sum(op.configs for op in traced.ops)
    searches = sum(op.kind == "search" for op in traced.ops)
    evaluations = counters.get("moo.evaluations", 0)
    top_spans_s = sum(
        r["total_s"] for r in dump["spans"] if len(r["path"]) == 1
    )

    def seconds(name: str) -> float:
        return histograms.get(name, {}).get("total", 0.0)

    metrics.update({
        "serve.http.submit_s": sum(op.submit_s for op in traced.ops) / n,
        "serve.http.result_s": sum(op.result_s for op in traced.ops) / n,
        "serve.queue.wait_s": wait_s / n,
        "serve.job_s": job_s / n,
        "store.hit_ratio": _ratio(hits, hits + misses),
        "store.read_s": seconds("store.read_seconds") / n,
        "store.write_s": seconds("store.write_seconds") / n,
        "store.puts": counters.get("store.puts", 0) / n,
        "serve.eval_ratio": _ratio(
            counters.get("engine.configs_evaluated", 0), delivered
        ),
        "moo.evaluations": evaluations,
        "moo.generations": counters.get("moo.generations", 0),
        "moo.evals_per_job": _ratio(evaluations, searches),
        "unattributed_s": _unattributed_s(traced.ops, top_spans_s),
    })
    return metrics


def per_layer(workload, seconds: float, seed: int):
    from repro.engine.cache import EvalCache

    untraced = workload.run(seconds / 2.0)
    traced = workload.run(None, blocks=untraced.blocks, trace=True)
    served = workload.name == "served-mix"
    n = len(traced.ops)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    layer_metrics = _served_layers if served else _in_process_layers
    metrics.update(layer_metrics(traced, n, seed))
    bound = inspect.signature(EvalCache).parameters["max_traces"].default
    metrics["workload.trace_keys_per_bound"] = (
        metrics["workload.trace_keys"] / bound
    )
    for name, unit in PER_LAYER:
        if unit == "s/op":
            metrics[name] *= traced.host_factor
    metrics["obs.trace_overhead"] = (traced.wall_s * traced.host_factor) / (
        untraced.wall_s * untraced.host_factor
    )
    for kind in JOB_KINDS:
        metrics[f"job_{kind}_p50_s"] = _median_or_zero(
            [op.reference_s for op in untraced.ops if op.kind == kind]
        )
    metrics["search_hv_frac"] = _median_or_zero(
        [op.hv_frac for op in untraced.ops if op.hv_frac is not None]
    )
    ops = untraced.ops + traced.ops
    metrics["fail_frac"] = sum(not op.ok for op in ops) / len(ops)
    notes = {
        "ops": len(untraced.ops),
        "blocks": len(untraced.blocks),
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "untraced_host_factor": untraced.host_factor,
        "traced_host_factor": traced.host_factor,
    }
    if served:
        notes.update(_mix_shares(untraced.ops))
    return metrics, notes, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper-sweep", "mpeg-composite", "served-mix"),
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env.require_program()
    env.pin_to_one_cpu()

    import workloads
    from golden import load_goldens

    workload = workloads.WORKLOADS[args.workload](args.seed, load_goldens())
    try:
        if args.trace:
            metrics, notes, ops = per_layer(workload, args.seconds, args.seed)
            named = PER_LAYER
        else:
            metrics, notes, ops = end_to_end(workload, args.seconds)
            named = END_TO_END
    finally:
        workload.close()

    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"FAILED {op.kind}: {op.error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in notes.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {key:32s} {shown}")
    for name, unit in named:
        print(f"{name:34s} {metrics[name]:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in named
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
