"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer of the
``repro`` package and records, per layer, calls and self time (a call's
duration minus the part covered by nested wrapped calls).  Nothing is
added inside ``src/``: the wrappers are installed by the traced run only
and removed afterwards.  A nested call into the same layer (a backend's
``measure`` delegating to its own ``measure_grid``) is folded into the
outer call.

Layers and the functions that stand for them:

================  ============================================================
layout            ``Kernel.optimized_layout`` (placement and its certificate)
loops.trace_gen   ``Kernel.trace``
backends.measure  ``measure_grid`` / ``measure`` / ``miss_vector`` of every
                  backend class
energy.bus        ``address_bus_switching`` as the evaluator calls it
model             ``assemble_estimate`` (cycles + energy model)
evaluator         ``Evaluator.sweep`` / ``evaluate_batch`` / ``evaluate``
composite         ``CompositeProgram.explore`` / ``evaluate`` /
                  ``contributions`` / ``per_kernel_optima``
cli               ``repro.cli.main`` (in-process workloads only)
================  ============================================================
"""

from __future__ import annotations

import functools
import random
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Hashable, List, Optional


class Patches:
    """Replaces class or module attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(
        self, owner: Any, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Set ``owner.attr`` to ``make(original)``."""
        original = owner.__dict__[attr]
        wrapper = functools.update_wrapper(make(original), original)
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def observe(
        self,
        owner: Any,
        attr: str,
        on_call: Callable[[tuple, dict, Any], None],
    ) -> None:
        """Pass ``owner.attr``'s arguments and result to ``on_call``."""

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                on_call(args, kwargs, result)
                return result

            return wrapper

        self.replace(owner, attr, make)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class LayerTracer:
    """Calls, self time and work counts per layer, grouped by an op tag.

    ``tag`` returns the identity of the operation in progress (the op
    index in-process, the job's trace id in the server); distinct trace
    keys and (T, L) placements are counted per tag.
    """

    def __init__(self, tag: Callable[[], Hashable]) -> None:
        self.tag = tag
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: tag -> distinct (nest, cache size, line size) placed.
        self.layout_points: Dict[Hashable, set] = defaultdict(set)
        #: tag -> distinct trace keys requested.
        self.trace_keys: Dict[Hashable, set] = defaultdict(set)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = Patches()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_call: Optional[Callable[[tuple, dict, Any], None]] = None,
    ) -> None:
        """Time ``owner.attr`` as ``layer``.

        ``on_call(args, kwargs, result)`` runs after each timed call.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                if stack and stack[-1][0] == layer:
                    return original(*args, **kwargs)
                frame = [layer, 0.0]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += elapsed
                    with tracer._lock:
                        tracer.calls[layer] += 1
                        tracer.self_s[layer] += elapsed - frame[1]
                if on_call is not None:
                    on_call(args, kwargs, result)
                return result

            return wrapper

        self._patches.replace(owner, attr, make)

    def add(self, counter: str, amount: int) -> None:
        with self._lock:
            self.counts[counter] += amount

    def install(self, include_cli: bool) -> "LayerTracer":
        """Wrap every layer's entry points (``cli`` only when asked)."""
        import importlib

        from repro.core.composite import CompositeProgram
        from repro.engine.workload import KernelWorkload
        from repro.kernels.base import Kernel

        cli = importlib.import_module("repro.cli")
        backends = importlib.import_module("repro.engine.backends")
        evaluator = importlib.import_module("repro.engine.evaluator")

        def on_layout(args, kwargs, result):
            kernel, size, line = args[0], args[1], args[2]
            with self._lock:
                self.layout_points[self.tag()].add((kernel.nest, size, line))

        def on_trace(args, kwargs, result):
            self.add("loops.trace_gen.accesses", len(result))

        def on_trace_key(args, kwargs, result):
            with self._lock:
                self.trace_keys[self.tag()].add(result)

        self.wrap(Kernel, "optimized_layout", "layout", on_layout)
        self.wrap(Kernel, "trace", "loops.trace_gen", on_trace)
        self._patches.observe(KernelWorkload, "trace_key", on_trace_key)

        def on_grid(args, kwargs, result):
            self.add("backends.measure.configs", len(result))

        def on_single(args, kwargs, result):
            self.add("backends.measure.configs", 1)

        for value in vars(backends).values():
            if not isinstance(value, type):
                continue
            if not issubclass(value, backends.Backend):
                continue
            own = value.__dict__
            if "measure_grid" in own:
                self.wrap(value, "measure_grid", "backends.measure", on_grid)
            for attr in ("measure", "miss_vector"):
                if attr in own:
                    self.wrap(value, attr, "backends.measure", on_single)

        self.wrap(evaluator, "address_bus_switching", "energy.bus")
        self.wrap(evaluator, "assemble_estimate", "model")
        for attr in ("sweep", "evaluate_batch", "evaluate"):
            self.wrap(evaluator.Evaluator, attr, "evaluator")
        for attr in (
            "explore",
            "evaluate",
            "contributions",
            "per_kernel_optima",
        ):
            self.wrap(CompositeProgram, attr, "composite")
        if include_cli:
            self.wrap(cli, "main", "cli")
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    def to_json(self) -> Dict[str, Any]:
        """The aggregates, nests reduced to their names (for a dump file)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "layout_points": {
                str(tag): sorted(
                    [nest.name, size, line] for nest, size, line in points
                )
                for tag, points in self.layout_points.items()
            },
            "trace_keys": {
                str(tag): len(keys) for tag, keys in self.trace_keys.items()
            },
        }


def summarize(dump: Dict[str, Any], ops: int) -> Dict[str, float]:
    """Per-op layer metrics from a :meth:`LayerTracer.to_json` dump."""
    calls, self_s, counts = dump["calls"], dump["self_s"], dump["counts"]
    metrics = {}
    for layer in ("layout", "loops.trace_gen", "backends.measure"):
        metrics[f"{layer}.calls"] = calls.get(layer, 0) / ops
    for layer in (
        "layout",
        "loops.trace_gen",
        "backends.measure",
        "energy.bus",
        "model",
        "evaluator",
        "composite",
        "cli",
    ):
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0) / ops
    for counter in ("loops.trace_gen.accesses", "backends.measure.configs"):
        metrics[counter] = counts.get(counter, 0) / ops
    keyed = [n for n in dump["trace_keys"].values() if n]
    metrics["workload.trace_keys"] = sum(keyed) / len(keyed) if keyed else 0.0
    distinct_tl = sum(len(points) for points in dump["layout_points"].values())
    metrics["workload.layout_calls_per_tl"] = (
        calls.get("layout", 0) / distinct_tl if distinct_tl else 0.0
    )
    return metrics


#: Placement time :func:`verify_share` spends at most, in seconds.
VERIFY_BUDGET_S = 3.0


def verify_share(points, seed: int) -> float:
    """The layout certificate's share of placement time.

    Times ``assign_offchip_layout`` with ``verify=True`` and with
    ``verify=False`` over the (nest, T, L) points a traced run placed, in
    a seeded order, until ``VERIFY_BUDGET_S`` of placement time is spent.
    """
    from repro.layout.assignment import assign_offchip_layout

    ordered = sorted(points, key=lambda p: (p[0].name, p[1], p[2]))
    random.Random(seed).shuffle(ordered)
    with_cert = without_cert = 0.0
    for nest, size, line in ordered:
        t0 = time.perf_counter()
        assign_offchip_layout(nest, size, line, verify=True)
        t1 = time.perf_counter()
        assign_offchip_layout(nest, size, line, verify=False)
        t2 = time.perf_counter()
        with_cert += t1 - t0
        without_cert += t2 - t1
        if with_cert + without_cert >= VERIFY_BUDGET_S:
            break
    return (with_cert - without_cert) / with_cert if with_cert else 0.0
