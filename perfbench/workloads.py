"""The benchmark's three workloads: seeded plans and closed-loop runners.

Each workload is a sequence of *blocks* of operations drawn from the
seed.  A block holds every kind of operation in its workload's fixed
proportions, so the mix, and the rank at which a median falls, do not
depend on the seed.  ``--seconds`` sets the number of whole blocks a run
executes: ``round(seconds / NOMINAL_BLOCK_S)``, a constant of each
workload near the block's duration at the commit that defined the
benchmark.  The work per run is therefore
the same on every commit, and a faster program finishes it sooner
instead of running more operations, which would move the percentile
that ``op_tail_s`` reports.  One caller issues one operation at a time
and waits for it (a closed loop).

* ``paper-sweep``: ``repro explore K --max-size 1024 --ways 1 2 4 8``
  in-process (568 configs, backend ``auto``), a block being the four
  paper kernels in seeded order; the cache is emptied before each
  operation.
* ``mpeg-composite``: ``repro mpeg`` in-process (9 kernels, 264
  configs), one per block.  Its input is fixed by the paper, so the
  seed draws nothing.
* ``served-mix``: jobs against ``repro serve --port 0 --jobs 1`` on a
  fresh store, 6 per block at fixed positions: one new 403-config sweep
  per paper kernel (SRAM part from the seed), one resubmission of a
  sweep already run (picked by the seed), and one NSGA-II ``/pareto``
  search (its seed from the seed).  No traffic record fixes this mix;
  see ``BLOCK_PATTERN``.

Before the first operation of a run, after every operation and after
every set-up spawn, a ``HostClock`` runs its reference computation (see
``hostspeed.py``); that time is kept out of the run's wall and CPU
totals.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import env
from golden import (
    MPEG_MIN_CYCLES,
    MPEG_MIN_ENERGY,
    Capture,
    digest,
    optima_digest,
    row_hash,
    sweep_key,
    text_digest,
)
from hostspeed import HostClock

PAPER_KERNELS = ("compress", "dequant", "pde", "sor")
EXPLORE_ARGS = ("--max-size", "1024", "--ways", "1", "2", "4", "8")
SRAMS = ("16Mbit", "CY7C-2Mbit", "low-power-2Mbit")
WAYS = (1, 2, 4, 8)
SEARCH = {"generations": 8, "population": 8}
#: Six blocks give each kernel each (SRAM part, layout flag) pair once.
SERVED_BLOCKS = 6
#: The jobs of one served block, in order: four new sweeps, one
#: resubmission and one search (an assumed mix, not a measured one).  Half
#: of the new sweeps place the Section 4.1 layout and take about twice as
#: long as the other half, so the jobs fall into three groups of equal
#: size: resubmissions and searches, sweeps without layout, sweeps with
#: layout.  The median job lies in the middle of the second group and the
#: ``op_tail_s`` percentile inside the third.  The search comes last, so
#: the sweep after it is the next block's ``compress``, a kernel no
#: search runs on (see ``ServedMix.blocks``).
BLOCK_PATTERN = ("cold", "cold", "stored", "cold", "cold", "search")
SETUP_SAMPLES = 7
#: The reference sample before a run's first operation is as long as one
#: taken after an operation of this many seconds.
LEAD_SAMPLE_S = 1.0
#: Set-up is short, so its own clock samples a larger share of it.
SETUP_REFERENCE_SHARE = 0.3


def setup_median_s(spawn) -> float:
    """Median of ``SETUP_SAMPLES`` calls of ``spawn`` (each returning its
    seconds), in reference seconds of a clock sampled between them."""
    clock = HostClock(SETUP_REFERENCE_SHARE)
    samples = []
    for _ in range(SETUP_SAMPLES):
        samples.append(spawn())
        clock.sample(samples[-1])
    return statistics.median(samples) * clock.factor()


def sweep_spec(kernel, sram, optimize_layout, backend="auto"):
    """A served 403-config sweep: the paper grid up to 512 bytes."""
    from repro.serve import JobSpec

    return JobSpec(
        kernel=kernel,
        backend=backend,
        max_size=512,
        ways=WAYS,
        sram=sram,
        optimize_layout=optimize_layout,
    )


def grid_spec(kernel, backend="auto", search_seed=None):
    """The 568-config grid of ``paper-sweep``; a search when seeded."""
    from repro.moo import SearchSettings
    from repro.serve import JobSpec

    search = None
    if search_seed is not None:
        search = SearchSettings(seed=search_seed, **SEARCH)
    return JobSpec(
        kernel=kernel,
        backend=backend,
        max_size=1024,
        ways=WAYS,
        search=search,
    )


@dataclass
class Op:
    """One completed operation as the caller saw it."""

    kind: str
    seconds: float
    configs: int = 0
    ok: bool = True
    error: str = ""
    hv_frac: Optional[float] = None
    submit_s: float = 0.0
    result_s: float = 0.0
    #: Host speed factor of the reference samples around the operation.
    host_factor: float = 1.0

    @property
    def reference_s(self) -> float:
        """``seconds`` in reference seconds (see ``hostspeed.py``)."""
        return self.seconds * self.host_factor


def _failed(kind: str, seconds: float, exc: BaseException) -> Op:
    return Op(kind, seconds, ok=False, error=f"{type(exc).__name__}: {exc}")


@dataclass
class Run:
    """A measured sequence of whole blocks (reference time excluded)."""

    blocks: List[list]
    ops: List[Op]
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    #: Host speed factor over all of the run's reference samples.
    host_factor: float
    traced: Dict[str, Any] = field(default_factory=dict)


def _plan(workload, seconds, blocks) -> List[list]:
    """``blocks`` when replaying, else ``seconds`` worth of the plan."""
    if blocks is not None:
        return blocks
    count = max(1, round(seconds / workload.NOMINAL_BLOCK_S))
    return list(itertools.islice(workload.blocks(), count))


def _sample_after(clock: HostClock, op: Op) -> None:
    """Sample the host after ``op`` and give it the factor of the samples
    before and after it."""
    clock.sample(op.seconds)
    op.host_factor = clock.factor(-2)


def _peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_probe_s() -> float:
    """Spawn to ready: a fresh interpreter importing the CLI and its cache."""
    code = (
        "import repro.cli\n"
        "from repro.engine import configure_eval_cache\n"
        "configure_eval_cache()\n"
        "print('ready', flush=True)\n"
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        cwd=env.ROOT,
        env=env.child_env(),
        stdout=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("the program failed to import in a fresh process")
    return ready


class InProcessWorkload:
    """Shared runner of the two in-process CLI workloads."""

    name = ""

    def __init__(self, seed: int, goldens: Dict[str, Any]) -> None:
        self.seed = seed
        self.goldens = goldens[self.name]
        self.capture = Capture().install()

    def setup_s(self) -> float:
        return setup_median_s(_import_probe_s)

    def close(self) -> None:
        self.capture.uninstall()

    def blocks(self) -> Iterator[list]:
        raise NotImplementedError

    def argv(self, item: str) -> List[str]:
        raise NotImplementedError

    def check(self, item: str, stdout: str, captured: dict) -> tuple:
        """(configs returned, error text or '') of a finished operation."""
        raise NotImplementedError

    def _execute(self, item: str) -> Op:
        import repro.cli

        self.capture.take()
        buffer = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = repro.cli.main(self.argv(item))
        except Exception as exc:  # an operation failure, counted
            return _failed(item, time.perf_counter() - start, exc)
        elapsed = time.perf_counter() - start
        if code != 0:
            return Op(item, elapsed, ok=False, error=f"exit code {code}")
        configs, error = self.check(
            item, buffer.getvalue(), self.capture.take()
        )
        return Op(item, elapsed, configs=configs, ok=not error, error=error)

    def run(self, seconds, blocks=None, trace=False) -> Run:
        """Execute ``seconds`` worth of blocks, or replay ``blocks``.

        A traced run (``trace=True``) installs the layer tracer and the
        program's own span collector for its duration.
        """
        from repro import obs
        from repro.engine import configure_eval_cache

        from layers import LayerTracer

        ops: List[Op] = []
        caches: List[dict] = []
        if trace:
            tracer = LayerTracer(tag=lambda: len(ops))
            tracer.install(include_cli=True)
            obs.get_collector().clear()
            obs.enable_profiling()
        clock = HostClock()
        clock.sample(LEAD_SAMPLE_S)
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            done = _plan(self, seconds, blocks)
            for item in itertools.chain.from_iterable(done):
                cache = configure_eval_cache()
                ops.append(self._execute(item))
                if trace:
                    caches.append(cache.snapshot())
                _sample_after(clock, ops[-1])
        finally:
            if trace:
                obs.disable_profiling()
                tracer.uninstall()
        ref_wall, ref_cpu = clock.spent(1)
        wall = time.perf_counter() - start - ref_wall
        cpu = time.process_time() - cpu0 - ref_cpu
        run = Run(
            done, ops, wall, cpu, _peak_rss_self_mb(), clock.factor()
        )
        if trace:
            spans = obs.get_collector().snapshot()
            run.traced = {
                "layers": tracer.to_json(),
                "points": set().union(*tracer.layout_points.values()),
                "caches": caches,
                "top_spans_s": sum(
                    r["total_s"] for r in spans if len(r["path"]) == 1
                ),
            }
        return run


class PaperSweep(InProcessWorkload):
    name = "paper-sweep"
    #: A block takes 5 s to 7.5 s; this value gives a 30 s run six blocks,
    #: 24 operations, the fewest of whole blocks for which ``op_tail_s``
    #: has a percentile above the median with ten operations beyond it.
    NOMINAL_BLOCK_S = 5.0

    def blocks(self) -> Iterator[list]:
        rng = random.Random(self.seed)
        while True:
            yield rng.sample(PAPER_KERNELS, len(PAPER_KERNELS))

    def argv(self, item: str) -> List[str]:
        return ["explore", item, *EXPLORE_ARGS]

    def check(self, item, stdout, captured):
        golden = self.goldens[item]
        results = captured.get("explore", [])
        if len(results) != 1:
            return 0, f"expected one sweep result, got {len(results)}"
        estimates = results[0].estimates
        if digest(estimates) != golden["estimates"]:
            return len(estimates), f"{item}: estimates differ from goldens"
        if text_digest(stdout) != golden["stdout"]:
            return len(estimates), f"{item}: printed table differs"
        return len(estimates), ""


class MpegComposite(InProcessWorkload):
    name = "mpeg-composite"
    NOMINAL_BLOCK_S = 3.9

    def blocks(self) -> Iterator[list]:
        while True:
            yield ["mpeg"]

    def argv(self, item: str) -> List[str]:
        return ["mpeg"]

    def check(self, item, stdout, captured):
        results = captured.get("composite", [])
        optima = captured.get("optima", [])
        if len(results) != 1 or len(optima) != 1:
            return 0, "expected one composite result and one optima table"
        result = results[0]
        configs = len(result.estimates)
        if digest(result.estimates) != self.goldens["estimates"]:
            return configs, "composite estimates differ from goldens"
        if optima_digest(optima[0]) != self.goldens["optima"]:
            return configs, "per-kernel optima differ from goldens"
        best_e = result.min_energy().config.label(full=True)
        best_t = result.min_cycles().config.label(full=True)
        if (best_e, best_t) != (MPEG_MIN_ENERGY, MPEG_MIN_CYCLES):
            return configs, f"Section 5 selections moved: {best_e}, {best_t}"
        if text_digest(stdout) != self.goldens["stdout"]:
            return configs, "printed report differs from goldens"
        return configs, ""


# ----------------------------------------------------------------------
# served-mix


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Server:
    """``repro serve --port 0 --jobs 1`` on a fresh store in ``workdir``.

    With ``stats_path`` the server runs under ``traced_serve.py``, which
    installs the layer tracer in the server process and writes its
    aggregates to ``stats_path`` on shutdown.
    """

    def __init__(self, workdir: str, stats_path: Optional[str] = None):
        os.makedirs(workdir, exist_ok=True)
        store = os.path.join(workdir, "store.db")
        args = ["serve", "--port", "0", "--jobs", "1", "--store", store]
        if stats_path is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            script = os.path.join(env.ROOT, "perfbench", "traced_serve.py")
            argv = [sys.executable, script, stats_path, *args]
        out_path = os.path.join(workdir, "server.out")
        start = time.perf_counter()
        with open(out_path, "w") as out, open(
            os.path.join(workdir, "server.err"), "w"
        ) as err:
            self.proc = subprocess.Popen(
                argv, cwd=env.ROOT, env=env.child_env(), stdout=out, stderr=err
            )
        try:
            self.url = self._await_url(out_path)
            self._await_health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_url(self, out_path: str) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(out_path) as handle:
                line = handle.readline()
            if line.startswith("serving on ") and line.endswith("\n"):
                return line.split()[2]
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode}"
                )
            time.sleep(0.002)
        raise RuntimeError("server did not start within 60 s")

    def _await_health(self) -> None:
        from repro.serve import ServeClient, ServeError

        client = ServeClient(self.url, timeout_s=10)
        deadline = time.monotonic() + 60
        while True:
            try:
                client.health()
                return
            except ServeError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.002)

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return _proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the service drains), then wait for the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class ServedMix:
    name = "served-mix"
    #: Six blocks (the whole plan) take about 20 s, so runs of 18 s and
    #: more all execute the same six.
    NOMINAL_BLOCK_S = 3.3

    def __init__(self, seed: int, goldens: Dict[str, Any]) -> None:
        self.seed = seed
        self.goldens = goldens[self.name]
        self.workdir = os.path.join(env.WORK, f"served-{os.getpid()}")
        self._servers = 0
        self._kept: Optional[Server] = None

    def _server(self, stats_path: Optional[str] = None) -> Server:
        self._servers += 1
        workdir = os.path.join(self.workdir, f"s{self._servers}")
        return Server(workdir, stats_path)

    def setup_s(self) -> float:
        """Median spawn-to-healthy time; the last server runs the work."""

        def spawn() -> float:
            if self._kept is not None:
                self._kept.stop()
            self._kept = self._server()
            return self._kept.setup_s

        return setup_median_s(spawn)

    def blocks(self) -> Iterator[list]:
        """Seeded job blocks; six, after which the new sweep specs run out.

        Every block has the jobs of ``BLOCK_PATTERN`` at fixed positions.
        The new sweeps run the paper kernels in ``PAPER_KERNELS`` order;
        kernel ``slot`` takes the layout flag ``(block + slot) % 2 == 0``,
        so each block holds two sweeps with and two without the Section
        4.1 layout.  The seed picks each sweep's SRAM part (each kernel
        meets each (SRAM, flag) pair once over the six blocks), which
        sweeps are resubmitted, and each search's NSGA-II seed; the
        search of block ``i`` runs on ``PAPER_KERNELS[1 + i % 3]``.
        The server's ``EvalCache`` outlives a job, so a job's time depends
        on the jobs before it.  Fixing the kinds, kernels and layout flags
        of that sequence, and never following a search with a sweep of
        its kernel (whose traces the seeded search may have cached), keeps
        the seed's choice out of the sweeps' timings.
        """
        rng = random.Random(self.seed)
        srams = {
            (kernel, flag): rng.sample(SRAMS, len(SRAMS))
            for kernel in PAPER_KERNELS
            for flag in (True, False)
        }
        swept: List[tuple] = []
        for index in range(SERVED_BLOCKS):
            slots = iter(range(len(PAPER_KERNELS)))
            block = []
            for kind in BLOCK_PATTERN:
                if kind == "cold":
                    slot = next(slots)
                    kernel = PAPER_KERNELS[slot]
                    layout = (index + slot) % 2 == 0
                    sram = srams[kernel, layout][index // 2]
                    swept.append((kernel, sram, layout))
                    item = ("cold", kernel, sram, layout)
                elif kind == "stored":
                    item = ("stored", *rng.choice(swept))
                else:
                    kernel = PAPER_KERNELS[1 + index % 3]
                    item = ("search", kernel, rng.randrange(1 << 30))
                block.append(item)
            yield block

    def _check_search(self, op: Op, item: tuple, estimates) -> None:
        from repro.core.pareto import hypervolume, pareto_points
        from repro.moo import objective_vector

        grid = self.goldens["grid"][item[1]]
        for estimate in estimates:
            label = estimate.config.label(full=True)
            if grid["rows"].get(label) != row_hash(estimate):
                op.ok, op.error = False, f"{item}: {label} differs"
        vectors = [objective_vector(e) for e in estimates]
        volume = hypervolume(pareto_points(vectors), grid["reference"])
        op.hv_frac = volume / grid["hypervolume"]

    def _execute(self, client, item: tuple, traces) -> Op:
        kind = item[0]
        if kind == "search":
            spec = grid_spec(item[1], search_seed=item[2])
            submit = client.pareto
        else:
            spec, submit = sweep_spec(*item[1:]), client.submit
        start = time.perf_counter()
        job = submit(spec)
        submitted = time.perf_counter()
        finished = client.wait(job["job_id"], poll_s=5.0)
        waited = time.perf_counter()
        if finished["state"] != "done":
            error = f"job ended {finished['state']}: {finished.get('error')}"
            return Op(kind, waited - start, ok=False, error=error)
        result = client.result(job["job_id"])
        end = time.perf_counter()
        op = Op(
            kind,
            end - start,
            configs=len(result.estimates),
            submit_s=submitted - start,
            result_s=end - waited,
        )
        if traces is not None:
            traces.append(client.trace(job["job_id"]))
        if kind == "search":
            self._check_search(op, item, result.estimates)
        else:
            expected = self.goldens["sweeps"][sweep_key(*item[1:])]
            if digest(result.estimates) != expected:
                op.ok, op.error = False, f"{item}: estimates differ"
        return op

    def run(self, seconds, blocks=None, trace=False) -> Run:
        """Execute ``seconds`` worth of blocks, or replay ``blocks``.

        A traced run (``trace=True``) gets a fresh server with the layer
        tracer installed, and fetches every job's trace.
        """
        from repro.serve import ServeClient

        stats_path = traces = None
        if trace:
            stats_path = os.path.join(self.workdir, "traced.json")
            server, traces = self._server(stats_path), []
        elif self._kept is not None:
            server, self._kept = self._kept, None
        else:
            server = self._server()
        client = ServeClient(server.url, timeout_s=120, retry_seed=self.seed)
        ops: List[Op] = []
        clock = HostClock()
        try:
            clock.sample(LEAD_SAMPLE_S)
            server_cpu0, cpu0 = server.cpu_s(), time.process_time()
            start = time.perf_counter()
            done = _plan(self, seconds, blocks)
            for item in itertools.chain.from_iterable(done):
                try:
                    ops.append(self._execute(client, item, traces))
                except Exception as exc:  # an operation failure, counted
                    ops.append(_failed(item[0], 0.0, exc))
                _sample_after(clock, ops[-1])
            ref_wall, ref_cpu = clock.spent(1)
            wall = time.perf_counter() - start - ref_wall
            cpu = (
                time.process_time() - cpu0 - ref_cpu
                + server.cpu_s() - server_cpu0
            )
            rss = _peak_rss_self_mb() + server.peak_rss_mb()
            metrics = client.metrics() if trace else None
        finally:
            server.stop()
        run = Run(done, ops, wall, cpu, rss, clock.factor())
        if trace:
            with open(stats_path) as handle:
                dump = json.load(handle)
            run.traced = {"server": dump, "metrics": metrics, "traces": traces}
        return run

    def close(self) -> None:
        if self._kept is not None:
            self._kept.stop()
            self._kept = None
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    PaperSweep.name: PaperSweep,
    MpegComposite.name: MpegComposite,
    ServedMix.name: ServedMix,
}
