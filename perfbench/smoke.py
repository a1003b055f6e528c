"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload named in ``BENCHMARK.json`` at minimum length (one
block), untraced and traced, and checks that each run exits 0, fails no
operation, and reports exactly the metrics ``BENCHMARK.json`` lists, with
their units.  Then checks that the benchmark refuses to run, without
printing a result, in a directory holding only ``BENCHMARK.json`` and
the benchmark's own files.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import env


def _run(cwd: str, workload: str, trace: int):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=180
    )


def main() -> int:
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(env.ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(
                    f"{label}: exit {done.returncode}\n{done.stderr}"
                )
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics {sorted(got.items())} "
                                f"!= {sorted(expected.items())}")
            if (
                not result["correct"]
                or result["failed"]
                or result["attempted"] < 1
            ):
                problems.append(
                    f"{label}: {result['failed']} of {result['attempted']} "
                    f"operations failed\n{done.stderr}"
                )
            if trace and result["metrics"]["fail_frac"]["value"] != 0:
                problems.append(f"{label}: fail_frac is not 0")
            print(f"ok {label}: {result['attempted']} operations", flush=True)

    bare = os.path.join(env.WORK, f"bare-{os.getpid()}")
    try:
        shutil.copytree(
            os.path.join(env.ROOT, "perfbench"),
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns(".work", "__pycache__"),
        )
        shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), bare)
        done = _run(bare, spec["workloads"][0]["name"], 0)
        if done.returncode == 0 or done.stdout.strip():
            problems.append(
                "without the program source the run did not fail cleanly"
            )
        else:
            print(f"ok bare directory: exit {done.returncode}", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
