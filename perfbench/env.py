"""Locate the program under test: the ``repro`` package in ``<root>/src``.

The benchmark runs from the root of a source checkout and imports the
program from there, never from an installed copy.  Without the source it
exits non-zero before measuring anything.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for server stores and traced-server dumps (git-ignored).
WORK = os.path.join(ROOT, "perfbench", ".work")


def require_program() -> None:
    """Put ``<root>/src`` first on the import path, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        sys.stderr.write(
            f"perfbench: no program source at {os.path.join(SRC, 'repro')}; "
            "run from the root of a checkout\n"
        )
        raise SystemExit(2)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The host speed reference (``hostspeed.py``) then times the CPU that
    the program runs on, the ``repro serve`` subprocess included.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    """Environment for subprocesses that must import the same program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env
