"""Locate the checkout the benchmark runs in and import ``repro`` from it.

The benchmark always measures the source tree next to it (``<root>/src``),
never an installed copy; without that tree it exits non-zero.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class MissingSource(RuntimeError):
    """The checkout holds no importable ``src/repro``."""


def use_src() -> None:
    """Put ``<root>/src`` first on ``sys.path`` and check ``repro`` comes from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingSource(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise MissingSource(f"repro imported from {repro.__file__}, not {SRC}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(work_dir: str) -> dict:
    """Environment for program processes: this ``src``, temp files in ``work_dir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = os.path.abspath(work_dir)
    return env
