"""Locate the fabflow sources of this checkout and pin the process to one thread.

Every benchmark entry point imports this module first.  It pins the BLAS
and OpenMP pools to one thread (the benchmark is a single-process closed
loop) before NumPy is imported, and puts ``<checkout>/src`` first on
``sys.path``.  When the checkout holds no fabflow sources it raises
``MissingSources`` instead of falling back to some installed copy.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class MissingSources(RuntimeError):
    pass


def child_env() -> dict:
    """Environment for child interpreters: same sources, same thread pins."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def bootstrap() -> None:
    os.environ.update(THREAD_ENV)
    if not (SRC / "fabflow" / "__init__.py").is_file():
        raise MissingSources(f"no fabflow sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fabflow

    if Path(fabflow.__file__).resolve().parent != SRC / "fabflow":
        raise MissingSources(f"imported fabflow from {fabflow.__file__}, not from {SRC}")
