"""Paths, source-tree checks and thread pinning shared by the benchmark's
entry points (run.py, setup_child.py, record_golden.py and the self-tests).

The benchmark always imports magnoncavity from the ``src/`` directory of
the checkout it sits in, never from an installed copy, so it measures the
code next to it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "magnoncavity"
CONFIGS = ROOT / "configs"
INPUTS = BENCH / "inputs"
GOLDEN = BENCH / "golden.json"
WORK = ROOT / ".bench_work"

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SourceTreeMissing(RuntimeError):
    """The checkout lacks the package or the configs the benchmark runs."""


def require_source_tree() -> None:
    missing = [str(p.relative_to(ROOT)) for p in (PACKAGE / "__init__.py", CONFIGS) if not p.exists()]
    if missing:
        raise SourceTreeMissing(f"benchmark needs {', '.join(missing)} next to {BENCH.name}/")


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def use_source_tree() -> None:
    """Import magnoncavity from this checkout's src/ and the benchmark's own modules."""
    for path in (str(SRC), str(BENCH)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
