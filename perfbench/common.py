"""Paths and process settings shared by the benchmark and its set-up probe.

Imports nothing heavy, so the set-up probe can time ``import tlspin`` from a
fresh interpreter with numpy and scipy still unloaded.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS/OpenMP thread: rounding then repeats exactly from run to run, and
# a second thread would compete with the host's other jobs on 2 cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS to one thread and put the checkout's ``src`` first on sys.path.

    Must run before numpy is imported.  Exits with code 2 when the checkout
    holds no tlspin sources.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "tlspin" / "__init__.py").is_file():
        print(f"perfbench: no tlspin sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
