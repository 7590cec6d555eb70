"""Process set-up shared by the entry scripts. Imports nothing heavy, so it
runs before numpy is first imported."""
from __future__ import annotations

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def pin_threads() -> dict[str, str]:
    """One BLAS / OpenMP thread, set before numpy loads its BLAS.

    Default threading (2 threads on a 2-core machine) was measured at a 2.4x
    run-to-run spread, too wide to gate on; it is left for a later study.
    The caller's QUNRAVEL_SEED is dropped so no run depends on it.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("QUNRAVEL_SEED", None)
    return {var: os.environ[var] for var in THREAD_VARS}


def use_checkout_source() -> None:
    """Import the package from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "qunravel", "__init__.py")):
        raise SystemExit(f"perfbench: no src/qunravel next to {os.path.basename(os.path.dirname(__file__))}/")
    sys.path.insert(0, SRC)
    import qunravel

    if os.path.commonpath([os.path.abspath(qunravel.__file__), SRC]) != SRC:
        raise SystemExit("perfbench: qunravel was not imported from this checkout")

