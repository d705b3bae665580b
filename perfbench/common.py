"""Set-up shared by the benchmark scripts: BLAS pinning, the source path
and the platform block written into every result file."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

# One BLAS thread (never more than nproc).  On a shared 2-vCPU Xeon VM,
# reflexivity_check for full N=6 n=2 took 1.17-1.78 s with two threads and
# 1.83-2.33 s with one over two batches of 8 runs; the two-thread batch
# medians differed by 20%, the one-thread ones by 12%.  A gate needs the
# steadier figure.
BLAS_THREADS = 1

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = ROOT / ".perfbench_work"


def blas_env() -> dict:
    """Environment that pins every BLAS/OpenMP pool numpy may load."""
    return {k: str(BLAS_THREADS) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def prepare() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on sys.path.

    Must run before numpy is imported: OpenBLAS reads its thread count once,
    when it loads.  Exits with a message when the checkout has no source.
    """
    if not (SRC / "opderiv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no opderiv package under {SRC}")
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    os.environ.update(blas_env())
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, str(SRC))


def _blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def platform_block() -> dict:
    """Python, numpy and BLAS versions, BLAS threads, nproc and CPU model."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }
