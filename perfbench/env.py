"""Process set-up shared by the benchmark scripts: import path and BLAS pin.

Every benchmark process runs numpy/scipy with one BLAS and OpenMP thread.
On a 2-core box the default OpenBLAS threading roughly doubled the closed-
loop time of `overtake-top5-s9008` (19.7-24.7 s against 10.0-10.9 s) and
changed `min_clearance` in the 16th digit, which the exact-outcome
fingerprint cannot tolerate.  The package itself does not choose its
threading, so the pin lives here and must happen before numpy is imported.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# OpenBLAS thread-count getters under the symbol names the numpy and scipy
# wheels export (numpy ships the 64-bit-integer build).
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")


def pin_threads() -> None:
    """Pin BLAS/OpenMP to one thread and put the package source on the path."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _openblas_threads(package_dir: str) -> dict:
    """Thread count reported by each OpenBLAS bundled beside a wheel package."""
    out = {}
    for path in sorted(glob.glob(os.path.join(package_dir + ".libs", "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = int(fn())
                break
    return out


def blas_info() -> dict:
    """BLAS vendor, thread counts, numpy/scipy versions and core count."""
    import numpy
    import scipy

    info = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            blas = {}
        info[f"{mod.__name__}_blas"] = {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _openblas_threads(os.path.dirname(mod.__file__)),
        }
    return info
