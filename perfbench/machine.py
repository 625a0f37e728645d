"""What the benchmark ran on: cores, CPU, library versions, BLAS threads."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

# Thread-count getters exported by the OpenBLAS builds numpy and scipy ship.
_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count in force for each loaded OpenBLAS library, by file name."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_GETTERS:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                out[os.path.basename(path)] = getter()
                break
    return out


def machine_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
