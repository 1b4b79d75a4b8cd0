"""Print the machine record as one JSON object.

Runs as its own process so that the benchmark process does not import
numpy or scipy on its behalf.  The BLAS thread counts are read from every
OpenBLAS build loaded into this process (numpy and scipy each ship one).
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import sys

import numpy
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's BLAS)


def meminfo_bytes(key: str) -> int:
    """A /proc/meminfo entry, such as MemAvailable, in bytes."""
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) * 1024
    raise OSError(f"{key} not found in /proc/meminfo")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> list:
    """(library, config string, threads) for each loaded OpenBLAS."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
                    entry["threads"] = int(threads())
                    break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def _blas(show_config) -> dict:
    blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "mem_total_bytes": meminfo_bytes("MemTotal"),
        "mem_available_bytes": meminfo_bytes("MemAvailable"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "openblas_loaded": _openblas(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    json.dump(record(), sys.stdout, sort_keys=True)
    print()
