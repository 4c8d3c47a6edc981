"""Environment block printed with every benchmark result.

The quality metrics repeat bit for bit only at a fixed BLAS thread count, so
the count is recorded here; the benchmark never pins it.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def blas_threads() -> tuple[int, str]:
    """Thread count of numpy's bundled OpenBLAS, and where it came from.

    Falls back to the environment variables OpenBLAS reads, then to the
    number of usable CPUs, which is OpenBLAS's own default.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _OPENBLAS_THREAD_QUERIES:
            query = getattr(lib, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query()), name
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var]), var
    return nproc(), "nproc"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """Commit of a git checkout at root, read from .git; "unknown" elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    threads, source = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": threads,
        "blas_threads_source": source,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": nproc(),
        "cpu": cpu_model(),
        "commit": git_commit(root),
    }
