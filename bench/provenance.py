"""Where and on what a benchmark result was measured.

The BLAS thread count is read back from OpenBLAS itself through ctypes
(threadpoolctl is not a dependency), for numpy's copy and for scipy's,
which only the reference checker uses.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys


def _openblas(package_dir: str, libs_dir: str, suffix: str) -> dict:
    paths = glob.glob(os.path.join(os.path.dirname(package_dir), libs_dir,
                                   "libscipy_openblas*.so*"))
    if not paths:
        return {"threads": None, "config": None}
    lib = ctypes.CDLL(paths[0])  # already loaded: this returns the same handle
    get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return {"threads": get_threads(), "config": get_config().decode()}


def blas_info() -> dict:
    import numpy
    import scipy
    return {"numpy": _openblas(numpy.__path__[0], "numpy.libs", "64_"),
            "scipy": _openblas(scipy.__path__[0], "scipy.libs", "")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src_dir: str) -> str:
    """sha256 over the package sources, which identifies the code under
    test when there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src_dir).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def provenance(root: str, src_dir: str, seed: int) -> dict:
    import numpy
    import scipy
    blas = blas_info()
    return {
        "seed": seed,
        "blas_threads": blas["numpy"]["threads"],
        "blas_threads_scipy": blas["scipy"]["threads"],
        "openblas": blas["numpy"]["config"],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src_dir),
    }
