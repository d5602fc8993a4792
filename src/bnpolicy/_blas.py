"""Run BLAS on one thread, so results do not depend on the thread count.

OpenBLAS splits a large product across its threads, and the split changes
the order in which partial sums are added, so the last digits of a fit
depend on how many threads ran it.  Pinning every bundled OpenBLAS to one
thread makes each report the same bits on any host; parallelism comes from
the Monte Carlo lab's worker processes instead.  The libraries are found
and driven through ctypes the way threadpoolctl does it.
"""
from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager


def _library_dirs() -> list:
    """The ``<package>.libs`` directories where wheels bundle OpenBLAS."""
    dirs = []
    for name in ("numpy", "scipy"):
        mod = __import__(name)
        dirs.append(os.path.join(os.path.dirname(os.path.dirname(mod.__file__)),
                                 f"{name}.libs"))
    return dirs


def _openblas() -> list:
    """(path, get_num_threads, set_num_threads) of each bundled OpenBLAS."""
    found = []
    for libdir in _library_dirs():
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    break
            else:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found.append((path, get, put))
    return found


def pin_one_thread() -> None:
    """Set every bundled OpenBLAS to one thread; a worker-pool ``initializer``."""
    for _, _, put in _openblas():
        put(1)


@contextmanager
def one_blas_thread():
    """Run the block with BLAS on one thread, then restore the caller's counts.

    Yields ``[(library path, caller's thread count)]`` for the libraries it
    pinned: an empty list, and no effect, when no OpenBLAS is found.
    """
    libs = _openblas()
    saved = [(path, get()) for path, get, _ in libs]
    for _, _, put in libs:
        put(1)
    try:
        yield saved
    finally:
        for (_, _, put), (_, count) in zip(libs, saved):
            put(count)
