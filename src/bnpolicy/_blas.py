"""Run BLAS on one thread, so results do not depend on the thread count.

OpenBLAS splits a large product across its threads, and the split changes
the order in which partial sums are added, so the last digits of a fit
depend on how many threads ran it.  Pinning every bundled OpenBLAS to one
thread makes each report the same bits on any host; parallelism comes from
worker processes instead (``map_in_order``: the Monte Carlo lab's
replications and the cost forest's trees).  The libraries are found next
to their packages without importing them, and driven through ctypes the
way threadpoolctl does it.
"""
from __future__ import annotations

import ctypes
import glob
import importlib.util
import multiprocessing
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

from .errors import DataValidationError


def _library_dirs() -> list:
    """The ``<package>.libs`` directories where wheels bundle OpenBLAS.

    Each package is located by its import spec, not imported, so pinning
    BLAS does not load scipy into a command that never uses it.
    """
    dirs = []
    for name in ("numpy", "scipy"):
        spec = importlib.util.find_spec(name)
        if spec is not None and spec.origin is not None:
            dirs.append(os.path.join(os.path.dirname(os.path.dirname(spec.origin)),
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


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_in_order(fn, items, n_workers):
    """``[fn(item) for item in items]``, over a process pool when ``n_workers`` > 1.

    The pool has at most one worker per item and per usable CPU, gives each
    worker contiguous chunks of items and runs BLAS on one thread in every
    worker.  Results come back in item order, so whatever the caller adds
    up from them does not depend on the worker count.  Workers are forked:
    a two-worker pool is up in ~0.05 s, where workers started by spawn or
    forkserver (the default from Python 3.14 on Linux) import numpy and the
    package again and take ~1 s, about what a 500-tree forest saves on two
    cores.  Where the platform cannot fork, the items run in this process.
    """
    if not isinstance(n_workers, numbers.Integral) or n_workers < 1:
        raise DataValidationError(
            f"n_workers must be a positive integer, got {n_workers!r}")
    items = list(items)
    n_workers = min(n_workers, len(items), usable_cpus())
    if n_workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=n_workers, initializer=pin_one_thread,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * n_workers))))
