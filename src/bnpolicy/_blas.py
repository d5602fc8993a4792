"""Run BLAS on one thread, so results do not depend on the thread count.

OpenBLAS splits a large product across its threads, and the split changes
the order in which partial sums are added, so the last digits of a fit
depend on how many threads ran it.  Pinning every bundled OpenBLAS to one
thread makes each report the same bits on any host; parallelism comes from
worker processes instead (``map_in_order``: the Monte Carlo lab's
replications and the cost forest's trees).  The libraries are found next
to their packages without importing them, and driven through ctypes the
way threadpoolctl does it.

Pinning loads no library: ``one_blas_thread`` pins the bundled libraries
this process has already loaded (numpy's, once numpy is imported), and
``_lapack`` is the only code that loads scipy's.  Where it loads it inside
a ``one_blas_thread`` block, it pins it at once, and the outermost block
restores the count it had when it loaded.  So a command that calls no
LAPACK (``impute-costs``, or an A-learning command) never maps scipy's
24 MB library.

No thread count is ever set in a forked worker.  OpenBLAS shuts its thread
server down before a fork and the child inherits its parent's count, so
the child of a pinned parent runs on one thread with no helper; a set call
in the child would start the server again, one spinning helper thread per
library taking CPU from the other workers.  For the same reason
``one_blas_thread`` calls a setter only where the count differs, and a
caller that will fork loads LAPACK first: a library starts a spinning
helper when it loads, and the fork stops it.

The pivoted QR and triangular solves of the least-squares fit call LAPACK
in the OpenBLAS bundled with scipy the same way (``pivoted_qr``,
``solve_upper``), with the arguments and memory layouts ``scipy.linalg``
passes, so they return scipy's bits without importing scipy.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import importlib.util
import os
from contextlib import contextmanager

import numpy as np

from .errors import _integer


def _library_dirs(packages=("numpy", "scipy")) -> list:
    """The ``<package>.libs`` directories where wheels bundle OpenBLAS.

    Each package is located by its import spec, not imported, so pinning
    BLAS does not load scipy into a command that never uses it.
    """
    dirs = []
    for name in packages:
        spec = importlib.util.find_spec(name)
        if spec is not None and spec.origin is not None:
            dirs.append(os.path.join(os.path.dirname(os.path.dirname(spec.origin)),
                                     f"{name}.libs"))
    return dirs


def _thread_calls(lib):
    """(get_num_threads, set_num_threads) of the OpenBLAS ``lib``, or None."""
    for suffix in ("64_", ""):
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _if_loaded(path):
    """The library at ``path`` if this process has loaded it, else None.

    Where the platform cannot ask without loading (no ``RTLD_NOLOAD``),
    the library is loaded.
    """
    if not hasattr(os, "RTLD_NOLOAD"):
        return ctypes.CDLL(path)
    try:
        return ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:  # not loaded
        return None


def _openblas() -> list:
    """(path, get_num_threads, set_num_threads) of each bundled OpenBLAS
    this process has loaded."""
    found = []
    for libdir in _library_dirs():
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = _if_loaded(path)
            calls = None if lib is None else _thread_calls(lib)
            if calls is not None:
                found.append((path, *calls))
    return found


# each active one_blas_thread block's libraries, outermost first, as
# (path, get, set, count to restore)
_pinned: list = []


@contextmanager
def one_blas_thread():
    """Run the block with BLAS on one thread, then restore the caller's counts.

    Yields ``[(library path, caller's thread count)]`` for the loaded
    libraries it pinned: an empty list, and no effect, when none is
    found.  A setter is called only where the count differs, since each
    call starts the library's thread server if it is down, as it is after
    a fork.  A library that ``_lapack`` loads inside the block is pinned
    then, and restored by the outermost block.
    """
    libs = [(path, get, put, get()) for path, get, put in _openblas()]
    for _, _, put, count in libs:
        if count != 1:
            put(1)
    _pinned.append(libs)
    try:
        yield [(path, count) for path, _, _, count in libs]
    finally:
        _pinned.pop()
        for _, get, put, count in libs:
            if get() != count:
                put(count)


def _pin_on_load(path, lib) -> None:
    """Pin ``lib``, just loaded from ``path``, where a ``one_blas_thread``
    block is active and none pinned it; the outermost block restores it."""
    if not _pinned or any(path == pinned for libs in _pinned for pinned, *_ in libs):
        return
    calls = _thread_calls(lib)
    if calls is not None:
        get, put = calls
        count = get()
        if count != 1:
            put(1)
        _pinned[0].append((path, get, put, count))


_COL_MAJOR = 102  # LAPACK_COL_MAJOR


@functools.cache
def _lapack():
    """(dgeqp3, dorgqr, dtrtrs) of the OpenBLAS bundled with scipy, or None.

    These are the LAPACKE entry points of the library that ``scipy.linalg``
    itself calls, so the results carry scipy's bits.  This is the only
    code that loads that library, and it pins it where a
    ``one_blas_thread`` block is active.  None when no scipy library
    exports all three with 32-bit integers.
    """
    c_int, c_char, ptr = ctypes.c_int, ctypes.c_char, ctypes.c_void_p
    signatures = {"dgeqp3": [c_int, c_int, c_int, ptr, c_int, ptr, ptr],
                  "dorgqr": [c_int, c_int, c_int, c_int, ptr, c_int, ptr],
                  "dtrtrs": [c_int, c_char, c_char, c_char, c_int, c_int, ptr, c_int, ptr,
                             c_int]}
    for libdir in _library_dirs(("scipy",)):
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            _pin_on_load(path, lib)
            funcs = [getattr(lib, f"scipy_LAPACKE_{name}", None) for name in signatures]
            if all(funcs):
                for fn, argtypes in zip(funcs, signatures.values()):
                    fn.argtypes, fn.restype = argtypes, c_int
                return tuple(funcs)
    return None


def _lapack_call(fn, *args) -> None:
    info = fn(_COL_MAJOR, *args)
    if info != 0:  # every argument is checked first, and R has no zero pivot
        raise ValueError(f"LAPACK {fn.__name__} failed with info={info}")


def pivoted_qr(a):
    """(q, r, piv) with a[:, piv] = q r, as ``scipy.linalg.qr(a, "economic", pivoting=True)``.

    ``a`` is an (m, k) array of finite values with m >= k.  The same LAPACK
    calls on the same memory layouts as scipy's give the same bits; scipy
    is imported only where its OpenBLAS lacks the LAPACKE symbols.
    """
    lapack = _lapack()
    if lapack is None:
        import scipy.linalg
        return scipy.linalg.qr(a, mode="economic", pivoting=True, check_finite=False)
    geqp3, orgqr, _ = lapack
    qr = np.array(a, dtype=float, order="F")
    if qr.ndim != 2 or qr.shape[0] < qr.shape[1]:
        raise ValueError(f"pivoted_qr needs an (m, k) array with m >= k, got {qr.shape}")
    m, k = qr.shape
    piv, tau = np.zeros(k, dtype=np.int32), np.zeros(k)
    _lapack_call(geqp3, m, k, qr.ctypes.data, m, piv.ctypes.data, tau.ctypes.data)
    r = np.triu(qr[:k, :])
    _lapack_call(orgqr, m, k, k, qr.ctypes.data, m, tau.ctypes.data)
    return qr, r, piv - 1


def solve_upper(r, b):
    """x with r x = b for an upper-triangular r, as ``scipy.linalg.solve_triangular(r, b)``.

    ``r`` is the C-ordered (k, k) R of ``pivoted_qr`` and ``b`` (k,) or
    (k, m), both finite.  R's buffer is handed to LAPACK as the
    lower-triangular R^T, solving the transposed system, as scipy does for
    a C-ordered R: the same bits.
    """
    lapack = _lapack()
    if lapack is None:
        import scipy.linalg
        return scipy.linalg.solve_triangular(r, b, check_finite=False)
    r = np.asarray(r, dtype=float)
    x = np.array(b, dtype=float, order="F")
    k = r.shape[0]
    if r.shape != (k, k) or x.ndim not in (1, 2) or x.shape[0] != k:
        raise ValueError(f"solve_upper needs a (k, k) and a (k,) or (k, m) array, "
                         f"got {r.shape} and {x.shape}")
    lower = np.asfortranarray(r.T)  # R's own buffer, read column-major
    nrhs = 1 if x.ndim == 1 else x.shape[1]
    _lapack_call(lapack[2], b"L", b"T", b"N", k, nrhs, lower.ctypes.data, k, x.ctypes.data, k)
    return x


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_in_order(fn, items, n_workers):
    """``[fn(item) for item in items]``, over a process pool when ``n_workers`` > 1.

    The pool has at most one worker per item and per usable CPU and gives
    each worker contiguous chunks of items.  Results come back in item
    order, so whatever the caller adds up from them does not depend on the
    worker count.  ``fn`` runs with BLAS pinned to one thread: workers are
    forked from this pinned process, so each inherits that count and runs
    without BLAS helper threads; no count is set in a worker, since that
    would start its library's thread server again.  A two-worker pool is up
    in ~10 ms on a 2-core host, where workers started by spawn or forkserver
    (the default from Python 3.14 on Linux) import numpy and the package
    again and take ~1 s, about what a 500-tree forest saves on two cores.
    Where the platform cannot fork, the items run in this process.  The
    pool's modules are imported only where a pool starts, so a serial map,
    and any command that makes none, loads neither ``multiprocessing`` nor
    ``concurrent.futures``.
    """
    _integer(n_workers, "n_workers")
    items = list(items)
    n_workers = min(n_workers, len(items), usable_cpus())
    with one_blas_thread():
        if n_workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            if "fork" in multiprocessing.get_all_start_methods():
                with ProcessPoolExecutor(max_workers=n_workers,
                                         mp_context=multiprocessing.get_context("fork")) as pool:
                    return list(pool.map(fn, items,
                                         chunksize=max(1, len(items) // (4 * n_workers))))
        return [fn(item) for item in items]
