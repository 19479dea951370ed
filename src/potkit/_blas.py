"""BLAS held to one thread.

Each OpenBLAS call that splits its work over threads wakes the BLAS worker
threads, which then spin for a while.  On a 2-core box that doubles the
process's CPU time for no gain, and when another process takes a core the
spinning worker competes with the caller: measured on the duality-roundtrip
preset, a busy-looping neighbour process nearly doubled its run time with two BLAS
threads and left it unchanged with one.  potkit's kernel sums and long dots
therefore run inside `one_thread`, and their last bits do not follow the
thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path

import numpy as np

SPLIT_MIN = 10_000  # OpenBLAS's ddot runs on one thread up to this many terms


@functools.cache  # looked up on first use: a process that never holds pays nothing
def _thread_api():
    """(get, set) of the thread count of the scipy-openblas that numpy wheels
    bundle, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.restype = ctypes.c_int
            return get, put
    return None


# the thread count is process-wide: the first of the overlapping holders saves
# it and sets one thread, the last restores it
_LOCK = threading.Lock()
_holders = 0
_saved = 1


@contextlib.contextmanager
def one_thread():
    """Hold BLAS to one thread inside the block (BLAS calls from other threads
    too); a no-op when numpy's BLAS is not the bundled scipy-openblas."""
    global _holders, _saved
    api = _thread_api()
    if api is None:
        yield
        return
    with _LOCK:
        if _holders == 0:
            _saved = api[0]()
            if _saved > 1:
                api[1](1)
        _holders += 1
    try:
        yield
    finally:
        with _LOCK:
            _holders -= 1
            if _holders == 0 and _saved > 1:
                api[1](_saved)


def dot(w: np.ndarray, v: np.ndarray) -> float:
    """sum_i w_i v_i of two contiguous float vectors by np.vdot on one thread:
    beyond SPLIT_MIN terms under `one_thread`.  Like np.vdot it raises no
    floating-point warning."""
    if len(w) <= SPLIT_MIN:
        return float(np.vdot(w, v))
    with one_thread():
        return float(np.vdot(w, v))
