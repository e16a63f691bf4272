"""One BLAS thread while a process pool runs.

numpy's bundled OpenBLAS starts one thread per CPU in every process.
Forked pool workers each inherit that setting, so their concurrent
``lstsq`` solves (the per-die calibration fits) oversubscribe the
machine and run about twice as slow as with one thread each.
:func:`one_thread` pins the count in the parent before the fork and
restores it afterwards.  It talks to the library through the
``scipy_openblas_{get,set}_num_threads64_`` entry points and does
nothing where numpy carries no such library.  The thread count moves no
result bit: the solves are identical under 1, 2 and the default number
of OpenBLAS threads.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_LIBRARY_GLOB = "libscipy_openblas*.so*"


@functools.cache
def _entry_points() -> tuple | None:
    """(get, set) of numpy's bundled OpenBLAS, or None without one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob(_LIBRARY_GLOB)):
        try:
            library = ctypes.CDLL(str(path))
            get = library.scipy_openblas_get_num_threads64_
            set_ = library.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


@contextmanager
def one_thread():
    """Run the block with one BLAS thread, then restore the old count."""
    entry_points = _entry_points()
    if entry_points is None:
        yield
        return
    get, set_ = entry_points
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
