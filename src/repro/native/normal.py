"""The compiled standard-normal fill: load and self-check.

:file:`pcg64_normal.c` is a second implementation of numpy's
``Generator.standard_normal`` for ``PCG64`` generators (see its header).
It draws the same doubles and leaves the same generator state behind,
at a third of numpy's cost per value.  numpy stays the reference: the
kernel serves a draw only after this module has shown, once per
process, that it reproduces numpy on a fixed seed.  Whenever the kernel
cannot serve a draw, :func:`fill` returns False and the caller makes
numpy's own call.  The kernel cannot serve when there is no C compiler,
the build or the self-check fails, the generator is not ``PCG64``, or
the buffer is not a writable, C-contiguous float64 array.

The kernel lives in the one library :mod:`repro.native.library` builds
and caches; forked children inherit the loaded, checked kernel.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.native import library
from repro.native.library import Unavailable

#: Seed and size of the load-time comparison with numpy.  20000 values
#: run both rejection paths of the ziggurat (the tail about 5 times).
SELF_CHECK_SEED = 20040216
SELF_CHECK_VALUES = 20000

def _open(path):
    """The kernel function from the library at ``path``, fully typed."""
    return library.function(
        path,
        "repro_pcg64_fill_normal",
        (
            ctypes.c_void_p,  # the generator's pcg64_state
            ctypes.c_void_p,  # out: float64, C-contiguous, writable
            ctypes.c_int64,  # values to draw
            ctypes.c_double,  # loc
            ctypes.c_double,  # scale
            ctypes.c_int,  # nonzero: store loc + scale * z
        ),
    )


def _self_check(function) -> None:
    """Raise unless the kernel reproduces numpy's values and state."""
    from repro.streams import seeded_generator

    for loc, scale in ((None, 1.0), (0.0, 0.25)):
        reference = seeded_generator(SELF_CHECK_SEED)
        candidate = seeded_generator(SELF_CHECK_SEED)
        if loc is None:
            expected = reference.standard_normal(SELF_CHECK_VALUES)
        else:
            expected = reference.normal(loc, scale, SELF_CHECK_VALUES)
        got = np.empty(SELF_CHECK_VALUES)
        _call(function, candidate, got, scale, loc)
        if (
            got.tobytes() != expected.tobytes()
            or candidate.bit_generator.state != reference.bit_generator.state
        ):
            raise Unavailable("self-check against numpy failed")


#: The fill, loaded and self-checked on first use.
_kernel = library.Kernel(_open, _self_check)


def kernel():
    """The checked kernel function, or None when numpy must draw.

    Builds, loads and checks on the first call of the process; later
    calls, and forked children, reuse that outcome.
    """
    return _kernel.functions()


def status() -> str:
    """``native`` when the kernel serves draws, else ``numpy: <reason>``."""
    return _kernel.status()


def _call(function, generator, out: np.ndarray, scale: float, loc) -> None:
    bit_generator = generator.bit_generator
    address = library.address(out)
    with bit_generator.lock:
        function(
            bit_generator.ctypes.state_address,
            address,
            out.size,
            0.0 if loc is None else float(loc),
            scale,
            loc is not None,
        )


def fill(generator, out: np.ndarray, scale=1.0, loc=None) -> bool:
    """Fill ``out`` from ``generator`` with the kernel, if it can serve.

    Stores ``scale * z`` for standard normals ``z``, or ``loc + scale *
    z`` when ``loc`` is given (numpy's ``Generator.normal``), bit for
    bit as numpy computes them, advancing the generator as numpy would.
    Returns False, with nothing drawn, when the kernel cannot serve:
    then the caller draws with numpy (which also raises on a negative
    ``scale`` with ``loc``, as ``Generator.normal`` does).
    """
    function = kernel()
    if (
        function is None
        or type(getattr(generator, "bit_generator", None)) is not np.random.PCG64
        or type(out) is not np.ndarray
        or out.dtype != np.float64
        or not out.size
        or not out.flags.c_contiguous
        or not out.flags.writeable
        or not isinstance(scale, (float, int))
        or not isinstance(loc, (float, int, type(None)))
        or (loc is not None and not scale >= 0.0)
    ):
        return False
    _call(function, generator, out, float(scale), loc)
    return True
