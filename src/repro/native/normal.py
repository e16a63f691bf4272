"""The compiled standard-normal fill: build, cache, load, self-check.

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

The first process to need the kernel compiles the shipped source with
the system C compiler (the one Python was built with, else ``cc``).  It
caches the shared library in a directory only the current user can
write: ``$XDG_CACHE_HOME/repro-adc`` or ``~/.cache/repro-adc``.  The
file name carries a digest of the source, the numpy version and the
platform.  A build lands under its final name through an atomic
rename, so concurrent processes never load a half-written library.
Forked children inherit the loaded, checked library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import stat
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("pcg64_normal.c")
#: Flags the kernel's bit-exactness depends on: no fused multiply-add.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
#: Seed and size of the load-time comparison with numpy.  20000 values
#: run both rejection paths of the ziggurat (the tail about 5 times).
SELF_CHECK_SEED = 20040216
SELF_CHECK_VALUES = 20000

#: (kernel or None, status line); None until the first :func:`kernel`.
_loaded: tuple[object | None, str] | None = None


class Unavailable(Exception):
    """The kernel cannot serve this process; the message says why."""


def cache_dir() -> Path:
    """The per-user directory holding compiled kernels."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro-adc"


def library_name() -> str:
    """The cached library's file name: keyed by source, numpy, platform."""
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(f"|{np.__version__}|{sysconfig.get_platform()}".encode())
    return f"pcg64_normal-{key.hexdigest()[:20]}.so"


def _private_dir(path: Path) -> Path:
    """``path`` created if needed, owned by this user and mode 0o700."""
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = os.lstat(path)
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid():
        raise Unavailable(f"cache directory {path} is not this user's")
    if stat.S_IMODE(info.st_mode) != 0o700:
        os.chmod(path, 0o700)
    return path


def _compile(target: Path) -> None:
    """Build the kernel into ``target`` through a temp file and a rename."""
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    fd, temp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        command = [*compiler, *CFLAGS, "-o", temp, str(SOURCE), "-lm"]
        try:
            result = subprocess.run(
                command, capture_output=True, text=True, timeout=120, check=False
            )
        except (OSError, subprocess.SubprocessError) as error:
            raise Unavailable(f"no C compiler ({compiler[0]}: {error})") from None
        if result.returncode != 0:
            first = (result.stderr.strip().splitlines() or ["no output"])[0]
            raise Unavailable(f"compile failed: {first}")
        os.replace(temp, target)
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


def _open(path: Path):
    """The kernel function from the library at ``path``, fully typed."""
    try:
        function = ctypes.CDLL(str(path)).repro_pcg64_fill_normal
    except (OSError, AttributeError) as error:
        raise Unavailable(f"load failed: {error}") from None
    function.argtypes = (
        ctypes.c_void_p,  # the generator's pcg64_state
        ctypes.c_void_p,  # out: float64, C-contiguous, writable
        ctypes.c_int64,  # values to draw
        ctypes.c_double,  # loc
        ctypes.c_double,  # scale
        ctypes.c_int,  # nonzero: store loc + scale * z
    )
    function.restype = None
    return function


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


def _load() -> tuple[object | None, str]:
    try:
        directory = _private_dir(cache_dir())
        path = directory / library_name()
        if not path.is_file():
            _compile(path)
        function = _open(path)
        _self_check(function)
    except (Unavailable, OSError, RuntimeError) as error:
        return None, f"numpy: {error}"
    return function, "native"


def kernel():
    """The checked kernel function, or None when numpy must draw.

    Builds, loads and checks on the first call of the process; later
    calls, and forked children, reuse that outcome.
    """
    global _loaded
    if _loaded is None:
        _loaded = _load()
    return _loaded[0]


def status() -> str:
    """``native`` when the kernel serves draws, else ``numpy: <reason>``."""
    kernel()
    assert _loaded is not None
    return _loaded[1]


def _call(function, generator, out: np.ndarray, scale: float, loc) -> None:
    bit_generator = generator.bit_generator
    # About 0.4 us against 1.5 us for ``out.ctypes.data``: the fixed
    # cost per call decides how short a draw can still gain.
    address = ctypes.addressof(ctypes.c_char.from_buffer(out))
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
