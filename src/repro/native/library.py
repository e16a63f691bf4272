"""Build, cache and open the one compiled library of :mod:`repro.native`.

:file:`stage_chain.c` includes :file:`pcg64_normal.c`, so one shared
library holds the PCG64 fill of standard normals, the exact stage
chain and the stage-1 front end.  :mod:`repro.native.chain` opens all of its
functions through one :class:`Kernel`, which checks them against numpy
before they serve anything.

The first process to need the library compiles the shipped sources with
the system C compiler (the one Python was built with, else ``cc``).  It
caches the shared library in a directory only the current user can
write: ``$XDG_CACHE_HOME/repro-adc`` or ``~/.cache/repro-adc``.  The
file name carries a digest of everything the build depends on: both
sources, the compiler command, the flags, the instruction-set level, the
numpy version and the platform.  So a changed flag never reuses a stale
build, and a cache directory shared between hosts never hands an AVX2
build to a CPU without AVX2.  A build lands under its final name through
an atomic rename, so concurrent processes never load a half-written
library.  Forked children inherit the loaded library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import stat
import subprocess
import sysconfig
import tempfile
import threading
from collections.abc import Callable
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("stage_chain.c")
#: Every file the build reads: the chain source and the fill it includes.
SOURCES = (SOURCE, Path(__file__).with_name("pcg64_normal.c"))
#: Flags the build depends on.  No fused multiply-add, so every
#: expression rounds as numpy's does; -O3 (not -O2) vectorizes the
#: residue loops, and without trapping math the vectorizer may
#: if-convert their selects.  Without errno, sqrt is the bare IEEE
#: instruction and the front end's loops vectorize.  None of them
#: changes a value.
CFLAGS = (
    "-O3",
    "-ffp-contract=off",
    "-fno-trapping-math",
    "-fno-math-errno",
    "-fPIC",
    "-shared",
)
#: The x86-64 level the build targets when the CPU has it: AVX2 and FMA
#: (FMA stays unused, see CFLAGS).  Below it the int64 compares of the
#: residue loops do not vectorize.
X86_64_V3 = ("-march=x86-64-v3",)


class Unavailable(Exception):
    """The library cannot serve this process; the message says why."""


def cache_dir() -> Path:
    """The per-user directory holding compiled libraries."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro-adc"


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def isa_flags() -> tuple[str, ...]:
    """The instruction-set flags for this CPU, as numpy detected it."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return ()
    features = _cpu_features()
    if all(features.get(name) for name in ("AVX2", "FMA3", "F16C")):
        return X86_64_V3
    return ()


def compiler() -> list[str]:
    """The C compiler command: Python's own, else ``cc``."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _compiler_flags() -> list[str]:
    return [*compiler(), *CFLAGS, *isa_flags()]


def library_name() -> str:
    """The cached library's file name, keyed by all the build depends on."""
    key = hashlib.sha256()
    for source in SOURCES:
        key.update(source.read_bytes())
    build = (shlex.join(_compiler_flags()), np.__version__, sysconfig.get_platform())
    key.update("|".join(build).encode())
    return f"repro-native-{key.hexdigest()[:20]}.so"


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
    """Build the library into ``target`` through a temp file and a rename."""
    fd, temp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        command = [*_compiler_flags(), "-o", temp, str(SOURCE), "-lm"]
        try:
            result = subprocess.run(
                command, capture_output=True, text=True, timeout=120, check=False
            )
        except (OSError, subprocess.SubprocessError) as error:
            raise Unavailable(f"no C compiler ({command[0]}: {error})") from None
        if result.returncode != 0:
            first = (result.stderr.strip().splitlines() or ["no output"])[0]
            raise Unavailable(f"compile failed: {first}")
        os.replace(temp, target)
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


def build() -> Path:
    """The cached library's path, compiled first if it is not there."""
    path = _private_dir(cache_dir()) / library_name()
    if not path.is_file():
        _compile(path)
    return path


def function(path: Path, name: str, argtypes: tuple, restype=None):
    """The typed function ``name`` of the library at ``path``."""
    try:
        found = getattr(ctypes.CDLL(str(path)), name)
    except (OSError, AttributeError) as error:
        raise Unavailable(f"load failed: {error}") from None
    found.argtypes = argtypes
    found.restype = restype
    return found


def address(array: np.ndarray) -> int:
    """The data address of a C-contiguous array, for a ctypes call.

    About 0.4 us for a writable array against 1.5 us for
    ``array.ctypes.data``: the fixed cost per call decides how short a
    record can still gain from a compiled call.
    """
    if array.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


class Kernel:
    """Functions of the library, loaded and self-checked once per process.

    ``open_`` returns the functions from a library path; ``self_check``
    raises :class:`Unavailable` unless they reproduce numpy.  The first
    :meth:`functions` call builds, opens and checks under a lock, so
    threads that start at once load the library once; later calls, and
    forked children, reuse the outcome.
    """

    def __init__(
        self,
        open_: Callable[[Path], object],
        self_check: Callable[[object], None],
    ):
        self._open = open_
        self._self_check = self_check
        self._lock = threading.Lock()
        #: (functions or None, status line); None until first loaded.
        self.loaded: tuple[object | None, str] | None = None

    def load(self) -> tuple[object | None, str]:
        """Build, open and check now: (functions or None, status line)."""
        try:
            functions = self._open(build())
            self._self_check(functions)
        except (Unavailable, OSError, RuntimeError) as error:
            return None, f"numpy: {error}"
        return functions, "native"

    def functions(self):
        """The checked functions, or None when numpy must compute."""
        loaded = self.loaded
        if loaded is None:
            with self._lock:
                if self.loaded is None:
                    self.loaded = self.load()
                loaded = self.loaded
        return loaded[0]

    def status(self) -> str:
        """``native`` when the functions serve, else ``numpy: <reason>``."""
        self.functions()
        assert self.loaded is not None
        return self.loaded[1]
