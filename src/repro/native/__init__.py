"""Native helpers outside the engine layer, reached through ctypes.

* :mod:`repro.native.library` — builds and caches the one compiled
  library the two kernels below live in.
* :mod:`repro.native.normal` — the compiled, self-checked PCG64
  standard-normal fill behind the conversion-noise draws of
  :mod:`repro.streams`.
* :mod:`repro.native.chain` — the compiled, self-checked exact stage
  chain behind one die's 1-D records in :mod:`repro.core`.
* :mod:`repro.native.blas` — the BLAS thread count of numpy's bundled
  OpenBLAS, pinned to one thread while a process pool runs.

Each one degrades to plain numpy behaviour when its native side is
missing.
"""


def preload() -> None:
    """Build, load and check the compiled kernels now.

    A process calls this before it forks workers, so every child
    inherits the checked kernels instead of repeating the work.
    """
    from repro.native import chain, normal

    normal.kernel()
    chain.kernel()
