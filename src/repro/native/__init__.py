"""Native helpers outside the engine layer, reached through ctypes.

* :mod:`repro.native.library` — builds and caches the one compiled
  library.
* :mod:`repro.native.chain` — its one loader: loads the library,
  self-checks it against numpy once per process and reports one status
  for it.  It serves the PCG64 fill of standard normals behind the
  dense noise draws of :mod:`repro.streams`, the exact stage chain
  behind one die's 1-D records in :mod:`repro.core`, and the stage-1
  sampling front end behind ``PipelineAdc.convert`` for a
  transmission-gate input switch.
* :mod:`repro.native.blas` — the BLAS thread count of numpy's bundled
  OpenBLAS, pinned to one thread while a process pool runs.

Each one degrades to plain numpy behaviour when its native side is
missing.
"""


def preload() -> None:
    """Build, load and check the compiled library now.

    A process calls this before it forks workers, so every child inherits
    the checked library instead of repeating the work.
    """
    from repro.native import chain

    chain.kernel()
