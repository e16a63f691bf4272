"""Native helpers outside the engine layer, reached through ctypes.

* :mod:`repro.native.normal` — the compiled, self-checked PCG64
  standard-normal fill behind the conversion-noise draws of
  :mod:`repro.streams`.
* :mod:`repro.native.blas` — the BLAS thread count of numpy's bundled
  OpenBLAS, pinned to one thread while a process pool runs.

Each one degrades to plain numpy behaviour when its native side is
missing.
"""
