"""The compiled exact stage chain: load, self-check, and the calls.

:file:`stage_chain.c` is a second implementation of the exact tier's
per-stage work on one die's 1-D record: the comparator banks of
:meth:`~repro.core.subadc.SubAdc.decide` and
:meth:`~repro.core.flash.FlashBackend.decide`, the residue transfer of
:meth:`~repro.core.mdac.Mdac.amplify`, and
:meth:`~repro.core.correction.DigitalCorrection.combine`.  One C call
per stage decides, draws every number numpy would draw (from the same
``PCG64`` state and in the same order), and computes the residues of the
samples that settle linearly.  numpy's own ``np.exp`` then runs in place
over the compact exp arguments of the slewing samples, and a second,
short C call finishes those.  So the codes, the residue bytes and the
generator state are the ones numpy computes, operation for operation.

numpy stays the reference and the fallback.  The chain serves only after
this module has shown, once per process, that one short conversion gives
the same codes, residue bytes and generator state through both paths.
The model classes call :func:`kernel` and take numpy's path when it is
None: no C compiler, a failed build or self-check, another bit
generator, or a record that is not 1-D.

Scratch arrays (the opamp noise, the near-band and slewing lists, the
exp arguments) live in a per-thread workspace that only grows.  No
public method returns a view of it.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.native import library
from repro.native.library import Unavailable
from repro.profiling import record

#: Layout of the MDAC parameter vector (the enum in stage_chain.c).
MDAC_FIELDS = (
    "one_plus_ratio",
    "ratio",
    "gain",
    "sampling_rms",
    "opamp_rms",
    "knee",
    "slew_rate",
    "tau",
    "decay",
    "settle_time",
    "swing",
    "neg_compression",
)
#: Impairment switches of the MDAC (the flags in stage_chain.c).
SAMPLING_NOISE, OPAMP_NOISE, SETTLING = 1, 2, 4
#: Seed and record length of the load-time comparison with numpy.
SELF_CHECK_SEED = 20040218
SELF_CHECK_SAMPLES = 700

_POINTER = ctypes.c_void_p
_INT = ctypes.c_int64


@dataclass(frozen=True)
class _Functions:
    stage: object
    finish: object
    bank: object
    combine: object


def _open(path) -> _Functions:
    return _Functions(
        stage=library.function(
            path,
            "repro_stage_chain",
            (_POINTER, _POINTER, _POINTER, _INT, _POINTER, _POINTER, _INT)
            + (_POINTER,) * 6,
            _INT,
        ),
        finish=library.function(
            path,
            "repro_stage_finish",
            (_INT, _POINTER, _POINTER, _POINTER, _POINTER, _POINTER, _INT, _POINTER),
        ),
        bank=library.function(
            path,
            "repro_bank_decide",
            (_POINTER, _POINTER, _INT, _POINTER, _INT, _INT, _POINTER, _POINTER, _POINTER),
        ),
        combine=library.function(
            path,
            "repro_combine",
            (_POINTER, _INT, _INT, _POINTER, _INT, _POINTER, _INT, _INT, _INT, _POINTER),
            _INT,
        ),
    )


class _Workspace(threading.local):
    """Per-thread scratch, grown to the longest record seen."""

    size = 0

    def arrays(self, n: int):
        if n > self.size:
            self.size = max(n, 2 * self.size)
            self.noise = np.empty(self.size)
            self.index = np.empty(self.size, dtype=np.int64)
            self.target = np.empty(self.size)
            self.args = np.empty(self.size)
            self.addresses = tuple(
                library.address(a)
                for a in (self.noise, self.index, self.target, self.args)
            )
        return self


_workspace = _Workspace()


def _self_check_run(ramp: np.ndarray) -> list[bytes]:
    """One record through every stage, the flash and the correction.

    Returns the bytes to compare: each stage's codes and residues, the
    flash codes, the output words and the final generator state.
    """
    from repro.core.adc import PipelineAdc
    from repro.core.config import AdcConfig
    from repro.streams import seeded_generator

    # A wide metastability window makes the comparators toss coins too.
    config = AdcConfig.paper_default()
    config = replace(
        config,
        comparator=replace(config.comparator, metastability_window=1e-3),
        flash_comparator=replace(config.flash_comparator, metastability_window=1e-3),
    )
    adc = PipelineAdc(config, 200e6, seed=SELF_CHECK_SEED)
    generator = seeded_generator(SELF_CHECK_SEED)
    references = adc._stage_references(ramp.size, generator)
    stage_codes = np.empty((len(adc.stages), ramp.size), dtype=np.int64)
    found = []
    residue = ramp
    for stage, refs in zip(adc.stages, references):
        output = stage.process(
            residue, refs, adc.operating_point, generator,
            codes_out=stage_codes[stage.index],
        )
        found += [output.codes.tobytes(), output.residues.tobytes()]
        residue = output.residues
    flash = adc.flash.decide(residue, generator)
    words = adc.correction.combine(stage_codes.T, flash)
    found += [flash.tobytes(), words.tobytes()]
    found.append(repr(generator.bit_generator.state).encode())
    return found


class _Override(threading.local):
    """What :func:`kernel` returns to this thread during the self-check."""

    active = False
    functions: _Functions | None = None


_override = _Override()


def _self_check(functions: _Functions) -> None:
    """Raise unless the chain reproduces the numpy path bit for bit.

    An in-range ramp takes the sparse slewing branch, an overdriven one
    numpy's dense branch.
    """
    ramp = np.linspace(-1.1, 1.1, SELF_CHECK_SAMPLES)
    _override.active = True
    try:
        for record_ in (ramp, 6.0 * ramp):
            runs = []
            for candidate in (functions, None):
                _override.functions = candidate
                runs.append(_self_check_run(record_))
            if runs[0] != runs[1]:
                raise Unavailable("self-check against numpy failed")
    finally:
        _override.active = False


#: The chain, loaded and self-checked on first use.
_kernel = library.Kernel(_open, _self_check)


def kernel() -> _Functions | None:
    """The checked chain functions, or None when numpy must compute.

    Builds, loads and checks on the first call of the process; later
    calls, and forked children, reuse that outcome.
    """
    if _override.active:
        return _override.functions
    return _kernel.functions()


def status() -> str:
    """``native`` when the chain serves, else ``numpy: <reason>``."""
    return _kernel.status()


def serves(generator, inputs) -> _Functions | None:
    """The chain functions if they can serve this draw, else None.

    They serve a ``PCG64`` generator and a non-empty, 1-D, C-contiguous
    float64 record.
    """
    if (
        type(inputs) is not np.ndarray
        or inputs.ndim != 1
        or inputs.dtype != np.float64
        or not inputs.size
        or not inputs.flags.c_contiguous
        or type(getattr(generator, "bit_generator", None)) is not np.random.PCG64
    ):
        return None
    return kernel()


def stage(
    functions: _Functions,
    generator,
    inputs: np.ndarray,
    references: np.ndarray,
    bank: np.ndarray,
    mdac: np.ndarray,
    flags: int,
    codes: np.ndarray,
    residues: np.ndarray,
) -> None:
    """One stage: decide into ``codes``, amplify into ``residues``.

    ``references`` is a C-contiguous float64 record like ``inputs``;
    ``codes`` (int64) and ``residues`` (float64) are writable,
    C-contiguous and do not overlap the inputs.
    """
    n = inputs.size
    work = _workspace.arrays(n)
    noise, index, target, args = work.addresses
    bit_generator = generator.bit_generator
    residues_address = library.address(residues)
    mdac_address = library.address(mdac)
    with record("chain", "native"), bit_generator.lock:
        listed = functions.stage(
            bit_generator.ctypes.state_address,
            library.address(inputs),
            library.address(references),
            n,
            library.address(bank),
            mdac_address,
            flags,
            library.address(codes),
            residues_address,
            noise,
            index,
            target,
            args,
        )
    if listed:
        with record("chain", "exp"):
            exponent = work.args[:listed]
            np.exp(exponent, out=exponent)
        with record("chain", "native"):
            functions.finish(
                listed, index, target, args, noise, mdac_address, flags,
                residues_address,
            )


def bank(
    functions: _Functions, generator, inputs: np.ndarray, parameters: np.ndarray,
    count: int, base: int,
) -> np.ndarray:
    """A comparator bank's summed decisions plus ``base``, as a new array."""
    n = inputs.size
    work = _workspace.arrays(n)
    _, index, target, _ = work.addresses
    codes = np.empty(n, dtype=np.int64)
    bit_generator = generator.bit_generator
    with bit_generator.lock:
        functions.bank(
            bit_generator.ctypes.state_address,
            library.address(inputs),
            n,
            library.address(parameters),
            count,
            base,
            library.address(codes),
            index,
            target,
        )
    return codes


def combine(
    functions: _Functions,
    codes: np.ndarray,
    flash: np.ndarray,
    weights: np.ndarray,
    base: int,
    flash_levels: int,
    top: int,
) -> tuple[np.ndarray, int] | None:
    """Words of one record clipped to [0, top], and the C status.

    ``codes`` is an int64 (samples, stages) view of a stage-major
    buffer, ``flash`` an int64 record, ``weights`` an int64 vector.  The
    status is 0, or 1 for a stage code out of range, or 2 for a flash
    code out of range.  None when the layout is not one the chain reads.
    """
    itemsize = codes.itemsize
    if (
        codes.strides[0] != itemsize
        or codes.strides[1] % itemsize
        or not flash.flags.c_contiguous
        or not weights.flags.c_contiguous
    ):
        return None
    n = flash.shape[0]
    out = np.empty(n, dtype=np.int64)
    status_ = functions.combine(
        codes.ctypes.data,
        codes.strides[1] // itemsize,
        codes.shape[1],
        flash.ctypes.data,
        n,
        weights.ctypes.data,
        base,
        flash_levels,
        top,
        library.address(out),
    )
    return out, status_
