"""The compiled library's Python side: load, self-check, calls.

One library holds three kernels, loaded and self-checked together here:
the PCG64 fill of standard normals behind every dense draw of
:mod:`repro.streams` (:func:`fill`), the exact stage chain and the
stage-1 front end.

:file:`pcg64_normal.c` is a second implementation of numpy's
``Generator.standard_normal`` for ``PCG64`` generators (see its header).
It draws the same doubles and leaves the same generator state behind,
at a third of numpy's cost per value.

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
:func:`run` makes those calls for every stage of a record in one loop,
on the :class:`ChainBlock` of constants the die computed when it was
built.

The same library holds the stage-1 front end of
:meth:`~repro.analog.sampling.SamplingNetwork.acquire` for a
transmission-gate input switch: tracking, charge-injection pedestal and
droop, up to the kT/C noise.  One C pass checks the rails and writes the
arguments of its two transcendentals; numpy's own ``np.logaddexp`` (the
subthreshold softplus) and ``np.power`` (the junction grading) run in
place over them; a second pass finishes every sample (:func:`acquire`).

numpy stays the reference and the fallback.  The library serves only
after this module has shown, once per process, that the fill draws
numpy's values and leaves numpy's state on a fixed seed, and that a
short ramp through every stage and a short jittered tone through
:meth:`~repro.core.adc.PipelineAdc.convert` give the same held record,
codes, residue bytes and generator state through both paths.  The model
classes call :func:`kernel` and take numpy's path when it is None: no C
compiler, a failed build or self-check, another bit generator, or a
record that is not 1-D.

Scratch arrays (the opamp noise, the near-band and slewing lists, the
exp arguments, the front end's softplus and power arguments) live in a
per-thread workspace that only grows.  No public method returns a view
of it.
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
#: Layout of the front-end parameter vector (the enum in stage_chain.c).
FRONTEND_FIELDS = (
    "common_mode",
    "low_rail",
    "high_rail",
    "supply",
    "phi",
    "sqrt_phi",
    "gamma",
    "nmos_vth0",
    "pmos_vth0",
    "pmos_vth_zero",
    "smoothing",
    "nmos_beta",
    "pmos_beta",
    "theta",
    "junction_potential",
    "nmos_junction",
    "pmos_junction",
    "pmos_junction_zero",
    "hold",
    "side",
    "suppression",
    "nmos_channel",
    "pmos_channel",
    "droop",
    "droop_nonlinearity",
)
#: Front-end switch: the PMOS bulk is tied to its source (the flag in
#: stage_chain.c).
BULK_SWITCHED = 1
#: Seed and size of the load-time comparison of the fill with numpy.
#: 20000 values run both rejection paths of the ziggurat (the tail
#: about 5 times).
FILL_CHECK_SEED = 20040216
FILL_CHECK_VALUES = 20000
#: Seed and record length of the load-time comparison with numpy.
SELF_CHECK_SEED = 20040218
SELF_CHECK_SAMPLES = 700
#: Output words of the load-time tone through the front end.
SELF_CHECK_TONE_SAMPLES = 256

_POINTER = ctypes.c_void_p
_INT = ctypes.c_int64


@dataclass(frozen=True)
class _Functions:
    fill: object
    stage: object
    finish: object
    bank: object
    combine: object
    track: object
    hold: object


def _open(path) -> _Functions:
    return _Functions(
        fill=library.function(
            path,
            "repro_pcg64_fill_normal",
            (
                _POINTER,  # the generator's pcg64_state
                _POINTER,  # out: float64, C-contiguous, writable
                _INT,  # values to draw
                ctypes.c_double,  # loc
                ctypes.c_double,  # scale
                ctypes.c_int,  # nonzero: store loc + scale * z
            ),
        ),
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
        track=library.function(
            path,
            "repro_frontend_track",
            (_POINTER, _INT, _POINTER, _INT, _POINTER, _POINTER, _POINTER),
            _INT,
        ),
        hold=library.function(
            path,
            "repro_frontend_hold",
            (_POINTER, _POINTER, _INT, _POINTER, _INT) + (_POINTER,) * 4,
            _INT,
        ),
    )


class _Workspace(threading.local):
    """Per-thread scratch, grown to the longest record seen."""

    size = 0
    frontend_size = 0

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

    def frontend(self, n: int) -> np.ndarray:
        """12 n doubles: softplus arguments, overdrives, power bases."""
        if n > self.frontend_size:
            self.frontend_size = max(n, 2 * self.frontend_size)
            self.frontend_buffer = np.empty(12 * self.frontend_size)
        return self.frontend_buffer


_workspace = _Workspace()


def _self_check_run(ramp: np.ndarray) -> list[bytes]:
    """One record through every stage, the flash and the correction.

    The stages run through :func:`repro.core.stage.run_stages`, the
    call ``PipelineAdc`` converts with, keeping every stage's residue
    row.  Returns the bytes to compare: the stage codes, every stage's
    residues, the flash codes, the output words and the final generator
    state.
    """
    from repro.core.adc import PipelineAdc
    from repro.core.config import AdcConfig
    from repro.core.stage import run_stages
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
    shape = (len(adc.stages), ramp.size)
    stage_codes, residues = np.empty(shape, dtype=np.int64), np.empty(shape)
    residue = run_stages(
        adc.stages, adc._chain_block, ramp, references, adc.operating_point,
        generator, stage_codes, residues,
    )
    flash = adc.flash.decide(residue, generator)
    words = adc.correction.combine(stage_codes.T, flash)
    return [
        stage_codes.tobytes(),
        residues.tobytes(),
        flash.tobytes(),
        words.tobytes(),
        repr(generator.bit_generator.state).encode(),
    ]


def _self_check_tone(style) -> list[bytes]:
    """A jittered tone through ``PipelineAdc.convert`` with this input
    switch: the held record, the output words and the final state of the
    conversion's generator."""
    from repro.core.adc import PipelineAdc
    from repro.core.config import AdcConfig
    from repro.signal.generators import SineGenerator

    config = AdcConfig.paper_default().with_switch_style(style)
    adc = PipelineAdc(config, 110e6, seed=SELF_CHECK_SEED)
    original = adc._acquire
    acquired = []

    def acquire(values, derivatives, rng):
        held = original(values, derivatives, rng)
        acquired.append((held, rng))
        return held

    adc._acquire = acquire
    n = SELF_CHECK_TONE_SAMPLES
    tone = SineGenerator.coherent(40e6, 110e6, n, amplitude=0.995)
    codes = adc.convert(tone, n).codes
    ((held, generator),) = acquired
    return [
        held.tobytes(),
        codes.tobytes(),
        repr(generator.bit_generator.state).encode(),
    ]


class _Override(threading.local):
    """What :func:`kernel` returns to this thread during the self-check."""

    active = False
    functions: _Functions | None = None


_override = _Override()


def _self_check_fill(function) -> None:
    """Raise unless the fill reproduces numpy's values and state."""
    from repro.streams import seeded_generator

    for loc, scale in ((None, 1.0), (0.0, 0.25)):
        reference = seeded_generator(FILL_CHECK_SEED)
        candidate = seeded_generator(FILL_CHECK_SEED)
        if loc is None:
            expected = reference.standard_normal(FILL_CHECK_VALUES)
        else:
            expected = reference.normal(loc, scale, FILL_CHECK_VALUES)
        got = np.empty(FILL_CHECK_VALUES)
        _fill(function, candidate, got, scale, loc)
        if (
            got.tobytes() != expected.tobytes()
            or candidate.bit_generator.state != reference.bit_generator.state
        ):
            raise Unavailable("self-check against numpy failed")


def _self_check(functions: _Functions) -> None:
    """Raise unless the library reproduces the numpy path bit for bit.

    The fill first, on its own; then two ramps and two tones, each run
    once on the library and once with every number drawn and computed
    by numpy.  An in-range ramp takes the sparse slewing branch, an
    overdriven one numpy's dense branch; a tone through each
    transmission-gate switch takes the front end.
    """
    from repro.core.config import SwitchStyle

    _self_check_fill(functions.fill)
    ramp = np.linspace(-1.1, 1.1, SELF_CHECK_SAMPLES)
    checks = [(_self_check_run, record_) for record_ in (ramp, 6.0 * ramp)]
    checks += [
        (_self_check_tone, style)
        for style in (SwitchStyle.BULK_SWITCHED, SwitchStyle.TRANSMISSION_GATE)
    ]
    _override.active = True
    try:
        for run, argument in checks:
            runs = []
            for candidate in (functions, None):
                _override.functions = candidate
                runs.append(run(argument))
            if runs[0] != runs[1]:
                raise Unavailable("self-check against numpy failed")
    finally:
        _override.active = False


#: The library, loaded and self-checked on first use.
_kernel = library.Kernel(_open, _self_check)


def kernel() -> _Functions | None:
    """The checked library functions, or None when numpy must compute.

    Builds, loads and checks on the first call of the process; later
    calls, and forked children, reuse that outcome.
    """
    if _override.active:
        return _override.functions
    return _kernel.functions()


def status() -> str:
    """``native`` when the library serves, else ``numpy: <reason>``."""
    return _kernel.status()


def _fill(function, generator, out: np.ndarray, scale: float, loc) -> None:
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
    """Fill ``out`` from ``generator`` with the library, if it can serve.

    Stores ``scale * z`` for standard normals ``z``, or ``loc + scale *
    z`` when ``loc`` is given (numpy's ``Generator.normal``), bit for
    bit as numpy computes them, advancing the generator as numpy would.
    Returns False, with nothing drawn, when the library cannot serve:
    not loaded, a bit generator other than ``PCG64``, a buffer that is
    not a writable, C-contiguous float64 array.  Then the caller draws
    with numpy (which also raises on a negative ``scale`` with ``loc``,
    as ``Generator.normal`` does).
    """
    functions = kernel()
    if (
        functions is None
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
    _fill(functions.fill, generator, out, float(scale), loc)
    return True


def _is_record(inputs) -> bool:
    """Whether ``inputs`` is a non-empty, 1-D, C-contiguous float64 array."""
    return (
        type(inputs) is np.ndarray
        and inputs.ndim == 1
        and inputs.dtype == np.float64
        and inputs.size > 0
        and inputs.flags.c_contiguous
    )


def serves(generator, inputs) -> _Functions | None:
    """The chain functions if they can serve this draw, else None.

    They serve a ``PCG64`` generator and a non-empty, 1-D, C-contiguous
    float64 record.
    """
    if (
        not _is_record(inputs)
        or type(getattr(generator, "bit_generator", None)) is not np.random.PCG64
    ):
        return None
    return kernel()


@dataclass(frozen=True)
class ChainBlock:
    """One die's stages as the compiled chain reads them.

    Built once per die (:func:`repro.core.stage.chain_block`) and
    read-only after that.

    Attributes:
        banks: one row per stage, the stage's comparator bank
            (:func:`repro.devices.comparator.bank_parameters`, two
            thresholds).
        mdac: one row per stage following :data:`MDAC_FIELDS`.
        flags: one impairment-flag word per stage.
    """

    banks: np.ndarray
    mdac: np.ndarray
    flags: tuple[int, ...]


def run(
    functions: _Functions,
    generator,
    held: np.ndarray,
    references,
    block: ChainBlock,
    codes: np.ndarray,
    residues: np.ndarray,
) -> np.ndarray:
    """Every stage of ``block`` over one die's held record.

    Stage ``k`` reads the previous stage's residues (``held`` for the
    first), decides into ``codes[k]`` and writes its residues into row
    ``k % len(residues)``; the last stage's row is returned.  The
    addresses are taken once and the generator lock is held for the
    whole record; only numpy's ``exp`` over each stage's listed slewing
    samples runs between the C calls.

    ``held`` is a 1-D float64 record, ``references`` one C-contiguous
    float64 record of its length per stage; ``codes`` (int64, at least
    one row per stage) and ``residues`` (float64, at least two rows)
    are C-contiguous, of the record's length, and overlap neither.
    """
    n = held.size
    work = _workspace.arrays(n)
    noise, index, target, args = work.addresses
    exponents = work.args
    stage, finish = functions.stage, functions.finish
    banks, bank_step = library.address(block.banks), block.banks.strides[0]
    mdac, mdac_step = library.address(block.mdac), block.mdac.strides[0]
    codes_row, codes_step = library.address(codes), codes.strides[0]
    first_row = library.address(residues)
    rows = [first_row + r * residues.strides[0] for r in range(len(residues))]
    reference_rows = [library.address(reference) for reference in references]
    inputs = library.address(held)
    bit_generator = generator.bit_generator
    state = bit_generator.ctypes.state_address
    with record("chain", "native"), bit_generator.lock:
        for k, flags in enumerate(block.flags):
            output = rows[k % len(rows)]
            parameters = mdac + k * mdac_step
            listed = stage(
                state, inputs, reference_rows[k], n, banks + k * bank_step,
                parameters, flags, codes_row + k * codes_step, output,
                noise, index, target, args,
            )
            if listed:
                with record("chain", "exp"):
                    exponent = exponents[:listed]
                    np.exp(exponent, out=exponent)
                finish(
                    listed, index, target, args, noise, parameters, flags, output
                )
            inputs = output
    return residues[(len(block.flags) - 1) % len(rows)]


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


def acquire(
    parameters: np.ndarray,
    flags: int,
    grading: float,
    values: np.ndarray,
    derivatives: np.ndarray,
) -> np.ndarray | None:
    """The front end's held record before its kT/C noise, as a new array.

    ``parameters`` follows :data:`FRONTEND_FIELDS`, ``flags`` holds
    :data:`BULK_SWITCHED` or not, and ``grading`` is the junction
    grading exponent.  None when the library is not loaded, when
    ``values`` and ``derivatives`` are not two records of one length,
    or when a pass stops at a value numpy rejects (a node outside the
    rails, a switch cut off, a forward-biased junction): numpy then
    recomputes the record and raises its own error.  No pass draws.
    """
    if not (
        _is_record(values)
        and _is_record(derivatives)
        and values.size == derivatives.size
    ):
        return None
    functions = kernel()
    if functions is None:
        return None
    n = values.size
    buffer = _workspace.frontend(n)
    args, overdrives = buffer[: 4 * n], buffer[4 * n : 8 * n]
    bases = buffer[8 * n : (10 if flags & BULK_SWITCHED else 12) * n]
    addresses = [library.address(a) for a in (args, overdrives, bases)]
    values_address = library.address(values)
    parameters_address = library.address(parameters)
    with record("frontend", "native"):
        stopped = functions.track(
            values_address, n, parameters_address, flags, *addresses
        )
    if stopped:
        return None
    with record("frontend", "logaddexp-power"):
        np.logaddexp(0.0, args, out=args)
        np.power(bases, grading, out=bases)
    held = np.empty(n)
    with record("frontend", "native"):
        stopped = functions.hold(
            values_address,
            library.address(derivatives),
            n,
            parameters_address,
            flags,
            *addresses,
            library.address(held),
        )
    return None if stopped else held
