"""Foreground gain/weight calibration (extension beyond the paper).

The published part ships *uncalibrated* — its INL is set by raw metal-
capacitor matching and opamp gain.  A natural extension (standard in
later-generation pipeline converters) is foreground calibration: apply a
known stimulus, estimate each stage's *actual* reconstruction weight,
and replace the nominal power-of-two weights in the digital output.

:class:`GainCalibration` implements the classic least-squares variant
for one die:

1. Capture a slow over-ranged ramp (the same stimulus a code-density
   linearity test uses), keeping the raw per-stage decisions.  The
   capture noise comes from the die's reserved calibration stream
   (:data:`repro.streams.CALIBRATION_NOISE_STREAM`), so it neither
   collides with nor correlates against the conversion-noise streams
   the calibrated weights are later applied to.
2. Solve, in the least-squares sense, for the stage weights w_i, the
   flash weight and an offset such that
   ``sum_i w_i * d_i + w_f * flash + offset`` best reproduces the known
   input expressed in codes.  Capacitor mismatch and interstage gain
   error are exactly weight errors in this model, so the fit absorbs
   them; clipped samples are excluded.
3. Reconstruct subsequent conversions with the fitted weights.

:class:`GainCalibrationArray` calibrates a die population
(:class:`~repro.core.adc_array.AdcArray`): it holds one
:class:`GainCalibration` per die and loops over them, so die *d* of the
array calibration is ``GainCalibration(dies[d])`` by construction, and
its ``(dies, samples)`` reconstruction stacks the per-die rows.

On the behavioral model this recovers most of the mismatch-induced INL
(verified in tests/test_calibration.py).  It is marked clearly as an
extension in DESIGN.md/EXPERIMENTS.md and is excluded from the paper-
reproduction numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.adc import ConversionResult, DifferentialSignal, PipelineAdc
from repro.core.adc_array import AdcArray, ArrayConversionResult
from repro.core.config import AdcConfig
from repro.errors import CalibrationError, ConfigurationError
from repro.streams import CALIBRATION_NOISE_STREAM


def nominal_weights(config: AdcConfig) -> np.ndarray:
    """The uncalibrated weight vector: stage weights, flash, offset."""
    stage = 2.0 ** np.arange(
        config.resolution - 2, config.flash_bits - 2, -1, dtype=float
    )
    base = float(
        (1 << (config.resolution - 1)) - (1 << (config.flash_bits - 1))
    )
    return np.concatenate([stage, [1.0, base]])


def _calibration_ramp(
    config: AdcConfig, samples_per_code: int, overdrive: float
) -> np.ndarray:
    """The over-ranged calibration stimulus."""
    total = config.n_codes * samples_per_code
    span = config.vref * (1.0 + overdrive)
    return np.linspace(-span, span, total)


def _calibration_target(config: AdcConfig, ramp: np.ndarray) -> np.ndarray:
    """The ramp expressed in (fractional) output codes."""
    return (ramp / config.vref + 1.0) * (config.n_codes / 2) - 0.5


def _keep_mask(config: AdcConfig, target: np.ndarray) -> np.ndarray:
    """Samples kept for the fit: clipped samples would bias it."""
    margin = 4
    return (target > margin) & (target < config.n_codes - 1 - margin)


def _keep_range(config: AdcConfig, target: np.ndarray) -> slice:
    """The kept samples as one slice of the monotone calibration ramp.

    Slicing keeps the capture a view, so the design matrix is filled
    straight from it instead of through a boolean gather.

    Raises:
        CalibrationError: if the kept samples are not one contiguous
            run (the target is not a monotone ramp).
    """
    index = np.flatnonzero(_keep_mask(config, target))
    if index.size == 0 or index[-1] - index[0] + 1 != index.size:
        raise CalibrationError(
            "calibration ramp keeps no single contiguous run of unclipped "
            "samples"
        )
    return slice(int(index[0]), int(index[-1]) + 1)


def _design_matrix(stage_codes, flash_codes) -> np.ndarray:
    """The least-squares design ``[stage decisions, flash, 1]``.

    One preallocated C-order float64 array, filled column block by
    column block.  The ones column follows the input shape, so the same
    assembly serves a scalar conversion (``stage_codes`` of shape
    ``(n_stages,)``), a 1-D record (``(samples, n_stages)``) and a
    block of records (``(dies, samples, n_stages)``).
    """
    stage = np.asarray(stage_codes)
    flash = np.asarray(flash_codes)
    if stage.shape[:-1] != flash.shape:
        raise ConfigurationError(
            f"stage_codes leading shape {stage.shape[:-1]} must match "
            f"flash_codes shape {flash.shape}"
        )
    n_stages = stage.shape[-1]
    design = np.empty(flash.shape + (n_stages + 2,))
    design[..., :n_stages] = stage
    design[..., n_stages] = flash
    design[..., n_stages + 1] = 1.0
    return design


def _apply_weights(
    design: np.ndarray,
    weights: np.ndarray,
    nominal: np.ndarray,
    n_codes: int,
) -> np.ndarray:
    """Calibrated words from a design matrix, rails kept pinned.

    ``design @ nominal`` is exactly the uncalibrated RSD
    combine before its clip (the nominal weight vector *is* that
    algebra), so samples the uncalibrated correction pins to a rail are
    kept at the rail instead of being re-weighted: the fitted offset
    would otherwise fold a saturated decision pattern into an interior
    code (e.g. an over-ranged linearity ramp piling hundreds of clipped
    samples onto code 1), wrecking code-density histograms.
    """
    calibrated = np.clip(np.round(design @ weights), 0, n_codes - 1).astype(int)
    uncalibrated = design @ nominal
    railed = (uncalibrated <= 0.0) | (uncalibrated >= n_codes - 1)
    pinned = np.clip(uncalibrated, 0, n_codes - 1).astype(int)
    return np.where(railed, pinned, calibrated)


@dataclass
class GainCalibration:
    """Foreground least-squares weight calibration of one die.

    Args:
        adc: the die to calibrate (weights are die-specific).
        samples_per_code: ramp hits per output code for the calibration
            capture; more samples average the thermal noise further
            below the mismatch being estimated.
        overdrive: fractional overrange of the calibration ramp.
    """

    adc: PipelineAdc
    samples_per_code: int = 24
    overdrive: float = 0.02

    def __post_init__(self) -> None:
        if self.samples_per_code < 4:
            raise ConfigurationError("need >= 4 samples per code")
        if not 0 < self.overdrive < 0.2:
            raise ConfigurationError("overdrive must be in (0, 0.2)")
        self._weights: np.ndarray | None = None

    # --- measurement ------------------------------------------------------

    def nominal_weights(self) -> np.ndarray:
        """The uncalibrated weight vector: stage weights, flash, offset."""
        return nominal_weights(self.adc.config)

    def calibrate(self, noise_seed: int | None = None) -> np.ndarray:
        """Run the calibration capture and fit the weights.

        Args:
            noise_seed: explicit raw seed for the capture noise (escape
                hatch for reproducing legacy captures).  When omitted
                the capture draws from the die's reserved calibration
                stream — spawned from the die seed with ``SeedSequence``
                exactly like the conversion streams, but on its own
                spawn key, so it never collides with or correlates
                against measurement noise.

        Returns:
            The fitted weight vector ``[w_1..w_n, w_flash, offset]``.
        """
        config = self.adc.config
        ramp = _calibration_ramp(config, self.samples_per_code, self.overdrive)
        result = self.adc.convert_samples(
            ramp, noise_seed=noise_seed, stream=CALIBRATION_NOISE_STREAM
        )
        target = _calibration_target(config, ramp)
        keep = _keep_range(config, target)
        design = _design_matrix(
            result.stage_codes[keep], result.flash_codes[keep]
        )
        weights, _, rank, _ = np.linalg.lstsq(design, target[keep], rcond=None)
        if rank < design.shape[1]:
            raise CalibrationError(
                "calibration capture is rank-deficient — the ramp did not "
                "exercise every stage decision"
            )
        self._weights = weights
        return weights

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            raise CalibrationError("call calibrate() first")
        return self._weights

    def weight_errors(self) -> np.ndarray:
        """Fitted minus nominal weights (diagnostics)."""
        return self.weights - self.nominal_weights()

    # --- application --------------------------------------------------------

    def reconstruct(
        self, stage_codes: np.ndarray, flash_codes: np.ndarray
    ) -> np.ndarray:
        """Rebuild output words with the calibrated weights.

        Same algebra as :meth:`DigitalCorrection.combine` but with the
        fitted, generally non-integer weights; rounded to integer codes.
        Accepts a scalar conversion (``stage_codes`` of shape
        ``(n_stages,)``), a 1-D record, or a ``(records, samples)``
        block — the output matches the ``flash_codes`` shape.  Samples
        the uncalibrated correction pins to a rail stay pinned
        (out-of-range detection).
        """
        design = _design_matrix(stage_codes, flash_codes)
        return _apply_weights(
            design,
            self.weights,
            self.nominal_weights(),
            self.adc.config.n_codes,
        )

    def convert(
        self, signal: DifferentialSignal, n_samples: int
    ) -> ConversionResult:
        """Digitize a signal and reconstruct with the fitted weights."""
        result = self.adc.convert(signal, n_samples)
        return replace(
            result,
            codes=self.reconstruct(result.stage_codes, result.flash_codes),
        )

    def convert_samples(self, held_values: np.ndarray) -> ConversionResult:
        """Digitize held voltages and reconstruct with fitted weights."""
        result = self.adc.convert_samples(held_values)
        return replace(
            result,
            codes=self.reconstruct(result.stage_codes, result.flash_codes),
        )


@dataclass
class GainCalibrationArray:
    """Foreground calibration of a die population, one die at a time.

    Holds one :class:`GainCalibration` per die of ``array``; every
    method loops over them, so die *d* is
    ``GainCalibration(array.dies[d])`` by construction.

    Args:
        array: the die population to calibrate.
        samples_per_code: ramp hits per output code for the capture.
        overdrive: fractional overrange of the calibration ramp.
    """

    array: AdcArray
    samples_per_code: int = 24
    overdrive: float = 0.02

    def __post_init__(self) -> None:
        self._calibrations = [
            GainCalibration(die, self.samples_per_code, self.overdrive)
            for die in self.array.dies
        ]

    @property
    def n_dies(self) -> int:
        return self.array.n_dies

    # --- measurement ------------------------------------------------------

    def nominal_weights(self) -> np.ndarray:
        """The shared uncalibrated weight vector."""
        return nominal_weights(self.array.config)

    def calibrate(self) -> np.ndarray:
        """Capture the ramp on every die and fit the per-die weights.

        Returns:
            The fitted weights, shape ``(dies, n_stages + 2)``; row *d*
            is ``[w_1..w_n, w_flash, offset]`` for die *d*.

        Raises:
            CalibrationError: naming the first die whose capture is
                rank-deficient.
        """
        for die, calibration in enumerate(self._calibrations):
            try:
                calibration.calibrate()
            except CalibrationError as error:
                raise CalibrationError(f"die {die}: {error}") from None
        return self.weights

    @property
    def weights(self) -> np.ndarray:
        """Fitted per-die weights, shape (dies, n_stages + 2)."""
        return np.stack([calibration.weights for calibration in self._calibrations])

    def die_weights(self, die: int) -> np.ndarray:
        """One die's fitted weight vector."""
        return self._calibrations[die].weights

    def weight_errors(self) -> np.ndarray:
        """Fitted minus nominal weights, shape (dies, n_stages + 2)."""
        return self.weights - self.nominal_weights()

    # --- application ------------------------------------------------------

    def reconstruct(
        self, stage_codes: np.ndarray, flash_codes: np.ndarray
    ) -> np.ndarray:
        """Rebuild a die-batched capture with the per-die weights.

        Args:
            stage_codes: (dies, samples, n_stages) aligned decisions.
            flash_codes: (dies, samples) aligned flash codes.

        Returns:
            Calibrated output words, shape (dies, samples); row *d* is
            :meth:`reconstruct_die` of die *d*'s rows.
        """
        stage = np.asarray(stage_codes)
        flash = np.asarray(flash_codes)
        if (
            stage.ndim != 3
            or stage.shape[0] != self.n_dies
            or flash.shape != stage.shape[:-1]
        ):
            raise ConfigurationError(
                f"batched reconstruct needs a ({self.n_dies}, samples, "
                f"n_stages) block and matching flash codes, got shapes "
                f"{stage.shape} and {flash.shape}"
            )
        return np.stack(
            [
                self.reconstruct_die(die, stage[die], flash[die])
                for die in range(self.n_dies)
            ]
        )

    def reconstruct_die(
        self, die: int, stage_codes: np.ndarray, flash_codes: np.ndarray
    ) -> np.ndarray:
        """Rebuild one die's capture (any shape) with its own weights."""
        return self._calibrations[die].reconstruct(stage_codes, flash_codes)

    def convert(
        self, signal: DifferentialSignal, n_samples: int
    ) -> ArrayConversionResult:
        """Digitize a signal on every die, calibrated reconstruction."""
        result = self.array.convert(signal, n_samples)
        return replace(
            result,
            codes=self.reconstruct(result.stage_codes, result.flash_codes),
        )

    def convert_samples(self, held_values: np.ndarray) -> ArrayConversionResult:
        """Digitize held voltages on every die, calibrated reconstruction."""
        result = self.array.convert_samples(held_values)
        return replace(
            result,
            codes=self.reconstruct(result.stage_codes, result.flash_codes),
        )
