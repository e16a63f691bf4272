"""Die-batched converter: a die population behind one conversion call.

Population statistics — Monte Carlo yield, corner spreads, mismatch
SNDR/DNL distributions — are the paper's headline results.
:class:`AdcArray` holds one :class:`~repro.core.adc.PipelineAdc` per die
and converts a stimulus (or held voltages) on every die, returning
``(dies, samples)`` arrays for the library's population helpers
(:class:`~repro.core.calibration.GainCalibrationArray`,
:meth:`~repro.signal.spectrum.SpectrumAnalyzer.analyze_batch`,
:func:`~repro.signal.linearity.ramp_linearity` on a block), each a loop
over its one-die counterpart.  The yield and campaign runtime measures
die by die on :class:`~repro.core.adc.PipelineAdc` and does not use
this class.

Conversion itself runs one die at a time.  Each die's record goes
through :meth:`PipelineAdc.convert` / :meth:`PipelineAdc.convert_samples`,
and so through the compiled stage chain (:mod:`repro.native.chain`) when
it is loaded, or numpy's 1-D path when it is not.  Row *d* of a result
is therefore bit-exact with the same die simulated alone, by
construction: the die draws from its own seed-derived noise streams in
its own order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.analog.clocking import PhaseTiming
from repro.core.adc import ConversionResult, DifferentialSignal, PipelineAdc
from repro.core.config import AdcConfig
from repro.core.die_cache import build_die
from repro.errors import ConfigurationError
from repro.streams import SAMPLES_NOISE_STREAM
from repro.technology.montecarlo import ProcessSample


@dataclass(frozen=True)
class ArrayConversionResult:
    """Output of one die-batched conversion run.

    Attributes:
        codes: output words in [0, 2^R - 1], shape (dies, n_samples).
        stage_codes: aligned per-stage decisions
            (dies, n_samples, n_stages), a view of a stage-major
            (n_stages, dies, samples) buffer.
        flash_codes: aligned flash codes (dies, n_samples).
        sample_times: jittered acquisition instants [s]
            (dies, n_samples).
        timing: the shared phase budget the conversion ran with.
        resolution: output word width [bits].
    """

    codes: np.ndarray
    stage_codes: np.ndarray
    flash_codes: np.ndarray
    sample_times: np.ndarray
    timing: PhaseTiming
    resolution: int

    @property
    def n_dies(self) -> int:
        return self.codes.shape[0]

    def voltages(self, vref: float) -> np.ndarray:
        """Codes mapped back to differential volts (bin centers)."""
        lsb = 2.0 * vref / (1 << self.resolution)
        return (self.codes.astype(float) + 0.5) * lsb - vref

    def die(self, index: int, bias=None) -> ConversionResult:
        """One die's slice as a per-die :class:`ConversionResult`."""
        return ConversionResult(
            codes=self.codes[index],
            stage_codes=self.stage_codes[index],
            flash_codes=self.flash_codes[index],
            sample_times=self.sample_times[index],
            timing=self.timing,
            bias=bias,
            resolution=self.resolution,
        )


class AdcArray:
    """A die population of the reproduced converter.

    Args:
        config: shared electrical configuration.
        conversion_rate: f_CR every die is clocked at [Hz].
        samples: the die realizations, one
            :class:`~repro.technology.montecarlo.ProcessSample` per die.

    Raises:
        ConfigurationError: for an empty population.
        ModelDomainError: if the clock scheme leaves no settling window
            at the requested rate.
    """

    def __init__(
        self,
        config: AdcConfig,
        conversion_rate: float,
        samples: Sequence[ProcessSample],
    ):
        samples = list(samples)
        if not samples:
            raise ConfigurationError("AdcArray needs at least one die")
        self.config = config
        self.conversion_rate = conversion_rate
        #: Per-die converters; construction replays each die's frozen
        #: mismatch draws exactly as the per-die path would, on the
        #: cached template of the die's PVT point.
        self.dies: list[PipelineAdc] = [
            build_die(
                config,
                conversion_rate,
                operating_point=sample.operating_point,
                seed=sample.seed,
            )
            for sample in samples
        ]
        self.timing = self.dies[0].timing

    @property
    def n_dies(self) -> int:
        return len(self.dies)

    # --- per-die mismatch diagnostics ------------------------------------

    @property
    def ratio_errors(self) -> np.ndarray:
        """Frozen capacitor ratio errors, shape (dies, n_stages)."""
        return np.array(
            [[s.mdac.ratio_error for s in die.stages] for die in self.dies]
        )

    @property
    def comparator_offsets(self) -> np.ndarray:
        """Frozen ADSC comparator offsets, shape (dies, n_stages, 2)."""
        return np.array(
            [[s.subadc.offsets for s in die.stages] for die in self.dies]
        )

    @property
    def stage_currents(self) -> np.ndarray:
        """Per-die mirrored bias currents, shape (dies, n_stages)."""
        return np.array([die.bias_report.stage_currents for die in self.dies])

    # --- conversion -------------------------------------------------------

    def convert(
        self,
        signal: DifferentialSignal,
        n_samples: int,
    ) -> ArrayConversionResult:
        """Digitize ``n_samples`` output words of a signal on every die.

        Each die samples the same stimulus through its own jitter,
        front end and noise streams — row *d* of the result is
        ``self.dies[d].convert(signal, n_samples)``.
        """
        if n_samples <= 0:
            raise ConfigurationError("n_samples must be positive")
        return self._stack([die.convert(signal, n_samples) for die in self.dies])

    def convert_samples(
        self,
        held_values: np.ndarray,
        stream: int = SAMPLES_NOISE_STREAM,
    ) -> ArrayConversionResult:
        """Digitize pre-acquired held voltages on every die.

        Args:
            held_values: a 1-D array applied identically to every die
                (the usual shared linearity ramp), or a
                (dies, n_samples) block with one record per die.
            stream: which reserved per-die noise stream every die draws
                from — the same selector as
                :meth:`repro.core.adc.PipelineAdc.convert_samples`, whose
                result row *d* is.  Calibration passes
                :data:`repro.streams.CALIBRATION_NOISE_STREAM`.
        """
        held = np.asarray(held_values, dtype=float)
        if held.ndim == 1:
            rows = [held] * self.n_dies
        elif held.ndim == 2:
            if held.shape[0] != self.n_dies:
                raise ConfigurationError(
                    f"held_values rows ({held.shape[0]}) must match the "
                    f"die count ({self.n_dies})"
                )
            rows = list(held)
        else:
            raise ConfigurationError(
                f"held_values must be 1-D or (dies, n), got shape {held.shape}"
            )
        return self._stack(
            [
                die.convert_samples(row, stream=stream)
                for die, row in zip(self.dies, rows)
            ]
        )

    def _stack(self, results: list[ConversionResult]) -> ArrayConversionResult:
        """The per-die results as one (dies, samples) result."""
        stage_codes = np.empty(
            (self.config.n_stages, self.n_dies, results[0].codes.size),
            dtype=int,
        )
        for index, result in enumerate(results):
            stage_codes[:, index] = result.stage_codes.T
        return ArrayConversionResult(
            codes=np.stack([result.codes for result in results]),
            stage_codes=np.moveaxis(stage_codes, 0, -1),
            flash_codes=np.stack([result.flash_codes for result in results]),
            sample_times=np.stack([result.sample_times for result in results]),
            timing=self.timing,
            resolution=self.config.resolution,
        )
