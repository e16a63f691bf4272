"""Die-batched converter: a whole population in one NumPy pass.

Population statistics — Monte Carlo yield, corner spreads, mismatch
SNDR/DNL distributions — are the paper's headline results, yet the
per-die :class:`~repro.core.adc.PipelineAdc` converts one die at a
time.  :class:`AdcArray` makes the die population a first-class array
axis: D dies x S samples flow through the ten-stage chain, the flash
and the digital correction as ``(dies, samples)`` blocks, with every
per-die frozen draw (capacitor ratios, comparator offsets, opamp bias
points) stacked into ``(dies, 1)`` parameter columns that broadcast
against the sample axis.

Equivalence contract — die *d* of a batch is **bit-exact** with the
same die simulated alone:

* Construction builds one ``PipelineAdc`` per die (the frozen mismatch
  draws follow the per-die replay contract by construction) and stacks
  the resulting parameters.
* Conversion noise comes from per-die streams
  (:class:`repro.streams.DieStreams`): every ``(dies, samples)`` noise
  block is drawn row by row from the owning die's generator, derived
  from the die seed exactly as ``PipelineAdc`` derives it.

The front-end acquisition (tracking, pedestal, droop) runs per die —
its switch physics is scalar in the per-die operating point and it is a
small, fixed slice of the conversion — while everything downstream of
the held voltages is batched.

The contract above holds for the default ``precision="exact"`` tier.
The opt-in ``precision="fast"`` tier trades it away deliberately:
float32 stage arithmetic and one fused output-referred MDAC noise draw
per stage, gated by statistical equivalence (ENOB/SNDR within a
documented tolerance) instead of bitwise identity.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.analog.clocking import PhaseTiming
from repro.core.adc import ConversionResult, DifferentialSignal, PipelineAdc
from repro.core.config import AdcConfig
from repro.core.die_cache import build_die
from repro.core.flash import FlashBackend
from repro.core.stage import PipelineStage
from repro.errors import ConfigurationError
from repro.profiling import record
from repro.streams import (
    CONVERT_NOISE_STREAM,
    SAMPLES_NOISE_STREAM,
    DieStreams,
)
from repro.technology.corners import OperatingPointArray
from repro.technology.montecarlo import ProcessSample

#: Record length above which a batched conversion processes the dies
#: one row at a time instead of as one (dies, samples) block.  Long
#: records make every intermediate a multi-megabyte array that falls
#: out of cache between operations, so the per-die rows (which stay
#: cache-resident through a whole stage) are faster; short records are
#: dominated by Python dispatch, which batching amortizes.  The per-die
#: noise-stream contract makes the two execution orders bit-exact, so
#: this is purely a throughput heuristic (measured crossover ~4k
#: samples on dynamic-screen workloads).  Override per
#: configuration via :attr:`repro.core.config.AdcConfig.per_die_record_threshold`
#: (excluded from campaign fingerprints for exactly that reason).
PER_DIE_RECORD_SAMPLES = 4096

#: Allowed ``AdcArray`` precision tiers.
PRECISION_TIERS = ("exact", "fast")


@dataclass(frozen=True)
class ArrayConversionResult:
    """Output of one die-batched conversion run.

    Attributes:
        codes: output words in [0, 2^R - 1], shape (dies, n_samples).
        stage_codes: aligned per-stage decisions
            (dies, n_samples, n_stages).
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
        samples: the die realizations — a list of
            :class:`~repro.technology.montecarlo.ProcessSample` or a
            :class:`~repro.technology.montecarlo.ProcessSampleArray`.
        precision: ``"exact"`` (default) is bit-exact with the per-die
            converters; ``"fast"`` runs the stage chain in float32 with
            one fused output-referred MDAC noise draw per stage —
            statistically equivalent (documented ENOB/SNDR tolerance),
            never bitwise.

    Raises:
        ConfigurationError: for an empty population or an unknown
            precision tier.
        ModelDomainError: if the clock scheme leaves no settling window
            at the requested rate.
    """

    def __init__(
        self,
        config: AdcConfig,
        conversion_rate: float,
        samples: Sequence[ProcessSample],
        precision: str = "exact",
    ):
        samples = list(samples)
        if not samples:
            raise ConfigurationError("AdcArray needs at least one die")
        if precision not in PRECISION_TIERS:
            raise ConfigurationError(
                f"precision must be one of {PRECISION_TIERS}, "
                f"got '{precision}'"
            )
        self.config = config
        self.conversion_rate = conversion_rate
        self.precision = precision
        #: Per-die converters; construction replays each die's frozen
        #: mismatch draws exactly as the per-die path would (reused
        #: from the die cache when the key was built before).
        self.dies: list[PipelineAdc] = [
            build_die(
                config,
                conversion_rate,
                operating_point=sample.operating_point,
                seed=sample.seed,
            )
            for sample in samples
        ]
        self.seeds: list[int] = [sample.seed for sample in samples]
        self.operating_points = OperatingPointArray(
            sample.operating_point for sample in samples
        )
        self.timing = self.dies[0].timing
        self.correction = self.dies[0].correction
        with record("build", "stack"):
            self.stages: list[PipelineStage] = [
                PipelineStage.stack([die.stages[i] for die in self.dies])
                for i in range(config.n_stages)
            ]
            self.flash = FlashBackend.stack([die.flash for die in self.dies])

    @property
    def n_dies(self) -> int:
        return len(self.dies)

    # --- stacked mismatch diagnostics ------------------------------------

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

    def _streams(self, stream: int) -> DieStreams:
        return DieStreams.for_noise(self.seeds, stream)

    def _sample_instants(self, count: int, streams: DieStreams) -> np.ndarray:
        if self.config.include_jitter:
            times = self.config.clock.sample_times(
                count, self.conversion_rate, streams
            )
        else:
            times = np.arange(count) * self.timing.period
        if times.ndim == 1:
            # Jitter disabled (or zero): every die samples on the grid.
            times = np.broadcast_to(times, (self.n_dies, count))
        return times

    def _stage_references(
        self, count: int, streams: DieStreams
    ) -> list[np.ndarray]:
        """Per-stage delivered reference blocks, (dies, samples) each.

        Delegates to the per-die implementation, which is written on the
        shared configuration and draws through whatever stream bundle it
        is handed — the windowing into per-stage views broadcasts over
        the die axis.
        """
        return self.dies[0]._stage_references(count, streams)

    def convert(
        self,
        signal: DifferentialSignal,
        n_samples: int,
    ) -> ArrayConversionResult:
        """Digitize ``n_samples`` output words of a signal on every die.

        Each die samples the same stimulus through its own jitter,
        front end and noise streams — row *d* of the result is bit-exact
        with ``self.dies[d].convert(signal, n_samples)``.
        """
        if n_samples <= 0:
            raise ConfigurationError("n_samples must be positive")
        streams = self._streams(CONVERT_NOISE_STREAM)
        skip = self.correction.latency_cycles
        total = n_samples + skip

        with record("sample", "stimulus"):
            times = self._sample_instants(total, streams)
            values = np.asarray(signal.value(times), dtype=float)
            derivatives = np.asarray(signal.derivative(times), dtype=float)
            if values.shape != times.shape or derivatives.shape != times.shape:
                raise ConfigurationError(
                    "signal value/derivative must match the time array shape"
                )
        # Front-end acquisition stays per die: the switch physics is
        # scalar in each die's operating point, and each row must keep
        # drawing from its own stream in the per-die order.
        with record("sample", "acquire"):
            held = np.empty(times.shape)
            for index, die in enumerate(self.dies):
                held[index] = die._acquire(
                    values[index], derivatives[index], streams.generator(index)
                )
        return self._convert_held(held, times, streams, skip)

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
                :meth:`repro.core.adc.PipelineAdc.convert_samples`, so
                a batched capture on any stream is bit-exact with the
                per-die captures on that stream.  Calibration passes
                :data:`repro.streams.CALIBRATION_NOISE_STREAM`.
        """
        held = np.asarray(held_values, dtype=float)
        if held.size == 0:
            raise ConfigurationError("held_values must not be empty")
        if held.ndim == 1:
            held = np.broadcast_to(held, (self.n_dies, held.size))
        elif held.ndim == 2:
            if held.shape[0] != self.n_dies:
                raise ConfigurationError(
                    f"held_values rows ({held.shape[0]}) must match the "
                    f"die count ({self.n_dies})"
                )
        else:
            raise ConfigurationError(
                f"held_values must be 1-D or (dies, n), got shape {held.shape}"
            )
        if not np.all(np.isfinite(held)):
            raise ConfigurationError("held_values must be finite")
        streams = self._streams(stream)
        skip = self.correction.latency_cycles
        padded = np.concatenate(
            [np.zeros((self.n_dies, skip)), held], axis=1
        )
        times = np.broadcast_to(
            np.arange(padded.shape[1]) * self.timing.period, padded.shape
        )
        return self._convert_held(padded, times, streams, skip)

    def _convert_held(
        self,
        held: np.ndarray,
        times: np.ndarray,
        streams: DieStreams,
        skip: int,
    ) -> ArrayConversionResult:
        fast = self.precision == "fast"
        threshold = self.config.per_die_record_threshold
        if threshold is None:
            threshold = PER_DIE_RECORD_SAMPLES
        if self.n_dies > 1 and held.shape[1] - skip > threshold:
            return self._convert_held_per_die(held, times, streams, skip, fast)
        total = held.shape[1]
        with record("references", "window"):
            references = self._stage_references(total, streams)
        stage_codes = np.empty(
            (self.n_dies, total, self.config.n_stages), dtype=int
        )
        residue = held
        for stage, refs in zip(self.stages, references):
            output = stage.process(
                residue, refs, self.operating_points, streams, fast=fast
            )
            stage_codes[:, :, stage.index] = output.codes
            residue = output.residues
        with record("flash", "decide"):
            flash_codes = self.flash.decide(residue, streams)

        with record("correction", "align-combine"):
            aligned_codes, aligned_flash = self.correction.align(
                stage_codes, flash_codes
            )
            words = self.correction.combine(aligned_codes, aligned_flash)
        return ArrayConversionResult(
            codes=words,
            stage_codes=aligned_codes,
            flash_codes=aligned_flash,
            sample_times=times[:, skip:],
            timing=self.timing,
            resolution=self.config.resolution,
        )

    def _convert_held_per_die(
        self,
        held: np.ndarray,
        times: np.ndarray,
        streams: DieStreams,
        skip: int,
        fast: bool = False,
    ) -> ArrayConversionResult:
        """Row-at-a-time execution of a long batched conversion.

        Bit-exact with the blocked path (each die draws only from its
        own stream either way, and the stage arithmetic is elementwise
        in both precision tiers); chosen above
        :data:`PER_DIE_RECORD_SAMPLES` where cache residency beats
        dispatch amortization.
        """
        results = [
            die._convert_held(
                held[index], times[index], streams.generator(index), skip,
                fast=fast,
            )
            for index, die in enumerate(self.dies)
        ]
        return ArrayConversionResult(
            codes=np.stack([result.codes for result in results]),
            stage_codes=np.stack([result.stage_codes for result in results]),
            flash_codes=np.stack([result.flash_codes for result in results]),
            sample_times=np.stack(
                [result.sample_times for result in results]
            ),
            timing=self.timing,
            resolution=self.config.resolution,
        )
