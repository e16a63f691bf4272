"""Monte Carlo yield analysis on the batch runtime.

One measure function, :func:`measure_die`, screens every die: it builds
the die's :class:`~repro.core.adc.PipelineAdc` (on its cached template),
converts the tone and the linearity ramp, and analyzes each record on
its own.  The shared :class:`~repro.runtime.batch.EngineDispatch` route
only decides how many dies one task holds:

* ``engine="pool"`` — one die per task; ``workers=1`` is the serial
  per-die loop.
* ``engine="vectorized"`` — die chunks per task (an even split across
  the workers, bounded by a default), which amortizes task dispatch and
  the per-task stimulus.

With ``workers > 1`` the pool fans the tasks out across processes.

Every die is measured with the serial benches' stimulus
(:mod:`repro.evaluation.testbench`): the near-full-scale coherent tone
and code analyzer of :class:`~repro.evaluation.testbench.DynamicTestbench`
and the over-ranged ramp of
:class:`~repro.evaluation.testbench.StaticTestbench`.  Per-die noise
streams are derived from the die seed alone (:mod:`repro.streams`), so
a die's record is bit-identical across engines and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.calibration import GainCalibration
from repro.core.config import AdcConfig
from repro.core.die_cache import build_die
from repro.errors import ConfigurationError
from repro.evaluation.reporting import format_table
from repro.evaluation.testbench import (
    code_analyzer,
    coherent_tone,
    linearity_ramp,
)
from repro.profiling import profile_step
from repro.runtime.batch import (
    BatchResult,
    EngineDispatch,
    ProgressCallback,
    json_safe,
)
from repro.runtime.seeding import population_generator
from repro.signal.linearity import ramp_linearity
from repro.technology.montecarlo import MonteCarloSampler, ProcessSample

#: Ramp samples per output code for the code-density DNL screen (the
#: histogram needs >= 16 hits per code for a defined DNL).
RAMP_SAMPLES_PER_CODE = 16


@dataclass(frozen=True)
class YieldSpec:
    """Datasheet spec a die is screened against.

    Attributes:
        min_enob: minimum effective number of bits.
        max_dnl_lsb: maximum |DNL| in LSB.
        max_inl_lsb: maximum |INL| in LSB; None skips the INL screen
            (the default, matching the legacy spec shape).
        conversion_rate: sample rate the screen runs at [Hz].
        input_frequency: test-tone frequency [Hz].
    """

    min_enob: float = 10.0
    max_dnl_lsb: float = 1.5
    max_inl_lsb: float | None = None
    conversion_rate: float = 110e6
    input_frequency: float = 10e6

    def __post_init__(self) -> None:
        if self.conversion_rate <= 0:
            raise ConfigurationError("conversion_rate must be positive")
        if self.input_frequency <= 0:
            raise ConfigurationError("input_frequency must be positive")

    def passes(
        self,
        enob_bits: float,
        dnl_peak_lsb: float,
        inl_peak_lsb: float | None = None,
    ) -> bool:
        if self.max_inl_lsb is not None and inl_peak_lsb is not None:
            if inl_peak_lsb > self.max_inl_lsb:
                return False
        return enob_bits >= self.min_enob and dnl_peak_lsb <= self.max_dnl_lsb


@dataclass(frozen=True)
class DieMetrics:
    """Measured figures of merit for one die.

    Attributes:
        index: die position in the batch.
        corner: process corner name ("tt", "ff", ...).
        temperature_c: junction temperature [Celsius].
        supply_scale: supply multiplier drawn for the die.
        cap_scale: absolute capacitance multiplier drawn for the die.
        seed: the die's local-mismatch seed (replays the die alone).
        sndr_db: measured SNDR [dB].
        enob_bits: effective number of bits.
        dnl_peak_lsb: worst-case |DNL| [LSB].
        inl_peak_lsb: worst-case |INL| [LSB].
        passed: verdict against the screening spec.
        calibrated: whether the screened codes went through foreground
            gain calibration.
    """

    index: int
    corner: str
    temperature_c: float
    supply_scale: float
    cap_scale: float
    seed: int
    sndr_db: float
    enob_bits: float
    dnl_peak_lsb: float
    inl_peak_lsb: float
    passed: bool
    calibrated: bool = False

    def to_metrics(self) -> dict[str, float]:
        """Numeric summary fields (feeds ``BatchResult.summary``)."""
        return {
            "sndr_db": self.sndr_db,
            "enob_bits": self.enob_bits,
            "dnl_peak_lsb": self.dnl_peak_lsb,
            "inl_peak_lsb": self.inl_peak_lsb,
        }


def _die_metrics(
    die: ProcessSample,
    spec: YieldSpec,
    spectrum,
    linearity,
    calibrated: bool = False,
) -> DieMetrics:
    """Assemble one die's record from its measured spectrum and ramp."""
    dnl_peak = max(abs(linearity.dnl_min), abs(linearity.dnl_max))
    inl_peak = max(abs(linearity.inl_min), abs(linearity.inl_max))
    point = die.operating_point
    return DieMetrics(
        index=die.index,
        corner=point.corner.value,
        temperature_c=point.temperature_c,
        supply_scale=point.supply_scale,
        cap_scale=point.cap_scale,
        seed=die.seed,
        sndr_db=spectrum.sndr_db,
        enob_bits=spectrum.enob_bits,
        dnl_peak_lsb=dnl_peak,
        inl_peak_lsb=inl_peak,
        passed=spec.passes(spectrum.enob_bits, dnl_peak, inl_peak),
        calibrated=calibrated,
    )


@dataclass(frozen=True)
class DieTask:
    """Everything one worker needs to measure a chunk of dies.

    Attributes:
        samples: the dies' realizations, in batch order.
        config: converter configuration.
        spec: measurement conditions and screen limits.
        n_fft: coherent capture length for the spectral measurement.
        calibrate: run foreground gain calibration first and screen the
            calibrated reconstruction (extension beyond the paper).
        calibration_samples_per_code: calibration-ramp density when
            ``calibrate`` is set.
    """

    samples: tuple[ProcessSample, ...]
    config: AdcConfig
    spec: YieldSpec = field(default_factory=YieldSpec)
    n_fft: int = 4096
    calibrate: bool = False
    calibration_samples_per_code: int = 8

    def __post_init__(self) -> None:
        if not self.samples:
            raise ConfigurationError("die task must hold at least one die")
        if self.n_fft <= 0:
            raise ConfigurationError("n_fft must be positive")
        if self.calibrate and self.calibration_samples_per_code < 4:
            raise ConfigurationError(
                "calibration_samples_per_code must be >= 4, got "
                f"{self.calibration_samples_per_code}"
            )


@profile_step("task", "measure-die")
def measure_die(task: DieTask) -> tuple[DieMetrics, ...]:
    """Measure each die of the task alone, one record per die.

    Dynamic (SNDR/ENOB) and static (DNL/INL) screens on one
    :class:`~repro.core.adc.PipelineAdc` per die; the tone, analyzer
    and ramp are built once per task.  Each die's long ramp is reduced
    to its output codes before the next die converts, so only one die's
    per-stage decisions are alive at a time.  Module-level and
    dependent only on ``task``, so it can run in any worker process of
    any batch partition and produce identical bits.  With
    ``task.calibrate`` each die is foreground-calibrated first (capture
    on the die's reserved calibration stream) and the screens measure
    the calibrated reconstruction.
    """
    config = task.config
    rate = task.spec.conversion_rate
    tone = coherent_tone(config, rate, task.spec.input_frequency, task.n_fft)
    analyzer = code_analyzer(config)
    ramp = linearity_ramp(config, RAMP_SAMPLES_PER_CODE)

    def measure_one(die: ProcessSample) -> DieMetrics:
        adc = build_die(
            config, rate, operating_point=die.operating_point, seed=die.seed
        )
        calibration = None
        if task.calibrate:
            calibration = GainCalibration(
                adc, samples_per_code=task.calibration_samples_per_code
            )
            calibration.calibrate()

        def codes(result) -> np.ndarray:
            if calibration is None:
                return result.codes
            return calibration.reconstruct(
                result.stage_codes, result.flash_codes
            )

        spectrum = analyzer.analyze(codes(adc.convert(tone, task.n_fft)), rate)
        linearity = ramp_linearity(
            codes(adc.convert_samples(ramp)), config.n_codes
        )
        return _die_metrics(
            die, task.spec, spectrum, linearity, calibrated=task.calibrate
        )

    return tuple(measure_one(die) for die in task.samples)


#: Callers that import the chunk measure by this name get
#: :func:`measure_die`; the runtime itself dispatches ``measure_die``, so
#: pooled tasks pickle under the name the function was defined with.
measure_die_chunk = measure_die


@dataclass(frozen=True)
class YieldReport:
    """A Monte Carlo yield run: per-die metrics, spec verdicts, failures.

    Attributes:
        batch: the underlying batch result (per-die outcomes, timing).
        spec: the screen the dies were measured against.
        engine: execution engine that produced the batch ("pool" or
            "vectorized"); per-die metrics are engine-independent.
        calibrated: whether the dies were foreground-calibrated before
            screening (extension beyond the paper).
    """

    batch: BatchResult
    spec: YieldSpec
    engine: str = "pool"
    calibrated: bool = False

    @property
    def dies(self) -> list[DieMetrics]:
        """Successfully measured dies, in batch order."""
        return self.batch.values

    @property
    def n_dies(self) -> int:
        return self.batch.n_tasks

    @property
    def n_pass(self) -> int:
        return sum(1 for die in self.dies if die.passed)

    @property
    def yield_fraction(self) -> float:
        """Pass fraction over all *dispatched* dies (crashes count as fails)."""
        return self.n_pass / self.n_dies if self.n_dies else 0.0

    def enobs(self) -> np.ndarray:
        return np.array([die.enob_bits for die in self.dies])

    def dnl_peaks(self) -> np.ndarray:
        return np.array([die.dnl_peak_lsb for die in self.dies])

    def inl_peaks(self) -> np.ndarray:
        return np.array([die.inl_peak_lsb for die in self.dies])

    def render(self) -> str:
        """Full textual report: per-die table, distributions, yield."""
        rows = [
            (
                die.index,
                die.corner.upper(),
                f"{die.temperature_c:.0f}",
                f"{die.cap_scale:.2f}",
                f"{die.sndr_db:.1f}",
                f"{die.enob_bits:.2f}",
                f"{die.dnl_peak_lsb:.2f}",
                f"{die.inl_peak_lsb:.2f}",
                "pass" if die.passed else "FAIL",
            )
            for die in self.dies
        ]
        reconstruction = "calibrated" if self.calibrated else "uncalibrated"
        lines = [
            format_table(
                (
                    "die",
                    "corner",
                    "T [C]",
                    "C scale",
                    "SNDR [dB]",
                    "ENOB",
                    "|DNL| [LSB]",
                    "|INL| [LSB]",
                    "spec",
                ),
                rows,
                title=(
                    f"--- {self.n_dies} Monte Carlo dies at "
                    f"{self.spec.conversion_rate / 1e6:.0f} MS/s "
                    f"({reconstruction}) ---"
                ),
            ),
            "",
        ]
        enobs = self.enobs()
        dnls = self.dnl_peaks()
        inls = self.inl_peaks()
        if enobs.size:
            lines.append(
                f"ENOB: median {np.median(enobs):.2f}, "
                f"min {enobs.min():.2f}, max {enobs.max():.2f}"
            )
            lines.append(
                f"|DNL|: median {np.median(dnls):.2f} LSB, "
                f"worst {dnls.max():.2f} LSB"
            )
            lines.append(
                f"|INL|: median {np.median(inls):.2f} LSB, "
                f"worst {inls.max():.2f} LSB"
            )
        limits = (
            f"yield against ENOB >= {self.spec.min_enob} and "
            f"|DNL| <= {self.spec.max_dnl_lsb} LSB"
        )
        if self.spec.max_inl_lsb is not None:
            limits += f" and |INL| <= {self.spec.max_inl_lsb} LSB"
        lines.append(
            f"{limits}: {self.n_pass}/{self.n_dies} "
            f"({100 * self.yield_fraction:.0f}%)"
        )
        for failure in self.batch.failures:
            lines.append(
                f"die {failure.index} CRASHED: "
                f"{failure.error_type}: {failure.error}"
            )
        calibration = " foreground-calibrated," if self.calibrated else ""
        lines.append(
            f"batch: {self.engine} engine,{calibration} "
            f"{self.batch.workers} worker(s), "
            f"{self.batch.chunk_size} die(s) per task, "
            f"{self.batch.elapsed_s:.2f} s"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        document = self.batch.to_dict()
        document["engine"] = self.engine
        document["calibrated"] = self.calibrated
        document["spec"] = json_safe(self.spec)
        document["yield"] = {
            "n_dies": self.n_dies,
            "n_pass": self.n_pass,
            "n_crashed": len(self.batch.failures),
            "fraction": self.yield_fraction,
        }
        return document


def default_sampler(config: AdcConfig) -> MonteCarloSampler:
    """The yield-example sampler: industrial temp range, +-5% supply."""
    return MonteCarloSampler(
        technology=config.technology,
        temperature_range_c=(-40.0, 85.0),
        supply_tolerance=0.05,
    )


def run_yield_analysis(
    n_dies: int = 24,
    seed: int = 2026,
    config: AdcConfig | None = None,
    spec: YieldSpec | None = None,
    n_fft: int = 4096,
    seed_strategy: str = "stream",
    engine: str = "pool",
    calibrate: bool = False,
    calibration_samples_per_code: int = 8,
    workers: int | None = 1,
    progress: ProgressCallback | None = None,
) -> YieldReport:
    """Run a Monte Carlo yield analysis across the batch runtime.

    Args:
        n_dies: number of die realizations.
        seed: master seed for the PVT/mismatch draws; a given
            ``(seed, n_dies)`` pair reproduces the identical die set
            regardless of ``engine`` and ``workers``.
        config: converter configuration (paper default when omitted).
        spec: screening spec and measurement conditions.
        n_fft: coherent capture length per die.
        calibrate: foreground-calibrate every die first and screen the
            calibrated reconstruction.
        calibration_samples_per_code: calibration-ramp density.
        seed_strategy: ``"stream"`` draws dies from one sequential
            generator (bit-compatible with the legacy serial loops);
            ``"spawn"`` derives each die from its own
            ``SeedSequence.spawn`` child, so die *i* is identical no
            matter how large the batch is (sharding-stable).
        engine: ``"pool"`` measures one die per task;
            ``"vectorized"`` splits the dies evenly across the workers,
            at most :data:`~repro.runtime.batch.DEFAULT_CHUNK` per
            task.  Both run :func:`measure_die`, so per-die records are
            bit-identical across engines.
        workers: worker processes (1 = serial, None = all CPUs).
        progress: progress callback, once per task.
    """
    dispatch = EngineDispatch(engine=engine, workers=workers)
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    config = config or AdcConfig.paper_default()
    spec = spec or YieldSpec()
    sampler = default_sampler(config)
    if seed_strategy == "stream":
        dies = sampler.sample(n_dies, population_generator(seed))
    elif seed_strategy == "spawn":
        dies = sampler.sample_spawned(n_dies, seed)
    else:
        raise ConfigurationError(
            f"seed_strategy must be 'stream' or 'spawn', got '{seed_strategy}'"
        )

    def task(chunk: tuple[ProcessSample, ...]) -> DieTask:
        return DieTask(
            samples=chunk,
            config=config,
            spec=spec,
            n_fft=n_fft,
            calibrate=calibrate,
            calibration_samples_per_code=calibration_samples_per_code,
        )

    batch = dispatch.run(
        dies,
        measure_die,
        task,
        index_of=lambda die: die.index,
        seed_of=lambda die: die.seed,
        progress=progress,
    )
    return YieldReport(
        batch=batch, spec=spec, engine=engine, calibrated=calibrate
    )
