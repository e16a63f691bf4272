"""The complete pipeline ADC.

:class:`PipelineAdc` assembles everything paper Fig. 1 shows around the
pipeline chain — front-end sampling network, ten 1.5-bit stages with
their SC-bias-driven opamps, the 2-bit flash, digital correction, the
bandgap/reference/CM/bias/clock infrastructure — into one object with a
:meth:`PipelineAdc.convert` method.

Construction freezes one *die*: mismatch draws (capacitor ratios,
comparator offsets, mirror errors) are taken once from a seed, so the
same die can be measured repeatedly under different stimuli, exactly
like the physical part on the bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.analog.bias import BiasReport
from repro.analog.clocking import PhaseTiming
from repro.analog.sampling import SamplingNetwork, TrackingModel
from repro.core.config import AdcConfig, StageConfig, SwitchStyle
from repro.core.correction import DigitalCorrection
from repro.core.flash import FlashBackend
from repro.core.mdac import Mdac
from repro.core.stage import PipelineStage
from repro.core.subadc import SubAdc
from repro.devices.opamp_design import OpampDesigner
from repro.devices.switch import (
    _JUNCTION_GRADING,
    _JUNCTION_POTENTIAL,
    BootstrappedSwitch,
    BulkSwitchedTransmissionGate,
    SwitchModel,
    TransmissionGate,
    _junction_capacitance,
)
from repro.errors import ConfigurationError
from repro.native import chain as native_chain
from repro.profiling import record
from repro.streams import (
    CONVERT_NOISE_STREAM,
    SAMPLES_NOISE_STREAM,
    mismatch_generator,
    noise_generator,
    seeded_generator,
)
from repro.technology.capacitor import CapacitorMismatchModel
from repro.technology.corners import OperatingPoint
from repro.technology.mosfet import _SUBTHRESHOLD_SMOOTHING


@runtime_checkable
class DifferentialSignal(Protocol):
    """Anything the converter can sample.

    The sampling-network physics needs the analytic derivative (the
    tracking error is tau(v) * dv/dt), so signal sources provide both.
    """

    def value(self, times: np.ndarray) -> np.ndarray:
        """Differential signal value at the given instants [V]."""
        ...

    def derivative(self, times: np.ndarray) -> np.ndarray:
        """Time derivative at the given instants [V/s]."""
        ...


@dataclass(frozen=True)
class ConversionResult:
    """Output of one conversion run.

    Attributes:
        codes: output words in [0, 2^R - 1], pipeline fill removed.
        stage_codes: aligned per-stage decisions (n_samples, n_stages),
            a view of a stage-major (n_stages, samples) buffer.
        flash_codes: aligned flash codes (n_samples,).
        sample_times: jittered acquisition instants [s] (aligned).
        timing: the phase budget the conversion ran with.
        bias: the bias-generator report at this conversion rate.
        resolution: output word width [bits].
    """

    codes: np.ndarray
    stage_codes: np.ndarray
    flash_codes: np.ndarray
    sample_times: np.ndarray
    timing: PhaseTiming
    bias: BiasReport
    resolution: int

    def voltages(self, vref: float) -> np.ndarray:
        """Codes mapped back to differential volts (bin centers)."""
        lsb = 2.0 * vref / (1 << self.resolution)
        return (self.codes.astype(float) + 0.5) * lsb - vref


def _frontend_parameters(
    network: SamplingNetwork, hold_time: float
) -> tuple[np.ndarray, int, float] | None:
    """The compiled front end's description of a die's sampling network.

    (parameters, flags, grading exponent) for
    :func:`repro.native.chain.acquire`.  The parameters follow
    :data:`repro.native.chain.FRONTEND_FIELDS` and hold the very scalars
    :meth:`SamplingNetwork.acquire` computes with.  None where numpy
    serves every acquisition: a switch that is not a transmission gate,
    or a suppression numpy rejects.
    """
    tracking = network.tracking
    switch = tracking.switch
    if type(switch) not in (TransmissionGate, BulkSwitchedTransmissionGate):
        return None
    if not 0 <= network.bottom_plate_suppression <= 1:
        return None
    point = switch.operating_point
    tech = point.technology
    vdd = point.supply_voltage
    nmos, pmos = switch._nmos(), switch._pmos()
    pmos_junction = switch.zero_bias_junction(switch.pmos_width)
    values = {
        "common_mode": tracking.common_mode,
        "low_rail": -1e-9,
        "high_rail": vdd + 1e-9,
        "supply": vdd,
        "phi": tech.surface_potential,
        "sqrt_phi": math.sqrt(tech.surface_potential),
        "gamma": tech.body_gamma,
        "nmos_vth0": point.nmos_vth(),
        "pmos_vth0": point.pmos_vth(),
        "pmos_vth_zero": pmos.threshold(0.0),
        "smoothing": _SUBTHRESHOLD_SMOOTHING,
        "nmos_beta": nmos.beta,
        "pmos_beta": pmos.beta,
        "theta": tech.mobility_theta,
        "junction_potential": _JUNCTION_POTENTIAL,
        "nmos_junction": switch.zero_bias_junction(switch.nmos_width),
        "pmos_junction": pmos_junction,
        "pmos_junction_zero": float(
            _junction_capacitance(pmos_junction, np.zeros(1))[0]
        ),
        "hold": tracking.hold_capacitance,
        "side": 1.0 + tracking.side_mismatch,
        "suppression": network.bottom_plate_suppression,
        "nmos_channel": switch.channel_capacitance(switch.nmos_width),
        "pmos_channel": switch.channel_capacitance(switch.pmos_width),
        "droop": network.droop_gain_error(hold_time),
        "droop_nonlinearity": network.droop_nonlinearity,
    }
    flags = native_chain.BULK_SWITCHED * switch._bulk_switched
    parameters = np.array([values[name] for name in native_chain.FRONTEND_FIELDS])
    return parameters, flags, _JUNCTION_GRADING


class PipelineAdc:
    """The reproduced converter.

    Args:
        config: full electrical configuration.
        conversion_rate: f_CR this instance is clocked at [Hz].
        operating_point: PVT context; nominal TT/27C when omitted.
        seed: die seed; freezes every mismatch draw.

    Raises:
        ModelDomainError: if the clock scheme leaves no settling window
            at the requested rate.
    """

    def __init__(
        self,
        config: AdcConfig,
        conversion_rate: float,
        operating_point: OperatingPoint | None = None,
        seed: int = 0,
    ):
        if conversion_rate <= 0:
            raise ConfigurationError("conversion rate must be positive")
        self.config = config
        self.conversion_rate = conversion_rate
        self.operating_point = operating_point or OperatingPoint(
            technology=config.technology
        )
        self.seed = seed
        self.timing: PhaseTiming = config.clock.timing(conversion_rate)

        with record("build", "die"):
            stage_configs = config.stage_configs()
            #: Total DAC capacitance the reference buffer drives [F].
            self.dac_capacitance = 2.0 * sum(
                sc.unit_capacitance for sc in stage_configs
            )
            mismatch_rng = mismatch_generator(seed)
            self._build_bias(mismatch_rng)
            self._build_stages(stage_configs, mismatch_rng)
            self._build_frontend(stage_configs[0])
            self.flash = FlashBackend(
                vref=config.vref,
                bits=config.flash_bits,
                parameters=config.flash_comparator,
                rng=mismatch_rng,
            )
            self.correction = DigitalCorrection(
                n_stages=config.n_stages, flash_bits=config.flash_bits
            )

    # --- construction ----------------------------------------------------

    def _build_bias(self, mismatch_rng: np.random.Generator) -> None:
        config = self.config
        generator = (
            config.resolved_fixed_bias()
            if config.use_fixed_bias
            else config.resolved_bias()
        )
        rng = mismatch_rng if config.include_mismatch else None
        self.bias_report: BiasReport = generator.evaluate(
            self.conversion_rate, self.operating_point, rng
        )

    def _build_stages(
        self,
        stage_configs: tuple[StageConfig, ...],
        mismatch_rng: np.random.Generator,
    ) -> None:
        config = self.config
        cap_scale = self.operating_point.capacitance_scale()
        currents = self.bias_report.stage_currents

        mismatch_model = CapacitorMismatchModel(technology=config.technology)
        self.stages: list[PipelineStage] = []
        for stage_config, current in zip(stage_configs, currents):
            designer = OpampDesigner(
                operating_point=self.operating_point,
                input_pair_width=stage_config.input_pair_width,
                input_pair_length=config.input_pair_length,
                compensation_capacitance=(
                    stage_config.compensation_capacitance * cap_scale
                ),
                load_capacitance=stage_config.load_capacitance * cap_scale,
                output_stage_current_ratio=config.output_stage_current_ratio,
                bias_overhead_ratio=config.bias_overhead_ratio,
                intrinsic_gain_per_stage=config.intrinsic_gain_per_stage,
                output_swing=config.output_swing,
                compression=config.opamp_compression,
                noise_excess_factor=config.noise_excess_factor,
            )
            opamp = designer.build(float(current))
            if config.include_mismatch:
                ratio_error = float(
                    mismatch_model.sample_ratio_errors(
                        np.array([stage_config.unit_capacitance]), mismatch_rng
                    )[0]
                )
            else:
                ratio_error = 0.0
            mdac = Mdac(
                unit_capacitance=stage_config.unit_capacitance,
                ratio_error=ratio_error,
                opamp=opamp,
                load_capacitance=stage_config.load_capacitance * cap_scale,
                summing_parasitic=(
                    config.parasitic_summing_capacitance * stage_config.scale
                ),
                settle_time=self.timing.amplification_time,
                include_settling=config.include_settling,
                include_noise=config.include_thermal_noise,
                # Stage 1's acquisition noise belongs to the front-end
                # sampling network.
                include_sampling_noise=(
                    config.include_thermal_noise and stage_config.index > 0
                ),
            )
            subadc = SubAdc(
                vref=config.vref,
                parameters=config.comparator,
                rng=mismatch_rng,
            )
            self.stages.append(
                PipelineStage(index=stage_config.index, subadc=subadc, mdac=mdac)
            )

    def _build_frontend(self, stage1: StageConfig) -> None:
        config = self.config
        common_mode = config.common_mode.voltage(self.operating_point)
        self.input_switch: SwitchModel = self._make_switch()
        tracking = TrackingModel(
            switch=self.input_switch,
            hold_capacitance=stage1.sampling_capacitance,
            common_mode=common_mode,
            side_mismatch=(
                config.tracking_side_mismatch if config.include_mismatch else 0.0
            ),
        )
        self.frontend = SamplingNetwork(
            tracking=tracking,
            bottom_plate_suppression=config.bottom_plate_suppression,
            off_conductance=config.switch_off_conductance,
            include_noise=config.include_thermal_noise,
        )
        #: The compiled front end's (parameters, flags, grading), or None
        #: where numpy computes every acquisition.
        self._native_frontend = (
            _frontend_parameters(self.frontend, self.timing.amplification_time)
            if config.include_tracking
            else None
        )

    def _make_switch(self) -> SwitchModel:
        config = self.config
        if config.switch_style is SwitchStyle.TRANSMISSION_GATE:
            return TransmissionGate(
                nmos_width=config.input_nmos_width,
                pmos_width=config.input_pmos_width,
                length=config.switch_length,
                operating_point=self.operating_point,
            )
        if config.switch_style is SwitchStyle.BULK_SWITCHED:
            return BulkSwitchedTransmissionGate(
                nmos_width=config.input_nmos_width,
                pmos_width=config.input_pmos_width,
                length=config.switch_length,
                operating_point=self.operating_point,
            )
        return BootstrappedSwitch(
            width=config.input_nmos_width,
            length=config.switch_length,
            operating_point=self.operating_point,
        )

    # --- conversion --------------------------------------------------------

    def _sample_instants(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        if self.config.include_jitter:
            return self.config.clock.sample_times(
                count, self.conversion_rate, rng
            )
        return np.arange(count) * self.timing.period

    def _acquire(
        self,
        values: np.ndarray,
        derivatives: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Front-end acquisition: tracking + pedestal + droop + kT/C.

        A 1-D record through a transmission-gate switch is tracked by
        the compiled front end (:func:`repro.native.chain.acquire`) when
        it is loaded; every other record, and every record when it is
        not, by :meth:`SamplingNetwork.acquire`.  The two give the same
        held bytes and leave the generator in the same state.
        """
        if not self.config.include_tracking:
            held = np.asarray(values, dtype=float)
        else:
            held = self._native_frontend and native_chain.acquire(
                *self._native_frontend, values, derivatives
            )
            if held is None:
                return self.frontend.acquire(
                    values,
                    derivatives,
                    hold_time=self.timing.amplification_time,
                    operating_point=self.operating_point,
                    rng=rng,
                )
        return self.frontend.add_noise(held, self.operating_point, rng)

    def _stage_references(
        self, count: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Per-stage delivered reference voltage arrays.

        All ten MDACs share the one physical reference buffer, so one
        per-cycle noise record serves the whole chain: sample *n* meets
        the buffer at cycle *n + i* while it sits in stage *i*, so stage
        *i* reads the record through an *i*-shifted window.  That keeps
        the physical correlation structure (neighboring samples in
        neighboring stages see the same buffer instant) and costs one
        noise draw instead of one per stage.
        """
        config = self.config
        if config.include_reference_noise:
            buffer_record = config.reference.sample_reference(
                count + config.n_stages - 1,
                self.dac_capacitance,
                self.conversion_rate,
                rng,
            )
            return [
                buffer_record[i : i + count] for i in range(config.n_stages)
            ]
        effective = np.full(
            count,
            config.reference.effective_reference(
                self.dac_capacitance, self.conversion_rate
            ),
        )
        return [effective] * config.n_stages

    def convert(
        self,
        signal: DifferentialSignal,
        n_samples: int,
        noise_seed: int | None = None,
    ) -> ConversionResult:
        """Digitize ``n_samples`` output words of a signal.

        Args:
            signal: stimulus exposing value() and derivative().
            n_samples: number of *valid* output words wanted; the
                pipeline-fill samples are simulated and discarded on top.
            noise_seed: seed for the per-run noise draws; when omitted
                the stream is spawned from the die seed with
                ``SeedSequence`` (see :func:`repro.streams.noise_generator`),
                so the whole experiment replays from the die seed alone
                and the die-batched engine can reproduce it bit for bit.

        Returns:
            A :class:`ConversionResult`.
        """
        if n_samples <= 0:
            raise ConfigurationError("n_samples must be positive")
        rng = (
            noise_generator(self.seed, CONVERT_NOISE_STREAM)
            if noise_seed is None
            else seeded_generator(noise_seed)
        )
        skip = self.correction.latency_cycles
        total = n_samples + skip

        with record("sample", "stimulus"):
            times = self._sample_instants(total, rng)
            values = np.asarray(signal.value(times), dtype=float)
            derivatives = np.asarray(signal.derivative(times), dtype=float)
            if values.shape != times.shape or derivatives.shape != times.shape:
                raise ConfigurationError(
                    "signal value/derivative must match the time array shape"
                )
        with record("sample", "acquire"):
            held = self._acquire(values, derivatives, rng)
        return self._convert_held(held, times, rng, skip)

    def convert_samples(
        self,
        held_values: np.ndarray,
        noise_seed: int | None = None,
        stream: int = SAMPLES_NOISE_STREAM,
    ) -> ConversionResult:
        """Digitize pre-acquired held voltages (bypasses the front end).

        Static-linearity tests use this: INL/DNL are measured from slow
        ramps where the tracking error is negligible by construction, so
        feeding held values directly isolates the static transfer.

        Args:
            held_values: the held voltages, a 1-D array.
            noise_seed: explicit raw seed for the per-run noise draws;
                when omitted the stream is spawned from the die seed
                (see :func:`repro.streams.noise_generator`).
            stream: which reserved per-die noise stream to draw from
                when ``noise_seed`` is omitted.  Calibration captures
                pass :data:`repro.streams.CALIBRATION_NOISE_STREAM` so
                they stay independent of measurement noise; ignored
                when an explicit ``noise_seed`` is given.
        """
        held = np.asarray(held_values, dtype=float)
        if held.ndim != 1:
            raise ConfigurationError(
                f"held_values must be a 1-D array, got shape {held.shape}"
            )
        if held.size == 0:
            raise ConfigurationError("held_values must not be empty")
        if not np.all(np.isfinite(held)):
            raise ConfigurationError("held_values must be finite")
        rng = (
            noise_generator(self.seed, stream)
            if noise_seed is None
            else seeded_generator(noise_seed)
        )
        skip = self.correction.latency_cycles
        padded = np.concatenate([np.zeros(skip), held])
        times = np.arange(padded.size) * self.timing.period
        return self._convert_held(padded, times, rng, skip)

    def _convert_held(
        self,
        held: np.ndarray,
        times: np.ndarray,
        rng: np.random.Generator,
        skip: int,
    ) -> ConversionResult:
        total = held.size
        with record("references", "window"):
            references = self._stage_references(total, rng)
        # Stage-major: each stage writes one contiguous row, and the
        # (samples, n_stages) layout is exposed as a transposed view.
        # Residues alternate between two rows: a stage reads one and
        # writes the other.
        stage_codes = np.empty((self.config.n_stages, total), dtype=int)
        residues = np.empty((2, total))
        residue = held
        for stage, refs in zip(self.stages, references):
            output = stage.process(
                residue, refs, self.operating_point, rng,
                codes_out=stage_codes[stage.index],
                residues_out=residues[stage.index % 2],
            )
            residue = output.residues
        with record("flash", "decide"):
            flash_codes = self.flash.decide(residue, rng)

        with record("correction", "align-combine"):
            aligned_codes, aligned_flash = self.correction.align(
                stage_codes.T, flash_codes
            )
            words = self.correction.combine(aligned_codes, aligned_flash)
        return ConversionResult(
            codes=words,
            stage_codes=aligned_codes,
            flash_codes=aligned_flash,
            sample_times=times[skip:],
            timing=self.timing,
            bias=self.bias_report,
            resolution=self.config.resolution,
        )

    # --- diagnostics -------------------------------------------------------

    def describe_stages(self) -> list[dict]:
        """Per-stage diagnostic summaries (tests, reports)."""
        return [stage.describe() for stage in self.stages]

    def worst_settling_error(self) -> float:
        """Largest per-stage linear settling error at this rate."""
        return max(
            stage.mdac.settling_error_bound() for stage in self.stages
        )
