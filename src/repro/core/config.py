"""Converter configuration.

Everything about the reproduced part is decided here: the architecture
(10 x 1.5 bit + 2 bit flash), the paper's stage-scaling plan (1, 2/3,
then 1/3), capacitor sizes, switch style and sizes, opamp sizing, the SC
bias generator constants, clocking and reference parameters — plus
impairment switches that let tests and ablations turn physics on and off
one mechanism at a time.

:meth:`AdcConfig.paper_default` is the calibrated model of the published
silicon (see EXPERIMENTS.md for the calibration record);
:meth:`AdcConfig.ideal` is the same architecture with every impairment
disabled, which must — and in the property tests does — behave as an
ideal 12-bit quantizer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.analog.bandgap import BandgapReference
from repro.analog.bias import FixedBiasGenerator, ScBiasCurrentGenerator
from repro.analog.clocking import ClockGenerator, ClockingScheme
from repro.analog.common_mode import CommonModeGenerator
from repro.analog.references import ReferenceBuffer
from repro.devices.comparator import ComparatorParameters
from repro.errors import ConfigurationError
from repro.technology.process import DigitalGateModel, Technology


class SwitchStyle(enum.Enum):
    """Input-switch implementation (see :mod:`repro.devices.switch`)."""

    #: Plain CMOS transmission gate.
    TRANSMISSION_GATE = "transmission-gate"
    #: The paper's choice: transmission gate with PMOS bulk switching.
    BULK_SWITCHED = "bulk-switched"
    #: Constant-Vgs bootstrapped NMOS (rejected in the paper; ablation).
    BOOTSTRAPPED = "bootstrapped"


@dataclass(frozen=True)
class ScalingPlan:
    """Per-stage capacitor / bias-current scale factors.

    The paper scales "the 2nd stage with a factor 2/3 and the rest of the
    stages with 1/3" relative to stage 1, trading a small noise penalty
    for large area and power savings.

    Attributes:
        factors: one multiplier per stage, stage 1 first.
    """

    factors: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ConfigurationError("scaling plan must have >= 1 stage")
        if any(f <= 0 or f > 1.0001 for f in self.factors):
            raise ConfigurationError(
                "scale factors must be in (0, 1] relative to stage 1"
            )
        if abs(self.factors[0] - 1.0) > 1e-12:
            raise ConfigurationError("stage 1 scale must be exactly 1")
        for earlier, later in zip(self.factors, self.factors[1:]):
            if later > earlier + 1e-12:
                raise ConfigurationError(
                    "scale factors must be non-increasing along the chain"
                )

    @property
    def n_stages(self) -> int:
        return len(self.factors)

    @classmethod
    def paper(cls, n_stages: int = 10) -> "ScalingPlan":
        """The paper's plan: 1, 2/3, then 1/3 for the remaining stages."""
        if n_stages < 3:
            raise ConfigurationError("paper plan needs >= 3 stages")
        return cls(factors=(1.0, 2.0 / 3.0) + (1.0 / 3.0,) * (n_stages - 2))

    @classmethod
    def uniform(cls, n_stages: int = 10) -> "ScalingPlan":
        """Unscaled pipeline (every stage like stage 1) — ablation base."""
        if n_stages < 1:
            raise ConfigurationError("need >= 1 stage")
        return cls(factors=(1.0,) * n_stages)

    def total(self) -> float:
        """Sum of the factors — proportional to total cap area & current."""
        return float(sum(self.factors))


@dataclass(frozen=True)
class StageConfig:
    """Fully resolved electrical configuration of one pipeline stage.

    Produced by :meth:`AdcConfig.stage_configs`; not usually written by
    hand.

    Attributes:
        index: stage position, 0-based.
        scale: scale factor from the plan.
        unit_capacitance: per-side C1 = C2 [F] (scaled).
        mirror_ratio: bias mirror ratio m_i (scaled).
        input_pair_width: opamp input device width [m] (scaled).
        compensation_capacitance: opamp Miller cap [F] (scaled).
        load_capacitance: per-side load presented by the next stage [F].
    """

    index: int
    scale: float
    unit_capacitance: float
    mirror_ratio: float
    input_pair_width: float
    compensation_capacitance: float
    load_capacitance: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError("stage index must be >= 0")
        values = (
            self.scale,
            self.unit_capacitance,
            self.mirror_ratio,
            self.input_pair_width,
            self.compensation_capacitance,
            self.load_capacitance,
        )
        if any(v <= 0 for v in values):
            raise ConfigurationError(
                f"stage {self.index}: all electrical values must be positive"
            )

    @property
    def sampling_capacitance(self) -> float:
        """Per-side hold capacitance C_H = C1 + C2 [F]."""
        return 2.0 * self.unit_capacitance


@dataclass(frozen=True)
class AdcConfig:
    """Complete converter configuration.

    The defaults ARE the calibrated paper model; builders below derive
    ideal and ablation variants from it.

    Attributes:
        technology: process parameter set.
        resolution: output word width [bits].
        n_stages: number of 1.5-bit stages before the flash.
        flash_bits: backend flash resolution [bits].
        vref: differential reference = full-scale amplitude [V]
            (1.0 V -> the paper's 2 V_pp differential input).
        scaling: the stage scaling plan.
        stage1_unit_capacitance: per-side C1 = C2 of stage 1 [F].
        stage1_input_pair_width: stage-1 opamp input device width [m].
        input_pair_length: opamp input device length [m].
        stage1_compensation_capacitance: stage-1 Miller cap [F].
        parasitic_summing_capacitance: fixed wiring + switch parasitic at
            the opamp summing node, per side, stage-1 size [F]; scales
            with the plan.
        output_stage_current_ratio / bias_overhead_ratio /
        intrinsic_gain_per_stage / output_swing / opamp_compression /
        noise_excess_factor: opamp designer knobs
            (see :class:`repro.devices.opamp_design.OpampDesigner`).
        switch_style: input switch implementation.
        input_nmos_width / input_pmos_width / switch_length: input switch
            device sizes [m].
        tracking_side_mismatch: P/N tracking time-constant mismatch.
        bottom_plate_suppression: residual charge-injection fraction.
        switch_off_conductance: hold-mode leakage conductance [S].
        comparator: ADSC comparator statistics.
        flash_comparator: flash comparator statistics.
        stage1_mirror_ratio: bias mirror ratio of stage 1; later stages
            follow the scaling plan.
        bias: the SC bias current generator (eq. (1)).
        use_fixed_bias: replace it with the worst-case fixed generator
            (ablation `abl-bias`).
        fixed_bias: the fixed generator used when ``use_fixed_bias``.
        clock: clock path model.
        reference: reference buffer model.
        bandgap: bandgap model.
        common_mode: CM generator model.
        digital: correction-logic energy model.
        include_thermal_noise / include_jitter / include_mismatch /
        include_settling / include_tracking / include_reference_noise:
            impairment switches.  All True for the paper model; all False
            reduces the converter to an ideal quantizer.
    """

    technology: Technology = field(default_factory=Technology)
    resolution: int = 12
    n_stages: int = 10
    flash_bits: int = 2
    vref: float = 1.0
    scaling: ScalingPlan = field(default_factory=ScalingPlan.paper)

    stage1_unit_capacitance: float = 0.225e-12
    stage1_input_pair_width: float = 40e-6
    input_pair_length: float = 0.25e-6
    stage1_compensation_capacitance: float = 1.2e-12
    parasitic_summing_capacitance: float = 60e-15

    output_stage_current_ratio: float = 1.6
    bias_overhead_ratio: float = 0.4
    intrinsic_gain_per_stage: float = 95.0
    output_swing: float = 1.25
    opamp_compression: float = 0.0004
    noise_excess_factor: float = 2.6

    switch_style: SwitchStyle = SwitchStyle.BULK_SWITCHED
    input_nmos_width: float = 7e-6
    input_pmos_width: float = 21e-6
    switch_length: float = 0.18e-6
    tracking_side_mismatch: float = 0.012
    bottom_plate_suppression: float = 0.04
    switch_off_conductance: float = 3e-9

    comparator: ComparatorParameters = field(
        default_factory=ComparatorParameters
    )
    flash_comparator: ComparatorParameters = field(
        default_factory=lambda: ComparatorParameters(offset_sigma=5e-3)
    )

    stage1_mirror_ratio: float = 20.0
    bias: ScBiasCurrentGenerator = field(
        default_factory=ScBiasCurrentGenerator
    )
    use_fixed_bias: bool = False
    fixed_bias: FixedBiasGenerator = field(default_factory=FixedBiasGenerator)

    clock: ClockGenerator = field(default_factory=ClockGenerator)
    reference: ReferenceBuffer = field(default_factory=ReferenceBuffer)
    bandgap: BandgapReference = field(default_factory=BandgapReference)
    common_mode: CommonModeGenerator = field(
        default_factory=CommonModeGenerator
    )
    digital: DigitalGateModel = field(default_factory=DigitalGateModel)

    include_thermal_noise: bool = True
    include_jitter: bool = True
    include_mismatch: bool = True
    include_settling: bool = True
    include_tracking: bool = True
    include_reference_noise: bool = True

    def __post_init__(self) -> None:
        if self.resolution < 4:
            raise ConfigurationError("resolution below 4 bits is not a pipeline")
        if self.flash_bits < 1:
            raise ConfigurationError("flash must resolve >= 1 bit")
        if self.n_stages != self.scaling.n_stages:
            raise ConfigurationError(
                f"n_stages ({self.n_stages}) != scaling plan length "
                f"({self.scaling.n_stages})"
            )
        # Each 1.5b stage contributes one effective bit; the flash the rest.
        effective = self.n_stages + self.flash_bits
        if effective != self.resolution:
            raise ConfigurationError(
                f"architecture resolves {effective} bits but resolution is "
                f"{self.resolution}: adjust n_stages or flash_bits"
            )
        if self.vref <= 0:
            raise ConfigurationError("vref must be positive")
        positive = {
            "stage1_unit_capacitance": self.stage1_unit_capacitance,
            "stage1_input_pair_width": self.stage1_input_pair_width,
            "input_pair_length": self.input_pair_length,
            "stage1_compensation_capacitance": self.stage1_compensation_capacitance,
            "stage1_mirror_ratio": self.stage1_mirror_ratio,
            "input_nmos_width": self.input_nmos_width,
            "input_pmos_width": self.input_pmos_width,
            "switch_length": self.switch_length,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.parasitic_summing_capacitance < 0:
            raise ConfigurationError("parasitic capacitance must be >= 0")

    # --- derived quantities ------------------------------------------

    @property
    def n_codes(self) -> int:
        """Number of output codes, 2^resolution."""
        return 1 << self.resolution

    @property
    def lsb(self) -> float:
        """Output LSB size referred to the differential input [V]."""
        return 2.0 * self.vref / self.n_codes

    @property
    def full_scale_amplitude(self) -> float:
        """Differential full-scale amplitude (= vref) [V]."""
        return self.vref

    def mirror_ratios(self) -> tuple[float, ...]:
        """Per-stage bias mirror ratios following the scaling plan."""
        return tuple(
            self.stage1_mirror_ratio * s for s in self.scaling.factors
        )

    def resolved_bias(self) -> ScBiasCurrentGenerator:
        """The SC bias generator with mirror ratios from the scaling plan.

        The generator dataclass carries placeholder ratios; the converter
        always biases its stages through this resolved copy, so the
        scaling plan is the single source of truth.
        """
        return replace(self.bias, mirror_ratios=self.mirror_ratios())

    def resolved_fixed_bias(self) -> FixedBiasGenerator:
        """The fixed-bias baseline, sharing the resolved mirror ratios."""
        return replace(self.fixed_bias, template=self.resolved_bias())

    def stage_configs(self) -> tuple[StageConfig, ...]:
        """Resolve the scaling plan into per-stage electrical configs.

        The load each stage drives is the *next* stage's sampling
        capacitance (plus a fixed parasitic); the last stage drives the
        flash, modeled as one third of a stage-1 load.
        """
        factors = self.scaling.factors
        configs = []
        for index, scale in enumerate(factors):
            if index + 1 < len(factors):
                next_scale = factors[index + 1]
                load = (
                    2.0 * self.stage1_unit_capacitance * next_scale
                    + self.parasitic_summing_capacitance * next_scale
                )
            else:
                load = (
                    2.0 * self.stage1_unit_capacitance / 3.0
                    + self.parasitic_summing_capacitance / 3.0
                )
            configs.append(
                StageConfig(
                    index=index,
                    scale=scale,
                    unit_capacitance=self.stage1_unit_capacitance * scale,
                    mirror_ratio=self.stage1_mirror_ratio * scale,
                    input_pair_width=self.stage1_input_pair_width * scale,
                    compensation_capacitance=(
                        self.stage1_compensation_capacitance * scale
                    ),
                    load_capacitance=load,
                )
            )
        return tuple(configs)

    # --- builders ------------------------------------------------------

    @classmethod
    def paper_default(cls) -> "AdcConfig":
        """The calibrated model of the published 110 MS/s part."""
        return cls()

    @classmethod
    def ideal(cls) -> "AdcConfig":
        """Same architecture, every impairment off: an ideal quantizer.

        Used as the oracle in property tests: with ideal components the
        ten 1.5-bit decisions plus the flash must reconstruct the ideal
        12-bit transfer exactly (within the half-LSB convention).
        """
        base = cls()
        return replace(
            base,
            comparator=ComparatorParameters(
                offset_sigma=0.0,
                noise_rms=0.0,
                hysteresis=0.0,
                metastability_window=0.0,
            ),
            flash_comparator=ComparatorParameters(
                offset_sigma=0.0,
                noise_rms=0.0,
                hysteresis=0.0,
                metastability_window=0.0,
            ),
            clock=ClockGenerator(aperture_jitter_rms=0.0),
            reference=ReferenceBuffer(
                static_error=0.0, output_impedance=0.0, noise_rms=0.0
            ),
            opamp_compression=0.0,
            # Effectively infinite opamp DC gain: the closed loop becomes
            # exact and the residue chain reconstructs the ideal transfer.
            intrinsic_gain_per_stage=1e6,
            tracking_side_mismatch=0.0,
            bottom_plate_suppression=0.0,
            switch_off_conductance=0.0,
            include_thermal_noise=False,
            include_jitter=False,
            include_mismatch=False,
            include_settling=False,
            include_tracking=False,
            include_reference_noise=False,
        )

    def with_switch_style(self, style: SwitchStyle) -> "AdcConfig":
        """Copy with a different input-switch implementation."""
        return replace(self, switch_style=style)

    def with_scaling(self, plan: ScalingPlan) -> "AdcConfig":
        """Copy with a different stage-scaling plan."""
        if plan.n_stages != self.n_stages:
            raise ConfigurationError(
                "replacement scaling plan must keep the stage count"
            )
        return replace(self, scaling=plan)

    def with_clocking_scheme(self, scheme: ClockingScheme) -> "AdcConfig":
        """Copy with conventional non-overlap or local clocking."""
        return replace(self, clock=replace(self.clock, scheme=scheme))

    def with_fixed_bias(self, design_rate: float = 140e6) -> "AdcConfig":
        """Copy biased by the conventional fixed worst-case generator."""
        return replace(
            self,
            use_fixed_bias=True,
            fixed_bias=FixedBiasGenerator(
                design_rate=design_rate, template=self.bias
            ),
        )


# --- campaign-fingerprint registries -------------------------------------
#
# Every AdcConfig field must appear in exactly one of the two registries
# below; ``repro lint`` (the fingerprint-coverage checker) enforces it.
# Adding a config field therefore forces a decision about its ledger
# semantics: a field in FINGERPRINT_FIELDS invalidates existing campaign
# ledgers when it changes (it can change measured bits); a field in
# FINGERPRINT_EXCLUDED never can, and says why.

#: Fields serialized into :meth:`CampaignSpec.fingerprint
#: <repro.runtime.campaign.CampaignSpec.fingerprint>`.
FINGERPRINT_FIELDS = (
    "technology",
    "resolution",
    "n_stages",
    "flash_bits",
    "vref",
    "scaling",
    "stage1_unit_capacitance",
    "stage1_input_pair_width",
    "input_pair_length",
    "stage1_compensation_capacitance",
    "parasitic_summing_capacitance",
    "output_stage_current_ratio",
    "bias_overhead_ratio",
    "intrinsic_gain_per_stage",
    "output_swing",
    "opamp_compression",
    "noise_excess_factor",
    "switch_style",
    "input_nmos_width",
    "input_pmos_width",
    "switch_length",
    "tracking_side_mismatch",
    "bottom_plate_suppression",
    "switch_off_conductance",
    "comparator",
    "flash_comparator",
    "stage1_mirror_ratio",
    "bias",
    "use_fixed_bias",
    "fixed_bias",
    "clock",
    "reference",
    "bandgap",
    "common_mode",
    "digital",
    "include_thermal_noise",
    "include_jitter",
    "include_mismatch",
    "include_settling",
    "include_tracking",
    "include_reference_noise",
)

#: Fields deliberately left out of the fingerprint, each with the
#: one-line justification for why it cannot change a measured bit.
#: Empty today: every field can change a measured bit.
FINGERPRINT_EXCLUDED: dict[str, str] = {}
