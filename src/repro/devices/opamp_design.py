"""Bias-current to opamp-parameter translation.

The whole point of the paper's SC bias generator is that opamp speed is
set by a *current* that tracks f_CR and the on-chip capacitance (paper
eq. (1)).  This module is the bridge: given the bias current actually
delivered to a stage, produce the :class:`OpampParameters` the settling
model needs.

Square-law consequences worth noting (they shape paper Fig. 5):

- gm of the input pair grows only as sqrt(I), so GBW ~ sqrt(f_CR) while
  the settling window shrinks as 1/f_CR — performance must eventually
  drop at high conversion rates, and does, just beyond the 110 MS/s
  design point.
- Slew rate grows linearly with I, so slewing never becomes the dominant
  limit as f_CR rises; linear settling does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.devices.opamp import OpampParameters, TwoStageMillerOpamp
from repro.errors import ConfigurationError, ModelDomainError
from repro.technology.corners import OperatingPoint
from repro.technology.mosfet import (
    Mosfet,
    MosPolarity,
    square_law_overdrive,
    square_law_transconductance,
)


@dataclass(frozen=True)
class OpampDesignReport:
    """Sizing-time diagnostics for one opamp design.

    Attributes:
        bias_current: tail current the design was evaluated at [A].
        input_overdrive: input-pair overdrive at that current [V].
        gm: input-pair transconductance [A/V].
        parameters: the resulting behavioral parameters.
    """

    bias_current: float
    input_overdrive: float
    gm: float
    parameters: OpampParameters


@dataclass(frozen=True)
class InputPair:
    """The input device's constants at one operating point.

    What :meth:`OpampDesigner.design` reads of the input transistor
    besides the bias current.  None of it depends on the current, so a
    caller that designs many opamps of one size at one operating point
    (every die of a PVT point, see :class:`repro.core.adc.DieTemplate`)
    evaluates it once with :meth:`OpampDesigner.input_pair`.

    Attributes:
        beta: k' * W/L [A/V^2].
        theta: mobility-degradation coefficient [1/V].
        gate_capacitance: Cox*W*L [F].
    """

    beta: float
    theta: float
    gate_capacitance: float


@dataclass(frozen=True)
class OpampDesigner:
    """Produces :class:`TwoStageMillerOpamp` instances from a bias current.

    Attributes:
        operating_point: PVT context for device evaluation.
        input_pair_width: input device width [m].
        input_pair_length: input device length [m].
        compensation_capacitance: Miller capacitor Cc [F].
        load_capacitance: worst-case differential load [F] (next stage's
            sampling caps plus parasitics); used for the output slew limit.
        output_stage_current_ratio: output-stage quiescent current as a
            multiple of the tail current.
        bias_overhead_ratio: mirror/cascode housekeeping current as a
            multiple of the tail current.
        intrinsic_gain_per_stage: gm*ro per stage at nominal overdrive —
            DC gain is modeled as the product over two stages with an
            overdrive-dependent correction.
        output_swing: maximum differential output amplitude [V].
        compression: output-stage cubic compression coefficient.
        noise_excess_factor: see :class:`OpampParameters`.
    """

    operating_point: OperatingPoint
    input_pair_width: float = 60e-6
    input_pair_length: float = 0.25e-6
    compensation_capacitance: float = 0.9e-12
    load_capacitance: float = 1.8e-12
    output_stage_current_ratio: float = 1.6
    bias_overhead_ratio: float = 0.4
    intrinsic_gain_per_stage: float = 55.0
    output_swing: float = 1.25
    compression: float = 0.0035
    noise_excess_factor: float = 2.2

    def __post_init__(self) -> None:
        positive = {
            "input_pair_width": self.input_pair_width,
            "input_pair_length": self.input_pair_length,
            "compensation_capacitance": self.compensation_capacitance,
            "load_capacitance": self.load_capacitance,
            "output_stage_current_ratio": self.output_stage_current_ratio,
            "intrinsic_gain_per_stage": self.intrinsic_gain_per_stage,
            "output_swing": self.output_swing,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigurationError(
                    f"OpampDesigner.{name} must be positive, got {value}"
                )
        if self.bias_overhead_ratio < 0:
            raise ConfigurationError("bias_overhead_ratio must be >= 0")

    def _input_device(self) -> Mosfet:
        return Mosfet(
            polarity=MosPolarity.NMOS,
            width=self.input_pair_width,
            length=self.input_pair_length,
            operating_point=self.operating_point,
        )

    def input_pair(self) -> InputPair:
        """The input device's current-independent constants."""
        device = self._input_device()
        return InputPair(
            beta=device.beta,
            theta=self.operating_point.technology.mobility_theta,
            gate_capacitance=device.gate_capacitance(),
        )

    def design(
        self, bias_current: float, pair: InputPair | None = None
    ) -> OpampDesignReport:
        """Evaluate the opamp at a given tail current.

        Args:
            bias_current: differential-pair tail current [A].
            pair: this designer's :meth:`input_pair`, when the caller
                holds it already; evaluated here when omitted.

        Returns:
            A report bundling the derived :class:`OpampParameters`.
        """
        parameters, overdrive, gm = self._evaluate(bias_current, pair)
        return OpampDesignReport(
            bias_current=bias_current,
            input_overdrive=overdrive,
            gm=gm,
            parameters=parameters,
        )

    def _evaluate(
        self, bias_current: float, pair: InputPair | None
    ) -> tuple[OpampParameters, float, float]:
        """(parameters, input overdrive, gm) at a tail current."""
        if bias_current <= 0:
            raise ModelDomainError(
                f"bias current must be positive, got {bias_current}"
            )
        if pair is None:
            pair = self.input_pair()
        per_side = bias_current / 2.0
        overdrive = square_law_overdrive(pair.beta, pair.theta, per_side)
        gm = square_law_transconductance(pair.beta, pair.theta, overdrive)

        gbw = gm / (2.0 * math.pi * self.compensation_capacitance)
        slew_internal = bias_current / self.compensation_capacitance
        output_current = bias_current * self.output_stage_current_ratio
        slew_external = output_current / self.load_capacitance
        slew = min(slew_internal, slew_external)

        # Intrinsic gain per stage falls as overdrive rises (gm*ro ~ 1/Vov
        # at fixed Early voltage): normalize to a 0.2 V reference.
        gain_correction = 0.2 / max(overdrive, 0.05)
        dc_gain = (self.intrinsic_gain_per_stage * gain_correction) ** 2
        dc_gain = max(dc_gain, 10.0)

        quiescent = bias_current * (
            1.0 + self.output_stage_current_ratio + self.bias_overhead_ratio
        )
        parameters = OpampParameters(
            dc_gain=dc_gain,
            unity_gain_bandwidth=gbw,
            slew_rate=slew,
            output_swing=self.output_swing,
            compression=self.compression,
            noise_excess_factor=self.noise_excess_factor,
            input_capacitance=pair.gate_capacitance,
            quiescent_current=quiescent,
        )
        return parameters, overdrive, gm

    def build(
        self, bias_current: float, pair: InputPair | None = None
    ) -> TwoStageMillerOpamp:
        """Convenience: design and wrap into the behavioral opamp."""
        return TwoStageMillerOpamp(self._evaluate(bias_current, pair)[0])
