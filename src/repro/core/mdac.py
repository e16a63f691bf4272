"""Multiplying DAC — the residue amplifier of one pipeline stage.

Paper Fig. 2: during phi1 the input is sampled onto the parallel metal
capacitors C1 and C2; during phi2 the opamp closes the loop with C2 in
feedback while the Decoder-and-Switching-Block (DSB) connects the top
plate of C1 to V_REFP, V_REFN or V_CM according to the ADSC decision.
The ideal residue is

    v_res = (1 + C1/C2) * v_in - (C1/C2) * d * v_ref,   d in {-1, 0, +1}

i.e. gain 2 minus a shifted reference for matched capacitors.  The model
layers the real-life errors on top:

- capacitor ratio error C1/C2 = 1 + delta (the DNL/INL source),
- finite opamp DC gain (static gain error 1/(1 + A0*beta)),
- incomplete settling in the phi2 window, including slewing
  (the Fig. 5 high-rate knee),
- opamp output compression and sampled noise,
- per-sample delivered reference (buffer sag + noise).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.devices.opamp import SettleConstants, TwoStageMillerOpamp
from repro.errors import ConfigurationError
from repro.native import chain as native_chain
from repro.profiling import record
from repro.streams import normal, normal_pair
from repro.technology.corners import OperatingPoint
from repro.units import BOLTZMANN


def chain_parameters(
    mdacs: Sequence["Mdac"], operating_point: OperatingPoint
) -> tuple[np.ndarray, np.ndarray]:
    """The residue-transfer constants of any number of MDACs at once.

    Returns ``(parameters, flags)``: one row per MDAC following
    :data:`repro.native.chain.MDAC_FIELDS` (the vector the compiled
    chain reads, and the values :meth:`Mdac.amplify` computes with) and
    one int64 impairment-flag word per MDAC.  Fields of a switched-off
    impairment hold the chain's neutral values (0 rms, no settling).

    Every column is the scalar expression of :meth:`Mdac.feedback_factor`,
    :meth:`Mdac.sampling_noise_rms` and the opamp's
    ``static_gain_error`` / ``sampled_noise_rms`` / ``settle_constants``,
    in the same operand order, with IEEE basic operations and numpy's
    own ``sqrt``/``exp`` only, so each row is bit for bit the one-stage
    scalar result.
    """
    (
        unit, ratio_error, parasitic, load, window, input_capacitance,
        dc_gain, bandwidth, slew, output_swing, compression, excess,
        sampling, noise, settling,
    ) = np.array(
        [
            (
                mdac.unit_capacitance, mdac.ratio_error, mdac.summing_parasitic,
                mdac.load_capacitance, mdac.settle_time, p.input_capacitance,
                p.dc_gain, p.unity_gain_bandwidth, p.slew_rate, p.output_swing,
                p.compression, p.noise_excess_factor,
                mdac.include_sampling_noise, mdac.include_noise,
                mdac.include_settling,
            )
            for mdac in mdacs
            for p in (mdac.opamp.parameters,)
        ],
        dtype=float,
    ).T
    parameters = np.empty((len(mdacs), len(native_chain.MDAC_FIELDS)))
    (
        one_plus_ratio, ratio, gain, sampling_rms, opamp_rms, knee,
        slew_rate, tau, decay, settle_time, swing, neg_compression,
    ) = parameters.T
    np.add(1.0, ratio_error, out=ratio)
    np.add(1.0, ratio, out=one_plus_ratio)
    beta = unit / (unit * ratio + unit + parasitic + input_capacitance)
    np.subtract(1.0, 1.0 / (1.0 + dc_gain * beta), out=gain)
    temperature_k = operating_point.temperature_k
    np.sqrt(
        2.0 * BOLTZMANN * temperature_k
        / (unit * one_plus_ratio * operating_point.capacitance_scale()),
        out=sampling_rms,
    )
    np.sqrt(
        excess * BOLTZMANN * temperature_k / (beta * load), out=opamp_rms
    )
    np.divide(1.0, 2.0 * math.pi * beta * bandwidth, out=tau)
    np.multiply(slew, tau, out=knee)
    np.exp(-window / tau, out=decay)
    slew_rate[:] = slew
    settle_time[:] = window
    swing[:] = output_swing
    np.negative(compression, out=neg_compression)
    # A switched-off impairment reads the chain's neutral values.
    sampling, noise, settling = sampling > 0, noise > 0, settling > 0
    sampling_rms[~sampling] = 0.0
    opamp_rms[~noise] = 0.0
    unsettled = ~settling
    tau[unsettled] = 1.0
    knee[unsettled] = decay[unsettled] = settle_time[unsettled] = 0.0
    flags = (
        native_chain.SAMPLING_NOISE * sampling
        | native_chain.OPAMP_NOISE * noise
        | native_chain.SETTLING * settling
    )
    return parameters, flags


@dataclass(frozen=True)
class Mdac:
    """Residue amplifier of one stage.

    Attributes:
        unit_capacitance: per-side C2 (= nominal C1) [F].
        ratio_error: delta = C1/C2 - 1 (frozen mismatch draw).
        opamp: the stage's residue amplifier at its current bias point.
        load_capacitance: per-side load during amplification [F].
        summing_parasitic: fixed parasitic at the summing node [F].
        settle_time: phi2 window available for settling [s].
        include_settling: model incomplete settling (else ideal close).
        include_noise: add opamp sampled noise.
        include_sampling_noise: add this stage's own kT/C acquisition
            noise (off for stage 1, whose front-end network owns it).
    """

    unit_capacitance: float
    ratio_error: float
    opamp: TwoStageMillerOpamp
    load_capacitance: float
    summing_parasitic: float
    settle_time: float
    include_settling: bool = True
    include_noise: bool = True
    include_sampling_noise: bool = True

    def __post_init__(self) -> None:
        if self.unit_capacitance <= 0:
            raise ConfigurationError("unit capacitance must be positive")
        if abs(self.ratio_error) >= 0.5:
            raise ConfigurationError(
                "capacitor ratio error beyond 50% is outside the model"
            )
        if self.load_capacitance <= 0 or self.summing_parasitic < 0:
            raise ConfigurationError("load/parasitic capacitances invalid")
        if self.settle_time <= 0:
            raise ConfigurationError("settle time must be positive")

    # --- small-signal quantities ----------------------------------------

    @property
    def capacitor_ratio(self):
        """C1/C2 including the mismatch draw."""
        return 1.0 + self.ratio_error

    @property
    def feedback_factor(self):
        """Closed-loop beta = C2 / (C1 + C2 + C_parasitic + C_in)."""
        c2 = self.unit_capacitance
        c1 = c2 * self.capacitor_ratio
        c_sum = (
            c1 + c2 + self.summing_parasitic
            + self.opamp.parameters.input_capacitance
        )
        return c2 / c_sum

    @property
    def ideal_gain(self):
        """Interstage gain 1 + C1/C2 (=2 for matched caps)."""
        return 1.0 + self.capacitor_ratio

    def static_gain_error(self):
        """Fractional gain error from finite opamp DC gain."""
        return self.opamp.static_gain_error(self.feedback_factor)

    def sampling_capacitance(self):
        """Per-side acquisition capacitance C1 + C2 [F]."""
        return self.unit_capacitance * (1.0 + self.capacitor_ratio)

    def sampling_noise_rms(self, operating_point: OperatingPoint):
        """Differential kT/C noise of this stage's own acquisition [V]."""
        c_actual = (
            self.sampling_capacitance() * operating_point.capacitance_scale()
        )
        return np.sqrt(
            2.0 * BOLTZMANN * operating_point.temperature_k / c_actual
        )

    # --- the residue transfer -------------------------------------------

    def amplify(
        self,
        inputs: np.ndarray,
        codes: np.ndarray,
        references: np.ndarray,
        operating_point: OperatingPoint,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Produce the residue actually delivered to the next stage [V].

        Args:
            inputs: held stage inputs [V] (already include acquisition
                noise when ``include_sampling_noise`` is False).
            codes: ADSC decisions in {-1, 0, +1}.
            references: per-sample delivered reference voltages [V].
            operating_point: PVT context for noise temperatures.
            rng: generator for noise draws.
        """
        (row,), _ = chain_parameters((self,), operating_point)
        (
            one_plus_ratio, ratio, gain, sampling_rms, opamp_rms, knee, _,
            tau, decay, settle_time, _, _,
        ) = row.tolist()
        v = np.asarray(inputs, dtype=float)
        # Every step below evaluates the IEEE expression
        # ``((1 + ratio) * (v + n_s) - ratio * d * vref) * gain`` and
        # ``compress(settle(.)) + n_o`` in that order; buffers this call
        # allocated are updated in place (addition and multiplication
        # commute bit for bit), so the in-place forms move no bit.
        owned = False
        opamp_noise = None
        if self.include_sampling_noise and self.include_noise:
            # The two per-stage draws are consecutive in the stream (no
            # draw happens between them), so one fused Generator call
            # serves both — bit-exact, see streams.normal_pair.
            with record("noise-draw", "mdac-pair"):
                sampling_noise, opamp_noise = normal_pair(
                    rng, sampling_rms, opamp_rms, v.shape
                )
            sampling_noise += v
            v, owned = sampling_noise, True
        elif self.include_sampling_noise:
            with record("noise-draw", "mdac-sampling"):
                sampling_noise = normal(rng, 0.0, sampling_rms, v.shape)
            sampling_noise += v
            v, owned = sampling_noise, True
        target = np.multiply(v, one_plus_ratio, out=v if owned else None)
        dac = np.multiply(codes, ratio, dtype=float)
        dac *= np.asarray(references, dtype=float)
        target -= dac
        target *= gain
        with record("mdac", "settle"):
            if self.include_settling:
                # The output node is reset toward CM during phi1 (the
                # feedback caps are reclaimed for tracking), so every
                # settling event starts from zero differential.
                result = self.opamp.settle(
                    target=target,
                    initial=0.0,
                    settle_time=settle_time,
                    feedback_factor=self.feedback_factor,
                    constants=SettleConstants(
                        settle_time=settle_time, tau=tau, decay=decay, knee=knee
                    ),
                )
                residue = result.output
            else:
                residue = target
            # compress returns a fresh buffer, so the noise adds in place.
            residue = self.opamp.compress(residue)
        if opamp_noise is not None:
            residue += opamp_noise
        elif self.include_noise:
            with record("noise-draw", "mdac-opamp"):
                residue += normal(rng, 0.0, opamp_rms, residue.shape)
        return residue

    def settling_error_bound(self):
        """Linear settling error exp(-T/tau) at this bias point.

        Diagnostic used by the Fig. 5 analysis: the per-stage fractional
        gain shortfall due to finite bandwidth (slew-free).
        """
        tau = self.opamp.closed_loop_tau(self.feedback_factor)
        return np.exp(-self.settle_time / tau)
