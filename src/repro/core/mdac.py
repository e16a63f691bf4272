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

from dataclasses import dataclass, replace

import numpy as np

from repro.devices.opamp import SettleConstants, TwoStageMillerOpamp
from repro.errors import ConfigurationError
from repro.native import chain as native_chain
from repro.profiling import record
from repro.streams import normal, normal_pair
from repro.technology.corners import OperatingPoint
from repro.units import BOLTZMANN


@dataclass(frozen=True)
class _AmplifyConstants:
    """Per-(die, operating point) invariants of the residue transfer.

    Everything :meth:`Mdac.amplify` needs per call but that only changes
    with the bias point: recomputing these per sample batch was ~a third
    of the settle-path cost.  Built lazily by :meth:`Mdac._constants`
    and cached on the (frozen) MDAC keyed by operating-point identity —
    converters hold one operating-point object for their lifetime, so
    the single slot hits on every conversion after the first.

    Noise and settling fields are ``None`` where the matching
    impairment switch is off.  ``chain`` is the same set as the
    compiled chain reads it (see :func:`_chain_parameters`), which
    :meth:`Mdac._constants` fills in.
    """

    feedback_factor: float
    capacitor_ratio: float
    gain_factor: float
    sampling_noise_rms: float | None
    opamp_noise_rms: float | None
    settle: SettleConstants | None
    chain: tuple[np.ndarray, int] | None = None


def _chain_parameters(mdac: "Mdac", c: _AmplifyConstants) -> tuple[np.ndarray, int]:
    """The compiled chain's description of a one-die MDAC: (parameters, flags).

    The vector follows :data:`repro.native.chain.MDAC_FIELDS` and holds
    the very values :meth:`Mdac.amplify` computes with.
    """
    p = mdac.opamp.parameters
    settle = c.settle
    values = {
        "one_plus_ratio": 1.0 + c.capacitor_ratio,
        "ratio": c.capacitor_ratio,
        "gain": c.gain_factor,
        "sampling_rms": 0.0 if c.sampling_noise_rms is None else c.sampling_noise_rms,
        "opamp_rms": 0.0 if c.opamp_noise_rms is None else c.opamp_noise_rms,
        "knee": settle.knee if settle else 0.0,
        "slew_rate": p.slew_rate,
        "tau": settle.tau if settle else 1.0,
        "decay": settle.decay if settle else 0.0,
        "settle_time": settle.settle_time if settle else 0.0,
        "swing": p.output_swing,
        "neg_compression": -p.compression,
    }
    flags = (
        native_chain.SAMPLING_NOISE * mdac.include_sampling_noise
        | native_chain.OPAMP_NOISE * mdac.include_noise
        | native_chain.SETTLING * mdac.include_settling
    )
    return np.array([values[name] for name in native_chain.MDAC_FIELDS]), flags


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

    def _constants(self, operating_point: OperatingPoint) -> _AmplifyConstants:
        """The cached per-operating-point amplify invariants.

        Identity-keyed, single slot: each converter passes the one
        operating-point object it was built with, so the cache computes
        once per (die, bias point) and hits for every later batch.  The
        values are the exact ones the uncached expressions produce —
        caching cannot move a bit.
        """
        cached = self.__dict__.get("_op_constants")
        if cached is not None and cached[0] is operating_point:
            return cached[1]
        beta = self.feedback_factor
        constants = _AmplifyConstants(
            feedback_factor=beta,
            capacitor_ratio=self.capacitor_ratio,
            gain_factor=1.0 - self.opamp.static_gain_error(beta),
            sampling_noise_rms=(
                self.sampling_noise_rms(operating_point)
                if self.include_sampling_noise
                else None
            ),
            opamp_noise_rms=(
                self.opamp.sampled_noise_rms(
                    feedback_factor=beta,
                    load_capacitance=self.load_capacitance,
                    temperature_k=operating_point.temperature_k,
                )
                if self.include_noise
                else None
            ),
            settle=(
                self.opamp.settle_constants(self.settle_time, beta)
                if self.include_settling
                else None
            ),
        )
        constants = replace(constants, chain=_chain_parameters(self, constants))
        object.__setattr__(self, "_op_constants", (operating_point, constants))
        return constants

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
        c = self._constants(operating_point)
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
                    rng, c.sampling_noise_rms, c.opamp_noise_rms, v.shape
                )
            sampling_noise += v
            v, owned = sampling_noise, True
        elif self.include_sampling_noise:
            with record("noise-draw", "mdac-sampling"):
                sampling_noise = normal(rng, 0.0, c.sampling_noise_rms, v.shape)
            sampling_noise += v
            v, owned = sampling_noise, True
        ratio = c.capacitor_ratio
        target = np.multiply(v, 1.0 + ratio, out=v if owned else None)
        dac = np.multiply(codes, ratio, dtype=float)
        dac *= np.asarray(references, dtype=float)
        target -= dac
        target *= c.gain_factor
        with record("mdac", "settle"):
            if self.include_settling:
                # The output node is reset toward CM during phi1 (the
                # feedback caps are reclaimed for tracking), so every
                # settling event starts from zero differential.
                result = self.opamp.settle(
                    target=target,
                    initial=0.0,
                    settle_time=self.settle_time,
                    feedback_factor=c.feedback_factor,
                    constants=c.settle,
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
                residue += normal(rng, 0.0, c.opamp_noise_rms, residue.shape)
        return residue

    def settling_error_bound(self):
        """Linear settling error exp(-T/tau) at this bias point.

        Diagnostic used by the Fig. 5 analysis: the per-stage fractional
        gain shortfall due to finite bandwidth (slew-free).
        """
        tau = self.opamp.closed_loop_tau(self.feedback_factor)
        return np.exp(-self.settle_time / tau)
