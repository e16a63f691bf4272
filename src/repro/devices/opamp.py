"""Two-stage Miller opamp behavioral model.

The MDAC residue amplifiers use "a two-stage Miller opamp with a
differential-pair output stage" (paper section 3, ref [3]).  For a
behavioral ADC the opamp is fully characterized by:

- DC gain A0 (finite-gain residue error),
- unity-gain bandwidth GBW = gm_in / (2*pi*Cc) (linear settling speed),
- slew rate (large-step settling),
- output swing and a soft compression nonlinearity near the rails,
- input-referred sampled noise.

:meth:`TwoStageMillerOpamp.settle` implements the classic two-regime
(slew then exponential) settling solution, vectorized over a sample
array.  Incomplete settling is what bends SNDR down above ~120 MS/s in
paper Fig. 5 — the SC bias generator scales gm with f_CR, but only as
sqrt(f_CR) (square-law), while the settling window shrinks as 1/f_CR, so
a knee is inevitable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ModelDomainError
from repro.units import BOLTZMANN, ROOM_TEMPERATURE


@dataclass(frozen=True)
class OpampParameters:
    """Electrical parameters of one opamp instance at one bias point.

    Attributes:
        dc_gain: open-loop DC gain [V/V].
        unity_gain_bandwidth: GBW [Hz].
        slew_rate: output slew rate [V/s] (differential).
        output_swing: maximum differential output amplitude [V].
        compression: cubic compression coefficient; the output stage
            deviates from linear by ``compression * (v/output_swing)^2``
            at amplitude v.  Models the soft rail limiting of a 1.8 V
            output stage.
        noise_excess_factor: multiplies the kT/(beta*C) sampled-noise
            expression; lumps the opamp noise (gamma, current sources,
            second stage) on top of the switch kT/C.
        input_capacitance: differential input capacitance [F]; degrades
            the feedback factor.
        quiescent_current: total opamp supply current at this bias [A].
    """

    dc_gain: float
    unity_gain_bandwidth: float
    slew_rate: float
    output_swing: float
    compression: float = 0.002
    noise_excess_factor: float = 2.0
    input_capacitance: float = 150e-15
    quiescent_current: float = 1e-3

    def __post_init__(self) -> None:
        if self.dc_gain <= 1:
            raise ConfigurationError("opamp DC gain must exceed 1 V/V")
        if self.unity_gain_bandwidth <= 0:
            raise ConfigurationError("GBW must be positive")
        if self.slew_rate <= 0:
            raise ConfigurationError("slew rate must be positive")
        if self.output_swing <= 0:
            raise ConfigurationError("output swing must be positive")
        if self.compression < 0:
            raise ConfigurationError("compression must be non-negative")
        if self.noise_excess_factor < 1.0:
            raise ConfigurationError(
                "noise excess factor below 1 would beat kT/C — unphysical"
            )
        if self.input_capacitance < 0 or self.quiescent_current < 0:
            raise ConfigurationError(
                "input capacitance and quiescent current must be >= 0"
            )


@dataclass(frozen=True)
class SettleConstants:
    """Per-bias-point invariants of the two-regime settling solution.

    Everything here is frozen once an amplifier's bias point and the
    phase budget are fixed — per die, not per sample batch — so hot
    paths compute it once (:meth:`TwoStageMillerOpamp.settle_constants`)
    and hand it back to every :meth:`TwoStageMillerOpamp.settle` call.

    Attributes:
        settle_time: the phi2 window the constants were built for [s].
        tau: closed-loop time constant 1/(2*pi*beta*GBW) [s].
        decay: linear settling factor ``exp(-settle_time/tau)``.
        knee: error level ``SR*tau`` where slewing hands over to the
            exponential regime [V].
    """

    settle_time: float
    tau: float
    decay: float
    knee: float


@dataclass(frozen=True)
class SettlingResult:
    """Outcome of a vectorized settling evaluation.

    Attributes:
        output: settled differential output [V], array.
        slewing_fraction: fraction of samples that spent any time slewing.
        incomplete_fraction: fraction of samples still slewing at the end
            of the window (gross errors).
    """

    output: np.ndarray
    slewing_fraction: float
    incomplete_fraction: float


class TwoStageMillerOpamp:
    """Behavioral two-stage Miller opamp.

    Args:
        parameters: electrical parameter bundle.

    The object is stateless: every method is a pure function of its
    arguments, so one instance can serve a whole sample array.
    """

    def __init__(self, parameters: OpampParameters):
        self.parameters = parameters

    # --- closed-loop helpers -------------------------------------------

    def closed_loop_tau(self, feedback_factor):
        """Closed-loop settling time constant 1/(2*pi*beta*GBW) [s]."""
        if feedback_factor <= 0 or feedback_factor > 1:
            raise ModelDomainError(
                f"feedback factor must be in (0, 1], got {feedback_factor}"
            )
        return 1.0 / (
            2.0 * math.pi * feedback_factor * self.parameters.unity_gain_bandwidth
        )

    def static_gain_error(self, feedback_factor):
        """Fractional closed-loop gain error 1/(1 + A0*beta)."""
        if feedback_factor <= 0 or feedback_factor > 1:
            raise ModelDomainError(
                f"feedback factor must be in (0, 1], got {feedback_factor}"
            )
        return 1.0 / (1.0 + self.parameters.dc_gain * feedback_factor)

    # --- settling -------------------------------------------------------

    def settle_constants(
        self, settle_time: float, feedback_factor: float
    ) -> SettleConstants:
        """Precompute the per-bias-point settling invariants.

        The MDAC holds these per die (they change only with the bias
        point and the phase budget) and passes them back into
        :meth:`settle`, which then skips the per-call recomputation and
        validation.
        """
        if settle_time <= 0:
            raise ModelDomainError(
                f"settle time must be positive, got {settle_time}"
            )
        tau = self.closed_loop_tau(feedback_factor)
        return SettleConstants(
            settle_time=settle_time,
            tau=tau,
            decay=np.exp(-settle_time / tau),
            knee=self.parameters.slew_rate * tau,
        )

    def settle(
        self,
        target: np.ndarray,
        initial: np.ndarray | float,
        settle_time: float,
        feedback_factor: float,
        constants: SettleConstants | None = None,
    ) -> SettlingResult:
        """Settle from ``initial`` toward ``target`` for ``settle_time``.

        Implements the standard two-regime solution of a single-pole amp
        with output current limiting:

        - If the required initial slope ``|step|/tau`` exceeds the slew
          rate, the output ramps at SR until the remaining error equals
          ``SR*tau``, then settles exponentially.
        - Otherwise it settles exponentially from the start.

        Args:
            target: ideal final value per sample [V].
            initial: starting output per sample (scalar broadcastable).
            settle_time: available amplification window [s].
            feedback_factor: closed-loop beta of the MDAC.
            constants: precomputed invariants from
                :meth:`settle_constants` (built for the same window and
                beta); computed on the fly when omitted.

        Returns:
            :class:`SettlingResult` with the actually reached output.

        Every arithmetic path below evaluates the identical IEEE
        expressions in the identical order, so the result is bit-exact
        regardless of which branch runs (``tests/test_opamp.py`` pins
        this against a dense reference evaluation).
        """
        if constants is None:
            constants = self.settle_constants(settle_time, feedback_factor)
        settle_time = constants.settle_time
        tau = constants.tau
        slew_rate = self.parameters.slew_rate
        target = np.asarray(target, dtype=float)
        if isinstance(initial, (int, float)) and initial == 0.0:
            # The MDAC resets its output toward CM every phi1, so the
            # hot path always starts from zero: ``target - 0.0`` is
            # ``target`` bit for bit (IEEE: x - 0.0 == x, including
            # signed zeros), so skip the subtraction and the broadcast.
            start = 0.0
            step = target
        else:
            start = np.broadcast_to(
                np.asarray(initial, dtype=target.dtype), target.shape
            )
            step = target - start
        magnitude = np.abs(step)
        linear_knee = constants.knee  # error level where slewing hands over

        slewing = magnitude > linear_knee
        n_slewing = int(np.count_nonzero(slewing))
        if n_slewing == 0:
            # Pure exponential settling everywhere: the decay factor is
            # constant per amplifier, so the whole block reduces to a
            # single fused expression.  Bit-identical to the general
            # path below (IEEE multiplication is sign-symmetric).
            output = step * constants.decay
            return SettlingResult(
                output=np.subtract(target, output, out=output),
                slewing_fraction=0.0,
                incomplete_fraction=0.0,
            )
        total = target.size if target.size else 1
        sign = np.sign(step)
        if n_slewing * 2 <= total:
            # Sparse fast path: most samples settle exponentially, where
            # the residual is just ``magnitude * decay`` (``linear_time``
            # equals the full window exactly when no time was slewed).
            # The slew arithmetic — including the only exp() over
            # non-constant input — runs on the slewing samples alone,
            # addressed by flat index.
            index = np.flatnonzero(slewing)
            mag_s = magnitude.take(index)
            sign_s = sign.take(index)
            start_s = start.take(index) if isinstance(start, np.ndarray) else start
            t_slew_s = (mag_s - linear_knee) / slew_rate
            still_s = t_slew_s >= settle_time
            linear_time_s = np.maximum(settle_time - t_slew_s, 0.0)
            residual_s = linear_knee * np.exp(-linear_time_s / tau)
            # magnitude doubles as the signed-residual and the output
            # buffer from here; its flat view takes the slewing samples.
            output = magnitude
            output *= constants.decay
            output *= sign
            flat = np.subtract(target, output, out=output).reshape(-1)
            flat[index] = np.where(
                still_s,
                start_s + sign_s * slew_rate * settle_time,
                target.take(index) - sign_s * residual_s,
            )
            return SettlingResult(
                output=flat.reshape(output.shape),
                slewing_fraction=float(n_slewing) / total,
                incomplete_fraction=float(np.count_nonzero(still_s)) / total,
            )
        # Time spent slewing to bring the error down to the knee.
        t_slew = np.where(slewing, (magnitude - linear_knee) / slew_rate, 0.0)

        still_slewing = slewing & (t_slew >= settle_time)
        linear_time = np.maximum(settle_time - t_slew, 0.0)
        residual_start = np.where(slewing, linear_knee, magnitude)
        residual = residual_start * np.exp(-linear_time / tau)

        output = np.where(
            still_slewing,
            start + sign * slew_rate * settle_time,
            target - sign * residual,
        )
        return SettlingResult(
            output=output,
            slewing_fraction=float(n_slewing) / total,
            incomplete_fraction=float(np.count_nonzero(still_slewing)) / total,
        )

    # --- static nonlinearity and noise ----------------------------------

    def compress(self, output: np.ndarray) -> np.ndarray:
        """Apply the output-stage soft compression and hard clip.

        ``v -> v * (1 - c*(v/Vmax)^2)`` inside the swing, hard-clipped at
        ``+-Vmax``.  The cubic term contributes the (small) static HD3
        floor of the converter.
        """
        swing = self.parameters.output_swing
        v = np.asarray(output, dtype=float)
        # One working buffer end to end; every in-place step evaluates
        # the same IEEE expression as the naive chain
        # ``clip(v * (1 - c * clip(v/Vmax, -1, 1)^2), -Vmax, Vmax)``
        # (multiplication is commutative and sign-symmetric bit for
        # bit), so this is purely an allocation saving.
        work = v / swing
        np.clip(work, -1.0, 1.0, out=work)
        work *= work
        work *= -self.parameters.compression
        work += 1.0
        work *= v
        return np.clip(work, -swing, swing, out=work)

    def sampled_noise_rms(
        self,
        feedback_factor,
        load_capacitance: float,
        temperature_k=ROOM_TEMPERATURE,
    ):
        """Input-referred rms noise sampled at the end of amplification [V].

        The closed-loop amplifier band-limits its own noise to
        ``pi/2 * beta * GBW``; integrating the white input noise over that
        band gives the familiar ``NEF * kT / (beta * C_load)`` charge
        noise.  The excess factor folds in the current sources and the
        second stage.
        """
        if load_capacitance <= 0:
            raise ModelDomainError("load capacitance must be positive")
        if feedback_factor <= 0 or feedback_factor > 1:
            raise ModelDomainError(
                f"feedback factor must be in (0, 1], got {feedback_factor}"
            )
        p = self.parameters
        variance = (
            p.noise_excess_factor
            * BOLTZMANN
            * temperature_k
            / (feedback_factor * load_capacitance)
        )
        return np.sqrt(variance)

    def power(self, supply_voltage: float) -> float:
        """Static power drawn from the supply at this bias point [W]."""
        if supply_voltage <= 0:
            raise ModelDomainError("supply voltage must be positive")
        return self.parameters.quiescent_current * supply_voltage
