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

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.devices.opamp import SettleConstants, TwoStageMillerOpamp
from repro.errors import ConfigurationError
from repro.native import chain as native_chain
from repro.profiling import record
from repro.streams import any_true, normal, normal_pair, shared_value
from repro.technology.corners import OperatingPoint, OperatingPointArray
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

    Fields are floats for one die or (dies, 1) columns for a stacked
    MDAC; ``None`` where the matching impairment switch is off.
    ``chain`` is the same set as the compiled chain reads it (see
    :func:`_chain_parameters`), None for a stacked MDAC.
    """

    feedback_factor: object
    capacitor_ratio: object
    gain_factor: object
    sampling_noise_rms: object
    opamp_noise_rms: object
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
class _FastAmplifyConstants:
    """Float32 residue-transfer invariants of the ``precision="fast"`` tier.

    The fast tier rewrites the residue as ``signal_gain * v -
    dac_gain * d * vref`` (both products folded with the static gain
    factor) and replaces the per-stage pair of noise draws with one
    output-referred draw: the input-referred kT/C noise is carried to
    the output through the linear closed-loop gain, so

        output_noise_rms = sqrt((signal_gain * rms_s)^2 + rms_o^2)

    This is an approximation — the exact path pushes the sampling noise
    through the slewing nonlinearity and the compression — which is why
    the tier is gated statistically (ENOB/SNDR tolerance), never
    bitwise.  All fields are float32 (scalars or (dies, 1) columns)
    except ``output_noise_rms``, which stays float64 because the stream
    layer fills float64 buffers; the in-place add casts it once.
    """

    signal_gain: object
    dac_gain: object
    output_noise_rms: object
    output_swing: object
    compression: object
    settle: SettleConstants | None


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

    ``ratio_error`` (and the opamp parameters) may be (dies, 1) columns
    for a die-stacked instance (see :meth:`stack`); the residue
    expressions broadcast either way.
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
        if any_true(abs(self.ratio_error) >= 0.5):
            raise ConfigurationError(
                "capacitor ratio error beyond 50% is outside the model"
            )
        if any_true(self.load_capacitance <= 0) or self.summing_parasitic < 0:
            raise ConfigurationError("load/parasitic capacitances invalid")
        if self.settle_time <= 0:
            raise ConfigurationError("settle time must be positive")

    @classmethod
    def stack(cls, mdacs: Sequence["Mdac"]) -> "Mdac":
        """One MDAC whose per-die draws are (dies, 1) columns.

        Everything that is configuration (capacitor sizes, timing,
        impairment switches) must agree across the dies; the frozen
        mismatch draw and the per-die opamp bias point are stacked.
        """
        return cls(
            unit_capacitance=shared_value(
                (m.unit_capacitance for m in mdacs), "unit_capacitance"
            ),
            ratio_error=np.array([[m.ratio_error] for m in mdacs]),
            opamp=TwoStageMillerOpamp.stack([m.opamp for m in mdacs]),
            # The load carries the die's absolute capacitance scale, so
            # it is a per-die column, not shared configuration.
            load_capacitance=np.array([[m.load_capacitance] for m in mdacs]),
            summing_parasitic=shared_value(
                (m.summing_parasitic for m in mdacs), "summing_parasitic"
            ),
            settle_time=shared_value(
                (m.settle_time for m in mdacs), "settle_time"
            ),
            include_settling=shared_value(
                (m.include_settling for m in mdacs), "include_settling"
            ),
            include_noise=shared_value(
                (m.include_noise for m in mdacs), "include_noise"
            ),
            include_sampling_noise=shared_value(
                (m.include_sampling_noise for m in mdacs),
                "include_sampling_noise",
            ),
        )

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

    def sampling_noise_rms(
        self, operating_point: OperatingPoint | OperatingPointArray
    ):
        """Differential kT/C noise of this stage's own acquisition [V]."""
        c_actual = (
            self.sampling_capacitance() * operating_point.capacitance_scale()
        )
        return np.sqrt(
            2.0 * BOLTZMANN * operating_point.temperature_k / c_actual
        )

    def _constants(
        self, operating_point: OperatingPoint | OperatingPointArray
    ) -> _AmplifyConstants:
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
        if not np.ndim(self.ratio_error):
            constants = replace(constants, chain=_chain_parameters(self, constants))
        object.__setattr__(self, "_op_constants", (operating_point, constants))
        return constants

    def _fast_constants(
        self, operating_point: OperatingPoint | OperatingPointArray
    ) -> _FastAmplifyConstants:
        """The cached float32 invariants of the fast tier.

        Same identity-keyed single-slot caching as :meth:`_constants`
        (which it builds on, so the underlying physics values are
        computed once either way).
        """
        cached = self.__dict__.get("_op_fast_constants")
        if cached is not None and cached[0] is operating_point:
            return cached[1]
        c = self._constants(operating_point)

        def f32(value):
            return np.asarray(value, dtype=np.float32)

        signal_gain = (1.0 + c.capacitor_ratio) * c.gain_factor
        dac_gain = c.capacitor_ratio * c.gain_factor
        if c.sampling_noise_rms is not None and c.opamp_noise_rms is not None:
            output_noise = np.sqrt(
                (signal_gain * c.sampling_noise_rms) ** 2
                + c.opamp_noise_rms**2
            )
        elif c.sampling_noise_rms is not None:
            output_noise = signal_gain * c.sampling_noise_rms
        else:
            output_noise = c.opamp_noise_rms
        settle = c.settle
        if settle is not None:
            settle = SettleConstants(
                settle_time=settle.settle_time,
                tau=f32(settle.tau),
                decay=f32(settle.decay),
                knee=f32(settle.knee),
            )
        constants = _FastAmplifyConstants(
            signal_gain=f32(signal_gain),
            dac_gain=f32(dac_gain),
            output_noise_rms=output_noise,
            output_swing=f32(self.opamp.parameters.output_swing),
            compression=f32(self.opamp.parameters.compression),
            settle=settle,
        )
        object.__setattr__(
            self, "_op_fast_constants", (operating_point, constants)
        )
        return constants

    # --- the residue transfer -------------------------------------------

    def amplify(
        self,
        inputs: np.ndarray,
        codes: np.ndarray,
        references: np.ndarray,
        operating_point: OperatingPoint | OperatingPointArray,
        rng,
        fast: bool = False,
    ) -> np.ndarray:
        """Produce the residue actually delivered to the next stage [V].

        Args:
            inputs: held stage inputs [V] (already include acquisition
                noise when ``include_sampling_noise`` is False).  A
                die-stacked MDAC accepts (dies, samples) blocks.
            codes: ADSC decisions in {-1, 0, +1}.
            references: per-sample delivered reference voltages [V].
            operating_point: PVT context for noise temperatures (an
                :class:`~repro.technology.corners.OperatingPointArray`
                for stacked runs).
            rng: generator (or :class:`repro.streams.DieStreams`) for
                noise draws.
            fast: run the ``precision="fast"`` tier — float32 state and
                one fused output-referred noise draw per stage.  Not
                bit-exact with the default path; statistically
                equivalent within the documented ENOB/SNDR tolerance.
        """
        if fast:
            return self._amplify_fast(
                inputs, codes, references, operating_point, rng
            )
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

    def _amplify_fast(
        self,
        inputs: np.ndarray,
        codes: np.ndarray,
        references: np.ndarray,
        operating_point: OperatingPoint | OperatingPointArray,
        rng,
    ) -> np.ndarray:
        """The ``precision="fast"`` residue transfer: float32, one draw.

        Same physics as :meth:`amplify` with two deliberate trades (see
        :class:`_FastAmplifyConstants`): float32 arithmetic through the
        settle/compress chain, and the per-stage sampling+opamp noise
        pair collapsed into a single output-referred draw.  Consumes a
        different number of stream values than the exact path, so codes
        differ sample-by-sample; the population metrics agree within
        the statistical-equivalence gate.
        """
        c = self._fast_constants(operating_point)
        v = np.asarray(inputs, dtype=np.float32)
        d = np.asarray(codes, dtype=np.float32)
        vref = np.asarray(references, dtype=np.float32)
        target = c.signal_gain * v
        target -= c.dac_gain * d * vref
        with record("mdac", "settle"):
            if self.include_settling:
                target = self.opamp.settle(
                    target=target,
                    initial=0.0,
                    settle_time=self.settle_time,
                    feedback_factor=None,
                    constants=c.settle,
                ).output
            residue = self.opamp.compress(
                target, swing=c.output_swing, compression=c.compression
            )
        residue = np.asarray(residue, dtype=np.float32)
        if c.output_noise_rms is not None:
            with record("noise-draw", "mdac-fused"):
                noise = normal(rng, 0.0, c.output_noise_rms, residue.shape)
            residue += noise
        return residue

    def settling_error_bound(self):
        """Linear settling error exp(-T/tau) at this bias point.

        Diagnostic used by the Fig. 5 analysis: the per-stage fractional
        gain shortfall due to finite bandwidth (slew-free).
        """
        tau = self.opamp.closed_loop_tau(self.feedback_factor)
        return np.exp(-self.settle_time / tau)
