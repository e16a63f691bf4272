"""Front-end sampling network — the Fig. 6 distortion mechanism.

The first pipeline stage samples the raw input directly ("The input
signal is applied directly to the 1st stage, which also performs
sample-and-hold"), through transmission-gate switches that are *not*
bootstrapped.  The paper is explicit about the consequence: "The reason
why SFDR, and subsequently SNDR, are falling off at high input
frequencies is the nonlinearity introduced by the input switches ...
both the channel resistance and the parasitic capacitances are
nonlinear."

The behavioral model is the standard first-order tracking expansion.
During phi1 the sampling capacitor tracks the input through the switch
resistance, so at the sampling instant each single-ended side holds

    v_tracked = v(t) - tau(v) * dv/dt,     tau(v) = R_on(v)*(C_H + C_par(v))

The differential combination cancels the constant part of tau (delay)
and the odd part (common-mode), leaving the even-order curvature of
tau(v) times dv/dt — distortion that grows ~20 dB/decade with input
frequency, which is exactly the measured SFDR slope.

Also modeled: charge-injection pedestal (suppressed by bottom-plate
sampling via S1B), kT/C noise, and hold-mode droop through switch
off-state leakage (visible only at very low conversion rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.devices.switch import SwitchModel
from repro.errors import ConfigurationError, ModelDomainError
from repro.profiling import record
from repro.streams import normal
from repro.technology.corners import OperatingPoint
from repro.units import BOLTZMANN


@dataclass(frozen=True)
class TrackingModel:
    """Pure tracking-nonlinearity evaluator (no noise, no droop).

    Kept separate from the full network so tests and ablations can probe
    the distortion mechanism in isolation.

    Attributes:
        switch: per-side series switch model (S1 of stage 1).
        hold_capacitance: per-side sampling capacitance C_H [F].
        common_mode: single-ended common-mode voltage [V].
        side_mismatch: fractional tau mismatch between the P and N sides;
            converts a little of the odd-order error into even harmonics,
            as physical layout asymmetry does.
    """

    switch: SwitchModel
    hold_capacitance: float
    common_mode: float
    side_mismatch: float = 0.01

    def __post_init__(self) -> None:
        if self.hold_capacitance <= 0:
            raise ConfigurationError("hold capacitance must be positive")
        if self.common_mode <= 0:
            raise ConfigurationError("common mode must be positive")
        if abs(self.side_mismatch) > 0.2:
            raise ConfigurationError("side mismatch beyond 20% is not credible")

    def single_ended(self, differential: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a differential signal into (positive, negative) nodes."""
        v = np.asarray(differential, dtype=float)
        return self.common_mode + v / 2.0, self.common_mode - v / 2.0

    def time_constants(
        self, differential: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-side tracking time constants at the given signal [s]."""
        positive, negative = self.single_ended(differential)
        tau_p = self.switch.time_constant(positive, self.hold_capacitance)
        tau_n = self.switch.time_constant(negative, self.hold_capacitance)
        return tau_p, tau_n * (1.0 + self.side_mismatch)

    def track(
        self, differential: np.ndarray, derivative: np.ndarray
    ) -> np.ndarray:
        """Differential voltage actually acquired at the sample instant.

        Args:
            differential: ideal differential input at the (jittered)
                sampling instants [V].
            derivative: time derivative of the differential input at the
                same instants [V/s].

        Returns:
            Tracked differential voltage [V].
        """
        v = np.asarray(differential, dtype=float)
        dvdt = np.asarray(derivative, dtype=float)
        if v.shape != dvdt.shape:
            raise ConfigurationError(
                "signal and derivative arrays must have the same shape"
            )
        tau_p, tau_n = self.time_constants(v)
        if not np.all(np.isfinite(tau_p)) or not np.all(np.isfinite(tau_n)):
            raise ModelDomainError(
                "input switch cut off within the signal range — the swing "
                "does not fit this switch style at this supply"
            )
        return v - 0.5 * (tau_p + tau_n) * dvdt

    def pedestal(self, differential: np.ndarray, suppression: float) -> np.ndarray:
        """Differential charge-injection pedestal after bottom-plate
        suppression [V].

        Args:
            differential: held differential voltage [V].
            suppression: residual fraction of the raw pedestal that
                survives bottom-plate sampling (S1B opening first).
        """
        if not 0 <= suppression <= 1:
            raise ConfigurationError("suppression must be in [0, 1]")
        positive, negative = self.single_ended(differential)
        q_p = self.switch.charge_injection(positive)
        q_n = self.switch.charge_injection(negative)
        return suppression * (q_p - q_n) / self.hold_capacitance


@dataclass(frozen=True)
class SamplingNetwork:
    """Complete stage-1 acquisition model.

    Combines tracking distortion, charge-injection pedestal, kT/C noise
    and hold droop into the voltage the first MDAC actually receives.

    Attributes:
        tracking: the deterministic tracking model.
        bottom_plate_suppression: residual pedestal fraction (S1B opens
            first; 0.08 keeps a small realistic residue).
        off_conductance: switch off-state (subthreshold) leakage
            conductance per side [S]; discharges the hold caps during
            the amplification phase and matters only at low f_CR.
        droop_signal_fraction: fraction of the droop that is signal-
            dependent (the rest is common-mode and cancels).
        droop_nonlinearity: quadratic amplitude dependence of the leak —
            subthreshold off-current grows superlinearly with the held
            voltage across the switch, so the droop compresses large
            samples more than small ones.  This is what caps SNDR below
            its 20+ MS/s value at very slow conversion rates (the paper
            quotes "SNDR above 64 dB from 20 MS/s", not from 5).
        include_noise: disable to get the deterministic transfer (used
            by distortion-only analyses).
    """

    tracking: TrackingModel
    bottom_plate_suppression: float = 0.08
    off_conductance: float = 3e-9
    droop_signal_fraction: float = 0.6
    droop_nonlinearity: float = 2.5
    include_noise: bool = True

    def __post_init__(self) -> None:
        if self.off_conductance < 0:
            raise ConfigurationError("off conductance must be >= 0")
        if not 0 <= self.droop_signal_fraction <= 1:
            raise ConfigurationError(
                "droop signal fraction must be in [0, 1]"
            )
        if self.droop_nonlinearity < 0:
            raise ConfigurationError("droop nonlinearity must be >= 0")

    def noise_rms(self, operating_point: OperatingPoint) -> float:
        """Differential sampled kT/C noise [V].

        Each side samples kT/C_H; the differential combination doubles
        the variance.
        """
        c_actual = (
            self.tracking.hold_capacitance * operating_point.capacitance_scale()
        )
        return math.sqrt(2.0 * BOLTZMANN * operating_point.temperature_k / c_actual)

    def droop_gain_error(self, hold_time: float) -> float:
        """Fractional signal loss during one hold interval.

        ``g_off * t_hold / C_H`` of the held charge leaks away; only the
        signal-dependent fraction shows up differentially.
        """
        if hold_time < 0:
            raise ConfigurationError("hold time must be >= 0")
        raw = self.off_conductance * hold_time / self.tracking.hold_capacitance
        return self.droop_signal_fraction * raw

    def acquire(
        self,
        differential: np.ndarray,
        derivative: np.ndarray,
        hold_time: float,
        operating_point: OperatingPoint,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Produce the voltage delivered to the first MDAC [V].

        Args:
            differential: ideal differential input at the jittered
                sampling instants [V].
            derivative: input derivative at the same instants [V/s].
            hold_time: duration of the amplification phase (droop) [s].
            operating_point: PVT context for the noise temperature.
            rng: generator for the kT/C noise.
        """
        held = self.tracking.track(differential, derivative)
        held = held + self.tracking.pedestal(held, self.bottom_plate_suppression)
        droop = self.droop_gain_error(hold_time)
        held = held * (1.0 - droop * (1.0 + self.droop_nonlinearity * held**2))
        return self.add_noise(held, operating_point, rng)

    def add_noise(
        self,
        held: np.ndarray,
        operating_point: OperatingPoint,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``held`` plus the kT/C noise (a new array), or ``held`` when it is off."""
        if self.include_noise:
            with record("noise-draw", "sample-ktc"):
                held = held + normal(
                    rng, 0.0, self.noise_rms(operating_point), held.shape
                )
        return held
