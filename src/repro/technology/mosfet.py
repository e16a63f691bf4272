"""Square-law MOSFET model with mobility degradation and body effect.

The behavioral ADC needs transistors in two places:

- **Switches** (paper section 3): triode-region on-conductance as a
  function of the signal voltage, including the body effect that the
  paper's bulk-switching trick manipulates.
- **Opamps / current mirrors**: saturation gm and current for the
  bias-to-bandwidth translation of the SC bias generator.

A long-channel square-law model with a vertical-field mobility-degradation
term ``1/(1 + theta*Vov)`` is the standard behavioral abstraction at this
level; it reproduces the *shape* of Ron(V) curves (the source of the
high-frequency SFDR roll-off in paper Fig. 6) without SPICE.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ModelDomainError
from repro.technology.corners import OperatingPoint


class MosPolarity(enum.Enum):
    """Transistor polarity."""

    NMOS = "nmos"
    PMOS = "pmos"


#: Subthreshold transition width for the triode-conductance softplus
#: [V]; ~1.5 thermal voltages at room temperature.
_SUBTHRESHOLD_SMOOTHING = 0.040


def square_law_overdrive(beta: float, theta: float, drain_current: float) -> float:
    """Saturation overdrive for a drain current, given beta and theta [V].

    Solves ``0.5*beta*Vov^2/(1+theta*Vov) = Id`` exactly (quadratic in
    Vov).  Shared by :meth:`Mosfet.overdrive_for_current` and callers
    that hold a device's beta and theta already, so both compute the
    same bits.
    """
    # 0.5*beta*Vov^2 - Id*theta*Vov - Id = 0
    a = 0.5 * beta
    b = -drain_current * theta
    c = -drain_current
    return (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)


def square_law_transconductance(beta: float, theta: float, overdrive: float) -> float:
    """Saturation gm at an overdrive, given beta and theta [A/V].

    Differentiates the degraded square law; reduces to
    ``gm = 2*Id/Vov`` when theta = 0.
    """
    mob = 1.0 / (1.0 + theta * overdrive)
    # d/dVov [0.5*beta*Vov^2*mob] = beta*Vov*mob - 0.5*beta*Vov^2*mob^2*theta
    return beta * overdrive * mob - 0.5 * beta * overdrive**2 * theta * mob**2


@dataclass(frozen=True)
class Mosfet:
    """A sized transistor evaluated at an operating point.

    Voltages follow the usual conventions: for NMOS all terminal voltages
    are referred to the source except where stated; for PMOS the model
    works in magnitudes so callers never juggle signs.

    Attributes:
        polarity: NMOS or PMOS.
        width: drawn channel width [m].
        length: drawn channel length [m].
        operating_point: PVT context supplying Vth and k'.
    """

    polarity: MosPolarity
    width: float
    length: float
    operating_point: OperatingPoint

    def __post_init__(self) -> None:
        if self.width <= 0 or self.length <= 0:
            raise ConfigurationError(
                f"transistor W and L must be positive, got W={self.width}, "
                f"L={self.length}"
            )

    # --- parameter plumbing -------------------------------------------

    @property
    def aspect_ratio(self) -> float:
        """W/L."""
        return self.width / self.length

    @property
    def kprime(self) -> float:
        """Process transconductance u*Cox at the operating point [A/V^2]."""
        if self.polarity is MosPolarity.NMOS:
            return self.operating_point.nmos_kprime()
        return self.operating_point.pmos_kprime()

    @property
    def beta(self) -> float:
        """Device transconductance factor k' * W/L [A/V^2]."""
        return self.kprime * self.aspect_ratio

    def threshold(self, source_bulk_voltage: float | np.ndarray = 0.0):
        """Threshold magnitude including body effect [V].

        ``Vth = Vth0 + gamma * (sqrt(2phiF + Vsb) - sqrt(2phiF))``

        Args:
            source_bulk_voltage: V_SB magnitude (>= -2phiF for validity);
                scalar or array.  For PMOS this is the bulk-source
                magnitude — bulk switching makes it 0.

        Returns:
            Threshold magnitude, broadcast like the input.
        """
        tech = self.operating_point.technology
        vsb = np.asarray(source_bulk_voltage, dtype=float)
        phi = tech.surface_potential
        if np.any(vsb < -phi):
            raise ModelDomainError(
                "source-bulk voltage forward-biases the junction beyond "
                "the model's validity (Vsb < -2phiF)"
            )
        vth0 = (
            self.operating_point.nmos_vth()
            if self.polarity is MosPolarity.NMOS
            else self.operating_point.pmos_vth()
        )
        vth = vth0 + tech.body_gamma * (np.sqrt(phi + vsb) - math.sqrt(phi))
        if vth.ndim == 0:
            return float(vth)
        return vth

    # --- large-signal characteristics ----------------------------------

    def _mobility_factor(self, overdrive: np.ndarray) -> np.ndarray:
        theta = self.operating_point.technology.mobility_theta
        return 1.0 / (1.0 + theta * np.maximum(overdrive, 0.0))

    def saturation_current(
        self, gate_overdrive: float, source_bulk_voltage: float = 0.0
    ) -> float:
        """Saturation drain current at the given overdrive [A].

        ``Id = 0.5 * beta * Vov^2 / (1 + theta*Vov)``

        Args:
            gate_overdrive: Vgs - Vth magnitude [V]; must be positive.
            source_bulk_voltage: body bias magnitude (raises Vth but the
                caller passes the resulting *overdrive*, so this argument
                only participates in validation here).
        """
        if gate_overdrive <= 0:
            raise ModelDomainError(
                "saturation current requested below threshold "
                f"(Vov={gate_overdrive} V)"
            )
        vov = np.asarray(gate_overdrive, dtype=float)
        current = 0.5 * self.beta * vov**2 * self._mobility_factor(vov)
        return float(current)

    def overdrive_for_current(self, drain_current: float) -> float:
        """Invert :meth:`saturation_current`: overdrive for a target Id.

        Solves ``0.5*beta*Vov^2/(1+theta*Vov) = Id`` exactly (quadratic in
        Vov) with :func:`square_law_overdrive`.
        """
        if drain_current <= 0:
            raise ModelDomainError(
                f"drain current must be positive, got {drain_current}"
            )
        theta = self.operating_point.technology.mobility_theta
        return square_law_overdrive(self.beta, theta, drain_current)

    def transconductance(self, drain_current: float) -> float:
        """Saturation gm at the given drain current [A/V].

        Differentiates the degraded square law; reduces to
        ``gm = 2*Id/Vov`` when theta = 0.
        """
        vov = self.overdrive_for_current(drain_current)
        theta = self.operating_point.technology.mobility_theta
        return square_law_transconductance(self.beta, theta, vov)

    def triode_conductance(
        self,
        gate_source_voltage: float | np.ndarray,
        source_bulk_voltage: float | np.ndarray = 0.0,
    ) -> np.ndarray:
        """Deep-triode channel conductance g_ds = dId/dVds at Vds -> 0 [S].

        ``g = beta * softplus(Vgs - Vth(Vsb)) / (1 + theta*Vov)``.  The
        softplus (width ~1.5 thermal voltages) models the subthreshold
        hand-off instead of a hard cutoff: real switch conductance decays
        exponentially below threshold, and the smoothness matters — a
        hard clamp would put spurious high-order curvature into the
        Ron(V) curve exactly where a transmission-gate device dies
        mid-swing.  This is the quantity switch models are built from;
        its signal dependence is the distortion mechanism of the paper's
        un-bootstrapped input switches.

        Args:
            gate_source_voltage: Vgs magnitude, scalar or array.
            source_bulk_voltage: Vsb magnitude, scalar or array.

        Returns:
            Conductance array broadcast over the inputs (exponentially
            small where off).
        """
        vgs = np.asarray(gate_source_voltage, dtype=float)
        vth = np.asarray(self.threshold(source_bulk_voltage), dtype=float)
        overdrive = vgs - vth
        # Subthreshold smoothing: s*ln(1 + exp(Vov/s)) with s ~ n*kT/q.
        s = _SUBTHRESHOLD_SMOOTHING
        effective = s * np.logaddexp(0.0, overdrive / s)
        conductance = self.beta * effective
        conductance = conductance * self._mobility_factor(overdrive)
        return conductance

    def gate_capacitance(self) -> float:
        """Intrinsic gate capacitance Cox*W*L [F]."""
        tech = self.operating_point.technology
        return tech.oxide_capacitance * self.width * self.length

    def junction_leakage(self) -> float:
        """Source/drain junction leakage at the operating point [A].

        Doubles every ~8 C, anchored at the technology's room-temperature
        leakage density.  Sets hold-capacitor droop at very low f_CR.
        """
        tech = self.operating_point.technology
        delta_t = self.operating_point.temperature_c - 27.0
        return tech.junction_leakage_density * self.width * 2.0 ** (delta_t / 8.0)

    def vth_mismatch_sigma(self) -> float:
        """1-sigma local Vth mismatch for this device size [V].

        Pelgrom: sigma(Vth) = A_VT / sqrt(W*L).
        """
        tech = self.operating_point.technology
        return tech.vth_mismatch_avt / math.sqrt(self.width * self.length)
