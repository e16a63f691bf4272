"""Lateral metal (parasitic) capacitor model.

The process is pure digital, so the MDAC sampling capacitors C1/C2 are
built from metal finger parasitics (paper Fig. 2).  Two statistical
effects matter to the ADC:

- **Absolute spread** (die-to-die, +-15..20% 1-sigma-ish): motivates the
  SC bias generator, which makes bias currents proportional to the actual
  on-chip capacitance so settling time constants stay put.
- **Local matching** (C1 vs C2 within one MDAC): sets the residue gain
  error and reference DAC error, i.e. the DNL/INL of Table I.  Follows a
  Pelgrom law: sigma(dC/C) = A_C / sqrt(area).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.technology.corners import OperatingPoint
from repro.technology.process import Technology


@dataclass(frozen=True)
class MetalCapacitor:
    """A drawn lateral metal capacitor.

    Attributes:
        nominal: drawn capacitance at typical conditions [F].
        technology: process supplying density and statistics.
    """

    nominal: float
    technology: Technology

    def __post_init__(self) -> None:
        if self.nominal <= 0:
            raise ConfigurationError(
                f"capacitance must be positive, got {self.nominal}"
            )

    @property
    def area(self) -> float:
        """Silicon area consumed by the capacitor [m^2]."""
        return self.nominal / self.technology.metal_cap_density

    def matching_sigma(self) -> float:
        """1-sigma relative local mismatch to an identically drawn twin.

        Pelgrom scaling on the drawn area: bigger caps match better.  The
        returned figure is sigma(dC/C) for the *difference* of two unit
        capacitors normalized to one unit.
        """
        return self.technology.metal_cap_matching / math.sqrt(self.area)

    def value_at(self, operating_point: OperatingPoint) -> float:
        """Capacitance at an operating point (absolute spread + tempco)."""
        return self.nominal * operating_point.capacitance_scale()

    def thermal_noise_voltage(self, operating_point: OperatingPoint) -> float:
        """rms kT/C noise voltage sampled onto this capacitor [V].

        ``v_n = sqrt(kT / C)`` at the operating point's junction
        temperature — the irreducible sampled-noise floor that forces the
        paper's "large sampling capacitors" in stage 1.
        """
        from repro.units import BOLTZMANN

        c_actual = self.value_at(operating_point)
        return math.sqrt(BOLTZMANN * operating_point.temperature_k / c_actual)


@dataclass(frozen=True)
class CapacitorMismatchModel:
    """C1/C2 mismatch statistics of the MDAC capacitor pairs.

    Each MDAC has two nominally equal capacitors; what the residue
    transfer cares about is the ratio error ``delta = C1/C2 - 1``.  This
    model converts drawn capacitance into a per-stage delta sigma, which
    each die scales its own standard-normal ratio draws by.

    Attributes:
        technology: source of the Pelgrom coefficient.
    """

    technology: Technology

    def ratio_sigma(self, unit_capacitance: float) -> float:
        """1-sigma of C1/C2 - 1 for two unit caps of the given size."""
        cap = MetalCapacitor(nominal=unit_capacitance, technology=self.technology)
        # Difference of two independent caps: sqrt(2) * single-cap sigma.
        return math.sqrt(2.0) * cap.matching_sigma()

    def sample_absolute_scale(self, rng: np.random.Generator) -> float:
        """Sample a die-level absolute capacitance scale factor.

        Truncated at +-3 sigma so pathological draws cannot produce
        negative capacitance in downstream arithmetic.
        """
        sigma = self.technology.metal_cap_spread
        draw = rng.normal(0.0, sigma)
        draw = float(np.clip(draw, -3.0 * sigma, 3.0 * sigma))
        return 1.0 + draw
