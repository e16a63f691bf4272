"""Reference voltage buffer.

The reference voltages V_REFP / V_REFN are derived from the bandgap and
buffered on chip, with off-chip decoupling capacitors (paper section 2).
Every MDAC that resolves a +-1 decision yanks charge out of the buffer,
so three non-idealities reach the converter output:

- a static gain error of the reference value (trim/buffer offset),
- a conversion-rate-dependent sag: the average charge current is
  C_dac * f_CR * Vref through the buffer output impedance,
- reference noise, which multiplies the DAC levels.

The buffer is a static class-A block: it burns the same current at every
conversion rate, which is why measured power (paper Fig. 4) extrapolates
to a nonzero intercept at f_CR = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.profiling import record
from repro.streams import normal
from repro.technology.corners import OperatingPoint


@dataclass(frozen=True)
class ReferenceBuffer:
    """Buffered differential reference with finite output impedance.

    Attributes:
        nominal_reference: differential reference voltage V_REFP-V_REFN
            at the converter, nominal [V].  Sets the ADC full scale
            (2 V_pp differential for the paper's part).
        static_error: fractional error of the delivered reference
            (buffer offset after trim).
        output_impedance: effective buffer output impedance seen by the
            switched-capacitor load, after off-chip decoupling [ohm].
        noise_rms: rms noise on the delivered reference [V]; multiplies
            DAC levels sample by sample.
        quiescent_current: class-A bias of the buffer [A]; static.
    """

    nominal_reference: float = 1.0
    static_error: float = 2.0e-4
    output_impedance: float = 1.1
    noise_rms: float = 90e-6
    quiescent_current: float = 12.9e-3

    def __post_init__(self) -> None:
        if self.nominal_reference <= 0:
            raise ConfigurationError("reference voltage must be positive")
        if self.output_impedance < 0 or self.noise_rms < 0:
            raise ConfigurationError(
                "output impedance and noise must be non-negative"
            )
        if self.quiescent_current < 0:
            raise ConfigurationError("quiescent current must be >= 0")

    def load_current(
        self, dac_capacitance: float, conversion_rate: float
    ) -> float:
        """Average charge current drawn by the DAC capacitors [A].

        Each conversion moves at most ``C_dac * Vref`` of charge; the
        average current is that times f_CR (worst-case code activity).
        """
        if dac_capacitance < 0 or conversion_rate < 0:
            raise ConfigurationError(
                "capacitance and conversion rate must be non-negative"
            )
        return dac_capacitance * self.nominal_reference * conversion_rate

    def effective_reference(
        self, dac_capacitance: float, conversion_rate: float
    ) -> float:
        """Mean delivered reference after static error and rate sag [V]."""
        sag = self.output_impedance * self.load_current(
            dac_capacitance, conversion_rate
        )
        return self.nominal_reference * (1.0 - self.static_error) - sag

    def sample_reference(
        self,
        count: int,
        dac_capacitance: float,
        conversion_rate: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-sample delivered reference voltages [V].

        Args:
            count: number of conversions.
            dac_capacitance: total DAC capacitance switched to the
                reference per conversion [F].
            conversion_rate: f_CR [Hz].
            rng: generator for the reference noise.
        """
        if count <= 0:
            raise ConfigurationError("count must be positive")
        mean = self.effective_reference(dac_capacitance, conversion_rate)
        if self.noise_rms == 0:
            return np.full(count, mean)
        with record("noise-draw", "reference"):
            return mean + normal(rng, 0.0, self.noise_rms, count)

    def power(self, operating_point: OperatingPoint) -> float:
        """Static buffer power [W]."""
        return self.quiescent_current * operating_point.supply_voltage
