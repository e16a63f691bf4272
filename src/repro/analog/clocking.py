"""Clock generation, aperture jitter, and the non-overlap question.

Two paper-relevant behaviors live here:

- **Aperture jitter.**  The measured SNR rolls off above a 100 MHz input
  (paper Fig. 6) because the sampling instant wobbles: a Gaussian
  aperture jitter of a few hundred femtoseconds gives the classic
  SNR_jitter = -20*log10(2*pi*f_in*sigma_j) wall.  The RF clock source
  plus the on-chip receiver chain set sigma_j.

- **Non-overlap removal.**  Conventional SC design inserts a global
  non-overlap interval between phi1 and phi2 so S2 can never conduct
  while S1 still does.  The paper generates the switch sequencing
  *locally in each stage* instead and reclaims that interval for
  settling: "Removing the non-overlap means that the stage has longer
  time to settle and the gain-bandwidth of the opamp can be lowered,
  which further results in lower power consumption."
  :class:`ClockingScheme` models both options so `abl-nonoverlap` can
  quantify the claim.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ModelDomainError
from repro.profiling import record
from repro.streams import normal


class ClockingScheme(enum.Enum):
    """How switch sequencing is guaranteed."""

    #: Paper's approach: local per-stage clock generation, zero global
    #: non-overlap interval.
    LOCAL = "local"
    #: Conventional global non-overlap clocking.
    NON_OVERLAP = "non-overlap"


@dataclass(frozen=True)
class PhaseTiming:
    """Timing budget of one conversion period.

    Attributes:
        period: 1 / f_CR [s].
        tracking_time: phi1 window available to track the input [s].
        amplification_time: phi2 window available for MDAC settling,
            after the non-overlap interval (if any) and the fixed
            sub-ADC + DSB decision overhead [s].
        non_overlap_time: the interval lost to non-overlap [s].
    """

    period: float
    tracking_time: float
    amplification_time: float
    non_overlap_time: float


@dataclass(frozen=True)
class ClockGenerator:
    """Clock path model: frequency, duty, jitter, sequencing scheme.

    Attributes:
        aperture_jitter_rms: total rms aperture jitter at the sampling
            switch [s] (RF source + buffers).
        scheme: local (paper) or conventional non-overlap sequencing.
        non_overlap_fraction: non-overlap interval as a fraction of the
            period, when the conventional scheme is used.  ~5% of the
            period is typical of global non-overlap generators.
        decision_overhead: fixed time consumed each phase by the ADSC
            latch decision plus DSB switching before the opamp sees its
            final target [s].
        duty_cycle: fraction of the period assigned to phi1 (tracking).
        buffer_current_per_hz: clock receiver/driver current per Hz of
            clock rate [A/Hz]; dynamic (CV) power, scales with f_CR.
    """

    aperture_jitter_rms: float = 0.35e-12
    scheme: ClockingScheme = ClockingScheme.LOCAL
    non_overlap_fraction: float = 0.05
    decision_overhead: float = 1.6e-9
    duty_cycle: float = 0.5
    buffer_current_per_hz: float = 2.1e-11

    def __post_init__(self) -> None:
        if self.aperture_jitter_rms < 0:
            raise ConfigurationError("jitter must be non-negative")
        if not 0 <= self.non_overlap_fraction < 0.25:
            raise ConfigurationError(
                "non-overlap fraction must be in [0, 0.25)"
            )
        if self.decision_overhead < 0:
            raise ConfigurationError("decision overhead must be >= 0")
        if not 0.2 <= self.duty_cycle <= 0.8:
            raise ConfigurationError("duty cycle must be in [0.2, 0.8]")
        if self.buffer_current_per_hz < 0:
            raise ConfigurationError("buffer current must be >= 0")

    # --- timing ---------------------------------------------------------

    def timing(self, conversion_rate: float) -> PhaseTiming:
        """Phase budget at a conversion rate.

        Raises:
            ModelDomainError: if the rate leaves no positive settling
                window after overheads — the converter simply cannot be
                clocked that fast.
        """
        if conversion_rate <= 0:
            raise ModelDomainError("conversion rate must be positive")
        period = 1.0 / conversion_rate
        non_overlap = 0.0
        if self.scheme is ClockingScheme.NON_OVERLAP:
            # The interval is lost twice per period (phi1->phi2, phi2->phi1).
            non_overlap = self.non_overlap_fraction * period
        tracking = self.duty_cycle * period - non_overlap
        amplification = (
            (1.0 - self.duty_cycle) * period - non_overlap - self.decision_overhead
        )
        if amplification <= 0 or tracking <= 0:
            raise ModelDomainError(
                f"no settling window left at f_CR = {conversion_rate:.3g} Hz "
                f"(amplification window {amplification:.3g} s)"
            )
        return PhaseTiming(
            period=period,
            tracking_time=tracking,
            amplification_time=amplification,
            non_overlap_time=non_overlap,
        )

    def max_conversion_rate(self) -> float:
        """Highest f_CR with a positive settling window [Hz]."""
        # (1-d)*T - nov*T - overhead > 0  =>  T > overhead / (1-d-nov)
        fraction = 1.0 - self.duty_cycle
        if self.scheme is ClockingScheme.NON_OVERLAP:
            fraction -= self.non_overlap_fraction
        if fraction <= 0:
            raise ModelDomainError("clock scheme leaves no phi2 at any rate")
        return fraction / self.decision_overhead

    # --- jitter ---------------------------------------------------------

    def sample_times(
        self, count: int, conversion_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Jittered sampling instants for ``count`` conversions [s]."""
        if count <= 0:
            raise ConfigurationError("count must be positive")
        timing = self.timing(conversion_rate)
        nominal = np.arange(count) * timing.period
        if self.aperture_jitter_rms == 0:
            return nominal
        with record("noise-draw", "jitter"):
            return nominal + normal(rng, 0.0, self.aperture_jitter_rms, count)

    def jitter_limited_snr_db(self, input_frequency: float) -> float:
        """Theoretical jitter-only SNR for a full-scale sine [dB].

        ``SNR = -20*log10(2*pi*f_in*sigma_j)`` — the wall the measured
        SNR leans on above 100 MHz in paper Fig. 6.
        """
        if input_frequency <= 0:
            raise ModelDomainError("input frequency must be positive")
        if self.aperture_jitter_rms == 0:
            return math.inf
        return -20.0 * math.log10(
            2.0 * math.pi * input_frequency * self.aperture_jitter_rms
        )

    def power(self, conversion_rate: float, supply_voltage: float) -> float:
        """Clock receiver + distribution power [W]; scales with f_CR."""
        if conversion_rate < 0 or supply_voltage <= 0:
            raise ConfigurationError(
                "rate must be >= 0 and supply positive"
            )
        return self.buffer_current_per_hz * conversion_rate * supply_voltage
