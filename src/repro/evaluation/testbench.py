"""Testbenches mirroring the paper's measurement setups.

Section 4 of the paper describes the bench: "RF-sources for the input
signal and the clocking of the ADC.  Both where filtered using high
order passive band-pass filters ... The measurements presented in
Fig. 5 and Fig. 6 are done with signal amplitude near full scale
(2 V_P-P)."  :class:`DynamicTestbench` reproduces that: a spectrally
pure coherent tone at 99.5% of full scale, a jittered clock, and an FFT
analyzer.  :class:`StaticTestbench` is the code-density linearity bench
behind the Table-I DNL/INL numbers, and :class:`PowerTestbench` wraps
the power model for Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adc import PipelineAdc
from repro.core.config import AdcConfig
from repro.core.die_cache import build_die
from repro.core.power import PowerBreakdown, PowerModel
from repro.errors import ConfigurationError
from repro.signal.generators import SineGenerator
from repro.signal.linearity import LinearityResult, ramp_linearity
from repro.signal.metrics import SpectrumMetrics
from repro.signal.spectrum import SpectrumAnalyzer
from repro.technology.corners import OperatingPoint

#: Stimulus amplitude relative to full scale: the paper measures "with
#: signal amplitude near full scale (2 V_P-P)".
NEAR_FULL_SCALE = 0.995

#: Fractional over-range of the linearity ramp beyond full scale, so
#: both end codes collect their share of hits.
RAMP_OVERDRIVE = 0.02


def coherent_tone(
    config: AdcConfig,
    conversion_rate: float,
    input_frequency: float,
    n_samples: int,
    amplitude_fraction: float = NEAR_FULL_SCALE,
) -> SineGenerator:
    """The dynamic-test stimulus: a coherent tone near full scale.

    ``input_frequency`` is snapped to the nearest frequency with a
    whole number of cycles in ``n_samples`` at ``conversion_rate``;
    the amplitude is ``amplitude_fraction`` of the converter's
    reference (full scale is +-vref).
    """
    return SineGenerator.coherent(
        input_frequency,
        conversion_rate,
        n_samples,
        amplitude=amplitude_fraction * config.vref,
    )


def code_analyzer(config: AdcConfig) -> SpectrumAnalyzer:
    """The FFT analyzer for output codes (full scale = half the codes)."""
    return SpectrumAnalyzer(full_scale=config.n_codes / 2.0)


def linearity_ramp(
    config: AdcConfig,
    samples_per_code: int,
    overdrive: float = RAMP_OVERDRIVE,
) -> np.ndarray:
    """The code-density stimulus: a held ramp over-ranging full scale.

    ``n_codes * samples_per_code`` points from ``-vref * (1 +
    overdrive)`` to ``+vref * (1 + overdrive)``.
    """
    span = config.vref * (1.0 + overdrive)
    return np.linspace(-span, span, config.n_codes * samples_per_code)


@dataclass(frozen=True)
class DynamicTestbench:
    """Single-tone dynamic characterization bench.

    Attributes:
        config: converter configuration under test.
        n_samples: FFT record length.
        amplitude_fraction: stimulus amplitude relative to full scale
            (the paper tests "near full scale").
        die_seed: mismatch seed — one bench characterizes one die.
        operating_point: PVT context (nominal when None).
    """

    config: AdcConfig
    n_samples: int = 8192
    amplitude_fraction: float = NEAR_FULL_SCALE
    die_seed: int = 1
    operating_point: OperatingPoint | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 256:
            raise ConfigurationError("dynamic test needs >= 256 samples")
        if not 0 < self.amplitude_fraction <= 1:
            raise ConfigurationError("amplitude fraction must be in (0, 1]")

    def build(self, conversion_rate: float) -> PipelineAdc:
        """Instantiate the die at a conversion rate.

        Builds on the cached template of (config, rate, operating
        point), so only the die seed's mismatch draws and opamp designs
        run per call; the same seed gives the same physical die.
        """
        return build_die(
            self.config,
            conversion_rate,
            operating_point=self.operating_point,
            seed=self.die_seed,
        )

    def measure(
        self,
        conversion_rate: float,
        input_frequency: float,
        noise_seed: int | None = None,
    ) -> SpectrumMetrics:
        """One dynamic measurement point.

        Args:
            conversion_rate: f_CR [Hz].
            input_frequency: target stimulus frequency [Hz] (snapped to
                the nearest coherent frequency; may exceed Nyquist for
                undersampling tests, as in paper Fig. 6).
            noise_seed: per-capture noise seed.

        Returns:
            The capture's spectral metrics.
        """
        adc = self.build(conversion_rate)
        tone = coherent_tone(
            self.config,
            conversion_rate,
            input_frequency,
            self.n_samples,
            self.amplitude_fraction,
        )
        result = adc.convert(tone, self.n_samples, noise_seed=noise_seed)
        return code_analyzer(self.config).analyze(result.codes, conversion_rate)

    def measure_rate_sweep(
        self, conversion_rates, input_frequency: float = 10e6
    ) -> list[SpectrumMetrics]:
        """Fig. 5: metrics vs conversion rate at a fixed input frequency.

        At rates where 10 MHz would not be comfortably inside Nyquist,
        the paper necessarily used a lower tone; the bench caps the
        stimulus at 23% of the rate the same way.
        """
        points = []
        for rate in conversion_rates:
            rate = float(rate)
            tone_frequency = min(input_frequency, 0.23 * rate)
            points.append(self.measure(rate, tone_frequency))
        return points

    def measure_frequency_sweep(
        self, input_frequencies, conversion_rate: float = 110e6
    ) -> list[SpectrumMetrics]:
        """Fig. 6: metrics vs input frequency at a fixed rate."""
        return [
            self.measure(conversion_rate, float(fin))
            for fin in input_frequencies
        ]


@dataclass(frozen=True)
class StaticTestbench:
    """Code-density (ramp histogram) linearity bench.

    Attributes:
        config: converter configuration under test.
        samples_per_code: average histogram hits per code; 40 keeps the
            statistical DNL noise near 0.2 LSB, comparable to a real
            bench run.
        overdrive: fractional overrange of the ramp beyond full scale.
        die_seed: mismatch seed.
        operating_point: PVT context (nominal when None).
    """

    config: AdcConfig
    samples_per_code: int = 40
    overdrive: float = RAMP_OVERDRIVE
    die_seed: int = 1
    operating_point: OperatingPoint | None = None

    def __post_init__(self) -> None:
        if self.samples_per_code < 16:
            raise ConfigurationError("need >= 16 samples per code")
        if not 0 < self.overdrive < 0.2:
            raise ConfigurationError("overdrive must be in (0, 0.2)")

    def measure(
        self, conversion_rate: float = 110e6, noise_seed: int | None = None
    ) -> LinearityResult:
        """Capture a slow over-ranged ramp and extract INL/DNL.

        The ramp is applied through :meth:`PipelineAdc.convert_samples`
        (held values): a static test is deliberately slow enough that
        front-end tracking plays no role.
        """
        adc = build_die(
            self.config,
            conversion_rate,
            operating_point=self.operating_point,
            seed=self.die_seed,
        )
        ramp = linearity_ramp(self.config, self.samples_per_code, self.overdrive)
        result = adc.convert_samples(ramp, noise_seed=noise_seed)
        return ramp_linearity(result.codes, self.config.n_codes)


@dataclass(frozen=True)
class PowerTestbench:
    """Power measurement bench (Fig. 4).

    Attributes:
        config: converter configuration under test.
        operating_point: PVT context (nominal when None).
    """

    config: AdcConfig
    operating_point: OperatingPoint | None = None

    def model(self) -> PowerModel:
        """The underlying power model."""
        return PowerModel(self.config)

    def measure(self, conversion_rate: float) -> PowerBreakdown:
        """Power budget at one rate."""
        return self.model().evaluate(conversion_rate, self.operating_point)

    def measure_sweep(self, conversion_rates) -> list[PowerBreakdown]:
        """The Fig. 4 series."""
        return self.model().sweep(conversion_rates, self.operating_point)
