"""FFT-based dynamic analysis: SNR, SNDR, SFDR, THD, ENOB.

Implements the standard single-tone FFT test (IEEE 1241 style):

- locate the fundamental,
- sum the signal power over the window's main lobe,
- fold the harmonic frequencies into the first Nyquist zone and book
  their power as distortion,
- everything else (except DC) is noise,
- SFDR is the carrier over the tallest single spectral component
  outside the signal region, harmonic or not.

The analyzer works on output *codes* (centered internally) or on
voltages — the metrics are ratios, so the unit cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.profiling import record
from repro.signal.metrics import HarmonicComponent, SpectrumMetrics
from repro.signal.windows import Window, window_function


def fold_bin(bin_index: int, n_samples: int) -> int:
    """Alias a bin index into [0, n_samples//2]."""
    m = bin_index % n_samples
    if m > n_samples // 2:
        m = n_samples - m
    return m


@dataclass(frozen=True)
class SpectrumAnalyzer:
    """Single-tone FFT analyzer.

    Attributes:
        n_harmonics: highest harmonic order booked as distortion.
        window: analysis window (rectangular for coherent captures).
        dc_exclusion_bins: bins at and around DC excluded entirely.
        full_scale: full-scale amplitude in the input's unit, used only
            for the dBFS figure.  For 12-bit codes this is 2048.
    """

    n_harmonics: int = 9
    window: Window = Window.RECTANGULAR
    dc_exclusion_bins: int = 2
    full_scale: float = 2048.0

    def __post_init__(self) -> None:
        if self.n_harmonics < 2:
            raise AnalysisError("book at least HD2")
        if self.dc_exclusion_bins < 1:
            raise AnalysisError("must exclude at least the DC bin")
        if self.full_scale <= 0:
            raise AnalysisError("full scale must be positive")

    def power_spectrum(self, samples: np.ndarray) -> np.ndarray:
        """One-sided power spectrum of a mean-removed 1-D record."""
        x = np.asarray(samples, dtype=float)
        if x.ndim != 1 or x.size < 16:
            raise AnalysisError("need a 1-D record of >= 16 samples")
        x = x - x.mean()
        w = window_function(self.window, x.size)
        power = np.abs(np.fft.rfft(x * w)) ** 2
        # One-sided scaling: double everything except DC (and Nyquist for
        # even records).
        power[1:] *= 2.0
        if x.size % 2 == 0:
            power[-1] /= 2.0
        # Normalize so a coherent sine's lobe sums to its mean-square
        # value (A^2/2); for ratio metrics the factor cancels anyway.
        power /= np.sum(w**2) * x.size
        return power

    def analyze(
        self,
        samples: np.ndarray,
        sample_rate: float,
        fundamental_bin: int | None = None,
    ) -> SpectrumMetrics:
        """Measure a single-tone capture.

        Args:
            samples: output codes or voltages (1-D record).
            sample_rate: converter rate [Hz].
            fundamental_bin: force the carrier bin (otherwise the tallest
                non-DC bin is taken — correct for any sane capture).

        Returns:
            The dynamic metrics.
        """
        if sample_rate <= 0:
            raise AnalysisError("sample rate must be positive")
        x = np.asarray(samples, dtype=float)
        if x.ndim != 1:
            raise AnalysisError(
                "analyze() takes one record; use analyze_batch() for a "
                "(dies, n) block"
            )
        with record("analyze", "spectrum"):
            power = self.power_spectrum(x)
            return self._metrics_from_power(
                power, x.size, sample_rate, fundamental_bin
            )

    def analyze_batch(
        self,
        samples: np.ndarray,
        sample_rate: float,
        fundamental_bin: int | None = None,
    ) -> list[SpectrumMetrics]:
        """Measure every row of a (dies, n_samples) capture block.

        Row *d* is ``analyze(samples[d], ...)``.
        """
        x = np.asarray(samples, dtype=float)
        if x.ndim != 2:
            raise AnalysisError("analyze_batch() needs a (dies, n) block")
        return [self.analyze(row, sample_rate, fundamental_bin) for row in x]

    def _metrics_from_power(
        self,
        power: np.ndarray,
        n: int,
        sample_rate: float,
        fundamental_bin: int | None,
    ) -> SpectrumMetrics:
        """The single-tone bookkeeping on one precomputed power row."""
        n_bins = power.size
        lobe = self.window.main_lobe_bins

        searchable = power.copy()
        searchable[: self.dc_exclusion_bins] = 0.0
        if fundamental_bin is None:
            fundamental_bin = int(np.argmax(searchable))
        if not self.dc_exclusion_bins <= fundamental_bin < n_bins:
            raise AnalysisError(
                f"fundamental bin {fundamental_bin} outside the spectrum"
            )

        def region(center: int) -> np.ndarray:
            low = max(center - lobe, 0)
            high = min(center + lobe, n_bins - 1)
            return np.arange(low, high + 1)

        signal_bins = region(fundamental_bin)
        signal_power = float(power[signal_bins].sum())
        if signal_power <= 0:
            raise AnalysisError("no signal power at the fundamental")

        booked = np.zeros(n_bins, dtype=bool)
        booked[: self.dc_exclusion_bins] = True
        booked[signal_bins] = True

        harmonics = []
        distortion_power = 0.0
        for order in range(2, self.n_harmonics + 1):
            h_bin = fold_bin(order * fundamental_bin, n)
            bins = region(h_bin)
            fresh = bins[~booked[bins]]
            h_power = float(power[fresh].sum())
            booked[bins] = True
            distortion_power += h_power
            harmonics.append(
                HarmonicComponent(
                    order=order,
                    bin_index=h_bin,
                    power_dbc=10.0
                    * math.log10(max(h_power, 1e-30) / signal_power),
                )
            )

        noise_mask = ~booked
        noise_power = float(power[noise_mask].sum())
        n_noise_bins = int(noise_mask.sum())
        if n_noise_bins == 0:
            raise AnalysisError("record too short: no noise bins left")

        # SFDR: tallest single component outside the signal region —
        # harmonic spurs included.
        spur_power = power.copy()
        spur_power[signal_bins] = 0.0
        spur_power[: self.dc_exclusion_bins] = 0.0
        worst_spur_bin = int(np.argmax(spur_power))
        worst_spur = float(spur_power[worst_spur_bin])

        full_scale_power = self.full_scale**2 / 2.0
        return SpectrumMetrics.from_powers(
            sample_rate=sample_rate,
            fundamental_frequency=fundamental_bin * sample_rate / n,
            fundamental_bin=fundamental_bin,
            signal_power=signal_power,
            full_scale_power=full_scale_power,
            noise_power=noise_power,
            distortion_power=distortion_power,
            worst_spur_power=worst_spur,
            worst_spur_bin=worst_spur_bin,
            harmonics=tuple(harmonics),
            n_noise_bins=n_noise_bins,
        )
