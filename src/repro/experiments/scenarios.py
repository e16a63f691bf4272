"""Application-scenario experiments: the paper's named use cases.

The paper motivates the converter with ultrasound imaging and
communication receivers.  These experiments promote the corresponding
example scripts (``examples/ultrasound_imaging.py``,
``examples/communication_if_sampling.py``) into registry entries, so
the application-level behavior runs — and is claim-checked — through
the ``repro`` CLI exactly like the figure reproductions:

- ``scenario-if`` — IF-subsampling receiver: single-carrier SNR/SNDR/
  SFDR across three Nyquist zones plus a two-tone IMD test at a 70 MHz
  IF (the Fig. 6 mechanisms in application form).
- ``scenario-ultrasound`` — pulse-echo dynamic range: a strong
  near-field echo and a -46 dBFS deep echo digitized at 40 MS/s, where
  the SC bias generator has already scaled the power down.
- ``scenario-calibrated-yield`` — population-scale calibrated yield
  screening on the vectorized engine: a mismatch-dominated die
  population (the paper's uncalibrated INL numbers pushed ~10x) is
  screened raw and again after per-die foreground calibration
  (:class:`~repro.core.calibration.GainCalibration`), comparing the
  INL/ENOB spreads and the yield.  Extension beyond the paper.

The measurement helpers are shared with the example scripts, so the
narrative examples and the claim-checked experiments cannot drift
apart.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.adc import PipelineAdc
from repro.core.config import AdcConfig
from repro.core.power import PowerModel
from repro.experiments.extensions import mismatch_dominated_config
from repro.experiments.registry import ClaimCheck, ExperimentResult, register
from repro.runtime.montecarlo import YieldSpec, run_yield_analysis
from repro.signal.coherent import coherent_frequency
from repro.signal.generators import MultitoneGenerator, SineGenerator
from repro.signal.imd import TwoToneAnalyzer
from repro.signal.spectrum import SpectrumAnalyzer

#: The IF channel plans of the communication scenario (label, target IF).
IF_CHANNEL_PLANS = (
    ("1st Nyquist (baseband)", 10e6),
    ("2nd Nyquist IF", 75e6),
    ("3rd Nyquist IF", 140e6),
)


def measure_if_channels(
    adc: PipelineAdc, rate: float, n_samples: int
) -> list[dict]:
    """Single-carrier metrics for each IF channel plan."""
    analyzer = SpectrumAnalyzer()
    rows = []
    for label, target_if in IF_CHANNEL_PLANS:
        tone = SineGenerator.coherent(
            target_if, rate, n_samples, amplitude=0.995
        )
        metrics = analyzer.analyze(adc.convert(tone, n_samples).codes, rate)
        rows.append(
            {
                "label": label,
                "frequency": tone.frequency,
                "snr_db": metrics.snr_db,
                "sndr_db": metrics.sndr_db,
                "sfdr_db": metrics.sfdr_db,
            }
        )
    return rows


def measure_two_tone(adc: PipelineAdc, rate: float, n_samples: int):
    """Two-tone IMD around a 70 MHz IF (see :mod:`repro.signal.imd`)."""
    f1 = coherent_frequency(69e6, rate, n_samples)
    f2 = coherent_frequency(71.5e6, rate, n_samples)
    stimulus = MultitoneGenerator.two_tone(f1, f2, amplitude_each=0.47)
    capture = adc.convert(stimulus, n_samples)
    analyzer = TwoToneAnalyzer(spectrum=SpectrumAnalyzer(full_scale=2048.0))
    return analyzer.analyze(capture.codes, rate, f1, f2)


class PulseEchoLine:
    """Two Gaussian-windowed imaging pulses on one RF line.

    Implements the :class:`repro.core.adc.DifferentialSignal` protocol
    analytically so the front-end tracking model sees exact derivatives.
    """

    def __init__(self, carrier=5e6, echoes=((4e-6, 0.5), (18e-6, 0.005))):
        self.carrier = carrier
        self.echoes = echoes
        self.width = 0.8e-6  # Gaussian envelope sigma [s]

    def _envelope(self, times, center):
        return np.exp(-0.5 * ((times - center) / self.width) ** 2)

    def value(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        omega = 2 * math.pi * self.carrier
        total = np.zeros_like(t)
        for center, amplitude in self.echoes:
            total += amplitude * self._envelope(t, center) * np.sin(omega * t)
        return total

    def derivative(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        omega = 2 * math.pi * self.carrier
        total = np.zeros_like(t)
        for center, amplitude in self.echoes:
            envelope = self._envelope(t, center)
            d_envelope = envelope * (-(t - center) / self.width**2)
            total += amplitude * (
                d_envelope * np.sin(omega * t)
                + envelope * omega * np.cos(omega * t)
            )
        return total


def echo_fidelity(reconstructed, reference, times, center, width) -> float:
    """rms error relative to echo amplitude inside the echo window."""
    window = np.abs(times - center) < 3 * width
    error = reconstructed[window] - reference[window]
    peak = np.max(np.abs(reference[window]))
    return float(np.sqrt(np.mean(error**2)) / peak)


def measure_pulse_echo(
    config: AdcConfig, rate: float, n_samples: int, seed: int = 1
) -> list[dict]:
    """Digitize the two-echo line and measure per-echo fidelity."""
    adc = PipelineAdc(config, conversion_rate=rate, seed=seed)
    line = PulseEchoLine()
    capture = adc.convert(line, n_samples)
    reconstructed = capture.voltages(config.vref)
    reference = line.value(capture.sample_times)
    rows = []
    for (center, amplitude), label in zip(
        line.echoes, ("strong near-field echo", "weak deep echo")
    ):
        rows.append(
            {
                "label": label,
                "level_dbfs": 20 * math.log10(amplitude / config.vref),
                "relative_rms_error": echo_fidelity(
                    reconstructed,
                    reference,
                    capture.sample_times,
                    center,
                    line.width,
                ),
            }
        )
    return rows


@register("scenario-if")
def run_if_sampling(quick: bool = False) -> ExperimentResult:
    """IF-subsampling receiver scenario (communication use case)."""
    rate = 110e6
    n_samples = 2048 if quick else 8192
    adc = PipelineAdc(AdcConfig.paper_default(), conversion_rate=rate, seed=1)

    channels = measure_if_channels(adc, rate, n_samples)
    imd = measure_two_tone(adc, rate, n_samples)

    rows = tuple(
        (
            row["label"],
            f"{row['frequency'] / 1e6:.1f}",
            f"{row['snr_db']:.1f}",
            f"{row['sndr_db']:.1f}",
            f"{row['sfdr_db']:.1f}",
        )
        for row in channels
    ) + (("two-tone 70 MHz IF", "IMD3", f"{imd.imd3_dbc:.1f} dBc", "", ""),)

    baseband = channels[0]
    sfdrs = [row["sfdr_db"] for row in channels]
    claims = (
        ClaimCheck(
            claim="baseband channel delivers > 62 dB SNDR (paper Fig. 5/6)",
            passed=baseband["sndr_db"] > 62.0,
            detail=f"baseband SNDR {baseband['sndr_db']:.1f} dB",
        ),
        ClaimCheck(
            claim=(
                "SFDR falls with IF as the un-bootstrapped input switch "
                "nonlinearity grows (paper Fig. 6 mechanism)"
            ),
            passed=sfdrs[0] > sfdrs[1] > sfdrs[2],
            detail=(
                "SFDR " + " > ".join(f"{s:.1f}" for s in sfdrs) + " dB "
                "across the three Nyquist zones"
            ),
        ),
        ClaimCheck(
            claim="IMD3 at a 70 MHz IF stays below -65 dBc",
            passed=imd.imd3_dbc < -65.0,
            detail=f"IMD3 {imd.imd3_dbc:.1f} dBc at -6.5 dBFS per tone",
        ),
    )
    return ExperimentResult(
        experiment_id="scenario-if",
        title="IF-subsampling receiver (communication scenario)",
        headers=("channel plan", "f_IF [MHz]", "SNR [dB]", "SNDR [dB]", "SFDR [dB]"),
        rows=rows,
        claims=claims,
        notes=(
            "application scenario promoted from "
            "examples/communication_if_sampling.py",
        ),
    )


@register("scenario-calibrated-yield")
def run_calibrated_yield(quick: bool = False) -> ExperimentResult:
    """Calibrated vs uncalibrated yield on a mismatch-dominated lot.

    The die regime is the one ``ext-calibration`` demonstrates on a
    single die (~10x the nominal capacitor matching — the regime the
    paper's uncalibrated INL numbers invite), scaled to a population
    and screened through the vectorized engine.
    """
    config = mismatch_dominated_config()
    spec = YieldSpec(min_enob=9.0, max_dnl_lsb=2.0, max_inl_lsb=2.0)
    common = dict(
        n_dies=4 if quick else 8,
        seed=2026,
        config=config,
        spec=spec,
        n_fft=1024 if quick else 2048,
        engine="vectorized",
        calibration_samples_per_code=12,
    )
    uncalibrated = run_yield_analysis(**common)
    calibrated = run_yield_analysis(calibrate=True, **common)

    def row(label: str, report) -> tuple:
        return (
            label,
            f"{100 * report.yield_fraction:.0f}%",
            f"{np.median(report.enobs()):.2f}",
            f"{np.median(report.inl_peaks()):.2f}",
            f"{report.inl_peaks().max():.2f}",
            f"{report.dnl_peaks().max():.2f}",
        )

    rows = (
        row("uncalibrated", uncalibrated),
        row("calibrated", calibrated),
    )
    median_inl_uncal = float(np.median(uncalibrated.inl_peaks()))
    median_inl_cal = float(np.median(calibrated.inl_peaks()))
    median_enob_uncal = float(np.median(uncalibrated.enobs()))
    median_enob_cal = float(np.median(calibrated.enobs()))
    claims = (
        ClaimCheck(
            claim=(
                "per-die foreground calibration lifts yield on a "
                "mismatch-dominated population (extension; not in the "
                "paper)"
            ),
            passed=calibrated.yield_fraction > uncalibrated.yield_fraction,
            detail=(
                f"yield {100 * uncalibrated.yield_fraction:.0f}% -> "
                f"{100 * calibrated.yield_fraction:.0f}% against "
                f"ENOB >= {spec.min_enob}, |DNL| <= {spec.max_dnl_lsb}, "
                f"|INL| <= {spec.max_inl_lsb} LSB"
            ),
        ),
        ClaimCheck(
            claim="calibration more than halves the median |INL| spread",
            passed=median_inl_cal < 0.5 * median_inl_uncal,
            detail=(
                f"median |INL| {median_inl_uncal:.2f} -> "
                f"{median_inl_cal:.2f} LSB"
            ),
        ),
        ClaimCheck(
            claim=(
                "calibration recovers over a bit of median ENOB lost to "
                "mismatch distortion"
            ),
            passed=median_enob_cal > median_enob_uncal + 1.0,
            detail=(
                f"median ENOB {median_enob_uncal:.2f} -> "
                f"{median_enob_cal:.2f} bits"
            ),
        ),
    )
    return ExperimentResult(
        experiment_id="scenario-calibrated-yield",
        title="Calibrated vs uncalibrated yield (vectorized engine)",
        headers=(
            "screen",
            "yield",
            "median ENOB",
            "median |INL|",
            "worst |INL|",
            "worst |DNL|",
        ),
        rows=rows,
        claims=claims,
        notes=(
            "Extension beyond the published, uncalibrated part; both "
            "screens run in die chunks on the vectorized engine, each "
            "die calibrated alone.",
        ),
    )


@register("scenario-ultrasound")
def run_ultrasound(quick: bool = False) -> ExperimentResult:
    """Pulse-echo dynamic-range scenario (ultrasound use case)."""
    rate = 40e6
    n_samples = 1024
    config = AdcConfig.paper_default()
    echoes = measure_pulse_echo(config, rate, n_samples)
    power_40 = PowerModel(config).evaluate(rate).total
    power_110 = PowerModel(config).evaluate(110e6).total

    rows = tuple(
        (
            row["label"],
            f"{row['level_dbfs']:+.1f}",
            f"{100 * row['relative_rms_error']:.2f}",
        )
        for row in echoes
    ) + (
        ("channel power @ 40 MS/s", f"{power_40 * 1e3:.1f} mW", ""),
        ("channel power @ 110 MS/s", f"{power_110 * 1e3:.1f} mW", ""),
    )

    strong, weak = echoes
    claims = (
        ClaimCheck(
            claim="the -6 dBFS near-field echo reconstructs within 1% rms",
            passed=strong["relative_rms_error"] < 0.01,
            detail=(
                f"relative rms error "
                f"{100 * strong['relative_rms_error']:.2f}%"
            ),
        ),
        ClaimCheck(
            claim=(
                "the -46 dBFS deep echo survives digitization within "
                "15% rms (40 dB below the strong echo)"
            ),
            passed=weak["relative_rms_error"] < 0.15,
            detail=(
                f"relative rms error {100 * weak['relative_rms_error']:.2f}%"
            ),
        ),
        ClaimCheck(
            claim=(
                "the SC bias generator cuts channel power at 40 MS/s to "
                "well under the 110 MS/s figure (paper Fig. 4 scaling)"
            ),
            passed=power_40 < 0.65 * power_110,
            detail=(
                f"{power_40 * 1e3:.1f} mW at 40 MS/s vs "
                f"{power_110 * 1e3:.1f} mW at 110 MS/s"
            ),
        ),
    )
    return ExperimentResult(
        experiment_id="scenario-ultrasound",
        title="Pulse-echo dynamic range (ultrasound scenario)",
        headers=("measurement", "level / power", "rms error [%]"),
        rows=rows,
        claims=claims,
        notes=(
            "application scenario promoted from "
            "examples/ultrasound_imaging.py",
        ),
    )
