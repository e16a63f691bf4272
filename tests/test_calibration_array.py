"""Tests for the die-batched calibration subsystem.

:class:`GainCalibrationArray` weights and calibrated codes equal
per-die :class:`GainCalibration` under matched die seeds, and the
calibrated yield screen is engine-independent.
"""

import numpy as np
import pytest

from repro.core.adc import PipelineAdc
from repro.core.adc_array import AdcArray
from repro.core.calibration import GainCalibration, GainCalibrationArray
from repro.errors import CalibrationError, ConfigurationError
from repro.runtime.montecarlo import default_sampler, run_yield_analysis
from repro.signal.linearity import ramp_linearity


@pytest.fixture(scope="module")
def mismatched_config():
    """Exaggerated capacitor mismatch, front-end impairments off — the
    regime where the fitted weights visibly differ per die."""
    from repro.experiments.extensions import mismatch_dominated_config

    return mismatch_dominated_config()


@pytest.fixture(scope="module")
def die_population(mismatched_config):
    return default_sampler(mismatched_config).sample(
        3, np.random.default_rng(19)
    )


@pytest.fixture(scope="module")
def adc_array(mismatched_config, die_population):
    return AdcArray(mismatched_config, 110e6, die_population)


@pytest.fixture(scope="module")
def solo_calibrations(mismatched_config, die_population):
    calibrations = []
    for die in die_population:
        adc = PipelineAdc(
            mismatched_config,
            110e6,
            operating_point=die.operating_point,
            seed=die.seed,
        )
        calibration = GainCalibration(adc, samples_per_code=6)
        calibration.calibrate()
        calibrations.append(calibration)
    return calibrations


@pytest.fixture(scope="module")
def array_calibration(adc_array):
    calibration = GainCalibrationArray(adc_array, samples_per_code=6)
    calibration.calibrate()
    return calibration


class TestArrayCalibrationEquivalence:
    """ISSUE acceptance: batched == per-die under matched seeds."""

    def test_weights_match_per_die(self, array_calibration, solo_calibrations):
        assert array_calibration.weights.shape == (3, 12)
        for die, solo in enumerate(solo_calibrations):
            assert np.array_equal(array_calibration.die_weights(die), solo.weights)

    def test_weight_errors_are_per_die(self, array_calibration):
        errors = array_calibration.weight_errors()
        assert errors.shape == (3, 12)
        # The exaggerated mismatch must be visible and die-specific.
        assert np.max(np.abs(errors[:, :10])) > 0.3
        assert not np.array_equal(errors[0], errors[1])

    def test_calibrated_codes_match_per_die(
        self, adc_array, array_calibration, solo_calibrations
    ):
        ramp = np.linspace(-0.95, 0.95, 600)
        batch = adc_array.convert_samples(ramp)
        block = array_calibration.reconstruct(
            batch.stage_codes, batch.flash_codes
        )
        for die, solo in enumerate(solo_calibrations):
            per_die = solo.reconstruct(
                batch.stage_codes[die], batch.flash_codes[die]
            )
            assert np.array_equal(block[die], per_die)

    def test_reconstruct_die_matches_batched(
        self, adc_array, array_calibration
    ):
        ramp = np.linspace(-0.9, 0.9, 300)
        batch = adc_array.convert_samples(ramp)
        block = array_calibration.reconstruct(
            batch.stage_codes, batch.flash_codes
        )
        for die in range(adc_array.n_dies):
            assert np.array_equal(
                block[die],
                array_calibration.reconstruct_die(
                    die, batch.stage_codes[die], batch.flash_codes[die]
                ),
            )


class TestCalibratedConversionPath:
    def test_convert_samples_applies_calibration(
        self, adc_array, array_calibration
    ):
        ramp = np.linspace(-0.9, 0.9, 300)
        raw = adc_array.convert_samples(ramp)
        calibrated = array_calibration.convert_samples(ramp)
        assert calibrated.codes.shape == raw.codes.shape
        assert np.array_equal(
            calibrated.codes,
            array_calibration.reconstruct(raw.stage_codes, raw.flash_codes),
        )
        # The decisions themselves are untouched — only the weighting.
        assert np.array_equal(calibrated.stage_codes, raw.stage_codes)

    def test_calibration_recovers_inl_on_every_die(
        self, mismatched_config, adc_array, array_calibration
    ):
        n_codes = mismatched_config.n_codes
        ramp = np.linspace(-1.02, 1.02, n_codes * 16)
        raw = adc_array.convert_samples(ramp)
        raw_linearities = ramp_linearity(raw.codes, n_codes)
        calibrated = array_calibration.reconstruct(
            raw.stage_codes, raw.flash_codes
        )
        calibrated_linearities = ramp_linearity(calibrated, n_codes)
        for before, after in zip(raw_linearities, calibrated_linearities):
            raw_peak = max(abs(before.inl_min), abs(before.inl_max))
            calibrated_peak = max(abs(after.inl_min), abs(after.inl_max))
            assert raw_peak > 2.0
            assert calibrated_peak < 0.5 * raw_peak


class TestArrayCalibrationValidation:
    def test_weights_require_calibrate(self, adc_array):
        fresh = GainCalibrationArray(adc_array)
        with pytest.raises(CalibrationError):
            _ = fresh.weights

    def test_rejects_bad_config(self, adc_array):
        with pytest.raises(ConfigurationError):
            GainCalibrationArray(adc_array, samples_per_code=1)
        with pytest.raises(ConfigurationError):
            GainCalibrationArray(adc_array, overdrive=0.5)

    def test_reconstruct_rejects_wrong_die_count(
        self, adc_array, array_calibration
    ):
        batch = adc_array.convert_samples(np.linspace(-0.5, 0.5, 64))
        with pytest.raises(ConfigurationError):
            array_calibration.reconstruct(
                batch.stage_codes[:2], batch.flash_codes[:2]
            )

    def test_reconstruct_rejects_mismatched_flash(
        self, adc_array, array_calibration
    ):
        batch = adc_array.convert_samples(np.linspace(-0.5, 0.5, 64))
        with pytest.raises(ConfigurationError):
            array_calibration.reconstruct(
                batch.stage_codes, batch.flash_codes[:2]
            )

    def test_reconstruct_rejects_1d(self, adc_array, array_calibration):
        batch = adc_array.convert_samples(np.linspace(-0.5, 0.5, 64))
        with pytest.raises(ConfigurationError):
            array_calibration.reconstruct(
                batch.stage_codes[0], batch.flash_codes[0]
            )


class TestCalibratedYieldScreen:
    """ISSUE acceptance: --calibrate is engine-independent."""

    KWARGS = dict(
        n_dies=2,
        seed=31,
        n_fft=512,
        calibrate=True,
        calibration_samples_per_code=4,
    )

    def test_engines_agree(self, paper_config):
        pool = run_yield_analysis(config=paper_config, **self.KWARGS)
        vec = run_yield_analysis(
            config=paper_config, engine="vectorized", **self.KWARGS
        )
        assert pool.calibrated and vec.calibrated
        assert all(die.calibrated for die in pool.dies)
        assert pool.dies == vec.dies

    def test_report_carries_calibration_flag(self, paper_config):
        import json

        report = run_yield_analysis(
            config=paper_config, engine="vectorized", **self.KWARGS
        )
        document = json.loads(json.dumps(report.to_dict()))
        assert document["calibrated"] is True
        assert "calibrated" in report.render()

    def test_uncalibrated_report_unflagged(self, paper_config):
        report = run_yield_analysis(config=paper_config, n_dies=2, seed=31, n_fft=512)
        assert not report.calibrated
        assert all(not die.calibrated for die in report.dies)
