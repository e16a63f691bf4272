"""Tests for repro.core.calibration (the beyond-paper extension)."""

import numpy as np
import pytest

from repro.core.adc import PipelineAdc
from repro.core.calibration import (
    GainCalibration,
    _calibration_ramp,
    _calibration_target,
    _keep_mask,
    _keep_range,
)
from repro.errors import CalibrationError, ConfigurationError
from repro.signal.linearity import ramp_linearity


@pytest.fixture(scope="module")
def mismatched_adc():
    """A die with exaggerated capacitor mismatch and the front end
    bypassed, so the weight errors dominate everything else."""
    from repro.experiments.extensions import mismatch_dominated_config

    return PipelineAdc(
        mismatch_dominated_config(), conversion_rate=110e6, seed=5
    )


@pytest.fixture(scope="module")
def calibration(mismatched_adc):
    cal = GainCalibration(mismatched_adc, samples_per_code=24)
    cal.calibrate()
    return cal


class TestGainCalibration:
    def test_weights_require_calibrate(self, mismatched_adc):
        fresh = GainCalibration(mismatched_adc)
        with pytest.raises(CalibrationError):
            _ = fresh.weights

    def test_rejects_bad_config(self, mismatched_adc):
        with pytest.raises(ConfigurationError):
            GainCalibration(mismatched_adc, samples_per_code=1)
        with pytest.raises(ConfigurationError):
            GainCalibration(mismatched_adc, overdrive=0.5)

    def test_fitted_weights_near_nominal(self, calibration):
        nominal = calibration.nominal_weights()
        fitted = calibration.weights
        # Same ballpark (weight errors are sub-percent even with the
        # exaggerated mismatch)...
        assert fitted[:10] == pytest.approx(nominal[:10], rel=0.05, abs=0.5)
        # ... but measurably different: the mismatch must be visible.
        assert np.max(np.abs(calibration.weight_errors()[:10])) > 0.3

    def test_stage1_weight_error_matches_mismatch(self, calibration, mismatched_adc):
        """The fitted stage-1 weight error tracks the die's actual
        C1/C2 ratio error (weight ~ 1024 * (1 + delta/2 + ...))."""
        delta = mismatched_adc.stages[0].mdac.ratio_error
        error = calibration.weight_errors()[0]
        assert np.sign(error) == np.sign(delta) or abs(error) < 0.3
        assert abs(error) < 1024 * abs(delta) * 2

    def test_calibration_reduces_inl(self, calibration, mismatched_adc):
        """Reconstructing with fitted weights must cut the INL of the
        heavily mismatched die."""
        ramp = np.linspace(-1.02, 1.02, 4096 * 24)
        result = mismatched_adc.convert_samples(ramp, noise_seed=55)
        raw = ramp_linearity(result.codes, 4096)
        corrected_codes = calibration.reconstruct(
            result.stage_codes, result.flash_codes
        )
        corrected = ramp_linearity(corrected_codes, 4096)

        raw_peak = max(abs(raw.inl_min), abs(raw.inl_max))
        corrected_peak = max(abs(corrected.inl_min), abs(corrected.inl_max))
        assert raw_peak > 2.0  # the exaggerated mismatch is really there
        assert corrected_peak < 0.5 * raw_peak

    def test_reconstruct_output_range(self, calibration, mismatched_adc):
        result = mismatched_adc.convert_samples(np.linspace(-1.2, 1.2, 500))
        codes = calibration.reconstruct(result.stage_codes, result.flash_codes)
        assert codes.min() >= 0 and codes.max() <= 4095

    def test_overdriven_samples_stay_at_the_rails(
        self, calibration, mismatched_adc
    ):
        """Regression: rail-saturated decisions must reconstruct to the
        rails — the fitted offset would otherwise fold hundreds of
        clipped ramp samples onto an interior code (code-density
        histograms then see a massive fake DNL spike)."""
        result = mismatched_adc.convert_samples(
            np.linspace(-1.3, 1.3, 400)
        )
        codes = calibration.reconstruct(result.stage_codes, result.flash_codes)
        railed = (result.codes == 0) | (result.codes == 4095)
        assert railed.any()
        assert np.array_equal(codes[railed], result.codes[railed])


class TestKeptRange:
    """The fit reads the kept ramp samples as one slice of the capture."""

    @pytest.mark.parametrize("samples_per_code", [4, 16, 24])
    @pytest.mark.parametrize("overdrive", [0.001, 0.02, 0.1, 0.199])
    def test_slice_equals_keep_mask(self, paper_config, samples_per_code, overdrive):
        ramp = _calibration_ramp(paper_config, samples_per_code, overdrive)
        target = _calibration_target(paper_config, ramp)
        mask = _keep_mask(paper_config, target)
        sliced = np.zeros_like(mask)
        sliced[_keep_range(paper_config, target)] = True
        assert mask.any()
        assert np.array_equal(sliced, mask)

    def test_non_contiguous_keep_raises(self, paper_config):
        target = _calibration_target(
            paper_config, _calibration_ramp(paper_config, 4, 0.02)
        )
        target[target.size // 2] = 0.0  # a clipped sample mid-ramp
        with pytest.raises(CalibrationError, match="contiguous"):
            _keep_range(paper_config, target)

    def test_nothing_kept_raises(self, paper_config):
        with pytest.raises(CalibrationError):
            _keep_range(paper_config, np.zeros(64))


class TestReconstructShapes:
    """Regression for the hardcoded ``np.ones(shape[0])`` ones column:
    scalar and die-batched (leading-axis) inputs must reconstruct too."""

    @pytest.fixture(scope="class")
    def capture(self, mismatched_adc):
        return mismatched_adc.convert_samples(np.linspace(-0.9, 0.9, 200))

    def test_1d_record(self, calibration, capture):
        codes = calibration.reconstruct(
            capture.stage_codes, capture.flash_codes
        )
        assert codes.shape == capture.flash_codes.shape

    def test_scalar_sample(self, calibration, capture):
        reference = calibration.reconstruct(
            capture.stage_codes, capture.flash_codes
        )
        one = calibration.reconstruct(
            capture.stage_codes[7], capture.flash_codes[7]
        )
        assert one.shape == ()
        assert int(one) == reference[7]

    def test_die_batched_block(self, calibration, capture):
        reference = calibration.reconstruct(
            capture.stage_codes, capture.flash_codes
        )
        stacked_codes = np.stack([capture.stage_codes] * 3)
        stacked_flash = np.stack([capture.flash_codes] * 3)
        block = calibration.reconstruct(stacked_codes, stacked_flash)
        assert block.shape == stacked_flash.shape
        for row in block:
            assert np.array_equal(row, reference)

    def test_mismatched_shapes_rejected(self, calibration, capture):
        with pytest.raises(ConfigurationError):
            calibration.reconstruct(
                capture.stage_codes, capture.flash_codes[:-1]
            )


class TestCalibrationSeeding:
    """The capture must ride its own SeedSequence-spawned stream."""

    def test_default_capture_replays_from_die_seed(self, mismatched_adc):
        a = GainCalibration(mismatched_adc, samples_per_code=4).calibrate()
        b = GainCalibration(mismatched_adc, samples_per_code=4).calibrate()
        assert np.array_equal(a, b)

    def test_explicit_seed_escape_hatch(self, mismatched_adc):
        a = GainCalibration(mismatched_adc, samples_per_code=4).calibrate(
            noise_seed=987
        )
        b = GainCalibration(mismatched_adc, samples_per_code=4).calibrate(
            noise_seed=987
        )
        c = GainCalibration(mismatched_adc, samples_per_code=4).calibrate(
            noise_seed=988
        )
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_calibration_stream_is_reserved(self):
        """The calibration stream is spawned separately from both
        conversion streams — captures can neither collide with nor
        correlate against measurement noise."""
        from repro.streams import (
            CALIBRATION_NOISE_STREAM,
            CONVERT_NOISE_STREAM,
            SAMPLES_NOISE_STREAM,
            noise_generator,
        )

        draws = {
            stream: noise_generator(42, stream).normal(size=16)
            for stream in (
                CONVERT_NOISE_STREAM,
                SAMPLES_NOISE_STREAM,
                CALIBRATION_NOISE_STREAM,
            )
        }
        assert not np.array_equal(
            draws[CALIBRATION_NOISE_STREAM], draws[CONVERT_NOISE_STREAM]
        )
        assert not np.array_equal(
            draws[CALIBRATION_NOISE_STREAM], draws[SAMPLES_NOISE_STREAM]
        )

    def test_spawning_reserved_stream_kept_existing_streams(self):
        """Adding the calibration stream must not have moved the two
        conversion streams (children are keyed by spawn index)."""
        from repro.streams import noise_generator

        children = np.random.SeedSequence(42).spawn(2)
        for stream, child in enumerate(children):
            expected = np.random.default_rng(child).normal(size=8)
            assert np.array_equal(
                noise_generator(42, stream).normal(size=8), expected
            )

    def test_capture_does_not_disturb_measurements(self, mismatched_adc):
        """A conversion after calibration equals one without: the
        capture draws from its own stream, not the conversion's."""
        ramp = np.linspace(-0.5, 0.5, 64)
        before = mismatched_adc.convert_samples(ramp).codes
        GainCalibration(mismatched_adc, samples_per_code=4).calibrate()
        after = mismatched_adc.convert_samples(ramp).codes
        assert np.array_equal(before, after)
