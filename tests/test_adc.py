"""Tests for repro.core.adc — the assembled converter."""

import numpy as np
import pytest

from repro.core.adc import PipelineAdc
from repro.core.behavioral import ideal_transfer_codes
from repro.errors import ConfigurationError, ModelDomainError
from repro.signal.generators import DcGenerator, SineGenerator


class TestConstruction:
    def test_builds_ten_stages(self, paper_adc):
        assert len(paper_adc.stages) == 10

    def test_same_seed_same_die(self, paper_config):
        a = PipelineAdc(paper_config, 110e6, seed=42)
        b = PipelineAdc(paper_config, 110e6, seed=42)
        assert a.stages[0].mdac.ratio_error == b.stages[0].mdac.ratio_error
        assert a.stages[3].subadc.offsets == b.stages[3].subadc.offsets

    def test_different_seed_different_die(self, paper_config):
        a = PipelineAdc(paper_config, 110e6, seed=1)
        b = PipelineAdc(paper_config, 110e6, seed=2)
        assert a.stages[0].mdac.ratio_error != b.stages[0].mdac.ratio_error

    def test_bias_scales_down_the_chain(self, paper_adc):
        currents = paper_adc.bias_report.stage_currents
        assert currents[0] > currents[1] > currents[2]
        assert currents[2] == pytest.approx(currents[9], rel=0.05)

    def test_stage1_bias_current_magnitude(self, paper_adc):
        """The SC generator delivers ~2.6 mA to stage 1 at 110 MS/s."""
        assert paper_adc.bias_report.stage_currents[0] == pytest.approx(
            2.6e-3, rel=0.1
        )

    def test_rejects_nonpositive_rate(self, paper_config):
        with pytest.raises(ConfigurationError):
            PipelineAdc(paper_config, 0.0)

    def test_rejects_impossible_rate(self, paper_config):
        with pytest.raises(ModelDomainError):
            PipelineAdc(paper_config, 500e6)

    def test_describe_stages(self, paper_adc):
        infos = paper_adc.describe_stages()
        assert len(infos) == 10
        assert 0.3 < infos[0]["feedback_factor"] < 0.5
        assert infos[0]["ideal_gain"] == pytest.approx(2.0, abs=0.01)


class TestIdealConversion:
    def test_matches_oracle(self, ideal_adc):
        v = np.linspace(-0.9999, 0.9999, 8001)
        result = ideal_adc.convert_samples(v)
        oracle = ideal_transfer_codes(v, 1.0, 12)
        assert np.max(np.abs(result.codes - oracle)) <= 1

    def test_monotone_transfer(self, ideal_adc):
        v = np.linspace(-1.0, 1.0, 6000)
        result = ideal_adc.convert_samples(v)
        assert np.all(np.diff(result.codes) >= 0)

    def test_dc_conversion_stable(self, ideal_adc):
        result = ideal_adc.convert(DcGenerator(level=0.3), 100)
        assert np.unique(result.codes).size == 1


class TestConvert:
    def test_output_shapes(self, nominal_capture):
        assert nominal_capture.codes.shape == (4096,)
        assert nominal_capture.stage_codes.shape == (4096, 10)
        assert nominal_capture.flash_codes.shape == (4096,)
        assert nominal_capture.sample_times.shape == (4096,)

    def test_stage_codes_are_a_stage_major_view(self, paper_adc, nominal_capture):
        """Each stage's decisions are one contiguous row; the
        (samples, n_stages) view combines to the output words."""
        stage_codes = nominal_capture.stage_codes
        assert stage_codes.strides[0] == stage_codes.itemsize
        words = paper_adc.correction.combine(
            np.ascontiguousarray(stage_codes), nominal_capture.flash_codes
        )
        assert np.array_equal(words, nominal_capture.codes)
        assert np.array_equal(
            paper_adc.correction.combine(stage_codes, nominal_capture.flash_codes),
            words,
        )

    def test_codes_in_range(self, nominal_capture):
        assert nominal_capture.codes.min() >= 0
        assert nominal_capture.codes.max() <= 4095

    def test_full_scale_exercised(self, nominal_capture):
        """A 99.5% tone must reach near both ends of the code range."""
        assert nominal_capture.codes.min() < 40
        assert nominal_capture.codes.max() > 4055

    def test_resolution_recorded(self, nominal_capture):
        assert nominal_capture.resolution == 12

    def test_voltages_roundtrip(self, nominal_capture):
        v = nominal_capture.voltages(1.0)
        assert v.min() >= -1.0 and v.max() <= 1.0

    def test_noise_seed_reproducible(self, paper_adc):
        tone = SineGenerator.coherent(10e6, 110e6, 512, amplitude=0.9)
        a = paper_adc.convert(tone, 512, noise_seed=5)
        b = paper_adc.convert(tone, 512, noise_seed=5)
        assert np.array_equal(a.codes, b.codes)

    def test_noise_seed_varies(self, paper_adc):
        tone = SineGenerator.coherent(10e6, 110e6, 512, amplitude=0.9)
        a = paper_adc.convert(tone, 512, noise_seed=5)
        b = paper_adc.convert(tone, 512, noise_seed=6)
        assert not np.array_equal(a.codes, b.codes)

    def test_rejects_nonpositive_count(self, paper_adc):
        with pytest.raises(ConfigurationError):
            paper_adc.convert(DcGenerator(0.0), 0)

    def test_convert_samples_rejects_bad_shape(self, paper_adc):
        with pytest.raises(ConfigurationError):
            paper_adc.convert_samples(np.zeros((4, 4)))

    def test_worst_settling_error_small_at_nominal(self, paper_adc):
        assert paper_adc.worst_settling_error() < 2e-4

    def test_settling_error_grows_with_rate(self, paper_config):
        slow = PipelineAdc(paper_config, 40e6, seed=1)
        fast = PipelineAdc(paper_config, 150e6, seed=1)
        assert fast.worst_settling_error() > 10 * slow.worst_settling_error()


class TestImpairmentOrdering:
    def test_each_impairment_costs_enob(self, paper_config, ideal_config):
        """The ideal converter must beat the paper model, and the paper
        model must be within the physical band (9.5..11 bits)."""
        from repro.signal.spectrum import SpectrumAnalyzer

        analyzer = SpectrumAnalyzer()
        tone = SineGenerator.coherent(10e6, 110e6, 4096, amplitude=0.995)

        ideal = PipelineAdc(ideal_config, 110e6, seed=1)
        paper = PipelineAdc(paper_config, 110e6, seed=1)
        enob_ideal = analyzer.analyze(
            ideal.convert(tone, 4096).codes, 110e6
        ).enob_bits
        enob_paper = analyzer.analyze(
            paper.convert(tone, 4096).codes, 110e6
        ).enob_bits
        assert enob_ideal > 11.5
        assert 9.5 < enob_paper < 11.0
        assert enob_ideal > enob_paper + 1.0
