"""Tests for repro.technology.capacitor."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.adc import DieTemplate, PipelineAdc
from repro.errors import ConfigurationError
from repro.technology.capacitor import CapacitorMismatchModel, MetalCapacitor
from repro.technology.corners import OperatingPoint
from repro.technology.process import Technology


class TestMetalCapacitor:
    def test_area_from_density(self, technology):
        cap = MetalCapacitor(nominal=0.225e-12, technology=technology)
        assert cap.area == pytest.approx(0.225e-12 / technology.metal_cap_density)

    def test_rejects_nonpositive(self, technology):
        with pytest.raises(ConfigurationError):
            MetalCapacitor(nominal=0.0, technology=technology)

    def test_bigger_caps_match_better(self, technology):
        small = MetalCapacitor(nominal=0.1e-12, technology=technology)
        big = MetalCapacitor(nominal=0.4e-12, technology=technology)
        assert big.matching_sigma() == pytest.approx(
            small.matching_sigma() / 2, rel=1e-9
        )

    def test_value_tracks_cap_scale(self, technology):
        cap = MetalCapacitor(nominal=1e-12, technology=technology)
        fast = OperatingPoint(technology=technology, cap_scale=1.2)
        assert cap.value_at(fast) == pytest.approx(1.2e-12, rel=1e-3)

    def test_ktc_noise_value(self, technology, operating_point):
        """kT/C of 1 pF at room temperature is ~64 uV."""
        cap = MetalCapacitor(nominal=1e-12, technology=technology)
        assert cap.thermal_noise_voltage(operating_point) == pytest.approx(
            64e-6, rel=0.03
        )

    def test_ktc_noise_grows_when_cap_shrinks(self, technology, operating_point):
        small = MetalCapacitor(nominal=0.25e-12, technology=technology)
        big = MetalCapacitor(nominal=1e-12, technology=technology)
        assert small.thermal_noise_voltage(operating_point) == pytest.approx(
            2 * big.thermal_noise_voltage(operating_point), rel=1e-6
        )

    @given(st.floats(min_value=1e-14, max_value=1e-10))
    def test_matching_sigma_positive(self, nominal):
        cap = MetalCapacitor(nominal=nominal, technology=Technology())
        assert cap.matching_sigma() > 0


class TestMismatchModel:
    def test_ratio_sigma_scale(self, technology):
        model = CapacitorMismatchModel(technology=technology)
        single = MetalCapacitor(
            nominal=0.225e-12, technology=technology
        ).matching_sigma()
        assert model.ratio_sigma(0.225e-12) == pytest.approx(
            np.sqrt(2) * single
        )

    def test_sample_statistics(self, paper_config):
        # The draws every die makes: stage 1's ratio error over 300
        # seeds spreads by the template's ratio sigma.
        template = DieTemplate(paper_config, 110e6, None)
        dies = [
            PipelineAdc(paper_config, 110e6, seed=seed, template=template)
            for seed in range(300)
        ]
        draws = np.array([die.stages[0].mdac.ratio_error for die in dies])
        assert draws.std() == pytest.approx(template.stages[0].ratio_sigma, rel=0.1)

    def test_sample_rejects_bad_caps(self, technology):
        model = CapacitorMismatchModel(technology=technology)
        with pytest.raises(ConfigurationError):
            model.ratio_sigma(0.0)

    def test_absolute_scale_truncated(self, technology, rng):
        model = CapacitorMismatchModel(technology=technology)
        draws = [model.sample_absolute_scale(rng) for _ in range(2000)]
        spread = technology.metal_cap_spread
        assert all(1 - 3.01 * spread <= d <= 1 + 3.01 * spread for d in draws)
        assert np.std(draws) == pytest.approx(spread, rel=0.15)

    def test_absolute_scale_positive(self, technology, rng):
        model = CapacitorMismatchModel(technology=technology)
        assert all(
            model.sample_absolute_scale(rng) > 0 for _ in range(100)
        )
