"""Tests for repro.core.config."""

import pytest

from repro.analog.clocking import ClockingScheme
from repro.core.config import AdcConfig, ScalingPlan, StageConfig, SwitchStyle
from repro.errors import ConfigurationError


class TestScalingPlan:
    def test_paper_plan(self):
        plan = ScalingPlan.paper()
        assert plan.factors[0] == 1.0
        assert plan.factors[1] == pytest.approx(2 / 3)
        assert all(f == pytest.approx(1 / 3) for f in plan.factors[2:])
        assert plan.n_stages == 10

    def test_paper_plan_total(self):
        """Sum 1 + 2/3 + 8/3 = 13/3: the scaled chain costs 43% of an
        unscaled one."""
        assert ScalingPlan.paper().total() == pytest.approx(13 / 3)

    def test_uniform_plan(self):
        plan = ScalingPlan.uniform(10)
        assert plan.total() == pytest.approx(10.0)

    def test_rejects_increasing_factors(self):
        with pytest.raises(ConfigurationError):
            ScalingPlan(factors=(1.0, 0.5, 0.8))

    def test_rejects_stage1_not_unity(self):
        with pytest.raises(ConfigurationError):
            ScalingPlan(factors=(0.9, 0.5))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ScalingPlan(factors=())


class TestAdcConfig:
    def test_architecture_resolves_12_bits(self, paper_config):
        assert paper_config.resolution == 12
        assert paper_config.n_stages == 10
        assert paper_config.flash_bits == 2
        assert paper_config.n_codes == 4096

    def test_lsb(self, paper_config):
        assert paper_config.lsb == pytest.approx(2.0 / 4096)

    def test_rejects_inconsistent_architecture(self):
        with pytest.raises(ConfigurationError):
            AdcConfig(n_stages=9, scaling=ScalingPlan.paper(9))

    def test_rejects_mismatched_scaling_length(self):
        with pytest.raises(ConfigurationError):
            AdcConfig(scaling=ScalingPlan.paper(8))

    def test_stage_configs_follow_plan(self, paper_config):
        stages = paper_config.stage_configs()
        assert len(stages) == 10
        assert stages[0].unit_capacitance == pytest.approx(0.225e-12)
        assert stages[1].unit_capacitance == pytest.approx(0.15e-12)
        assert stages[2].unit_capacitance == pytest.approx(0.075e-12)

    def test_stage_loads_look_ahead(self, paper_config):
        """Each stage drives the *next* stage's sampling caps."""
        stages = paper_config.stage_configs()
        assert stages[0].load_capacitance > stages[1].load_capacitance
        # stage 2..9 all drive 1/3-scaled stages: equal loads
        assert stages[2].load_capacitance == pytest.approx(
            stages[5].load_capacitance
        )

    def test_mirror_ratios_follow_plan(self, paper_config):
        ratios = paper_config.mirror_ratios()
        assert ratios[0] == pytest.approx(20.0)
        assert ratios[1] == pytest.approx(20.0 * 2 / 3)

    def test_resolved_bias_uses_plan_ratios(self, paper_config):
        bias = paper_config.resolved_bias()
        assert bias.mirror_ratios == paper_config.mirror_ratios()

    def test_sampling_capacitance_property(self, paper_config):
        stage = paper_config.stage_configs()[0]
        assert stage.sampling_capacitance == pytest.approx(0.45e-12)


class TestBuilders:
    def test_ideal_disables_impairments(self, ideal_config):
        assert not ideal_config.include_thermal_noise
        assert not ideal_config.include_jitter
        assert not ideal_config.include_mismatch
        assert not ideal_config.include_settling
        assert not ideal_config.include_tracking
        assert ideal_config.comparator.offset_sigma == 0.0
        assert ideal_config.clock.aperture_jitter_rms == 0.0

    def test_paper_default_enables_everything(self, paper_config):
        assert paper_config.include_thermal_noise
        assert paper_config.include_settling
        assert paper_config.switch_style is SwitchStyle.BULK_SWITCHED

    def test_with_switch_style(self, paper_config):
        new = paper_config.with_switch_style(SwitchStyle.BOOTSTRAPPED)
        assert new.switch_style is SwitchStyle.BOOTSTRAPPED
        assert paper_config.switch_style is SwitchStyle.BULK_SWITCHED

    def test_with_scaling_checks_length(self, paper_config):
        with pytest.raises(ConfigurationError):
            paper_config.with_scaling(ScalingPlan.uniform(5))

    def test_with_clocking_scheme(self, paper_config):
        new = paper_config.with_clocking_scheme(ClockingScheme.NON_OVERLAP)
        assert new.clock.scheme is ClockingScheme.NON_OVERLAP

    def test_with_fixed_bias(self, paper_config):
        new = paper_config.with_fixed_bias(design_rate=120e6)
        assert new.use_fixed_bias
        assert new.fixed_bias.design_rate == pytest.approx(120e6)


class TestStageConfig:
    def test_rejects_negative_index(self):
        with pytest.raises(ConfigurationError):
            StageConfig(
                index=-1,
                scale=1.0,
                unit_capacitance=1e-13,
                mirror_ratio=20.0,
                input_pair_width=40e-6,
                compensation_capacitance=1e-12,
                load_capacitance=1e-13,
            )

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ConfigurationError):
            StageConfig(
                index=0,
                scale=0.0,
                unit_capacitance=1e-13,
                mirror_ratio=20.0,
                input_pair_width=40e-6,
                compensation_capacitance=1e-12,
                load_capacitance=1e-13,
            )
