"""Tests for repro.devices.opamp — the settling model behind Fig. 5."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.devices.opamp import OpampParameters, TwoStageMillerOpamp
from repro.errors import ConfigurationError, ModelDomainError


@pytest.fixture(scope="module")
def opamp():
    return TwoStageMillerOpamp(
        OpampParameters(
            dc_gain=3600.0,
            unity_gain_bandwidth=1.4e9,
            slew_rate=2.2e9,
            output_swing=1.25,
            compression=0.0004,
        )
    )


class TestParameters:
    def test_rejects_gain_below_unity(self):
        with pytest.raises(ConfigurationError):
            OpampParameters(
                dc_gain=0.5,
                unity_gain_bandwidth=1e9,
                slew_rate=1e9,
                output_swing=1.0,
            )

    def test_rejects_noise_below_ktc(self):
        with pytest.raises(ConfigurationError):
            OpampParameters(
                dc_gain=1000,
                unity_gain_bandwidth=1e9,
                slew_rate=1e9,
                output_swing=1.0,
                noise_excess_factor=0.5,
            )

    def test_rejects_negative_compression(self):
        with pytest.raises(ConfigurationError):
            OpampParameters(
                dc_gain=1000,
                unity_gain_bandwidth=1e9,
                slew_rate=1e9,
                output_swing=1.0,
                compression=-0.1,
            )


class TestClosedLoop:
    def test_tau_formula(self, opamp):
        tau = opamp.closed_loop_tau(0.4)
        assert tau == pytest.approx(1 / (2 * math.pi * 0.4 * 1.4e9))

    def test_tau_rejects_bad_beta(self, opamp):
        with pytest.raises(ModelDomainError):
            opamp.closed_loop_tau(0.0)
        with pytest.raises(ModelDomainError):
            opamp.closed_loop_tau(1.5)

    def test_static_gain_error(self, opamp):
        error = opamp.static_gain_error(0.4)
        assert error == pytest.approx(1 / (1 + 3600 * 0.4))


class TestSettling:
    def test_converges_to_target(self, opamp):
        target = np.array([0.5, -0.3, 1.0])
        result = opamp.settle(target, 0.0, settle_time=20e-9, feedback_factor=0.4)
        assert result.output == pytest.approx(target, abs=1e-9)

    def test_error_decreases_with_time(self, opamp):
        target = np.array([1.0])
        errors = []
        for t in (0.5e-9, 1e-9, 2e-9, 4e-9):
            out = opamp.settle(target, 0.0, t, 0.4).output
            errors.append(abs(out[0] - 1.0))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < errors[0] / 100

    def test_linear_regime_matches_exponential(self, opamp):
        """Small steps never slew: error = step * exp(-t/tau)."""
        tau = opamp.closed_loop_tau(0.4)
        step = 0.1  # below SR*tau = 0.55 V
        t = 3 * tau
        result = opamp.settle(np.array([step]), 0.0, t, 0.4)
        expected = step - step * math.exp(-3)
        assert result.output[0] == pytest.approx(expected, rel=1e-9)
        assert result.slewing_fraction == 0.0

    def test_large_step_slews_first(self, opamp):
        tau = opamp.closed_loop_tau(0.4)
        knee = opamp.parameters.slew_rate * tau
        result = opamp.settle(np.array([2.0 * knee]), 0.0, 0.05e-9, 0.4)
        assert result.slewing_fraction == 1.0
        # While slewing, the output ramps at exactly SR.
        assert result.output[0] == pytest.approx(
            opamp.parameters.slew_rate * 0.05e-9, rel=1e-9
        )
        assert result.incomplete_fraction == 1.0

    def test_slew_then_linear_continuous(self, opamp):
        """The two-regime solution is continuous in settle time."""
        target = np.array([1.2])
        times = np.linspace(0.05e-9, 3e-9, 60)
        outputs = [
            opamp.settle(target, 0.0, float(t), 0.4).output[0] for t in times
        ]
        diffs = np.diff(outputs)
        assert np.all(diffs > -1e-12)  # monotone approach
        assert np.max(np.abs(np.diff(diffs))) < 0.1  # no jumps

    def test_settles_downward_too(self, opamp):
        result = opamp.settle(np.array([-0.8]), 0.0, 10e-9, 0.4)
        assert result.output[0] == pytest.approx(-0.8, abs=1e-6)

    def test_initial_condition_respected(self, opamp):
        result = opamp.settle(np.array([0.5]), 0.45, 1e-12, 0.4)
        assert 0.45 < result.output[0] < 0.5

    def test_rejects_nonpositive_time(self, opamp):
        with pytest.raises(ModelDomainError):
            opamp.settle(np.array([1.0]), 0.0, 0.0, 0.4)

    @given(
        st.floats(min_value=-1.2, max_value=1.2),
        st.floats(min_value=1e-11, max_value=1e-7),
    )
    def test_never_overshoots(self, target, settle_time):
        """A single-pole + slew model approaches monotonically: the
        output never passes the target."""
        amp = TwoStageMillerOpamp(
            OpampParameters(
                dc_gain=3600.0,
                unity_gain_bandwidth=1.4e9,
                slew_rate=2.2e9,
                output_swing=1.25,
            )
        )
        out = amp.settle(np.array([target]), 0.0, settle_time, 0.4).output[0]
        if target >= 0:
            assert -1e-12 <= out <= target + 1e-12
        else:
            assert target - 1e-12 <= out <= 1e-12


class TestSettleFastPath:
    """The hoisted-constants / sparse-regime paths are bit-exact."""

    def test_precomputed_constants_bit_exact(self, opamp):
        targets = np.random.default_rng(3).uniform(-2.0, 2.0, 256)
        constants = opamp.settle_constants(1e-9, 0.4)
        with_constants = opamp.settle(
            targets, 0.0, 1e-9, 0.4, constants=constants
        )
        without = opamp.settle(targets, 0.0, 1e-9, 0.4)
        assert np.array_equal(with_constants.output, without.output)
        assert (
            with_constants.slewing_fraction == without.slewing_fraction
        )

    @pytest.mark.parametrize("slewing", ["few", "most", "none"])
    def test_batch_matches_scalar_elementwise(self, opamp, slewing):
        """Every regime mix — the sparse gather path (few slewing
        elements), the dense path (mostly slewing) and the fused
        no-slewing path — reproduces the one-element calls bitwise."""
        rng = np.random.default_rng(5)
        targets = {
            "few": np.concatenate(
                [rng.uniform(-0.05, 0.05, 60), rng.uniform(1.5, 2.0, 4)]
            ),
            "most": rng.uniform(-2.0, 2.0, 64),
            "none": rng.uniform(-0.01, 0.01, 64),
        }[slewing]
        batch = opamp.settle(targets, 0.0, 1e-9, 0.4).output
        singles = np.array(
            [
                opamp.settle(np.array([t]), 0.0, 1e-9, 0.4).output[0]
                for t in targets
            ]
        )
        assert np.array_equal(batch, singles)


class TestCompression:
    def test_identity_at_zero_compression(self):
        amp = TwoStageMillerOpamp(
            OpampParameters(
                dc_gain=1000,
                unity_gain_bandwidth=1e9,
                slew_rate=1e9,
                output_swing=1.25,
                compression=0.0,
            )
        )
        v = np.linspace(-1.2, 1.2, 10)
        assert amp.compress(v) == pytest.approx(v)

    def test_compresses_large_signals(self, opamp):
        v = np.array([1.0])
        out = opamp.compress(v)
        assert out[0] < 1.0
        assert out[0] == pytest.approx(1.0 - 0.0004 * (1 / 1.25) ** 2, rel=1e-6)

    def test_hard_clip_at_swing(self, opamp):
        v = np.array([5.0, -5.0])
        out = opamp.compress(v)
        assert out[0] <= 1.25 and out[1] >= -1.25

    def test_odd_symmetry(self, opamp):
        v = np.linspace(0.1, 1.2, 7)
        assert opamp.compress(-v) == pytest.approx(-opamp.compress(v))


class TestNoiseAndPower:
    def test_sampled_noise_scales_with_cap(self, opamp):
        small = opamp.sampled_noise_rms(0.4, 0.1e-12)
        big = opamp.sampled_noise_rms(0.4, 0.4e-12)
        assert small == pytest.approx(2 * big, rel=1e-9)

    def test_sampled_noise_magnitude(self, opamp):
        """NEF * kT/(beta*C) with NEF=2, beta=0.4, C=0.34pF: ~250 uV."""
        noise = opamp.sampled_noise_rms(0.4, 0.34e-12)
        assert 150e-6 < noise < 400e-6

    def test_noise_rejects_bad_args(self, opamp):
        with pytest.raises(ModelDomainError):
            opamp.sampled_noise_rms(0.4, 0.0)
        with pytest.raises(ModelDomainError):
            opamp.sampled_noise_rms(2.0, 1e-12)

    def test_power(self, opamp):
        assert opamp.power(1.8) == pytest.approx(
            opamp.parameters.quiescent_current * 1.8
        )

    def test_power_rejects_bad_supply(self, opamp):
        with pytest.raises(ModelDomainError):
            opamp.power(0.0)
