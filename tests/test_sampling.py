"""Tests for repro.analog.sampling — the front-end physics."""

import numpy as np
import pytest

from repro.analog.sampling import SamplingNetwork, TrackingModel
from repro.core.adc import PipelineAdc
from repro.core.config import SwitchStyle
from repro.devices.switch import BulkSwitchedTransmissionGate
from repro.errors import ConfigurationError
from repro.native import chain as native_chain
from repro.signal.generators import SineGenerator
from repro.streams import seeded_generator
from repro.technology.corners import Corner, OperatingPoint


@pytest.fixture(scope="module")
def tracking():
    point = OperatingPoint()
    switch = BulkSwitchedTransmissionGate(
        nmos_width=7e-6,
        pmos_width=21e-6,
        length=0.18e-6,
        operating_point=point,
    )
    return TrackingModel(
        switch=switch,
        hold_capacitance=0.45e-12,
        common_mode=0.9,
        side_mismatch=0.012,
    )


@pytest.fixture(scope="module")
def network(tracking):
    return SamplingNetwork(tracking=tracking)


def sine(frequency, n=2048, amplitude=0.995):
    t = np.arange(n) / 110e6
    omega = 2 * np.pi * frequency
    return (
        amplitude * np.sin(omega * t),
        amplitude * omega * np.cos(omega * t),
    )


def harmonic_power_dbc(signal, order, fundamental_cycles):
    spectrum = np.abs(np.fft.rfft(signal - signal.mean())) ** 2
    fund = spectrum[fundamental_cycles]
    h = spectrum[order * fundamental_cycles]
    return 10 * np.log10(h / fund)


class TestTrackingModel:
    def test_single_ended_split(self, tracking):
        pos, neg = tracking.single_ended(np.array([0.5]))
        assert pos[0] == pytest.approx(1.15)
        assert neg[0] == pytest.approx(0.65)

    def test_dc_passes_unchanged(self, tracking):
        v = np.linspace(-1, 1, 11)
        tracked = tracking.track(v, np.zeros_like(v))
        assert tracked == pytest.approx(v)

    def test_error_proportional_to_slew(self, tracking):
        v = np.zeros(3)
        slow = tracking.track(v, np.full(3, 1e6))
        fast = tracking.track(v, np.full(3, 2e6))
        assert fast == pytest.approx(2 * slow, rel=1e-9)

    def test_distortion_grows_with_frequency(self, tracking):
        """The Fig. 6 mechanism: HD3 of the tracked waveform grows about
        20 dB/decade with input frequency."""
        n = 4096
        t = np.arange(n) / 110e6
        results = {}
        for cycles in (37, 373):  # ~1 MHz and ~10 MHz coherent
            f = cycles * 110e6 / n
            v = 0.995 * np.sin(2 * np.pi * f * t)
            dv = 0.995 * 2 * np.pi * f * np.cos(2 * np.pi * f * t)
            tracked = tracking.track(v, dv)
            results[cycles] = harmonic_power_dbc(tracked, 3, cycles)
        growth = results[373] - results[37]
        assert 14 < growth < 26

    def test_shape_mismatch_rejected(self, tracking):
        with pytest.raises(ConfigurationError):
            tracking.track(np.zeros(4), np.zeros(5))

    def test_pedestal_scales_with_suppression(self, tracking):
        v = np.linspace(-1, 1, 21)
        weak = tracking.pedestal(v, 0.01)
        strong = tracking.pedestal(v, 0.02)
        assert strong == pytest.approx(2 * weak, rel=1e-9)

    def test_pedestal_suppression_bounds(self, tracking):
        with pytest.raises(ConfigurationError):
            tracking.pedestal(np.zeros(3), 1.5)

    def test_rejects_bad_construction(self, tracking):
        with pytest.raises(ConfigurationError):
            TrackingModel(
                switch=tracking.switch,
                hold_capacitance=0.0,
                common_mode=0.9,
            )
        with pytest.raises(ConfigurationError):
            TrackingModel(
                switch=tracking.switch,
                hold_capacitance=1e-12,
                common_mode=0.9,
                side_mismatch=0.5,
            )


class TestSamplingNetwork:
    def test_ktc_noise_value(self, network, operating_point):
        """Differential kT/C of two 0.45 pF sides: ~136 uV."""
        assert network.noise_rms(operating_point) == pytest.approx(
            136e-6, rel=0.05
        )

    def test_droop_grows_with_hold_time(self, network):
        assert network.droop_gain_error(100e-9) > network.droop_gain_error(
            4.5e-9
        )

    def test_droop_negligible_at_nominal_rate(self, network):
        assert network.droop_gain_error(4.5e-9) < 1e-4

    def test_acquire_adds_noise(self, network, operating_point, rng):
        v, dv = sine(10e6)
        a = network.acquire(v, dv, 4.5e-9, operating_point, rng)
        b = network.acquire(v, dv, 4.5e-9, operating_point, rng)
        assert not np.allclose(a, b)
        # The deterministic part (tracking delay) dominates the error
        # budget; everything stays millivolt-scale at 10 MHz.
        assert np.std(a - v) < 10e-3

    def test_acquire_noiseless_deterministic(self, tracking, operating_point, rng):
        network = SamplingNetwork(tracking=tracking, include_noise=False)
        v, dv = sine(10e6)
        a = network.acquire(v, dv, 4.5e-9, operating_point, rng)
        b = network.acquire(v, dv, 4.5e-9, operating_point, rng)
        assert np.array_equal(a, b)

    def test_rejects_negative_hold_time(self, network):
        with pytest.raises(ConfigurationError):
            network.droop_gain_error(-1.0)

    def test_rejects_bad_droop_config(self, tracking):
        with pytest.raises(ConfigurationError):
            SamplingNetwork(tracking=tracking, off_conductance=-1.0)
        with pytest.raises(ConfigurationError):
            SamplingNetwork(tracking=tracking, droop_signal_fraction=1.5)


@pytest.mark.skipif(native_chain.kernel() is None, reason=native_chain.status())
class TestCompiledFrontEnd:
    """The compiled front end holds the bytes SamplingNetwork.acquire does.

    Over every corner, three temperatures, both transmission-gate
    switches, a slow and a fast rate and three tone frequencies: the
    held record and the generator state after ``PipelineAdc._acquire``
    are the ones numpy's :meth:`SamplingNetwork.acquire` gives.
    """

    @pytest.mark.parametrize("corner", list(Corner))
    @pytest.mark.parametrize(
        "style", [SwitchStyle.BULK_SWITCHED, SwitchStyle.TRANSMISSION_GATE]
    )
    def test_matches_numpy(self, paper_config, corner, style):
        config = paper_config.with_switch_style(style)
        for temperature in (-40.0, 27.0, 125.0):
            point = OperatingPoint(
                technology=config.technology,
                corner=corner,
                temperature_c=temperature,
            )
            for rate in (20e6, 160e6):
                adc = PipelineAdc(config, rate, operating_point=point, seed=4)
                for fraction in (0.02, 0.21, 0.47):
                    self._compare(adc, fraction * rate, 512)

    @staticmethod
    def _compare(adc, frequency, n):
        tone = SineGenerator.coherent(frequency, adc.conversion_rate, n, 0.995)
        times = adc._sample_instants(n, seeded_generator(1))
        values, derivatives = tone.value(times), tone.derivative(times)
        native_rng, numpy_rng = seeded_generator(2), seeded_generator(2)
        native = adc._acquire(values, derivatives, native_rng)
        reference = adc.frontend.acquire(
            values,
            derivatives,
            hold_time=adc.timing.amplification_time,
            operating_point=adc.operating_point,
            rng=numpy_rng,
        )
        served = native_chain.acquire(*adc._native_frontend, values, derivatives)
        assert served is not None
        assert native.tobytes() == reference.tobytes()
        assert native_rng.bit_generator.state == numpy_rng.bit_generator.state
