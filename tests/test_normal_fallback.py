"""End to end, the compiled kernels and numpy's own path agree bit for bit.

Each case runs twice on the same host: once with the compiled normal
fill and the compiled stage chain serving, once with both loaders forced
to report them unavailable, so numpy computes everything.  Output codes,
stage codes, flash codes, the residue bytes every stage hands on
(captured through ``PipelineStage.process``) and the generator state
after every stage and after the flash must be identical.  The residues
catch a last-bit difference the codes could absorb; the states catch a
draw too many or too few.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.adc import PipelineAdc
from repro.core.adc_array import AdcArray
from repro.core.calibration import GainCalibration
from repro.core.flash import FlashBackend
from repro.core.mdac import Mdac
from repro.core.stage import PipelineStage
from repro.core.subadc import SubAdc
from repro.devices.comparator import ComparatorParameters
from repro.devices.opamp import OpampParameters, TwoStageMillerOpamp
from repro.native import chain as native_chain
from repro.native import normal as native_normal
from repro.runtime.montecarlo import default_sampler
from repro.signal.generators import SineGenerator
from repro.streams import seeded_generator
from repro.technology.corners import OperatingPoint

# One library holds both kernels: where the fill loads, the chain must
# pass its self-check too, and a chain that fails it fails these tests.
pytestmark = pytest.mark.skipif(
    native_normal.kernel() is None, reason=native_normal.status()
)

N_SAMPLES = 2048


@pytest.fixture(scope="module")
def tone():
    return SineGenerator.coherent(10e6, 110e6, N_SAMPLES, amplitude=0.995)


@pytest.fixture(scope="module")
def population(paper_config):
    return default_sampler(paper_config).sample(4, np.random.default_rng(17))


def test_chain_passes_its_self_check():
    assert native_chain.status() == "native"


def _states(rng):
    if hasattr(rng, "bit_generator"):
        return rng.bit_generator.state
    return [generator.bit_generator.state for generator in rng.generators]


def _run_both(monkeypatch, run) -> tuple:
    """``run()`` with the compiled kernels, then with numpy forced.

    Returns, per side, the result and, in call order, the (codes,
    residues, generator state) after every stage and the (codes, None,
    generator state) after every flash decision.
    """
    process, decide = PipelineStage.process, FlashBackend.decide
    sides = []
    for forced in (False, True):
        captured = []

        def spy_process(self, inputs, references, operating_point, rng, *args, **kwargs):
            output = process(self, inputs, references, operating_point, rng, *args, **kwargs)
            captured.append(
                (output.codes.copy(), output.residues.copy(), _states(rng))
            )
            return output

        def spy_decide(self, inputs, rng):
            codes = decide(self, inputs, rng)
            captured.append((codes.copy(), None, _states(rng)))
            return codes

        with monkeypatch.context() as patch:
            patch.setattr(PipelineStage, "process", spy_process)
            patch.setattr(FlashBackend, "decide", spy_decide)
            if forced:
                for module in (native_normal, native_chain):
                    patch.setattr(module._kernel, "loaded", (None, "numpy: forced"))
            assert (native_normal.kernel() is None) is forced
            assert (native_chain.kernel() is None) is forced
            sides.append((run(), captured))
    return sides[0], sides[1]


def _assert_identical(native, numpy_side) -> None:
    (result_a, stages_a), (result_b, stages_b) = native, numpy_side
    for field in ("codes", "stage_codes", "flash_codes"):
        a, b = getattr(result_a, field), getattr(result_b, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert len(stages_a) == len(stages_b) > 0
    for index, (side_a, side_b) in enumerate(zip(stages_a, stages_b)):
        (codes_a, res_a, state_a), (codes_b, res_b, state_b) = side_a, side_b
        assert codes_a.dtype == codes_b.dtype, index
        assert codes_a.tobytes() == codes_b.tobytes(), index
        if res_a is not None:
            assert res_a.dtype == res_b.dtype, index
            assert res_a.tobytes() == res_b.tobytes(), index
        assert state_a == state_b, index


def _serial(config, tone, rate=110e6):
    def run():
        return PipelineAdc(config, rate, seed=5).convert(tone, N_SAMPLES)

    return run


def test_serial_conversion(monkeypatch, paper_config, tone):
    _assert_identical(*_run_both(monkeypatch, _serial(paper_config, tone)))


def test_vectorized_block(monkeypatch, paper_config, population, tone):
    def run():
        return AdcArray(paper_config, 110e6, population).convert(tone, N_SAMPLES)

    _assert_identical(*_run_both(monkeypatch, run))


def test_vectorized_per_die_rows(monkeypatch, paper_config, population):
    """Held-voltage blocks run die by die too, on the compiled chain."""
    n = 4200
    ramp = np.linspace(-1.02, 1.02, n)

    def run():
        return AdcArray(paper_config, 110e6, population[:2]).convert_samples(ramp)

    _assert_identical(*_run_both(monkeypatch, run))


def test_calibrated_capture(monkeypatch, paper_config, tone):
    def run():
        adc = PipelineAdc(paper_config, 110e6, seed=9)
        calibration = GainCalibration(adc, samples_per_code=4)
        weights = calibration.calibrate()
        return calibration.convert(tone, N_SAMPLES), weights

    native, numpy_side = _run_both(monkeypatch, run)
    (result_a, weights_a), stages_a = native
    (result_b, weights_b), stages_b = numpy_side
    assert weights_a.tobytes() == weights_b.tobytes()
    _assert_identical((result_a, stages_a), (result_b, stages_b))


@pytest.mark.parametrize(
    "change",
    [
        {"include_settling": False},
        {"include_thermal_noise": False},
        {"comparator": ComparatorParameters(noise_rms=0.0)},
        {"comparator": ComparatorParameters(noise_rms=0.0, metastability_window=0.0)},
        # Wide enough that many decisions toss the metastability coin.
        {
            "comparator": ComparatorParameters(metastability_window=2e-3),
            "flash_comparator": ComparatorParameters(metastability_window=2e-3),
        },
    ],
    ids=["no-settling", "no-thermal-noise", "no-comparator-noise",
         "ideal-comparators", "wide-metastability"],
)
def test_model_switches(monkeypatch, paper_config, tone, change):
    _assert_identical(
        *_run_both(monkeypatch, _serial(replace(paper_config, **change), tone))
    )


def test_slew_heavy_conversion(monkeypatch, paper_config, tone):
    _assert_identical(*_run_both(monkeypatch, _serial(paper_config, tone, 200e6)))


def test_dense_settle_branch(monkeypatch):
    """A stage where more than half the samples slew.

    The default converter never reaches numpy's dense settle branch at
    110-250 MS/s, so a slow-slewing opamp forces it here.
    """
    opamp = TwoStageMillerOpamp(
        OpampParameters(
            dc_gain=3e3,
            unity_gain_bandwidth=1.4e9,
            slew_rate=1.5e8,
            output_swing=1.25,
            compression=0.002,
        )
    )
    mdac = Mdac(
        unit_capacitance=0.225e-12,
        ratio_error=0.003,
        opamp=opamp,
        load_capacitance=0.34e-12,
        summing_parasitic=20e-15,
        settle_time=2.95e-9,
    )
    mismatch = seeded_generator(3)
    stage = PipelineStage(1, SubAdc(1.0, ComparatorParameters(), mismatch), mdac)
    inputs = np.linspace(-1.05, 1.05, 3001)
    references = np.full(inputs.size, 0.999)
    point = OperatingPoint()
    fractions = []
    settle = TwoStageMillerOpamp.settle

    def spy_settle(self, *args, **kwargs):
        result = settle(self, *args, **kwargs)
        fractions.append(result.slewing_fraction)
        return result

    def run():
        rng = seeded_generator(11)
        output = stage.process(inputs, references, point, rng)
        return output, rng.bit_generator.state

    monkeypatch.setattr(TwoStageMillerOpamp, "settle", spy_settle)
    ((native, state_a), _), ((reference, state_b), _) = _run_both(monkeypatch, run)
    # numpy's settle ran once, on the numpy side, through its dense branch.
    assert len(fractions) == 1 and fractions[0] > 0.5
    assert native.codes.tobytes() == reference.codes.tobytes()
    assert native.residues.tobytes() == reference.residues.tobytes()
    assert state_a == state_b


def test_threads_share_nothing(paper_config):
    """Conversions on more threads than cores match the serial codes.

    Each thread has its own scratch workspace and its own die's
    generator; a workspace shared by mistake would mix records.
    """
    ramps = [np.linspace(-1.0, 1.0, 3000 + 500 * k) for k in range(6)]

    def convert(k):
        return PipelineAdc(paper_config, 110e6, seed=k).convert_samples(ramps[k])

    expected = [convert(k).codes.tobytes() for k in range(len(ramps))]
    found = [[] for _ in ramps]

    def worker(k):
        for _ in range(8):
            found[k].append(convert(k).codes.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(ramps))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, got in zip(expected, found):
        assert got == [want] * 8
