"""End to end, the compiled normal fill and numpy's own draw agree bit for bit.

Each case runs twice on the same host: once with the compiled fill
serving the dense Gaussian draws, once with the loader forced to report
it unavailable, so numpy draws everything.  Output codes, stage codes,
flash codes and the residue bytes every stage hands on must be identical
— the residues catch a last-bit difference the codes could absorb.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adc import PipelineAdc
from repro.core.adc_array import AdcArray
from repro.core.calibration import GainCalibration
from repro.core.stage import PipelineStage
from repro.native import normal as native_normal
from repro.runtime.montecarlo import default_sampler
from repro.signal.generators import SineGenerator

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


def _run_both(monkeypatch, run) -> tuple:
    """``run()`` with the compiled fill, then with numpy forced.

    Returns, per side, the result and every stage's (codes, residues)
    in call order.
    """
    original = PipelineStage.process
    sides = []
    for forced in (False, True):
        captured = []

        def process(self, *args, **kwargs):
            output = original(self, *args, **kwargs)
            captured.append((output.codes.copy(), output.residues.copy()))
            return output

        with monkeypatch.context() as patch:
            patch.setattr(PipelineStage, "process", process)
            if forced:
                patch.setattr(native_normal, "_loaded", (None, "numpy: forced"))
            assert (native_normal.kernel() is None) is forced
            sides.append((run(), captured))
    return sides[0], sides[1]


def _assert_identical(native, numpy_side) -> None:
    (result_a, stages_a), (result_b, stages_b) = native, numpy_side
    for field in ("codes", "stage_codes", "flash_codes"):
        a, b = getattr(result_a, field), getattr(result_b, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert len(stages_a) == len(stages_b) > 0
    for index, ((codes_a, res_a), (codes_b, res_b)) in enumerate(
        zip(stages_a, stages_b)
    ):
        assert codes_a.tobytes() == codes_b.tobytes(), index
        assert res_a.dtype == res_b.dtype, index
        assert res_a.tobytes() == res_b.tobytes(), index


def test_serial_conversion(monkeypatch, paper_config, tone):
    def run():
        return PipelineAdc(paper_config, 110e6, seed=5).convert(tone, N_SAMPLES)

    _assert_identical(*_run_both(monkeypatch, run))


def test_vectorized_block(monkeypatch, paper_config, population, tone):
    def run():
        return AdcArray(paper_config, 110e6, population).convert(tone, N_SAMPLES)

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


def test_fast_precision_block(monkeypatch, paper_config, population, tone):
    def run():
        array = AdcArray(paper_config, 110e6, population, precision="fast")
        return array.convert(tone, N_SAMPLES)

    _assert_identical(*_run_both(monkeypatch, run))
