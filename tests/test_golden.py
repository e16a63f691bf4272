"""The golden matrix: committed digests of what the converter computes.

Every other bit-exactness test in the suite is relative (engine against
engine, compiled against numpy, resume against a straight run), so a
change that moves every path together passes them all.  This one is
absolute.  For a small matrix of conversions it compares SHA-256
digests of the output codes, the stage codes, the flash codes, the
held record the front end acquires (captured through
``PipelineAdc._acquire``) and the residue bytes each stage hands on
(captured through ``PipelineStage.process``), in call order, with the
digests committed in ``tests/golden/stage_chain.json``.  The held and
residue bytes catch a last-bit change that the codes absorb.  A
vectorized cell converts its dies one at a time, so its held list holds
one record per die and its residue list each die's stages in turn.

The matrix is serial/vectorized x {paper default, one PVT corner} x
{110, 160 MS/s}, plus a calibrated capture (whose weights go through
BLAS) and a slew-heavy 200 MS/s conversion.  Every cell runs with the
compiled stage chain and front end (:mod:`repro.native.chain`) serving
and with them forced off.  Cell names carry ``exact``: every conversion
is the bit-exact one.

Residue bits depend on numpy's transcendental dispatch (``np.exp`` on an
AVX-512 host disagrees with libm's on about 5% of arguments) and on the
BLAS kernels, so the digests are keyed by host class: the numpy version
plus digests of ``np.exp``/``np.sin``/``np.cos`` on a fixed probe vector
and of a small ``lstsq`` solve.  A host class with no recorded digests
skips the test, naming its key; it never passes.  To record one (only
from a tree whose numerics are known good)::

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.adc import PipelineAdc
from repro.core.adc_array import AdcArray
from repro.core.calibration import GainCalibration
from repro.core.config import AdcConfig
from repro.core.stage import PipelineStage
from repro.native import chain as native_chain
from repro.signal.generators import SineGenerator
from repro.technology.corners import Corner, OperatingPoint
from repro.technology.montecarlo import ProcessSample

GOLDEN = Path(__file__).with_name("golden") / "stage_chain.json"
N_SAMPLES = 512
DIE_SEEDS = (3, 11)
RATES = {"110": 110e6, "160": 160e6}
#: Rates outside the matrix proper.
EXTRA_RATES = {"200": 200e6}
CORNERS = {"tt27": (Corner.TT, 27.0), "ss125": (Corner.SS, 125.0)}


def host_key() -> str:
    """The host class the digests are valid for."""
    probe = np.linspace(-40.0, 3.0, 4099)
    digest = hashlib.sha256()
    for function in (np.exp, np.sin, np.cos):
        digest.update(function(probe).tobytes())
    design = np.sin(np.arange(64.0).reshape(16, 4) * 0.37)
    target = np.cos(np.arange(16.0))
    digest.update(np.linalg.lstsq(design, target, rcond=None)[0].tobytes())
    return f"numpy-{np.__version__}-{digest.hexdigest()[:16]}"


def _sha(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def _tone(rate: float) -> SineGenerator:
    return SineGenerator.coherent(10e6, rate, N_SAMPLES, amplitude=0.995)


def _operating_point(config: AdcConfig, corner: str) -> OperatingPoint:
    process, temperature = CORNERS[corner]
    return OperatingPoint(
        technology=config.technology, corner=process, temperature_c=temperature
    )


def _convert(engine: str, corner: str, rate: str):
    """One matrix cell's conversion."""
    config = AdcConfig.paper_default()
    point = _operating_point(config, corner)
    frequency = {**RATES, **EXTRA_RATES}[rate]
    tone = _tone(frequency)
    if engine == "vectorized":
        samples = [
            ProcessSample(operating_point=point, seed=seed, index=index)
            for index, seed in enumerate(DIE_SEEDS)
        ]
        return AdcArray(config, frequency, samples).convert(tone, N_SAMPLES)
    adc = PipelineAdc(config, frequency, operating_point=point, seed=DIE_SEEDS[0])
    return adc.convert(tone, N_SAMPLES)


def _calibrated():
    adc = PipelineAdc(AdcConfig.paper_default(), 110e6, seed=9)
    calibration = GainCalibration(adc, samples_per_code=4)
    weights = calibration.calibrate()
    return calibration.convert(_tone(110e6), N_SAMPLES), weights


#: Matrix cell name -> (function, arguments).
CASES = {
    f"{engine}-exact-{corner}-{rate}": (_convert, (engine, corner, rate))
    for engine in ("serial", "vectorized")
    for corner in CORNERS
    for rate in RATES
}
CASES["serial-exact-calibrated-110"] = (_calibrated, ())
#: Slew-heavy: the settling window at 200 MS/s makes the early stages slew.
CASES["serial-exact-tt27-200"] = (_convert, ("serial", "tt27", "200"))


def digests(case: str) -> dict:
    """Digests of one cell's outputs, held records and stage residues."""
    function, arguments = CASES[case]
    native_chain.kernel()  # its load-time self-check converts too
    original, original_acquire = PipelineStage.process, PipelineAdc._acquire
    residues, held = [], []

    def process(self, *args, **kwargs):
        output = original(self, *args, **kwargs)
        residues.append(_sha(output.residues))
        return output

    def acquire(self, *args, **kwargs):
        output = original_acquire(self, *args, **kwargs)
        held.append(_sha(output))
        return output

    PipelineStage.process, PipelineAdc._acquire = process, acquire
    try:
        result = function(*arguments)
    finally:
        PipelineStage.process, PipelineAdc._acquire = original, original_acquire
    found = {}
    if isinstance(result, tuple):
        result, weights = result
        found["weights"] = _sha(weights)
    for field in ("codes", "stage_codes", "flash_codes"):
        found[field] = _sha(getattr(result, field))
    found["residues"] = residues
    found["held"] = held
    return found


def _recorded() -> dict:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden() -> dict:
    key = host_key()
    recorded = _recorded().get(key)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for host class {key}")
    return recorded


@pytest.mark.parametrize("chain", ["native", "numpy"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(golden, case, chain, monkeypatch):
    if chain == "numpy":
        forced = (None, "numpy: forced")
        monkeypatch.setattr(native_chain._kernel, "loaded", forced)
    expected = golden[case]
    found = digests(case)
    for field in expected:
        assert found[field] == expected[field], (case, field)


def _record() -> None:
    recorded = _recorded()
    recorded[host_key()] = {case: digests(case) for case in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {host_key()} in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
