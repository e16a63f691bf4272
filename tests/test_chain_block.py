"""A die's chain block: built once at construction, equal to the scalar model.

:func:`repro.core.stage.chain_block` computes every stage's MDAC
constants in one vectorized :func:`repro.core.mdac.chain_parameters`
call.  Each row must be the bytes the one-stage scalar expressions of
``Mdac`` and its opamp give (the reference loop below), and a built die
must convert without computing any of it again.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import mdac as mdac_module
from repro.core import stage as stage_module
from repro.core.adc import PipelineAdc
from repro.devices.comparator import bank_parameters
from repro.native import chain as native_chain
from repro.signal.generators import SineGenerator
from repro.technology.corners import Corner, OperatingPoint

TEMPERATURES = (-40.0, 27.0, 125.0)
SEEDS = (1, 7, 2**40 + 3)


def scalar_row(mdac, operating_point) -> tuple[bytes, int]:
    """One MDAC's chain vector and flags from its scalar methods."""
    beta = mdac.feedback_factor
    opamp = mdac.opamp
    p = opamp.parameters
    settle = (
        opamp.settle_constants(mdac.settle_time, beta)
        if mdac.include_settling
        else None
    )
    values = {
        "one_plus_ratio": 1.0 + mdac.capacitor_ratio,
        "ratio": mdac.capacitor_ratio,
        "gain": 1.0 - opamp.static_gain_error(beta),
        "sampling_rms": (
            mdac.sampling_noise_rms(operating_point)
            if mdac.include_sampling_noise
            else 0.0
        ),
        "opamp_rms": (
            opamp.sampled_noise_rms(
                feedback_factor=beta,
                load_capacitance=mdac.load_capacitance,
                temperature_k=operating_point.temperature_k,
            )
            if mdac.include_noise
            else 0.0
        ),
        "knee": settle.knee if settle else 0.0,
        "slew_rate": p.slew_rate,
        "tau": settle.tau if settle else 1.0,
        "decay": settle.decay if settle else 0.0,
        "settle_time": settle.settle_time if settle else 0.0,
        "swing": p.output_swing,
        "neg_compression": -p.compression,
    }
    flags = (
        native_chain.SAMPLING_NOISE * mdac.include_sampling_noise
        | native_chain.OPAMP_NOISE * mdac.include_noise
        | native_chain.SETTLING * mdac.include_settling
    )
    row = np.array([values[name] for name in native_chain.MDAC_FIELDS])
    return row.tobytes(), flags


def _assert_block_is_scalar(adc) -> None:
    block = adc._chain_block
    point = adc.operating_point
    assert block.mdac.shape == (len(adc.stages), len(native_chain.MDAC_FIELDS))
    assert block.mdac.flags.c_contiguous and block.banks.flags.c_contiguous
    for k, stage in enumerate(adc.stages):
        row, flags = scalar_row(stage.mdac, point)
        assert block.mdac[k].tobytes() == row, k
        assert block.flags[k] == flags, k
        assert (
            block.banks[k].tobytes()
            == bank_parameters(stage.subadc.comparators).tobytes()
        ), k
        # The numpy path's single-stage call gives the same row.
        (alone,), (alone_flags,) = mdac_module.chain_parameters(
            (stage.mdac,), point
        )
        assert alone.tobytes() == row and alone_flags == flags, k


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("temperature", TEMPERATURES)
@pytest.mark.parametrize("corner", list(Corner))
def test_block_equals_scalar_constants(paper_config, corner, temperature, seed):
    point = OperatingPoint(
        technology=paper_config.technology, corner=corner, temperature_c=temperature
    )
    adc = PipelineAdc(paper_config, 110e6, operating_point=point, seed=seed)
    _assert_block_is_scalar(adc)
    block = adc._chain_block
    all_on = (
        native_chain.SAMPLING_NOISE | native_chain.OPAMP_NOISE | native_chain.SETTLING
    )
    # Stage 1's acquisition noise belongs to the front end.
    first = all_on - native_chain.SAMPLING_NOISE
    assert block.flags == (first,) + (all_on,) * (len(adc.stages) - 1)
    assert block.mdac[0, native_chain.MDAC_FIELDS.index("sampling_rms")] == 0.0


@pytest.mark.parametrize(
    "change",
    [
        {"include_settling": False},
        {"include_thermal_noise": False},
        {"include_settling": False, "include_thermal_noise": False},
    ],
    ids=["no-settling", "no-thermal-noise", "neither"],
)
def test_switched_off_impairments_read_neutral(paper_config, change):
    adc = PipelineAdc(replace(paper_config, **change), 160e6, seed=3)
    _assert_block_is_scalar(adc)
    flags = adc._chain_block.flags
    if change.get("include_settling") is False:
        assert not any(word & native_chain.SETTLING for word in flags)
    if change.get("include_thermal_noise") is False:
        noise = native_chain.SAMPLING_NOISE | native_chain.OPAMP_NOISE
        assert not any(word & noise for word in flags)


def test_block_is_read_only(paper_config):
    block = PipelineAdc(paper_config, 110e6, seed=2)._chain_block
    with pytest.raises(ValueError):
        block.mdac[0, 0] = 1.0
    with pytest.raises(ValueError):
        block.banks[0, 0] = 1.0


def _counting(monkeypatch) -> list:
    """Count the calls of the constants function, wherever it is called."""
    calls = []
    original = mdac_module.chain_parameters

    def counting(*args):
        calls.append(len(args[0]))
        return original(*args)

    for module in (mdac_module, stage_module):
        monkeypatch.setattr(module, "chain_parameters", counting)
    return calls


@pytest.mark.skipif(native_chain.kernel() is None, reason=native_chain.status())
def test_built_die_converts_without_constants(monkeypatch, paper_config):
    """Construction computes the block once; conversions never again.

    numpy's path, forced, computes each stage's constants per call.
    """
    calls = _counting(monkeypatch)
    adc = PipelineAdc(paper_config, 110e6, seed=4)
    assert calls == [paper_config.n_stages]
    calls.clear()
    tone = SineGenerator.coherent(10e6, 110e6, 1024, amplitude=0.995)
    adc.convert(tone, 1024)
    adc.convert_samples(np.linspace(-1.0, 1.0, 700))
    assert calls == []
    monkeypatch.setattr(native_chain._kernel, "loaded", (None, "numpy: forced"))
    adc.convert(tone, 1024)
    assert calls == [1] * paper_config.n_stages
