"""Tests for repro.core.die_cache — the process-local die template cache.

The contract: :func:`build_die` is a drop-in for the ``PipelineAdc``
constructor.  Every call builds a new die on the cached
:class:`DieTemplate` of its (config, rate, PVT point); a key that
differs in config, rate or PVT point builds its own template, a new
seed shares it.  A die built on a cached template equals a one-shot
construction field by field and converts to its codes bit for bit.
Template builds are counted through the profile's
``build/die-template`` rows.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.core import die_cache
from repro.core.adc import DieTemplate, PipelineAdc
from repro.errors import ConfigurationError
from repro.profiling import profiled
from repro.signal.generators import SineGenerator
from repro.technology.corners import Corner, OperatingPoint


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts and ends with an empty cache."""
    die_cache.clear()
    yield
    die_cache.clear()


@pytest.fixture()
def hot_point(technology):
    return OperatingPoint(
        technology=technology, temperature_c=125.0, supply_scale=0.95
    )


@pytest.fixture()
def builds():
    """Profile every ``build_die`` call; read the build rows after."""
    with profiled() as recorder:

        def count(phase: str) -> int:
            return sum(
                stat.count
                for stat in recorder.stats()
                if (stat.stage, stat.phase) == ("build", phase)
            )

        yield count


def die_fields(die: PipelineAdc) -> dict:
    """Everything construction freezes into a die, in comparable form."""
    bias = die.bias_report
    frontend = die._native_frontend
    return {
        "opamps": [stage.mdac.opamp.parameters for stage in die.stages],
        "mdacs": [dataclasses.replace(stage.mdac, opamp=None) for stage in die.stages],
        "ratio_errors": [stage.mdac.ratio_error for stage in die.stages],
        "offsets": [stage.subadc.offsets for stage in die.stages],
        "flash_offsets": die.flash.offsets,
        "bias": (
            bias.master_current,
            bias.stage_currents.tobytes(),
            bias.saturated,
            bias.supply_current,
        ),
        "frontend": (frontend[0].tobytes(), *frontend[1:]),
        "dac_capacitance": die.dac_capacitance,
        "timing": die.timing,
    }


class TestHitAndMiss:
    def test_identical_key_hits(self, paper_config, builds):
        """One key twice: two distinct dies on one template, equal codes."""
        first = die_cache.build_die(paper_config, 110e6, seed=7)
        second = die_cache.build_die(paper_config, 110e6, seed=7)
        assert second is not first
        assert second.template is first.template
        assert (builds("die-template"), builds("die")) == (1, 2)
        tone = SineGenerator.coherent(10e6, 110e6, 256, amplitude=0.9)
        assert np.array_equal(
            first.convert(tone, 256).codes, second.convert(tone, 256).codes
        )

    def test_default_point_matches_explicit_nominal(self, paper_config, builds):
        """None resolves to the nominal point — one template, not two."""
        nominal = OperatingPoint(technology=paper_config.technology)
        first = die_cache.build_die(paper_config, 110e6, None, seed=3)
        second = die_cache.build_die(paper_config, 110e6, nominal, seed=3)
        assert second.template is first.template
        assert builds("die-template") == 1

    def test_config_drift_misses(self, paper_config, builds):
        first = die_cache.build_die(paper_config, 110e6, seed=7)
        drifted = dataclasses.replace(paper_config, stage1_mirror_ratio=21.0)
        second = die_cache.build_die(drifted, 110e6, seed=7)
        assert second.template is not first.template
        assert builds("die-template") == 2

    def test_pvt_drift_misses(self, paper_config, hot_point):
        first = die_cache.build_die(paper_config, 110e6, seed=7)
        second = die_cache.build_die(paper_config, 110e6, hot_point, seed=7)
        assert second.template is not first.template

    def test_seed_drift_misses(self, paper_config, builds):
        """A new seed draws a new die on the shared template."""
        first = die_cache.build_die(paper_config, 110e6, seed=7)
        second = die_cache.build_die(paper_config, 110e6, seed=8)
        assert second.template is first.template
        assert die_fields(second)["ratio_errors"] != die_fields(first)["ratio_errors"]
        assert builds("die-template") == 1

    def test_rate_drift_misses(self, paper_config):
        first = die_cache.build_die(paper_config, 110e6, seed=7)
        second = die_cache.build_die(paper_config, 100e6, seed=7)
        assert second.template is not first.template


class TestBitExactness:
    def test_cached_die_converts_bit_exact(self, paper_config, hot_point):
        """A die on a cached template converts to a fresh die's codes, twice."""
        die_cache.build_die(paper_config, 110e6, hot_point, seed=4)
        cached = die_cache.build_die(paper_config, 110e6, hot_point, seed=5)
        fresh = PipelineAdc(
            paper_config, 110e6, operating_point=hot_point, seed=5
        )
        tone = SineGenerator.coherent(10e6, 110e6, 256, amplitude=0.9)
        expected = fresh.convert(tone, 256).codes
        assert np.array_equal(cached.convert(tone, 256).codes, expected)
        assert np.array_equal(cached.convert(tone, 256).codes, expected)

    def test_no_cross_key_leakage(self, paper_config):
        """Interleaved builds each get their own die."""
        a1 = die_cache.build_die(paper_config, 110e6, seed=1)
        die_cache.build_die(paper_config, 110e6, seed=2)
        ramp = np.linspace(-1.0, 1.0, 128)
        a1.convert_samples(ramp)
        a2 = die_cache.build_die(paper_config, 110e6, seed=1)
        assert np.array_equal(
            a2.convert_samples(ramp).codes,
            PipelineAdc(paper_config, 110e6, seed=1)
            .convert_samples(ramp)
            .codes,
        )


class TestLifecycle:
    def test_clear_drops_entries_and_counters(self, paper_config, builds):
        """clear() empties the cache; the build counters live in the profile.

        The cache keeps no counters of its own: the template builds it
        causes are profile rows, which a clear leaves alone, so the
        count goes on across it and the first build after it counts
        one more template build.
        """
        first = die_cache.build_die(paper_config, 110e6, seed=1)
        repeat = die_cache.build_die(paper_config, 110e6, seed=1)
        assert repeat.template is first.template
        assert (builds("die-template"), builds("die")) == (1, 2)
        die_cache.clear()
        assert (builds("die-template"), builds("die")) == (1, 2)
        rebuilt = die_cache.build_die(paper_config, 110e6, seed=1)
        assert rebuilt.template is not first.template
        assert (builds("die-template"), builds("die")) == (2, 3)
        assert die_fields(rebuilt) == die_fields(first)


class TestTemplates:
    def test_die_on_shared_template_equals_fresh(self, paper_config, hot_point):
        die_cache.build_die(paper_config, 110e6, hot_point, seed=4)
        shared = die_cache.build_die(paper_config, 110e6, hot_point, seed=5)
        assert shared.template is die_cache.build_die(
            paper_config, 110e6, hot_point, seed=4
        ).template
        fresh = PipelineAdc(paper_config, 110e6, hot_point, seed=5)
        assert shared.template is not fresh.template
        assert die_fields(shared) == die_fields(fresh)
        tone = SineGenerator.coherent(10e6, 110e6, 512, amplitude=0.9)
        assert np.array_equal(
            shared.convert(tone, 512).codes, fresh.convert(tone, 512).codes
        )

    def test_build_order_does_not_matter(self, paper_config, technology, builds):
        points = [
            OperatingPoint(technology=technology),
            OperatingPoint(
                technology=technology, corner=Corner.SS, temperature_c=125.0
            ),
            OperatingPoint(
                technology=technology, corner=Corner.FF, temperature_c=-40.0
            ),
        ]
        keys = [(point, seed) for point in points for seed in (1, 2, 3, 4)]

        def build(order):
            die_cache.clear()
            return {
                (point, seed): die_fields(
                    die_cache.build_die(paper_config, 110e6, point, seed)
                )
                for point, seed in order
            }

        in_order = build(keys)
        shuffled = list(keys)
        random.Random(0).shuffle(shuffled)
        assert build(shuffled) == in_order
        assert (builds("die-template"), builds("die")) == (6, 24)

    def test_profile_counts_template_builds(self, paper_config, hot_point, builds):
        for seed in (1, 2, 3):
            die_cache.build_die(paper_config, 110e6, seed=seed)
        die_cache.build_die(paper_config, 110e6, hot_point, seed=1)
        die_cache.build_die(paper_config, 110e6, seed=1)
        assert (builds("die-template"), builds("die")) == (2, 5)

    def test_clear_drops_templates(self, paper_config, builds):
        first = die_cache.build_die(paper_config, 110e6, seed=1)
        die_cache.clear()
        second = die_cache.build_die(paper_config, 110e6, seed=2)
        assert second.template is not first.template
        assert builds("die-template") == 2
        third = die_cache.build_die(paper_config, 110e6, seed=1)
        assert third.template is second.template
        assert builds("die-template") == 2

    def test_template_lru_bound(self, paper_config, technology, monkeypatch, builds):
        monkeypatch.setattr(die_cache, "MAX_CACHED_TEMPLATES", 2)
        temperatures = (-40.0, 27.0, 125.0)
        points = [
            OperatingPoint(technology=technology, temperature_c=t)
            for t in temperatures
        ]
        first = die_cache.build_die(paper_config, 110e6, points[0], seed=1)
        for point in points[1:]:  # the third point evicts the first
            die_cache.build_die(paper_config, 110e6, point, seed=1)
        kept = die_cache.build_die(paper_config, 110e6, points[2], seed=2)
        assert builds("die-template") == 3
        again = die_cache.build_die(paper_config, 110e6, points[0], seed=2)
        assert again.template is not first.template
        assert builds("die-template") == 4
        assert kept.template is not again.template

    def test_template_for_another_key_rejected(self, paper_config, hot_point):
        template = DieTemplate(paper_config, 110e6, hot_point)
        with pytest.raises(ConfigurationError, match="template"):
            PipelineAdc(paper_config, 110e6, seed=1, template=template)
        with pytest.raises(ConfigurationError, match="template"):
            PipelineAdc(paper_config, 100e6, hot_point, seed=1, template=template)
        die = PipelineAdc(paper_config, 110e6, hot_point, seed=1, template=template)
        assert die.template is template
