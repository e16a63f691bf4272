"""Tests for repro.core.die_cache — the content-addressed die cache.

The contract: :func:`build_die` is a drop-in for the ``PipelineAdc``
constructor.  A hit returns the previously built instance (observable
only as saved wall time), a key that differs in any component —
config, conversion rate, PVT point, die seed — misses and builds
fresh, and a cached die's conversions stay bit-exact with an uncached
construction.  A miss builds on the cached :class:`DieTemplate` of its
(config, rate, PVT point), and that die equals a fresh one field by
field.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.core import die_cache
from repro.core.adc import DieTemplate, PipelineAdc
from repro.errors import ConfigurationError
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


class TestHitAndMiss:
    def test_identical_key_hits(self, paper_config):
        first = die_cache.build_die(paper_config, 110e6, seed=7)
        second = die_cache.build_die(paper_config, 110e6, seed=7)
        assert second is first
        stats = die_cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.lookups == 2

    def test_default_point_matches_explicit_nominal(self, paper_config):
        """None resolves to the nominal point — one cache entry, not two."""
        nominal = OperatingPoint(technology=paper_config.technology)
        first = die_cache.build_die(paper_config, 110e6, None, seed=3)
        second = die_cache.build_die(paper_config, 110e6, nominal, seed=3)
        assert second is first

    def test_config_drift_misses(self, paper_config):
        first = die_cache.build_die(paper_config, 110e6, seed=7)
        drifted = dataclasses.replace(paper_config, stage1_mirror_ratio=21.0)
        second = die_cache.build_die(drifted, 110e6, seed=7)
        assert second is not first
        assert die_cache.stats().misses == 2

    def test_pvt_drift_misses(self, paper_config, hot_point):
        first = die_cache.build_die(paper_config, 110e6, seed=7)
        second = die_cache.build_die(paper_config, 110e6, hot_point, seed=7)
        assert second is not first

    def test_seed_drift_misses(self, paper_config):
        first = die_cache.build_die(paper_config, 110e6, seed=7)
        second = die_cache.build_die(paper_config, 110e6, seed=8)
        assert second is not first

    def test_rate_drift_misses(self, paper_config):
        first = die_cache.build_die(paper_config, 110e6, seed=7)
        second = die_cache.build_die(paper_config, 100e6, seed=7)
        assert second is not first


class TestBitExactness:
    def test_cached_die_converts_bit_exact(self, paper_config, hot_point):
        """A reused die produces the codes a fresh construction would."""
        cached = die_cache.build_die(paper_config, 110e6, hot_point, seed=5)
        cached = die_cache.build_die(paper_config, 110e6, hot_point, seed=5)
        fresh = PipelineAdc(
            paper_config, 110e6, operating_point=hot_point, seed=5
        )
        tone = SineGenerator.coherent(10e6, 110e6, 256, amplitude=0.9)
        assert np.array_equal(
            cached.convert(tone, 256).codes, fresh.convert(tone, 256).codes
        )

    def test_no_cross_key_leakage(self, paper_config):
        """Interleaved campaigns each get their own die back."""
        a1 = die_cache.build_die(paper_config, 110e6, seed=1)
        b1 = die_cache.build_die(paper_config, 110e6, seed=2)
        a2 = die_cache.build_die(paper_config, 110e6, seed=1)
        b2 = die_cache.build_die(paper_config, 110e6, seed=2)
        assert a2 is a1 and b2 is b1 and a1 is not b1
        ramp = np.linspace(-1.0, 1.0, 128)
        assert np.array_equal(
            a2.convert_samples(ramp).codes,
            PipelineAdc(paper_config, 110e6, seed=1)
            .convert_samples(ramp)
            .codes,
        )


class TestLifecycle:
    def test_clear_drops_entries_and_counters(self, paper_config):
        die_cache.build_die(paper_config, 110e6, seed=1)
        die_cache.build_die(paper_config, 110e6, seed=1)
        die_cache.clear()
        stats = die_cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        die_cache.build_die(paper_config, 110e6, seed=1)
        assert die_cache.stats().misses == 1

    def test_lru_bound_evicts_oldest(self, paper_config, monkeypatch):
        monkeypatch.setattr(die_cache, "MAX_CACHED_DIES", 2)
        first = die_cache.build_die(paper_config, 110e6, seed=1)
        die_cache.build_die(paper_config, 110e6, seed=2)
        die_cache.build_die(paper_config, 110e6, seed=3)  # evicts seed=1
        assert die_cache.stats().size == 2
        again = die_cache.build_die(paper_config, 110e6, seed=1)
        assert again is not first


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

    def test_build_order_does_not_matter(self, paper_config, technology):
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
        stats = die_cache.stats()
        assert (stats.template_misses, stats.template_hits) == (3, 9)

    def test_stats_count_template_hits_and_misses(self, paper_config, hot_point):
        for seed in (1, 2, 3):
            die_cache.build_die(paper_config, 110e6, seed=seed)
        die_cache.build_die(paper_config, 110e6, hot_point, seed=1)
        die_cache.build_die(paper_config, 110e6, seed=1)  # a die hit
        stats = die_cache.stats()
        assert (stats.template_hits, stats.template_misses) == (2, 2)
        assert (stats.hits, stats.misses, stats.templates) == (1, 4, 2)

    def test_clear_drops_templates(self, paper_config):
        first = die_cache.build_die(paper_config, 110e6, seed=1)
        die_cache.clear()
        stats = die_cache.stats()
        assert stats.templates == stats.template_hits == stats.template_misses == 0
        second = die_cache.build_die(paper_config, 110e6, seed=2)
        assert second.template is not first.template
        assert die_cache.stats().template_misses == 1

    def test_template_lru_bound(self, paper_config, technology, monkeypatch):
        monkeypatch.setattr(die_cache, "MAX_CACHED_TEMPLATES", 2)
        temperatures = (-40.0, 27.0, 125.0)
        points = [
            OperatingPoint(technology=technology, temperature_c=t)
            for t in temperatures
        ]
        first = die_cache.build_die(paper_config, 110e6, points[0], seed=1)
        for point in points[1:]:  # the third point evicts the first
            die_cache.build_die(paper_config, 110e6, point, seed=1)
        assert die_cache.stats().templates == 2
        again = die_cache.build_die(paper_config, 110e6, points[0], seed=2)
        assert again.template is not first.template
        assert die_cache.stats().template_misses == 4

    def test_template_for_another_key_rejected(self, paper_config, hot_point):
        template = DieTemplate(paper_config, 110e6, hot_point)
        with pytest.raises(ConfigurationError, match="template"):
            PipelineAdc(paper_config, 110e6, seed=1, template=template)
        with pytest.raises(ConfigurationError, match="template"):
            PipelineAdc(paper_config, 100e6, hot_point, seed=1, template=template)
        die = PipelineAdc(paper_config, 110e6, hot_point, seed=1, template=template)
        assert die.template is template
