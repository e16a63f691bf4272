"""Tests for the opt-in ``precision="fast"`` tier.

The contract: the fast tier is never bit-exact (it folds the per-stage
sampling and opamp draws into one output-referred draw, so it consumes
different stream values), but every population-level metric must agree
with the exact engines within documented statistical tolerances.  The
tier is vectorized-only, deterministic for a given seed, and part of a
campaign's fingerprint so fast ledgers never resume exact campaigns.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.adc_array import PRECISION_TIERS, AdcArray
from repro.errors import ConfigurationError
from repro.runtime.campaign import CampaignSpec, run_campaign
from repro.runtime.montecarlo import default_sampler, run_yield_analysis

#: Tolerances of the statistical-equivalence gate (this module is where
#: the gate lives): 2% relative (~1.3 dB on SNDR, ~0.2 bit on ENOB) plus
#: LSB-scale absolute slack for DNL/INL realization noise.
REL_TOL = 0.02
ABS_TOL = 0.35


@pytest.fixture(scope="module")
def die_population(paper_config):
    return default_sampler(paper_config).sample(3, np.random.default_rng(9))


class TestValidation:
    def test_precision_tiers_constant(self):
        assert PRECISION_TIERS == ("exact", "fast")

    def test_array_rejects_unknown_tier(self, paper_config, die_population):
        with pytest.raises(ConfigurationError):
            AdcArray(
                paper_config, 110e6, die_population, precision="float16"
            )

    def test_yield_rejects_unknown_tier(self):
        with pytest.raises(ConfigurationError):
            run_yield_analysis(n_dies=2, n_fft=256, precision="float16")

    def test_fast_requires_vectorized_engine(self):
        with pytest.raises(ConfigurationError):
            run_yield_analysis(
                n_dies=2, n_fft=256, engine="pool", precision="fast"
            )

    def test_campaign_spec_rejects_unknown_tier(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(n_dies=1, precision="float16")

    def test_campaign_fast_requires_vectorized_engine(self):
        spec = CampaignSpec(
            n_dies=1,
            corners=("TT",),
            temperatures_c=(27.0,),
            n_samples=256,
            precision="fast",
        )
        with pytest.raises(ConfigurationError):
            run_campaign(spec, engine="pool", workers=1)


class TestFingerprint:
    def test_precision_is_part_of_fingerprint(self, paper_config):
        exact = CampaignSpec(n_dies=2).fingerprint(paper_config)
        fast = CampaignSpec(n_dies=2, precision="fast").fingerprint(
            paper_config
        )
        assert exact != fast

    def test_record_threshold_is_not(self, paper_config):
        """The per-die threshold is an execution heuristic, not physics."""
        spec = CampaignSpec(n_dies=2)
        overridden = dataclasses.replace(
            paper_config, per_die_record_threshold=64
        )
        assert spec.fingerprint(paper_config) == spec.fingerprint(overridden)


class TestDeterminism:
    def test_fast_codes_replay(self, paper_config, die_population):
        """Same seeds -> identical fast-tier codes, run to run."""
        ramp = np.linspace(-1.0, 1.0, 512)
        first = AdcArray(
            paper_config, 110e6, die_population, precision="fast"
        ).convert_samples(ramp)
        second = AdcArray(
            paper_config, 110e6, die_population, precision="fast"
        ).convert_samples(ramp)
        assert np.array_equal(first.codes, second.codes)

    def test_fast_batch_size_invariance(self, paper_config, die_population):
        """A die's fast codes do not depend on its batch neighbours."""
        ramp = np.linspace(-1.0, 1.0, 512)
        full = AdcArray(
            paper_config, 110e6, die_population, precision="fast"
        ).convert_samples(ramp)
        solo = AdcArray(
            paper_config, 110e6, die_population[1:2], precision="fast"
        ).convert_samples(ramp)
        assert np.array_equal(full.codes[1], solo.codes[0])

    def test_fast_record_threshold_both_sides_bit_exact(
        self, paper_config, die_population
    ):
        """Blocked and per-die execution agree bitwise in the fast tier
        too — the stage arithmetic is elementwise either way."""
        ramp = np.linspace(-1.0, 1.0, 512)
        blocked = AdcArray(
            dataclasses.replace(
                paper_config, per_die_record_threshold=100_000
            ),
            110e6,
            die_population,
            precision="fast",
        ).convert_samples(ramp)
        per_die = AdcArray(
            dataclasses.replace(paper_config, per_die_record_threshold=64),
            110e6,
            die_population,
            precision="fast",
        ).convert_samples(ramp)
        assert np.array_equal(blocked.codes, per_die.codes)

    def test_fast_differs_from_exact(self, paper_config, die_population):
        """Fast is a different stream consumer — never bitwise exact."""
        ramp = np.linspace(-1.0, 1.0, 512)
        exact = AdcArray(
            paper_config, 110e6, die_population
        ).convert_samples(ramp)
        fast = AdcArray(
            paper_config, 110e6, die_population, precision="fast"
        ).convert_samples(ramp)
        assert not np.array_equal(exact.codes, fast.codes)


class TestStatisticalEquivalence:
    YIELD_KWARGS = dict(
        n_dies=3,
        seed=17,
        n_fft=1024,
        ramp_points_per_code=16,
        engine="vectorized",
    )

    @pytest.fixture(scope="class")
    def reports(self):
        return (
            run_yield_analysis(**self.YIELD_KWARGS),
            run_yield_analysis(**self.YIELD_KWARGS, precision="fast"),
        )

    @staticmethod
    def assert_close(exact_rows, fast_rows, metrics):
        assert len(exact_rows) == len(fast_rows)
        for e, f in zip(exact_rows, fast_rows):
            assert e.index == f.index
            for metric in metrics:
                assert math.isclose(
                    getattr(e, metric),
                    getattr(f, metric),
                    rel_tol=REL_TOL,
                    abs_tol=ABS_TOL,
                ), (metric, e.index)

    def test_per_die_metrics_within_tolerance(self, reports):
        exact, fast = reports
        self.assert_close(
            exact.dies, fast.dies, ("sndr_db", "enob_bits", "dnl_peak_lsb")
        )

    def test_calibrated_per_die_metrics_within_tolerance(self):
        exact = run_yield_analysis(**self.YIELD_KWARGS, calibrate=True)
        fast = run_yield_analysis(
            **self.YIELD_KWARGS, calibrate=True, precision="fast"
        )
        self.assert_close(
            exact.dies,
            fast.dies,
            ("sndr_db", "enob_bits", "dnl_peak_lsb", "inl_peak_lsb"),
        )

    def test_campaign_cell_metrics_within_tolerance(self):
        def cells(precision):
            spec = CampaignSpec(n_dies=1, n_samples=1024, precision=precision)
            report = run_campaign(spec, engine="vectorized")
            report.batch.raise_first_failure()
            return sorted(report.cells, key=lambda cell: cell.index)

        exact, fast = cells("exact"), cells("fast")
        assert len(exact) == 15
        self.assert_close(
            exact, fast, ("snr_db", "sndr_db", "sfdr_db", "enob_bits")
        )

    def test_report_carries_tier(self, reports):
        exact, fast = reports
        assert exact.precision == "exact"
        assert fast.precision == "fast"
        assert fast.to_dict()["precision"] == "fast"
        assert "fast-precision" in fast.render()
        assert "fast-precision" not in exact.render()
