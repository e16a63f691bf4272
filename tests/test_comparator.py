"""Tests for repro.devices.comparator."""

import numpy as np
import pytest

from repro.devices.comparator import (
    _NOISE_CUT_SIGMA,
    ComparatorParameters,
    DynamicComparator,
    build_comparator_bank,
)
from repro.errors import ConfigurationError


def make(threshold=0.0, seed=0, **kwargs):
    return DynamicComparator(
        threshold, ComparatorParameters(**kwargs), np.random.default_rng(seed)
    )


class TestOffset:
    def test_offset_frozen_per_instance(self, rng):
        comp = make(offset_sigma=5e-3, seed=3)
        first = comp.offset
        comp.compare(np.zeros(10), rng)
        assert comp.offset == first

    def test_offset_statistics(self):
        offsets = [make(offset_sigma=8e-3, seed=s).offset for s in range(500)]
        assert abs(np.mean(offsets)) < 2e-3
        assert np.std(offsets) == pytest.approx(8e-3, rel=0.15)

    def test_zero_sigma_means_zero_offset(self):
        assert make(offset_sigma=0.0).offset == 0.0

    def test_effective_threshold(self):
        comp = make(threshold=0.25, offset_sigma=0.0)
        assert comp.effective_threshold == 0.25


class TestDecisions:
    def test_clean_decisions_without_impairments(self, rng):
        comp = make(
            offset_sigma=0.0,
            noise_rms=0.0,
            hysteresis=0.0,
            metastability_window=0.0,
        )
        v = np.array([-0.5, -0.01, 0.01, 0.5])
        assert list(comp.compare(v, rng)) == [False, False, True, True]

    def test_noise_randomizes_marginal_inputs(self, rng):
        comp = make(offset_sigma=0.0, noise_rms=5e-3, metastability_window=0.0)
        v = np.zeros(4000)
        decisions = comp.compare(v, rng)
        rate = decisions.mean()
        assert 0.4 < rate < 0.6

    def test_noise_does_not_flip_solid_inputs(self, rng):
        comp = make(offset_sigma=0.0, noise_rms=1e-3, metastability_window=0.0)
        assert comp.compare(np.full(1000, 0.1), rng).all()
        assert not comp.compare(np.full(1000, -0.1), rng).any()

    def test_hysteresis_biases_toward_history(self, rng):
        comp = make(
            offset_sigma=0.0,
            noise_rms=0.0,
            hysteresis=10e-3,
            metastability_window=0.0,
        )
        v = np.full(4, 5e-3)  # inside the hysteresis band
        held_high = comp.compare(v, rng, previous=np.array([True] * 4))
        held_low = comp.compare(v, rng, previous=np.array([False] * 4))
        assert held_high.all()
        assert not held_low.any()

    def test_hysteresis_shape_mismatch_rejected(self, rng):
        comp = make(hysteresis=1e-3)
        with pytest.raises(ConfigurationError):
            comp.compare(np.zeros(4), rng, previous=np.zeros(3, dtype=bool))

    def test_metastability_randomizes_tiny_margins(self, rng):
        comp = make(
            offset_sigma=0.0, noise_rms=0.0, metastability_window=1e-3
        )
        v = np.full(2000, 0.5e-3)  # inside the window, above threshold
        rate = comp.compare(v, rng).mean()
        assert 0.35 < rate < 0.65


def dense_compare(comparator, v, rng):
    """Reference: the near band as a boolean mask over the whole row."""
    p = comparator.parameters
    margin = v - comparator.effective_threshold
    near = np.abs(margin) < _NOISE_CUT_SIGMA * p.noise_rms + p.metastability_window
    margin[near] += rng.normal(0.0, p.noise_rms, size=np.count_nonzero(near))
    decisions = margin > 0
    metastable = np.abs(margin) < p.metastability_window
    decisions[metastable] = rng.random(size=np.count_nonzero(metastable)) < 0.5
    return decisions


class TestSparseDraws:
    """The flat-index compare consumes the stream as a dense reference."""

    PARAMETERS = dict(offset_sigma=1e-3, noise_rms=0.4e-3, metastability_window=2e-4)

    @staticmethod
    def inputs(rows):
        rng = np.random.default_rng(21)
        return rng.uniform(-6e-3, 6e-3, (rows, 2000))

    def test_generator_matches_dense_reference(self):
        comp = make(**self.PARAMETERS)
        v = self.inputs(1)[0]
        sparse_rng, dense_rng = np.random.default_rng(4), np.random.default_rng(4)
        sparse = comp.compare(v, sparse_rng)
        dense = dense_compare(comp, v, dense_rng)
        assert np.array_equal(sparse, dense)
        assert sparse_rng.bit_generator.state == dense_rng.bit_generator.state


class TestBank:
    def test_bank_order_and_count(self):
        bank = build_comparator_bank(
            [-0.25, 0.25], ComparatorParameters(), np.random.default_rng(0)
        )
        assert len(bank) == 2
        assert bank[0].threshold < bank[1].threshold

    def test_bank_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            build_comparator_bank(
                [0.25, -0.25], ComparatorParameters(), np.random.default_rng(0)
            )

    def test_bank_offsets_independent(self):
        bank = build_comparator_bank(
            [-0.25, 0.25],
            ComparatorParameters(offset_sigma=8e-3),
            np.random.default_rng(5),
        )
        assert bank[0].offset != bank[1].offset

    def test_parameters_reject_negative(self):
        with pytest.raises(ConfigurationError):
            ComparatorParameters(noise_rms=-1.0)
