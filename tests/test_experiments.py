"""Tests for repro.experiments — every paper artifact regenerates and
its claims hold (quick mode)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.registry import (
    available_experiments,
    run_experiment,
)

FIGURE_IDS = ["fig4", "fig7", "fig8", "table1"]
SWEEP_IDS = ["fig5", "fig6"]
ABLATION_IDS = [
    "abl-scaling",
    "abl-nonoverlap",
    "abl-switch",
    "abl-bias",
    "abl-capspread",
]
EXTENSION_IDS = [
    "ext-calibration",
    "ext-noise-budget",
    "ext-corners",
    "ext-datasheet",
    "ext-amplitude",
]
SCENARIO_IDS = [
    "scenario-if",
    "scenario-ultrasound",
    "scenario-calibrated-yield",
    "scenario-pvt-signoff",
]


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = available_experiments()
        for expected in (
            FIGURE_IDS + SWEEP_IDS + ABLATION_IDS + EXTENSION_IDS + SCENARIO_IDS
        ):
            assert expected in ids

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")


@pytest.mark.parametrize("experiment_id", FIGURE_IDS)
def test_figure_experiments_pass(experiment_id):
    result = run_experiment(experiment_id, quick=True)
    assert result.rows, "experiment produced no rows"
    assert result.claims, "experiment checked no claims"
    failed = [c.claim for c in result.claims if not c.passed]
    assert not failed, f"{experiment_id} missed: {failed}"


@pytest.mark.parametrize("experiment_id", SWEEP_IDS)
def test_sweep_experiments_pass(experiment_id):
    result = run_experiment(experiment_id, quick=True)
    failed = [c.claim for c in result.claims if not c.passed]
    assert not failed, f"{experiment_id} missed: {failed}"


@pytest.mark.parametrize("experiment_id", ABLATION_IDS)
def test_ablation_experiments_pass(experiment_id):
    result = run_experiment(experiment_id, quick=True)
    failed = [c.claim for c in result.claims if not c.passed]
    assert not failed, f"{experiment_id} missed: {failed}"


@pytest.mark.parametrize("experiment_id", EXTENSION_IDS)
def test_extension_experiments_pass(experiment_id):
    result = run_experiment(experiment_id, quick=True)
    failed = [c.claim for c in result.claims if not c.passed]
    assert not failed, f"{experiment_id} missed: {failed}"


def test_calibrated_yield_scenario_passes():
    """The calibrated-yield screen in die chunks (quick mode): claims
    compare calibrated against uncalibrated INL/ENOB spread and yield."""
    result = run_experiment("scenario-calibrated-yield", quick=True)
    assert len(result.rows) == 2
    failed = [c.claim for c in result.claims if not c.passed]
    assert not failed, f"scenario-calibrated-yield missed: {failed}"


def test_pvt_signoff_scenario_passes():
    """The corner-batched sign-off campaign (quick mode): the grid's
    min/typ/max rollup and its datasheet-class claims."""
    result = run_experiment("scenario-pvt-signoff", quick=True)
    parameters = [row[0] for row in result.rows]
    assert "ENOB" in parameters
    failed = [c.claim for c in result.claims if not c.passed]
    assert not failed, f"scenario-pvt-signoff missed: {failed}"


def test_render_is_printable():
    result = run_experiment("fig4", quick=True)
    text = result.render()
    assert "fig4" in text
    assert "PASS" in text or "MISS" in text
