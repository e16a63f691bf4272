"""The profiling layer: transparency, accounting identity, report schema.

The instrumentation's contract has three legs (see the
``repro.profiling`` module docstring): disabled mode is free and
invisible, enabled mode never changes an output code, and the
exclusive times of the recorded stages partition the profiled wall
time exactly.  These tests pin all three plus the ``repro profile``
surface.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.adc import PipelineAdc
from repro.core.adc_array import AdcArray
from repro.core.config import AdcConfig
from repro.native import chain as native_chain
from repro.profiling import (
    OVERLAY_STAGES,
    ProfileRecorder,
    active,
    profile_step,
    profiled,
    record,
)
from repro.runtime.profiling import (
    PROFILE_REPORT_SCHEMA,
    WORKLOADS,
    profile_workload,
)
from repro.runtime.montecarlo import default_sampler
from repro.signal.generators import SineGenerator

RATE = 110e6


def _chain_stages() -> set:
    """The profile stages a serial conversion's stage chain records."""
    if native_chain.status() == "native":
        return {"chain"}
    return {"subadc", "mdac"}


def _tone(n):
    return SineGenerator.coherent(10e6, RATE, n, amplitude=0.995)


class TestTransparency:
    """Profiling on/off is invisible in every output."""

    def test_disabled_by_default(self):
        assert active() is None

    def test_codes_bit_exact_with_profiling_enabled(self):
        config = AdcConfig.paper_default()
        n = 256
        baseline = PipelineAdc(config, RATE, seed=7).convert(_tone(n), n)
        with profiled() as recorder:
            profiled_run = PipelineAdc(config, RATE, seed=7).convert(
                _tone(n), n
            )
        assert active() is None  # scope restored
        np.testing.assert_array_equal(baseline.codes, profiled_run.codes)
        np.testing.assert_array_equal(
            baseline.sample_times, profiled_run.sample_times
        )
        # ...and the profiled run actually recorded the engine stages:
        # the compiled chain's rows, or numpy's per-block ones.
        stages = {stat.stage for stat in recorder.stats()}
        assert {"build", "sample", "noise-draw", *_chain_stages()} <= stages

    def test_array_codes_bit_exact_with_profiling_enabled(self):
        config = AdcConfig.paper_default()
        dies = default_sampler(config).sample(3, np.random.default_rng(5))
        n = 256
        baseline = AdcArray(config, RATE, dies).convert(_tone(n), n)
        with profiled():
            profiled_run = AdcArray(config, RATE, dies).convert(_tone(n), n)
        np.testing.assert_array_equal(baseline.codes, profiled_run.codes)

    def test_record_is_noop_when_disabled(self):
        with record("mdac", "settle"):
            pass
        assert active() is None

    def test_profile_step_passthrough_when_disabled(self):
        @profile_step("task", "unit")
        def work(x):
            return x + 1

        assert work(1) == 2
        with profiled() as recorder:
            assert work(2) == 3
        assert recorder.total_s("task", "unit") >= 0.0
        assert recorder.stats()[0].count == 1


class TestAccounting:
    """Exclusive times partition the run exactly."""

    def test_self_times_sum_to_root_total(self):
        config = AdcConfig.paper_default()
        n = 512
        with profiled() as recorder:
            with recorder.record("run", "unit"):
                PipelineAdc(config, RATE, seed=3).convert(_tone(n), n)
        total = recorder.total_s("run", "unit")
        partition = sum(
            stat.self_s
            for stat in recorder.stats()
            if stat.stage not in OVERLAY_STAGES
        )
        # The identity is exact by construction (self = total - children
        # at every frame); the tolerance only absorbs float summation.
        assert partition == pytest.approx(total, rel=1e-9)
        # Inclusive >= exclusive for a stage with children (the jitter
        # draw runs inside the stimulus).
        stimulus = next(
            s
            for s in recorder.stats()
            if (s.stage, s.phase) == ("sample", "stimulus")
        )
        assert stimulus.total_s > stimulus.self_s > 0.0

    def test_add_folds_entries(self):
        recorder = ProfileRecorder()
        recorder.add("dispatch", "fn", 0.5, count=2)
        recorder.add("dispatch", "fn", 0.25)
        (stat,) = recorder.stats()
        assert stat.count == 3
        assert stat.total_s == pytest.approx(0.75)
        assert stat.self_s == pytest.approx(0.75)


class TestProfileWorkload:
    """The repro profile workloads and report document."""

    def test_dynamic_screen_report(self):
        report = profile_workload("dynamic-screen", dies=2, fft_points=256)
        assert report.workload == "dynamic-screen"
        assert report.n_items == 2
        # The run converts die by die, on the compiled chain when it is
        # loaded, through the campaign's one measure path.
        native = native_chain.status() == "native"
        row = ("chain", "native") if native else ("mdac", "settle")
        assert report.wall_s > 0
        assert report.stat(*row) is not None
        assert report.stat("task", "measure-cell-chunk").count == 1
        # The partition never exceeds the run it partitions.
        assert 0 < report.attributed_fraction() <= 1.0 + 1e-9
        rendered = report.render()
        assert row[0] in rendered and "noise-draw" in rendered
        assert "attributed to named stages" in rendered
        # One status line for the one compiled library ends the report.
        assert rendered.splitlines()[-1] == f"stage chain: {native_chain.status()}"

    def test_yield_screen_runs_the_mc_default_engine(self):
        # repro mc's pool engine: one task per die.
        report = profile_workload("yield-screen", dies=2, fft_points=256)
        assert report.n_items == 2
        assert report.stat("task", "measure-die").count == 2

    def test_report_json_document_stable(self):
        report = profile_workload("dynamic-screen", dies=1, fft_points=256)
        document = json.loads(json.dumps(report.to_dict()))
        assert document["schema"] == PROFILE_REPORT_SCHEMA
        assert document["workload"] in WORKLOADS
        assert document["n_items"] == 1
        assert document["fft_points"] == 256
        assert document["stage_chain"] == native_chain.status()
        assert document.keys() == {
            "schema",
            "workload",
            "n_items",
            "fft_points",
            "wall_s",
            "item_wall_s",
            "attributed_fraction",
            "stage_shares",
            "entries",
            "stage_chain",
        }
        assert "run" not in document["stage_shares"]
        assert not OVERLAY_STAGES & document["stage_shares"].keys()

    def test_unknown_inputs_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            profile_workload("nope")
        with pytest.raises(ConfigurationError):
            profile_workload("dynamic-screen", dies=0)


class TestProfileCli:
    """repro profile through the real CLI entry point."""

    def test_profile_smoke(self, capsys, tmp_path):
        out = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "dynamic-screen",
                "--dies",
                "1",
                "--fft-points",
                "256",
                "--json",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "repro profile: dynamic-screen" in captured.out
        document = json.loads(out.read_text())
        assert document["schema"] == PROFILE_REPORT_SCHEMA

    def test_profile_rejects_bad_workload(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile", "nope"])
        assert "invalid choice" in capsys.readouterr().err

    def test_profile_unwritable_json_exits_2(self, capsys, tmp_path):
        code = main(
            [
                "profile",
                "dynamic-screen",
                "--dies",
                "1",
                "--fft-points",
                "256",
                "--json",
                str(tmp_path / "missing-dir" / "p.json"),
            ]
        )
        assert code == 2
