"""Tests for the gap-driven dispatcher and the cell-store hygiene CLI.

The load-bearing contracts:

* **Convergence** — a dispatch whose shards all complete, and one whose
  shard is SIGKILLed mid-run, both end with the merged grid complete
  and bit-identical to the single-process campaign.
* **The merge is the source of truth** — a killed shard's completed
  cells are kept; only the actual gaps are re-dispatched, as coalesced
  contiguous ranges.
* **Determinism of decisions** — range planning is a pure function of
  the missing cells.
* **Bounded failure** — the per-cell retry budget turns a persistent
  failure into an exhausted, incomplete report (CLI exit 1), never an
  endless loop.
* **Fork hygiene** — a shard forked from a parent with a warm die
  cache and any :class:`AdcConfig` measures exactly what a single
  process does, and nothing it prints reaches the dispatcher's streams.
* **Store hygiene** — stats/verify/prune sweep correctly, quarantine
  preserves damaged entries, and entries vanishing mid-sweep degrade
  to misses, never tracebacks.
"""

import dataclasses
import json
import os
import sys

import pytest

from repro.core import die_cache
from repro.core.config import AdcConfig
from repro.errors import ConfigurationError
from repro.profiling import profiled
from repro.runtime import dispatcher as dispatcher_module
from repro.runtime.campaign import CampaignLedger, CampaignSpec, run_campaign
from repro.runtime.cell_store import QUARANTINE_DIR, CellStore
from repro.runtime.dispatcher import (
    CampaignDispatcher,
    parse_fault_kill,
)
from repro.runtime.shards import coalesce_cell_ranges, merge_campaign_ledgers
from repro.technology.corners import Corner

SMALL = dict(
    corners=(Corner.TT, Corner.SS),
    temperatures_c=(27.0, 125.0),
    n_dies=2,
    seed=99,
    n_samples=512,
)


@pytest.fixture(scope="module")
def small_spec():
    return CampaignSpec(**SMALL)


@pytest.fixture(scope="module")
def single_report(small_spec):
    return run_campaign(small_spec, engine="vectorized")


class TestCoalesce:
    def test_empty(self):
        assert coalesce_cell_ranges([]) == ()

    def test_singleton(self):
        assert coalesce_cell_ranges([4]) == ((4, 5),)

    def test_adjacent_runs_fuse(self):
        assert coalesce_cell_ranges([3, 4, 5, 9, 11, 12]) == (
            (3, 6),
            (9, 10),
            (11, 13),
        )

    def test_order_and_duplicates_ignored(self):
        assert coalesce_cell_ranges([5, 3, 4, 4, 3]) == ((3, 6),)

    def test_full_grid(self):
        assert coalesce_cell_ranges(range(8)) == ((0, 8),)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            coalesce_cell_ranges([2, -1])


class TestPlanRanges:
    def test_full_grid_matches_shard_planning(self, small_spec, tmp_path):
        dispatcher = CampaignDispatcher(
            small_spec, shards=3, work_dir=tmp_path
        )
        planned = dispatcher.plan_ranges(tuple(range(small_spec.n_cells)))
        assert planned == small_spec.shards(3)

    def test_partial_gap_splits_widest_range(self, small_spec, tmp_path):
        dispatcher = CampaignDispatcher(
            small_spec, shards=3, work_dir=tmp_path
        )
        # One wide gap plus one singleton: the wide one splits until
        # three units of work exist.
        planned = dispatcher.plan_ranges((1, 2, 3, 4, 7))
        assert planned == ((1, 3), (3, 5), (7, 8))

    def test_never_splits_below_one_cell(self, small_spec, tmp_path):
        dispatcher = CampaignDispatcher(
            small_spec, shards=4, work_dir=tmp_path
        )
        assert dispatcher.plan_ranges((5,)) == ((5, 6),)

    def test_empty_missing_plans_nothing(self, small_spec, tmp_path):
        dispatcher = CampaignDispatcher(
            small_spec, shards=2, work_dir=tmp_path
        )
        assert dispatcher.plan_ranges(()) == ()


class TestFaultParsing:
    def test_absent(self):
        assert parse_fault_kill(None) is None
        assert parse_fault_kill("") is None

    def test_position_only(self):
        assert parse_fault_kill("1") == (1, 0)

    def test_position_and_cells(self):
        assert parse_fault_kill("2:3") == (2, 3)

    @pytest.mark.parametrize("bad", ["x", "1:y", "-1", "1:-2"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="POSITION"):
            parse_fault_kill(bad)


class TestDispatcherValidation:
    def test_bad_shards(self, small_spec, tmp_path):
        with pytest.raises(ConfigurationError, match="shard"):
            CampaignDispatcher(small_spec, shards=0, work_dir=tmp_path)

    def test_bad_retries(self, small_spec, tmp_path):
        with pytest.raises(ConfigurationError, match="max_retries"):
            CampaignDispatcher(
                small_spec, shards=2, work_dir=tmp_path, max_retries=-1
            )

    def test_bad_timeout(self, small_spec, tmp_path):
        with pytest.raises(ConfigurationError, match="timeout"):
            CampaignDispatcher(
                small_spec, shards=2, work_dir=tmp_path, timeout_s=0.0
            )

    @pytest.mark.parametrize("poll", [0.0, -1.0])
    def test_bad_poll_interval(self, small_spec, tmp_path, poll):
        # A non-positive poll would busy-spin the wave loop.
        with pytest.raises(ConfigurationError, match="poll_interval_s"):
            CampaignDispatcher(
                small_spec, shards=2, work_dir=tmp_path, poll_interval_s=poll
            )

    def test_bad_engine(self, small_spec, tmp_path):
        with pytest.raises(ConfigurationError, match="engine"):
            CampaignDispatcher(
                small_spec, shards=2, work_dir=tmp_path, engine="turbo"
            )

    def test_bad_workers_rejected_before_any_shard(
        self, small_spec, tmp_path, monkeypatch
    ):
        def no_fork(*args, **kwargs):
            raise AssertionError("a shard process was started")

        monkeypatch.setattr(dispatcher_module.multiprocessing, "get_context", no_fork)
        work = tmp_path / "work"
        with pytest.raises(ConfigurationError, match="workers"):
            CampaignDispatcher(small_spec, shards=2, work_dir=work, workers=0).run()
        assert not work.exists()

    def test_shards_clamped_to_grid(self, small_spec, tmp_path):
        dispatcher = CampaignDispatcher(
            small_spec, shards=99, work_dir=tmp_path
        )
        assert dispatcher.shards == small_spec.n_cells


class TestDispatchEndToEnd:
    @pytest.fixture(scope="class")
    def dispatched(self, small_spec, tmp_path_factory):
        work = tmp_path_factory.mktemp("dispatch")
        dispatcher = CampaignDispatcher(
            small_spec,
            shards=3,
            work_dir=work,
            engine="pool",
        )
        return work, dispatcher.run()

    def test_completes_in_one_round(self, dispatched):
        _, report = dispatched
        assert report.complete and not report.exhausted
        assert report.rounds == 1
        assert len(report.attempts) == 3
        assert report.redispatched_ranges == ()
        assert all(a.exit_code == 0 for a in report.attempts)

    def test_bit_identical_to_single_process(self, dispatched, single_report):
        _, report = dispatched
        assert report.report.cells == single_report.cells

    def test_out_ledger_resumable(self, dispatched, small_spec, tmp_path):
        work, report = dispatched
        merged = tmp_path / "merged.jsonl"
        merge_campaign_ledgers(sorted(work.glob("range-*.jsonl")), out_ledger=merged)
        resumed = run_campaign(small_spec, ledger_path=merged, resume=True)
        assert resumed.resumed_cells == small_spec.n_cells
        assert resumed.cells == report.report.cells

    def test_report_document(self, dispatched):
        _, report = dispatched
        document = json.loads(json.dumps(report.to_dict()))
        assert document["schema"] == "repro.dispatch-report/v2"
        assert document["complete"] is True
        assert document["missing_cells"] == []
        assert len(document["attempts"]) == 3
        assert document["campaign"]["n_complete"] == 8

    def test_rerun_resumes_and_launches_nothing(self, dispatched, small_spec):
        work, _ = dispatched
        rerun = CampaignDispatcher(
            small_spec, shards=3, work_dir=work
        ).run()
        assert rerun.complete
        assert rerun.rounds == 0
        assert rerun.attempts == ()
        assert rerun.resumed_cells == small_spec.n_cells


class TestDispatchRecovery:
    def test_killed_shard_recovers_through_gap_redispatch(
        self, small_spec, tmp_path, single_report
    ):
        dispatcher = CampaignDispatcher(
            small_spec,
            shards=3,
            work_dir=tmp_path,
            engine="pool",
            poll_interval_s=0.01,
            fault_kill=(1, 1),
        )
        report = dispatcher.run()
        assert report.complete
        assert report.rounds >= 2
        killed = [a for a in report.attempts if a.fault_injected]
        assert len(killed) == 1
        assert killed[0].exit_code == -9
        # The shard killed itself right after its first recorded cell.
        assert len(CampaignLedger(killed[0].ledger).read().records) == 1
        assert report.redispatched_ranges
        # Re-dispatched ranges stay inside the killed shard's range.
        start, stop = killed[0].start, killed[0].stop
        for low, high in report.redispatched_ranges:
            assert start <= low < high <= stop
        # And the recovered grid is still the single-process grid.
        assert report.report.cells == single_report.cells

    def test_retry_exhaustion_is_bounded_and_reported(
        self, small_spec, tmp_path
    ):
        dispatcher = CampaignDispatcher(
            small_spec,
            shards=3,
            work_dir=tmp_path,
            engine="pool",
            max_retries=0,
            poll_interval_s=0.01,
            fault_kill=(0, 0),
        )
        report = dispatcher.run()
        assert not report.complete
        assert report.exhausted
        assert report.rounds == 1
        assert report.missing_cells
        # The surviving shards' cells are kept: the merge, not the
        # failure, decides what remains.
        assert len(report.report.cells) == (
            small_spec.n_cells - len(report.missing_cells)
        )
        assert "EXHAUSTED" in report.render()

    def test_timeout_kills_and_flags(self, tmp_path):
        # Each 16-cell shard of this grid takes about 0.9 s (18x the
        # timeout) on a 2-CPU host, and its first 8-cell batch alone
        # about 0.45 s, so every shard is killed before it records a
        # cell.  The kill comes within one poll, so the test stays fast.
        long_spec = CampaignSpec(
            **{**SMALL, "n_dies": 8, "n_samples": 65536}
        )
        dispatcher = CampaignDispatcher(
            long_spec,
            shards=2,
            work_dir=tmp_path,
            max_retries=0,
            timeout_s=0.05,
        )
        report = dispatcher.run()
        assert not report.complete
        assert report.exhausted
        assert all(a.timed_out for a in report.attempts)
        assert all(a.exit_code == -9 for a in report.attempts)
        # Zero completed cells must still render.
        assert "EXHAUSTED" in report.render()

    def test_resume_from_externally_run_shards(self, small_spec, tmp_path):
        # Shards run by hand (no dispatcher) land in the work dir; the
        # dispatcher picks them up and only runs what is missing —
        # here, nothing.
        for start, stop in ((0, 4), (4, 8)):
            run_campaign(
                small_spec,
                cell_range=(start, stop),
                ledger_path=tmp_path / f"range-{start:06d}-{stop:06d}.jsonl",
            )
        report = CampaignDispatcher(
            small_spec, shards=2, work_dir=tmp_path
        ).run()
        assert report.complete
        assert report.attempts == ()
        assert report.resumed_cells == small_spec.n_cells

    def test_unreadable_ledger_is_reported_and_rerun(
        self, small_spec, tmp_path
    ):
        # The remains of a shard killed before its header hit disk.
        (tmp_path / "range-000000-000004.jsonl").write_text("garbage\n")
        report = CampaignDispatcher(
            small_spec, shards=2, work_dir=tmp_path, engine="pool"
        ).run()
        assert report.complete
        assert report.unreadable_ledgers == (
            str(tmp_path / "range-000000-000004.jsonl"),
        )

    def test_non_object_header_ledger_is_reported_and_rerun(
        self, small_spec, single_report, tmp_path
    ):
        # A work-dir ledger whose first line is JSON but not an object.
        CampaignDispatcher(small_spec, shards=2, work_dir=tmp_path).run()
        damaged = tmp_path / "range-000000-000004.jsonl"
        damaged.write_text("5\n")
        report = CampaignDispatcher(small_spec, shards=2, work_dir=tmp_path).run()
        assert report.complete
        assert report.unreadable_ledgers == (str(damaged),)
        assert report.attempts and all(a.stop <= 4 for a in report.attempts)
        assert report.report.cells == single_report.cells

    def test_non_utf8_ledger_is_reported_and_rerun(
        self, small_spec, single_report, tmp_path
    ):
        # A finished work dir whose first ledger turned into disk
        # garbage: its cells re-run like any other unreadable ledger's.
        CampaignDispatcher(small_spec, shards=2, work_dir=tmp_path).run()
        corrupt = tmp_path / "range-000000-000004.jsonl"
        corrupt.write_bytes(b"\xff\xfe\x80garbage\n")
        report = CampaignDispatcher(small_spec, shards=2, work_dir=tmp_path).run()
        assert report.complete
        assert report.unreadable_ledgers == (str(corrupt),)
        # Only the corrupt ledger's cells ran again.
        assert report.attempts and all(a.stop <= 4 for a in report.attempts)
        assert report.report.cells == single_report.cells

    def test_unreadable_ledger_outside_the_plan_is_deleted(
        self, small_spec, single_report, tmp_path
    ):
        # Three shards never re-plan the range [0, 4), so only the
        # gather can clear its remains.
        stale = tmp_path / "range-000000-000004.jsonl"
        stale.write_text("garbage\n")
        report = CampaignDispatcher(small_spec, shards=3, work_dir=tmp_path).run()
        assert report.complete
        assert report.unreadable_ledgers == (str(stale),)
        assert not stale.exists()
        rerun = CampaignDispatcher(small_spec, shards=3, work_dir=tmp_path).run()
        assert rerun.unreadable_ledgers == ()
        assert rerun.attempts == ()
        assert rerun.report.cells == single_report.cells

    def test_foreign_campaign_work_dir_refused(self, small_spec, tmp_path):
        other = CampaignSpec(**{**SMALL, "seed": 1})
        run_campaign(
            other,
            cell_range=(0, 4),
            ledger_path=tmp_path / "range-000000-000004.jsonl",
        )
        dispatcher = CampaignDispatcher(
            small_spec, shards=2, work_dir=tmp_path
        )
        with pytest.raises(ConfigurationError, match="different campaign"):
            dispatcher.run()


class TestForkedShards:
    def test_warm_parent_and_silent_children(
        self, small_spec, tmp_path, monkeypatch, capfd, single_report
    ):
        # The grid's die templates, built in the parent before the fork.
        die_cache.clear()
        with profiled() as recorder:
            run_campaign(small_spec, engine="vectorized")
        rows = {(s.stage, s.phase): s.count for s in recorder.stats()}
        assert rows[("build", "die-template")] == small_spec.n_points
        # The children inherit this wrapper; everything it writes, at
        # the stream and the descriptor level, must stay in the child.
        real = dispatcher_module.run_campaign

        def chatty(*args, **kwargs):
            print("shard stdout")
            print("shard stderr", file=sys.stderr)
            os.write(1, b"shard fd 1\n")
            os.write(2, b"shard fd 2\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(dispatcher_module, "run_campaign", chatty)
        capfd.readouterr()
        report = CampaignDispatcher(
            small_spec, shards=3, work_dir=tmp_path, engine="pool"
        ).run()
        out, err = capfd.readouterr()
        assert (out, err) == ("", "")
        assert report.complete
        assert all(a.exit_code == 0 for a in report.attempts)
        assert report.report.cells == single_report.cells

    def test_non_default_config(self, small_spec, tmp_path, single_report):
        config = dataclasses.replace(
            AdcConfig.paper_default(), include_jitter=False
        )
        report = CampaignDispatcher(
            small_spec, config, shards=2, work_dir=tmp_path
        ).run()
        expected = run_campaign(small_spec, config)
        assert report.complete
        assert report.report.cells == expected.cells
        # The config reached the shards: the cells are not the
        # default-config cells.
        assert expected.cells != single_report.cells


class TestDispatchCli:
    def test_fault_injected_cli_run(
        self, small_spec, tmp_path, monkeypatch, capsys, single_report
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULT_KILL_SHARD", "1:1")
        json_path = tmp_path / "dispatch.json"
        code = main(
            [
                "campaign-dispatch",
                "--corners",
                "tt,ss",
                "--temps",
                "27,125",
                "--dies",
                "2",
                "--seed",
                "99",
                "--fft-points",
                "512",
                "--shards",
                "3",
                "--engine",
                "pool",
                "--poll",
                "0.01",
                "--work-dir",
                str(tmp_path / "work"),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dispatch: complete" in out
        document = json.loads(json_path.read_text())
        assert document["schema"] == "repro.dispatch-report/v2"
        assert any(a["fault_injected"] for a in document["attempts"])
        assert document["campaign"]["cells"] == [
            cell.to_record() for cell in single_report.cells
        ]

    def test_exhausted_cli_exit_code(self, tmp_path, monkeypatch):
        from repro.cli import main

        # Two cells per shard: the fault window (header written, range
        # not yet complete) spans a full cell measurement, so the
        # poller reliably lands inside it.
        monkeypatch.setenv("REPRO_FAULT_KILL_SHARD", "0")
        code = main(
            [
                "campaign-dispatch",
                "--corners",
                "tt",
                "--temps",
                "27",
                "--dies",
                "4",
                "--seed",
                "99",
                "--fft-points",
                "512",
                "--shards",
                "2",
                "--engine",
                "pool",
                "--poll",
                "0.01",
                "--max-retries",
                "0",
                "--work-dir",
                str(tmp_path / "work"),
            ]
        )
        assert code == 1

    def test_campaign_cell_range_flag(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "--corners",
                "tt,ss",
                "--temps",
                "27,125",
                "--dies",
                "2",
                "--seed",
                "99",
                "--fft-points",
                "512",
                "--cell-range",
                "3:6",
                "--ledger",
                str(tmp_path / "range.jsonl"),
            ]
        )
        assert code == 0
        contents = CampaignLedger(tmp_path / "range.jsonl").read()
        assert contents.cell_range == (3, 6)
        assert sorted(contents.records) == [3, 4, 5]

    def test_cell_range_and_shard_conflict(self, capsys):
        from repro.cli import main

        code = main(
            ["campaign", "--shard", "0/2", "--cell-range", "0:2"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestCellStoreHygiene:
    @pytest.fixture()
    def populated(self, small_spec, tmp_path):
        store = CellStore(tmp_path / "cells")
        run_campaign(small_spec, cell_store=store)
        return store

    def test_stats_counts_and_groups(self, populated, small_spec):
        stats = populated.stats()
        assert stats.n_entries == small_spec.n_cells
        assert stats.total_bytes > 0
        assert stats.n_unreadable == 0
        assert stats.n_quarantined == 0
        assert sum(stats.campaigns.values()) == small_spec.n_cells
        assert len(stats.campaigns) == 1

    def test_stats_on_missing_root(self, tmp_path):
        stats = CellStore(tmp_path / "absent").stats()
        assert stats.n_entries == 0
        assert stats.campaigns == {}

    def test_verify_clean(self, populated):
        report = populated.verify()
        assert report.clean
        assert report.n_ok == report.n_entries

    @pytest.mark.parametrize(
        "damage",
        [b"{not json", b"\xff\xfe garbage"],
        ids=["truncated-json", "not-utf8"],
    )
    def test_verify_reports_and_quarantines_corruption(
        self, populated, small_spec, damage
    ):
        victim = populated.entry_paths()[0]
        victim.write_bytes(damage)
        # Every sweep reads the entry through one rule: stats counts it
        # unreadable, prune by campaign base never matches it.
        stats = populated.stats()
        assert stats.n_entries == small_spec.n_cells - 1
        assert stats.n_unreadable == 1
        (base,) = stats.campaigns
        pruned = populated.prune(fingerprint=base, dry_run=True)
        assert len(pruned.removed) == small_spec.n_cells - 1
        assert str(victim) not in pruned.removed
        report = populated.verify()
        assert not report.clean
        assert report.n_entries == stats.n_entries + stats.n_unreadable
        assert report.problems[0].path == str(victim)
        assert not report.problems[0].quarantined
        fixed = populated.verify(fix=True)
        assert fixed.problems[0].quarantined
        assert not victim.exists()
        quarantined = populated.root / QUARANTINE_DIR / victim.name
        assert quarantined.read_bytes() == damage
        # The quarantined entry is out of the sweep and the counters.
        after = populated.verify()
        assert after.clean
        assert populated.stats().n_quarantined == 1
        # A campaign over the damaged entry re-runs exactly that cell
        # and rewrites the entry.
        victim.write_bytes(damage)
        rerun = run_campaign(small_spec, cell_store=populated)
        assert rerun.cached_cells == small_spec.n_cells - 1
        assert populated.verify().clean

    def test_verify_catches_key_and_metric_damage(self, populated):
        paths = populated.entry_paths()
        entry = json.loads(paths[0].read_text())
        entry["metrics"]["snr_db"] = "broken"
        paths[0].write_text(json.dumps(entry))
        other = json.loads(paths[1].read_text())
        other["key"] = "0" * 64
        paths[1].write_text(json.dumps(other))
        report = populated.verify()
        reasons = {p.path: p.reason for p in report.problems}
        assert "non-numeric" in reasons[str(paths[0])]
        assert "does not match" in reasons[str(paths[1])]

    def test_corrupt_entry_is_a_cache_miss(self, populated, small_spec):
        # A damaged entry must degrade to recomputation, not an error.
        for path in populated.entry_paths():
            path.write_text("{not json")
        report = run_campaign(small_spec, cell_store=populated)
        assert report.complete
        assert report.cached_cells == 0

    def test_deleted_entry_is_a_cache_miss(self, populated, small_spec):
        # TOCTOU: entries vanishing under a reader degrade to misses.
        for path in populated.entry_paths():
            path.unlink()
        report = run_campaign(small_spec, cell_store=populated)
        assert report.complete
        assert report.cached_cells == 0

    def test_prune_needs_a_criterion(self, populated):
        with pytest.raises(ConfigurationError, match="criterion"):
            populated.prune()
        with pytest.raises(ConfigurationError, match="now"):
            populated.prune(max_age_s=1.0)

    def test_prune_rejects_a_negative_age(self, populated, small_spec):
        # A negative age would make every entry old enough to remove.
        mtime = populated.entry_paths()[0].stat().st_mtime
        with pytest.raises(ConfigurationError, match="max_age_s"):
            populated.prune(max_age_s=-1.0, now=mtime, dry_run=True)
        assert len(populated.entry_paths()) == small_spec.n_cells

    def test_prune_by_age_with_pinned_now(self, populated, small_spec):
        mtime = populated.entry_paths()[0].stat().st_mtime
        kept = populated.prune(max_age_s=100.0, now=mtime + 50.0)
        assert kept.removed == ()
        assert kept.n_kept == small_spec.n_cells
        dropped = populated.prune(max_age_s=10.0, now=mtime + 50.0)
        assert len(dropped.removed) == small_spec.n_cells
        assert populated.entry_paths() == []

    def test_prune_by_fingerprint_targets_one_campaign(
        self, populated, small_spec, tmp_path
    ):
        # The campaign base is config + bench settings, so a different
        # stimulus amplitude is a different campaign; a different seed
        # alone would share the base.
        other = CampaignSpec(**{**SMALL, "amplitude_fraction": 0.9})
        run_campaign(other, cell_store=populated)
        stats = populated.stats()
        assert len(stats.campaigns) == 2
        target = min(stats.campaigns)
        report = populated.prune(fingerprint=target)
        assert len(report.removed) == stats.campaigns[target]
        remaining = populated.stats()
        assert target not in remaining.campaigns
        assert len(remaining.campaigns) == 1

    def test_prune_dry_run_touches_nothing(self, populated, small_spec):
        mtime = populated.entry_paths()[0].stat().st_mtime
        report = populated.prune(
            max_age_s=10.0, now=mtime + 50.0, dry_run=True
        )
        assert len(report.removed) == small_spec.n_cells
        assert len(populated.entry_paths()) == small_spec.n_cells


class TestCellStoreCli:
    @pytest.fixture()
    def store_root(self, small_spec, tmp_path):
        run_campaign(small_spec, cell_store=tmp_path / "cells")
        return tmp_path / "cells"

    def test_stats_json(self, store_root, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "stats.json"
        code = main(
            ["cell-store", "stats", str(store_root), "--json", str(json_path)]
        )
        assert code == 0
        document = json.loads(json_path.read_text())
        assert document["schema"] == "repro.cell-store-report/v1"
        assert document["action"] == "stats"
        assert document["n_entries"] == 8

    def test_verify_exit_codes(self, store_root, capsys):
        from repro.cli import main

        assert main(["cell-store", "verify", str(store_root)]) == 0
        victim = CellStore(store_root).entry_paths()[0]
        victim.write_text("{not json")
        assert main(["cell-store", "verify", str(store_root), "--fix"]) == 1
        assert "quarantined" in capsys.readouterr().out
        assert main(["cell-store", "verify", str(store_root)]) == 0

    def test_prune_requires_criterion(self, store_root, capsys):
        from repro.cli import main

        assert main(["cell-store", "prune", str(store_root)]) == 2
        assert "criterion" not in capsys.readouterr().out

    def test_prune_by_age(self, store_root, capsys):
        from repro.cli import main

        code = main(
            [
                "cell-store",
                "prune",
                str(store_root),
                "--max-age-days",
                "30",
            ]
        )
        assert code == 0
        assert "removed 0" in capsys.readouterr().out
