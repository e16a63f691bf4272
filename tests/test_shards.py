"""Tests for sharded campaigns, ledger merging and the cell store.

The load-bearing contracts:

* **Shard-merge equivalence** — running every shard of a grid (its own
  ledger each) and merging reproduces the single-process campaign's
  per-cell metrics bit for bit.
* **Merge safety** — ledgers from a different campaign are refused,
  conflicting overlaps are an error naming the cell and both ledgers,
  and gaps leave the merged report incomplete with the missing cell
  indices listed.
* **Cell-store reuse** — a campaign sharing cells with an earlier run
  (same physics identity) resumes them from the content-addressed
  store with zero recomputation, across grid shapes.
"""

import errno
import json
import os
import re

import pytest

from repro.errors import ConfigurationError
from repro.runtime.campaign import CampaignSpec, run_campaign
from repro.runtime.cell_store import CellStore, _digest
from repro.runtime.shards import merge_campaign_ledgers
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


@pytest.fixture(scope="module")
def shard_ledgers(small_spec, tmp_path_factory):
    """Both shards of the small grid run to their own ledgers."""
    root = tmp_path_factory.mktemp("shards")
    paths = []
    for index, cell_range in enumerate(small_spec.shards(2)):
        path = root / f"shard-{index}.jsonl"
        report = run_campaign(small_spec, cell_range=cell_range, ledger_path=path)
        assert report.complete
        paths.append(path)
    return paths


class TestShardPlanning:
    def test_shards_partition_the_grid(self, small_spec):
        covered = []
        for start, stop in small_spec.shards(3):
            covered.extend(range(start, stop))
        assert covered == list(range(small_spec.n_cells))

    def test_uneven_split_balances_within_one(self, small_spec):
        assert small_spec.n_cells == 8
        sizes = [stop - start for start, stop in small_spec.shards(3)]
        assert sizes == [3, 3, 2]

    def test_shard_cells_keep_grid_indices_and_seeds(self, small_spec, single_report):
        start, stop = small_spec.shard(1, 2)
        report = run_campaign(small_spec, cell_range=(start, stop))
        assert report.cells == single_report.cells[start:stop]

    def test_shard_validation(self, small_spec):
        with pytest.raises(ConfigurationError, match="shard count"):
            small_spec.shard(0, 0)
        with pytest.raises(ConfigurationError, match="shard index"):
            small_spec.shard(2, 2)
        with pytest.raises(ConfigurationError, match="shard index"):
            small_spec.shard(-1, 2)
        with pytest.raises(
            ConfigurationError, match="at least one cell"
        ):
            small_spec.shards(small_spec.n_cells + 1)

    def test_cell_range_validation(self, small_spec):
        with pytest.raises(ConfigurationError, match="cell_range"):
            run_campaign(small_spec, cell_range=(4, 4))
        with pytest.raises(ConfigurationError, match="cell_range"):
            run_campaign(
                small_spec, cell_range=(0, small_spec.n_cells + 1)
            )

    def test_from_fingerprint_roundtrips(self, small_spec, paper_config):
        fingerprint = small_spec.fingerprint(paper_config)
        rebuilt = CampaignSpec.from_fingerprint(fingerprint)
        assert rebuilt.fingerprint(paper_config) == fingerprint
        assert rebuilt.cells() == small_spec.cells()

    def test_from_fingerprint_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec.from_fingerprint({"spec": {"corners": ["tt"]}})


class TestShardMerge:
    def test_merge_is_bit_identical_to_single_run(
        self, shard_ledgers, single_report, tmp_path
    ):
        merged = merge_campaign_ledgers(
            shard_ledgers, out_ledger=tmp_path / "merged.jsonl"
        )
        assert merged.complete
        assert merged.engine == "merged"
        assert merged.cells == single_report.cells
        assert (
            merged.to_dict()["signoff"]
            == single_report.to_dict()["signoff"]
        )

    def test_merged_ledger_resumes_the_unsharded_campaign(
        self, shard_ledgers, small_spec, single_report, tmp_path
    ):
        out = tmp_path / "merged.jsonl"
        merge_campaign_ledgers(shard_ledgers, out_ledger=out)
        resumed = run_campaign(
            small_spec, ledger_path=out, resume=True
        )
        assert resumed.resumed_cells == small_spec.n_cells
        assert resumed.batch.n_tasks == 0
        assert resumed.cells == single_report.cells

    def test_gap_reports_missing_cells(self, shard_ledgers, small_spec):
        merged = merge_campaign_ledgers(shard_ledgers[:1])
        assert not merged.complete
        missing = merged.missing_cell_indices()
        assert missing == tuple(range(4, small_spec.n_cells))
        rendered = merged.render()
        assert "INCOMPLETE: 4 cell(s) missing" in rendered
        assert "4, 5, 6, 7" in rendered
        document = merged.to_dict()
        assert document["missing_cells"] == list(missing)

    def test_identical_overlap_merges_cleanly(self, shard_ledgers):
        merged = merge_campaign_ledgers(
            [shard_ledgers[0], shard_ledgers[0], shard_ledgers[1]]
        )
        assert merged.complete

    def test_conflicting_overlap_is_an_error(
        self, shard_ledgers, tmp_path
    ):
        doctored = tmp_path / "doctored.jsonl"
        lines = shard_ledgers[0].read_text().splitlines()
        record = json.loads(lines[1])
        record["sndr_db"] += 1.0
        lines[1] = json.dumps(record)
        doctored.write_text("\n".join(lines) + "\n")
        expected = (
            f"shard ledgers disagree on cell {record['index']}: "
            f"{shard_ledgers[0]} and {doctored} hold conflicting records"
        )
        with pytest.raises(
            ConfigurationError, match=re.escape(expected)
        ):
            merge_campaign_ledgers([shard_ledgers[0], doctored])

    def test_foreign_campaign_is_refused(
        self, shard_ledgers, tmp_path
    ):
        other = CampaignSpec(**{**SMALL, "n_samples": 1024})
        foreign = tmp_path / "foreign.jsonl"
        run_campaign(other, cell_range=other.shard(0, 2), ledger_path=foreign)
        expected = (
            f"shard ledger {foreign} was written by a different "
            f"campaign than {shard_ledgers[0]}; refusing to merge"
        )
        with pytest.raises(
            ConfigurationError, match=re.escape(expected)
        ):
            merge_campaign_ledgers([shard_ledgers[0], foreign])

    def test_merge_needs_ledgers(self):
        with pytest.raises(ConfigurationError, match="no shard ledgers"):
            merge_campaign_ledgers([])


class TestCellStore:
    def test_second_campaign_recomputes_nothing(
        self, small_spec, single_report, tmp_path
    ):
        store = tmp_path / "store"
        first = run_campaign(small_spec, cell_store=store)
        assert first.cached_cells == 0
        warm = run_campaign(small_spec, cell_store=store)
        assert warm.cached_cells == small_spec.n_cells
        assert warm.batch.n_tasks == 0
        assert warm.cells == single_report.cells

    def test_one_corner_campaign_reuses_shared_cells(
        self, small_spec, single_report, tmp_path
    ):
        """ISSUE acceptance: warm store, one-corner grid, 0 recomputed."""
        store = tmp_path / "store"
        run_campaign(small_spec, cell_store=store)
        one_corner = CampaignSpec(**{**SMALL, "corners": (Corner.SS,)})
        report = run_campaign(one_corner, cell_store=store)
        assert report.cached_cells == one_corner.n_cells
        assert report.batch.n_tasks == 0
        # The reused metrics are the single-run SS cells, re-indexed
        # into the smaller grid.
        ss_metrics = [
            (c.seed, c.temperature_c, c.snr_db, c.sndr_db, c.enob_bits)
            for c in single_report.cells
            if c.corner == "ss"
        ]
        got = [
            (c.seed, c.temperature_c, c.snr_db, c.sndr_db, c.enob_bits)
            for c in report.cells
        ]
        assert got == ss_metrics

    def test_bench_settings_are_part_of_the_key(
        self, small_spec, tmp_path
    ):
        store = tmp_path / "store"
        run_campaign(small_spec, cell_store=store)
        longer = CampaignSpec(**{**SMALL, "n_samples": 1024})
        report = run_campaign(longer, cell_store=store)
        assert report.cached_cells == 0

    def test_corrupt_entry_is_a_miss(self, small_spec, single_report, tmp_path):
        store = tmp_path / "store"
        run_campaign(small_spec, cell_store=store)
        for path in store.rglob("*.json"):
            path.write_text("not json")
        report = run_campaign(small_spec, cell_store=store)
        assert report.cached_cells == 0
        assert report.complete
        # That run overwrote every damaged entry.
        warm = run_campaign(small_spec, cell_store=store)
        assert warm.cached_cells == small_spec.n_cells
        assert warm.cells == single_report.cells

    def test_ledger_resume_backfills_the_store(
        self, small_spec, tmp_path
    ):
        ledger = tmp_path / "run.jsonl"
        run_campaign(small_spec, ledger_path=ledger)
        store = tmp_path / "store"
        resumed = run_campaign(
            small_spec,
            ledger_path=ledger,
            resume=True,
            cell_store=store,
        )
        assert resumed.resumed_cells == small_spec.n_cells
        fresh = run_campaign(small_spec, cell_store=store)
        assert fresh.cached_cells == small_spec.n_cells

    def test_store_composes_with_shards(self, small_spec, tmp_path):
        """Shard 0 warms the store; shard 1's cells still miss."""
        store = tmp_path / "store"
        first = run_campaign(
            small_spec, cell_range=small_spec.shard(0, 2), cell_store=store
        )
        assert first.cached_cells == 0
        again = run_campaign(
            small_spec, cell_range=small_spec.shard(0, 2), cell_store=store
        )
        assert again.cached_cells == again.n_cells
        other = run_campaign(
            small_spec, cell_range=small_spec.shard(1, 2), cell_store=store
        )
        assert other.cached_cells == 0
        assert other.complete

    def test_damaged_entry_is_rerun_not_served(
        self, small_spec, single_report, tmp_path
    ):
        """An entry verify calls damaged is a miss: its cell re-runs."""
        store = tmp_path / "store"
        run_campaign(small_spec, cell_store=store)
        (path, *_) = sorted(store.rglob("*.json"))
        for value in ("NaN", "Infinity", "true", '"71.2"'):
            entry = path.read_text()
            damaged = re.sub(r'"sndr_db": [^,}]+', f'"sndr_db": {value}', entry)
            assert damaged != entry
            path.write_text(damaged)
            (problem,) = CellStore(store).verify().problems
            assert "'sndr_db'" in problem.reason, value
            report = run_campaign(small_spec, cell_store=store)
            assert report.cached_cells == small_spec.n_cells - 1, value
            assert report.cells == single_report.cells, value
            assert CellStore(store).verify().problems == (), value

    def test_cell_key_is_the_digest_of_base_and_cell(self, paper_config, tmp_path):
        """The key hashed from a kept head equals the whole-payload digest."""
        spec = CampaignSpec(
            corners=tuple(Corner),
            temperatures_c=(-40.0, 27.0, 125.0),
            n_dies=2,
            n_samples=256,
        )
        store = CellStore(tmp_path).bind(spec, paper_config)
        cells = spec.cells()
        assert {cell.corner for cell in cells} == set(Corner)
        assert any(cell.temperature_c < 0 for cell in cells)
        for cell in cells:
            expected = _digest({**store.base, "cell": store._identity(cell)})
            assert store._key(cell) == expected

    def test_failed_put_leaves_no_temp_file(
        self, small_spec, paper_config, tmp_path, monkeypatch
    ):
        """A full disk propagates, and no ``*.tmp`` outlives the put."""
        (metrics,) = run_campaign(small_spec, cell_range=(0, 1)).cells
        root = tmp_path / "store"
        bound = CellStore(root).bind(small_spec, paper_config)

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError) as raised:
            bound.put(small_spec.cells()[0], metrics)
        monkeypatch.undo()
        assert raised.value.errno == errno.ENOSPC
        assert list(root.rglob("*.tmp")) == []


class TestShardCli:
    def test_shard_run_and_merge_end_to_end(self, capsys, tmp_path):
        from repro.cli import main

        base = [
            "campaign",
            "--corners",
            "tt,ss",
            "--temps",
            "27",
            "--dies",
            "2",
            "--fft-points",
            "512",
            "--cell-store",
            str(tmp_path / "store"),
        ]
        for index in (0, 1):
            ledger = tmp_path / f"shard-{index}.jsonl"
            assert (
                main(base + ["--shard", f"{index}/2", "--ledger", str(ledger)])
                == 0
            )
        capsys.readouterr()
        out = tmp_path / "merged.json"
        assert (
            main(
                [
                    "campaign-merge",
                    str(tmp_path / "shard-0.jsonl"),
                    str(tmp_path / "shard-1.jsonl"),
                    "--out-ledger",
                    str(tmp_path / "merged.jsonl"),
                    "--json",
                    str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "PVT campaign: 4/4 cells" in text
        document = json.loads(out.read_text())
        assert document["n_complete"] == 4
        assert document["missing_cells"] == []
        # A partial merge exits 1 and lists the gap.
        assert (
            main(["campaign-merge", str(tmp_path / "shard-0.jsonl")]) == 1
        )
        assert "INCOMPLETE" in capsys.readouterr().out

    def test_merge_ledger_with_a_non_object_header_exits_two(
        self, capsys, tmp_path
    ):
        from repro.cli import main

        ledger = tmp_path / "num.jsonl"
        ledger.write_text("5\n")
        assert main(["campaign-merge", str(ledger)]) == 2
        assert "unreadable header" in capsys.readouterr().err

    def test_merge_missing_ledger_exits_two(self, capsys, tmp_path):
        from repro.cli import main

        missing = tmp_path / "missing.jsonl"
        assert main(["campaign-merge", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_shard_flag_validation(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--shard", "2"]) == 2
        assert "INDEX/COUNT" in capsys.readouterr().err
        assert main(["campaign", "--shard", "5/2"]) == 2
        assert "shard index" in capsys.readouterr().err

    def test_shard_render_names_the_range(self, small_spec):
        report = run_campaign(small_spec, cell_range=small_spec.shard(0, 2))
        assert "cells [0, 4) of 8" in report.render()

