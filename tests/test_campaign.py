"""Tests for the corner-batched PVT campaign engine.

The load-bearing contracts:

* **Corner-batched equivalence** — every (corner, temperature, die)
  cell of a vectorized (points x dies) batch is bit-exact with the
  serial :class:`DynamicTestbench` on the same operating point and die
  seed, regardless of cell chunking and worker count.
* **Resume determinism** — a campaign interrupted mid-grid and resumed
  from its ledger produces the identical sign-off report to a
  straight-through run, recomputing nothing already checkpointed.
"""

import json

import numpy as np
import pytest

from repro.core.adc_array import AdcArray
from repro.core.config import AdcConfig
from repro.errors import ConfigurationError
from repro.evaluation.testbench import DynamicTestbench
from repro.runtime.campaign import (
    CAMPAIGN_LEDGER_SCHEMA,
    CampaignLedger,
    CampaignSpec,
    run_campaign,
)
from repro.runtime.shards import merge_campaign_ledgers
from repro.signal.generators import SineGenerator
from repro.technology.corners import Corner, pvt_grid
from repro.technology.montecarlo import ProcessSample


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
def vectorized_report(small_spec):
    return run_campaign(small_spec, engine="vectorized")


class TestGridPlanning:
    def test_pvt_grid_is_corner_major(self, technology):
        points = pvt_grid(
            technology=technology,
            corners=(Corner.TT, Corner.FF),
            temperatures_c=(-40.0, 125.0),
        )
        assert [(p.corner, p.temperature_c) for p in points] == [
            (Corner.TT, -40.0),
            (Corner.TT, 125.0),
            (Corner.FF, -40.0),
            (Corner.FF, 125.0),
        ]

    def test_pvt_grid_rejects_empty_axes(self, technology):
        with pytest.raises(ConfigurationError):
            pvt_grid(technology=technology, corners=())
        with pytest.raises(ConfigurationError):
            pvt_grid(technology=technology, temperatures_c=())

    def test_cells_match_stacked_grid_population(
        self, small_spec, paper_config
    ):
        """The cells are the (points x dies) population, point-major."""
        points = small_spec.points(paper_config.technology)
        seeds = small_spec.resolved_die_seeds()
        cells = small_spec.cells()
        assert len(cells) == len(points) * len(seeds)
        for cell in cells:
            point, die = divmod(cell.index, len(seeds))
            sample = cell.process_sample(paper_config.technology)
            assert sample.index == cell.index
            assert sample.seed == cell.die_seed == seeds[die]
            assert sample.operating_point == points[point]

    def test_spec_cells_cover_grid(self, small_spec):
        cells = small_spec.cells()
        assert len(cells) == small_spec.n_cells == 8
        assert [c.index for c in cells] == list(range(8))
        seeds = small_spec.resolved_die_seeds()
        assert {c.die_seed for c in cells} == set(seeds)

    def test_explicit_die_seeds(self):
        spec = CampaignSpec(**{**SMALL, "die_seeds": (1, 2)})
        assert spec.resolved_die_seeds() == (1, 2)
        with pytest.raises(ConfigurationError):
            CampaignSpec(**{**SMALL, "die_seeds": (1,)})

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(**{**SMALL, "corners": ()})
        with pytest.raises(ConfigurationError):
            CampaignSpec(**{**SMALL, "n_dies": 0})
        with pytest.raises(ConfigurationError):
            CampaignSpec(**{**SMALL, "n_samples": 64})


class TestCornerBatchedEquivalence:
    """ISSUE acceptance: vectorized (points x dies) == serial testbench."""

    def test_grid_codes_bitwise_equal_per_cell(self, paper_config):
        """The raw output codes of a mixed-PVT batch match per cell."""
        points = pvt_grid(
            technology=paper_config.technology,
            corners=(Corner.TT, Corner.SS),
            temperatures_c=(-40.0, 125.0),
        )
        grid = [(point, seed) for point in points for seed in (3, 11)]
        stacked = [
            ProcessSample(operating_point=point, seed=seed, index=index)
            for index, (point, seed) in enumerate(grid)
        ]
        array = AdcArray(paper_config, 110e6, stacked)
        tone = SineGenerator.coherent(10e6, 110e6, 256, amplitude=0.995)
        batch = array.convert(tone, 256)
        for cell, sample in enumerate(stacked):
            bench = DynamicTestbench(
                paper_config,
                n_samples=256,
                die_seed=sample.seed,
                operating_point=sample.operating_point,
            )
            solo = bench.build(110e6).convert(tone, 256)
            assert np.array_equal(batch.codes[cell], solo.codes)

    def test_campaign_metrics_match_serial_testbench(
        self, small_spec, vectorized_report, paper_config
    ):
        """Every campaign cell reproduces DynamicTestbench.measure."""
        assert vectorized_report.complete
        for cell in vectorized_report.cells:
            plan = small_spec.cells()[cell.index]
            bench = DynamicTestbench(
                paper_config,
                n_samples=small_spec.n_samples,
                die_seed=plan.die_seed,
                operating_point=plan.operating_point(
                    paper_config.technology
                ),
            )
            solo = bench.measure(
                small_spec.conversion_rate, small_spec.input_frequency
            )
            assert (cell.snr_db, cell.sndr_db, cell.sfdr_db, cell.enob_bits) == (
                solo.snr_db,
                solo.sndr_db,
                solo.sfdr_db,
                solo.enob_bits,
            )

    def test_pool_engine_matches_vectorized(
        self, small_spec, vectorized_report
    ):
        pool = run_campaign(small_spec, engine="pool")
        assert pool.cells == vectorized_report.cells

    def test_cell_chunk_invariance(self, small_spec, vectorized_report):
        """8 cells split 8, 4 and 3 per task at 1, 2 and 3 workers."""
        for workers, vectorized_chunk in ((1, 8), (2, 4), (3, 3)):
            for engine, chunk in (("pool", 1), ("vectorized", vectorized_chunk)):
                report = run_campaign(
                    small_spec, engine=engine, workers=workers
                )
                assert report.batch.chunk_size == chunk, (engine, workers)
                assert report.cells == vectorized_report.cells

    def test_worker_invariance(self, small_spec, vectorized_report):
        report = run_campaign(small_spec, engine="vectorized", workers=None)
        assert report.cells == vectorized_report.cells

    def test_engine_validation(self, small_spec):
        with pytest.raises(ConfigurationError):
            run_campaign(small_spec, engine="turbo")

    @pytest.mark.parametrize("workers", [0, -1])
    def test_bad_workers_leave_an_existing_ledger_untouched(
        self, small_spec, workers, tmp_path
    ):
        """A worker count is rejected before the ledger is opened."""
        ledger = tmp_path / "run.jsonl"
        run_campaign(small_spec, ledger_path=ledger)
        before = ledger.read_bytes()
        for resume in (False, True):
            with pytest.raises(ConfigurationError, match="workers"):
                run_campaign(
                    small_spec, workers=workers, ledger_path=ledger, resume=resume
                )
            assert ledger.read_bytes() == before


class TestLedgerResume:
    """ISSUE acceptance: interrupt mid-grid, resume, identical report."""

    @staticmethod
    def _tables(report):
        """The deterministic slice of a report (no wall times)."""
        return (
            [c for c in report.cells],
            report.corner_rows(),
            report.signoff().render(),
        )

    def test_resume_after_interrupt_is_identical(
        self, small_spec, vectorized_report, tmp_path
    ):
        ledger = tmp_path / "run.jsonl"

        class Interrupt(Exception):
            pass

        seen = 0

        def bomb(update):
            nonlocal seen
            seen += 1
            if seen == 2:  # two cells checkpointed, then the "kill"
                raise Interrupt()

        with pytest.raises(Interrupt):
            run_campaign(
                small_spec, engine="pool", ledger_path=ledger, progress=bomb
            )
        checkpointed = len(ledger.read_text().splitlines()) - 1
        assert 0 < checkpointed < small_spec.n_cells

        resumed = run_campaign(
            small_spec,
            engine="vectorized",  # different chunking on purpose
            ledger_path=ledger,
            resume=True,
        )
        assert resumed.resumed_cells == checkpointed
        assert resumed.complete
        assert self._tables(resumed) == self._tables(vectorized_report)
        # Only the remaining cells were dispatched...
        assert resumed.batch.n_tasks == small_spec.n_cells - checkpointed
        # ...and the ledger now holds the full grid for the next resume.
        fully = run_campaign(
            small_spec, engine="pool", ledger_path=ledger, resume=True
        )
        assert fully.resumed_cells == small_spec.n_cells
        assert fully.batch.n_tasks == 0
        assert self._tables(fully) == self._tables(vectorized_report)

    def test_pool_engine_partial_resume(self, small_spec, tmp_path):
        """A pool-engine resume merges by grid index, not task position."""
        ledger = tmp_path / "run.jsonl"

        class Interrupt(Exception):
            pass

        def bomb(update):
            if update.done == 3:  # three cells checkpointed, then die
                raise Interrupt()

        with pytest.raises(Interrupt):
            run_campaign(
                small_spec, engine="pool", ledger_path=ledger, progress=bomb
            )
        resumed = run_campaign(
            small_spec, engine="pool", ledger_path=ledger, resume=True
        )
        assert resumed.resumed_cells == 3
        assert resumed.complete
        assert [c.index for c in resumed.cells] == list(
            range(small_spec.n_cells)
        )
        straight = run_campaign(small_spec, engine="pool")
        assert self._tables(resumed) == self._tables(straight)
        # Fresh outcomes carry grid indices and die seeds.
        fresh_indices = {o.index for o in resumed.batch.outcomes}
        assert fresh_indices == set(range(3, small_spec.n_cells))
        assert all(o.seed is not None for o in resumed.batch.outcomes)

    def test_ledger_rejects_mismatched_campaign(
        self, small_spec, tmp_path
    ):
        ledger = tmp_path / "run.jsonl"
        run_campaign(small_spec, ledger_path=ledger)
        other = CampaignSpec(**{**SMALL, "n_samples": 1024})
        with pytest.raises(ConfigurationError):
            run_campaign(other, ledger_path=ledger, resume=True)
        # A ledger written while the spec still carried a precision tier
        # (its fingerprint holds the retired spec.precision) is refused
        # too: the resume raises before it splices a single new cell.
        header, *records = ledger.read_text().splitlines()
        document = json.loads(header)
        document["fingerprint"]["spec"]["precision"] = "exact"
        old = "\n".join([json.dumps(document), *records[:3]]) + "\n"
        ledger.write_text(old)
        with pytest.raises(ConfigurationError):
            run_campaign(small_spec, ledger_path=ledger, resume=True)
        assert ledger.read_text() == old

    def test_ledger_tolerates_torn_tail(self, small_spec, tmp_path):
        ledger = tmp_path / "run.jsonl"
        run_campaign(small_spec, ledger_path=ledger)
        text = ledger.read_text()
        # Torn writes; only "\n" ends a ledger line, so a tail holding a
        # character ``str.splitlines`` also breaks at is one torn line.
        for tail in ['{"index": 5, "corner"'] + [
            '{"index": 1' + separator + ', "x' for separator in "\x1c\x85\u2028"
        ]:
            ledger.write_text(text + tail)
            report = run_campaign(small_spec, ledger_path=ledger, resume=True)
            assert report.complete, tail
            assert report.resumed_cells == small_spec.n_cells, tail
            assert ledger.read_text() == text, tail

    @pytest.mark.parametrize(
        ("cut", "sharded"),
        [("mid-record", False), ("unterminated", False), ("mid-record", True)],
    )
    def test_resume_after_torn_tail_stays_resumable(
        self, small_spec, vectorized_report, tmp_path, cut, sharded
    ):
        """Resumed appends start on a fresh line, not after the fragment."""
        cell_range = small_spec.shard(0, 2) if sharded else None
        ledger = tmp_path / "run.jsonl"
        run_campaign(small_spec, ledger_path=ledger, cell_range=cell_range)
        lines = ledger.read_text().splitlines(keepends=True)
        # Header and two records intact; the third cut with no newline.
        kept = lines[3][: len(lines[3]) // 2 if cut == "mid-record" else -1]
        ledger.write_text("".join(lines[:3]) + kept)
        first = run_campaign(
            small_spec, ledger_path=ledger, resume=True, cell_range=cell_range
        )
        assert first.resumed_cells == (2 if cut == "mid-record" else 3)
        second = run_campaign(
            small_spec, ledger_path=ledger, resume=True, cell_range=cell_range
        )
        assert second.batch.n_tasks == 0
        start, stop = cell_range or (0, small_spec.n_cells)
        straight = vectorized_report.cells[start:stop]
        assert first.cells == second.cells == straight
        assert merge_campaign_ledgers([ledger]).cells == straight

    @pytest.mark.parametrize(
        "tail", [b"\xff\xfe\x80", b'{"index": 5, "corner": "t\xff\n']
    )
    def test_resume_after_non_utf8_tail(
        self, small_spec, vectorized_report, tmp_path, tail
    ):
        """Bytes that are not UTF-8 in the last line are a torn tail."""
        ledger = tmp_path / "run.jsonl"
        run_campaign(small_spec, ledger_path=ledger)
        intact = b"".join(ledger.read_bytes().splitlines(keepends=True)[:3])
        ledger.write_bytes(intact + tail)
        fingerprint = small_spec.fingerprint(AdcConfig.paper_default())
        assert len(CampaignLedger(ledger).load(fingerprint)) == 2
        assert ledger.read_bytes() == intact
        resumed = run_campaign(small_spec, ledger_path=ledger, resume=True)
        assert resumed.resumed_cells == 2
        assert resumed.cells == vectorized_report.cells
        assert CampaignLedger(ledger).read().torn_at is None

    def test_ledger_rejects_corrupt_middle(self, small_spec, tmp_path):
        ledger = tmp_path / "run.jsonl"
        run_campaign(small_spec, ledger_path=ledger)
        lines = ledger.read_text().splitlines()
        lines[2] = "not json"
        ledger.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError):
            CampaignLedger(ledger).load(
                small_spec.fingerprint(AdcConfig.paper_default())
            )

    def test_fresh_run_truncates_stale_ledger(self, small_spec, tmp_path):
        ledger = tmp_path / "run.jsonl"
        run_campaign(small_spec, ledger_path=ledger)
        report = run_campaign(small_spec, ledger_path=ledger)  # no resume
        assert report.resumed_cells == 0
        header = json.loads(ledger.read_text().splitlines()[0])
        assert header["schema"] == CAMPAIGN_LEDGER_SCHEMA


class TestLedgerValidation:
    """Adversarial ledgers are rejected, never silently accepted."""

    @pytest.fixture(scope="class")
    def fingerprint(self, small_spec, paper_config):
        return small_spec.fingerprint(paper_config)

    @pytest.fixture()
    def written(self, small_spec, tmp_path):
        """A completed whole-grid ledger in a fresh tmp dir."""
        ledger = tmp_path / "run.jsonl"
        run_campaign(small_spec, ledger_path=ledger)
        return ledger

    def test_rejects_out_of_range_index(
        self, written, fingerprint, small_spec
    ):
        record = json.loads(written.read_text().splitlines()[1])
        record["index"] = small_spec.n_cells  # one past the grid
        lines = written.read_text().splitlines()
        lines.append(json.dumps(record))
        written.write_text("\n".join(lines) + "\n")
        position = len(lines)
        with pytest.raises(
            ConfigurationError,
            match=(
                rf"line {position}: cell index {small_spec.n_cells} "
                rf"outside \[0, {small_spec.n_cells}\)"
            ),
        ):
            CampaignLedger(written).load(fingerprint)

    def test_rejects_duplicate_index(self, written, fingerprint):
        lines = written.read_text().splitlines()
        lines.append(lines[1])  # replay the first record verbatim
        written.write_text("\n".join(lines) + "\n")
        duplicated = json.loads(lines[1])["index"]
        with pytest.raises(
            ConfigurationError,
            match=(
                rf"line {len(lines)}: duplicate cell index {duplicated}"
            ),
        ):
            CampaignLedger(written).load(fingerprint)

    def test_tolerates_torn_tail_with_trailing_newline(
        self, written, fingerprint, small_spec
    ):
        """A torn record plus trailing blank lines is still a torn tail."""
        written.write_text(
            written.read_text() + '{"index": 5, "corner"\n\n\n'
        )
        records = CampaignLedger(written).load(fingerprint)
        assert len(records) == small_spec.n_cells

    def test_rejects_torn_record_mid_file(self, written, fingerprint):
        lines = written.read_text().splitlines()
        lines.insert(3, '{"index": 5, "corner"')  # valid records follow
        written.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            ConfigurationError, match="line 4 is corrupt"
        ):
            CampaignLedger(written).load(fingerprint)

    def test_rejects_non_utf8_header(self, written, fingerprint):
        written.write_bytes(b"\xff\xfe" + written.read_bytes())
        with pytest.raises(ConfigurationError, match="unreadable header"):
            CampaignLedger(written).load(fingerprint)

    def test_rejects_non_utf8_record_mid_file(self, written, fingerprint):
        lines = written.read_bytes().splitlines(keepends=True)
        lines.insert(3, b"\xff\xfe\x80\n")  # valid records follow
        written.write_bytes(b"".join(lines))
        with pytest.raises(ConfigurationError, match="line 4 is corrupt"):
            CampaignLedger(written).load(fingerprint)

    def test_rejects_foreign_fingerprint(self, written, paper_config):
        other = CampaignSpec(**{**SMALL, "n_samples": 1024})
        with pytest.raises(
            ConfigurationError, match="different campaign"
        ):
            CampaignLedger(written).load(other.fingerprint(paper_config))

    def test_record_fsyncs_each_batch(
        self, tmp_path, fingerprint, vectorized_report, monkeypatch
    ):
        import repro.runtime.campaign as campaign_module

        synced = []
        real_fsync = campaign_module.os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(campaign_module.os, "fsync", counting_fsync)
        ledger = CampaignLedger(tmp_path / "synced.jsonl")
        ledger.start(fingerprint)
        ledger.record(vectorized_report.cells[:2])
        ledger.record(vectorized_report.cells[2:4])
        assert len(synced) == 3  # header + one per append batch

    def test_shard_header_roundtrip(
        self, tmp_path, fingerprint, vectorized_report
    ):
        ledger = CampaignLedger(tmp_path / "shard.jsonl")
        ledger.start(fingerprint, cell_range=(0, 4))
        ledger.record(vectorized_report.cells[:4])
        contents = ledger.read()
        assert contents.cell_range == (0, 4)
        assert sorted(contents.records) == [0, 1, 2, 3]
        # A resume expecting a different range (or none) is refused.
        with pytest.raises(
            ConfigurationError, match="refusing to resume"
        ):
            ledger.load(fingerprint)
        with pytest.raises(
            ConfigurationError, match="refusing to resume"
        ):
            ledger.load(fingerprint, cell_range=(4, 8))
        assert len(ledger.load(fingerprint, cell_range=(0, 4))) == 4

    def test_rejects_shard_record_outside_declared_range(
        self, tmp_path, fingerprint, vectorized_report
    ):
        ledger = CampaignLedger(tmp_path / "shard.jsonl")
        ledger.start(fingerprint, cell_range=(0, 4))
        ledger.record((vectorized_report.cells[5],))
        with pytest.raises(
            ConfigurationError, match=r"cell index 5 outside \[0, 4\)"
        ):
            ledger.read()

    def test_rejects_shard_range_outside_grid(
        self, tmp_path, fingerprint, small_spec
    ):
        ledger = CampaignLedger(tmp_path / "shard.jsonl")
        ledger.start(fingerprint, cell_range=(4, small_spec.n_cells + 1))
        with pytest.raises(
            ConfigurationError, match="outside the campaign grid"
        ):
            ledger.read()


class TestReport:
    def test_report_document(self, vectorized_report, small_spec):
        document = json.loads(json.dumps(vectorized_report.to_dict()))
        assert document["engine"] == "vectorized"
        assert document["n_cells"] == small_spec.n_cells
        assert len(document["cells"]) == small_spec.n_cells
        assert set(document["signoff"]) == {
            "SNR (f_in=10MHz)",
            "SNDR (f_in=10MHz)",
            "SFDR (f_in=10MHz)",
            "ENOB",
        }
        sndr = document["signoff"]["SNDR (f_in=10MHz)"]
        assert sndr["min"] <= sndr["typ"] <= sndr["max"]

    def test_render_names_worst_cell(self, vectorized_report):
        text = vectorized_report.render()
        assert "worst cell:" in text
        assert "Electrical characteristics" in text

    def test_signoff_ranges_cover_cells(self, vectorized_report):
        sndrs = [c.sndr_db for c in vectorized_report.cells]
        by_name = {
            line.parameter: line
            for line in vectorized_report.signoff().lines
        }
        line = by_name["SNDR (f_in=10MHz)"]
        assert line.minimum == pytest.approx(min(sndrs))
        assert line.maximum == pytest.approx(max(sndrs))


class TestCampaignCli:
    def test_parser_defaults(self):
        from repro.cli import build_campaign_parser

        args = build_campaign_parser().parse_args([])
        assert args.corners == "all"
        assert args.dies == 1
        assert args.engine == "vectorized"
        assert not args.resume

    def test_cli_run_and_resume(self, capsys, tmp_path):
        from repro.cli import main

        ledger = tmp_path / "run.jsonl"
        out = tmp_path / "campaign.json"
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
            "--ledger",
            str(ledger),
        ]
        assert main(base + ["--json", str(out)]) == 0
        first = capsys.readouterr().out
        assert "PVT campaign" in first
        document = json.loads(out.read_text())
        assert document["n_cells"] == 4
        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "4 cell(s) resumed from ledger" in second

    def test_cli_rejects_unknown_corner(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--corners", "zz"]) == 2
        assert "unknown corner" in capsys.readouterr().err

    def test_cli_resume_requires_ledger(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--resume"]) == 2
        assert "--resume needs --ledger" in capsys.readouterr().err
