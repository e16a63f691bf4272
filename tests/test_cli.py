"""Tests for repro.cli."""

import json
import os

import pytest

from repro.cli import build_campaign_parser, build_mc_parser, build_parser, main
from repro.experiments.registry import available_experiments


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in available_experiments():
            assert experiment_id in out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_quick_experiment(self, capsys):
        assert main(["fig4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Power dissipation" in out
        assert "PASS" in out

    def test_multiple_experiments(self, capsys):
        assert main(["fig4", "fig7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "fig7" in out

    def test_parser_quick_flag(self):
        args = build_parser().parse_args(["fig4", "--quick"])
        assert args.quick
        assert args.experiments == ["fig4"]

    def test_parser_workers_default(self):
        args = build_parser().parse_args(["fig4"])
        assert args.workers == 1

    @pytest.mark.parametrize(
        "parser", [build_parser, build_mc_parser, build_campaign_parser]
    )
    def test_measure_parsers_have_no_dispatch_chunk_size(self, parser, capsys):
        # Yield screens and campaigns group items by --engine alone, and
        # experiment batches by the worker count.
        with pytest.raises(SystemExit):
            parser().parse_args(["--chunk-size", "2"])
        assert "--chunk-size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("mc", "--die-chunk", "2"),
            ("campaign", "--cell-chunk", "2"),
            ("campaign-dispatch", "--cell-chunk", "2"),
            ("profile", "--engine", "serial"),
        ],
    )
    def test_retired_dispatch_flags_rejected(
        self, command, flag, value, capsys, tmp_path
    ):
        # --engine is the one dispatch setting, and repro profile runs
        # each workload once on its command's default engine.
        required = {
            "campaign-dispatch": ["--shards", "2", "--work-dir", str(tmp_path)],
            "profile": ["dynamic-screen"],
        }
        with pytest.raises(SystemExit) as raised:
            main([command, *required.get(command, []), flag, value])
        assert raised.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_experiments_through_worker_pool(self, capsys):
        assert main(["fig4", "fig7", "--quick", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "fig7" in out


class TestMcCli:
    def test_mc_parser_defaults(self):
        args = build_mc_parser().parse_args([])
        assert args.dies == 24
        assert args.workers == 1
        assert args.spec_enob == 10.0
        assert args.spec_dnl == 1.5

    def test_mc_run_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "mc.json"
        code = main(
            [
                "mc",
                "--dies",
                "2",
                "--fft-points",
                "1024",
                "--json",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "yield against" in out
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro.batch-result/v2"
        assert document["n_tasks"] == 2
        assert document["yield"]["n_dies"] == 2

    def test_mc_engine_flag_parses(self):
        args = build_mc_parser().parse_args(["--engine", "vectorized"])
        assert args.engine == "vectorized"
        assert build_mc_parser().parse_args([]).engine == "pool"

    def test_mc_render_reports_dies_per_task(self, capsys, tmp_path):
        """The text report and the JSON name the same items per task."""
        for engine, per_task in (("pool", 1), ("vectorized", 3)):
            out_path = tmp_path / f"mc-{engine}.json"
            code = main(
                [
                    "mc",
                    "--dies",
                    "6",
                    "--fft-points",
                    "512",
                    "--engine",
                    engine,
                    "--workers",
                    "2",
                    "--json",
                    str(out_path),
                ]
            )
            assert code in (0, 1)
            out = capsys.readouterr().out
            assert f"2 worker(s), {per_task} die(s) per task," in out
            assert json.loads(out_path.read_text())["chunk_size"] == per_task

    def test_mc_calibrate_flag_parses(self):
        args = build_mc_parser().parse_args(["--calibrate", "--cal-samples", "6"])
        assert args.calibrate
        assert args.cal_samples == 6
        defaults = build_mc_parser().parse_args([])
        assert not defaults.calibrate
        assert defaults.cal_samples == 8
        assert defaults.spec_inl is None

    def test_mc_calibrated_run(self, capsys, tmp_path):
        out_path = tmp_path / "mc-cal.json"
        code = main(
            [
                "mc",
                "--dies",
                "2",
                "--fft-points",
                "512",
                "--engine",
                "vectorized",
                "--calibrate",
                "--cal-samples",
                "4",
                "--json",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "foreground-calibrated" in out
        import json

        document = json.loads(out_path.read_text())
        assert document["calibrated"] is True

    def test_mc_vectorized_engine_matches_pool(self, capsys):
        """ISSUE acceptance: the engines render the same yield table."""

        def run(engine):
            code = main(
                [
                    "mc",
                    "--dies",
                    "2",
                    "--fft-points",
                    "1024",
                    "--engine",
                    engine,
                ]
            )
            assert code == 0
            return capsys.readouterr().out

        pool_table = run("pool")
        vectorized_table = run("vectorized")
        # Same per-die rows and verdicts; only the batch footer
        # (engine name, wall time) differs.
        table = lambda text: [  # noqa: E731
            line
            for line in text.splitlines()
            if line.strip() and not line.startswith("batch:")
        ]
        assert table(pool_table) == table(vectorized_table)


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--dies", "1", "--fft-points", "1024"],
        ["campaign", "--corners", "tt", "--temps=27", "--fft-points", "256"],
        ["profile", "dynamic-screen", "--dies", "1", "--fft-points", "256"],
        ["cell-store", "stats", "{tmp}"],
        ["lint"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_json_path_exits_2(argv, tmp_path, capsys):
    """Every --json writer reports an unwritable path the same way."""
    target = tmp_path / "missing" / "out.json"
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main([*argv, "--json", str(target)]) == 2
    assert f"error: cannot write {target}:" in capsys.readouterr().err


_ONE_CELL = ["campaign", "--corners", "tt", "--temps=27", "--dies", "1",
             "--fft-points", "256"]


@pytest.mark.parametrize(
    ("argv", "named"),
    [
        ([*_ONE_CELL, "--ledger", "/dev/full"], "/dev/full"),
        (["campaign-merge", "{tmp}"], "{tmp}"),
        ([*_ONE_CELL, "--cell-store", "{tmp}/file"], "{tmp}/file"),
    ],
    ids=["ledger-disk-full", "merge-a-directory", "store-root-a-file"],
)
def test_io_fault_exits_2_naming_the_file(argv, named, tmp_path, capsys):
    """An I/O fault on a durable file is one error line naming it."""
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    (tmp_path / "file").write_text("")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named.replace("{tmp}", str(tmp_path)) in err


@pytest.mark.parametrize(
    "argv",
    [
        [*_ONE_CELL, "--seed", "-1", "--ledger", "{tmp}/cells.jsonl"],
        [*_ONE_CELL, "--die-seeds", "-5", "--ledger", "{tmp}/cells.jsonl"],
        ["mc", "--dies", "1", "--fft-points", "256", "--seed", "-1"],
        ["mc", "--dies", "1", "--fft-points", "256", "--seed", "-3",
         "--seed-strategy", "spawn"],
    ],
    ids=["campaign-seed", "campaign-die-seeds", "mc-stream", "mc-spawn"],
)
def test_negative_seed_exits_2_before_any_write(argv, tmp_path, capsys):
    """A negative root or die seed is a config error, not a crash."""
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "cells.jsonl").exists()
