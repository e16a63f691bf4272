"""Command-line entry point: run paper experiments and batch workloads.

Usage::

    repro list
    repro table1
    repro fig4 fig5 --quick
    repro all --workers 4
    repro mc --dies 16 --workers 4 --json out.json
    repro mc --dies 32 --engine vectorized --calibrate
    repro campaign --dies 16 --ledger signoff.jsonl
    repro campaign --dies 16 --ledger signoff.jsonl --resume
    repro campaign --dies 16 --shard 0/2 --ledger shard-0.jsonl
    repro campaign --dies 16 --cell-range 3:9 --ledger gap.jsonl
    repro campaign-merge shard-0.jsonl shard-1.jsonl --json merged.json
    repro campaign-dispatch --dies 16 --shards 4 --work-dir dispatch/
    repro cell-store stats cells/
    repro cell-store verify cells/ --fix
    repro cell-store prune cells/ --max-age-days 30
    repro profile dynamic-screen --dies 8 --json profile.json

(``python -m repro`` is equivalent to the installed ``repro`` script.)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro.analysis import LintUsageError
from repro.analysis import run_lint as analysis_run_lint
from repro.errors import ReproError
from repro.experiments.registry import (
    available_experiments,
    run_experiment_batch,
)
from repro.runtime.batch import BatchProgress
from repro.runtime.campaign import (
    SIGNOFF_TEMPERATURES_C,
    CampaignSpec,
    run_campaign,
)
from repro.runtime.montecarlo import YieldSpec, run_yield_analysis
from repro.runtime.profiling import WORKLOADS, profile_workload
from repro.schemas import (
    CELL_STORE_REPORT_SCHEMA,
    DISPATCH_REPORT_SCHEMA,
    LINT_REPORT_SCHEMA,
    PROFILE_REPORT_SCHEMA,
)
from repro.technology.corners import Corner
from repro.version import PAPER, __version__


def build_parser() -> argparse.ArgumentParser:
    """The experiment-run argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=f"Reproduction experiments for: {PAPER} (repro {__version__})",
        epilog=(
            "Monte Carlo yield analysis and PVT sign-off campaigns run "
            "as separate subcommands: see 'repro mc --help', "
            "'repro campaign --help', 'repro campaign-merge --help', "
            "'repro campaign-dispatch --help' and "
            "'repro cell-store --help'."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=(
            "experiment ids to run, 'all' for every experiment, or "
            "'list' to enumerate them"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer samples / sweep points (smoke-test speed)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for multi-experiment runs (default 1)",
    )
    return parser


def build_mc_parser() -> argparse.ArgumentParser:
    """The ``repro mc`` (Monte Carlo yield) argument parser."""
    defaults = YieldSpec()
    parser = argparse.ArgumentParser(
        prog="repro mc",
        description=(
            "Monte Carlo yield analysis on the parallel batch runtime: "
            "many die realizations (random corner, temperature, supply, "
            "capacitor spread, local mismatch), each screened against a "
            "datasheet spec."
        ),
    )
    parser.add_argument(
        "--dies", type=int, default=24, metavar="N", help="die count (default 24)"
    )
    parser.add_argument(
        "--engine",
        choices=("pool", "vectorized"),
        default="pool",
        help=(
            "execution engine: 'pool' measures one die per task, "
            "'vectorized' splits the dies across the workers, at most 8 "
            "per task; both run the same "
            "per-die measurement, so per-die records are identical "
            "across engines (default pool)"
        ),
    )
    parser.add_argument(
        "--calibrate",
        action="store_true",
        help=(
            "foreground gain-calibrate every die before screening "
            "(extension beyond the paper): the screens then measure the "
            "calibrated reconstruction"
        ),
    )
    parser.add_argument(
        "--cal-samples",
        type=int,
        default=8,
        metavar="N",
        help=(
            "calibration-ramp samples per output code when --calibrate "
            "is set (default 8)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; identical metrics for any value (default 1)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=2026,
        help="master seed; replays the identical die set (default 2026)",
    )
    parser.add_argument(
        "--seed-strategy",
        choices=("stream", "spawn"),
        default="stream",
        help=(
            "die seed derivation: 'stream' replays the legacy sequential "
            "draw, 'spawn' makes die i independent of batch size via "
            "SeedSequence.spawn (default stream)"
        ),
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=defaults.conversion_rate,
        metavar="HZ",
        help=f"conversion rate [Hz] (default {defaults.conversion_rate:.0f})",
    )
    parser.add_argument(
        "--spec-enob",
        type=float,
        default=defaults.min_enob,
        metavar="BITS",
        help=f"minimum ENOB spec limit (default {defaults.min_enob})",
    )
    parser.add_argument(
        "--spec-dnl",
        type=float,
        default=defaults.max_dnl_lsb,
        metavar="LSB",
        help=f"maximum |DNL| spec limit (default {defaults.max_dnl_lsb})",
    )
    parser.add_argument(
        "--spec-inl",
        type=float,
        default=None,
        metavar="LSB",
        help="maximum |INL| spec limit (default: no INL screen)",
    )
    parser.add_argument(
        "--fft-points",
        type=int,
        default=4096,
        metavar="N",
        help="coherent capture length per die (default 4096)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write the BatchResult document (per-die metrics, summary "
            "statistics, failures) to PATH"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-die progress to stderr",
    )
    return parser


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """The campaign-grid and bench flags (shared by campaign/dispatch).

    Everything here maps 1:1 onto a :class:`CampaignSpec` field — see
    :func:`_spec_from_args` — so a hand-run ``repro campaign
    --cell-range`` shard can rebuild any spec over the command line.
    """
    defaults = CampaignSpec()
    parser.add_argument(
        "--corners",
        default="all",
        metavar="LIST",
        help=(
            "comma-separated corner list (tt,ff,ss,fs,sf) or 'all' "
            "(default all)"
        ),
    )
    parser.add_argument(
        "--temps",
        default=",".join(f"{t:g}" for t in SIGNOFF_TEMPERATURES_C),
        metavar="LIST",
        help=(
            "comma-separated junction temperatures [C]; use the "
            "--temps=-40,27,125 form for values starting with a minus "
            "(default %(default)s)"
        ),
    )
    parser.add_argument(
        "--dies",
        type=int,
        default=defaults.n_dies,
        metavar="N",
        help=(
            "dies measured at every operating point "
            f"(default {defaults.n_dies})"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=defaults.seed,
        help=(
            "root seed the per-die seeds spawn from; replays the "
            f"identical grid (default {defaults.seed})"
        ),
    )
    parser.add_argument(
        "--die-seeds",
        default=None,
        metavar="LIST",
        help=(
            "explicit comma-separated per-die seeds (overrides --seed "
            "derivation; must match --dies)"
        ),
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=defaults.conversion_rate,
        metavar="HZ",
        help=f"conversion rate [Hz] (default {defaults.conversion_rate:.0f})",
    )
    parser.add_argument(
        "--fin",
        type=float,
        default=defaults.input_frequency,
        metavar="HZ",
        help=(
            "test-tone target frequency [Hz] "
            f"(default {defaults.input_frequency:.0f})"
        ),
    )
    parser.add_argument(
        "--fft-points",
        type=int,
        default=defaults.n_samples,
        metavar="N",
        help=(
            "coherent capture length per cell "
            f"(default {defaults.n_samples})"
        ),
    )
    parser.add_argument(
        "--amplitude",
        type=float,
        default=defaults.amplitude_fraction,
        metavar="FRAC",
        help=(
            "stimulus amplitude relative to full scale "
            f"(default {defaults.amplitude_fraction})"
        ),
    )
    parser.add_argument(
        "--supply-scale",
        type=float,
        default=defaults.supply_scale,
        metavar="X",
        help=(
            "shared supply multiplier for every operating point "
            f"(default {defaults.supply_scale})"
        ),
    )


def _spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    """Build the :class:`CampaignSpec` the shared spec flags describe."""
    die_seeds = None
    if args.die_seeds is not None:
        try:
            die_seeds = tuple(
                int(token)
                for token in args.die_seeds.split(",")
                if token.strip()
            )
        except ValueError:
            raise ReproError(
                "--die-seeds must be a comma-separated integer list"
            ) from None
    return CampaignSpec(
        corners=_parse_corners(args.corners),
        temperatures_c=_parse_floats(args.temps, "--temps"),
        n_dies=args.dies,
        seed=args.seed,
        die_seeds=die_seeds,
        supply_scale=args.supply_scale,
        conversion_rate=args.rate,
        input_frequency=args.fin,
        n_samples=args.fft_points,
        amplitude_fraction=args.amplitude,
    )


def build_campaign_parser() -> argparse.ArgumentParser:
    """The ``repro campaign`` (PVT sign-off) argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description=(
            "PVT sign-off campaign: every requested "
            "process corner x temperature x die is one grid cell, "
            "measured dynamically (SNR/SNDR/SFDR/ENOB) and rolled up "
            "into a min/typ/max sign-off datasheet.  Completed cells "
            "checkpoint to a JSONL run ledger, so an interrupted "
            "campaign resumes without recomputation (--ledger/--resume)."
        ),
    )
    _add_spec_arguments(parser)
    parser.add_argument(
        "--engine",
        choices=("pool", "vectorized"),
        default="vectorized",
        help=(
            "execution engine: 'pool' measures one cell per task (and "
            "ledger append), 'vectorized' splits the cells across the "
            "workers, at most 8 per task; both run the same "
            "per-cell measurement, so per-cell metrics are identical "
            "across engines (default vectorized)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; identical metrics for any value (default 1)",
    )
    parser.add_argument(
        "--ledger",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "JSONL run ledger; completed cells append as they finish "
            "(checkpointing)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "reuse completed cells from an existing --ledger "
            "(fingerprint-checked) instead of starting fresh"
        ),
    )
    parser.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help=(
            "run only shard I of N (disjoint contiguous cell ranges "
            "with identical per-cell seeds); merge the shard ledgers "
            "afterwards with 'repro campaign-merge'"
        ),
    )
    parser.add_argument(
        "--cell-range",
        default=None,
        metavar="START:STOP",
        help=(
            "run only grid cells [START, STOP) — an arbitrary "
            "contiguous slice (what the gap-driven dispatcher "
            "re-dispatches); mutually exclusive with --shard"
        ),
    )
    parser.add_argument(
        "--cell-store",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "content-addressed cell-result store: cells whose physics "
            "identity (config fingerprint, PVT point, die seed, bench "
            "settings) already has an entry are reused with zero "
            "recomputation; fresh results are written back"
        ),
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the campaign report document to PATH",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-task progress to stderr",
    )
    return parser


def build_campaign_merge_parser() -> argparse.ArgumentParser:
    """The ``repro campaign-merge`` (shard merge) argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro campaign-merge",
        description=(
            "Merge the ledgers of sharded campaign runs into one "
            "campaign-wide sign-off report.  All ledgers must share "
            "one campaign fingerprint; overlapping cells must hold "
            "identical records; gaps leave the report incomplete and "
            "are listed as missing cell indices (exit code 1)."
        ),
    )
    parser.add_argument(
        "ledgers",
        nargs="+",
        type=Path,
        metavar="LEDGER",
        help="shard ledger files to merge (any order)",
    )
    parser.add_argument(
        "--out-ledger",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "also write the merged cells as a whole-grid ledger "
            "(resumable by the unsharded campaign)"
        ),
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the merged campaign report document to PATH",
    )
    return parser


def _write_json(path: Path | None, report) -> None:
    """Write ``report``'s JSON document to the ``--json`` path, if given.

    Raises:
        ReproError: the file cannot be written (exit code 2).
    """
    if path is None:
        return
    try:
        path.write_text(json.dumps(report.to_dict(), indent=2))
    except OSError as error:
        raise ReproError(f"cannot write {path}: {error}") from None
    print(f"wrote {path}")


def build_profile_parser() -> argparse.ArgumentParser:
    """The ``repro profile`` (per-stage cost breakdown) argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description=(
            "Run a named workload with per-stage wall-time "
            "instrumentation enabled and render the cost breakdown "
            "(counts, total/mean time, %-of-run per stage).  The "
            "workload runs once, on one worker, through its command's "
            "default engine.  Profiling never touches "
            "a random stream, so the measured runs are bit-exact with "
            "unprofiled ones.  See docs/performance.md for how to read "
            "the output."
        ),
    )
    parser.add_argument(
        "workload",
        nargs="?",
        choices=WORKLOADS,
        default="dynamic-screen",
        help=(
            "workload to profile: 'dynamic-screen' (tone + FFT per "
            "cell at the nominal point), 'yield-screen' (the repro mc "
            "dynamic + static screens), 'pvt-campaign' (the full "
            "sign-off grid) (default dynamic-screen)"
        ),
    )
    parser.add_argument(
        "--dies",
        type=int,
        default=8,
        metavar="N",
        help="dies (cells) per operating point (default 8)",
    )
    parser.add_argument(
        "--fft-points",
        type=int,
        default=4096,
        metavar="N",
        help="record length per cell (default 4096)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write the profile document "
            f"(schema {PROFILE_REPORT_SCHEMA}) to PATH"
        ),
    )
    return parser


def run_profile(argv: Sequence[str] | None = None) -> int:
    """Run the ``profile`` subcommand; returns a process exit code."""
    args = build_profile_parser().parse_args(argv)
    report = profile_workload(
        args.workload, dies=args.dies, fft_points=args.fft_points
    )
    print(report.render())
    _write_json(args.json, report)
    return 0


def _parse_corners(text: str) -> tuple[Corner, ...]:
    if text.strip().lower() == "all":
        return tuple(Corner)
    try:
        return tuple(
            Corner(token.strip().lower()) for token in text.split(",") if token.strip()
        )
    except ValueError as error:
        raise ReproError(f"unknown corner in --corners: {error}") from None


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(
            float(token) for token in text.split(",") if token.strip()
        )
    except ValueError:
        raise ReproError(f"{flag} must be a comma-separated number list") from None


def build_lint_parser() -> argparse.ArgumentParser:
    """The ``repro lint`` (static invariant checker) argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Statically check the source tree against the documented "
            "determinism invariants: RNG stream discipline, absence of "
            "nondeterminism sources in engine code, campaign-"
            "fingerprint coverage, single-source schema tags, and die "
            "purity.  Intentional exceptions are per-checker "
            "allowlists in code.  See "
            "docs/architecture.md ('Statically enforced')."
        ),
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        metavar="DIR",
        help="repository root to scan (default: auto-detected)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write the lint report "
            f"(schema {LINT_REPORT_SCHEMA}) to PATH"
        ),
    )
    return parser


def run_lint_cli(argv: Sequence[str] | None = None) -> int:
    """Run the ``lint`` subcommand; returns a process exit code."""
    args = build_lint_parser().parse_args(argv)
    try:
        report = analysis_run_lint(root=args.root)
    except LintUsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.render())
    _write_json(args.json, report)
    return 0 if report.clean else 1


def run_campaign_cli(argv: Sequence[str] | None = None) -> int:
    """Run the ``campaign`` subcommand; returns a process exit code."""
    args = build_campaign_parser().parse_args(argv)
    if args.resume and args.ledger is None:
        raise ReproError("--resume needs --ledger")
    spec = _spec_from_args(args)
    if args.shard is not None and args.cell_range is not None:
        raise ReproError("--shard and --cell-range are mutually exclusive")
    cell_range = None
    if args.shard is not None:
        cell_range = spec.shard(*_parse_shard(args.shard))
    elif args.cell_range is not None:
        cell_range = _parse_cell_range(args.cell_range)
    report = run_campaign(
        spec,
        engine=args.engine,
        ledger_path=args.ledger,
        resume=args.resume,
        workers=args.workers,
        progress=_stderr_progress if args.progress else None,
        cell_range=cell_range,
        cell_store=args.cell_store,
    )
    print(report.render())
    _write_json(args.json, report)
    return 1 if report.failures else 0


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        index_text, count_text = text.split("/")
        return int(index_text), int(count_text)
    except ValueError:
        raise ReproError(
            f"--shard must be INDEX/COUNT (e.g. 0/2), got '{text}'"
        ) from None


def _parse_cell_range(text: str) -> tuple[int, int]:
    try:
        start_text, stop_text = text.split(":")
        return int(start_text), int(stop_text)
    except ValueError:
        raise ReproError(
            f"--cell-range must be START:STOP (e.g. 3:9), got '{text}'"
        ) from None


def run_campaign_merge_cli(argv: Sequence[str] | None = None) -> int:
    """Run the ``campaign-merge`` subcommand; returns an exit code."""
    from repro.runtime.shards import merge_campaign_ledgers

    args = build_campaign_merge_parser().parse_args(argv)
    report = merge_campaign_ledgers(args.ledgers, out_ledger=args.out_ledger)
    print(report.render())
    _write_json(args.json, report)
    if args.out_ledger is not None:
        print(f"wrote {args.out_ledger}")
    return 0 if report.complete else 1


def build_campaign_dispatch_parser() -> argparse.ArgumentParser:
    """The ``repro campaign-dispatch`` (gap-driven dispatcher) parser."""
    parser = argparse.ArgumentParser(
        prog="repro campaign-dispatch",
        description=(
            "Run a sharded PVT campaign to completion: plan N shards, "
            "run each in a process forked from this one against its "
            "own ledger, then merge the ledgers, coalesce any missing "
            "cells into contiguous ranges and re-dispatch only those "
            "ranges until the merged grid is complete or the per-cell retry "
            "budget is exhausted.  Resumable: existing ledgers in the "
            "work directory are merged before any work launches."
        ),
    )
    _add_spec_arguments(parser)
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="N",
        help=(
            "first-wave shard count and per-wave concurrency cap "
            "(default 2)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "re-dispatches allowed per cell beyond its first launch "
            "before the dispatch reports exhaustion (default 2)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "kill a shard process exceeding this wall time; its "
            "range re-enters the gap pool (default: no timeout)"
        ),
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help=(
            "longest wait between shard timeout checks; a shard exit "
            "wakes the dispatcher at once (default 0.05)"
        ),
    )
    parser.add_argument(
        "--work-dir",
        type=Path,
        required=True,
        metavar="DIR",
        help=(
            "directory holding the per-range shard ledgers (the unit "
            "of dispatcher resume; one campaign per directory)"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=("pool", "vectorized"),
        default="vectorized",
        help=(
            "execution engine for the shard processes; 'pool' makes "
            "the shard ledgers checkpoint per cell (default vectorized)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per shard process (default 1)",
    )
    parser.add_argument(
        "--cell-store",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "content-addressed cell-result store shared by all shard "
            "processes"
        ),
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write the dispatch report document "
            f"(schema {DISPATCH_REPORT_SCHEMA}) to PATH"
        ),
    )
    return parser


def run_campaign_dispatch_cli(argv: Sequence[str] | None = None) -> int:
    """Run the ``campaign-dispatch`` subcommand; returns an exit code."""
    from repro.runtime.dispatcher import (
        FAULT_KILL_ENV,
        CampaignDispatcher,
        parse_fault_kill,
    )

    args = build_campaign_dispatch_parser().parse_args(argv)
    spec = _spec_from_args(args)
    dispatcher = CampaignDispatcher(
        spec,
        shards=args.shards,
        work_dir=args.work_dir,
        max_retries=args.max_retries,
        timeout_s=args.timeout,
        poll_interval_s=args.poll,
        engine=args.engine,
        workers=args.workers,
        cell_store=args.cell_store,
        fault_kill=parse_fault_kill(os.environ.get(FAULT_KILL_ENV)),
    )
    report = dispatcher.run()
    print(report.render())
    _write_json(args.json, report)
    return 0 if report.complete else 1


def build_cell_store_parser() -> argparse.ArgumentParser:
    """The ``repro cell-store`` (store hygiene) argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro cell-store",
        description=(
            "Hygiene sweeps over a content-addressed cell-result "
            "store: 'stats' counts entries and bytes per campaign "
            "base, 'verify' integrity-checks every entry (--fix moves "
            "damaged entries to <root>/quarantine/ instead of deleting "
            "evidence), 'prune' removes entries by age and/or by "
            "campaign-base digest."
        ),
    )
    parser.add_argument(
        "action",
        choices=("stats", "verify", "prune"),
        help="which sweep to run",
    )
    parser.add_argument(
        "root",
        type=Path,
        metavar="DIR",
        help="the store root directory",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="verify only: quarantine damaged entries under <root>/quarantine/",
    )
    parser.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="prune only: remove entries older than this many days",
    )
    parser.add_argument(
        "--fingerprint",
        default=None,
        metavar="DIGEST",
        help=(
            "prune only: remove entries of this campaign-base digest "
            "(shown by 'stats'; a retired configuration's cells)"
        ),
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="prune only: report what would be removed, touch nothing",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write the sweep report document "
            f"(schema {CELL_STORE_REPORT_SCHEMA}) to PATH"
        ),
    )
    return parser


def run_cell_store_cli(argv: Sequence[str] | None = None) -> int:
    """Run the ``cell-store`` subcommand; returns a process exit code."""
    from repro.runtime.cell_store import CellStore

    args = build_cell_store_parser().parse_args(argv)
    store = CellStore(args.root)
    exit_code = 0
    if args.action == "stats":
        report = store.stats()
    elif args.action == "verify":
        report = store.verify(fix=args.fix)
        exit_code = 0 if report.clean else 1
    else:
        if args.max_age_days is None and args.fingerprint is None:
            raise ReproError(
                "prune needs --max-age-days and/or --fingerprint"
            )
        report = store.prune(
            max_age_s=(
                args.max_age_days * 86400.0
                if args.max_age_days is not None
                else None
            ),
            fingerprint=args.fingerprint,
            now=time.time(),
            dry_run=args.dry_run,
        )
    print(report.render())
    _write_json(args.json, report)
    return exit_code


def _stderr_progress(update: BatchProgress) -> None:
    print(
        f"\r{update.done}/{update.total} tasks "
        f"({update.failed} failed, {update.elapsed_s:.1f} s)",
        end="" if update.done < update.total else "\n",
        file=sys.stderr,
        flush=True,
    )


def run_mc(argv: Sequence[str] | None = None) -> int:
    """Run the ``mc`` subcommand; returns a process exit code."""
    args = build_mc_parser().parse_args(argv)
    spec = YieldSpec(
        min_enob=args.spec_enob,
        max_dnl_lsb=args.spec_dnl,
        max_inl_lsb=args.spec_inl,
        conversion_rate=args.rate,
    )
    report = run_yield_analysis(
        n_dies=args.dies,
        seed=args.seed,
        spec=spec,
        n_fft=args.fft_points,
        seed_strategy=args.seed_strategy,
        engine=args.engine,
        calibrate=args.calibrate,
        calibration_samples_per_code=args.cal_samples,
        workers=args.workers,
        progress=_stderr_progress if args.progress else None,
    )
    print(report.render())
    _write_json(args.json, report)
    return 1 if report.batch.failures else 0


def run_experiments(argv: Sequence[str]) -> int:
    """Run the experiment path; returns a process exit code."""
    args = build_parser().parse_args(argv)
    requested = list(args.experiments)

    if "list" in requested:
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0
    if "all" in requested:
        requested = available_experiments()

    # Unknown ids are rejected by run_experiment_batch; main() turns
    # the ConfigurationError into the stderr message and exit code 2.

    # Stream results in submission order as soon as each experiment
    # finishes (out-of-order completions from the pool are held back
    # until their turn) — a long `repro all` reports incrementally.
    printed: dict[int, object] = {}
    next_index = 0
    all_passed = True

    def emit(outcome) -> None:
        nonlocal all_passed
        if not outcome.ok:
            print(
                f"experiment '{requested[outcome.index]}' failed: "
                f"{outcome.error_type}: {outcome.error}",
                file=sys.stderr,
            )
            all_passed = False
            return
        print(outcome.value.render())
        print()
        all_passed = all_passed and outcome.value.all_passed

    def on_progress(update) -> None:
        nonlocal next_index
        if update.latest is None:
            return
        printed[update.latest.index] = update.latest
        while next_index in printed:
            emit(printed.pop(next_index))
            next_index += 1

    run_experiment_batch(
        requested,
        quick=args.quick,
        workers=args.workers,
        progress=on_progress,
    )
    return 0 if all_passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    try:
        if arguments and arguments[0] == "mc":
            return run_mc(arguments[1:])
        if arguments and arguments[0] == "campaign":
            return run_campaign_cli(arguments[1:])
        if arguments and arguments[0] == "campaign-merge":
            return run_campaign_merge_cli(arguments[1:])
        if arguments and arguments[0] == "campaign-dispatch":
            return run_campaign_dispatch_cli(arguments[1:])
        if arguments and arguments[0] == "cell-store":
            return run_cell_store_cli(arguments[1:])
        if arguments and arguments[0] == "profile":
            return run_profile(arguments[1:])
        if arguments and arguments[0] == "lint":
            return run_lint_cli(arguments[1:])
        return run_experiments(arguments)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
