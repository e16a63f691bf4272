"""Gap-driven dispatch loop: sharded campaigns that finish themselves.

A shard killed mid-run leaves its ledger partial, and ``repro
campaign-merge`` reports the gap.  :class:`CampaignDispatcher` acts on
that report.  It plans shards from a
:class:`~repro.runtime.campaign.CampaignSpec` and runs each cell range
in a child process forked from the dispatcher, which calls
:func:`~repro.runtime.campaign.run_campaign` with ``cell_range`` and
``resume=True`` against the range's own ledger.  Then it loops: merge
every ledger in the work directory, read the missing cell indices,
coalesce them into contiguous ranges
(:func:`repro.runtime.shards.coalesce_cell_ranges`) and re-dispatch
*only those ranges* — until the merge is complete or the retry budget
is exhausted.

A forked shard starts warm: numpy and ``repro`` are already imported
(a fresh ``python -m repro`` interpreter costs about 0.45 s to start on
a 2-CPU Linux host), and the child inherits the dispatcher's
:class:`~repro.core.config.AdcConfig`, die cache and loaded compiled
kernels (:mod:`repro.native`) as they are.  Its
stdout and stderr go to ``os.devnull``.  The ``fork`` start method is
POSIX-only; ``repro campaign --cell-range`` stays for hand-run shards.

Design rules, in order:

1. **The merge is the source of truth.**  The dispatcher never trusts
   a shard's exit code to decide what work remains — a shard that
   died after completing 5 of 6 cells contributed 5 cells, and only
   the ledger knows.  Every round re-reads every ledger; the retry
   unit is a gap range, not a shard.
2. **Resumable at the dispatcher level.**  Existing ledgers in the
   work directory are merged *before* any work is launched, so a
   crashed dispatcher recovers the same way a crashed shard does:
   re-run the same command, only the gaps execute.  Re-dispatched
   ranges resume their ledger, so even a partially-complete retry
   keeps its cells.
3. **Deterministic decisions.**  Retry order and range planning
   derive from the merged ledgers alone — no wall clock and no
   ``random`` in any decision path (``repro lint`` stays clean; the
   only clock reads are the timeout/wait *measurements*, which decide
   nothing about the results).  A retry round launches as soon as the
   previous round is reaped.
4. **Failure is bounded.**  Each cell may be dispatched at most
   ``1 + max_retries`` times; a range that keeps dying exhausts the
   budget and the report says so instead of looping forever.  A shard
   that outlives ``timeout_s`` is SIGKILLed and its range re-enters
   the gap pool.

Fault injection for tests and the CI gate: ``REPRO_FAULT_KILL_SHARD``
(``"<range-position>"`` or ``"<range-position>:<after-cells>"``) arms
the given first-round shard to SIGKILL itself from ``run_campaign``'s
progress callback once it has recorded the given number of cells while
cells of its range remain — a deterministic stand-in for the preempted
worker the loop exists to survive.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import sys
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from multiprocessing.process import BaseProcess
from pathlib import Path

from repro import native
from repro.core.config import AdcConfig
from repro.errors import ConfigurationError
from repro.profiling import active
from repro.runtime.batch import BatchProgress, EngineDispatch, ProgressCallback
from repro.runtime.campaign import (
    CampaignLedger,
    CampaignReport,
    CampaignSpec,
    CellMetrics,
    LedgerContents,
    run_campaign,
)
from repro.runtime.shards import coalesce_cell_ranges, union_ledgers
from repro.schemas import DISPATCH_REPORT_SCHEMA

#: Environment hook the CLI turns into ``fault_kill`` (see module doc).
FAULT_KILL_ENV = "REPRO_FAULT_KILL_SHARD"


@dataclass(frozen=True)
class DispatchAttempt:
    """One shard process launched for one cell range.

    Attributes:
        start: first grid cell of the dispatched range.
        stop: one past the last grid cell of the range.
        round: dispatch round (0 = the initial wave).
        attempt: highest per-cell dispatch count this launch represents
            (1-based; budgeted against ``1 + max_retries``).
        ledger: the shard ledger the process wrote.
        exit_code: the shard process exit code (negative = killed by
            that signal, e.g. -9 after a timeout or injected fault).
        timed_out: True when the dispatcher killed the shard for
            exceeding ``timeout_s``.
        fault_injected: True when the test/CI fault hook made it kill
            itself.
        elapsed_s: wall seconds from launch to reap.
    """

    start: int
    stop: int
    round: int
    attempt: int
    ledger: str
    exit_code: int | None
    timed_out: bool
    fault_injected: bool
    elapsed_s: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class DispatchReport:
    """The full history of one dispatch run, plus the merged campaign.

    Attributes:
        spec: the campaign grid and bench settings.
        shards: planned first-wave shard count (also the concurrency
            cap for every later wave).
        max_retries: re-dispatches allowed per cell beyond the first.
        timeout_s: per-shard kill deadline (None = none).
        rounds: dispatch rounds actually run.
        attempts: every launched shard, in launch order.
        resumed_cells: cells already present in the work directory
            before any shard was launched (dispatcher resume).
        unreadable_ledgers: work-dir ledgers skipped as unreadable
            (deleted and re-run rather than merged).
        complete: the merged grid has no missing cells.
        exhausted: the retry budget ran out with cells still missing.
        missing_cells: grid indices still absent from the merge.
        report: the merged :class:`CampaignReport` (the sign-off
            document; bit-identical to a single-process run when
            complete).
        elapsed_s: dispatcher wall time end to end.
    """

    spec: CampaignSpec
    shards: int
    max_retries: int
    timeout_s: float | None
    rounds: int
    attempts: tuple[DispatchAttempt, ...]
    resumed_cells: int
    unreadable_ledgers: tuple[str, ...]
    complete: bool
    exhausted: bool
    missing_cells: tuple[int, ...]
    report: CampaignReport
    elapsed_s: float

    @property
    def redispatched_ranges(self) -> tuple[tuple[int, int], ...]:
        """Ranges launched after the initial wave, in launch order."""
        return tuple(
            (attempt.start, attempt.stop)
            for attempt in self.attempts
            if attempt.round > 0
        )

    def to_dict(self) -> dict:
        return {
            "schema": DISPATCH_REPORT_SCHEMA,
            "shards": self.shards,
            "max_retries": self.max_retries,
            "timeout_s": self.timeout_s,
            "rounds": self.rounds,
            "n_attempts": len(self.attempts),
            "attempts": [attempt.to_dict() for attempt in self.attempts],
            "redispatched_ranges": [
                list(cell_range)
                for cell_range in self.redispatched_ranges
            ],
            "resumed_cells": self.resumed_cells,
            "unreadable_ledgers": list(self.unreadable_ledgers),
            "complete": self.complete,
            "exhausted": self.exhausted,
            "missing_cells": list(self.missing_cells),
            "elapsed_s": self.elapsed_s,
            "campaign": self.report.to_dict(),
        }

    def render(self) -> str:
        # An exhausted dispatch can end with zero cells; the campaign
        # report cannot render a worst cell then.
        if self.report.cells:
            lines = [self.report.render(), ""]
        else:
            lines = ["dispatch completed no cells", ""]
        for attempt in self.attempts:
            notes = []
            if attempt.timed_out:
                notes.append("timed out")
            if attempt.fault_injected:
                notes.append("fault-killed")
            note = f" ({', '.join(notes)})" if notes else ""
            lines.append(
                f"  round {attempt.round}: cells "
                f"[{attempt.start}, {attempt.stop}) attempt "
                f"{attempt.attempt} -> exit {attempt.exit_code}"
                f"{note}, {attempt.elapsed_s:.2f} s"
            )
        if self.complete:
            status = "complete"
        elif self.exhausted:
            status = (
                f"EXHAUSTED with {len(self.missing_cells)} cell(s) "
                "missing"
            )
        else:
            status = f"INCOMPLETE ({len(self.missing_cells)} missing)"
        resumed = (
            f" {self.resumed_cells} cell(s) resumed from work dir,"
            if self.resumed_cells
            else ""
        )
        lines.append(
            f"dispatch: {status}, {self.shards} shard(s), "
            f"{self.rounds} round(s), {len(self.attempts)} "
            f"dispatch(es),{resumed} {self.elapsed_s:.2f} s"
        )
        return "\n".join(lines)


@dataclass
class _Launched:
    """Bookkeeping for one running forked shard."""

    start: int
    stop: int
    attempt: int
    ledger: Path
    process: BaseProcess
    started_monotonic: float
    deadline_monotonic: float | None
    fault_armed: bool
    timed_out: bool = False


class CampaignDispatcher:
    """Run a sharded campaign to completion through gap re-dispatch.

    Args:
        spec: the campaign grid and bench settings.
        config: converter configuration (paper default when omitted).
        shards: first-wave shard count and per-wave concurrency cap
            (clamped to the grid size).
        work_dir: directory holding the per-shard ledgers; the unit of
            dispatcher resume.  Must not mix campaigns.
        max_retries: re-dispatches allowed per cell beyond its first
            launch before the budget is exhausted.
        timeout_s: SIGKILL a shard process exceeding this wall time;
            its range re-enters the gap pool.
        poll_interval_s: longest wait between timeout checks (a
            shard exit wakes the dispatcher at once).
        engine: execution engine for the shard processes (``"pool"``
            makes the ledger checkpoint per cell — what the
            fault-injection tests and CI gate use).
        workers: worker processes per shard process.
        cell_store: content-addressed cell store shared by all shards.
        fault_kill: ``(range_position, after_cells)`` — the
            first-round shard at that launch position SIGKILLs itself
            once it has recorded ``after_cells`` cells (and, so the
            fault always leaves a gap to recover, while cells of its
            range remain).  Test/CI hook; the CLI fills it from
            ``REPRO_FAULT_KILL_SHARD``.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        config: AdcConfig | None = None,
        *,
        shards: int,
        work_dir: str | Path,
        max_retries: int = 2,
        timeout_s: float | None = None,
        poll_interval_s: float = 0.05,
        engine: str = "vectorized",
        workers: int = 1,
        cell_store: str | Path | None = None,
        fault_kill: tuple[int, int] | None = None,
    ):
        if shards < 1:
            raise ConfigurationError(
                f"dispatcher needs >= 1 shard, got {shards}"
            )
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {timeout_s}"
            )
        if poll_interval_s <= 0:
            raise ConfigurationError(
                f"poll_interval_s must be positive, got {poll_interval_s}"
            )
        # Reject an unknown engine or a bad worker count here, not in
        # every forked shard.
        EngineDispatch(engine=engine, workers=workers)
        self.spec = spec
        self.config = config or AdcConfig.paper_default()
        self.shards = min(shards, spec.n_cells)
        self.work_dir = Path(work_dir)
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        self.poll_interval_s = poll_interval_s
        self.engine = engine
        self.workers = workers
        self.cell_store = cell_store
        self.fault_kill = fault_kill
        self._fingerprint = spec.fingerprint(self.config)

    # --- planning --------------------------------------------------------

    def plan_ranges(
        self, missing: tuple[int, ...]
    ) -> tuple[tuple[int, int], ...]:
        """The cell ranges one round dispatches for these missing cells.

        A full grid splits exactly like :meth:`CampaignSpec.shards`
        (contiguous, disjoint, balanced to within one cell); partial
        gaps coalesce into contiguous ranges, and the widest ranges
        split in half until the round has up to ``shards`` units of
        work (never splitting below one cell).  Pure function of the
        inputs — no clock, no RNG.
        """
        if not missing:
            return ()
        if len(missing) == self.spec.n_cells:
            return self.spec.shards(self.shards)
        ranges = list(coalesce_cell_ranges(missing))
        while len(ranges) < self.shards:
            widest = max(
                range(len(ranges)),
                key=lambda i: (ranges[i][1] - ranges[i][0], -i),
            )
            start, stop = ranges[widest]
            if stop - start < 2:
                break
            mid = (start + stop) // 2
            ranges[widest : widest + 1] = [(start, mid), (mid, stop)]
        return tuple(sorted(ranges))

    def _ledger_path(self, start: int, stop: int) -> Path:
        return self.work_dir / f"range-{start:06d}-{stop:06d}.jsonl"

    # --- merge (the source of truth) -------------------------------------

    def _gather(self, unreadable: list[str]) -> dict[int, CellMetrics]:
        """Merge every readable work-dir ledger into one record map.

        The merge rules are :func:`~repro.runtime.shards.union_ledgers`.
        Unreadable ledgers (empty file, torn header — the remains of a
        killed shard — or bytes that are not UTF-8) are added to ``unreadable`` (once per path) and
        deleted; their cells stay missing and re-run into a fresh
        ledger.  A ledger from a *different campaign* is an error: the
        work directory is the dispatcher's resume identity, and mixing
        campaigns in one would corrupt it silently.
        """
        readable: list[tuple[Path, LedgerContents]] = []
        for path in sorted(self.work_dir.glob("range-*.jsonl")):
            try:
                readable.append((path, CampaignLedger(path).read()))
            except ConfigurationError:
                if str(path) not in unreadable:
                    unreadable.append(str(path))
                path.unlink(missing_ok=True)
        fingerprint, records = union_ledgers(readable)
        if fingerprint not in (None, self._fingerprint):
            raise ConfigurationError(
                f"work dir {self.work_dir} holds ledger {readable[0][0]} "
                "from a different campaign; refusing to dispatch into it"
            )
        return records

    def _missing(
        self, records: dict[int, CellMetrics]
    ) -> tuple[int, ...]:
        return tuple(
            index
            for index in range(self.spec.n_cells)
            if index not in records
        )

    # --- the loop --------------------------------------------------------

    def run(self) -> DispatchReport:
        """Dispatch until the merge is complete or retries are exhausted."""
        t_start = time.monotonic()
        self.work_dir.mkdir(parents=True, exist_ok=True)
        unreadable: list[str] = []
        records = self._gather(unreadable)
        resumed_cells = len(records)
        attempts: list[DispatchAttempt] = []
        dispatch_count: dict[int, int] = {}
        fault = self.fault_kill
        rounds = 0
        exhausted = False
        while True:
            missing = self._missing(records)
            if not missing:
                break
            ranges = self.plan_ranges(missing)
            wave = []
            for start, stop in ranges:
                attempt_no = 1 + max(
                    dispatch_count.get(index, 0)
                    for index in range(start, stop)
                )
                wave.append((start, stop, attempt_no))
            if any(
                attempt_no > 1 + self.max_retries
                for _, _, attempt_no in wave
            ):
                exhausted = True
                break
            attempts.extend(
                self._run_wave(wave, rounds, fault if rounds == 0 else None)
            )
            fault = None
            for start, stop, _ in wave:
                for index in range(start, stop):
                    dispatch_count[index] = (
                        dispatch_count.get(index, 0) + 1
                    )
            rounds += 1
            records = self._gather(unreadable)
        missing = self._missing(records)
        return DispatchReport(
            spec=self.spec,
            shards=self.shards,
            max_retries=self.max_retries,
            timeout_s=self.timeout_s,
            rounds=rounds,
            attempts=tuple(attempts),
            resumed_cells=resumed_cells,
            unreadable_ledgers=tuple(unreadable),
            complete=not missing,
            exhausted=exhausted,
            missing_cells=missing,
            report=CampaignReport.from_records(self.spec, records),
            elapsed_s=time.monotonic() - t_start,
        )

    def _run_wave(
        self,
        wave: list[tuple[int, int, int]],
        round_index: int,
        fault: tuple[int, int] | None,
    ) -> list[DispatchAttempt]:
        """Launch one round's ranges (at most ``shards`` concurrent)."""
        wave_start = time.monotonic()
        context = multiprocessing.get_context("fork")
        native.preload()  # loaded and checked once, inherited by shards
        pending = list(wave)
        position = 0
        running: list[_Launched] = []
        finished: list[tuple[_Launched, int]] = []
        while pending or running:
            while pending and len(running) < self.shards:
                start, stop, attempt_no = pending.pop(0)
                ledger = self._ledger_path(start, stop)
                armed = fault is not None and position == fault[0]
                process = context.Process(
                    target=self._run_shard,
                    args=(start, stop, ledger, fault[1] if armed else None),
                )
                now = time.monotonic()
                process.start()
                position += 1
                running.append(
                    _Launched(
                        start=start,
                        stop=stop,
                        attempt=attempt_no,
                        ledger=ledger,
                        process=process,
                        started_monotonic=now,
                        deadline_monotonic=(
                            now + self.timeout_s
                            if self.timeout_s is not None
                            else None
                        ),
                        fault_armed=armed,
                    )
                )
            still_running: list[_Launched] = []
            for launched in running:
                code = launched.process.exitcode
                if code is not None:
                    launched.process.close()
                    finished.append((launched, code))
                    continue
                if (
                    launched.deadline_monotonic is not None
                    and time.monotonic() > launched.deadline_monotonic
                ):
                    launched.timed_out = True
                    launched.process.kill()
                still_running.append(launched)
            running = still_running
            if running:
                wait(
                    [launched.process.sentinel for launched in running],
                    self.poll_interval_s,
                )
        recorder = active()
        if recorder is not None:
            recorder.add(
                "dispatch",
                "shard-wait",
                time.monotonic() - wave_start,
                count=len(wave),
            )
        reap_time = time.monotonic()
        return [
            DispatchAttempt(
                start=launched.start,
                stop=launched.stop,
                round=round_index,
                attempt=launched.attempt,
                ledger=str(launched.ledger),
                exit_code=code,
                timed_out=launched.timed_out,
                fault_injected=(
                    launched.fault_armed
                    and not launched.timed_out
                    and code == -signal.SIGKILL
                ),
                elapsed_s=reap_time - launched.started_monotonic,
            )
            for launched, code in finished
        ]

    def _run_shard(
        self,
        start: int,
        stop: int,
        ledger: Path,
        fault_after_cells: int | None,
    ) -> None:
        """The forked shard: run ``[start, stop)`` into its ledger.

        Exits 1 when a cell crashed, like ``repro campaign``.  Output
        goes to ``os.devnull`` at both the stream and the descriptor
        level, so nothing the shard prints reaches the dispatcher's
        stdout or stderr.
        """
        sink = open(os.devnull, "w")
        os.dup2(sink.fileno(), 1)
        os.dup2(sink.fileno(), 2)
        sys.stdout = sys.stderr = sink
        report = run_campaign(
            self.spec,
            self.config,
            engine=self.engine,
            ledger_path=ledger,
            resume=True,
            cell_range=(start, stop),
            workers=self.workers,
            cell_store=self.cell_store,
            progress=(
                None
                if fault_after_cells is None
                else _kill_self_after(fault_after_cells)
            ),
        )
        if report.failures:
            raise SystemExit(1)


def _kill_self_after(after_cells: int) -> ProgressCallback:
    """Progress callback that SIGKILLs this process mid-range.

    ``run_campaign`` calls it after each batch of fresh cells reaches
    the ledger.  It fires once ``after_cells`` cells are recorded and
    tasks remain, so the kill always leaves a gap; a range measured in
    one task simply completes.
    """
    recorded = 0

    def progress(update: BatchProgress) -> None:
        nonlocal recorded
        outcome = update.latest
        if outcome is not None and outcome.ok:
            value = outcome.value
            recorded += len(value) if isinstance(value, tuple) else 1
        if recorded >= after_cells and update.done < update.total:
            os.kill(os.getpid(), signal.SIGKILL)

    return progress


def parse_fault_kill(value: str | None) -> tuple[int, int] | None:
    """Parse the ``REPRO_FAULT_KILL_SHARD`` hook value.

    ``"1"`` kills first-round shard 1 after its first recorded batch
    of cells; ``"1:3"`` waits until it has recorded 3 cells.  Either way
    the kill only fires while the shard still has cells left to write.
    None/empty: no fault.
    """
    if not value:
        return None
    position_text, _, after_text = value.partition(":")
    try:
        position = int(position_text)
        after_cells = int(after_text) if after_text else 0
        if position < 0 or after_cells < 0:
            raise ValueError
    except ValueError:
        raise ConfigurationError(
            f"{FAULT_KILL_ENV} must be POSITION[:AFTER_CELLS] with "
            f"non-negative integers, got {value!r}"
        ) from None
    return (position, after_cells)


__all__ = [
    "FAULT_KILL_ENV",
    "CampaignDispatcher",
    "DispatchAttempt",
    "DispatchReport",
    "parse_fault_kill",
]
