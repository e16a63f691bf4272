"""The benchmark's three workloads: inputs from a seed, one job, a reference.

Every workload is a closed loop with one client: the next job starts
when the previous one has returned.  A job returns its per-cell records
in a canonical form (floats as ``float.hex``), so comparing two outputs,
or an output with a committed digest, is a bit-for-bit comparison.  The
references each job is checked against are computed by a different path
through the program (the other engine, or a single process instead of
shards) outside the timed region.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import sys
import time
from pathlib import Path

from repro.core import die_cache
from repro.core.config import AdcConfig
from repro.runtime import campaign, dispatcher, montecarlo, shards
from repro.runtime.campaign import CampaignSpec, CellTask
from repro.technology.corners import Corner

#: Shard poll cadence.  The default 50 ms quantizes a 0.45 s job into
#: steps of 11%, which turns small load changes into jumps of the median.
POLL_INTERVAL_S = 0.01


class JobError(Exception):
    """A job returned, but its report is incomplete or inconsistent."""


def canonical(record: object) -> dict:
    """A dataclass record with every float spelled exactly."""
    return {
        key: value.hex() if isinstance(value, float) else value
        for key, value in dataclasses.asdict(record).items()
    }


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _inputs_rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


class SignoffGrid:
    """``run_campaign`` over the default 5-corner x 3-temperature grid."""

    name = "signoff-grid"

    def __init__(self, seed: int, tiny: bool = False):
        rng = _inputs_rng(seed, self.name)
        if tiny:
            self.spec = CampaignSpec(
                corners=(Corner.TT, Corner.SS),
                temperatures_c=(27.0,),
                n_dies=1,
                seed=rng.randrange(2**31),
                n_samples=512,
            )
        else:
            self.spec = CampaignSpec(n_dies=4, seed=rng.randrange(2**31))

    def inputs(self) -> dict:
        return {"die_seeds": list(self.spec.resolved_die_seeds())}

    def job(self, workdir: Path, number: int) -> list[dict]:
        die_cache.clear()
        report = campaign.run_campaign(
            self.spec,
            engine="vectorized",
            workers=1,
            ledger_path=workdir / "ledger.jsonl",
        )
        if not report.complete or len(report.cells) != self.spec.n_cells:
            raise JobError(f"campaign incomplete: {len(report.cells)} cells")
        return [canonical(cell) for cell in report.cells]

    def references(self) -> list[list[dict]]:
        """Every cell through the serial testbench, one at a time."""
        config = AdcConfig.paper_default()
        tasks = [CellTask(cell, config, self.spec) for cell in self.spec.cells()]
        return [[canonical(campaign.measure_cell(task)) for task in tasks]]


class YieldPool:
    """``run_yield_analysis(calibrate=True, engine="pool", workers=2)``.

    Job *k* screens lot *k* mod ``LOTS``.  A few dies of a lot can cost
    three times the others (their PVT draw lands in an expensive regime),
    so one lot per run would make the run's median depend on the seed's
    luck; cycling several lots averages that out.
    """

    name = "yield-pool"
    LOTS = 4

    def __init__(self, seed: int, tiny: bool = False):
        rng = _inputs_rng(seed, self.name)
        self.n_dies = 2 if tiny else 6
        self.n_fft = 1024 if tiny else 4096
        self.lots = [rng.randrange(2**31) for _ in range(self.LOTS)]

    def inputs(self) -> dict:
        return {"mc_seeds": self.lots, "n_dies": self.n_dies}

    def _run(self, lot: int, engine: str, workers: int) -> list[dict]:
        report = montecarlo.run_yield_analysis(
            n_dies=self.n_dies,
            seed=lot,
            n_fft=self.n_fft,
            calibrate=True,
            engine=engine,
            workers=workers,
        )
        if report.batch.failures or len(report.dies) != self.n_dies:
            raise JobError(f"yield run incomplete: {len(report.dies)} dies")
        return [canonical(die) for die in report.dies]

    def job(self, workdir: Path, number: int) -> list[dict]:
        die_cache.clear()
        return self._run(self.lots[number % self.LOTS], "pool", 2)

    def references(self) -> list[list[dict]]:
        """The same lots through the die-batched engine in one process."""
        die_cache.clear()
        return [self._run(lot, "vectorized", 1) for lot in self.lots]


class IterateDispatch:
    """Dispatch a small grid over 2 shards, then iterate one corner wider."""

    name = "iterate-dispatch"

    def __init__(self, seed: int, tiny: bool = False):
        rng = _inputs_rng(seed, self.name)
        corners = rng.sample(list(Corner), 3 if tiny else 4)
        temperatures = rng.sample([-40.0, 0.0, 27.0, 85.0, 125.0], 1 if tiny else 2)
        settings = dict(
            temperatures_c=tuple(sorted(temperatures)),
            n_dies=1 if tiny else 3,
            seed=rng.randrange(2**31),
            n_samples=512,
        )
        self.grid = CampaignSpec(corners=tuple(corners[:-1]), **settings)
        self.wider = CampaignSpec(corners=tuple(corners), **settings)

    def inputs(self) -> dict:
        return {
            "corners": [corner.value for corner in self.wider.corners],
            "temperatures_c": list(self.wider.temperatures_c),
            "die_seeds": list(self.wider.resolved_die_seeds()),
        }

    def job(self, workdir: Path, number: int) -> list[dict]:
        die_cache.clear()
        store = workdir / "store"
        work = workdir / "work"
        dispatch = dispatcher.CampaignDispatcher(
            self.grid,
            shards=2,
            work_dir=work,
            cell_store=store,
            poll_interval_s=POLL_INTERVAL_S,
        ).run()
        if not dispatch.complete:
            raise JobError(f"dispatch incomplete: missing {dispatch.missing_cells}")
        merged = shards.merge_campaign_ledgers(sorted(work.glob("range-*.jsonl")))
        if merged.cells != dispatch.report.cells:
            raise JobError("merged shard ledgers disagree with the dispatch report")
        wider = campaign.run_campaign(
            self.wider,
            engine="vectorized",
            workers=1,
            ledger_path=workdir / "iterate.jsonl",
            cell_store=store,
        )
        if not wider.complete or wider.cached_cells != self.grid.n_cells:
            raise JobError(f"iteration reused {wider.cached_cells} stored cells")
        return [canonical(cell) for cell in dispatch.report.cells + wider.cells]

    def references(self) -> list[list[dict]]:
        """Both grids as plain single-process campaigns, no store."""
        die_cache.clear()
        cells = ()
        for spec in (self.grid, self.wider):
            cells += campaign.run_campaign(spec, engine="vectorized").cells
        return [[canonical(cell) for cell in cells]]


WORKLOADS = {
    workload.name: workload for workload in (SignoffGrid, YieldPool, IterateDispatch)
}


def fresh_dir(root: Path, name: str) -> Path:
    path = root / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_loop(workload, references, seconds, workdir, job=None, doctor=None) -> dict:
    """Closed loop: jobs back to back until ``seconds`` and two jobs passed.

    Job *k* must reproduce ``references[k % len(references)]`` bit for
    bit.  ``job`` replaces the plain job call (the traced run passes one
    that records spans); ``doctor`` may alter a job's records before they
    are checked (self-tests only).  Returns per-job wall times, verified
    cells, failures, the loop's wall time and what ``job`` returned
    beside each result.
    """
    times, failed, cells, extras = [], 0, 0, []
    expected = [json.dumps(reference, sort_keys=True) for reference in references]
    started = time.monotonic()
    while len(times) < 2 or time.monotonic() - started < seconds:
        number = len(times)
        jobdir = fresh_dir(workdir, f"job-{number}")
        begin = time.monotonic()
        try:
            if job is None:
                records, extra = workload.job(jobdir, number), None
            else:
                records, extra = job(number, lambda: workload.job(jobdir, number))
        except Exception as error:  # noqa: BLE001 — a raising job is a failed job
            print(f"job {number} raised {error!r}", file=sys.stderr)
            records, extra = None, None
        times.append(time.monotonic() - begin)
        shutil.rmtree(jobdir, ignore_errors=True)
        extras.append(extra)
        if doctor is not None and records is not None:
            records = doctor(number, records)
        output = json.dumps(records, sort_keys=True)
        if records is not None and output == expected[number % len(expected)]:
            cells += len(records)
        else:
            failed += 1
            if records is not None:
                print(f"job {number} differs from its reference", file=sys.stderr)
    return {
        "job_s": times,
        "failed": failed,
        "cells": cells,
        "loop_s": time.monotonic() - started,
        "extras": extras,
    }
