"""Batch-execution runtime: parallel dispatch of independent simulations.

The runtime is the scaling layer every fan-out workload goes through:

* :class:`BatchRunner` — worker-pool execution of ``fn(task)`` with
  chunked dispatch, progress callbacks and failure isolation;
  :class:`~repro.runtime.batch.EngineDispatch`, the one route yield
  screens and campaigns take onto it.
* :mod:`repro.runtime.seeding` — ``SeedSequence``-spawned per-die
  seeds, carried inside the tasks, so invariant to chunking and worker
  count.
* :mod:`repro.runtime.montecarlo` — the Monte Carlo yield workload
  (die measurement tasks, yield reports) built on the runner.
* :mod:`repro.runtime.campaign` — PVT sign-off campaigns in chunks
  of cells, with resumable JSONL run ledgers, built on the runner.
* :mod:`repro.runtime.shards` — a shard is a ``[start, stop)`` cell
  range of a campaign; the one ledger-union rule that merges shard
  ledgers back into a campaign report.
* :mod:`repro.runtime.dispatcher` — the gap-driven dispatch loop: runs
  shards in forked processes and re-dispatches only missing cells
  until the merged grid is complete.
* :mod:`repro.runtime.cell_store` — the content-addressed on-disk
  store of completed cells, shared across campaigns, plus its
  stats/verify/prune hygiene sweeps.
* :mod:`repro.runtime.profiling` — opt-in per-stage wall-time
  instrumentation (the ``repro profile`` workloads and reports; the
  timing primitive itself lives in the leaf :mod:`repro.profiling`).
"""

from repro.profiling import ProfileRecorder, profile_step, profiled
from repro.runtime.batch import (
    BatchProgress,
    BatchResult,
    BatchRunner,
    TaskOutcome,
)
from repro.runtime.campaign import (
    CampaignCell,
    CampaignLedger,
    CampaignReport,
    CampaignSpec,
    CellMetrics,
    run_campaign,
)
from repro.runtime.montecarlo import (
    DieMetrics,
    DieTask,
    YieldReport,
    YieldSpec,
    measure_die,
    run_yield_analysis,
)
from repro.runtime.profiling import ProfileReport, profile_workload
from repro.runtime.seeding import derive_seeds, spawn_sequences

__all__ = [
    "BatchProgress",
    "BatchResult",
    "BatchRunner",
    "CampaignCell",
    "CampaignLedger",
    "CampaignReport",
    "CampaignSpec",
    "CellMetrics",
    "DieMetrics",
    "DieTask",
    "ProfileRecorder",
    "ProfileReport",
    "TaskOutcome",
    "YieldReport",
    "YieldSpec",
    "derive_seeds",
    "measure_die",
    "profile_step",
    "profile_workload",
    "profiled",
    "run_campaign",
    "run_yield_analysis",
    "spawn_sequences",
]
