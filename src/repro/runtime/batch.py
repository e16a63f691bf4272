"""Parallel batch-execution runtime for independent simulation tasks.

Monte Carlo yield runs, PVT corner sweeps and experiment batches all
share one shape: many independent tasks, each a full simulation, whose
results feed distributions and pass/fail summaries.  :class:`BatchRunner`
executes that shape across a ``multiprocessing`` pool with

* chunked dispatch (``imap_unordered``, about four chunks per worker),
* progress callbacks as results stream back,
* structured failure capture — one crashing task is recorded in
  :attr:`BatchResult.failures` instead of killing the batch,
* a :class:`BatchResult` aggregation layer (per-task values, summary
  statistics, JSON serialization for CI artifacts).

:class:`EngineDispatch` is the one route yield screens and sign-off
campaigns take onto the runner: each hands over one measure function,
the dispatch slices dies or cells into tasks (one item per task on the
``pool`` engine, an even split across the workers on ``vectorized``)
and flattens the result to one outcome per item.

The runner calls each task as ``fn(task)`` and nothing else: a task
carries whatever seed it needs, so no result depends on the worker
count or the dispatch chunking.  ``workers=1`` bypasses the pool
entirely and runs the same wrapped tasks in-process, so serial batches
are bit-exact with the legacy serial loops and task callables need not
be picklable.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import multiprocessing
import os
import pickle
import time
import traceback
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import native
from repro.errors import ConfigurationError
from repro.native import blas
from repro.profiling import active as _active_profile
from repro.schemas import BATCH_RESULT_SCHEMA

#: Dispatch chunks per worker: small enough to balance uneven task
#: costs, large enough to amortize IPC.
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class BatchProgress:
    """Snapshot handed to progress callbacks as results arrive.

    Attributes:
        done: tasks finished so far (successes + failures).
        total: tasks in the batch.
        failed: failures among the finished tasks.
        elapsed_s: wall-clock seconds since dispatch started.
        latest: the outcome that just completed (completion order, not
            submission order) — lets callers stream results as they
            arrive instead of waiting for the whole batch.
    """

    done: int
    total: int
    failed: int
    elapsed_s: float
    latest: "TaskOutcome | None" = None


ProgressCallback = Callable[[BatchProgress], None]


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one task, success or failure.

    Attributes:
        index: position of the task in the submitted sequence.
        value: what the task callable returned (None on failure).
        seed: the item's seed, on a per-item :class:`EngineDispatch`
            outcome.
        error: stringified exception, when the task failed.
        error_type: exception class name, when the task failed.
        traceback: formatted traceback from the worker, when available.
        exception: the exception instance itself when it survived the
            trip back from the worker (kept out of serialized output).
        elapsed_s: wall-clock seconds the task took.
    """

    index: int
    value: Any = None
    seed: int | None = None
    error: str | None = None
    error_type: str | None = None
    traceback: str | None = None
    exception: BaseException | None = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready record (drops the live exception object)."""
        return {
            "index": self.index,
            "ok": self.ok,
            "value": json_safe(self.value),
            "seed": self.seed,
            "error": self.error,
            "error_type": self.error_type,
            "elapsed_s": self.elapsed_s,
        }


@dataclass(frozen=True)
class BatchResult:
    """Aggregated outcome of one batch run.

    Attributes:
        outcomes: one :class:`TaskOutcome` per task, in submission order.
        workers: worker-process count the batch actually used.
        chunk_size: dispatch chunk size the batch actually used (for
            an :class:`EngineDispatch` batch: items per task).
        elapsed_s: wall-clock seconds for the whole batch.
    """

    outcomes: tuple[TaskOutcome, ...]
    workers: int
    chunk_size: int
    elapsed_s: float

    @property
    def n_tasks(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> tuple[TaskOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def values(self) -> list[Any]:
        """Values of successful tasks, in submission order."""
        return [o.value for o in self.outcomes if o.ok]

    def raise_first_failure(self) -> None:
        """Re-raise the first failure, if any task failed.

        The original exception instance is re-raised when it survived
        pickling back from the worker; otherwise a ``RuntimeError``
        carrying the worker traceback is raised.
        """
        for outcome in self.outcomes:
            if outcome.ok:
                continue
            if outcome.exception is not None:
                raise outcome.exception
            raise RuntimeError(
                f"task {outcome.index} failed: {outcome.error_type}: "
                f"{outcome.error}\n{outcome.traceback or ''}"
            )

    def metric_rows(self) -> list[dict[str, float]]:
        """Numeric metrics of each successful task (:func:`default_metrics`)."""
        return [default_metrics(value) for value in self.values]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-metric summary statistics across successful tasks."""
        rows = self.metric_rows()
        keys: list[str] = []
        for row in rows:
            for key in row:
                if key not in keys:
                    keys.append(key)
        stats = {}
        for key in keys:
            samples = np.array([row[key] for row in rows if key in row])
            if samples.size == 0:
                continue
            stats[key] = {
                "mean": float(samples.mean()),
                "std": float(samples.std()),
                "median": float(np.median(samples)),
                "min": float(samples.min()),
                "max": float(samples.max()),
            }
        return stats

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready document for CI artifacts."""
        return {
            "schema": BATCH_RESULT_SCHEMA,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "elapsed_s": self.elapsed_s,
            "n_tasks": self.n_tasks,
            "n_failures": len(self.failures),
            "summary": self.summary(),
            "tasks": [o.to_dict() for o in self.outcomes],
        }


def default_metrics(value: Any) -> dict[str, float]:
    """Best-effort numeric metrics from a task value.

    Objects exposing ``to_metrics()`` are asked directly; mappings and
    dataclasses contribute their int/float entries; bare numbers become
    ``{"value": x}``; anything else contributes nothing.
    """
    to_metrics = getattr(value, "to_metrics", None)
    if callable(to_metrics):
        return dict(to_metrics())
    if isinstance(value, Mapping):
        items = value.items()
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        items = dataclasses.asdict(value).items()
    elif isinstance(value, (bool, int, float, np.integer, np.floating)):
        return {"value": float(value)}
    else:
        return {}
    return {
        key: float(entry)
        for key, entry in items
        if isinstance(entry, (bool, int, float, np.integer, np.floating))
    }


def json_safe(value: Any) -> Any:
    """Recursively convert a task value into JSON-serializable types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [json_safe(entry) for entry in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return json_safe(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(key): json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [json_safe(entry) for entry in value]
    if isinstance(value, enum.Enum):
        return json_safe(value.value)
    return str(value)


def _run_task(
    payload: tuple[int, Callable[[Any], Any], Any],
    in_process: bool = False,
) -> TaskOutcome:
    """Execute one wrapped task; never raises (failures become outcomes).

    ``in_process`` marks the serial (workers=1) path: the captured
    exception never crosses a process boundary there, so it is kept
    verbatim instead of being filtered through a pickle round-trip.
    """
    index, fn, task = payload
    start = time.perf_counter()
    try:
        value = fn(task)
        return TaskOutcome(
            index=index,
            value=value,
            elapsed_s=time.perf_counter() - start,
        )
    except Exception as error:  # noqa: BLE001 — failure isolation is the point
        return TaskOutcome(
            index=index,
            error=str(error),
            error_type=type(error).__name__,
            traceback=traceback.format_exc(),
            exception=error if in_process else _if_picklable(error),
            elapsed_s=time.perf_counter() - start,
        )


def _if_picklable(error: BaseException) -> BaseException | None:
    """The exception itself if it can travel across the pool, else None."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:  # noqa: BLE001 — any pickling trouble means "drop it"
        return None
    return error


def _check_workers(workers: int | None) -> None:
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1 or None, got {workers}")


@dataclass(frozen=True)
class BatchRunner:
    """Executes many independent tasks, serially or across a pool.

    Attributes:
        workers: worker processes; 1 (default) runs in-process and is
            bit-exact with a plain serial loop, None uses all CPUs.
        progress: callback invoked with a :class:`BatchProgress` after
            every completed task.

    Task callables must be picklable (module-level functions) when
    ``workers > 1``; the serial path has no such requirement.  The pool
    hands tasks out in chunks of ``ceil(n / (workers * 4))``; results
    never depend on the chunking, which only tunes IPC granularity.
    """

    workers: int | None = 1
    progress: ProgressCallback | None = None

    def __post_init__(self) -> None:
        _check_workers(self.workers)

    def resolve_workers(self, n_tasks: int) -> int:
        """Actual worker count for a batch of ``n_tasks``."""
        workers = self.workers if self.workers is not None else os.cpu_count() or 1
        return max(1, min(workers, n_tasks)) if n_tasks else 1

    def run(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> BatchResult:
        """Execute ``fn`` over every task.

        When profiling is enabled (:mod:`repro.profiling`), each task's
        worker-measured wall time (:attr:`TaskOutcome.elapsed_s`) is
        also folded into the active recorder as a ``dispatch/<fn name>``
        entry when its outcome arrives — this aggregates across worker
        processes, whose own in-process recorders are not collected.
        ``dispatch`` entries overlay the engine-internal stages (they
        time the same work from outside), so ``repro profile`` reports
        them separately from the share-of-run breakdown.

        Args:
            fn: task callable, called as ``fn(task)``.  A task that
                needs a seed carries it.
            tasks: the task inputs, one per execution.

        Returns:
            A :class:`BatchResult` with outcomes in submission order.
        """
        task_list = list(tasks)
        n_tasks = len(task_list)
        workers = self.resolve_workers(n_tasks)
        chunk_size = max(1, math.ceil(n_tasks / (workers * _CHUNKS_PER_WORKER)))
        payloads = [(index, fn, task) for index, task in enumerate(task_list)]

        start = time.perf_counter()
        outcomes: list[TaskOutcome] = []
        failed = 0
        recorder = _active_profile()
        fn_label = getattr(fn, "__name__", type(fn).__name__)

        def note(outcome: TaskOutcome) -> None:
            nonlocal failed
            outcomes.append(outcome)
            if recorder is not None:
                recorder.add("dispatch", fn_label, outcome.elapsed_s)
            if not outcome.ok:
                failed += 1
            if self.progress is not None:
                self.progress(
                    BatchProgress(
                        done=len(outcomes),
                        total=n_tasks,
                        failed=failed,
                        elapsed_s=time.perf_counter() - start,
                        latest=outcome,
                    )
                )

        if workers == 1:
            for payload in payloads:
                note(_run_task(payload, in_process=True))
        else:
            # Workers fork with one BLAS thread each (their concurrent
            # calibration solves would oversubscribe the CPUs otherwise)
            # and with the compiled kernels already loaded.
            native.preload()
            with blas.one_thread(), multiprocessing.Pool(processes=workers) as pool:
                for outcome in pool.imap_unordered(
                    _run_task, payloads, chunksize=chunk_size
                ):
                    note(outcome)

        outcomes.sort(key=lambda outcome: outcome.index)
        return BatchResult(
            outcomes=tuple(outcomes),
            workers=workers,
            chunk_size=chunk_size,
            elapsed_s=time.perf_counter() - start,
        )


#: The execution engines, two names for one measure path: ``pool``
#: dispatches one item per task, ``vectorized`` dispatches item chunks.
ENGINES = ("pool", "vectorized")

#: Most items a vectorized task holds: enough to amortize task
#: dispatch, and the most cells a campaign checkpoints per ledger fsync.
DEFAULT_CHUNK = 8


@dataclass(frozen=True)
class EngineDispatch:
    """The one route from measurement items to :class:`BatchRunner`.

    Yield screens (dies) and sign-off campaigns (cells) both go through
    it: the caller hands over its items, one measure function and the
    task that function takes for a chunk of items.  The engine only
    chooses how many items a task holds.  The dispatch validates the
    engine and the worker count on construction, before its callers
    touch a ledger or fork a shard; it then slices the items into
    chunks, runs them and returns one :class:`TaskOutcome` per item —
    carrying the item's index and seed.

    Attributes:
        engine: ``"pool"`` (one item per task) or ``"vectorized"``
            (the items split evenly across the workers, at most
            :data:`DEFAULT_CHUNK` per task).
        workers: worker processes (1 = serial, None = all CPUs).
    """

    engine: str = "pool"
    workers: int | None = 1

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be 'pool' or 'vectorized', got '{self.engine}'"
            )
        _check_workers(self.workers)

    def run(
        self,
        items: Sequence[Any],
        measure: Callable[[Any], tuple[Any, ...]],
        make_task: Callable[[tuple[Any, ...]], Any],
        *,
        index_of: Callable[[Any], int],
        seed_of: Callable[[Any], int],
        progress: ProgressCallback | None = None,
    ) -> BatchResult:
        """Measure ``items`` in chunks, one outcome per item.

        Args:
            items: the dies or cells to measure, in report order.
            measure: runs one task in a worker and returns a tuple with
                one value per item of the task's chunk.
            make_task: builds the task for a tuple of items.
            index_of: maps an item to its outcome index.
            seed_of: maps an item to the seed recorded on its outcome.
            progress: progress callback, once per task.
        """
        if not items:
            return BatchResult(
                outcomes=(), workers=1, chunk_size=1, elapsed_s=0.0
            )
        runner = BatchRunner(workers=self.workers, progress=progress)
        size = 1
        if self.engine == "vectorized":
            workers = runner.resolve_workers(len(items))
            size = min(-(-len(items) // workers), DEFAULT_CHUNK)
        chunks = [
            tuple(items[low : low + size]) for low in range(0, len(items), size)
        ]
        batch = runner.run(measure, [make_task(chunk) for chunk in chunks])
        return _per_item(batch, chunks, index_of, seed_of)


def _per_item(
    batch: BatchResult,
    chunks: Sequence[tuple[Any, ...]],
    index_of: Callable[[Any], int],
    seed_of: Callable[[Any], int],
) -> BatchResult:
    """Per-item outcomes from a batch whose tasks were item chunks.

    A crashed chunk marks each of its items failed with the chunk's
    error; a successful chunk contributes one outcome per item, and the
    result's ``chunk_size`` is the items per task.  The
    chunk's wall time is amortized evenly across its items — for
    reports only: profiling's ``dispatch`` entries are recorded by
    :meth:`BatchRunner.run` from the chunk outcomes, so they keep true
    per-dispatch wall times.
    """
    outcomes: list[TaskOutcome] = []
    for chunk_outcome in batch.outcomes:
        chunk = chunks[chunk_outcome.index]
        values = chunk_outcome.value if chunk_outcome.ok else (None,) * len(chunk)
        for value, item in zip(values, chunk):
            outcomes.append(
                dataclasses.replace(
                    chunk_outcome,
                    index=index_of(item),
                    value=value,
                    seed=seed_of(item),
                    elapsed_s=chunk_outcome.elapsed_s / len(chunk),
                )
            )
    outcomes.sort(key=lambda outcome: outcome.index)
    return dataclasses.replace(
        batch, outcomes=tuple(outcomes), chunk_size=len(chunks[0])
    )
