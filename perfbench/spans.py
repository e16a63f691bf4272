"""Span tracing for the benchmark, installed from outside the program.

The benchmark wraps the public entry points of each layer of ``repro``
(class attributes, and module functions in every module that imported
them by name) with a recorder of spans: name, layer, start, end, parent
span and job id.  Nothing under ``src/`` changes.  Spans stay in memory;
forked pool workers append theirs to one file per process when their
top-level span closes, and the job's process merges those files after
every job.  :func:`reduce_job` turns a job's spans into self times and a
wall-time ladder.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path

#: Layers in ladder order; the remainder is the job's own span.  The cli
#: layer runs only in shard subprocesses, inside the dispatcher's wait,
#: and is measured on its own (``cli.import_s``).
LAYERS = (
    "core",
    "calibration",
    "signal",
    "batch",
    "campaign",
    "cell_store",
    "shards",
    "dispatcher",
    "montecarlo",
)

_ACTIVE: Tracer | None = None


class Tracer:
    """In-memory span recorder for one process tree.

    Pool workers forked while a job is open inherit the open-span stack,
    so their top-level spans name the parent process's span as parent.
    """

    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.span_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.job: int | None = None
        self.pid = os.getpid()
        self._count = 0
        self._inherited = 0

    def _forked(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._count = 0
        self._inherited = len(self.stack)

    def open(self) -> str:
        self._count += 1
        span_id = f"{self.pid}.{self._count}"
        self.stack.append(span_id)
        return span_id

    def close(self, span: dict) -> None:
        self.stack.pop()
        self.spans.append(span)
        if self._inherited and len(self.stack) == self._inherited:
            # A forked worker finished a top-level task: hand the spans
            # to the job's process before the task result travels back.
            path = self.span_dir / f"spans-{self.pid}.jsonl"
            with open(path, "a") as out:
                for record in self.spans:
                    out.write(json.dumps(record) + "\n")
            self.spans = []

    def collect_workers(self) -> list[dict]:
        """Read and remove every span file the forked workers wrote."""
        spans = []
        for path in sorted(self.span_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
            path.unlink()
        return spans

    def run_job(self, job: int, fn: Callable[[], object]) -> tuple[object, list]:
        """Run ``fn`` as job ``job`` under a root span; return its spans."""
        first = len(self.spans)
        self.job = job
        try:
            result = _traced(fn, "job", None)()
        finally:
            self.job = None
        return result, self.spans[first:] + self.collect_workers()


def _after_fork() -> None:
    if _ACTIVE is not None:
        _ACTIVE._forked()


os.register_at_fork(after_in_child=_after_fork)


def _traced(
    fn: Callable,
    name: str,
    layer: str | None,
    note: Callable[[tuple, object], dict] | None = None,
) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None or tracer.job is None:
            return fn(*args, **kwargs)
        parent = tracer.stack[-1] if tracer.stack else None
        span_id = tracer.open()
        start = time.monotonic_ns()
        attrs: dict = {}
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                attrs = note(args, result)
            return result
        finally:
            tracer.close(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "layer": layer,
                    "start": start,
                    "end": time.monotonic_ns(),
                    "job": tracer.job,
                    "attrs": attrs,
                }
            )

    return traced


# --- what each wrapper records ---------------------------------------------


def _samples(args, result) -> dict:
    return {"samples": int(result.codes.size)}


def _rows(args, result) -> dict:
    """Records in the array argument: one, or one per row of a block."""
    data = args[1] if len(args) > 1 and hasattr(args[1], "ndim") else args[0]
    return {"units": 1 if data.ndim == 1 else int(data.shape[0])}


def _calibrated_dies(args, result) -> dict:
    array = getattr(args[0], "array", None)
    return {"units": 1 if array is None else array.n_dies}


def _batch(args, result) -> dict:
    return {
        "tasks": result.n_tasks,
        "task_s": sum(outcome.elapsed_s for outcome in result.outcomes),
        "elapsed_s": result.elapsed_s,
        "workers": result.workers,
    }


def _store_get(args, result) -> dict:
    return {"hit": int(result is not None)}


def _dispatch(args, result) -> dict:
    return {
        "elapsed_s": result.elapsed_s,
        "rounds": result.rounds,
        "attempts": [[a.round, a.elapsed_s] for a in result.attempts],
    }


def _ledger_records(args, result) -> dict:
    return {"records": len(args[1])}


#: layer -> module -> (attribute, span name, note).  A dotted attribute
#: is a class attribute; a bare name is a module function, replaced in
#: every loaded ``repro`` module that holds it.
TARGETS = {
    "core": {
        "repro.core.adc": [
            ("PipelineAdc.__init__", "die_build", None),
            ("PipelineAdc.convert", "convert", _samples),
            ("PipelineAdc.convert_samples", "convert", _samples),
        ],
        "repro.core.adc_array": [
            ("AdcArray.__init__", "array_build", None),
            ("AdcArray.convert", "convert", _samples),
            ("AdcArray.convert_samples", "convert", _samples),
        ],
        "repro.core.die_cache": [("build_die", "build_die", None)],
    },
    "calibration": {
        "repro.core.calibration": [
            ("GainCalibration.calibrate", "fit", _calibrated_dies),
            ("GainCalibration.reconstruct", "reconstruct", None),
            ("GainCalibrationArray.calibrate", "fit", _calibrated_dies),
            ("GainCalibrationArray.reconstruct", "reconstruct", None),
            ("GainCalibrationArray.reconstruct_die", "reconstruct", None),
        ],
    },
    "signal": {
        "repro.signal.spectrum": [
            ("SpectrumAnalyzer.analyze", "spectrum", _rows),
            ("SpectrumAnalyzer.analyze_batch", "spectrum", _rows),
        ],
        "repro.signal.linearity": [("ramp_linearity", "linearity", _rows)],
    },
    "batch": {"repro.runtime.batch": [("BatchRunner.run", "run", _batch)]},
    "campaign": {
        "repro.runtime.campaign": [
            ("run_campaign", "run_campaign", None),
            ("measure_cell", "task", None),
            ("measure_cell_chunk", "task", None),
            ("CampaignLedger.start", "ledger_start", None),
            ("CampaignLedger.record", "ledger_record", _ledger_records),
        ],
    },
    "cell_store": {
        "repro.runtime.cell_store": [
            ("BoundCellStore.get", "get", _store_get),
            ("BoundCellStore.put", "put", None),
        ],
    },
    "shards": {"repro.runtime.shards": [("merge_campaign_ledgers", "merge", None)]},
    "dispatcher": {
        "repro.runtime.dispatcher": [("CampaignDispatcher.run", "run", _dispatch)],
    },
    "montecarlo": {
        "repro.runtime.montecarlo": [
            ("run_yield_analysis", "run", None),
            ("measure_die", "task", None),
            ("measure_die_chunk", "task", None),
        ],
        "repro.technology.montecarlo": [
            ("MonteCarloSampler.sample", "sample", None),
            ("MonteCarloSampler.sample_spawned", "sample", None),
        ],
    },
}


def _counted_record(traced: Callable) -> Callable:
    """``CampaignLedger.record`` takes any iterable; hand it a list."""

    @functools.wraps(traced)
    def record(self, cells):
        return traced(self, list(cells))

    return record


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target and make ``tracer`` record; returns the undo.

    Outside :meth:`Tracer.run_job` the wrappers only pass calls through.
    """
    global _ACTIVE
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attribute, replacement):
        undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    for layer, modules in TARGETS.items():
        for module_name, attributes in modules.items():
            module = importlib.import_module(module_name)
            for path, name, note in attributes:
                if "." in path:
                    class_name, attribute = path.split(".")
                    owner = getattr(module, class_name)
                    wrapper = _traced(vars(owner)[attribute], name, layer, note)
                    if path == "CampaignLedger.record":
                        wrapper = _counted_record(wrapper)
                    patch(owner, attribute, wrapper)
                    continue
                original = getattr(module, path)
                wrapper = _traced(original, name, layer, note)
                for loaded_name, loaded in list(sys.modules.items()):
                    if (
                        loaded_name.split(".")[0] == "repro"
                        and getattr(loaded, path, None) is original
                    ):
                        patch(loaded, path, wrapper)
    _ACTIVE = tracer

    def uninstall() -> None:
        global _ACTIVE
        _ACTIVE = None
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall


# --- reduction --------------------------------------------------------------


def _covered(low: int, high: int, children: list[tuple[int, int]]) -> int:
    """Length of ``[low, high)`` covered by the union of ``children``."""
    covered = 0
    cursor = low
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def reduce_job(spans: list[dict]) -> dict[str, dict]:
    """Self and wall-attributed time of every span of one job, in ns.

    ``self``: the span's duration minus the part of it its child spans
    cover.  ``wall``: each instant of the job split evenly among the
    innermost spans open at that instant, so parallel workers share the
    wall clock and the ``wall`` values of a job sum to its root span's
    duration.  A span whose parent is not among ``spans`` hangs off the
    root.
    """
    by_id = {span["id"]: span for span in spans}
    root = next(span for span in spans if span["name"] == "job")
    parent_of = {
        span["id"]: span["parent"] if span["parent"] in by_id else root["id"]
        for span in spans
        if span is not root
    }
    children: dict[str, list[tuple[int, int]]] = {span["id"]: [] for span in spans}
    for child, parent in parent_of.items():
        children[parent].append((by_id[child]["start"], by_id[child]["end"]))
    result = {}
    for span in spans:
        covered = _covered(span["start"], span["end"], children[span["id"]])
        duration = span["end"] - span["start"]
        result[span["id"]] = {"self": duration - covered, "wall": 0.0}
    depth = {root["id"]: 0}

    def depth_of(span_id: str) -> int:
        if span_id not in depth:
            depth[span_id] = depth_of(parent_of[span_id]) + 1
        return depth[span_id]

    # Sweep.  At one instant closes go first, innermost first, then opens,
    # outermost first; an empty span holds no time and is left out.
    events = sorted(
        event
        for span in spans
        if span["end"] > span["start"]
        for event in (
            (span["start"], 1, depth_of(span["id"]), span["id"]),
            (span["end"], 0, -depth_of(span["id"]), span["id"]),
        )
    )
    open_children: dict[str, int] = {}
    innermost: set[str] = set()
    previous = events[0][0]
    for moment, opening, _, span_id in events:
        if innermost and moment > previous:
            share = (moment - previous) / len(innermost)
            for held in innermost:
                result[held]["wall"] += share
        previous = moment
        parent = parent_of.get(span_id)
        if opening:
            open_children[span_id] = 0
            innermost.add(span_id)
            if parent in open_children:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            open_children.pop(span_id, None)
            innermost.discard(span_id)
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    innermost.add(parent)
    return result


def ladder(spans: list[dict], times: dict[str, dict]) -> dict[str, float]:
    """Seconds of one job's wall time per layer, plus ``remainder``."""
    rows = dict.fromkeys((*LAYERS, "remainder"), 0.0)
    for span in spans:
        rows[span["layer"] or "remainder"] += times[span["id"]]["wall"] / 1e9
    return rows
