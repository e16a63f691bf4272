"""The traced run: per-layer metrics and the per-job wall-time ladder.

Every other job records spans at every layer; the difference between
the medians of the traced and the untraced jobs is the tracing overhead.
Each per-layer metric is computed per traced job and reported as the
median over traced jobs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from jobs import run_loop


def cli_import_s(repeats: int = 3) -> float:
    """Median wall time of a fresh ``python -c "import repro.cli"``."""
    samples = []
    for _ in range(repeats):
        begin = time.monotonic()
        subprocess.run([sys.executable, "-c", "import repro.cli"], check=True)
        samples.append(time.monotonic() - begin)
    return statistics.median(samples)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _duration(group: list[dict]) -> int:
    return sum(span["end"] - span["start"] for span in group)


def _attr(group: list[dict], key: str) -> float:
    return sum(span["attrs"].get(key, 0) for span in group)


def _per_job(job_spans: list[dict], times: dict[str, dict]) -> dict[str, float]:
    """Every per-layer metric but ``cli.import_s`` for one traced job."""
    by_id = {span["id"]: span for span in job_spans}
    root = next(span for span in job_spans if span["name"] == "job")

    def ancestors(span: dict):
        parent = by_id.get(span["parent"])
        while parent is not None:
            yield parent
            parent = by_id.get(parent["parent"])

    def named(layer: str, name: str) -> list[dict]:
        return [s for s in job_spans if s["layer"] == layer and s["name"] == name]

    def self_ns(group: list[dict]) -> float:
        return sum(times[span["id"]]["self"] for span in group)

    convert = named("core", "convert")
    outer = [s for s in convert if all(a["name"] != "convert" for a in ancestors(s))]
    builds = named("core", "die_build")
    arrays = named("core", "array_build")
    lookups = named("core", "build_die")
    built_in = {span["parent"] for span in builds}
    fits = named("calibration", "fit")
    spectra = named("signal", "spectrum")
    linearity = named("signal", "linearity")
    batches = named("batch", "run")
    task_s = _attr(batches, "task_s")
    records = named("campaign", "ledger_record")
    gets = named("cell_store", "get")
    puts = named("cell_store", "put")
    dispatches = named("dispatcher", "run")
    attempts = [elapsed for s in dispatches for _, elapsed in s["attrs"]["attempts"]]
    longest_per_round = 0.0
    for span in dispatches:
        rounds: dict[int, float] = {}
        for round_index, elapsed in span["attrs"]["attempts"]:
            rounds[round_index] = max(rounds.get(round_index, 0.0), elapsed)
        longest_per_round += sum(rounds.values())
    campaign_ns = sum(
        _duration([run])
        - _duration([b for b in batches if any(a is run for a in ancestors(b))])
        for run in named("campaign", "run_campaign")
    )
    convert_wall = sum(times[span["id"]]["wall"] for span in convert)
    hits = sum(1 for span in lookups if span["id"] not in built_in)
    busy = sum(s["attrs"]["elapsed_s"] * s["attrs"]["workers"] for s in batches)
    overhead_s = sum(
        s["attrs"]["elapsed_s"] - s["attrs"]["task_s"] / s["attrs"]["workers"]
        for s in batches
    )
    fit_ns = _ratio(self_ns(fits), _attr(fits, "units"))
    spectrum_ns = _ratio(self_ns(spectra), _attr(spectra, "units"))
    linearity_ns = _ratio(self_ns(linearity), _attr(linearity, "units"))
    return {
        "core.convert_ns_per_sample": _ratio(_duration(outer), _attr(outer, "samples")),
        "core.convert_share": _ratio(convert_wall, _duration([root])),
        "core.die_build_ms": _ratio(_duration(builds), len(builds)) / 1e6,
        "core.array_build_ms": _ratio(_duration(arrays), len(arrays)) / 1e6,
        "core.die_builds": len(builds),
        "core.die_cache_hit_ratio": _ratio(hits, len(lookups)),
        "calibration.fit_ms_per_die": fit_ns / 1e6,
        "signal.spectrum_ms_per_cell": spectrum_ns / 1e6,
        "signal.linearity_ms_per_die": linearity_ns / 1e6,
        "batch.tasks": _attr(batches, "tasks"),
        "batch.task_s": task_s,
        "batch.overhead_s": overhead_s,
        "batch.worker_busy_frac": _ratio(task_s, busy),
        "campaign.ledger_record_ms": _duration(records) / 1e6,
        "campaign.ledger_records": _attr(records, "records"),
        "campaign.overhead_ms": campaign_ns / 1e6,
        "cell_store.get_us": _ratio(_duration(gets), len(gets)) / 1e3,
        "cell_store.put_us": _ratio(_duration(puts), len(puts)) / 1e3,
        "cell_store.gets": len(gets),
        "cell_store.puts": len(puts),
        "cell_store.hit_ratio": _ratio(_attr(gets, "hit"), len(gets)),
        "shards.merge_ms": _duration(named("shards", "merge")) / 1e6,
        "dispatcher.shard_s": statistics.median(attempts) if attempts else 0.0,
        "dispatcher.attempts": len(attempts),
        "dispatcher.rounds": _attr(dispatches, "rounds"),
        "dispatcher.overhead_s": _attr(dispatches, "elapsed_s") - longest_per_round,
        "montecarlo.sample_ms": _duration(named("montecarlo", "sample")) / 1e6,
    }


def traced_run(workload, references, seconds: float, workdir: Path) -> dict:
    """Alternate untraced and traced jobs; per-layer metrics and ladder lines.

    Even jobs run with the wrappers passing calls through, odd jobs
    record spans, so both halves see the same machine and the difference
    of their medians is the tracing overhead.
    """
    tracer = spans.Tracer(workdir / "spans")

    def job(number, fn):
        return tracer.run_job(number, fn) if number % 2 else (fn(), None)

    uninstall = spans.install(tracer)
    try:
        loop = run_loop(workload, references, seconds, workdir, job=job)
    finally:
        uninstall()
    job_spans = [extra for extra in loop["extras"] if extra]
    with open(workdir.parent / f"trace-{workload.name}.jsonl", "w") as out:
        for span in (span for job_span in job_spans for span in job_span):
            out.write(json.dumps(span) + "\n")
    times = [spans.reduce_job(job_span) for job_span in job_spans]
    per_job = [_per_job(*pair) for pair in zip(job_spans, times)]
    per_layer = {
        name: statistics.median(metrics[name] for metrics in per_job)
        for name in per_job[0]
    }
    per_layer["cli.import_s"] = cli_import_s()

    rows = [spans.ladder(*pair) for pair in zip(job_spans, times)]
    mean = {layer: statistics.fmean(row[layer] for row in rows) for layer in rows[0]}
    wall = sum(mean.values())
    convert_s = statistics.fmean(
        metrics["core.convert_share"] * sum(row.values())
        for metrics, row in zip(per_job, rows)
    )
    untraced = statistics.median(loop["job_s"][0::2])
    traced = statistics.median(loop["job_s"][1::2])
    lines = [
        f"ladder {workload.name}: {len(rows)} traced jobs, mean wall "
        f"{wall * 1e3:.1f} ms; job p50 untraced {untraced:.4f} s, traced "
        f"{traced:.4f} s, tracing overhead {traced - untraced:+.4f} s "
        f"({(traced / untraced - 1) * 100:+.1f}%)",
        f"  {'layer':<12}{'ms/job':>10}{'share':>9}",
    ]
    for layer, value in mean.items():
        lines.append(f"  {layer:<12}{value * 1e3:>10.2f}{value / wall * 100:>8.1f}%")
    lines.append(f"  {'= wall':<12}{wall * 1e3:>10.2f}{100:>8.1f}%")
    shard_s, import_s = per_layer["dispatcher.shard_s"], per_layer["cli.import_s"]
    lines.append(
        f"  core conversion {convert_s * 1e3:.2f} ms/job; dispatcher.shard_s "
        f"{shard_s * 1e3:.2f} ms + cli.import_s {import_s * 1e3:.2f} ms "
        f"(a fresh process) = {(shard_s + import_s) * 1e3:.2f} ms"
    )
    return {
        "job_s": loop["job_s"],
        "failed": loop["failed"],
        "cells": loop["cells"],
        "loop_s": loop["loop_s"],
        "per_layer": per_layer,
        "ladder": lines,
    }
