"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import agree  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_declared_metrics(workload, trace):
    completed = bench(
        *("--workload", workload, "--seed", "5", "--seconds", "1"),
        *("--trace", trace, "--tiny"),
    )
    assert completed.returncode == 0, completed.stderr
    result = result_of(completed)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if trace == "1":
        assert "remainder" in completed.stdout
        assert "tracing overhead" in completed.stdout


def test_doctored_output_counts_as_failed(tmp_path):
    workload = jobs.SignoffGrid(3, tiny=True)

    def doctor(number, records):
        if number % 2:
            sndr = float.fromhex(records[0]["sndr_db"]) + 1e-12
            records[0] = dict(records[0], sndr_db=sndr.hex())
        return records

    loop = jobs.run_loop(workload, workload.references(), 0.3, tmp_path, doctor=doctor)
    attempted = len(loop["job_s"])
    assert loop["failed"] == attempted // 2 >= 1
    assert loop["cells"] == (attempted - attempted // 2) * workload.spec.n_cells


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ladder_sums_to_job_wall(workload, tmp_path):
    instance = jobs.WORKLOADS[workload](4, tiny=True)
    tracer = spans.Tracer(tmp_path / "spans")
    uninstall = spans.install(tracer)
    try:
        result, job_spans = tracer.run_job(0, lambda: instance.job(tmp_path, 0))
    finally:
        uninstall()
    assert result
    root = next(span for span in job_spans if span["name"] == "job")
    rows = spans.ladder(job_spans, spans.reduce_job(job_spans))
    wall = (root["end"] - root["start"]) / 1e9
    assert sum(rows.values()) == pytest.approx(wall, rel=1e-9)
    assert rows["core"] > 0
    if workload == "yield-pool":
        # Spans from the forked pool workers reached the job's trace.
        assert len({span["id"].split(".")[0] for span in job_spans}) >= 2


def test_reduce_job_splits_parallel_children():
    def span(name, start, end, parent):
        return {"id": name, "parent": parent, "name": name, "start": start, "end": end}

    times = spans.reduce_job(
        [
            span("job", 0, 100, None),
            span("batch", 10, 90, "job"),
            span("w1", 20, 60, "batch"),
            span("w2", 30, 80, "batch"),
        ]
    )
    self_ns = {name: value["self"] for name, value in times.items()}
    wall_ns = {name: value["wall"] for name, value in times.items()}
    assert self_ns == {"job": 20, "batch": 20, "w1": 40, "w2": 50}
    assert wall_ns == {"job": 20, "batch": 20, "w1": 25, "w2": 35}


def test_seed_changes_inputs_not_metric_names():
    for name, workload in jobs.WORKLOADS.items():
        assert workload(1).inputs() != workload(2).inputs(), name
        assert workload(1).inputs() == workload(1).inputs(), name
    outputs = [
        bench("--workload", "signoff-grid", "--seed", seed, "--seconds", "1", "--tiny")
        for seed in ("1", "2")
    ]
    names = [list(result_of(out)["metrics"]) for out in outputs]
    inputs = [
        [line for line in out.stdout.splitlines() if line.startswith("inputs:")]
        for out in outputs
    ]
    assert names[0] == names[1]
    assert inputs[0] != inputs[1]


def test_agreement_gap_is_symmetric_and_every_spread_counts():
    assert agree.gap([0.6, 0.8]) == agree.gap([0.8, 0.6]) == pytest.approx(1 / 3)
    assert agree.verdict(0.25, [0.1, 0.3], 0.0) == ["SPREAD>BOUND"]
    assert agree.verdict(0.25, [0.1, 0.05], 0.3) == ["spread>bound/3", "DISAGREE"]
    assert agree.verdict(0.25, [0.05, 0.05], 0.1) == []


def test_design_notes_cover_declared_metrics():
    design = json.loads((HERE / "design.json").read_text())
    assert list(design["workloads"]) == WORKLOADS
    for kind in ("end_to_end", "per_layer"):
        assert list(design[kind]) == [entry["name"] for entry in DECLARED[kind]]
    for name, entry in design["per_layer"].items():
        for metric, workload in entry["moves"]:
            assert metric in design["end_to_end"] and workload in WORKLOADS, name


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    completed = bench(
        *("--workload", "signoff-grid", "--seed", "1", "--seconds", "1"),
        *("--trace", "0"),
        cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
