"""Repo benchmark: closed-loop sign-off, yield and dispatch workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload signoff-grid --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics and the per-job ladder.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each workload runs in its own
processes against the checkout's ``src/``; the benchmark fails (exit 2,
no result) when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The seed whose reference digests ``golden.json`` anchors.
DEFAULT_SEED = 2026
#: Set-up-only processes before and after the timed one.  With the timed
#: process's own, ``setup_s`` is the median of 7 fresh set-ups, spread
#: over the run so one slow stretch of the machine cannot move it alone.
SETUP_BEFORE = 3
SETUP_AFTER = 3
#: Jobs that must lie beyond the reported tail percentile.
TAIL_JOBS = 10
#: Everything, set-up included, must end within this many seconds.
DEADLINE_S = 170.0
#: One BLAS thread per process.  By default every pool worker starts one
#: OpenBLAS thread per CPU, so two workers oversubscribe two CPUs during
#: the calibration solves: yield-pool jobs then take 2.5x as long and
#: swing by 2x from job to job, too noisy to bound a regression.  So
#: yield-pool measures less than a plain ``repro mc --workers 2`` pays;
#: drop this once the pool limits its workers' BLAS threads itself.
ONE_BLAS_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def tail(job_s: list[float]) -> tuple[float, float]:
    """The highest job-time percentile with ``TAIL_JOBS`` jobs beyond it.

    Returns (value, percentile); with too few jobs, the slowest job.
    """
    ordered = sorted(job_s)
    if len(ordered) <= TAIL_JOBS:
        return ordered[-1], 100.0
    rank = len(ordered) - TAIL_JOBS - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def run_worker(root: Path, args, extra: list[str], deadline: float) -> tuple:
    """One workload process; returns its result and its other stdout lines."""
    env = dict(os.environ, **ONE_BLAS_THREAD)
    paths = [str(root / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        *("--workload", args.workload, "--seed", str(args.seed)),
        *("--seconds", repr(args.seconds), "--workdir", str(args.workdir)),
        *("--t0", str(time.monotonic_ns()), *extra),
    ]
    process = subprocess.Popen(
        command,
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process exceeded the deadline") from None
    finally:
        # Stop whatever the worker left running in its session.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise BenchError(f"workload process exited with {process.returncode}")
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def measure(root: Path, args, declared: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    flags = ["--tiny"] if args.tiny else []
    if args.seed == DEFAULT_SEED:
        flags.append("--anchor")

    def setup_only(*extra: str) -> float:
        setup, _ = run_worker(root, args, [*flags, "--setup-only", *extra], deadline)
        return setup["setup_s"]

    # The first set-up also computes the references, after its set-up is
    # timed and in its own process, so no measurement includes them.
    setups = [setup_only("--write-references")]
    if args.trace:
        result, lines = run_worker(root, args, [*flags, "--trace", "1"], deadline)
        metrics = result["per_layer"]
        declared_metrics = declared["per_layer"]
    else:
        setups += [setup_only() for _ in range(SETUP_BEFORE - 1)]
        result, lines = run_worker(root, args, flags, deadline)
        setups.append(result["setup_s"])
        setups += [setup_only() for _ in range(SETUP_AFTER)]
        job_s = result["job_s"]
        tail_s, percentile = tail(job_s)
        print(
            f"{args.workload}: {len(job_s)} jobs, job_tail_s is p{percentile:.1f} "
            f"({TAIL_JOBS} jobs beyond it), setup_s runs "
            f"{[round(value, 4) for value in setups]}, "
            f"fail_frac {result['failed'] / len(job_s)}"
        )
        metrics = {
            "cells_per_s": result["cells"] / result["loop_s"],
            "job_p50_s": statistics.median(job_s),
            "job_tail_s": tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        declared_metrics = declared["end_to_end"]
    for line in lines:
        print(line)
    names = [entry["name"] for entry in declared_metrics]
    if sorted(metrics) != sorted(names):
        raise BenchError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    print(f"inputs: {json.dumps(result['inputs'])}")
    return {
        "correct": result["failed"] == 0,
        "attempted": len(result["job_s"]),
        "failed": result["failed"],
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared_metrics
        },
    }


def main(argv: list[str] | None = None) -> int:
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    workloads = [workload["name"] for workload in declared["workloads"]]
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, help="timed loop length (default: run_seconds)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-tests)")
    args = parser.parse_args(argv)

    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} has no src/repro; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    args.workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        outcome = measure(root, args, declared)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
