"""Two-set agreement: is the benchmark steady on this machine?

Runs two independent sets of ``run.py`` runs with tracing off, each set
one run per (workload, seed), then reports per workload and end-to-end
metric each set's median and spread (the distance between the first and
third quartile as a share of the median), and the gap between the two
medians as a share of the smaller one.  Both spreads and the gap must
stay within the metric's bound in ``BENCHMARK.json``; the spreads should
stay below a third of it.  The first seed is ``run.DEFAULT_SEED``, the
one whose references are checked against ``golden.json``.  Run from the
root of a checkout:

    python3 perfbench/agree.py --seeds 10 --record perfbench/results/x.json

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
#: Independent sets of runs whose medians must agree.
SETS = 2


def environment() -> dict:
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu": cpu,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        *("--workload", workload, "--seed", str(seed)),
        *("--seconds", repr(seconds), "--trace", str(trace)),
    ]
    completed = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{command} failed:\n{completed.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def gap(medians: list[float]) -> float:
    """How far apart two medians are, as a share of the smaller one."""
    return (max(medians) - min(medians)) / min(medians)


def verdict(bound: float, spreads: list[float], medians_gap: float) -> list[str]:
    """Upper case fails the acceptance check; lower case misses the target."""
    checks = []
    if any(value > bound for value in spreads):
        checks.append("SPREAD>BOUND")
    elif any(value > bound / 3 for value in spreads):
        checks.append("spread>bound/3")
    if medians_gap > bound:
        checks.append("DISAGREE")
    return checks


def main(argv: list[str] | None = None) -> int:
    declared = json.loads(Path("BENCHMARK.json").read_text())
    names = ",".join(workload["name"] for workload in declared["workloads"])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workloads", default=names)
    parser.add_argument("--seeds", type=int, default=10, help="runs per set")
    parser.add_argument("--trace", action="store_true", help="one traced run each")
    parser.add_argument("--record", type=Path, help="write the summary here")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = [DEFAULT_SEED, *range(1, args.seeds)]
    seconds = declared["run_seconds"]

    runs: dict[str, list[list[dict]]] = {workload: [] for workload in workloads}
    for set_index in range(1, SETS + 1):
        for workload in workloads:
            results = []
            for seed in seeds:
                began = time.monotonic()
                result, _ = run_once(workload, seed, seconds, 0)
                results.append(result)
                values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(
                    f"set {set_index} {workload} seed {seed} "
                    f"({time.monotonic() - began:.1f} s): "
                    f"{result['failed']}/{result['attempted']} failed {values}",
                    flush=True,
                )
            runs[workload].append(results)

    ok = True
    summary: dict = {}
    print(f"\n{'workload':<18}{'metric':<13}{'medians':>24}{'spreads':>16}  verdict")
    for workload in workloads:
        results = [result for each_set in runs[workload] for result in each_set]
        failed = sum(result["failed"] for result in results)
        attempted = sum(result["attempted"] for result in results)
        ok = ok and not failed and all(result["correct"] for result in results)
        # Position 0 of every set ran the default seed.
        default = [each_set[0] for each_set in runs[workload]]
        default_fail_frac = sum(r["failed"] for r in default) / sum(
            r["attempted"] for r in default
        )
        summary[workload] = {
            "fail_frac": failed / attempted,
            "fail_frac_default_seed": default_fail_frac,
        }
        for metric in declared["end_to_end"]:
            name = metric["name"]
            sets = [
                [result["metrics"][name]["value"] for result in each_set]
                for each_set in runs[workload]
            ]
            medians = [statistics.median(values) for values in sets]
            spreads = [spread(values) for values in sets]
            medians_gap = gap(medians)
            checks = verdict(metric["bound"], spreads, medians_gap)
            ok = ok and not any(check.isupper() for check in checks)
            summary[workload][name] = {
                "medians": medians,
                "spreads": spreads,
                "gap": medians_gap,
                "bound": metric["bound"],
                "values": sets,
            }
            shown_medians = " ".join(f"{value:.5g}" for value in medians)
            shown_spreads = " ".join(f"{value:.3f}" for value in spreads)
            print(
                f"{workload:<18}{name:<13}{shown_medians:>24}{shown_spreads:>16}  "
                f"bound {metric['bound']} gap {medians_gap:.3f} "
                f"{' '.join(checks) or 'ok'}"
            )
        print(
            f"{workload:<18}{'fail_frac':<13}{failed / attempted:>24}"
            f"  (default seed {DEFAULT_SEED}: {default_fail_frac})"
        )

    traces = {}
    if args.trace:
        for workload in workloads:
            result, lines = run_once(workload, seeds[0], seconds, 1)
            print("\n".join(lines))
            traces[workload] = {
                "lines": lines,
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            }
    if args.record:
        record = {
            "environment": environment(),
            "seconds": seconds,
            "seeds": seeds,
            "sets": SETS,
            "passed": ok,
            "workloads": summary,
            "traced": traces,
        }
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    print("\nall checks pass" if ok else "\nSOME CHECKS FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
