"""One workload process: set up, then either compute the references or
run the timed loop against them.

Started by ``run.py`` with ``--t0``, the parent's monotonic clock just
before it spawned this process, so ``setup_s`` covers interpreter start,
imports, input generation and one untimed warm-up job.  The references
are computed by a set-up-only process (``--write-references``) and read
by the timed one, so neither ``setup_s`` nor the timed process's peak
memory includes them.  The last line of standard output is a JSON
object with the raw measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import jobs
import ladder

HERE = Path(__file__).resolve().parent


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def write_references(workload, args, path: Path) -> None:
    """The references, and whether they match golden.json (default seed)."""
    references = workload.references()
    anchored = True
    if args.anchor and not args.tiny:
        golden = json.loads((HERE / "golden.json").read_text())
        anchored = golden[args.workload] == jobs.digest(references)
        if not anchored:
            print("references differ from golden.json", file=sys.stderr)
    path.write_text(json.dumps({"references": references, "anchored": anchored}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--write-references", action="store_true", help="with --setup-only"
    )
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--anchor", action="store_true", help="check golden.json")
    args = parser.parse_args(argv)
    references_path = args.workdir / "references.json"

    workload = jobs.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    warm = jobs.fresh_dir(args.workdir, "warm-up")
    workload.job(warm, 0)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    shutil.rmtree(warm, ignore_errors=True)
    if args.setup_only:
        if args.write_references:
            write_references(workload, args, references_path)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    stored = json.loads(references_path.read_text())
    references, anchored = stored["references"], stored["anchored"]
    out = {"setup_s": setup_s, "inputs": workload.inputs()}
    if args.trace:
        out.update(ladder.traced_run(workload, references, args.seconds, args.workdir))
    else:
        out.update(jobs.run_loop(workload, references, args.seconds, args.workdir))
        del out["extras"]
    if not anchored:
        out["failed"] = len(out["job_s"])
        out["cells"] = 0
    out["peak_rss_mb"] = peak_rss_mb()
    for line in out.pop("ladder", []):
        print(line)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
