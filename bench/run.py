#!/usr/bin/env python3
"""Benchmark of the fedspike simulator; run from the repository root.

One workload, one seed (the form BENCHMARK.json names):

    python3 bench/run.py --workload desk-inproc --seed 0 --seconds 12 --trace 0

prints a line per metric on stderr and, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced repetition.

Every workload, untraced and traced, as a table:

    python3 bench/run.py --all [--seed 0] [--seconds 12]

The program is imported from src/ next to this directory and nowhere else;
without it the benchmark exits non-zero and prints no result.
See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _pin_to_one_cpu():
    """Run every thread of the benchmark on one CPU.

    The socket workload's server and client threads then hand the
    interpreter lock over without crossing cores, which made its federation
    about a tenth faster and no noisier.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_program():
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    try:
        import fedspike
    except ImportError as err:
        raise SystemExit(f"bench: cannot import fedspike from {SRC_DIR}: {err}") from None
    if Path(fedspike.__file__).resolve().parent.parent != SRC_DIR:
        raise SystemExit(f"bench: fedspike came from {fedspike.__file__}, not {SRC_DIR}")
    import harness
    return harness


def run_one(args) -> int:
    _pin_to_one_cpu()
    harness = _import_program()
    if args.workload not in harness.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(harness.WORKLOADS)}")
    result = harness.measure(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), harness.load_references())
    details = result.details
    for failure in details["failures"]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    for name, m in result.metrics.items():
        print(f"{args.workload:12s} {name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    record = {"result": json.loads(result.line()), **details}
    out = harness.OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(result.line())
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced; prints a table."""
    status = 0
    for name in _import_program().WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{name:12s} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"{name:12s} {metric:40s} {m['value']:>14.6g} {m['unit']}")
            status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="workload name (see bench/README.md)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=12,
                        help="repeat the workload until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced repetition, per-layer metrics")
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
