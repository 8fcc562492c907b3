#!/usr/bin/env python3
"""Record the benchmark's stored numbers; run from the repository root.

    python3 bench/record.py references [--workload W ...]
        Run each workload once per master seed and store its final checksum,
        the sha256 of its metrics.jsonl and its re-score accuracy in
        bench/references.json: the determinism oracle every timed run is
        checked against. Only an intended change of behaviour re-records it.

    python3 bench/record.py baseline [--runs 10] [--seconds 12] [--workload W ...]
        Run each workload untraced once per seed 0..runs-1, each run in its own
        process, then once traced, and store in bench/baseline.json the
        median, quartiles and spread ((q3 - q1) / median) of every metric,
        the per-layer metrics of the traced run and the environment.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402

# The stock preset's published result: master seed 7 ends here.
STOCK_CHECKSUM = "0x0f7732e0"
STOCK_ACCURACY = 0.9


def record_references(workloads) -> dict:
    refs = harness.load_references()
    for name in workloads:
        workload = harness.WORKLOADS[name]
        refs[name] = {}
        for seed in range(len(harness.MASTER_SEEDS)):
            cfg = harness.config_for(workload, seed)
            workdir = harness.OUT_DIR / f"record-{name}-{seed}"
            rep = harness.run_once(workload, cfg, workdir)
            shutil.rmtree(workdir)
            refs[name][harness.reference_key(cfg)] = rep.oracle()
            print(f"{name} master seed {cfg.master_seed}: {rep.oracle()}", flush=True)
            if name == "desk-inproc" and cfg.master_seed == 7:
                final = rep.rows[-1]
                if rep.oracle()["checksum"] != STOCK_CHECKSUM or final["accuracy"] != STOCK_ACCURACY:
                    raise SystemExit(f"stock run drifted: {rep.oracle()} {final}")
    harness.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return refs


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - started
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def record_baseline(workloads, runs: int, seconds: float, path) -> dict:
    baseline = json.loads(Path(path).read_text()) if Path(path).exists() else {}
    baseline["environment"] = harness.environment()
    baseline["runs_per_workload"] = runs
    baseline["seconds"] = seconds
    for name in workloads:
        results, elapsed = [], []
        for seed in range(runs):
            result, took = _run(name, seed, seconds, 0)
            results.append(result)
            elapsed.append(took)
            print(f"{name} seed {seed}: {took:.1f}s correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                  flush=True)
        traced, traced_took = _run(name, 0, seconds, 1)
        entry = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_seconds": spread(elapsed) | {"traced": traced_took},
            "end_to_end": {
                metric: {"unit": unit, **spread([r["metrics"][metric]["value"] for r in results]),
                         "values": [r["metrics"][metric]["value"] for r in results]}
                for metric, unit in harness.END_TO_END},
            "per_layer_seed0": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        baseline.setdefault("workloads", {})[name] = entry
        Path(path).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return baseline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    refs = sub.add_parser("references", help="store the determinism oracle")
    base = sub.add_parser("baseline", help="store medians and run-to-run spread")
    base.add_argument("--runs", type=int, default=10)
    base.add_argument("--seconds", type=float, default=12)
    base.add_argument("--out", default=str(BENCH_DIR / "baseline.json"))
    for p in (refs, base):
        p.add_argument("--workload", action="append", choices=list(harness.WORKLOADS))
    args = parser.parse_args(argv)
    workloads = args.workload or list(harness.WORKLOADS)
    if args.command == "references":
        record_references(workloads)
    else:
        record_baseline(workloads, args.runs, args.seconds, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
