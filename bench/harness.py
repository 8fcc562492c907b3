"""Workloads, timing and the determinism oracle of the fedspike benchmark.

One repetition of a workload is: set up (config to clients built and hidden
spike trains cached, dataset files written and read back where the workload
uses files), federate (every round), finish (write metrics.jsonl and the
weight files, then re-score the saved global weights through
load_weights -> build_network -> evaluate_network, as ``fedspike eval`` does).

Each repetition is checked against references.json: its final checksum, the
sha256 of its metrics.jsonl bytes and its re-score accuracy must equal the
reference stored for the workload and master seed. A repetition that does
not match counts as failed and its times are dropped.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fedspike import experiment, federation, snn, weights_io
from fedspike.config import load_config

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

# Master seeds with a stored reference; --seed n runs MASTER_SEEDS[n % 8].
# Seed 0 is the stock preset's own master seed.
MASTER_SEEDS = tuple(range(7, 15))
SETUP_REPEATS = 5
RESCORES = 3
PROBE_STEPS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    files: bool = False  # dataset written with write_dataset and read back
    mini: dict = field(default_factory=dict)  # test-size overrides on top


WORKLOADS = {w.name: w for w in (
    Workload("desk-inproc", {},
             mini={"clients": 2, "rounds": 2, "test_size": 4, "duration_us": 320_000}),
    Workload("desk-socket",
             {"transport": "socket", "clients": 2, "rounds": 8, "local_epochs": 4,
              "test_size": 0},
             files=True,
             mini={"rounds": 2, "local_epochs": 1, "duration_us": 320_000}),
)}


def master_seed_for(seed: int) -> int:
    return MASTER_SEEDS[seed % len(MASTER_SEEDS)]


def config_for(workload: Workload, seed: int, mini: bool = False):
    overrides = {**workload.overrides, **(workload.mini if mini else {}),
                 "master_seed": master_seed_for(seed)}
    return load_config(None, overrides)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def reference_key(cfg) -> str:
    return str(cfg.master_seed)


# --- one repetition -----------------------------------------------------------

@dataclass
class Repetition:
    setup_s: float
    federate_s: float
    finish_s: float
    eval_s: float
    rounds_s: list[float]
    checksum: int
    metrics_sha256: str
    accuracy: float
    rows: list[dict]

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.federate_s + self.finish_s

    def oracle(self) -> dict:
        return {"checksum": f"{self.checksum:#010x}",
                "metrics_sha256": self.metrics_sha256,
                "rescore_accuracy": self.accuracy}


def load_data(workload: Workload, cfg, workdir: Path):
    """Shots by client and test samples; through dataset files if the workload uses them."""
    if workload.files:
        data = workdir / "data"
        experiment.write_dataset(cfg, data)
        return experiment.load_all_shots(data), experiment.load_test(data)
    assignment, test = experiment.build_dataset(cfg)
    return assignment.shots, test


def setup(workload: Workload, cfg, workdir: Path) -> experiment.Experiment:
    """The set-up phase alone: data, then clients built and spike trains cached."""
    shots, test = load_data(workload, cfg, workdir)
    return experiment.assemble(cfg, shots, test)


@contextmanager
def marking(owner, attr: str, marks: list):
    """Append perf_counter() to marks each time owner.attr returns."""
    original = getattr(owner, attr)

    def marked(*args, **kwargs):
        result = original(*args, **kwargs)
        marks.append(time.perf_counter())
        return result
    setattr(owner, attr, marked)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def run_once(workload: Workload, cfg, workdir: Path, tracer: Tracer | None = None
             ) -> Repetition:
    """One timed repetition through the program's own experiment.run_simulation.

    Set-up ends when run_simulation's assemble returns; a round ends when
    its aggregate returns (the first round starts at the end of set-up).
    """
    span = tracer.span if tracer else (lambda name, fn, *a: fn(*a))
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    shots, test = span("bench.data", load_data, workload, cfg, workdir)
    assembled, marks = [], []
    with marking(experiment, "assemble", assembled), marking(federation, "aggregate", marks):
        final, rows, ex = span("bench.simulate", experiment.run_simulation, cfg, shots, test)
    t2 = time.perf_counter()
    t1 = assembled[0]
    rescore = test or [s for cid in sorted(shots) for s in shots[cid]]
    sha, accuracy, eval_s = span("bench.finish", finish, cfg, ex, rows, rescore, workdir)
    t3 = time.perf_counter()
    rounds = [b - a for a, b in zip([t1] + marks, marks)]
    return Repetition(t1 - t0, t2 - t1, t3 - t2, eval_s, rounds, final.checksum,
                      sha, accuracy, rows)


def finish(cfg, ex, rows, rescore_samples, out: Path):
    """Write outputs as `fedspike simulate` does, then re-score the global file.

    The re-score runs RESCORES times and reports its median time: a single
    re-score lasts under a second on some workloads, short enough for the
    host's speed swings to move it by a fifth. Every re-score must give the
    same accuracy, or the returned accuracy is None and the oracle fails.
    """
    text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    (out / "metrics.jsonl").write_text(text)
    global_path = out / "weights_global.nfw"
    weights_io.save_weights(global_path, ex.clients[0].network.topologies)
    for c in ex.clients:
        weights_io.save_weights(out / f"weights_client_{c.client_id}.nfw",
                                c.network.topologies)
    times, accuracies = [], set()
    for _ in range(RESCORES):
        started = time.perf_counter()
        topos = weights_io.load_weights(global_path)
        net = snn.build_network(topos, cfg.hidden_params(), cfg.output_params())
        accuracies.add(experiment.evaluate_network(net, rescore_samples, cfg.dt_us))
        times.append(time.perf_counter() - started)
    accuracy = accuracies.pop() if len(accuracies) == 1 else None
    return hashlib.sha256(text.encode()).hexdigest(), accuracy, statistics.median(times)


def check(rep: Repetition, workload: Workload, cfg, references: dict) -> str | None:
    """None when the repetition matches its reference, else why not."""
    expected = references.get(workload.name, {}).get(reference_key(cfg))
    if expected is None:
        return f"no reference for {workload.name} master seed {cfg.master_seed}"
    got = rep.oracle()
    for key, want in expected.items():
        if got.get(key) != want:
            return f"{key} {got.get(key)!r} != reference {want!r}"
    return None


# --- trunk probe --------------------------------------------------------------

# The gesture128 trunk, which no workload runs, so that a convolution
# change still shows as a per-layer number.
PROBE_ARCH = ("gesture128", 128)
PROBE_LAYERS = ("snn.conv16c5z.step", "snn.conv32c3z.step", "snn.dense512.step")


def probe_trunk(cfg):
    """Step PROBE_STEPS frames of a seeded gesture128 sample through its trunk."""
    arch, size = PROBE_ARCH
    net = experiment.network_for(replace(cfg, arch=arch, width=size, height=size))
    sample = experiment.generate_synthetic(0, cfg.master_seed, width=size, height=size,
                                           duration_us=PROBE_STEPS * cfg.dt_us,
                                           step_us=cfg.dt_us)
    net.forward_window(experiment.bin_events(sample, cfg.dt_us))


# --- metrics ------------------------------------------------------------------

# (metric, span name, unit of the per-call value)
LAYER_TIMES = (
    ("snn.head.step_us", "snn.head.step", "us"),
    ("snn.pool.step_us", "snn.pool.step", "us"),
    ("snn.dense96.step_us", "snn.dense96.step", "us"),
    ("snn.conv16c5z.step_us", "snn.conv16c5z.step", "us"),
    ("snn.conv32c3z.step_us", "snn.conv32c3z.step", "us"),
    ("snn.dense512.step_us", "snn.dense512.step", "us"),
    ("snn.hidden_forward_ms", "snn.hidden_forward", "ms"),
    ("snn.forward_window_ms", "snn.forward_window", "ms"),
    ("experiment.cache_spikes_s", "experiment.cache_spikes", "s"),
    ("experiment.client_for_s", "experiment.client_for", "s"),
    ("plasticity.train_on_spikes_ms", "plasticity.train_on_spikes", "ms"),
    ("plasticity.update_trace_us", "plasticity.update_trace", "us"),
    ("quant.stochastic_round_us", "quant.stochastic_round", "us"),
    ("federation.train_ms", "federation.train", "ms"),
    ("federation.aggregate_ms", "federation.aggregate", "ms"),
    ("federation.install_us", "federation.install", "us"),
    ("federation.evaluate_ms", "federation.evaluate", "ms"),
    ("protocol.encode_us", "protocol.encode", "us"),
    ("protocol.decode_us", "protocol.decode", "us"),
    ("data.generate_synthetic_ms", "data.generate_synthetic", "ms"),
    ("data.bin_events_ms", "data.bin_events", "ms"),
    ("data.write_events_ms", "data.write_events", "ms"),
    ("data.read_events_ms", "data.read_events", "ms"),
    ("weights_io.save_ms", "weights_io.save", "ms"),
    ("weights_io.load_ms", "weights_io.load", "ms"),
)
NS_PER = {"us": 1e3, "ms": 1e6, "s": 1e9}
COUNTS = (
    ("experiment.network_for_calls", "count"),
    ("plasticity.trigger_ratio", "ratio"),
    ("quant.rng_lanes", "count"),
    ("protocol.bytes_per_round", "B"),
)
TRACE_TOTALS = (("eval_s", "s"), ("trace.overhead_s", "s"), ("trace.wall_s", "s"),
                ("trace.spans", "count"))


def _stem(metric: str) -> str:
    return metric.rsplit("_", 1)[0]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for metric, _, unit in LAYER_TIMES + (("plasticity.train_self_ms", None, "ms"),
                                           ("protocol.server_recv_wait_ms", None, "ms")):
        out += [(metric, unit), (_stem(metric) + ".calls", "count"),
                (_stem(metric) + ".total_s", "s")]
    return out + list(COUNTS) + list(TRACE_TOTALS)


END_TO_END = (("setup_s", "s"), ("federate_s", "s"), ("wall_s", "s"),
              ("round_s_p50", "s"), ("round_s_max", "s"), ("peak_rss_mb", "MB"))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timed(out, metric, unit, calls, total_ns, per_ns):
    out[metric] = _metric(per_ns / NS_PER[unit], unit)
    out[_stem(metric) + ".calls"] = _metric(calls, "count")
    out[_stem(metric) + ".total_s"] = _metric(total_ns / 1e9, "s")


def layer_metrics(tracer: Tracer, cfg, rep: Repetition, counts: dict,
                  untraced: Repetition) -> dict:
    """Per-layer metrics of the traced repetition (run 1).

    The PROBE_LAYERS come from the trunk probe (run 2). Any other layer the
    workload never calls reads 0 calls and 0 time.
    """
    run, probe = tracer.summary(1), tracer.summary(2)
    none = {"calls": 0, "total_ns": 0}
    out: dict = {}
    for metric, name, unit in LAYER_TIMES:
        entry = probe.get(name, none) if name in PROBE_LAYERS else run.get(name, none)
        _timed(out, metric, unit, entry["calls"], entry["total_ns"],
               entry["total_ns"] / max(entry["calls"], 1))
    train = run.get("plasticity.train_on_spikes", none)
    self_ns = train["total_ns"] - tracer.child_total_ns(
        1, "plasticity.train_on_spikes", ("snn.head.step", "plasticity.update_trace"))
    _timed(out, "plasticity.train_self_ms", "ms", train["calls"], self_ns,
           self_ns / max(train["calls"], 1))
    # Per round: the server receives from every client in id order, so a
    # round's receive time is the wait for its slowest client.
    entry = run.get("protocol.server_recv_frame", none)
    _timed(out, "protocol.server_recv_wait_ms", "ms", entry["calls"], entry["total_ns"],
           entry["total_ns"] / max(cfg.rounds, 1))

    train_rows = [r for r in rep.rows if r["event"] == "train"]
    boundaries = sum(r["boundaries"] for r in train_rows) * cfg.classes
    triggered = sum(r["triggered_updates"] for r in train_rows)
    out["experiment.network_for_calls"] = _metric(counts.get("experiment.network_for", 0), "count")
    out["plasticity.trigger_ratio"] = _metric(triggered / boundaries if boundaries else 0.0,
                                              "ratio")
    out["quant.rng_lanes"] = _metric(counts.get("quant.rng_lanes", 0), "count")
    out["protocol.bytes_per_round"] = _metric(
        counts.get("protocol.bytes", 0) / max(cfg.rounds, 1), "B")
    # The re-score of the untraced repetition: too short to gate on (its
    # ten-run spread reached 0.3 against host speed swings), still reported.
    out["eval_s"] = _metric(untraced.eval_s, "s")
    out["trace.overhead_s"] = _metric(rep.wall_s - untraced.wall_s, "s")
    out["trace.wall_s"] = _metric(rep.wall_s, "s")
    out["trace.spans"] = _metric(sum(v["calls"] for k, v in run.items() if k != "_threads"),
                                 "count")
    return out


def end_to_end_metrics(reps: list[Repetition], setups: list[float]) -> dict:
    med = statistics.median
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": _metric(med(setups), "s"),
        "federate_s": _metric(med(r.federate_s for r in reps), "s"),
        "wall_s": _metric(med(r.wall_s for r in reps), "s"),
        "round_s_p50": _metric(med(med(r.rounds_s) for r in reps), "s"),
        "round_s_max": _metric(med(max(r.rounds_s) for r in reps), "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


# --- a whole run --------------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    details: dict

    def line(self) -> str:
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed, "metrics": self.metrics})


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            references: dict, mini: bool = False, out_dir: Path = OUT_DIR) -> Result:
    """Run one workload for about `seconds` and report its metrics.

    Untraced: as many repetitions as fit in `seconds` (at least one), plus
    setup-only passes until SETUP_REPEATS setups were timed and they took at
    least half of `seconds`. Traced: one untraced repetition, then one traced
    repetition and the trunk probe, with the spans written to out_dir.
    """
    cfg = config_for(workload, seed, mini)
    details = {"workload": workload.name, "seed": seed, "master_seed": cfg.master_seed,
               "environment": environment(), "failures": []}
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{workload.name}-{seed}-{os.getpid()}"
    reps: list[Repetition] = []
    attempted = 0

    def attempt(tracer=None) -> Repetition:
        nonlocal attempted
        attempted += 1
        gc.collect()
        rep = run_once(workload, cfg, workdir / f"rep{attempted}", tracer)
        why = check(rep, workload, cfg, references)
        if why:
            details["failures"].append(f"repetition {attempted}: {why}")
        else:
            reps.append(replace(rep, rows=[]))
        shutil.rmtree(workdir / f"rep{attempted}")
        return rep

    try:
        if not trace:
            # The first repetition fixes how many fit in `seconds`, so the
            # count does not flip between runs whose times differ slightly.
            first_wall = attempt().wall_s
            for _ in range(max(1, round(seconds / first_wall)) - 1):
                attempt()
            # Set-up is short on some workloads: time at least SETUP_REPEATS
            # and keep going for half of `seconds`, then take the median.
            setups = [r.setup_s for r in reps]
            while reps and (len(setups) < SETUP_REPEATS or sum(setups) < seconds / 2):
                gc.collect()
                (workdir / "setup-only").mkdir(parents=True)
                t0 = time.perf_counter()
                setup(workload, cfg, workdir / "setup-only")
                setups.append(time.perf_counter() - t0)
                shutil.rmtree(workdir / "setup-only")
            metrics = end_to_end_metrics(reps, setups) if reps else {}
        else:
            untraced = attempt()
            tracer = Tracer()
            tracer.run_id = 1
            with tracer:
                traced = attempt(tracer)
                counts = dict(tracer.counts)
                tracer.run_id = 2
                probe_trunk(cfg)
            metrics = {}
            if len(reps) == 2:
                metrics = layer_metrics(tracer, cfg, traced, counts, untraced)
            summary = tracer.summary(1)
            details["thread_self_s"] = {t: ns / 1e9 for t, ns in summary.pop("_threads").items()}
            details["spans"] = summary
            trace_path = out_dir / f"trace-{workload.name}-s{seed}.npz"
            tracer.save(trace_path)
            details["trace_file"] = str(trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = attempted - len(reps)
    details["oracle"] = reps[0].oracle() if reps else None
    return Result(failed == 0, attempted, failed, metrics, details)

