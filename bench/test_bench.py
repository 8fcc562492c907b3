"""Tests of the benchmark itself, on miniature versions of each workload.

    python -m pytest bench
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = list(harness.WORKLOADS)


def mini_references(name: str, tmp_path: Path) -> dict:
    workload = harness.WORKLOADS[name]
    cfg = harness.config_for(workload, 0, mini=True)
    rep = harness.run_once(workload, cfg, tmp_path / "reference")
    return {name: {harness.reference_key(cfg): rep.oracle()}}


@pytest.mark.parametrize("name", WORKLOADS)
def test_miniature_run_reports_every_end_to_end_metric(name, tmp_path):
    refs = mini_references(name, tmp_path)
    result = harness.measure(harness.WORKLOADS[name], 0, 0, False, refs, mini=True,
                             out_dir=tmp_path)
    assert result.correct and result.failed == 0 and result.attempted >= 1
    assert {k: m["unit"] for k, m in result.metrics.items()} == dict(harness.END_TO_END)
    assert all(m["value"] > 0 for m in result.metrics.values())
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", WORKLOADS)
def test_tampered_reference_checksum_counts_as_failed(name, tmp_path):
    refs = mini_references(name, tmp_path)
    for expected in refs[name].values():
        expected["checksum"] = "0xdeadbeef"
    result = harness.measure(harness.WORKLOADS[name], 0, 0, False, refs, mini=True,
                             out_dir=tmp_path)
    assert not result.correct
    assert result.failed == result.attempted >= 1
    assert result.metrics == {}
    assert "checksum" in result.details["failures"][0]


def test_missing_reference_counts_as_failed(tmp_path):
    result = harness.measure(harness.WORKLOADS["desk-inproc"], 0, 0, False, {}, mini=True,
                             out_dir=tmp_path)
    assert not result.correct and result.failed == result.attempted


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_self_times_fit_in_wall_time(name, tmp_path):
    refs = mini_references(name, tmp_path)
    result = harness.measure(harness.WORKLOADS[name], 0, 0, True, refs, mini=True,
                             out_dir=tmp_path)
    assert result.correct and result.attempted == 2
    assert {k: m["unit"] for k, m in result.metrics.items()} == dict(harness.per_layer_names())
    wall = result.metrics["trace.wall_s"]["value"]
    # Spans nest within a thread, so each thread's self times add up to at
    # most the traced repetition's wall time.
    for thread, self_s in result.details["thread_self_s"].items():
        assert 0 < self_s <= wall, (thread, self_s, wall)
    assert Path(result.details["trace_file"]).exists()
    # A layer the workload calls, and the probed gesture128 trunk, read > 0.
    for metric, unit in harness.per_layer_names():
        stem = metric.rsplit("_", 1)[0]
        if unit in ("us", "ms") and result.metrics[stem + ".calls"]["value"]:
            assert result.metrics[metric]["value"] > 0, metric
    for name in harness.PROBE_LAYERS:
        assert result.metrics[name + "_us"]["value"] > 0, name


def test_traced_counts_are_deterministic(tmp_path):
    refs = mini_references("desk-socket", tmp_path)
    runs = [harness.measure(harness.WORKLOADS["desk-socket"], 0, 0, True, refs, mini=True,
                            out_dir=tmp_path / str(i)) for i in range(2)]
    for metric, unit in harness.COUNTS:
        assert runs[0].metrics[metric] == runs[1].metrics[metric], metric
    assert runs[0].metrics["protocol.bytes_per_round"]["value"] > 0
    assert runs[0].metrics["quant.rng_lanes"]["value"] > 0


def test_traced_frame_bytes_lose_no_update_across_threads():
    from fedspike import protocol
    msg = protocol.Message(protocol.MessageType.ACK, 1, 2, b"x" * 40)
    size, threads, per_thread = len(protocol.encode_message(msg)), 6, 5_000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer() as tracer:
            workers = [threading.Thread(
                target=lambda: [protocol.encode_message(msg) for _ in range(per_thread)])
                for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert tracer.counts["protocol.bytes"] == size * threads * per_thread


def test_stock_reference_is_the_published_result():
    refs = harness.load_references()
    assert refs["desk-inproc"]["7"]["checksum"] == "0x0f7732e0"
    assert refs["desk-inproc"]["7"]["rescore_accuracy"] == 0.9
    for name in WORKLOADS:
        assert set(refs[name]) == {str(s) for s in harness.MASTER_SEEDS}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(harness.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(harness.per_layer_names())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([*spec["command"], "--workload", WORKLOADS[0], "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
