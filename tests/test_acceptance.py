"""Release gate: one test per acceptance criterion, full-scale settings.

Each test prints a single `[acceptance] ... PASS/FAIL` line (visible with
pytest -s; under plain pytest the verbose test name carries the verdict).
The federated runs here use the stock desk-scale preset, so this file takes
a couple of minutes; the unit suites elsewhere stay fast.
"""

import hashlib
import json
import socket
import subprocess
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fedspike.cli import main
from fedspike.config import ExperimentConfig
from fedspike.federation import (
    FederationError,
    ModelSnapshot,
    aggregate,
    serve_federation,
)
from fedspike.plasticity import SoelEngine, update_trace
from fedspike.protocol import Message, MessageType, encode_message, pack_array, recv_frame, send_frame
from fedspike.quant import Dyadic, Rng, TRACE_SPEC, WEIGHT_SPEC, stochastic_round_array
from fedspike.snn import NeuronParams, build_network, parse_arch
from reference import (apply_soel_update, compile_soel_to_sop, evaluate_error, evaluate_sop,
                       pre_kernel, round_nearest_even_int)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL", flush=True)
        raise
    print(f"[acceptance] {name}: PASS", flush=True)


# --- 1: quantization ---------------------------------------------------------

def test_1_quantization_grid_and_rounding():
    with criterion("1 quantization suite"):
        rng = Rng(2026).fork("probes")
        n = 100_000
        probes = [
            (WEIGHT_SPEC, v) for v in
            (-119.7, -101.25, -87.5, -63.1, -41.9, -25.4, -13.75, -5.5,
             -1.3, 0.7, 3.9, 17.25, 33.5, 55.1)
        ] + [
            (TRACE_SPEC, v) for v in (0.4, 13.5, 42.75, 77.2, 101.9, 126.3)
        ]
        assert len(probes) == 20
        for spec, v in probes:
            # The probe as training hands it over: num / 2^40, within 2^-41 of v.
            num = round(v * 2**40)
            x = num / 2**40
            out = stochastic_round_array(Dyadic(np.full(n, num), 40), spec, rng.u64(n))
            assert out.min() >= spec.lo and out.max() <= spec.hi
            assert not np.any(out % spec.step)
            lo = spec.step * np.floor(x / spec.step)
            p = (x - lo) / spec.step
            sigma = spec.step * np.sqrt(p * (1 - p) / n)
            assert abs(out.mean() - x) <= 3 * sigma, f"biased at {v}"

        for k in range(-257, 258):
            for v in (k, k + 0.5, k + 0.25, Fraction(k, 2)):
                r = round_nearest_even_int(v)
                assert r % 2 == 0 and abs(r - float(v)) <= 1

        # 1,000-round fuzz: the even-grid invariant must survive every
        # aggregation and every triggered in-place weight update
        fuzz = np.random.default_rng(99)
        snap = ModelSnapshot(0, (fuzz.integers(-64, 64, (4, 8)) * 2).astype(np.int8))
        for t in range(1, 1001):
            deltas = {k: (fuzz.integers(-8, 9, (4, 8)) * 2).astype(np.int8) for k in range(3)}
            snap = aggregate(snap, deltas, 3)
            w = snap.output_weights
            assert not np.any(w % 2) and w.min() >= -128 and w.max() <= 126

        params = NeuronParams(current_decay_shift=3, voltage_decay_shift=3,
                              threshold=60)
        net = build_network(parse_arch("4x4x2, out", 3), params, params,
                            Rng(5).fork("net"))
        head = net.output_layer
        cfg = ExperimentConfig(window=4, error_threshold=0, error_offset=64,
                               learning_rate=Fraction(1, 2), alpha1_shift=2, alpha2_shift=4,
                               impulse1=16, impulse2=16, box_enabled=True,
                               box_low=-(2 ** 23), box_high=2 ** 23)
        engine = SoelEngine(cfg, Rng(5).fork("eng"))
        for t in range(1000):
            spikes = (fuzz.random((4, head.topo.weight_shape[1])) < 0.3).astype(np.int8)
            engine.train_on_spikes(head, spikes, fuzz.integers(0, 5, head.topo.out_shape[2]))
            assert not np.any(head.w % 2)
            assert head.w.min() >= -128 and head.w.max() <= 126


# --- 2: update rule vs real-valued oracle ------------------------------------

def test_2_triggered_updates_match_real_valued_rule():
    with criterion("2 update-rule oracle"):
        gen = np.random.default_rng(72026)
        rng = Rng(11).fork("oracle")
        signs = zeros = 0
        for _ in range(200):
            theta = int(gen.integers(0, 4))
            lr = Fraction(1, 2 ** int(gen.integers(0, 8)))
            cfg = ExperimentConfig(window=8, error_threshold=theta, error_offset=64,
                                   learning_rate=lr, box_enabled=True)
            target = int(gen.integers(0, 13))
            count = int(gen.integers(0, 13))
            unit = evaluate_error(cfg, target, count)
            triggered = unit[1]
            x1 = int(gen.integers(0, 128))
            x2 = int(gen.integers(0, 128))
            tr = np.array([x1, x2])
            gate = int(gen.integers(0, 2))
            w = int(gen.integers(-50, 51)) * 2

            new_w = apply_soel_update(w, unit, tr, gate, cfg, rng)
            dq = new_w - w
            err = target - count
            if abs(err) <= theta:
                assert not triggered and dq == 0
                zeros += 1
                continue
            clamped = max(-64, min(err, 63))
            dr = float(lr) * clamped * (x2 - x1) * gate
            dr_eff = min(max(w + dr, -128.0), 126.0) - w
            if abs(dr_eff) >= 2:
                assert dq * dr_eff > 0, f"sign flip: {dq} vs {dr_eff}"
                signs += 1
            assert abs(dq - dr_eff) <= 2 + 1e-9
            assert new_w % 2 == 0
        assert signs >= 40 and zeros >= 20, (signs, zeros)


# --- 3: compiled rule program ------------------------------------------------

def test_3_rule_program_equals_direct_evaluation_exhaustively():
    with criterion("3 sum-of-products equivalence"):
        cfg = ExperimentConfig(window=8, error_threshold=0, error_offset=64,
                               learning_rate=Fraction(1), box_enabled=True)
        program = compile_soel_to_sop(cfg)
        E, x1, x2 = np.meshgrid(np.arange(128), np.arange(128), np.arange(128),
                                indexing="ij", sparse=True)
        got = evaluate_sop(program, {"error_register": E, "x1": x1, "x2": x2})
        want = (E.astype(np.int64) - 64) * (x2.astype(np.int64) - x1.astype(np.int64))
        assert got.shape == (128, 128, 128)
        assert np.array_equal(got, np.broadcast_to(want, got.shape))


# --- 4: trace kernel ---------------------------------------------------------

def test_4_trace_kernel_tracks_double_exponential():
    with criterion("4 trace kernel fidelity"):
        pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                 (2, 5), (3, 4), (3, 5), (4, 6), (5, 6)]
        rng = Rng(4).fork("traces")
        for a1, a2 in pairs:
            cfg = ExperimentConfig(alpha1_shift=a1, alpha2_shift=a2, impulse1=16, impulse2=16)
            tr = update_trace(cfg, np.zeros(2, dtype=np.int64), 1, rng)
            assert tr.tolist() == [16, 16]
            f1, f2 = 1 - 0.5 ** a1, 1 - 0.5 ** a2
            for step in range(1, 65):
                tr = update_trace(cfg, tr, 0, rng)
                real = 16 * (f2 ** step - f1 ** step)
                bound = ((1 - f1 ** step) / (1 - f1)
                         + (1 - f2 ** step) / (1 - f2))
                assert abs(pre_kernel(tr) - real) <= bound + 1e-9, (a1, a2, step)


# --- 5/6/7 share two stock-preset simulation runs ----------------------------

@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    ds, a, b = root / "ds", root / "a", root / "b"
    assert main(["gen-data", "--out", str(ds)]) == 0
    assert main(["simulate", "--data", str(ds), "--out", str(a)]) == 0
    assert main(["simulate", "--data", str(ds), "--out", str(b)]) == 0
    return ds, a, b


def read_rows(out_dir):
    lines = (Path(out_dir) / "metrics.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def test_5_one_shot_clients_improve_through_federation(desk_runs):
    with criterion("5 federated improvement"):
        ds, a, _ = desk_runs
        manifest = json.loads((ds / "manifest.json").read_text())
        assert len(manifest["test"]) == 100
        rows = read_rows(a)
        local = {r["client"]: r["accuracy"] for r in rows
                 if r["event"] == "train" and r["round"] == 1}
        assert sorted(local) == [0, 1, 2, 3, 4]
        final = [r for r in rows if r["event"] == "round"][-1]
        assert final["round"] == 8
        for cid in sorted(local):
            assert final["accuracy"] >= local[cid], (cid, local[cid])
        assert final["accuracy"] - np.mean(list(local.values())) >= 0.05
        assert final["accuracy"] > 0.2


def _expect_designated_error(codes, interact):
    initial = ModelSnapshot(0, np.zeros((3, 8), dtype=np.int8))
    outcome = {}

    def run():
        try:
            serve_federation(cfg, initial, server_socket=srv)
            outcome["error"] = None
        except FederationError as err:
            outcome["error"] = err

    with socket.create_server(("127.0.0.1", 0)) as srv:
        cfg = ExperimentConfig(clients=1, rounds=2, local_epochs=1,
                               listen=srv.getsockname(), timeout_s=5.0)
        thread = threading.Thread(target=run)
        thread.start()
        try:
            interact(srv.getsockname())
        finally:
            thread.join(timeout=20)
    assert not thread.is_alive()
    assert "error" in outcome, "server died with a non-designated exception"
    assert outcome["error"] is not None, "server did not reject the input"
    assert outcome["error"].code in codes, outcome["error"]


def _truncated_frame(addr):
    with socket.create_connection(addr, timeout=5) as s:
        s.sendall(b"NFL1\x01\x00\x00")


def _corrupted_checksum(addr):
    data = bytearray(encode_message(Message(MessageType.HELLO, 0)))
    data[-1] ^= 0xFF
    with socket.create_connection(addr, timeout=5) as s:
        s.sendall(bytes(data))


def _duplicate_delta(addr):
    with socket.create_connection(addr, timeout=5) as s:
        s.settimeout(5)
        send_frame(s, Message(MessageType.HELLO, 0))
        first = recv_frame(s)
        assert first.type is MessageType.SNAPSHOT and first.round == 0
        dup = Message(MessageType.DELTA, 0, 1,
                      pack_array(np.zeros((3, 8), dtype=np.int8), "<i2"))
        send_frame(s, dup)
        assert recv_frame(s).round == 1
        send_frame(s, dup)  # round 1 again while round 2 is expected
        assert recv_frame(s).type is MessageType.ABORT


def test_6_socket_transport_matches_in_process(desk_runs):
    with criterion("6 transport equivalence"):
        ds, a, _ = desk_runs
        root = a.parent
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        def spawn(*argv):
            return subprocess.Popen(
                [sys.executable, "-m", "fedspike", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

        addr = f"127.0.0.1:{port}"
        server = spawn("serve", "--listen", addr, "--out", str(root / "srv"))
        clients = [spawn("client", "--listen", addr, "--id", str(k),
                         "--data", str(ds), "--out", str(root / f"c{k}"))
                   for k in range(5)]
        results = [p.communicate(timeout=110) for p in (server, *clients)]
        assert server.returncode == 0, results[0][1]
        assert all(p.returncode == 0 for p in clients), results

        socket_global = (root / "srv" / "weights_global.nfw").read_bytes()
        inproc_global = (a / "weights_global.nfw").read_bytes()
        assert socket_global == inproc_global, "snapshot differs across transports"

        _expect_designated_error({"TRUNCATED"}, _truncated_frame)
        _expect_designated_error({"BAD_CHECKSUM"}, _corrupted_checksum)
        _expect_designated_error({"ROUND_MISMATCH"}, _duplicate_delta)


def test_7_repeated_runs_are_byte_identical(desk_runs):
    with criterion("7 determinism"):
        _, a, b = desk_runs
        names = ["metrics.jsonl", "config.ini", "weights_global.nfw"]
        names += [f"weights_client_{k}.nfw" for k in range(5)]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


# The published stock result, in process and over the socket transport.
STOCK_CHECKSUM = 0x0F7732E0
STOCK_METRICS_SHA256 = "5284cc429a652f16c60ab504fd2d69fafcf80316fa90de2ae67b9f242260db7d"
STOCK_SOCKET_METRICS_SHA256 = "55245b013595458cd64cbcb6e722c667e2df01a40a610c0a84af6351a1ad6f3d"


def test_7_stock_run_reproduces_the_published_result(desk_runs):
    with criterion("7 determinism: published result"):
        ds, a, _ = desk_runs
        final = [r for r in read_rows(a) if r["event"] == "round"][-1]
        assert (final["round"], final["checksum"], final["accuracy"]) == (8, STOCK_CHECKSUM, 0.9)
        assert hashlib.sha256((a / "metrics.jsonl").read_bytes()).hexdigest() == STOCK_METRICS_SHA256
        sock = a.parent / "socket"
        assert main(["simulate", "--data", str(ds), "--transport", "socket",
                     "--listen", "127.0.0.1:0", "--out", str(sock)]) == 0
        metrics = (sock / "metrics.jsonl").read_bytes()
        assert hashlib.sha256(metrics).hexdigest() == STOCK_SOCKET_METRICS_SHA256
