"""Command-line surface: gen-data, simulate, serve/client, eval.

Everything here runs a miniature experiment (8x8 sensor, no hidden layer,
a couple of rounds) so the whole file stays fast while still exercising the
real end-to-end paths, including subprocess socket runs.
"""

import hashlib
import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from fedspike import federation
from fedspike.cli import main
from fedspike.config import ExperimentConfig
from fedspike.data import EVENT_DTYPE, GestureSample, write_events
from fedspike.experiment import (
    build_dataset,
    evaluate_network,
    load_shots,
    network_for,
)
from fedspike.weights_io import save_weights

TINY_INI = """\
[network]
arch = 8x8x2, out
output_threshold = 128

[plasticity]
window = 10
target_rate = 6

[federation]
clients = 2
rounds = 2

[data]
classes = 3
width = 8
height = 8
duration_us = 200000
test_size = 9
noise_rate = 0.5
"""


@pytest.fixture
def tiny_ini(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(out_dir):
    text = (Path(out_dir) / "metrics.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines()]


def tree_bytes(root):
    """Relative path -> content for every file under root, for comparisons."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def dataset_digest(root):
    """sha256 over the manifest and every event file: path, then content hash."""
    digest = hashlib.sha256()
    for path, data in tree_bytes(root).items():
        if path == "manifest.json" or path.endswith(".nfev"):
            digest.update(path.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


# dataset_digest of `gen-data --config TINY_INI`: the event bytes of the
# synthetic stream and the split are fixed for a config and seed.
TINY_DATASET_SHA256 = "30a319487318ca0b7422d57079faa27811c606812fa3bf27a5756e49898eaf58"


class TestGenData:
    def test_tree_is_pinned(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "ds"
        run_cli(capsys, "gen-data", "--config", tiny_ini, "--out", str(out))
        assert len(tree_bytes(out)) == 17  # manifest, config.ini, 6 shots, 9 test
        assert dataset_digest(out) == TINY_DATASET_SHA256


    def test_writes_shots_test_and_manifest(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "ds"
        code, _, _ = run_cli(capsys, "gen-data", "--config", tiny_ini,
                             "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["shots"]) == ["0", "1"]
        for cid in ("0", "1"):
            assert len(manifest["shots"][cid]) == 3
            labels = sorted(e["label"] for e in manifest["shots"][cid])
            assert labels == [0, 1, 2]
        assert len(manifest["test"]) == 9
        for entry in manifest["test"]:
            assert (out / entry["path"]).is_file()
        assert (out / "config.ini").is_file()

    def test_rerun_is_byte_identical(self, tiny_ini, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "gen-data", "--config", tiny_ini, "--out", str(a))
        run_cli(capsys, "gen-data", "--config", tiny_ini, "--out", str(b))
        assert tree_bytes(a) == tree_bytes(b)

    def test_zero_test_size(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "ds"
        ini = tmp_path / "zero.ini"
        ini.write_text(TINY_INI.replace("test_size = 9", "test_size = 0"))
        code, _, _ = run_cli(capsys, "gen-data", "--config", str(ini),
                             "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["test"] == []

    def test_shots_load_back_sorted_by_label(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "ds"
        run_cli(capsys, "gen-data", "--config", tiny_ini, "--out", str(out))
        shots = load_shots(out, 1)
        assert [s.label for s in shots] == [0, 1, 2]
        assert all(len(s.events) > 0 for s in shots)

    def test_recording_window_survives_the_round_trip(self, tiny_ini, tmp_path,
                                                      capsys):
        # event files store only events; the manifest keeps the window that
        # binning needs, so short recordings must not stretch on reload
        out = tmp_path / "ds"
        run_cli(capsys, "gen-data", "--config", tiny_ini, "--out", str(out))
        shots = load_shots(out, 0)
        assert all(s.duration_us == 200_000 for s in shots)

    def test_sensor_over_u16_is_a_config_error(self, tmp_path, capsys):
        # The arch agrees with the 70000-wide sensor; event files cannot hold it.
        ini = tmp_path / "wide.ini"
        ini.write_text("[network]\narch = 4x70000x2, out\n[data]\nwidth = 70000\n"
                       "height = 4\nclasses = 2\ntest_size = 0\n[federation]\nclients = 1\n")
        out = tmp_path / "ds"
        code, _, stderr = run_cli(capsys, "gen-data", "--config", str(ini), "--out", str(out))
        assert code == 1
        assert "error: [data] width: must be in [1, 65535]" in stderr
        assert not out.exists()


class TestSimulate:
    def test_metrics_rows_and_artifacts(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, stderr = run_cli(capsys, "simulate", "--config", tiny_ini,
                                       "--out", str(out))
        assert code == 0
        rows = [json.loads(line) for line in stdout.splitlines()]
        assert rows == read_rows(out)
        kinds = [r["event"] for r in rows]
        assert kinds.count("init") == 1
        assert kinds.count("train") == 4  # 2 rounds x 2 clients
        assert kinds.count("round") == 2
        assert rows[0]["event"] == "init" and rows[0]["round"] == 0
        for r in rows:
            if r["event"] == "train":
                assert set(r) >= {"round", "client", "error_l1",
                                  "triggered_updates", "boundaries", "accuracy"}
            if r["event"] == "round":
                assert set(r) >= {"round", "checksum", "accuracy"}
        assert "final round 2" in stderr
        assert (out / "weights_global.nfw").is_file()
        assert (out / "weights_client_0.nfw").is_file()
        assert (out / "weights_client_1.nfw").is_file()
        assert (out / "config.ini").is_file()

    def test_rounds_zero_evaluates_initial_model_only(self, tiny_ini, tmp_path,
                                                      capsys):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(capsys, "simulate", "--config", tiny_ini,
                                  "--rounds", "0", "--out", str(out))
        assert code == 0
        rows = [json.loads(line) for line in stdout.splitlines()]
        assert [r["event"] for r in rows] == ["init"]
        assert "accuracy" in rows[0]

    def test_same_seed_same_bytes(self, tiny_ini, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "simulate", "--config", tiny_ini, "--out", str(a))
        run_cli(capsys, "simulate", "--config", tiny_ini, "--out", str(b))
        assert tree_bytes(a) == tree_bytes(b)

    def test_seed_changes_outcome(self, tiny_ini, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "simulate", "--config", tiny_ini, "--out", str(a))
        run_cli(capsys, "simulate", "--config", tiny_ini, "--seed", "8",
                "--out", str(b))
        checksums = [
            [r["checksum"] for r in read_rows(d) if r["event"] == "round"]
            for d in (a, b)
        ]
        assert checksums[0] != checksums[1]

    def test_file_dataset_matches_in_memory(self, tiny_ini, tmp_path, capsys):
        ds, a, b = tmp_path / "ds", tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "gen-data", "--config", tiny_ini, "--out", str(ds))
        run_cli(capsys, "simulate", "--config", tiny_ini, "--out", str(a))
        run_cli(capsys, "simulate", "--config", tiny_ini, "--data", str(ds),
                "--out", str(b))
        assert tree_bytes(a) == tree_bytes(b)

    def test_socket_transport_same_model(self, tiny_ini, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "simulate", "--config", tiny_ini, "--out", str(a))
        code, _, _ = run_cli(capsys, "simulate", "--config", tiny_ini,
                             "--transport", "socket", "--out", str(b))
        assert code == 0
        rounds = [
            [(r["round"], r["checksum"]) for r in read_rows(d)
             if r["event"] == "round"]
            for d in (a, b)
        ]
        assert rounds[0] == rounds[1]
        ga = (a / "weights_global.nfw").read_bytes()
        gb = (b / "weights_global.nfw").read_bytes()
        assert ga == gb

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[federation]\nrounds = -1\n")
        code, _, stderr = run_cli(capsys, "simulate", "--config", str(ini),
                                  "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error:" in stderr and "rounds" in stderr


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def spawn(*argv):
    return subprocess.Popen([sys.executable, "-m", "fedspike", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


class TestServeClient:
    def test_socket_processes_match_in_process(self, tiny_ini, tmp_path, capsys):
        ds = tmp_path / "ds"
        ref = tmp_path / "ref"
        run_cli(capsys, "gen-data", "--config", tiny_ini, "--out", str(ds))
        run_cli(capsys, "simulate", "--config", tiny_ini, "--data", str(ds),
                "--out", str(ref))

        addr = f"127.0.0.1:{free_port()}"
        server = spawn("serve", "--config", tiny_ini, "--listen", addr,
                       "--out", str(tmp_path / "srv"))
        clients = [
            spawn("client", "--config", tiny_ini, "--listen", addr,
                  "--id", str(k), "--data", str(ds),
                  "--out", str(tmp_path / f"c{k}"))
            for k in (0, 1)
        ]
        outs = [p.communicate(timeout=60) for p in (server, *clients)]
        assert server.returncode == 0, outs[0][1]
        assert all(p.returncode == 0 for p in clients), outs

        ref_global = (ref / "weights_global.nfw").read_bytes()
        srv_global = (tmp_path / "srv" / "weights_global.nfw").read_bytes()
        assert srv_global == ref_global
        for k in (0, 1):
            got = (tmp_path / f"c{k}" / f"weights_client_{k}.nfw").read_bytes()
            want = (ref / f"weights_client_{k}.nfw").read_bytes()
            assert got == want

    def test_missing_clients_time_out(self, tmp_path):
        ini = tmp_path / "short.ini"
        ini.write_text(TINY_INI.replace("rounds = 2",
                                        "rounds = 2\ntimeout_s = 1.0"))
        addr = f"127.0.0.1:{free_port()}"
        server = spawn("serve", "--config", str(ini), "--listen", addr,
                       "--out", str(tmp_path / "srv"))
        _, stderr = server.communicate(timeout=30)
        assert server.returncode == 1
        assert "CLIENT_TIMEOUT" in stderr

    def test_garbage_connection_is_rejected(self, tmp_path):
        ini = tmp_path / "short.ini"
        ini.write_text(TINY_INI.replace("rounds = 2",
                                        "rounds = 2\ntimeout_s = 2.0"))
        addr_port = free_port()
        server = spawn("serve", "--config", str(ini),
                       "--listen", f"127.0.0.1:{addr_port}",
                       "--clients", "1", "--out", str(tmp_path / "srv"))
        for _ in range(50):
            try:
                with socket.create_connection(("127.0.0.1", addr_port), 0.2) as c:
                    c.sendall(b"X" * 19)
                break
            except OSError:
                time.sleep(0.1)
        _, stderr = server.communicate(timeout=30)
        assert server.returncode == 1
        assert "error:" in stderr

    def test_client_without_server_fails(self, tiny_ini, tmp_path, capsys):
        ds = tmp_path / "ds"
        run_cli(capsys, "gen-data", "--config", tiny_ini, "--out", str(ds))
        code, _, stderr = run_cli(
            capsys, "client", "--config", tiny_ini,
            "--listen", f"127.0.0.1:{free_port()}",
            "--id", "0", "--data", str(ds), "--out", str(tmp_path / "c"))
        assert code == 1
        assert "error:" in stderr


def fail_round_2(monkeypatch):
    """Make aggregation of round 2 raise, as a bad delta would."""
    aggregate = federation.aggregate

    def failing(snapshot, deltas, num_clients):
        if snapshot.round + 1 == 2:
            raise federation.FederationError("ROUND_MISMATCH", "injected")
        return aggregate(snapshot, deltas, num_clients)
    monkeypatch.setattr(federation, "aggregate", failing)


class TestFailureRows:
    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_simulate_keeps_round_1_rows_then_the_error(self, tiny_ini, tmp_path, capsys,
                                                        monkeypatch, transport):
        ok, bad = tmp_path / "ok", tmp_path / "bad"
        run_cli(capsys, "simulate", "--config", tiny_ini, "--transport", transport,
                "--out", str(ok))
        fail_round_2(monkeypatch)
        code, _, stderr = run_cli(capsys, "simulate", "--config", tiny_ini,
                                  "--transport", transport, "--out", str(bad))
        assert code == 1 and "ROUND_MISMATCH" in stderr
        rows = read_rows(bad)
        assert rows[-1] == {"event": "error", "code": "ROUND_MISMATCH",
                            "message": "injected", "round": 2}
        kept = [r for r in read_rows(ok) if r["round"] < 2]
        assert {"round", "train"} <= {r["event"] for r in kept}
        assert rows[:-1] == kept

    def test_serve_and_client_keep_round_1_rows_then_the_error(self, tiny_ini, tmp_path,
                                                               capsys, monkeypatch):
        ds, addr = tmp_path / "ds", f"127.0.0.1:{free_port()}"
        run_cli(capsys, "gen-data", "--config", tiny_ini, "--out", str(ds))
        fail_round_2(monkeypatch)
        codes = {}
        argvs = {"srv": ["serve", "--config", tiny_ini, "--listen", addr]}
        for k in (0, 1):
            argvs[f"c{k}"] = ["client", "--config", tiny_ini, "--listen", addr,
                              "--id", str(k), "--data", str(ds)]

        def run(name, argv):
            codes[name] = main(argv + ["--out", str(tmp_path / name)])
        threads = [threading.Thread(target=run, args=item) for item in argvs.items()]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        capsys.readouterr()
        assert codes == {"srv": 1, "c0": 1, "c1": 1}
        srv = read_rows(tmp_path / "srv")
        assert [r["event"] for r in srv] == ["round", "error"]
        assert srv[0]["round"] == 1
        assert srv[1] == {"event": "error", "code": "ROUND_MISMATCH",
                          "message": "injected", "round": 2}
        for k in (0, 1):
            rows = read_rows(tmp_path / f"c{k}")
            assert [(r["event"], r["round"]) for r in rows] == [("train", 1), ("error", 2)]
            assert rows[1]["code"] == "SERVER_ABORT"
            assert rows[1]["message"] == "round 2 failed: injected"


def half_field_sample(label: int, width=8, height=8) -> GestureSample:
    """Events confined to the top (label 0) or bottom (label 1) half."""
    rows = range(height // 2) if label == 0 else range(height // 2, height)
    recs = []
    for step in range(10):
        t = step * 10_000
        for i, y in enumerate(rows):
            recs.append((t, (step + i) % width, y, i % 2))
    events = np.array(recs, dtype=EVENT_DTYPE)
    return GestureSample(events=events, label=label, width=width,
                         height=height, duration_us=100_000)


def write_test_split(ds, samples, classes=2):
    """A dataset directory holding only a test split of these samples."""
    (ds / "test").mkdir(parents=True)
    entries = []
    for i, sample in enumerate(samples):
        rel = f"test/{i:03d}_{sample.label}.nfev"
        write_events(ds / rel, sample)
        entries.append({"path": rel, "label": sample.label})
    (ds / "manifest.json").write_text(json.dumps(
        {"version": 1, "classes": classes, "clients": 0,
         "duration_us": samples[0].duration_us, "shots": {}, "test": entries},
        indent=2, sort_keys=True))
    return ds


class TestEval:
    CHANCE_INI = TINY_INI.replace("classes = 3", "classes = 5").replace(
        "test_size = 9", "test_size = 100")

    def test_random_weights_score_at_chance(self, tmp_path):
        cfg = ExperimentConfig(
            arch="8x8x2, out", width=8, height=8, classes=5, clients=2,
            test_size=100, duration_us=200_000, output_threshold=128,
            noise_rate=0.5, window=10, target_rate=6)
        _, test = build_dataset(cfg)
        labels = np.bincount([s.label for s in test])
        assert labels.tolist() == [20] * 5
        net = network_for(cfg)
        accs = []
        for seed in range(5):
            r = np.random.default_rng(seed)
            w = (r.integers(-64, 64, size=(5, 128)) * 2).astype(np.int8)
            net.output_layer.set_weights(w)
            accs.append(evaluate_network(net, test, cfg.dt_us))
        assert 0.1 <= np.mean(accs) <= 0.3

    def test_random_weights_cli(self, tmp_path, capsys):
        ini = tmp_path / "chance.ini"
        ini.write_text(self.CHANCE_INI)
        ds = tmp_path / "ds"
        run_cli(capsys, "gen-data", "--config", str(ini), "--out", str(ds))
        cfg = ExperimentConfig(
            arch="8x8x2, out", width=8, height=8, classes=5, clients=2,
            test_size=100, duration_us=200_000, output_threshold=128,
            noise_rate=0.5, window=10, target_rate=6)
        net = network_for(cfg)
        r = np.random.default_rng(0)
        net.output_layer.set_weights(
            (r.integers(-64, 64, size=(5, 128)) * 2).astype(np.int8))
        wpath = tmp_path / "random.nfw"
        save_weights(wpath, net.topologies)
        code, stdout, _ = run_cli(capsys, "eval", "--config", str(ini),
                                  "--weights", str(wpath), "--data", str(ds))
        assert code == 0
        result = json.loads(stdout)
        assert result["samples"] == 100
        assert 0.1 <= result["accuracy"] <= 0.3

    def test_handcrafted_classifier_is_perfect(self, tmp_path, capsys):
        ini = tmp_path / "half.ini"
        ini.write_text(TINY_INI.replace("classes = 3", "classes = 2"))
        ds = write_test_split(tmp_path / "ds", [half_field_sample(i % 2) for i in range(6)])

        # one output unit per half: strong excitation inside, inhibition outside
        w = np.zeros((2, 128), dtype=np.int8)
        for y in range(8):
            for x in range(8):
                for p in range(2):
                    idx = (y * 8 + x) * 2 + p
                    w[0, idx] = 126 if y < 4 else -128
                    w[1, idx] = -128 if y < 4 else 126
        cfg = ExperimentConfig(arch="8x8x2, out", width=8, height=8, classes=2,
                               clients=1, test_size=0, output_threshold=128,
                               duration_us=200_000, window=10, target_rate=6,
                               noise_rate=0.5)
        net = network_for(cfg)
        net.output_layer.set_weights(w)
        wpath = tmp_path / "oracle.nfw"
        save_weights(wpath, net.topologies)

        code, stdout, _ = run_cli(capsys, "eval", "--config", str(ini),
                                  "--weights", str(wpath), "--data", str(ds))
        assert code == 0
        result = json.loads(stdout)
        assert result == {"accuracy": 1.0, "samples": 6}

    def test_empty_test_set_is_an_error(self, tmp_path, capsys):
        ini = tmp_path / "zero.ini"
        ini.write_text(TINY_INI.replace("test_size = 9", "test_size = 0"))
        ds = tmp_path / "ds"
        run_cli(capsys, "gen-data", "--config", str(ini), "--out", str(ds))
        run_cli(capsys, "simulate", "--config", str(ini), "--out",
                str(tmp_path / "run"))
        code, _, stderr = run_cli(
            capsys, "eval", "--config", str(ini),
            "--weights", str(tmp_path / "run" / "weights_global.nfw"),
            "--data", str(ds))
        assert code == 1
        assert "empty test set" in stderr

    def test_dataset_of_another_sensor_is_an_error(self, tmp_path, capsys):
        """The stock net pools 2 x 2 first; a 33-wide sensor must not bin
        into its 16-wide pool output."""
        net = network_for(ExperimentConfig())
        wpath = tmp_path / "stock.nfw"
        save_weights(wpath, net.topologies)
        ds = write_test_split(tmp_path / "ds", [half_field_sample(i % 2, width=33, height=32)
                                                for i in range(2)])
        code, stdout, stderr = run_cli(capsys, "eval", "--weights", str(wpath),
                                       "--data", str(ds))
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: frame shape (32, 33, 2) does not match input")
        assert "Traceback" not in stderr

    def test_missing_weight_file(self, tiny_ini, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "eval", "--config", tiny_ini,
                                  "--weights", str(tmp_path / "nope.nfw"),
                                  "--data", str(tmp_path / "ds"))
        assert code == 1
        assert "error:" in stderr
