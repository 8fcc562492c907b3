"""Command-line surface: gen-data, simulate, serve/client, eval.

Everything here runs a miniature experiment (8x8 sensor, no hidden layer,
a couple of rounds) so the whole file stays fast while still exercising the
real end-to-end paths, including subprocess socket runs.
"""

import hashlib
import json
import os
import socket
import struct
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
from fedspike.data import EVENT_DTYPE, GestureSample, read_events, write_events
from fedspike.experiment import (
    build_dataset,
    evaluate_network,
    load_shots,
    load_test,
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
# synthetic stream and the split are fixed for a config and seed. (NFEV v2
# headers and the v2 manifest; the event records are those of version 1.)
TINY_DATASET_SHA256 = "c8ab3f61fdae0459009727c8a8814861d1e4e539f20e05f3982bc75449a3d16a"


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
            assert [read_events(out / p).label for p in manifest["shots"][cid]] == [0, 1, 2]
        assert len(manifest["test"]) == 9
        for path in manifest["test"]:
            assert (out / path).is_file()
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
        # each event file's header keeps the window that binning needs, so
        # short recordings must not stretch on reload
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
        assert "error: BAD_CONFIG: [data] width: must be in [1, 65535]" in stderr
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

    @pytest.mark.parametrize("text, why", [
        ("arch = desk\n", "File contains no section headers"),
        ("[network]\narch = desk\narch = desk\n", "option 'arch' in section 'network' "
                                                 "already exists"),
        ("[network]\narch = 50%\n", "[network] arch: "),
    ], ids=["no-header", "duplicate-key", "percent"])
    def test_unparsable_config_file_is_a_config_error(self, tmp_path, capsys, text, why):
        # Each used to die in a raw configparser traceback.
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        code, _, stderr = run_cli(capsys, "simulate", "--config", str(ini), "--rounds", "1",
                                  "--out", str(tmp_path / "o"))
        assert code == 1
        assert stderr.startswith("error: BAD_CONFIG: ") and why in stderr
        assert "Traceback" not in stderr

    def test_dataset_labels_past_the_head(self, tiny_ini, tmp_path, capsys):
        # A 4-class dataset on the 3-class config used to die in a raw
        # IndexError while training.
        ini = tmp_path / "four.ini"
        ini.write_text(TINY_INI.replace("classes = 3", "classes = 4"))
        ds = tmp_path / "ds"
        run_cli(capsys, "gen-data", "--config", str(ini), "--out", str(ds))
        code, stdout, stderr = run_cli(capsys, "simulate", "--config", tiny_ini,
                                       "--data", str(ds), "--out", str(tmp_path / "o"))
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: BAD_LABEL: label 3 is past the 3 classes")

    def test_learning_rate_beyond_the_integer_update_is_a_config_error(self, tmp_path,
                                                                       capsys):
        # A power of two, but above 2^8; it used to train at a float rate.
        ini = tmp_path / "rate.ini"
        ini.write_text("[plasticity]\nlearning_rate = 1024\n")
        code, _, stderr = run_cli(capsys, "simulate", "--config", str(ini), "--rounds", "1",
                                  "--out", str(tmp_path / "o"))
        assert code == 1
        assert ("error: BAD_CONFIG: [plasticity] learning_rate: learning_rate must be a power of two "
                "in [2^-40, 2^8], got 1024") in stderr
        assert "Traceback" not in stderr


    def test_layer_too_wide_for_weight_files_is_a_config_error(self, tmp_path, capsys):
        # It used to train every round, then die saving weights_global.nfw
        # with a raw struct.error and leave the file truncated.
        ini = tmp_path / "wide.ini"
        ini.write_text("[network]\narch = 2x2x2, dense65536, out\n"
                       "[data]\nwidth = 2\nheight = 2\nclasses = 1\ntest_size = 1\n"
                       "[federation]\nclients = 1\nrounds = 1\n")
        code, _, stderr = run_cli(capsys, "simulate", "--config", str(ini),
                                  "--out", str(tmp_path / "o"))
        assert code == 1
        assert ("error: BAD_CONFIG: [network] arch: layer 0 (dense) maps (2, 2, 2) -> (1, 1, 65536) with "
                "524288 weights; a weight file holds dimensions up to 65535") in stderr
        assert "Traceback" not in stderr
        assert not (tmp_path / "o" / "weights_global.nfw").exists()

    @pytest.mark.parametrize("section, key", [("network", "refractory_hidden"),
                                              ("network", "refractory_output"),
                                              ("plasticity", "window"),
                                              ("plasticity", "target_rate"),
                                              ("plasticity", "off_target"),
                                              ("data", "step_us"),
                                              ("data", "dt_us")])
    def test_step_count_beyond_int64_is_a_config_error(self, tmp_path, capsys, section, key):
        # 2^63 used to run on a wrapped refractory period (exit 0) or die in
        # a raw OverflowError while training, synthesizing or binning.
        ini = tmp_path / "steps.ini"
        ini.write_text(f"[{section}]\n{key} = {2**63}\n")
        code, _, stderr = run_cli(capsys, "simulate", "--config", str(ini), "--rounds", "1",
                                  "--clients", "2", "--out", str(tmp_path / "o"))
        assert code == 1
        assert f"error: BAD_CONFIG: [{section}] {key}: must be in" in stderr
        assert "Traceback" not in stderr

    def test_out_of_memory_is_a_coded_error(self, tmp_path):
        # The validator accepts a conv of 65535 channels over 64 x 64, whose
        # neuron state alone takes 2 GiB; past the memory a process may take,
        # the run used to die in a numpy traceback. The child caps its own
        # address space at 1 GiB, so the first 2 GiB array fails at once.
        pytest.importorskip("resource")  # the child's limit needs a POSIX host
        ini = tmp_path / "big.ini"
        ini.write_text("[network]\narch = 64x64x2, 65535c1, out\n[federation]\nrounds = 1\n"
                       "clients = 1\n[data]\nwidth = 64\nheight = 64\ntest_size = 0\n")
        child = ("import resource, sys\n"
                 "from fedspike.cli import main\n"
                 f"resource.setrlimit(resource.RLIMIT_AS, ({1 << 30}, {1 << 30}))\n"
                 f"sys.exit(main(['simulate', '--config', {str(ini)!r}, "
                 f"'--out', {str(tmp_path / 'o')!r}]))\n")
        # One BLAS thread, so that the child's own address space stays small.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: OUT_OF_MEMORY: Unable to allocate 2.00 GiB")
        assert "Traceback" not in proc.stderr


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

    def test_served_run_records_its_transport(self, tiny_ini, tmp_path, capsys):
        # serve and client write a config.ini with transport = socket (serve
        # used to record the default inproc, and client wrote none), so a
        # simulate of that config runs over TCP, as the served run did.
        ds = tmp_path / "ds"
        run_cli(capsys, "gen-data", "--config", tiny_ini, "--out", str(ds))
        addr = f"127.0.0.1:{free_port()}"
        outs = {"srv": ["serve"]}
        outs.update({f"c{k}": ["client", "--id", str(k), "--data", str(ds)] for k in (0, 1)})
        procs = [spawn(*argv, "--config", tiny_ini, "--listen", addr,
                       "--out", str(tmp_path / name)) for name, argv in outs.items()]
        for p in procs:
            assert p.communicate(timeout=60) and p.returncode == 0
        for name in outs:
            assert "transport = socket\n" in (tmp_path / name / "config.ini").read_text()

        rerun = tmp_path / "rerun"
        code, _, _ = run_cli(capsys, "simulate", "--config", str(tmp_path / "srv" / "config.ini"),
                             "--data", str(ds), "--out", str(rerun))
        assert code == 0
        assert ((rerun / "weights_global.nfw").read_bytes()
                == (tmp_path / "srv" / "weights_global.nfw").read_bytes())
        # A run over TCP is not scored; one in process would record accuracy.
        assert not any("accuracy" in row for row in read_rows(rerun))

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
        ini = tmp_path / "short.ini"
        ini.write_text(TINY_INI.replace("rounds = 2", "rounds = 2\ntimeout_s = 1.0"))
        port = free_port()
        code, _, stderr = run_cli(
            capsys, "client", "--config", str(ini), "--listen", f"127.0.0.1:{port}",
            "--id", "0", "--data", str(ds), "--out", str(tmp_path / "c"))
        assert code == 1
        assert "error: CONNECT_TIMEOUT: " in stderr
        assert read_rows(tmp_path / "c") == [{
            "event": "error", "code": "CONNECT_TIMEOUT", "round": None,
            "message": f"could not reach server at ('127.0.0.1', {port})"}]

    def test_client_of_a_silent_server_writes_an_error_row(self, tiny_ini, tmp_path, capsys):
        # A server that accepts and never answers: the client names the stall
        # with a code and ends metrics.jsonl in an error row.
        ds = tmp_path / "ds"
        run_cli(capsys, "gen-data", "--config", tiny_ini, "--out", str(ds))
        ini = tmp_path / "short.ini"
        ini.write_text(TINY_INI.replace("rounds = 2", "rounds = 2\ntimeout_s = 0.5"))
        with socket.create_server(("127.0.0.1", 0)) as srv:
            host, port = srv.getsockname()
            code, _, stderr = run_cli(
                capsys, "client", "--config", str(ini), "--listen", f"{host}:{port}",
                "--id", "0", "--data", str(ds), "--out", str(tmp_path / "c"))
        assert code == 1
        assert "error: SERVER_TIMEOUT: " in stderr
        last = read_rows(tmp_path / "c")[-1]
        assert last["event"] == "error" and last["code"] == "SERVER_TIMEOUT"
        assert last["round"] == 1

    @pytest.mark.parametrize("command", [["serve"], ["client", "--id", "0", "--data", "ds"]],
                             ids=["serve", "client"])
    def test_transport_flag_is_refused(self, capsys, command):
        # Both speak TCP whatever the flag says; serve used to accept
        # "--transport inproc", serve over TCP and record inproc in config.ini.
        with pytest.raises(SystemExit) as exc:
            main([*command, "--transport", "inproc"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --transport inproc" in capsys.readouterr().err


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


def write_test_split(ds, samples):
    """A dataset directory holding only a test split of these samples."""
    (ds / "test").mkdir(parents=True)
    entries = []
    for i, sample in enumerate(samples):
        rel = f"test/{i:03d}_{sample.label}.nfev"
        write_events(ds / rel, sample)
        entries.append(rel)
    (ds / "manifest.json").write_text(json.dumps(
        {"version": 2, "shots": {}, "test": entries}, indent=2, sort_keys=True))
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
        assert stderr.startswith("error: EMPTY_TEST: empty test set")

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
        assert stderr.startswith("error: SHAPE_MISMATCH: frame shape (32, 33, 2) does not match input")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("layers", [
        [(1, (4, 4, 2), (2, 2, 2), b"")],
        [(3, (4, 4, 2), (1, 1, 2), bytes(64)), (1, (1, 1, 2), (1, 1, 2), b"")],
        [],
    ], ids=["pool-only", "pool-after-dense", "no-layers"])
    def test_weights_without_a_dense_head(self, tmp_path, capsys, layers):
        # They used to fail building the network, with no code.
        wpath = tmp_path / "w.nfw"
        wpath.write_bytes(b"NFW1" + struct.pack("<HH", 1, len(layers)) + b"".join(
            struct.pack("<B6HI", kind, *ins, *outs, len(w)) + w for kind, ins, outs, w in layers))
        ds = write_test_split(tmp_path / "ds", [half_field_sample(0, 4, 4)])
        code, stdout, stderr = run_cli(capsys, "eval", "--weights", str(wpath),
                                       "--data", str(ds))
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: NO_HEAD: the network does not end in a dense "
                                 "output layer")

    def test_labels_past_the_head(self, tmp_path, capsys):
        # A third class on a 2-class head used to score at 0.5 without a word.
        cfg = ExperimentConfig(arch="8x8x2, out", width=8, height=8, classes=2, clients=1,
                               test_size=0)
        wpath = tmp_path / "w.nfw"
        save_weights(wpath, network_for(cfg).topologies)
        ds = write_test_split(tmp_path / "ds", [half_field_sample(0), half_field_sample(2)])
        code, stdout, stderr = run_cli(capsys, "eval", "--weights", str(wpath),
                                       "--data", str(ds))
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: BAD_LABEL: label 2 is past the 2 classes")

    @pytest.mark.parametrize("flag", [["--rounds", "1"], ["--seed", "1"], ["--clients", "1"],
                                      ["--transport", "inproc"], ["--out", "/nonexistent"],
                                      ["--listen", "127.0.0.1:1"]])
    def test_takes_only_the_flags_it_reads(self, tmp_path, capsys, flag):
        # eval used to accept and ignore these.
        with pytest.raises(SystemExit) as exc:
            main(["eval", *flag, "--weights", "w.nfw", "--data", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_weight_file(self, tiny_ini, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "eval", "--config", tiny_ini,
                                  "--weights", str(tmp_path / "nope.nfw"),
                                  "--data", str(tmp_path / "ds"))
        assert code == 1
        assert "error:" in stderr


# Byte offset of the recording window in an event file's header: after the
# magic, the version, the sensor's width and height, the label and the subject.
WINDOW_OFFSET = 14


def set_window(path, duration_us):
    """Rewrite the recording window in an event file's header."""
    data = bytearray(path.read_bytes())
    data[WINDOW_OFFSET:WINDOW_OFFSET + 8] = struct.pack("<Q", duration_us)
    path.write_bytes(bytes(data))


class TestManifest:
    """A dataset is checked where it is read: a fault in its manifest exits 1
    as BAD_MANIFEST naming the manifest, and a fault in an event file with its
    own code naming the file; never a traceback or a silent run."""

    @pytest.fixture
    def ds(self, tmp_path):
        return write_test_split(tmp_path / "ds", [half_field_sample(i % 2) for i in range(2)])

    @staticmethod
    def edit(ds, change):
        path = ds / "manifest.json"
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))

    def expect_bad(self, capsys, tmp_path, ds, *why, command="eval", start=None):
        wpath = tmp_path / "w.nfw"
        cfg = ExperimentConfig(arch="8x8x2, out", width=8, height=8, classes=2, clients=1,
                               test_size=0, duration_us=100_000)
        save_weights(wpath, network_for(cfg).topologies)
        argv = {"eval": ["eval", "--weights", str(wpath)],
                "simulate": ["simulate", "--out", str(tmp_path / "o")],
                "client": ["client", "--id", "9", "--out", str(tmp_path / "o")]}[command]
        code, stdout, stderr = run_cli(capsys, *argv, "--data", str(ds))
        assert code == 1 and stdout == ""
        start = start or f"BAD_MANIFEST: manifest {ds / 'manifest.json'}: "
        assert stderr.startswith(f"error: {start}")
        for fragment in why:
            assert fragment in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("key", ["test", "shots", "version"])
    def test_missing_key(self, capsys, tmp_path, ds, key):
        # Without "test", eval and simulate used to die in a raw KeyError.
        self.edit(ds, lambda m: m.pop(key))
        self.expect_bad(capsys, tmp_path, ds, f"no '{key}' key")

    def test_missing_test_split_fails_simulate_too(self, capsys, tmp_path, ds):
        self.edit(ds, lambda m: m.pop("test"))
        self.expect_bad(capsys, tmp_path, ds, "no 'test' key", command="simulate")

    def test_unknown_version(self, capsys, tmp_path, ds):
        self.edit(ds, lambda m: m.update(version=99))
        self.expect_bad(capsys, tmp_path, ds, "unsupported version 99")

    def test_version_1_manifest_is_unsupported(self, capsys, tmp_path, ds):
        # The form that kept the window and each entry's label beside the files.
        self.edit(ds, lambda m: m.update(
            version=1, classes=2, clients=0, duration_us=100_000,
            test=[{"path": p, "label": int(p[-6])} for p in m["test"]]))
        self.expect_bad(capsys, tmp_path, ds, "unsupported version 1")

    @pytest.mark.parametrize("duration", [0, 2**32 + 1])
    def test_duration_outside_32_bit_timestamps(self, capsys, tmp_path, ds, duration):
        set_window(ds / "test/000_0.nfev", duration)
        self.expect_bad(capsys, tmp_path, ds, "is outside [1, 2^32]",
                        start=f"BAD_DURATION: event file {ds / 'test/000_0.nfev'}: ")

    @pytest.mark.parametrize("change", [
        lambda m: m.update(shots=[]),
        lambda m: m.update(shots={"0": "shot_0.nfev"}),
        lambda m: m.update(test={}),
        # The test entries given as one string rather than a list of them.
        lambda m: m.update(test="test/000_0.nfev"),
    ], ids=["shots-list", "shots-string", "test-dict", "entry-string"])
    def test_malformed_lists(self, capsys, tmp_path, ds, change):
        self.edit(ds, change)
        self.expect_bad(capsys, tmp_path, ds)

    @pytest.mark.parametrize("entry", [7, {"path": "test/000_0.nfev", "label": 0}, None],
                             ids=["number", "record", "null"])
    def test_entry_that_is_not_a_path(self, capsys, tmp_path, ds, entry):
        self.edit(ds, lambda m: m["test"].append(entry))
        self.expect_bad(capsys, tmp_path, ds, '"shots" and "test" must list paths')

    def test_not_json(self, capsys, tmp_path, ds):
        (ds / "manifest.json").write_text("{")
        self.expect_bad(capsys, tmp_path, ds)

    def test_unknown_client(self, capsys, tmp_path, ds):
        # It used to exit 1 with no code.
        self.expect_bad(capsys, tmp_path, ds, "no shots for client 9", command="client")

    @pytest.mark.parametrize("key", ["x", "03", "-1", " 1", "\u0663"])
    def test_client_keys_are_decimal_ids(self, capsys, tmp_path, ds, key):
        # "x" used to die in int() with no code; "03" and "3" were one client.
        self.edit(ds, lambda m: m.update(shots={key: []}))
        self.expect_bad(capsys, tmp_path, ds, '"shots" keys must be client ids in decimal',
                        command="simulate")

    def test_simulate_needs_shots(self, capsys, tmp_path, ds):
        # With no client it used to die in a raw IndexError.
        self.expect_bad(capsys, tmp_path, ds, "no client holds shots", command="simulate")

    @pytest.mark.parametrize("command", ["simulate", "client"])
    def test_client_with_two_shots_of_a_class(self, capsys, tmp_path, tiny_ini, command):
        # A shot listed twice used to train twice per epoch, and the run exited 0.
        ds = tmp_path / "gen"
        run_cli(capsys, "gen-data", "--config", tiny_ini, "--out", str(ds))
        self.edit(ds, lambda m: m["shots"]["0"].append(m["shots"]["0"][0]))
        argv = {"simulate": ["simulate"], "client": ["client", "--id", "0"]}[command]
        code, stdout, stderr = run_cli(capsys, *argv, "--config", tiny_ini, "--data", str(ds),
                                       "--out", str(tmp_path / "o"))
        assert (code, stdout) == (1, "")
        assert stderr == (f"error: BAD_MANIFEST: manifest {ds / 'manifest.json'}: "
                          "client 0 holds two shots of class 0\n")

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_event_at_or_past_the_duration(self, capsys, tmp_path, ds, command):
        # The last events sit at 90000 us; binning used to fail with no code.
        set_window(ds / "test/000_0.nfev", 90_000)
        if command == "simulate":
            self.edit(ds, lambda m: m.update(shots={"0": m["test"][:1]}))
        self.expect_bad(capsys, tmp_path, ds, "an event at 90000 us is not before "
                        "duration_us 90000", command=command,
                        start=f"BAD_DURATION: event file {ds / 'test/000_0.nfev'}: ")

    def test_event_before_the_duration_loads(self, ds):
        for path in (ds / "test").iterdir():
            set_window(path, 90_001)
        assert [s.duration_us for s in load_test(ds)] == [90_001] * 2

    def test_path_with_a_nul(self, capsys, tmp_path, ds):
        # open() used to raise a ValueError with no code.
        self.edit(ds, lambda m: m["test"].__setitem__(0, "test/\0.nfev"))
        self.expect_bad(capsys, tmp_path, ds, "an entry path holds a NUL character")

    def test_largest_duration_loads(self, ds):
        for path in (ds / "test").iterdir():
            set_window(path, 2**32)
        assert [s.duration_us for s in load_test(ds)] == [2**32] * 2
