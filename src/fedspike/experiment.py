"""Wires a config into a runnable federated experiment.

The pieces: a synthetic gesture pool split one-shot-per-class across
clients, one frozen trunk (the hidden layers) built once and shared by every
client's own head, per-client trainer rng streams, and cached trunk spike
trains so local training and evaluation replay exactly. The cache
(cache_spikes) and the score (evaluate_network, whose head runs in
snn.head_counts) share one trunk path: when the first layer is a k x k sum
pool, events bin straight into its counts and the trunk runs from layer 1,
so no stage scans the mostly-empty full-resolution frames.

Dataset files live in a directory written by write_dataset: one event file
per sample, which carries its label and recording window, plus a JSON
manifest that only lists each client's shot files and the test files. A
run can also synthesize the same dataset in memory; both paths produce
identical spike trains for one seed.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass, replace
from math import ceil
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .data import (EventFormatError, GestureSample, ShotAssignment, bin_events,
                   generate_synthetic, make_splits, read_events, write_events)
from .federation import (
    FederationError,
    LocalClient,
    ModelSnapshot,
    run_federation,
    run_socket_clients,
    serve_federation,
)
from .plasticity import SoelEngine
from .quant import Rng
from .snn import (DenseLayer, Network, SumPoolLayer, batches, build_network, classify,
                  head_counts, parse_arch)


def synth_pool(cfg: ExperimentConfig) -> list[GestureSample]:
    """One sample per (class, subject): enough subjects for shots plus test."""
    extra = ceil(cfg.test_size / cfg.classes) if cfg.test_size else 0
    subjects = cfg.clients + extra
    pool = []
    for class_index in range(cfg.classes):
        for subject in range(subjects):
            pool.append(generate_synthetic(
                class_index, cfg.master_seed, subject=subject,
                width=cfg.width, height=cfg.height,
                duration_us=cfg.duration_us, step_us=cfg.step_us,
                noise_rate=cfg.noise_rate))
    return pool


def build_dataset(cfg: ExperimentConfig):
    """Synthesize and split: returns (ShotAssignment, test sample list)."""
    return make_splits(synth_pool(cfg), cfg.clients, cfg.test_size, cfg.master_seed)


def network_for(cfg: ExperimentConfig) -> Network:
    """Fresh network instance; hidden weights are identical across calls."""
    topos = parse_arch(cfg.arch, cfg.classes)
    return build_network(topos, cfg.hidden_params(), cfg.output_params(),
                         rng=Rng(cfg.master_seed).fork("network"),
                         hidden_init_mag=cfg.hidden_init_mag)


# Samples binned and stepped together. When the first layer is a k x k sum
# pool, a batch holds BATCH binned (T, H/k, W/k, 2) frames: at k = 2, as in
# the desk arch, that is the memory of 4 raw (T, H, W, 2) frames.
BATCH = 16


def _run_binned(network: Network, samples, dt_us: int):
    """Bin samples' events and step them through the trunk, BATCH at a time.

    Yields each batch's (B, T, pre_size) trains into the head. When the first layer
    is a k x k sum pool, events bin straight into its counts (bin_events with
    pool=k) and the run starts at layer 1, which gives the same trains as
    stepping the binary frames through the pool. A sample from another
    sensor is SHAPE_MISMATCH, and one labelled past the output layer's
    classes BAD_LABEL.
    """
    first = network.layers[0]
    pool, start = (first.topo.kernel, 1) if isinstance(first, SumPoolLayer) else (1, 0)
    shape, classes = network.input_shape, network.output_layer.topo.out_shape[2]

    def frames():
        for s in samples:
            # Checked before binning: a pooled frame no longer shows the
            # sensor's shape to Network.run.
            if (s.height, s.width, 2) != shape:
                raise EventFormatError("SHAPE_MISMATCH", f"frame shape {(s.height, s.width, 2)} "
                                       f"does not match input {shape}")
            if not 0 <= s.label < classes:
                raise EventFormatError("BAD_LABEL", f"label {s.label} is past the "
                                       f"{classes} classes of the output layer")
            yield bin_events(s, dt_us, pool=pool)
    for x in batches(frames(), BATCH):
        yield network.run(x, start=start, stop=-1)


def cache_spikes(network: Network, samples, dt_us: int):
    """Hidden spike trains feeding the output layer, paired with the labels."""
    trains = [t for y in _run_binned(network, samples, dt_us) for t in y]
    return list(zip(trains, [s.label for s in samples]))


def client_for(cfg: ExperimentConfig, client_id: int, network: Network,
               shots) -> LocalClient:
    """One client: a zeroed head of its own on network's trunk layers (the
    objects, not copies) and its cached (train, label) shots. The clients
    share the trunk, which only cache_spikes steps, inside assemble, before
    the socket simulation's server thread starts; each snapshot installs
    into one client's own head, and train_clients trains every head at once
    (_run_socket_threads)."""
    head = network.output_layer
    own = DenseLayer(replace(head.topo, weights=np.zeros_like(head.topo.weights)), head.params)
    engine = SoelEngine(cfg, Rng(cfg.master_seed).fork(f"client/{client_id}"))
    return LocalClient(client_id, Network(network.layers[:-1] + [own]), engine, shots)


def clients_for(cfg: ExperimentConfig, shots_by_client) -> list[LocalClient]:
    """One client per id, in id order, each holding its shots sorted by label.

    The frozen trunk is built once and shared: all clients' shots run through
    it in one cache_spikes call, their trains are split back per client, and
    each client is a head of its own on the trunk.
    """
    ids = sorted(shots_by_client)
    groups = [sorted(shots_by_client[cid], key=lambda s: s.label) for cid in ids]
    trunk = network_for(cfg)
    cached = iter(cache_spikes(trunk, [s for group in groups for s in group], cfg.dt_us))
    return [client_for(cfg, cid, trunk, [next(cached) for _ in group])
            for cid, group in zip(ids, groups)]


@dataclass
class Experiment:
    clients: list[LocalClient]
    test_set: list
    initial: ModelSnapshot


def assemble(cfg: ExperimentConfig, shots_by_client=None,
             test_samples=None) -> Experiment:
    """Build clients and cached test data, from files or from scratch."""
    if shots_by_client is None:
        assignment, generated_test = build_dataset(cfg)
        shots_by_client = assignment.shots
        if test_samples is None:
            test_samples = generated_test
    clients = clients_for(cfg, shots_by_client)
    test_set = (cache_spikes(clients[0].network, test_samples, cfg.dt_us)
                if test_samples else [])
    initial = ModelSnapshot(0, clients[0].network.output_layer.topo.weights)  # all zero
    return Experiment(clients, test_set, initial)


def run_simulation(cfg: ExperimentConfig, shots_by_client=None,
                   test_samples=None):
    """Full federation run per the config; returns (final, metrics, experiment).

    In process with test data present, every per-client record carries that
    client's local-model accuracy measured before aggregation, and every
    global record carries the aggregated model's accuracy.
    """
    ex = assemble(cfg, shots_by_client, test_samples)
    if cfg.transport == "socket":
        final, metrics = _run_socket_threads(cfg, ex)
    else:
        final, metrics = run_federation(cfg, ex.clients, ex.initial, ex.test_set)
    return final, metrics, ex


# Failures that in one process only follow the other party's: the server's
# abort, and a connection dropped because the party at its other end failed.
_ECHOES = ("SERVER_ABORT", "CONNECTION_LOST")


def _run_socket_threads(cfg: ExperimentConfig, ex: Experiment):
    """Socket transport inside one process: the server in a thread, and all K
    clients in one run_socket_clients loop in the calling thread. The loop
    trains them in lockstep, as the in-process transport does; the frames,
    the server and the loop are those of `fedspike client` processes, each
    of which runs it with K = 1.

    An exception raised in training is raised as itself, at once: leaving
    the loop closes every connection, so the server fails with an echo (see
    _ECHOES). Otherwise the error raised is the first failure that is not an
    echo. A FederationError carries both parties' records of the rounds
    before the failed one, merged as in a successful run.
    """
    results: dict = {}
    errors: list[BaseException] = []

    def party(key, run, *args):
        try:
            results[key] = run(*args)
        except BaseException as err:  # noqa: BLE001 - re-raised below
            if isinstance(err, FederationError):
                results[key] = (None, err.metrics)
            errors.append(err)

    with socket.create_server(("127.0.0.1", 0)) as srv:
        server = threading.Thread(target=party, args=(
            "server", serve_federation, cfg, ex.initial, srv))
        server.start()
        party("clients", run_socket_clients, cfg, ex.clients, srv.getsockname())
        server.join()
    failed = next((e for e in errors if getattr(e, "code", None) not in _ECHOES),
                  errors[0] if errors else None)
    if failed is not None and not isinstance(failed, FederationError):
        raise failed
    rows = sorted((r for _, party_rows in results.values() for r in party_rows
                   if failed is None or failed.round is None or r["round"] < failed.round),
                  key=lambda r: (r["round"], 0 if r["event"] == "train" else 1,
                                 r.get("client", -1)))
    if failed is not None:
        failed.metrics = rows
        raise failed
    return results["server"][0], rows


# --- dataset files ----------------------------------------------------------

MANIFEST_NAME = "manifest.json"


def write_dataset(cfg: ExperimentConfig, out_dir) -> Path:
    """Write one event file per sample plus a manifest; returns manifest path."""
    out = Path(out_dir)
    (out / "test").mkdir(parents=True, exist_ok=True)
    assignment, test_samples = build_dataset(cfg)

    def written(rel: str, sample: GestureSample) -> str:
        (out / rel).parent.mkdir(exist_ok=True)
        write_events(out / rel, sample)
        return rel

    shots = {str(cid): [written(f"client_{cid}/shot_{s.label}.nfev", s)
                        for s in sorted(assignment.shots[cid], key=lambda s: s.label)]
             for cid in sorted(assignment.shots)}
    test = [written(f"test/{i:03d}_{s.label}.nfev", s) for i, s in enumerate(test_samples)]
    path = out / MANIFEST_NAME
    path.write_text(json.dumps({"version": 2, "shots": shots, "test": test},
                               sort_keys=True, indent=2) + "\n")
    return path


def _load_manifest(data_dir) -> tuple[dict, Path]:
    """A dataset directory's (or file's) manifest and its path. Any manifest
    but version 2 with "shots" mapping decimal client ids to lists of paths
    and "test" a list of paths is BAD_MANIFEST."""
    root = Path(data_dir)
    path = root / MANIFEST_NAME if root.is_dir() else root
    try:
        manifest = json.loads(path.read_text())
        version, shots, test = manifest["version"], manifest["shots"], manifest["test"]
        if version != 2:
            raise ValueError(f"unsupported version {version!r}")
        if not all(k.isdecimal() and str(int(k)) == k for k in shots):
            raise ValueError('"shots" keys must be client ids in decimal')
        lists = [test, *shots.values()]
        if not all(type(g) is list and all(type(e) is str for e in g) for g in lists):
            raise ValueError('"shots" and "test" must list paths')
        if any("\0" in e for g in lists for e in g):
            raise ValueError("an entry path holds a NUL character")
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        detail = f"no {err} key" if isinstance(err, KeyError) else str(err)
        raise EventFormatError("BAD_MANIFEST", f"manifest {path}: {detail}") from None
    return manifest, path


def _read_shots(path: Path, shots: dict) -> dict[int, list[GestureSample]]:
    """The listed clients' shots, read from their event files. A client with
    two shots of one class is BAD_MANIFEST."""
    samples = {int(k): [read_events(path.parent / e) for e in entries]
               for k, entries in shots.items()}
    try:
        ShotAssignment(samples)
    except ValueError as err:
        raise EventFormatError("BAD_MANIFEST", f"manifest {path}: {err}") from None
    return samples


def load_shots(data_dir, client_id: int) -> list[GestureSample]:
    manifest, path = _load_manifest(data_dir)
    key = str(client_id)
    if key not in manifest["shots"]:
        raise EventFormatError("BAD_MANIFEST", f"manifest {path}: no shots for client "
                               f"{client_id}")
    return _read_shots(path, {key: manifest["shots"][key]})[client_id]


def load_all_shots(data_dir) -> dict[int, list[GestureSample]]:
    manifest, path = _load_manifest(data_dir)
    if not manifest["shots"]:
        raise EventFormatError("BAD_MANIFEST", f"manifest {path}: no client holds shots")
    return _read_shots(path, manifest["shots"])


def load_test(data_dir) -> list[GestureSample]:
    manifest, path = _load_manifest(data_dir)
    return [read_events(path.parent / e) for e in manifest["test"]]


def evaluate_network(network: Network, samples, dt_us: int) -> float:
    """Accuracy of a full network on raw event samples, scored BATCH at a time."""
    if not samples:
        raise EventFormatError("EMPTY_TEST", "empty test set")
    head = network.output_layer
    counts = np.concatenate([head_counts(head.topo.weights[None], head.params, x)[0]
                             for x in _run_binned(network, samples, dt_us)])
    return float(np.mean(classify(counts) == [s.label for s in samples]))
