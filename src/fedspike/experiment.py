"""Wires a config into a runnable federated experiment.

The pieces: a synthetic gesture pool split one-shot-per-class across
clients, identical frozen hidden layers on every client (same build
stream), per-client trainer rng streams, and cached hidden-layer spike
trains so local training and evaluation replay exactly. The frozen trunk
(cache_spikes) and the full-network score (evaluate_network) share one
path: when the first layer is a k x k sum pool, events bin straight into
that pool's counts and the network runs from layer 1, so no stage scans the
mostly-empty full-resolution frames.

Dataset files live in a directory written by write_dataset: one event file
per shot plus a JSON manifest naming every file and its label. A run can
also synthesize the same dataset in memory; both paths produce identical
spike trains for one seed.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass, replace
from math import ceil
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ExperimentConfig
from .data import (EventFormatError, GestureSample, bin_events, generate_synthetic, make_splits,
                   read_events, write_events)
from .federation import (
    FederationError,
    LocalClient,
    ModelSnapshot,
    make_snapshot,
    run_federation,
    run_socket_client,
    serve_federation,
)
from .plasticity import SoelEngine
from .quant import Rng
from .snn import Network, SumPoolLayer, batches, build_network, classify, parse_arch


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


def _run_binned(network: Network, samples, dt_us: int, stop: Optional[int] = None):
    """Bin samples' events and step them through layers[:stop], BATCH at a time.

    Yields each batch's (B, T, out_size) spike trains. When the first layer
    is a k x k sum pool, events bin straight into its counts (bin_events with
    pool=k) and the run starts at layer 1, which gives the same trains as
    stepping the binary frames through the pool. A sample from another
    sensor is SHAPE_MISMATCH, and one labelled past the output layer's
    classes BAD_LABEL.
    """
    first = network.layers[0]
    pool, start = (first.topo.kernel, 1) if isinstance(first, SumPoolLayer) else (1, 0)
    shape, classes = network.input_shape, network.output_layer.out_size

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
        yield network.run(x, start=start, stop=stop)


def cache_spikes(network: Network, samples, dt_us: int):
    """Hidden spike trains feeding the output layer, paired with the labels."""
    trains = [t for y in _run_binned(network, samples, dt_us, stop=-1) for t in y]
    return list(zip(trains, [s.label for s in samples]))


def client_for(cfg: ExperimentConfig, client_id: int, network: Network,
               shots) -> LocalClient:
    """One client over its own network and its cached (train, label) shots."""
    engine = SoelEngine(cfg, Rng(cfg.master_seed).fork(f"client/{client_id}"))
    return LocalClient(client_id, network, engine, shots)


def clients_for(cfg: ExperimentConfig, shots_by_client) -> list[LocalClient]:
    """One client per id, in id order, each holding its shots sorted by label.

    The frozen prefix is the same on every client, so all clients' shots run
    through the first client's network in one cache_spikes call and their
    trains are split back per client.
    """
    ids = sorted(shots_by_client)
    groups = [sorted(shots_by_client[cid], key=lambda s: s.label) for cid in ids]
    networks = [network_for(cfg) for _ in ids]
    cached = cache_spikes(networks[0], [s for group in groups for s in group], cfg.dt_us)
    ends = np.cumsum([len(group) for group in groups])
    return [client_for(cfg, cid, net, cached[end - len(group):end])
            for cid, net, group, end in zip(ids, networks, groups, ends)]


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
    head = clients[0].network.output_layer
    initial = make_snapshot(0, np.zeros((head.out_size, head.in_size), dtype=np.int8))
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


def _run_socket_threads(cfg: ExperimentConfig, ex: Experiment):
    """Socket transport inside one process: server and client threads.

    On a FederationError the error raised carries every party's records of
    the rounds before the failed one, merged as in a successful run.
    """
    results: dict = {}
    errors: list[BaseException] = []

    def party(key, run, *args):
        try:
            results[key] = run(*args)
        except FederationError as err:
            results[key] = (None, err.metrics)
            errors.append(err)
        except BaseException as err:  # noqa: BLE001 - re-raised below
            errors.append(err)

    with socket.create_server(("127.0.0.1", 0)) as srv:
        address = srv.getsockname()
        threads = [threading.Thread(target=party, args=(
            "server", serve_federation, cfg, ex.initial, srv))]
        threads += [threading.Thread(target=party, args=(
            c.client_id, run_socket_client, cfg, c, address)) for c in ex.clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    # A client's SERVER_ABORT only echoes the failure the server raised.
    failed = next((e for e in errors if getattr(e, "code", None) != "SERVER_ABORT"),
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
    out.mkdir(parents=True, exist_ok=True)
    assignment, test_samples = build_dataset(cfg)
    shots_entry: dict[str, list] = {}
    for cid in sorted(assignment.shots):
        client_dir = out / f"client_{cid}"
        client_dir.mkdir(exist_ok=True)
        entries = []
        for sample in sorted(assignment.shots[cid], key=lambda s: s.label):
            rel = f"client_{cid}/shot_{sample.label}.nfev"
            write_events(out / rel, sample)
            entries.append({"path": rel, "label": sample.label})
        shots_entry[str(cid)] = entries
    test_dir = out / "test"
    test_dir.mkdir(exist_ok=True)
    test_entry = []
    for i, sample in enumerate(test_samples):
        rel = f"test/{i:03d}_{sample.label}.nfev"
        write_events(out / rel, sample)
        test_entry.append({"path": rel, "label": sample.label})
    manifest = {
        "version": 1,
        "classes": cfg.classes,
        "clients": cfg.clients,
        "duration_us": cfg.duration_us,
        "shots": shots_entry,
        "test": test_entry,
    }
    path = out / MANIFEST_NAME
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _load_manifest(data_dir) -> tuple[dict, Path]:
    """A dataset directory's (or file's) manifest and its path. Any manifest
    but version 1 with an integer duration_us in [1, 2^32], "shots" keyed by
    decimal client ids, and "shots" and "test" entries that each hold a path
    and a label is BAD_MANIFEST."""
    root = Path(data_dir)
    path = root / MANIFEST_NAME if root.is_dir() else root
    try:
        manifest = json.loads(path.read_text())
        version, duration = manifest["version"], manifest["duration_us"]
        entries = manifest["test"] + [e for g in manifest["shots"].values() for e in g]
        if version != 1:
            raise ValueError(f"unsupported version {version!r}")
        if type(duration) is not int or not 1 <= duration <= 1 << 32:
            raise ValueError(f"duration_us {duration!r} is not an integer in [1, 2^32]")
        if not all(k.isdecimal() and str(int(k)) == k for k in manifest["shots"]):
            raise ValueError('"shots" keys must be client ids in decimal')
        if not all(isinstance(e.get("path"), str) and "label" in e for e in entries):
            raise ValueError('an entry lacks a "path" or a "label"')
        if any("\0" in e["path"] for e in entries):
            raise ValueError("an entry path holds a NUL character")
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        detail = f"no {err} key" if isinstance(err, KeyError) else str(err)
        raise EventFormatError("BAD_MANIFEST", f"manifest {path}: {detail}") from None
    return manifest, path


def _read_entry(path: Path, entry: dict, manifest: dict) -> GestureSample:
    # Event files carry no recording window, so read_events infers one from
    # the last timestamp. The manifest records the true window; restore it
    # so a written dataset trains identically to the in-memory one.
    sample = read_events(path.parent / entry["path"])
    if entry["label"] != sample.label:
        raise EventFormatError("BAD_MANIFEST", f"manifest {path}: {entry['path']} is labelled "
                               f"{entry['label']!r} but its header says {sample.label}")
    duration, times = manifest["duration_us"], sample.events["timestamp_us"]
    # Timestamps never decrease, so the last event is the latest.
    if len(times) and times[-1] >= duration:
        raise EventFormatError("BAD_MANIFEST", f"manifest {path}: {entry['path']} has an event "
                               f"at {times[-1]} us, past duration_us {duration}")
    return replace(sample, duration_us=duration)


def load_shots(data_dir, client_id: int) -> list[GestureSample]:
    manifest, path = _load_manifest(data_dir)
    key = str(client_id)
    if key not in manifest["shots"]:
        raise EventFormatError("BAD_MANIFEST", f"manifest {path}: no shots for client "
                               f"{client_id}")
    return [_read_entry(path, e, manifest) for e in manifest["shots"][key]]


def load_all_shots(data_dir) -> dict[int, list[GestureSample]]:
    manifest, path = _load_manifest(data_dir)
    if not manifest["shots"]:
        raise EventFormatError("BAD_MANIFEST", f"manifest {path}: no client holds shots")
    return {int(k): [_read_entry(path, e, manifest) for e in entries]
            for k, entries in manifest["shots"].items()}


def load_test(data_dir) -> list[GestureSample]:
    manifest, path = _load_manifest(data_dir)
    return [_read_entry(path, e, manifest) for e in manifest["test"]]


def evaluate_network(network: Network, samples, dt_us: int) -> float:
    """Accuracy of a full network on raw event samples, BATCH at a time."""
    if not samples:
        raise EventFormatError("EMPTY_TEST", "empty test set")
    counts = np.concatenate([y.sum(axis=1) for y in _run_binned(network, samples, dt_us)])
    return float(np.mean(classify(counts) == [s.label for s in samples]))
