"""Synchronous federated averaging over locally trained output layers.

One round: every client trains on its one-shot data starting from the
current global snapshot, sends back an integer weight delta, and the server
installs the even-rounded mean of the client models as the next snapshot.
All K clients participate in every round; a missing or malformed delta
aborts the round rather than silently proceeding.

Aggregation arithmetic is exact: deltas are summed as integers and the
mean is rounded by integer floor division, so the result is identical on
every platform and transport. The in-process rounds and the socket
server/client produce bit-identical snapshots for identical seeds.
"""

from __future__ import annotations

import socket
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .plasticity import SoelEngine
from .protocol import (
    Message,
    MessageType,
    ProtocolError,
    pack_abort,
    pack_delta,
    pack_weights,
    recv_frame,
    send_frame,
    unpack_abort,
    unpack_delta,
    unpack_weights,
)
from .quant import WEIGHT_SPEC
from .snn import Network, batches, classify


class FederationError(Exception):
    def __init__(self, code: str, message: str, metrics: Optional[list] = None):
        super().__init__(message)
        self.code = code
        self.metrics = metrics or []


def weights_checksum(w: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(w, dtype="<i1").tobytes()) & 0xFFFFFFFF


@dataclass(frozen=True)
class ModelSnapshot:
    round: int
    output_weights: np.ndarray  # (out, in) int8, every value even
    checksum: int

    def __post_init__(self):
        w = self.output_weights
        if w.ndim != 2:
            raise FederationError("INVALID_SNAPSHOT", "snapshot weights must be 2-D")
        if w.size and (np.any(w % 2) or w.min() < WEIGHT_SPEC.lo or w.max() > WEIGHT_SPEC.hi):
            raise FederationError("INVALID_SNAPSHOT", "snapshot weight off the even grid")
        if self.checksum != weights_checksum(w):
            raise FederationError("INVALID_SNAPSHOT", "snapshot checksum mismatch")


def make_snapshot(round_: int, w: np.ndarray) -> ModelSnapshot:
    w = np.ascontiguousarray(w, dtype=np.int8)
    return ModelSnapshot(round_, w, weights_checksum(w))


@dataclass
class ModelDelta:
    client_id: int
    round: int
    delta_weights: np.ndarray  # integer tensor, same shape as the snapshot


@dataclass
class FedConfig:
    num_clients: int
    server_rounds: int
    local_epochs: int = 1
    listen: tuple[str, int] = ("127.0.0.1", 0)
    timeout_s: float = 30.0

    def __post_init__(self):
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.server_rounds < 0:
            raise ValueError("server_rounds must be >= 0")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be >= 0")


class RoundState:
    """Collects one round's deltas, rejecting strays before aggregation."""

    def __init__(self, round_: int, num_clients: int, shape: tuple[int, int]):
        self.round = round_
        self.num_clients = num_clients
        self.shape = shape
        self.received: dict[int, ModelDelta] = {}

    def add(self, delta: ModelDelta):
        if delta.round != self.round:
            raise FederationError(
                "ROUND_MISMATCH",
                f"delta for round {delta.round} during round {self.round}")
        if not 0 <= delta.client_id < self.num_clients:
            raise FederationError("UNKNOWN_CLIENT", f"client id {delta.client_id}")
        if delta.client_id in self.received:
            raise FederationError("DUPLICATE_CLIENT",
                                  f"second delta from client {delta.client_id}")
        if tuple(delta.delta_weights.shape) != self.shape:
            raise FederationError("SHAPE_MISMATCH",
                                  f"delta shape {delta.delta_weights.shape}, "
                                  f"expected {self.shape}")
        self.received[delta.client_id] = delta

    @property
    def complete(self) -> bool:
        return len(self.received) == self.num_clients

    def deltas(self) -> list[ModelDelta]:
        return [self.received[k] for k in sorted(self.received)]


def aggregate(snapshot: ModelSnapshot, deltas: Sequence[ModelDelta],
              num_clients: int) -> ModelSnapshot:
    """Even-rounded mean of the client models: w + round(sum(deltas) / K).

    The mean (w*K + sum) / K rounds to the nearest even integer in exact
    integer arithmetic; ties round to the even neighbour nearer zero and
    results clamp to the weight range.
    """
    ids = [d.client_id for d in deltas]
    if len(set(ids)) != len(ids):
        raise FederationError("DUPLICATE_CLIENT", "duplicate client ids in round")
    if set(ids) != set(range(num_clients)):
        missing = sorted(set(range(num_clients)) - set(ids))
        raise FederationError("MISSING_CLIENT", f"no delta from clients {missing}")
    for d in deltas:
        if d.round != snapshot.round + 1:
            raise FederationError(
                "ROUND_MISMATCH",
                f"delta round {d.round}, aggregating round {snapshot.round + 1}")
        if d.delta_weights.shape != snapshot.output_weights.shape:
            raise FederationError("SHAPE_MISMATCH",
                                  f"delta shape {d.delta_weights.shape}")

    total = sum(d.delta_weights.astype(np.int64) for d in deltas)
    n = snapshot.output_weights.astype(np.int64) * num_clients + total
    # mean / 2 = m + rem / (2K) with m = floor(mean / 2) and 0 <= rem < 2K.
    m, rem = np.divmod(n, 2 * num_clients)
    m += (rem > num_clients) | ((rem == num_clients) & (2 * m + 1 < 0))
    out = np.clip(2 * m, WEIGHT_SPEC.lo, WEIGHT_SPEC.hi)
    return make_snapshot(snapshot.round + 1, out.astype(np.int8))


class LocalClient:
    """One client: a network, its trainer, and its one-shot spike data.

    shots are (pre_spikes, label) pairs where pre_spikes is the cached
    (steps, pre_size) spike train feeding the output layer; the hidden
    layers are frozen so caching them is exact.
    """

    def __init__(self, client_id: int, network: Network, engine: SoelEngine,
                 shots: Sequence[tuple[np.ndarray, int]], num_classes: int,
                 target_rate: int, off_target: int = 0):
        self.client_id = client_id
        self.network = network
        self.engine = engine
        self.shots = list(shots)
        self.num_classes = num_classes
        self.target_rate = target_rate
        self.off_target = off_target
        self.round = 0
        self.last_stats = {"error_l1": 0, "triggered_updates": 0, "boundaries": 0,
                           "error_per_class": [0] * num_classes}

    def targets_for(self, label: int) -> np.ndarray:
        t = np.full(self.num_classes, self.off_target, dtype=np.int64)
        t[label] = self.target_rate
        return t

    def install(self, snapshot: ModelSnapshot):
        head = self.network.output_layer
        if snapshot.output_weights.shape != (head.out_size, head.in_size):
            raise FederationError("SHAPE_MISMATCH",
                                  f"snapshot shape {snapshot.output_weights.shape}, "
                                  f"head is {(head.out_size, head.in_size)}")
        if snapshot.round < self.round:
            raise FederationError("STALE_SNAPSHOT",
                                  f"snapshot round {snapshot.round} behind "
                                  f"client round {self.round}")
        head.set_weights(snapshot.output_weights)
        self.round = snapshot.round

    def train(self, round_: int, local_epochs: int) -> ModelDelta:
        if round_ != self.round + 1:
            raise FederationError("ROUND_MISMATCH",
                                  f"asked to train round {round_} from round {self.round}")
        head = self.network.output_layer
        before = head.w
        stats = {"error_l1": 0, "triggered_updates": 0, "boundaries": 0}
        per_class = np.zeros(self.num_classes, dtype=np.int64)
        for _ in range(local_epochs):
            for pre_spikes, label in self.shots:
                s = self.engine.train_on_spikes(head, pre_spikes, self.targets_for(label))
                stats["error_l1"] += s.error_l1
                stats["triggered_updates"] += s.triggered_updates
                stats["boundaries"] += s.boundaries
                per_class += s.error_per_class
        stats["error_per_class"] = [int(v) for v in per_class]
        self.last_stats = stats
        return ModelDelta(self.client_id, round_, head.w - before)

    def evaluate(self, test_set: Sequence[tuple[np.ndarray, int]]) -> float:
        """Accuracy of the installed weights on cached (spikes, label) pairs.

        The spike trains are stacked and run through the head as one batch.
        """
        if not test_set:
            raise ValueError("empty test set")
        trains = batches((spikes for spikes, _ in test_set), len(test_set))
        counts = np.concatenate([self.network.run(x, start=-1).sum(axis=1) for x in trains])
        return float(np.mean(classify(counts) == [label for _, label in test_set]))


EvalHook = Callable[[int, ModelSnapshot], dict]
LocalEvalHook = Callable[[int, "LocalClient"], dict]


def run_federation(config: FedConfig, clients: Sequence[LocalClient],
                   initial: ModelSnapshot,
                   eval_hook: Optional[EvalHook] = None,
                   local_eval_hook: Optional[LocalEvalHook] = None
                   ) -> tuple[ModelSnapshot, list[dict]]:
    """Drive E synchronous in-process rounds; returns final snapshot and metrics.

    eval_hook(round, snapshot) extends the per-round global record (and adds
    an initial round-0 record); local_eval_hook(round, client) extends each
    per-client record right after that client's local training, while its
    head still holds the un-aggregated local weights.
    """
    if len(clients) != config.num_clients:
        raise FederationError("MISSING_CLIENT",
                              f"have {len(clients)} clients, config says {config.num_clients}")
    ordered = sorted(clients, key=lambda c: c.client_id)
    metrics: list[dict] = []
    snapshot = initial
    for c in ordered:
        c.install(snapshot)
    if eval_hook:
        metrics.append({"event": "init", "round": 0,
                        "checksum": snapshot.checksum, **eval_hook(0, snapshot)})
    try:
        for t in range(1, config.server_rounds + 1):
            state = RoundState(t, config.num_clients, snapshot.output_weights.shape)
            for c in ordered:
                state.add(c.train(t, config.local_epochs))
                row = {"event": "train", "round": t,
                       "client": c.client_id, **c.last_stats}
                if local_eval_hook:
                    row.update(local_eval_hook(t, c))
                metrics.append(row)
            snapshot = aggregate(snapshot, state.deltas(), config.num_clients)
            for c in ordered:
                c.install(snapshot)
            row = {"event": "round", "round": t, "checksum": snapshot.checksum}
            if eval_hook:
                row.update(eval_hook(t, snapshot))
            metrics.append(row)
    except FederationError as err:
        err.metrics = metrics
        raise
    return snapshot, metrics


# --- socket transport -------------------------------------------------------

def _abort_all(conns: dict[int, socket.socket], reason: str):
    for sock in conns.values():
        try:
            send_frame(sock, Message(MessageType.ABORT, payload=pack_abort(reason)))
        except OSError:
            pass


def serve_federation(config: FedConfig, initial: ModelSnapshot,
                     server_socket: Optional[socket.socket] = None
                     ) -> tuple[ModelSnapshot, list[dict]]:
    """Socket-transport server: registration, E rounds, final broadcast.

    Expects exactly num_clients HELLO connections with distinct ids in
    [0, num_clients). Pass a pre-bound server_socket to control the port
    (useful with an ephemeral port); otherwise config.listen is bound here.
    """
    own = server_socket is None
    srv = server_socket or socket.create_server(config.listen)
    srv.settimeout(config.timeout_s)
    conns: dict[int, socket.socket] = {}
    metrics: list[dict] = []
    snapshot = initial
    try:
        while len(conns) < config.num_clients:
            try:
                sock, _ = srv.accept()
            except socket.timeout:
                raise FederationError("CLIENT_TIMEOUT",
                                      f"only {len(conns)} of {config.num_clients} "
                                      "clients registered", metrics) from None
            sock.settimeout(config.timeout_s)
            try:
                hello = recv_frame(sock)
            except (ProtocolError, socket.timeout) as err:
                sock.close()
                code = "CLIENT_TIMEOUT" if isinstance(err, socket.timeout) else err.code
                raise FederationError(code, f"registration: {err}", metrics) from err
            if hello.type is not MessageType.HELLO:
                send_frame(sock, Message(MessageType.ABORT,
                                         payload=pack_abort("expected HELLO")))
                sock.close()
                continue
            cid = hello.client_id
            if not 0 <= cid < config.num_clients or cid in conns:
                send_frame(sock, Message(MessageType.ABORT,
                                         payload=pack_abort(f"bad client id {cid}")))
                sock.close()
                raise FederationError("UNKNOWN_CLIENT" if cid >= config.num_clients
                                      else "DUPLICATE_CLIENT",
                                      f"registration with client id {cid}", metrics)
            conns[cid] = sock

        for cid in sorted(conns):
            send_frame(conns[cid], Message(MessageType.SNAPSHOT, cid, snapshot.round,
                                           pack_weights(snapshot.output_weights)))
        for t in range(1, config.server_rounds + 1):
            state = RoundState(t, config.num_clients, snapshot.output_weights.shape)
            try:
                for cid in sorted(conns):
                    msg = recv_frame(conns[cid])
                    if msg.type is not MessageType.DELTA:
                        raise FederationError("BAD_MESSAGE",
                                              f"expected DELTA, got {msg.type.name}")
                    state.add(ModelDelta(msg.client_id, msg.round,
                                         unpack_delta(msg.payload)))
            except (ProtocolError, socket.timeout) as err:
                _abort_all(conns, f"round {t} failed: {err}")
                code = "CLIENT_TIMEOUT" if isinstance(err, socket.timeout) else err.code
                raise FederationError(code, f"round {t}: {err}", metrics) from err
            except FederationError as err:
                _abort_all(conns, f"round {t} failed: {err}")
                err.metrics = metrics
                raise
            snapshot = aggregate(snapshot, state.deltas(), config.num_clients)
            metrics.append({"event": "round", "round": t, "checksum": snapshot.checksum})
            for cid in sorted(conns):
                send_frame(conns[cid], Message(MessageType.SNAPSHOT, cid, snapshot.round,
                                               pack_weights(snapshot.output_weights)))
        for cid in sorted(conns):
            try:
                msg = recv_frame(conns[cid])
            except (ProtocolError, socket.timeout) as err:
                code = "CLIENT_TIMEOUT" if isinstance(err, socket.timeout) else err.code
                raise FederationError(code, f"final ack: {err}", metrics) from err
            if msg.type is not MessageType.ACK:
                raise FederationError("BAD_MESSAGE",
                                      f"expected ACK, got {msg.type.name}", metrics)
    finally:
        for sock in conns.values():
            sock.close()
        if own:
            srv.close()
    return snapshot, metrics


def run_socket_client(config: FedConfig, client: LocalClient,
                      address: tuple[str, int]) -> tuple[ModelSnapshot, list[dict]]:
    """Socket-transport client loop; returns the final installed snapshot."""
    deadline = time.monotonic() + config.timeout_s
    sock = None
    while sock is None:
        try:
            sock = socket.create_connection(address, timeout=config.timeout_s)
        except OSError:
            if time.monotonic() >= deadline:
                raise FederationError("CONNECT_TIMEOUT",
                                      f"could not reach server at {address}") from None
            time.sleep(0.05)
    metrics: list[dict] = []
    try:
        sock.settimeout(config.timeout_s)
        send_frame(sock, Message(MessageType.HELLO, client.client_id))
        while True:
            msg = recv_frame(sock)
            if msg.type is MessageType.ABORT:
                raise FederationError("SERVER_ABORT", unpack_abort(msg.payload), metrics)
            if msg.type is not MessageType.SNAPSHOT:
                raise FederationError("BAD_MESSAGE",
                                      f"expected SNAPSHOT, got {msg.type.name}", metrics)
            snapshot = make_snapshot(msg.round, unpack_weights(msg.payload))
            client.install(snapshot)
            if msg.round >= config.server_rounds:
                send_frame(sock, Message(MessageType.ACK, client.client_id, msg.round))
                return snapshot, metrics
            delta = client.train(msg.round + 1, config.local_epochs)
            metrics.append({"event": "train", "round": delta.round,
                            "client": client.client_id, **client.last_stats})
            send_frame(sock, Message(MessageType.DELTA, client.client_id, delta.round,
                                     pack_delta(delta.delta_weights)))
    finally:
        sock.close()
