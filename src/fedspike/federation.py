"""Synchronous federated averaging over locally trained output layers.

One round: every client trains on its one-shot data starting from the
current global snapshot, sends back an integer weight delta, and the server
installs the even-rounded mean of the client models as the next snapshot.
All K clients participate in every round, their deltas one {client_id:
int64 array} dict; a missing or malformed delta aborts the round rather than
silently proceeding, and the error names the client that sent it.

One coordinator, federate, runs the rounds over either transport: in process
(run_federation) or over TCP (serve_federation with run_socket_client), so
both give bit-identical snapshots for identical seeds. In process, the K
clients of a round train in lockstep (train_clients) and their local models
are scored as one batch (evaluate_clients); over TCP each client runs the
same two with K = 1. Aggregation is exact integer arithmetic, identical on
every platform. In process, broadcast and collect score the installed
snapshot and each local model on the run's cached test set; over TCP the
server holds no data, and nothing is scored.

Both transports read the run's ExperimentConfig (its [federation] section)
directly: clients, rounds and local_epochs, and over TCP also listen and
timeout_s.
"""

from __future__ import annotations

import socket
import time
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .errors import FedspikeError
from .plasticity import SoelEngine, train_lockstep
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
from .snn import Network, batches, classify, head_counts


class FederationError(FedspikeError):
    """A named failure of a round or a peer; metrics holds the completed
    rounds' records and round the round that failed (None outside a round:
    registration, final ACK). Takes FedspikeError's code and message."""

    def __init__(self, *args, metrics: Optional[list] = None, round: Optional[int] = None):
        super().__init__(*args)
        self.metrics = metrics or []
        self.round = round


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


def aggregate(snapshot: ModelSnapshot, deltas: Mapping[int, np.ndarray],
              num_clients: int) -> ModelSnapshot:
    """Even-rounded mean of the client models: w + round(sum(deltas) / K).

    The mean (w*K + sum) / K rounds to the nearest even integer in exact
    integer arithmetic; ties round to the even neighbour nearer zero and
    results clamp to the weight range.
    """
    unknown = sorted(set(deltas) - set(range(num_clients)))
    if unknown:
        raise FederationError("UNKNOWN_CLIENT", f"client ids {unknown}")
    missing = sorted(set(range(num_clients)) - set(deltas))
    if missing:
        raise FederationError("MISSING_CLIENT", f"no delta from clients {missing}")
    for cid in sorted(deltas):
        if deltas[cid].shape != snapshot.output_weights.shape:
            raise FederationError("SHAPE_MISMATCH", f"client {cid} sent a delta of "
                                  f"shape {deltas[cid].shape}")

    total = sum(d.astype(np.int64) for d in deltas.values())
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
                 shots: Sequence[tuple[np.ndarray, int]]):
        self.client_id = client_id
        self.network = network
        self.engine = engine
        self.shots = list(shots)
        self.round = 0

    def targets_for(self, label: int) -> np.ndarray:
        """Desired spikes per window of each head unit for a shot of label."""
        cfg = self.engine.cfg
        t = np.full(self.network.output_layer.out_size, cfg.off_target, dtype=np.int64)
        t[label] = cfg.target_rate
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

    def train(self, round_: int, local_epochs: int) -> tuple[np.ndarray, dict]:
        """Train round_ from the installed snapshot: the delta and its train record."""
        deltas, rows = train_clients([self], round_, local_epochs)
        return deltas[self.client_id], rows[0]

    def evaluate(self, test_set: Sequence[tuple[np.ndarray, int]]) -> float:
        """Accuracy of the installed weights on cached (spikes, label) pairs."""
        return evaluate_clients([self], test_set)[0]


def train_clients(clients: Sequence[LocalClient], round_: int, local_epochs: int
                  ) -> tuple[dict[int, np.ndarray], list[dict]]:
    """Train round_ on every client at once (plasticity.train_lockstep).

    Each client runs local_epochs passes over its shots from its installed
    snapshot. Returns the int64 deltas keyed by client id and the train
    records in client order, equal to those of each client training alone.
    """
    for c in clients:
        if round_ != c.round + 1:
            raise FederationError("ROUND_MISMATCH", f"client {c.client_id} asked to train "
                                  f"round {round_} from round {c.round}")
    heads = [c.network.output_layer for c in clients]
    before = [h.w for h in heads]
    passes = [[(pre_spikes, c.targets_for(label))
               for _ in range(local_epochs) for pre_spikes, label in c.shots]
              for c in clients]
    stats = train_lockstep([c.engine for c in clients], heads, passes)
    deltas = {c.client_id: head.w - w for c, head, w in zip(clients, heads, before)}
    rows = [{"event": "train", "round": round_, "client": c.client_id, **s}
            for c, s in zip(clients, stats)]
    return deltas, rows


def evaluate_clients(clients: Sequence[LocalClient],
                     test_set: Sequence[tuple[np.ndarray, int]]) -> list[float]:
    """Accuracy of each client's installed weights on cached (spikes, label) pairs.

    Runs of equal-length spike trains are stacked and every client's head
    scores them together (snn.head_counts).
    """
    if not test_set:
        raise ValueError("empty test set")
    heads = [c.network.output_layer for c in clients]
    trains = batches((spikes for spikes, _ in test_set), len(test_set))
    counts = np.concatenate([head_counts(heads, x) for x in trains], axis=1)
    labels = [label for _, label in test_set]
    return [float(np.mean(classify(c) == labels)) for c in counts]


def federate(cfg: ExperimentConfig, initial: ModelSnapshot,
             transport) -> tuple[ModelSnapshot, list[dict]]:
    """Run cfg.rounds rounds over transport; returns final snapshot and metrics.

    transport has broadcast(snapshot) -> the installed snapshot's scores or
    None, collect(round) -> ({client_id: delta}, per-client records) and
    abort(reason). The scores extend each round record, and a scored initial
    snapshot gets a round-0 record. A round's records are kept once it
    aggregates; on a FederationError the transport is aborted and the error
    carries the completed rounds' records and the failed round.
    """
    metrics: list[dict] = []
    snapshot, t = initial, 0
    try:
        scores = transport.broadcast(snapshot)
        if scores is not None:
            metrics.append({"event": "init", "round": 0, "checksum": snapshot.checksum,
                            **scores})
        for t in range(1, cfg.rounds + 1):
            deltas, train_rows = transport.collect(t)
            snapshot = aggregate(snapshot, deltas, cfg.clients)
            scores = transport.broadcast(snapshot)
            metrics += train_rows + [{"event": "round", "round": t,
                                      "checksum": snapshot.checksum, **(scores or {})}]
    except FederationError as err:
        transport.abort(f"round {t} failed: {err}")
        err.metrics, err.round = metrics, t
        raise
    return snapshot, metrics


@dataclass
class InProcessTransport:
    """Clients in this process, trained together by train_clients.

    With a test set of cached (spikes, label) pairs, broadcast scores the
    installed snapshot, and collect scores each client's local model while
    its head still holds the local weights.
    """

    clients: Sequence[LocalClient]
    local_epochs: int
    test_set: Sequence[tuple[np.ndarray, int]] = ()

    def broadcast(self, snapshot: ModelSnapshot) -> Optional[dict]:
        for c in self.clients:
            c.install(snapshot)
        if self.test_set:
            return {"accuracy": self.clients[0].evaluate(self.test_set)}
        return None

    def collect(self, round_: int) -> tuple[dict[int, np.ndarray], list[dict]]:
        deltas, rows = train_clients(self.clients, round_, self.local_epochs)
        if self.test_set:
            for row, accuracy in zip(rows, evaluate_clients(self.clients, self.test_set)):
                row["accuracy"] = accuracy
        return deltas, rows

    def abort(self, reason: str):
        pass


def run_federation(cfg: ExperimentConfig, clients: Sequence[LocalClient],
                   initial: ModelSnapshot, test_set: Sequence[tuple[np.ndarray, int]] = ()
                   ) -> tuple[ModelSnapshot, list[dict]]:
    """In-process rounds, scored on test_set as InProcessTransport does."""
    if len(clients) != cfg.clients:
        raise FederationError("MISSING_CLIENT",
                              f"have {len(clients)} clients, config says {cfg.clients}")
    ordered = sorted(clients, key=lambda c: c.client_id)
    return federate(cfg, initial, InProcessTransport(ordered, cfg.local_epochs, test_set))


# --- socket transport -------------------------------------------------------

@contextmanager
def _frame_errors(context: str):
    """Raise a timeout or a bad frame or payload in the block as a FederationError."""
    try:
        yield
    except (ProtocolError, socket.timeout) as err:
        code = "CLIENT_TIMEOUT" if isinstance(err, socket.timeout) else err.code
        raise FederationError(code, f"{context}: {err}") from err


@dataclass
class SocketTransport:
    """Registered client connections, keyed by the id each registered with."""

    conns: dict[int, socket.socket]

    def broadcast(self, snapshot: ModelSnapshot):
        for cid in sorted(self.conns):
            send_frame(self.conns[cid], Message(MessageType.SNAPSHOT, cid, snapshot.round,
                                                pack_weights(snapshot.output_weights)))

    def collect(self, round_: int) -> tuple[dict[int, np.ndarray], list[dict]]:
        """One DELTA of round_ per connection, attributed to the connection's id."""
        deltas = {}
        for cid in sorted(self.conns):
            with _frame_errors(f"delta from client {cid}"):
                msg = recv_frame(self.conns[cid])
                if msg.type is not MessageType.DELTA:
                    raise FederationError("BAD_MESSAGE", f"expected DELTA, got {msg.type.name}")
                if msg.client_id != cid:
                    raise FederationError("CLIENT_MISMATCH", f"connection of client {cid} "
                                          f"sent a delta tagged client {msg.client_id}")
                if msg.round != round_:
                    raise FederationError("ROUND_MISMATCH", f"client {cid} sent a delta "
                                          f"of round {msg.round} in round {round_}")
                deltas[cid] = unpack_delta(msg.payload)
        return deltas, []

    def abort(self, reason: str):
        for sock in self.conns.values():
            try:
                send_frame(sock, Message(MessageType.ABORT, payload=pack_abort(reason)))
            except OSError:
                pass


def serve_federation(cfg: ExperimentConfig, initial: ModelSnapshot,
                     server_socket: Optional[socket.socket] = None
                     ) -> tuple[ModelSnapshot, list[dict]]:
    """Socket-transport server: registration, E rounds, final acknowledgements.

    Expects exactly cfg.clients HELLO connections with distinct ids in
    [0, cfg.clients). Pass a pre-bound server_socket to control the port
    (useful with an ephemeral port); otherwise cfg.listen is bound here.
    """
    with ExitStack() as opened:
        srv = server_socket or opened.enter_context(socket.create_server(cfg.listen))
        srv.settimeout(cfg.timeout_s)
        conns: dict[int, socket.socket] = {}
        while len(conns) < cfg.clients:
            try:
                sock, _ = srv.accept()
            except socket.timeout:
                raise FederationError("CLIENT_TIMEOUT",
                                      f"only {len(conns)} of {cfg.clients} "
                                      "clients registered") from None
            opened.enter_context(sock)
            sock.settimeout(cfg.timeout_s)
            with _frame_errors("registration"):
                hello = recv_frame(sock)
            if hello.type is not MessageType.HELLO:
                send_frame(sock, Message(MessageType.ABORT,
                                         payload=pack_abort("expected HELLO")))
                sock.close()
                continue
            cid = hello.client_id
            if not 0 <= cid < cfg.clients or cid in conns:
                send_frame(sock, Message(MessageType.ABORT,
                                         payload=pack_abort(f"bad client id {cid}")))
                raise FederationError("UNKNOWN_CLIENT" if cid >= cfg.clients
                                      else "DUPLICATE_CLIENT",
                                      f"registration with client id {cid}")
            conns[cid] = sock

        snapshot, metrics = federate(cfg, initial, SocketTransport(conns))
        try:
            for cid in sorted(conns):
                with _frame_errors("final ack"):
                    msg = recv_frame(conns[cid])
                if msg.type is not MessageType.ACK:
                    raise FederationError("BAD_MESSAGE", f"expected ACK, got {msg.type.name}")
        except FederationError as err:
            err.metrics = metrics
            raise
    return snapshot, metrics


def run_socket_client(cfg: ExperimentConfig, client: LocalClient,
                      address: tuple[str, int]) -> tuple[ModelSnapshot, list[dict]]:
    """Socket-transport client loop; returns the final installed snapshot."""
    deadline = time.monotonic() + cfg.timeout_s
    sock = None
    while sock is None:
        try:
            sock = socket.create_connection(address, timeout=cfg.timeout_s)
        except OSError:
            if time.monotonic() >= deadline:
                raise FederationError("CONNECT_TIMEOUT",
                                      f"could not reach server at {address}") from None
            time.sleep(0.05)
    # A round's train record is kept once the round's snapshot arrives.
    metrics: list[dict] = []
    pending: list[dict] = []
    try:
        sock.settimeout(cfg.timeout_s)
        send_frame(sock, Message(MessageType.HELLO, client.client_id))
        while True:
            msg = recv_frame(sock)
            if msg.type is MessageType.ABORT:
                raise FederationError("SERVER_ABORT", unpack_abort(msg.payload),
                                      metrics=metrics, round=client.round + 1)
            if msg.type is not MessageType.SNAPSHOT:
                raise FederationError("BAD_MESSAGE", f"expected SNAPSHOT, got {msg.type.name}",
                                      metrics=metrics, round=client.round + 1)
            snapshot = make_snapshot(msg.round, unpack_weights(msg.payload))
            client.install(snapshot)
            metrics += pending
            if msg.round >= cfg.rounds:
                send_frame(sock, Message(MessageType.ACK, client.client_id, msg.round))
                return snapshot, metrics
            delta, row = client.train(msg.round + 1, cfg.local_epochs)
            pending = [row]
            send_frame(sock, Message(MessageType.DELTA, client.client_id, msg.round + 1,
                                     pack_delta(delta)))
    finally:
        sock.close()
