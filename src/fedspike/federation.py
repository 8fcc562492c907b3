"""Synchronous federated averaging over locally trained output layers.

One round: every client trains on its one-shot data starting from the
current global snapshot, sends back an integer weight delta, and the server
installs the even-rounded mean of the client models as the next snapshot.
ModelSnapshot(round, w) makes every snapshot and checks its weights. All K
clients participate in every round, their deltas one {client_id: int64
array} dict; a missing or malformed delta (over TCP, one that moves a weight
off the even grid) aborts the round, and the error names its client.

One coordinator, federate, runs the rounds over either transport: in process
(run_federation) or over TCP (serve_federation with run_socket_clients), so
both give bit-identical snapshots for identical seeds. On both, the clients
of a round train in lockstep, in one train_clients call: run_socket_clients
is one loop over one connection per client, which a `fedspike client`
process runs with K = 1 and the one-process socket simulation
(experiment._run_socket_threads) with all K clients. Aggregation is exact
integer arithmetic, identical on every platform. federate is the one place that
scores: given a scorer, it scores each round's new snapshot together with
the local models that it aggregates (the snapshot they trained from plus
each delta) in one call. In process the scorer is one evaluate_heads pass
on the run's cached test set; over TCP the server holds no data, and nothing
is scored. The transports only move weights.

Both transports read the run's ExperimentConfig (its [federation] section)
directly: clients, rounds and local_epochs, and over TCP also listen and
timeout_s.
"""

from __future__ import annotations

import socket
import time
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .errors import FedspikeError
from .plasticity import SoelEngine, train_lockstep
from .protocol import (
    Message,
    MessageType,
    ProtocolError,
    pack_abort,
    pack_array,
    recv_frame,
    send_frame,
    unpack_abort,
    unpack_array,
)
from .quant import WEIGHT_SPEC
from .snn import Network, NeuronParams, batches, classify, head_counts


class FederationError(FedspikeError):
    """A named failure of a round or a peer; metrics holds the completed
    rounds' records and round the round that failed (None outside a round:
    registration, final ACK), both set where a round's failure is caught."""

    def __init__(self, code: str, message: str):
        super().__init__(code, message)
        self.metrics: list[dict] = []
        self.round: Optional[int] = None


@dataclass(frozen=True)
class ModelSnapshot:
    """A round's weights, gated as LayerTopology gates a layer's: 2-D and on the
    even grid before the int8 cast, with checksum the crc32 of the int8 bytes."""

    round: int
    output_weights: np.ndarray  # (out, in) int8, every value even
    checksum: int = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.output_weights)
        if w.ndim != 2:
            raise FederationError("INVALID_SNAPSHOT", f"snapshot of shape {w.shape}, not 2-D")
        if not WEIGHT_SPEC.holds(w):
            raise FederationError("INVALID_SNAPSHOT", "snapshot weight off the even grid")
        w = np.ascontiguousarray(w, dtype=np.int8)
        object.__setattr__(self, "output_weights", w)
        object.__setattr__(self, "checksum", zlib.crc32(w.tobytes()) & 0xFFFFFFFF)


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
    return ModelSnapshot(snapshot.round + 1, np.clip(2 * m, WEIGHT_SPEC.lo, WEIGHT_SPEC.hi))


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

    def install(self, snapshot: ModelSnapshot):
        head = self.network.output_layer
        if snapshot.output_weights.shape != head.topo.weight_shape:
            raise FederationError("SHAPE_MISMATCH",
                                  f"snapshot shape {snapshot.output_weights.shape}, "
                                  f"head is {head.topo.weight_shape}")
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
        head = self.network.output_layer
        return evaluate_heads(head.topo.weights[None], head.params, test_set)[0]


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
    w = np.stack([h.w for h in heads])
    cfg = clients[0].engine.cfg
    # Row l: each head unit's desired spikes per window for a shot of label l.
    targets = np.where(np.eye(w.shape[1], dtype=bool), cfg.target_rate, cfg.off_target)
    passes = [[(pre_spikes, targets[label])
               for _ in range(local_epochs) for pre_spikes, label in c.shots]
              for c in clients]
    stats = train_lockstep([c.engine for c in clients], heads[0].params, w, passes)
    deltas = {c.client_id: trained - head.w for c, head, trained in zip(clients, heads, w)}
    for head, trained in zip(heads, w):
        head.set_weights(trained)
    rows = [{"event": "train", "round": round_, "client": c.client_id, **s}
            for c, s in zip(clients, stats)]
    return deltas, rows


def evaluate_heads(w: np.ndarray, params: NeuronParams,
                   test_set: Sequence[tuple[np.ndarray, int]]) -> list[float]:
    """Accuracy of each of the (K, out, in) heads w on cached (spikes, label) pairs.

    Runs of equal-length spike trains are stacked and the heads score them
    together (snn.head_counts); each accuracy equals that head scored alone.
    """
    if not test_set:
        raise ValueError("empty test set")
    trains = batches((spikes for spikes, _ in test_set), len(test_set))
    counts = np.concatenate([head_counts(w, params, x) for x in trains], axis=1)
    labels = [label for _, label in test_set]
    return [float(np.mean(classify(c) == labels)) for c in counts]


def federate(cfg: ExperimentConfig, initial: ModelSnapshot, transport,
             score: Optional[Callable[[np.ndarray], list[float]]] = None
             ) -> tuple[ModelSnapshot, list[dict]]:
    """Run cfg.rounds rounds over transport; returns final snapshot and metrics.

    transport has broadcast(snapshot), collect(round) -> ({client_id: delta},
    per-client records) and abort(reason). score, if given, maps (K, out, in)
    heads to their accuracies: the initial snapshot gets a scored round-0
    record, and after each round's broadcast one call scores every record's
    local model (the snapshot it trained from plus its delta) with the new
    snapshot, each accuracy going into its record. On a FederationError the
    transport is aborted and the error carries the completed rounds' records
    and the failed round.
    """
    metrics: list[dict] = []
    snapshot, t = initial, 0
    try:
        transport.broadcast(snapshot)
        if score is not None:
            (accuracy,) = score(snapshot.output_weights[None])
            metrics.append({"event": "init", "round": 0, "checksum": snapshot.checksum,
                            "accuracy": accuracy})
        for t in range(1, cfg.rounds + 1):
            deltas, train_rows = transport.collect(t)
            trained_from, snapshot = snapshot, aggregate(snapshot, deltas, cfg.clients)
            transport.broadcast(snapshot)
            rows = train_rows + [{"event": "round", "round": t, "checksum": snapshot.checksum}]
            if score is not None:
                local = [trained_from.output_weights + deltas[r["client"]] for r in train_rows]
                for row, accuracy in zip(rows, score(np.stack(local + [snapshot.output_weights]))):
                    row["accuracy"] = accuracy
            metrics += rows
    except FederationError as err:
        transport.abort(f"round {t} failed: {err}")
        err.metrics, err.round = metrics, t
        raise
    return snapshot, metrics


@dataclass
class InProcessTransport:
    """Clients in this process, trained together by train_clients."""

    clients: Sequence[LocalClient]
    local_epochs: int

    def broadcast(self, snapshot: ModelSnapshot):
        for c in self.clients:
            c.install(snapshot)

    def collect(self, round_: int) -> tuple[dict[int, np.ndarray], list[dict]]:
        return train_clients(self.clients, round_, self.local_epochs)

    def abort(self, reason: str):
        pass


def run_federation(cfg: ExperimentConfig, clients: Sequence[LocalClient],
                   initial: ModelSnapshot, test_set: Sequence[tuple[np.ndarray, int]] = ()
                   ) -> tuple[ModelSnapshot, list[dict]]:
    """In-process rounds, scored by federate on test_set's cached (spikes,
    label) pairs through the clients' head parameters when it is not empty."""
    if len(clients) != cfg.clients:
        raise FederationError("MISSING_CLIENT",
                              f"have {len(clients)} clients, config says {cfg.clients}")
    ordered = sorted(clients, key=lambda c: c.client_id)
    params = ordered[0].network.output_layer.params
    score = (lambda w: evaluate_heads(w, params, test_set)) if test_set else None
    return federate(cfg, initial, InProcessTransport(ordered, cfg.local_epochs), score)


# --- socket transport -------------------------------------------------------

@contextmanager
def _frame_errors(context: str, timeout_code: str = "CLIENT_TIMEOUT"):
    """Raise a timeout (as timeout_code), a bad frame or payload (as its own
    code) or any other socket error, such as a reset or a broken pipe (as
    CONNECTION_LOST), in the block as a FederationError."""
    try:
        yield
    except socket.timeout as err:
        raise FederationError(timeout_code, f"{context}: {err}") from err
    except ProtocolError as err:
        raise FederationError(err.code, f"{context}: {err}") from err
    except OSError as err:
        raise FederationError("CONNECTION_LOST", f"{context}: {err}") from err


@dataclass
class SocketTransport:
    """Registered client connections, keyed by the id each registered with."""

    conns: dict[int, socket.socket]
    weights: Optional[np.ndarray] = field(default=None, init=False)

    def broadcast(self, snapshot: ModelSnapshot):
        self.weights = snapshot.output_weights
        payload = pack_array(snapshot.output_weights, "<i1")
        for cid in sorted(self.conns):
            with _frame_errors(f"snapshot to client {cid}"):
                send_frame(self.conns[cid],
                           Message(MessageType.SNAPSHOT, cid, snapshot.round, payload))

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
                delta = unpack_array(msg.payload, "<i2")
                fits = delta.shape == self.weights.shape  # else aggregate's SHAPE_MISMATCH
                if fits and not WEIGHT_SPEC.holds(self.weights + delta):
                    raise FederationError("INVALID_DELTA", f"client {cid} sent a delta that "
                                          "moves a weight off the even grid")
                deltas[cid] = delta
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
                sock, peer = srv.accept()
            except socket.timeout:
                raise FederationError("CLIENT_TIMEOUT",
                                      f"only {len(conns)} of {cfg.clients} "
                                      "clients registered") from None
            opened.enter_context(sock)
            sock.settimeout(cfg.timeout_s)
            with _frame_errors(f"registration from {peer}"):
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
                with _frame_errors(f"final ack from client {cid}"):
                    msg = recv_frame(conns[cid])
                if msg.type is not MessageType.ACK:
                    raise FederationError("BAD_MESSAGE", f"expected ACK, got {msg.type.name}")
        except FederationError as err:
            err.metrics = metrics
            raise
    return snapshot, metrics


def _connect(address: tuple[str, int], deadline: float, timeout_s: float) -> socket.socket:
    """A connection to address, retried until deadline; CONNECT_TIMEOUT past it."""
    while True:
        try:
            return socket.create_connection(address, timeout=timeout_s)
        except OSError:
            if time.monotonic() >= deadline:
                raise FederationError("CONNECT_TIMEOUT",
                                      f"could not reach server at {address}") from None
            time.sleep(0.05)


def run_socket_clients(cfg: ExperimentConfig, clients: Sequence[LocalClient],
                       address: tuple[str, int]) -> tuple[ModelSnapshot, list[dict]]:
    """Socket-transport client loop, one connection per client; returns the
    final snapshot and the clients' train records.

    Each round installs every connection's snapshot into its client, trains
    all the clients in one train_clients call and sends each delta on its
    client's connection. A failure in a round is a FederationError with the
    completed rounds' records: a silent server is a SERVER_TIMEOUT, a bad
    frame keeps its code, and any other socket error, such as a reset or a
    broken pipe, is CONNECTION_LOST. Leaving the loop closes every connection."""
    deadline = time.monotonic() + cfg.timeout_s
    with ExitStack() as opened:
        socks = []
        for c in clients:
            socks.append(opened.enter_context(_connect(address, deadline, cfg.timeout_s)))
            with _frame_errors(f"server at {address}", "SERVER_TIMEOUT"):
                send_frame(socks[-1], Message(MessageType.HELLO, c.client_id))
        # A round's train records are kept once the round's snapshots arrive.
        metrics: list[dict] = []
        pending: list[dict] = []
        try:
            with _frame_errors(f"server at {address}", "SERVER_TIMEOUT"):
                while True:
                    for c, sock in zip(clients, socks):
                        msg = recv_frame(sock)
                        if msg.type is MessageType.ABORT:
                            raise FederationError("SERVER_ABORT", unpack_abort(msg.payload))
                        if msg.type is not MessageType.SNAPSHOT:
                            raise FederationError("BAD_MESSAGE",
                                                  f"expected SNAPSHOT, got {msg.type.name}")
                        snapshot = ModelSnapshot(msg.round, unpack_array(msg.payload, "<i1"))
                        c.install(snapshot)
                    metrics += pending
                    if snapshot.round >= cfg.rounds:
                        for c, sock in zip(clients, socks):
                            send_frame(sock, Message(MessageType.ACK, c.client_id, snapshot.round))
                        return snapshot, metrics
                    round_ = snapshot.round + 1
                    deltas, pending = train_clients(clients, round_, cfg.local_epochs)
                    for c, sock in zip(clients, socks):
                        send_frame(sock, Message(MessageType.DELTA, c.client_id, round_,
                                                 pack_array(deltas[c.client_id], "<i2")))
        except FederationError as err:
            err.metrics, err.round = metrics, min(c.round for c in clients) + 1
            raise
