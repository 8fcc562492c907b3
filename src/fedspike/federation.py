"""Synchronous federated averaging over locally trained output layers.

One round: every client trains on its one-shot data starting from the
current global snapshot, sends back an integer weight delta, and the server
installs the even-rounded mean of the client models as the next snapshot.
All K clients participate in every round; a missing or malformed delta
aborts the round rather than silently proceeding.

One coordinator, federate, runs the rounds over either transport: in process
(run_federation) or over TCP (serve_federation with run_socket_client), so
both give bit-identical snapshots for identical seeds. In process, the K
clients of a round train in lockstep (train_clients) and their local models
are scored as one batch (evaluate_clients); over TCP each client runs the
same two with K = 1. Aggregation is exact integer arithmetic, identical on
every platform.

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
from typing import Callable, Optional, Sequence

import numpy as np

from .config import ExperimentConfig
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


class FederationError(Exception):
    """A named failure; metrics holds the completed rounds' records and round
    the round that failed (None outside a round: registration, final ACK)."""

    def __init__(self, code: str, message: str, metrics: Optional[list] = None,
                 round: Optional[int] = None):
        super().__init__(message)
        self.code = code
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


@dataclass
class ModelDelta:
    client_id: int
    round: int
    delta_weights: np.ndarray  # integer tensor, same shape as the snapshot


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
    unknown = sorted(set(ids) - set(range(num_clients)))
    if unknown:
        raise FederationError("UNKNOWN_CLIENT", f"client ids {unknown}")
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

    def train(self, round_: int, local_epochs: int) -> tuple[ModelDelta, dict]:
        """Train round_ from the installed snapshot: the delta and its train record."""
        deltas, rows = train_clients([self], round_, local_epochs)
        return deltas[0], rows[0]

    def evaluate(self, test_set: Sequence[tuple[np.ndarray, int]]) -> float:
        """Accuracy of the installed weights on cached (spikes, label) pairs."""
        return evaluate_clients([self], test_set)[0]


def train_clients(clients: Sequence[LocalClient], round_: int, local_epochs: int
                  ) -> tuple[list[ModelDelta], list[dict]]:
    """Train round_ on every client at once (plasticity.train_lockstep).

    Each client runs local_epochs passes over its shots from its installed
    snapshot. Returns each client's delta and train record, equal to those
    of the client training alone.
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
    deltas, rows = [], []
    for c, head, w, s in zip(clients, heads, before, stats):
        deltas.append(ModelDelta(c.client_id, round_, head.w - w))
        rows.append({"event": "train", "round": round_, "client": c.client_id,
                     "error_l1": s.error_l1, "triggered_updates": s.triggered_updates,
                     "boundaries": s.boundaries,
                     "error_per_class": [int(v) for v in s.error_per_class]})
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


EvalHook = Callable[[int, ModelSnapshot], dict]
LocalEvalHook = Callable[[int, Sequence[LocalClient]], list[dict]]


def federate(cfg: ExperimentConfig, initial: ModelSnapshot, transport,
             eval_hook: Optional[EvalHook] = None) -> tuple[ModelSnapshot, list[dict]]:
    """Run cfg.rounds rounds over transport; returns final snapshot and metrics.

    transport has broadcast(snapshot), collect(round) -> (deltas, per-client
    records) and abort(reason). eval_hook(round, snapshot) extends each round
    record after the broadcast and adds a round-0 record. A round's records
    are kept once it aggregates; on a FederationError the transport is
    aborted and the error carries the completed rounds' records and the
    failed round.
    """
    metrics: list[dict] = []
    snapshot, t = initial, 0
    try:
        transport.broadcast(snapshot)
        if eval_hook:
            metrics.append({"event": "init", "round": 0,
                            "checksum": snapshot.checksum, **eval_hook(0, snapshot)})
        for t in range(1, cfg.rounds + 1):
            deltas, train_rows = transport.collect(t)
            snapshot = aggregate(snapshot, deltas, cfg.clients)
            transport.broadcast(snapshot)
            row = {"event": "round", "round": t, "checksum": snapshot.checksum}
            if eval_hook:
                row.update(eval_hook(t, snapshot))
            metrics += train_rows + [row]
    except FederationError as err:
        transport.abort(f"round {t} failed: {err}")
        err.metrics, err.round = metrics, t
        raise
    return snapshot, metrics


@dataclass
class InProcessTransport:
    """Clients in this process, trained together by train_clients.

    local_eval_hook(round, clients) returns one dict per client that extends
    its record, called while the heads still hold the local weights.
    """

    clients: Sequence[LocalClient]
    local_epochs: int
    local_eval_hook: Optional[LocalEvalHook] = None

    def broadcast(self, snapshot: ModelSnapshot):
        for c in self.clients:
            c.install(snapshot)

    def collect(self, round_: int) -> tuple[list[ModelDelta], list[dict]]:
        deltas, rows = train_clients(self.clients, round_, self.local_epochs)
        if self.local_eval_hook:
            for row, extra in zip(rows, self.local_eval_hook(round_, self.clients)):
                row.update(extra)
        return deltas, rows

    def abort(self, reason: str):
        pass


def run_federation(cfg: ExperimentConfig, clients: Sequence[LocalClient],
                   initial: ModelSnapshot,
                   eval_hook: Optional[EvalHook] = None,
                   local_eval_hook: Optional[LocalEvalHook] = None
                   ) -> tuple[ModelSnapshot, list[dict]]:
    """In-process rounds; the hooks are those of federate and InProcessTransport."""
    if len(clients) != cfg.clients:
        raise FederationError("MISSING_CLIENT",
                              f"have {len(clients)} clients, config says {cfg.clients}")
    ordered = sorted(clients, key=lambda c: c.client_id)
    return federate(cfg, initial,
                    InProcessTransport(ordered, cfg.local_epochs, local_eval_hook),
                    eval_hook)


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

    def collect(self, round_: int) -> tuple[list[ModelDelta], list[dict]]:
        """One DELTA per connection, attributed to the connection's id."""
        deltas = []
        for cid in sorted(self.conns):
            with _frame_errors(f"delta from client {cid}"):
                msg = recv_frame(self.conns[cid])
                if msg.type is not MessageType.DELTA:
                    raise FederationError("BAD_MESSAGE", f"expected DELTA, got {msg.type.name}")
                if msg.client_id != cid:
                    raise FederationError("CLIENT_MISMATCH", f"connection of client {cid} "
                                          f"sent a delta tagged client {msg.client_id}")
                deltas.append(ModelDelta(cid, msg.round, unpack_delta(msg.payload)))
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
                raise FederationError("SERVER_ABORT", unpack_abort(msg.payload), metrics,
                                      client.round + 1)
            if msg.type is not MessageType.SNAPSHOT:
                raise FederationError("BAD_MESSAGE", f"expected SNAPSHOT, got {msg.type.name}",
                                      metrics, client.round + 1)
            snapshot = make_snapshot(msg.round, unpack_weights(msg.payload))
            client.install(snapshot)
            metrics += pending
            if msg.round >= cfg.rounds:
                send_frame(sock, Message(MessageType.ACK, client.client_id, msg.round))
                return snapshot, metrics
            delta, row = client.train(msg.round + 1, cfg.local_epochs)
            pending = [row]
            send_frame(sock, Message(MessageType.DELTA, client.client_id, delta.round,
                                     pack_delta(delta.delta_weights)))
    finally:
        sock.close()
