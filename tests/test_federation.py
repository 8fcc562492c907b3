"""Aggregation arithmetic, round bookkeeping and both transports."""

import gc
import socket
import sys
import threading
import warnings
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspike.config import ExperimentConfig
from fedspike.experiment import run_simulation
from fedspike.federation import (
    FederationError,
    LocalClient,
    ModelSnapshot,
    aggregate,
    evaluate_clients,
    federate,
    make_snapshot,
    run_federation,
    run_socket_client,
    serve_federation,
    weights_checksum,
)
from fedspike.plasticity import SoelEngine
from fedspike.protocol import Message, MessageType, pack_delta, recv_frame, send_frame
from fedspike.quant import WEIGHT_SPEC, Rng
from fedspike.snn import TIME_BLOCK, NeuronParams, build_network, classify, head_counts, parse_arch
from reference import clamp_to_spec, round_nearest_even_int


def snap(w, round_=0):
    return make_snapshot(round_, np.asarray(w, dtype=np.int8))


def deltas_for(values, shape):
    """Client cid's delta: shape filled with values[cid]."""
    return {cid: np.full(shape, v, dtype=np.int64) for cid, v in enumerate(values)}


class TestSnapshot:
    def test_checksum_matches_weights(self):
        s = snap([[2, -4]])
        assert s.checksum == weights_checksum(s.output_weights)

    def test_odd_weight_rejected(self):
        with pytest.raises(FederationError) as exc:
            snap([[3, 0]])
        assert exc.value.code == "INVALID_SNAPSHOT"

    def test_tampered_checksum_rejected(self):
        s = snap([[2, -4]])
        with pytest.raises(FederationError):
            ModelSnapshot(0, s.output_weights, s.checksum ^ 1)


class TestAggregate:
    def test_identical_deltas_move_by_that_delta(self):
        base = snap(np.full((2, 2), 10))
        out = aggregate(base, deltas_for([4, 4, 4], shape=(2, 2)), 3)
        assert np.all(out.output_weights == 14)
        assert out.round == 1

    def test_single_outlier_rounds_away(self):
        # One client moves a weight by +2, four leave it alone: mean 0.4
        # rounds to zero and the weight must not move.
        base = snap([[10]])
        out = aggregate(base, deltas_for([2, 0, 0, 0, 0], shape=(1, 1)), 5)
        assert out.output_weights[0, 0] == 10

    def test_single_client_degenerates_to_local_training(self):
        base = snap([[10]])
        out = aggregate(base, deltas_for([6], shape=(1, 1)), 1)
        assert out.output_weights[0, 0] == 16

    def test_mean_of_client_weights(self):
        # Client models at one synapse: {2, 4, 6, 8, 10} -> average 6.
        base = snap([[2]])
        out = aggregate(base, deltas_for([0, 2, 4, 6, 8], shape=(1, 1)), 5)
        assert out.output_weights[0, 0] == 6

    def test_half_grid_tie_rounds_toward_zero(self):
        base = snap([[0]])
        out = aggregate(base, deltas_for([0, 2], shape=(1, 1)), 2)  # mean 1
        assert out.output_weights[0, 0] == 0
        base = snap([[0]])
        out = aggregate(base, deltas_for([0, -2], shape=(1, 1)), 2)  # mean -1
        assert out.output_weights[0, 0] == 0

    def test_result_clamps_to_range(self):
        base = snap([[124]])
        out = aggregate(base, deltas_for([8, 8], shape=(1, 1)), 2)
        assert out.output_weights[0, 0] == 126

    def test_zero_deltas_identity(self):
        base = snap([[2, -8], [126, -128]])
        out = aggregate(base, deltas_for([0, 0, 0], shape=(2, 2)), 3)
        assert np.array_equal(out.output_weights, base.output_weights)

    def test_permutation_invariant(self):
        base = snap(np.zeros((2, 3)))
        rng = np.random.default_rng(0)
        ds = {k: rng.integers(-20, 21, size=(2, 3)) for k in range(4)}
        a = aggregate(base, ds, 4)
        b = aggregate(base, dict(reversed(ds.items())), 4)
        assert np.array_equal(a.output_weights, b.output_weights)

    def test_missing_client(self):
        base = snap([[0]])
        with pytest.raises(FederationError) as exc:
            aggregate(base, deltas_for([2, 2], shape=(1, 1)), 3)
        assert exc.value.code == "MISSING_CLIENT"

    def test_unknown_client(self):
        # Both expected ids are present; the extra one is not a client.
        base = snap([[0]])
        ds = deltas_for([2, 2, 2], shape=(1, 1))
        ds[9] = ds.pop(2)
        with pytest.raises(FederationError) as exc:
            aggregate(base, ds, 2)
        assert exc.value.code == "UNKNOWN_CLIENT"

    def test_shape_mismatch(self):
        base = snap([[0, 0]])
        ds = deltas_for([2, 2], shape=(1, 2))
        ds[1] = np.zeros((1, 1), dtype=np.int64)
        with pytest.raises(FederationError) as exc:
            aggregate(base, ds, 2)
        assert exc.value.code == "SHAPE_MISMATCH"
        assert str(exc.value).startswith("client 1 sent a delta of shape (1, 1)")

    @pytest.mark.parametrize("k", range(1, 9))
    def test_exact_against_rational_rounding_exhaustively(self, k):
        # Every even base weight and every reachable delta sum: each client
        # moves the weight at most to the grid ends, so the sum runs from
        # K * (-128 - base) to K * (126 - base) in steps of two.
        bases, totals = [], []
        for base in range(-128, 127, 2):
            sums = range(k * (-128 - base), k * (126 - base) + 1, 2)
            bases += [base] * len(sums)
            totals += sums
        base_w, total = np.array([bases]), np.array([totals])
        deltas = {0: total, **{c: np.zeros_like(total) for c in range(1, k)}}
        got = aggregate(snap(base_w), deltas, k).output_weights[0]
        want = [clamp_to_spec(round_nearest_even_int(Fraction(b * k + t, k)), WEIGHT_SPEC)
                for b, t in zip(bases, totals)]
        assert got.tolist() == want

    @given(seed=st.integers(0, 2**31), k=st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_result_always_on_even_grid(self, seed, k):
        rng = np.random.default_rng(seed)
        base = snap(2 * rng.integers(-64, 64, size=(3, 4)))
        ds = {i: rng.integers(-300, 301, size=(3, 4)) for i in range(k)}
        out = aggregate(base, ds, k)
        w = out.output_weights
        assert not np.any(w % 2)
        assert w.min() >= -128 and w.max() <= 126


NUM_CLASSES = 3
PRE = 32
STEPS = 48


def rule(error_threshold=1):
    """The clients' rule, every setting explicit; the box is off."""
    return ExperimentConfig(window=8, error_threshold=error_threshold, error_offset=64,
                            learning_rate=Fraction(1, 8), alpha1_shift=2, alpha2_shift=4,
                            impulse1=16, impulse2=16, box_enabled=False, box_low=0,
                            box_high=1 << 20, target_rate=4, off_target=0)


def make_client(cid, seed=5, threshold=60, error_threshold=1):
    net = build_network(parse_arch("4x4x2, out", NUM_CLASSES),
                        NeuronParams(), NeuronParams(threshold=threshold),
                        rng=Rng(77))
    engine = SoelEngine(rule(error_threshold), Rng(seed).fork(f"client/{cid}"))
    data_rng = np.random.default_rng(1000 + cid)
    shots = [((data_rng.random((STEPS, PRE)) < 0.4).astype(np.int8), label)
             for label in range(NUM_CLASSES)]
    return LocalClient(cid, net, engine, shots)


def zero_snapshot():
    return make_snapshot(0, np.zeros((NUM_CLASSES, PRE), dtype=np.int8))


class TestLocalClient:
    def test_zero_epochs_zero_delta(self):
        c = make_client(0)
        c.install(zero_snapshot())
        d, _ = c.train(1, local_epochs=0)
        assert not d.any()

    def test_threshold_above_any_error_means_zero_delta(self):
        c = make_client(0, error_threshold=10_000)
        c.install(zero_snapshot())
        d, row = c.train(1, local_epochs=2)
        assert not d.any()
        assert row["triggered_updates"] == 0
        assert (row["event"], row["round"], row["client"]) == ("train", 1, 0)

    def test_training_produces_movement(self):
        c = make_client(0)
        c.install(zero_snapshot())
        d, _ = c.train(1, local_epochs=1)
        assert d.any() and d.dtype == np.int64

    def test_delta_equals_manual_replay(self):
        c = make_client(3)
        c.install(zero_snapshot())
        delta, _ = c.train(1, local_epochs=2)

        net = build_network(parse_arch("4x4x2, out", NUM_CLASSES),
                            NeuronParams(), NeuronParams(threshold=60),
                            rng=Rng(77))
        engine = SoelEngine(rule(error_threshold=1), Rng(5).fork("client/3"))
        head = net.output_layer
        head.set_weights(np.zeros((NUM_CLASSES, PRE), dtype=np.int8))
        data_rng = np.random.default_rng(1003)
        for _ in range(2):
            for label in range(NUM_CLASSES):
                pre = (data_rng.random((STEPS, PRE)) < 0.4).astype(np.int8)
                targets = np.zeros(NUM_CLASSES, dtype=np.int64)
                targets[label] = 4
                engine.train_on_spikes(head, pre, targets)
        # The client reuses one fixed draw of shot data, so regenerate in
        # the same order the client generated them.
        assert not np.array_equal(head.w, np.zeros_like(head.w)) or not delta.any()
        replay_rng = np.random.default_rng(1003)
        shots = [((replay_rng.random((STEPS, PRE)) < 0.4).astype(np.int8), label)
                 for label in range(NUM_CLASSES)]
        head.set_weights(np.zeros((NUM_CLASSES, PRE), dtype=np.int8))
        engine2 = SoelEngine(rule(error_threshold=1), Rng(5).fork("client/3"))
        for _ in range(2):
            for pre, label in shots:
                targets = np.zeros(NUM_CLASSES, dtype=np.int64)
                targets[label] = 4
                engine2.train_on_spikes(head, pre, targets)
        assert np.array_equal(head.w - 0, delta)

    def test_stale_snapshot_rejected(self):
        c = make_client(0)
        c.install(snap(np.zeros((NUM_CLASSES, PRE)), round_=2))
        with pytest.raises(FederationError) as exc:
            c.install(zero_snapshot())
        assert exc.value.code == "STALE_SNAPSHOT"

    def test_forward_round_accepted(self):
        # A round-2 snapshot reaching a client still at round 0 installs fine.
        c = make_client(0)
        c.install(snap(np.zeros((NUM_CLASSES, PRE)), round_=2))
        assert c.round == 2

    def test_wrong_shape_rejected(self):
        c = make_client(0)
        with pytest.raises(FederationError) as exc:
            c.install(snap(np.zeros((NUM_CLASSES, PRE + 1))))
        assert exc.value.code == "SHAPE_MISMATCH"

    def test_train_requires_next_round(self):
        c = make_client(0)
        c.install(zero_snapshot())
        with pytest.raises(FederationError) as exc:
            c.train(3, local_epochs=1)
        assert exc.value.code == "ROUND_MISMATCH"

    def test_evaluate_accuracy_range(self):
        c = make_client(0)
        c.install(zero_snapshot())
        rng = np.random.default_rng(2)
        tests = [((rng.random((STEPS, PRE)) < 0.4).astype(np.int8), label)
                 for label in range(NUM_CLASSES)]
        acc = c.evaluate(tests)
        assert 0.0 <= acc <= 1.0


    def test_evaluate_matches_per_sample_head_runs(self):
        # Trains of two lengths, so the batch splits where the length changes.
        c = make_client(0)
        rng = np.random.default_rng(3)
        c.install(snap(2 * rng.integers(-20, 21, size=(NUM_CLASSES, PRE))))
        tests = [((rng.random((steps, PRE)) < 0.4).astype(np.int8), int(rng.integers(NUM_CLASSES)))
                 for steps in (STEPS, STEPS, STEPS // 2, STEPS)]
        head = c.network.output_layer
        correct = 0
        for spikes, label in tests:
            head.reset()
            counts = sum(head.step(spikes[t][None, None])[0, 0] for t in range(len(spikes)))
            correct += classify(counts) == label
        assert c.evaluate(tests) == correct / len(tests)


class TestEvaluateClients:
    @given(seed=st.integers(0, 2**32), k=st.integers(1, 4),
           lengths=st.tuples(st.integers(1, 4 * TIME_BLOCK), st.integers(1, 4 * TIME_BLOCK)),
           runs=st.lists(st.integers(0, 1), min_size=1, max_size=7))
    @settings(max_examples=30, deadline=None)
    def test_batched_clients_match_per_client_per_sample_head_runs(self, seed, k, lengths,
                                                                   runs):
        # Trains of two lengths, mostly not a whole number of time blocks,
        # in runs that batches() stacks and splits where the length changes.
        if all(n % TIME_BLOCK == 0 for n in lengths):
            lengths = (lengths[0] + 1, lengths[1])
        rng = np.random.default_rng(seed)
        clients = [make_client(cid) for cid in range(k)]
        for c in clients:
            c.install(snap(2 * rng.integers(-40, 41, size=(NUM_CLASSES, PRE))))
        tests = [((rng.random((lengths[r], PRE)) < 0.4).astype(np.int8),
                  int(rng.integers(NUM_CLASSES))) for r in runs]
        want_acc, want_counts = [], []
        for c in clients:
            head = c.network.output_layer
            counts = []
            for spikes, _ in tests:
                head.reset()
                counts.append(sum(head.step(spikes[t][None, None])[0, 0] for t in range(len(spikes))))
            want_counts.append(counts)
            want_acc.append(float(np.mean([classify(n) == label
                                           for n, (_, label) in zip(counts, tests)])))
        assert evaluate_clients(clients, tests) == want_acc
        heads = [c.network.output_layer for c in clients]
        for i, (spikes, _) in enumerate(tests):
            got = head_counts(heads, spikes[None])
            assert np.array_equal(got[:, 0], [counts[i] for counts in want_counts])

    def test_heads_with_different_neurons_are_rejected(self):
        heads = [make_client(0).network.output_layer,
                 make_client(1, threshold=61).network.output_layer]
        with pytest.raises(ValueError, match="share"):
            head_counts(heads, np.zeros((1, 4, PRE), dtype=np.int8))

    def test_heads_of_different_shapes_are_rejected(self):
        # Same neurons; the second head has one output more.
        wide = build_network(parse_arch("4x4x2, out", NUM_CLASSES + 1),
                             NeuronParams(), NeuronParams(threshold=60), rng=Rng(77))
        heads = [make_client(0).network.output_layer, wide.output_layer]
        with pytest.raises(ValueError, match="share"):
            head_counts(heads, np.zeros((1, 4, PRE), dtype=np.int8))


class TestRunFederation:
    def test_round_and_call_counts(self):
        k, e = 5, 8
        clients = [make_client(i) for i in range(k)]
        cfg = ExperimentConfig(clients=k, rounds=e)
        final, metrics = run_federation(cfg, clients, zero_snapshot())
        assert final.round == e
        assert sum(1 for m in metrics if m["event"] == "train") == k * e
        assert sum(1 for m in metrics if m["event"] == "round") == e

    def test_zero_rounds_returns_initial(self):
        clients = [make_client(i) for i in range(2)]
        base = zero_snapshot()
        cfg = ExperimentConfig(clients=2, rounds=0)
        final, metrics = run_federation(cfg, clients, base)
        assert final is base
        assert metrics == []
        for c in clients:
            assert not c.network.output_layer.w.any()

    def test_broadcast_leaves_all_clients_at_server_weights(self):
        clients = [make_client(i) for i in range(3)]
        cfg = ExperimentConfig(clients=3, rounds=2)
        final, _ = run_federation(cfg, clients, zero_snapshot())
        for c in clients:
            assert np.array_equal(c.network.output_layer.w.astype(np.int8),
                                  final.output_weights)
            assert weights_checksum(c.network.output_layer.w) == final.checksum

    def test_deterministic_rerun(self):
        def go():
            clients = [make_client(i) for i in range(3)]
            cfg = ExperimentConfig(clients=3, rounds=3)
            return run_federation(cfg, clients, zero_snapshot())

        a, b = go(), go()
        assert np.array_equal(a[0].output_weights, b[0].output_weights)
        assert a[1] == b[1]

    def test_test_set_scores_every_snapshot_and_local_model(self):
        rng = np.random.default_rng(4)
        tests = [((rng.random((STEPS, PRE)) < 0.4).astype(np.int8), label)
                 for label in range(NUM_CLASSES)]
        cfg = ExperimentConfig(clients=2, rounds=2)
        clients = [make_client(i) for i in range(2)]
        final, scored = run_federation(cfg, clients, zero_snapshot(), tests)
        _, plain = run_federation(cfg, [make_client(i) for i in range(2)], zero_snapshot())
        assert scored[0] == {"event": "init", "round": 0, "checksum": zero_snapshot().checksum,
                             "accuracy": make_client(0).evaluate(tests)}
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in scored)
        assert [{k: v for k, v in r.items() if k != "accuracy"} for r in scored[1:]] == plain
        assert scored[-1]["accuracy"] == clients[0].evaluate(tests)
        assert final.checksum == scored[-1]["checksum"]

    def test_client_count_mismatch(self):
        clients = [make_client(i) for i in range(2)]
        with pytest.raises(FederationError) as exc:
            run_federation(ExperimentConfig(clients=3, rounds=1),
                           clients, zero_snapshot())
        assert exc.value.code == "MISSING_CLIENT"


class FakeTransport:
    """Collects a wrong-shape delta from client 1 in round 2."""

    def __init__(self):
        self.broadcasts, self.aborts = [], []

    def broadcast(self, snapshot):
        self.broadcasts.append(snapshot.round)

    def collect(self, round_):
        rows = [{"event": "train", "round": round_, "client": k} for k in range(2)]
        deltas = deltas_for([2, 4], shape=(1, 1))
        if round_ == 2:
            deltas[1] = np.zeros((1, 2), dtype=np.int64)
        return deltas, rows

    def abort(self, reason):
        self.aborts.append(reason)


class TestFederate:
    def test_failed_round_aborts_once_and_keeps_completed_rounds(self):
        fake = FakeTransport()
        with pytest.raises(FederationError) as exc:
            federate(ExperimentConfig(clients=2, rounds=3), snap([[0]]), fake)
        assert exc.value.code == "SHAPE_MISMATCH"
        assert "client 1" in str(exc.value) and exc.value.round == 2
        assert len(fake.aborts) == 1
        assert fake.broadcasts == [0, 1]
        first = aggregate(snap([[0]]), deltas_for([2, 4], shape=(1, 1)), 2)
        assert exc.value.metrics == [
            {"event": "train", "round": 1, "client": 0},
            {"event": "train", "round": 1, "client": 1},
            {"event": "round", "round": 1, "checksum": first.checksum},
        ]


def socket_run(k, e, seed=5):
    cfg = ExperimentConfig(clients=k, rounds=e, timeout_s=20.0)
    results = {}
    errors = []

    def server():
        try:
            results["server"] = serve_federation(cfg, zero_snapshot(),
                                                 server_socket=srv)
        except BaseException as err:  # noqa: BLE001 - surfaced by the test
            errors.append(err)

    def client(cid):
        try:
            results[cid] = run_socket_client(cfg, make_client(cid, seed=seed), addr)
        except BaseException as err:  # noqa: BLE001
            errors.append(err)

    with socket.create_server(("127.0.0.1", 0)) as srv:
        addr = srv.getsockname()
        threads = [threading.Thread(target=server)]
        threads += [threading.Thread(target=client, args=(i,)) for i in range(k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    if errors:
        raise errors[0]
    return results


@contextmanager
def serving(cfg):
    """serve_federation in a thread on an ephemeral port: yields (address, errors)."""
    errors = []

    def server():
        try:
            serve_federation(cfg, zero_snapshot(), server_socket=srv)
        except FederationError as err:
            errors.append(err)

    with socket.create_server(("127.0.0.1", 0)) as srv:
        thread = threading.Thread(target=server)
        thread.start()
        try:
            yield srv.getsockname(), errors
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive(), "server did not finish"


class TestSocketTransport:
    def test_matches_in_process_bit_exactly(self):
        k, e = 2, 3
        clients = [make_client(i) for i in range(k)]
        cfg = ExperimentConfig(clients=k, rounds=e)
        inproc_final, _ = run_federation(cfg, clients, zero_snapshot())

        results = socket_run(k, e)
        sock_final, _ = results["server"]
        assert np.array_equal(sock_final.output_weights, inproc_final.output_weights)
        assert sock_final.checksum == inproc_final.checksum
        assert sock_final.round == inproc_final.round
        for cid in range(k):
            client_final, _ = results[cid]
            assert np.array_equal(client_final.output_weights,
                                  inproc_final.output_weights)

    def test_conv_arch_trains_the_same_in_process_and_over_sockets(self):
        cfg = ExperimentConfig(arch="8x8x2, 4c3z, 2a, dense16, out", width=8, height=8,
                               classes=3, clients=2, rounds=2, test_size=0,
                               duration_us=400_000, window=8, output_threshold=128,
                               timeout_s=10.0)
        runs = {t: run_simulation(replace(cfg, transport=t)) for t in ("inproc", "socket")}
        (final, metrics, ex), (sock_final, sock_metrics, _) = runs["inproc"], runs["socket"]
        assert [layer.topo.kind for layer in ex.clients[0].network.layers] == [
            "conv", "sum_pool", "dense", "dense"]
        train = [r for r in metrics if r["event"] == "train"]
        assert len(train) == 4 and all(r["triggered_updates"] > 0 for r in train)
        assert final.checksum != ex.initial.checksum
        assert sock_final.checksum == final.checksum
        assert np.array_equal(sock_final.output_weights, final.output_weights)
        assert [r for r in sock_metrics if r["event"] == "train"] == train
        assert ([r["checksum"] for r in sock_metrics if r["event"] == "round"]
                == [r["checksum"] for r in metrics if r["event"] == "round"])

    def test_socket_simulation_closes_its_sockets(self):
        cfg = ExperimentConfig(arch="8x8x2, out", width=8, height=8, classes=3,
                               clients=2, rounds=1, transport="socket", test_size=0,
                               duration_us=100_000, timeout_s=10.0)
        # A socket closed by the garbage collector warns from its finalizer,
        # where the raised warning reaches sys.unraisablehook.
        unraisable = []
        hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                run_simulation(cfg)
                gc.collect()
        finally:
            sys.unraisablehook = hook
        assert [str(u.exc_value) for u in unraisable] == []

    def test_misbehaving_client_aborts_round(self):
        cfg = ExperimentConfig(clients=1, rounds=1, timeout_s=5.0)
        with serving(cfg) as (addr, server_error):
            with socket.create_connection(addr, timeout=5) as sock:
                sock.settimeout(5)
                send_frame(sock, Message(MessageType.HELLO, 0))
                snapshot_msg = recv_frame(sock)
                assert snapshot_msg.type is MessageType.SNAPSHOT
                send_frame(sock, Message(MessageType.ACK, 0, 1))  # not a DELTA
                abort = recv_frame(sock)
                assert abort.type is MessageType.ABORT
        assert server_error and server_error[0].code == "BAD_MESSAGE"

    def test_duplicate_registration_rejected(self):
        cfg = ExperimentConfig(clients=2, rounds=1, timeout_s=5.0)
        with serving(cfg) as (addr, server_error):
            with socket.create_connection(addr, timeout=5) as s1:
                send_frame(s1, Message(MessageType.HELLO, 0))
                with socket.create_connection(addr, timeout=5) as s2:
                    send_frame(s2, Message(MessageType.HELLO, 0))
                    assert recv_frame(s2).type is MessageType.ABORT
        assert server_error and server_error[0].code == "DUPLICATE_CLIENT"

    def test_delta_is_attributed_to_its_connection(self):
        # Connection 0 sends a delta tagged client 1, then the honest client 1
        # sends its own: the server blames connection 0 and aborts both.
        cfg = ExperimentConfig(clients=2, rounds=1, timeout_s=5.0)
        zeros = pack_delta(np.zeros((NUM_CLASSES, PRE), dtype=np.int8))
        with serving(cfg) as (addr, server_error):
            with socket.create_connection(addr, timeout=5) as s0, \
                    socket.create_connection(addr, timeout=5) as s1:
                send_frame(s0, Message(MessageType.HELLO, 0))
                send_frame(s1, Message(MessageType.HELLO, 1))
                assert [recv_frame(s).type for s in (s0, s1)] == [MessageType.SNAPSHOT] * 2
                send_frame(s0, Message(MessageType.DELTA, 1, 1, zeros))
                send_frame(s1, Message(MessageType.DELTA, 1, 1, zeros))
                assert [recv_frame(s).type for s in (s0, s1)] == [MessageType.ABORT] * 2
        assert server_error and server_error[0].code == "CLIENT_MISMATCH"
        assert "client 0 " in str(server_error[0])

    def test_delta_of_another_round_is_reported_with_its_client(self):
        # Client 0 sends its round-1 delta, client 1 tags its delta round 5:
        # the server names client 1 and aborts both.
        cfg = ExperimentConfig(clients=2, rounds=1, timeout_s=5.0)
        zeros = pack_delta(np.zeros((NUM_CLASSES, PRE), dtype=np.int8))
        with serving(cfg) as (addr, server_error):
            with socket.create_connection(addr, timeout=5) as s0, \
                    socket.create_connection(addr, timeout=5) as s1:
                send_frame(s0, Message(MessageType.HELLO, 0))
                send_frame(s1, Message(MessageType.HELLO, 1))
                assert [recv_frame(s).type for s in (s0, s1)] == [MessageType.SNAPSHOT] * 2
                send_frame(s0, Message(MessageType.DELTA, 0, 1, zeros))
                send_frame(s1, Message(MessageType.DELTA, 1, 5, zeros))
                assert [recv_frame(s).type for s in (s0, s1)] == [MessageType.ABORT] * 2
        assert server_error and server_error[0].code == "ROUND_MISMATCH"
        assert str(server_error[0]) == "client 1 sent a delta of round 5 in round 1"
        assert server_error[0].round == 1

    def test_malformed_delta_payload_aborts_round(self):
        # A frame with a valid checksum whose payload is not a delta.
        cfg = ExperimentConfig(clients=2, rounds=1, timeout_s=5.0)
        with serving(cfg) as (addr, server_error):
            with socket.create_connection(addr, timeout=5) as s0, \
                    socket.create_connection(addr, timeout=5) as s1:
                send_frame(s0, Message(MessageType.HELLO, 0))
                send_frame(s1, Message(MessageType.HELLO, 1))
                assert [recv_frame(s).type for s in (s0, s1)] == [MessageType.SNAPSHOT] * 2
                send_frame(s0, Message(MessageType.DELTA, 0, 1, b""))
                assert [recv_frame(s).type for s in (s0, s1)] == [MessageType.ABORT] * 2
        assert server_error and server_error[0].code == "BAD_PAYLOAD"
        assert "delta from client 0" in str(server_error[0])
