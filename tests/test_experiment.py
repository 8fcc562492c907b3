"""The frozen-trunk cache and the full-network score against the frame path,
and the one trunk that every client's head shares.

cache_spikes and evaluate_network bin events straight into the first sum
pool's counts when the network starts with one. Either way they must equal
stepping each sample's binary frames, bin_events(sample, dt), through the
whole stack alone.
"""

import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fedspike import experiment
from fedspike.config import ConfigError, ExperimentConfig
from fedspike.data import EVENT_DTYPE, EventFormatError, GestureSample, bin_events, generate_synthetic
from fedspike.experiment import BATCH, cache_spikes, evaluate_network, network_for
from fedspike.federation import ModelSnapshot
from fedspike.quant import WEIGHT_SPEC, QuantSpec, Rng
from fedspike.snn import NeuronParams, build_network, classify, head_counts, parse_arch
from fedspike.weights_io import load_weights, save_weights

DT_US = 10_000

ARCHS = {
    "pool-first": "24x24x2, 2a, dense16, out",
    "pool12-first": "24x24x2, 12a, dense8, out",
    "conv-first": "24x24x2, 4c3z, 3a, dense16, out",
    "dense-first": "24x24x2, dense16, out",
}


def make_network(arch):
    net = build_network(parse_arch(arch, 3), NeuronParams(threshold=16),
                        NeuronParams(threshold=32), rng=Rng(5), hidden_init_mag=32)
    head = net.output_layer
    head.set_weights((2 * np.random.default_rng(1).integers(
        -30, 31, size=head.topo.weight_shape)).astype(np.int8))
    return net


def flood(label, duration_us):
    """Every pixel and polarity spiking in the last step: pool counts of k^2."""
    grid = [(duration_us - 1, x, y, p) for x in range(24) for y in range(24)
            for p in range(2)]
    return GestureSample(np.array(grid, dtype=EVENT_DTYPE), label, width=24,
                         height=24, duration_us=duration_us)


def make_samples():
    """BATCH + 3 samples over two durations, in runs that split the batches."""
    samples = []
    for i in range(BATCH + 3):
        duration = 200_000 if i % 7 < 4 else 150_000
        samples.append(generate_synthetic(i % 3, 11, subject=i, width=24, height=24,
                                          duration_us=duration, step_us=DT_US,
                                          noise_rate=2.0))
    samples[5] = flood(2, 200_000)
    return samples


def frame_path(net, sample, stop=None):
    """The reference: one sample's binary frames through layers[:stop]."""
    return net.run(bin_events(sample, DT_US)[None], stop=stop)[0]


@pytest.fixture(scope="module")
def samples():
    return make_samples()


@pytest.mark.parametrize("arch", sorted(ARCHS))
class TestBinnedPathMatchesFrames:
    def test_cache_spikes(self, arch, samples):
        net = make_network(ARCHS[arch])
        cached = cache_spikes(net, samples, DT_US)
        assert [label for _, label in cached] == [s.label for s in samples]
        for (train, _), sample in zip(cached, samples):
            assert np.array_equal(train, frame_path(net, sample, stop=-1))

    def test_evaluate_network(self, arch, samples):
        net = make_network(ARCHS[arch])
        counts = [frame_path(net, s).sum(axis=0) for s in samples]
        expected = np.mean([classify(c) == s.label for c, s in zip(counts, samples)])
        assert evaluate_network(net, samples, DT_US) == expected

    def test_bins_through_the_module_global(self, arch, samples, monkeypatch):
        """Every sample is binned by one call to experiment.bin_events, the
        name that tracing wraps."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return bin_events(*args, **kwargs)
        monkeypatch.setattr(experiment, "bin_events", counted)
        net = make_network(ARCHS[arch])
        cache_spikes(net, samples, DT_US)
        evaluate_network(net, samples, DT_US)
        assert calls == samples + samples


def test_evaluate_network_scores_each_batch_as_it_comes(samples, monkeypatch):
    """The head scores the trunk's trains BATCH samples at a time, as they
    come, never the whole sample set at once."""
    sizes = []

    def counted(w, params, x):
        sizes.append(len(x))
        return head_counts(w, params, x)
    monkeypatch.setattr(experiment, "head_counts", counted)
    evaluate_network(make_network(ARCHS["pool-first"]), samples, DT_US)
    assert sum(sizes) == len(samples) and max(sizes) <= BATCH and len(sizes) > 1


def test_pool_counts_reach_the_head_whole():
    """A sum pool right before the head hands it counts past int8, 144 in a
    flood, whole: in the cached trains and in the score."""
    net = make_network("24x24x2, 12a, out")
    w = np.zeros((3, 8), dtype=np.int8)
    w[2] = 2
    net.output_layer.set_weights(w)
    sample = flood(2, 200_000)
    [(train, _)] = cache_spikes(net, [sample], DT_US)
    assert train.max() == 144
    assert evaluate_network(net, [sample], DT_US) == 1.0


@pytest.mark.parametrize("arch", sorted(ARCHS))
@pytest.mark.parametrize("width", [23, 25, 48])
def test_mismatched_sensor_is_a_named_error(arch, width):
    net = make_network(ARCHS[arch])
    sample = generate_synthetic(0, 3, width=width, height=24, duration_us=100_000)
    message = rf"frame shape \(24, {width}, 2\) does not match input \(24, 24, 2\)"
    with pytest.raises(EventFormatError, match=message):
        cache_spikes(net, [sample], DT_US)
    with pytest.raises(EventFormatError, match=message):
        evaluate_network(net, [sample], DT_US)


def test_clients_share_one_trunk(monkeypatch):
    """clients_for builds the frozen trunk once; each client is a head of its
    own on those very layer objects."""
    cfg = ExperimentConfig(arch="16x16x2, 2a, dense8, out", width=16, height=16, classes=3,
                           clients=3, test_size=0, duration_us=100_000)
    built = []

    def counted(cfg):
        built.append(cfg)
        return network_for(cfg)
    monkeypatch.setattr(experiment, "network_for", counted)
    clients = experiment.clients_for(cfg, experiment.build_dataset(cfg)[0].shots)
    assert len(built) == 1
    trunk = clients[0].network.layers[:-1]
    assert len(trunk) == 2
    for c in clients:
        assert len(c.network.layers) == 3
        assert all(a is b for a, b in zip(c.network.layers[:-1], trunk))
    heads = [c.network.output_layer for c in clients]
    assert len({id(h) for h in heads}) == len(heads)
    w = 2 * np.random.default_rng(0).integers(-20, 21, size=(3, 8))
    clients[1].install(ModelSnapshot(1, w))
    assert np.array_equal(heads[1].w, w)
    assert not heads[0].w.any() and not heads[2].w.any()


def test_network_for_checks_each_weight_array_once(monkeypatch):
    """Each weighted layer's weights pass the even-grid check once, when its
    LayerTopology is made: gesture128's two convs, dense512 and head."""
    checked = []
    holds = QuantSpec.holds

    def counted(spec, v):
        if spec == WEIGHT_SPEC:
            checked.append(v.size)
        return holds(spec, v)
    monkeypatch.setattr(QuantSpec, "holds", counted)
    net = network_for(ExperimentConfig(arch="gesture128", width=128, height=128))
    assert checked == [l.topo.weights.size for l in net.layers if l.topo.weights is not None]
    assert len(checked) == 4


LAYER_TOKENS = st.one_of(
    st.integers(1, 4).map(lambda k: f"{k}a"),
    st.builds(lambda f, k, z: f"{f}c{k}{'z' * z}", st.integers(1, 3), st.integers(1, 5),
              st.booleans()),
    st.integers(1, 12).map(lambda n: f"dense{n}"))


@given(side=st.integers(2, 8), layers=st.lists(LAYER_TOKENS, max_size=3),
       clients=st.integers(1, 2))
@example(side=4, layers=["dense8", "3c1"], clients=1)
@example(side=6, layers=["2a", "dense8", "4c3z"], clients=2)
@settings(max_examples=100, deadline=None)
def test_every_accepted_arch_runs_alike_on_both_transports(side, layers, clients):
    """An arch of the grammar is a named error from the validator, or one
    round of it writes the same weights_global.nfw in process and over the
    socket simulation, and that file loads and re-scores to the accuracy of
    the run's final snapshot."""
    arch = ", ".join([f"{side}x{side}x2", *layers, "out"])
    try:
        cfg = ExperimentConfig(arch=arch, width=side, height=side, classes=3, clients=clients,
                               rounds=1, test_size=3, duration_us=120_000, window=4,
                               timeout_s=10.0)
    except ConfigError:
        event("rejected")
        return
    event(f"runs {len(parse_arch(arch, 3))} layers")
    assignment, test = experiment.build_dataset(cfg)
    files, rows = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for transport in ("inproc", "socket"):
            _, rows[transport], ex = experiment.run_simulation(
                replace(cfg, transport=transport), assignment.shots, test)
            path = Path(tmp) / f"{transport}.nfw"
            save_weights(path, ex.clients[0].network.topologies)
            files[transport] = path.read_bytes()
        assert files["socket"] == files["inproc"], arch
        net = build_network(load_weights(path), cfg.hidden_params(), cfg.output_params())
    final = [r for r in rows["inproc"] if r["event"] == "round"][-1]
    assert evaluate_network(net, test, cfg.dt_us) == final["accuracy"], arch


@given(clients=st.integers(1, 3), rounds=st.integers(1, 3), local_epochs=st.integers(0, 2),
       window=st.integers(2, 6), error_threshold=st.integers(0, 3),
       rate_shift=st.integers(0, 7), box_enabled=st.booleans())
@settings(max_examples=100, deadline=None)
def test_both_transports_agree_over_rounds(clients, rounds, local_epochs, window,
                                           error_threshold, rate_shift, box_enabled):
    """Over several rounds, for any rule settings, the socket simulation
    writes the in-process run's weights_global.nfw and round checksums, and
    its rows are the in-process rows without the init row and the
    accuracies, as in the stock runs."""
    cfg = ExperimentConfig(arch="8x8x2, 2a, dense8, out", width=8, height=8, classes=3,
                           clients=clients, rounds=rounds, local_epochs=local_epochs,
                           test_size=3, duration_us=120_000, window=window,
                           error_threshold=error_threshold,
                           learning_rate=Fraction(1, 2 ** rate_shift),
                           box_enabled=box_enabled, timeout_s=10.0)
    assignment, test = experiment.build_dataset(cfg)
    files, rows = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for transport in ("inproc", "socket"):
            _, rows[transport], ex = experiment.run_simulation(
                replace(cfg, transport=transport), assignment.shots, test)
            path = Path(tmp) / f"{transport}.nfw"
            save_weights(path, ex.clients[0].network.topologies)
            files[transport] = path.read_bytes()
    assert files["socket"] == files["inproc"]
    unscored = [{k: v for k, v in r.items() if k != "accuracy"}
                for r in rows["inproc"] if r["event"] != "init"]
    assert rows["socket"] == unscored
    checksums = {t: [r["checksum"] for r in rows[t] if r["event"] == "round"] for t in rows}
    assert checksums["socket"] == checksums["inproc"] and len(checksums["inproc"]) == rounds
    trained = any(r["triggered_updates"] for r in rows["socket"] if r["event"] == "train")
    event(f"trained {trained}, rounds {rounds}, distinct {len(set(checksums['inproc']))}")
