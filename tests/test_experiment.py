"""The frozen-trunk cache and the full-network score against the frame path.

cache_spikes and evaluate_network bin events straight into the first sum
pool's counts when the network starts with one. Either way they must equal
stepping each sample's binary frames, bin_events(sample, dt), through the
whole stack alone.
"""

import numpy as np
import pytest

from fedspike import experiment
from fedspike.data import EVENT_DTYPE, GestureSample, bin_events, generate_synthetic
from fedspike.experiment import BATCH, cache_spikes, evaluate_network
from fedspike.quant import Rng
from fedspike.snn import NeuronParams, build_network, classify, parse_arch

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
        -30, 31, size=(head.out_size, head.in_size))).astype(np.int8))
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


@pytest.mark.parametrize("arch", sorted(ARCHS))
@pytest.mark.parametrize("width", [23, 25, 48])
def test_mismatched_sensor_is_a_named_error(arch, width):
    net = make_network(ARCHS[arch])
    sample = generate_synthetic(0, 3, width=width, height=24, duration_us=100_000)
    message = rf"frame shape \(24, {width}, 2\) does not match input \(24, 24, 2\)"
    with pytest.raises(ValueError, match=message):
        cache_spikes(net, [sample], DT_US)
    with pytest.raises(ValueError, match=message):
        evaluate_network(net, [sample], DT_US)
