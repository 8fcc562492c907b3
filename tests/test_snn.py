"""Neuron dynamics, layer shape chaining, inference and classification."""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fedspike.quant import Rng
from fedspike.snn import (
    ACC_MAX,
    ACC_MIN,
    DenseLayer,
    LayerTopology,
    NeuronParams,
    Network,
    SpikingNeurons,
    SumPoolLayer,
    TIME_BLOCK,
    batches,
    build_network,
    classify,
    parse_arch,
)


# Scalar reference of one neuron, which the batched layers must match.

@dataclass
class NeuronState:
    current: int = 0
    voltage: int = 0
    refractory_remaining: int = 0
    spiked_last_step: bool = False


def _sat24(x: int) -> int:
    return max(ACC_MIN, min(ACC_MAX, x))


def step_neuron(state: NeuronState, params: NeuronParams, input_sum: int) -> NeuronState:
    """Advance one neuron one timestep (pure; returns the new state)."""
    i = state.current
    if params.current_decay_shift:
        i -= i >> params.current_decay_shift
    i = _sat24(i + input_sum)

    if state.refractory_remaining > 0:
        return NeuronState(i, 0, state.refractory_remaining - 1, False)

    u = state.voltage
    if params.voltage_decay_shift:
        u -= u >> params.voltage_decay_shift
    u = _sat24(u + i)
    if u >= params.threshold:
        return NeuronState(i, 0, params.refractory_steps, True)
    return NeuronState(i, u, 0, False)


def make_params(**kw):
    base = dict(current_decay_shift=0, voltage_decay_shift=0, threshold=256, refractory_steps=0)
    base.update(kw)
    return NeuronParams(**base)


class TestStepNeuron:
    def test_strong_input_spikes_and_resets(self):
        s = step_neuron(NeuronState(), make_params(), 300)
        assert s.spiked_last_step and s.voltage == 0 and s.current == 300

    def test_voltage_decay(self):
        s = step_neuron(NeuronState(voltage=100), make_params(voltage_decay_shift=2), 0)
        assert s.voltage == 75 and not s.spiked_last_step

    def test_two_step_integration(self):
        p = make_params()
        s = step_neuron(NeuronState(), p, 100)
        assert s.current == 100 and s.voltage == 100
        s = step_neuron(s, p, 100)
        assert s.current == 200 and s.spiked_last_step and s.voltage == 0

    def test_refractory_holds_voltage_at_zero(self):
        p = make_params(refractory_steps=2)
        s = step_neuron(NeuronState(), p, 300)
        assert s.spiked_last_step and s.refractory_remaining == 2
        s = step_neuron(s, p, 300)
        assert not s.spiked_last_step and s.voltage == 0 and s.refractory_remaining == 1
        s = step_neuron(s, p, 0)
        assert s.refractory_remaining == 0 and s.voltage == 0
        s = step_neuron(s, p, 0)  # out of refractory, integrates again
        assert s.voltage > 0 or s.spiked_last_step

    def test_closed_form_ramp(self):
        # No decay, constant drive c, no spikes: U(t) = c * t(t+1)/2.
        c, p = 3, make_params(threshold=10**6)
        s = NeuronState()
        for t in range(1, 11):
            s = step_neuron(s, p, c)
            assert s.current == c * t
            assert s.voltage == c * t * (t + 1) // 2

    def test_saturation_at_24_bits(self):
        p = make_params(threshold=2**23 - 1)
        s = step_neuron(NeuronState(current=ACC_MAX), p, ACC_MAX)
        assert s.current == ACC_MAX

    def test_param_validation(self):
        with pytest.raises(ValueError):
            NeuronParams(threshold=0)
        with pytest.raises(ValueError):
            NeuronParams(current_decay_shift=13)


    def test_longest_admitted_refractory_period_is_exact(self):
        # 2^32 steps, the config's bound, must act as any period longer than
        # the run: one spike, then silence (2^63 once wrapped to -2^63).
        drive = np.full((1, 40, 3), 300, dtype=np.int64)
        runs = [SpikingNeurons((3,), make_params(refractory_steps=n)).run(drive)
                for n in (10**6, 2**32)]
        assert np.array_equal(runs[0], runs[1])
        assert runs[1].sum(axis=1).tolist() == [[1, 1, 1]]


class TestVectorScalarEquivalence:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_dense_layer_matches_scalar_path(self, seed):
        rng = np.random.default_rng(seed)
        params = make_params(
            current_decay_shift=int(rng.integers(0, 4)),
            voltage_decay_shift=int(rng.integers(0, 4)),
            threshold=int(rng.integers(1, 50)),
            refractory_steps=int(rng.integers(0, 3)),
        )
        n_in, n_out, steps = 6, 4, 20
        w = 2 * rng.integers(-8, 9, size=(n_out, n_in))
        topo = LayerTopology("dense", 0, False, (1, 1, n_in), (1, 1, n_out),
                             w.astype(np.int8))
        layer = DenseLayer(topo, params)
        scalars = [NeuronState() for _ in range(n_out)]
        for _ in range(steps):
            x = rng.integers(0, 2, size=n_in)
            drives = w @ x
            spikes = layer.step(x[None, None])[0, 0]
            scalars = [step_neuron(s, params, int(d)) for s, d in zip(scalars, drives)]
            assert np.array_equal(spikes, [int(s.spiked_last_step) for s in scalars])
            assert np.array_equal(layer.voltage[0], [s.voltage for s in scalars])
            assert np.array_equal(layer.current[0], [s.current for s in scalars])

    @given(seed=st.integers(0, 2**31), batch=st.integers(2, 3), width=st.integers(1, 4),
           shifts=st.tuples(st.sampled_from([0, 12]), st.sampled_from([0, 12])),
           refractory=st.integers(0, 3),
           threshold=st.one_of(st.integers(1, 512), st.integers(1, ACC_MAX)),
           blocks=st.lists(st.tuples(st.integers(1, 40), st.sampled_from([64, 2**16, ACC_MAX])),
                           min_size=1, max_size=4))
    @example(seed=1, batch=2, width=3, shifts=(0, 0), refractory=1, threshold=ACC_MAX,
             blocks=[(40, ACC_MAX), (5, 64)])
    @example(seed=2, batch=3, width=2, shifts=(12, 0), refractory=0, threshold=300,
             blocks=[(16, 64), (1, 64)])
    @settings(max_examples=60, deadline=None)
    def test_run_matches_scalar_neurons_across_blocks(self, seed, batch, width, shifts,
                                                      refractory, threshold, blocks):
        # Blocks whose bound passes the 24-bit rails take the clamping branch;
        # drives of full 24-bit reach then saturate currents at both rails.
        params = make_params(current_decay_shift=shifts[0], voltage_decay_shift=shifts[1],
                             threshold=threshold, refractory_steps=refractory)
        rng = np.random.default_rng(seed)
        neurons = SpikingNeurons((width,), params)
        neurons.reset(batch)
        scalars = [[NeuronState() for _ in range(width)] for _ in range(batch)]
        for steps, reach in blocks:
            drives = rng.integers(-reach, reach + 1, size=(batch, steps, width))
            given_drives = drives.copy()
            i_bound = int(np.abs(neurons.current).max()) + steps * int(np.abs(drives).max())
            clamps = int(np.abs(neurons.voltage).max()) + steps * i_bound > ACC_MAX
            event("block clamps at the rails" if clamps else "block runs unclamped")
            spikes = neurons.run(drives)
            assert np.array_equal(drives, given_drives)
            expected = np.zeros_like(spikes)
            for b, row in enumerate(scalars):
                for n in range(width):
                    for t in range(steps):
                        row[n] = step_neuron(row[n], params, int(drives[b, t, n]))
                        expected[b, t, n] = row[n].spiked_last_step
                        if row[n].current in (ACC_MIN, ACC_MAX):
                            event(f"a current reaches the rail {row[n].current}")
            assert spikes.dtype == np.int8 and np.array_equal(spikes, expected)
            for name, field in (("current", "current"), ("voltage", "voltage"),
                                ("refractory", "refractory_remaining")):
                want = [[getattr(s, field) for s in row] for row in scalars]
                assert np.array_equal(getattr(neurons, name), want), name


class TestArchParsing:
    def test_gesture128_head_is_512_to_n(self):
        topos = parse_arch("gesture128", num_classes=5)
        head = topos[-1]
        assert head.kind == "dense"
        assert head.in_shape == (1, 1, 512)
        assert head.out_shape == (1, 1, 5)

    def test_gesture128_shape_chain(self):
        topos = parse_arch("gesture128", num_classes=5)
        shapes = [t.out_shape for t in topos]
        assert shapes == [
            (32, 32, 2), (32, 32, 16), (16, 16, 16), (16, 16, 32),
            (8, 8, 32), (1, 1, 512), (1, 1, 5),
        ]

    def test_desk_scale_dense_head(self):
        topos = parse_arch("16x16x2, 2a, out", num_classes=5)
        net = build_network(topos, make_params(), make_params(), rng=Rng(1))
        assert net.output_layer.in_size == 128
        assert net.output_layer.out_size == 5

    def test_pool_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            parse_arch("15x15x2, 2a, out", num_classes=3)

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture token"):
            parse_arch("16x16x2, 3b, out", num_classes=3)

    @pytest.mark.parametrize("arch,why", [
        ("32x32x2, 0a, out", "kernel of at least 1"),
        ("32x32x2, 4c0, out", "kernel of at least 1"),
        ("32x32x2, 0c3, out", "at least 1 filter"),
        ("32x32x2, dense0, out", "at least 1 unit"),
        ("32x32x2, 4c2z, out", "odd kernel"),
        ("0x32x2, out", "empty dimension"),
    ])
    def test_layers_that_cannot_exist_rejected(self, arch, why):
        with pytest.raises(ValueError, match=why):
            parse_arch(arch, num_classes=5)

    def test_missing_out_rejected(self):
        with pytest.raises(ValueError, match="'out' head"):
            parse_arch("16x16x2, 2a", num_classes=3)


class TestNetworkForward:
    def _tiny_net(self, weights):
        topo = LayerTopology("dense", 0, False, (2, 2, 1), (1, 1, weights.shape[0]),
                             weights.astype(np.int8))
        return Network([DenseLayer(topo, make_params(threshold=100))])

    def test_zero_input_zero_counts(self):
        net = self._tiny_net(np.full((3, 4), 2, dtype=np.int8))
        frames = np.zeros((10, 2, 2, 1), dtype=np.int8)
        assert np.array_equal(net.forward_window(frames), [0, 0, 0])

    def test_single_driven_class_spikes_alone(self):
        # Only neuron 1 is wired to the active pixel.
        w = np.zeros((3, 4), dtype=np.int8)
        w[1, 0] = 120
        net = self._tiny_net(w)
        frames = np.zeros((10, 2, 2, 1), dtype=np.int8)
        frames[:, 0, 0, 0] = 1
        counts = net.forward_window(frames)
        assert counts[1] > 0
        assert counts[0] == 0 and counts[2] == 0

    def test_permuting_output_neurons_permutes_counts(self):
        rng = np.random.default_rng(0)
        w = (2 * rng.integers(-10, 11, size=(4, 4))).astype(np.int8)
        frames = rng.integers(0, 2, size=(20, 2, 2, 1)).astype(np.int8)
        base = self._tiny_net(w).forward_window(frames)
        perm = np.array([2, 0, 3, 1])
        permuted = self._tiny_net(w[perm]).forward_window(frames)
        assert np.array_equal(permuted, base[perm])

    def test_frame_shape_mismatch(self):
        net = self._tiny_net(np.zeros((3, 4), dtype=np.int8))
        with pytest.raises(ValueError, match="does not match input"):
            net.forward_window(np.zeros((5, 3, 3, 1), dtype=np.int8))

    def test_forward_reproducible(self):
        rng = np.random.default_rng(5)
        frames = rng.integers(0, 2, size=(30, 8, 8, 2)).astype(np.int8)
        nets = [build_network(parse_arch("8x8x2, 2a, dense16, out", 3),
                              make_params(voltage_decay_shift=1),
                              make_params(threshold=64), rng=Rng(11))
                for _ in range(2)]
        for net in nets:
            net.output_layer.set_weights(np.full((3, 16), 4, dtype=np.int8))
        a = nets[0].forward_window(frames)
        b = nets[1].forward_window(frames)
        assert np.array_equal(a, b)

    def test_hidden_forward_matches_step_path(self):
        net = build_network(parse_arch("8x8x2, 2a, dense16, out", num_classes=3),
                            make_params(voltage_decay_shift=1),
                            make_params(threshold=64), rng=Rng(11))
        rng = np.random.default_rng(5)
        net.output_layer.set_weights(
            (2 * rng.integers(-10, 11, size=(3, 16))).astype(np.int8))
        frames = rng.integers(0, 2, size=(12, 8, 8, 2)).astype(np.int8)
        pre = net.hidden_forward(frames)
        # Feed the recorded pre-spikes through a standalone copy of the head.
        head = DenseLayer(net.output_layer.topo, net.output_layer.params)
        head_counts = np.zeros(3, dtype=np.int64)
        for t in range(frames.shape[0]):
            head_counts += head.step(pre[t][None, None])[0, 0]
        assert np.array_equal(net.forward_window(frames), head_counts)


def reference_run(net, frames):
    """One sample alone through net with scalar neurons and int64 drives.

    Returns (output counts, spike trains feeding the head).
    """
    layers = net.layers
    states = [[NeuronState() for _ in range(int(np.prod(l.topo.out_shape)))]
              for l in layers]
    counts = np.zeros(net.output_layer.out_size, dtype=np.int64)
    trains = []
    for frame in frames:
        x = frame.astype(np.int64)
        for i, layer in enumerate(layers):
            topo = layer.topo
            oh, ow, oc = topo.out_shape
            if topo.kind == "sum_pool":
                k = topo.kernel
                x = x.reshape(oh, k, ow, k, oc).sum(axis=(1, 3))
            else:
                if topo.kind == "conv":
                    k, ic = topo.kernel, topo.in_shape[2]
                    p = (k - 1) // 2 if topo.zero_pad else 0
                    w = topo.weights.astype(np.int64).reshape(oc, ic, k, k)
                    xp = np.pad(x, ((p, p), (p, p), (0, 0)))
                    drive = np.array([[np.einsum("yxi,oiyx->o", xp[h:h + k, v:v + k], w)
                                       for v in range(ow)] for h in range(oh)])
                else:
                    w = topo.weights.astype(np.int64).reshape(oc, -1)
                    drive = w @ x.reshape(-1)
                drive = np.clip(drive, ACC_MIN, ACC_MAX).reshape(-1)
                states[i] = [step_neuron(st_, layer.params, int(d))
                             for st_, d in zip(states[i], drive)]
                x = np.array([st_.spiked_last_step for st_ in states[i]],
                             dtype=np.int64).reshape(topo.out_shape)
            if i == len(layers) - 2:
                trains.append(x.reshape(-1))
        counts += x.reshape(-1)
    return counts, np.array(trains)


# Each stack's last hidden layer spikes, so hidden trains stay 0/1 even when
# large frame values saturate the drives.
BATCH_STACKS = {
    "pool": "4x4x2, 2a, dense5, out",
    "conv": "6x6x2, 3c3z, 2a, dense4, out",
    "conv_valid": "6x6x2, 3c3, out",
    "dense": "2x2x2, dense6, dense4, out",
}


class TestBatchedRun:
    @given(seed=st.integers(0, 2**31), stack=st.sampled_from(sorted(BATCH_STACKS)),
           batch=st.sampled_from([1, 3]), large=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_each_sample_alone(self, seed, stack, batch, large):
        rng = np.random.default_rng(seed)

        def params():
            return make_params(
                current_decay_shift=int(rng.integers(0, 4)),
                voltage_decay_shift=int(rng.integers(0, 4)),
                threshold=int(rng.choice([rng.integers(1, 200), ACC_MAX + 1])),
                refractory_steps=int(rng.integers(0, 4)))

        net = build_network(parse_arch(BATCH_STACKS[stack], 3), params(), params(),
                            rng=Rng(seed), hidden_init_mag=int(rng.integers(2, 127)))
        head = net.output_layer
        head.set_weights(2 * rng.integers(-64, 64, size=(head.out_size, head.in_size)))
        steps = int(rng.integers(1, 12))
        shape = (batch, steps, *net.input_shape)
        # Large signed frame values drive the 24-bit accumulators to both rails.
        frames = (rng.integers(-2**21, 2**21, size=shape) if large
                  else rng.integers(0, 2, size=shape).astype(np.int8))

        counts = net.run(frames).sum(axis=1)
        trains = net.run(frames, stop=-1)
        assert counts.shape == (batch, head.out_size)
        assert trains.shape == (batch, steps, head.in_size)
        for b in range(batch):
            want_counts, want_trains = reference_run(net, frames[b])
            assert np.array_equal(counts[b], want_counts)
            assert np.array_equal(trains[b], want_trains)
            assert np.array_equal(net.forward_window(frames[b]), want_counts)
            assert np.array_equal(net.hidden_forward(frames[b]), want_trains)
            assert np.array_equal(net.run(trains[b][None], start=-1)[0].sum(axis=0),
                                  want_counts)

    def test_batches_stack_equal_shapes_up_to_size(self):
        arrays = [np.full((2, 3), i) for i in range(5)] + [np.full((4, 3), 5)]
        got = [(b.shape, b[:, 0, 0].tolist()) for b in batches(arrays, 2)]
        assert got == [((2, 2, 3), [0, 1]), ((2, 2, 3), [2, 3]),
                       ((1, 2, 3), [4]), ((1, 4, 3), [5])]


# Stacks for block stepping: a pool, convs with and without zero padding
# and dense layers.
BLOCK_STACKS = {
    "pool": "8x8x2, 2a, dense6, out",
    "conv_z": "6x6x2, 3c3z, 2a, dense4, out",
    "conv_valid": "6x6x2, 2a, 4c2, out",
}


def block_topologies(stack):
    return parse_arch(BLOCK_STACKS[stack], 3)


def step_by_step(net, frames):
    """Output trains (B, T, out) of net with every layer's step fed one-step
    (B, 1, ...) blocks, each whole step through the stack before the next.
    """
    for layer in net.layers:
        layer.reset(len(frames))
    out = []
    for t in range(frames.shape[1]):
        x = frames[:, t:t + 1]
        for layer in net.layers:
            x = layer.step(x)
        out.append(x.reshape(len(frames), 1, -1))
    return np.concatenate(out, axis=1)


def neuron_states(net):
    return [(layer.current.copy(), layer.voltage.copy(), layer.refractory.copy())
            for layer in net.layers if not isinstance(layer, SumPoolLayer)]


def assert_blocks_match_steps(net, frames):
    got = net.run(frames)
    got_states = neuron_states(net)
    assert np.array_equal(got, step_by_step(net, frames))
    for block_state, step_state in zip(got_states, neuron_states(net)):
        for a, b in zip(block_state, step_state):
            assert np.array_equal(a, b)


class TestBlockStepping:
    @given(seed=st.integers(0, 2**31), stack=st.sampled_from(sorted(BLOCK_STACKS)),
           batch=st.integers(1, 4), steps=st.integers(1, 3 * TIME_BLOCK + 1),
           large=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_block_run_matches_one_step_blocks(self, seed, stack, batch, steps, large):
        rng = np.random.default_rng(seed)

        def params():
            return make_params(
                current_decay_shift=int(rng.integers(0, 4)),
                voltage_decay_shift=int(rng.integers(0, 4)),
                threshold=int(rng.integers(1, 200)),
                refractory_steps=int(rng.integers(0, 3)))

        net = build_network(block_topologies(stack), params(), params(), rng=Rng(seed),
                            hidden_init_mag=int(rng.integers(2, 127)))
        head = net.output_layer
        head.set_weights(2 * rng.integers(-64, 64, size=(head.out_size, head.in_size)))
        shape = (batch, steps, *net.input_shape)
        frames = (rng.integers(-2**21, 2**21, size=shape) if large
                  else rng.integers(0, 2, size=shape).astype(np.int8))
        assert_blocks_match_steps(net, frames)

    def test_block_run_matches_one_step_blocks_at_the_24_bit_clamp(self):
        # Without decay, full-scale weights of either sign drive conv currents
        # to both rails; a threshold at the rail fires only saturated voltages.
        topos = block_topologies("conv_z")
        conv = topos[0].out_shape[2], topos[0].in_shape[2], 3, 3
        signs = np.array([1, -1, 1])[:, None, None, None]
        topos[0] = replace(topos[0], weights=(126 * signs * np.ones(conv)).astype(np.int8))
        for i in (2, 3):
            shape = (topos[i].out_shape[2], int(np.prod(topos[i].in_shape)))
            topos[i] = replace(topos[i], weights=np.full(shape, 126, dtype=np.int8))
        net = build_network(topos, make_params(threshold=ACC_MAX), make_params(threshold=ACC_MAX))
        frames = np.random.default_rng(3).integers(100, 128, size=(3, 45, 6, 6, 2))
        frames = frames.astype(np.int8)
        assert_blocks_match_steps(net, frames)
        conv_layer = net.layers[0]
        assert conv_layer.current.max() == ACC_MAX and conv_layer.current.min() == ACC_MIN
        assert net.run(frames, stop=1).any()  # saturated voltages fire


class TestPoolConservation:
    @given(seed=st.integers(0, 2**31), k=st.sampled_from([2, 4]))
    @settings(max_examples=25, deadline=None)
    def test_sum_pool_conserves_events(self, seed, k):
        rng = np.random.default_rng(seed)
        h = w = 8
        topo = LayerTopology("sum_pool", k, False, (h, w, 2), (h // k, w // k, 2))
        layer = SumPoolLayer(topo)
        frame = rng.integers(0, 2, size=(h, w, 2))
        assert layer.step(frame[None, None]).sum() == frame.sum()


class TestClassify:
    @pytest.mark.parametrize(
        "counts,expected",
        [([3, 9, 1, 0, 0], 1), ([4, 4, 0, 0, 0], 0), ([0, 0, 0, 0, 0], 0)],
    )
    def test_examples(self, counts, expected):
        assert classify(np.array(counts)) == expected

    def test_requires_a_neuron(self):
        with pytest.raises(ValueError):
            classify(np.array([]))


class TestBuildNetwork:
    def test_output_layer_zero_initialized(self):
        net = build_network(parse_arch("8x8x2, 2a, out", 4),
                            make_params(), make_params(), rng=Rng(1))
        assert not net.output_layer.w.any()

    def test_hidden_weights_even_and_seeded(self):
        a = build_network(parse_arch("8x8x2, dense12, out", 4),
                          make_params(), make_params(), rng=Rng(9))
        b = build_network(parse_arch("8x8x2, dense12, out", 4),
                          make_params(), make_params(), rng=Rng(9))
        wa = a.layers[0].topo.weights
        assert np.all(wa % 2 == 0) and wa.any()
        assert np.array_equal(wa, b.layers[0].topo.weights)

    @pytest.mark.parametrize("mag", [0, 1, 2, 3, 32])
    def test_hidden_weights_stay_within_the_init_magnitude(self, mag):
        net = build_network(parse_arch("8x8x2, dense12, out", 4),
                            make_params(), make_params(), rng=Rng(9), hidden_init_mag=mag)
        w = net.layers[0].topo.weights.astype(np.int64)
        assert np.all(w % 2 == 0) and np.abs(w).max() <= mag
        assert w.any() == (mag >= 2)

    def test_chain_mismatch_rejected(self):
        topos = parse_arch("8x8x2, 2a, out", 4)
        topos[1] = LayerTopology("dense", 0, False, (9, 9, 9), (1, 1, 4))
        with pytest.raises(ValueError, match="chain"):
            build_network(topos, make_params(), make_params(), rng=Rng(1))
