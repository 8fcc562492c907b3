"""Neuron dynamics, layer shape chaining, inference and classification."""

from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fedspike import snn
from fedspike.config import ConfigError, ExperimentConfig
from fedspike.quant import Rng
from fedspike.snn import (
    ACC_MAX,
    ACC_MIN,
    ConvLayer,
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
    dense_drive,
    drive_dtype,
    parse_arch,
    stays_in_rails,
)
from reference import conv_drive


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
        runs = [SpikingNeurons((3,), make_params(refractory_steps=n)).run(drive, clamp=True)
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
            spikes = layer.step(x[None, None]).ravel()
            scalars = [step_neuron(s, params, int(d)) for s, d in zip(scalars, drives)]
            assert np.array_equal(spikes, [int(s.spiked_last_step) for s in scalars])
            assert np.array_equal(layer.voltage.ravel(), [s.voltage for s in scalars])
            assert np.array_equal(layer.current.ravel(), [s.current for s in scalars])

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
        # A loop that clamps every step is the scalar neurons' loop; drives of
        # full 24-bit reach saturate currents at both rails.
        params = make_params(current_decay_shift=shifts[0], voltage_decay_shift=shifts[1],
                             threshold=threshold, refractory_steps=refractory)
        rng = np.random.default_rng(seed)
        neurons = SpikingNeurons((width,), params)
        neurons.reset(batch)
        scalars = [[NeuronState() for _ in range(width)] for _ in range(batch)]
        for steps, reach in blocks:
            drives = rng.integers(-reach, reach + 1, size=(batch, steps, width))
            given_drives = drives.copy()
            spikes = neurons.run(drives, clamp=True)
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


# Every pair of decay shifts stays_in_rails can prove, with the largest drive
# it admits there: 2^(s_i + s_v) * D < 2^23.
PROVEN_SHIFTS = [(s_i, s_v) for s_i in range(1, 13) for s_v in range(1, 13)]


def rail_reach(s_i: int, s_v: int) -> int:
    return ACC_MAX >> (s_i + s_v)


def run_clamped_and_free(params: NeuronParams, drives: np.ndarray, reach: int):
    """Step (B, T, n) drives one step at a time through a clamped and a
    clamp-free SpikingNeurons; both must agree at every step, and the
    clamp-free state must stay within the proven bounds."""
    s_i, s_v = params.current_decay_shift, params.voltage_decay_shift
    clamped, free = (SpikingNeurons(drives.shape[2:], params) for _ in range(2))
    clamped.reset(len(drives))
    free.reset(len(drives))
    for t in range(drives.shape[1]):
        step = drives[:, t:t + 1]
        assert np.array_equal(clamped.run(step, clamp=True), free.run(step, clamp=False))
        for name in ("current", "voltage", "refractory"):
            assert np.array_equal(getattr(clamped, name), getattr(free, name)), (name, t)
        assert np.abs(free.current).max() <= reach << s_i
        assert np.abs(free.voltage).max() <= reach << (s_i + s_v)
    return free


class TestStaysInRails:
    """stays_in_rails: with both decay shifts at least 1, drives at most D in
    magnitude keep |current| <= 2^s_i * D and |voltage| <= 2^(s_i + s_v) * D,
    so below the rails the loop may run unclamped."""

    def test_drives_at_the_bound_for_every_pair_of_shifts(self):
        steps = 96
        for s_i, s_v in PROVEN_SHIFTS:
            d = rail_reach(s_i, s_v)
            assert stays_in_rails(make_params(current_decay_shift=s_i, voltage_decay_shift=s_v), d)
            t = np.arange(steps)
            # Constant +D and -D, alternating every step, and alternating in
            # runs of 2^s_i steps, long enough for the current to build.
            drives = d * np.stack([np.ones(steps), -np.ones(steps), (-1) ** t,
                                   (-1) ** (t >> s_i)]).astype(np.int64)
            # Neurons that fire only at the rail, and neurons that reset often.
            for threshold, refractory in ((ACC_MAX, 0), (max(d, 1), 2)):
                params = make_params(current_decay_shift=s_i, voltage_decay_shift=s_v,
                                     threshold=threshold, refractory_steps=refractory)
                run_clamped_and_free(params, np.stack([drives, drives], axis=-1), d)

    def test_a_constant_drive_reaches_the_bound(self):
        # The bound is tight: at s_i = s_v = 1 a constant D settles at a
        # current of 2D and a voltage of 4D.
        d = rail_reach(1, 1)
        params = make_params(current_decay_shift=1, voltage_decay_shift=1, threshold=ACC_MAX)
        free = run_clamped_and_free(params, np.full((1, 64, 1), d), d)
        assert free.current.item() == 2 * d and free.voltage.item() == 4 * d == ACC_MAX - 3

    @given(shifts=st.sampled_from(PROVEN_SHIFTS), data=st.data(),
           threshold=st.one_of(st.integers(1, 512), st.integers(1, ACC_MAX)),
           refractory=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_drawn_drives_stay_within_the_bound(self, shifts, data, threshold, refractory):
        d = rail_reach(*shifts)
        drive = st.one_of(st.sampled_from([-d, d]), st.integers(-d, d))
        drives = data.draw(st.lists(st.lists(drive, min_size=2, max_size=2),
                                    min_size=1, max_size=80))
        params = make_params(current_decay_shift=shifts[0], voltage_decay_shift=shifts[1],
                             threshold=threshold, refractory_steps=refractory)
        run_clamped_and_free(params, np.array(drives, dtype=np.int64)[None], d)

    @pytest.mark.parametrize("s_i, s_v", [(0, 1), (1, 0), (0, 0), (0, 12), (12, 0)])
    def test_a_shift_of_0_is_never_proven(self, s_i, s_v):
        # Without decay a constant drive of 1 grows without bound.
        assert not stays_in_rails(make_params(current_decay_shift=s_i, voltage_decay_shift=s_v), 1)

    def test_a_bound_at_the_rails_is_not_proven(self):
        for s_i, s_v in PROVEN_SHIFTS:
            params = make_params(current_decay_shift=s_i, voltage_decay_shift=s_v)
            d = rail_reach(s_i, s_v)
            assert stays_in_rails(params, d) and not stays_in_rails(params, d + 1)
            assert (d + 1) << (s_i + s_v) > ACC_MAX
        assert not stays_in_rails(make_params(current_decay_shift=6, voltage_decay_shift=7),
                                  1 << 10)


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
        assert net.output_layer.topo.weight_shape == (5, 128)

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
            head_counts += head.step(pre[t][None, None]).ravel()
        assert np.array_equal(net.forward_window(frames), head_counts)


def reference_run(net, frames):
    """One sample alone through net with scalar neurons and int64 drives,
    clamped at the 24-bit rails on every step.

    Returns the (T, out) output trains, the spike trains feeding the head,
    and the indices of the layers whose drive, current or voltage touched a
    rail.
    """
    layers = net.layers
    states = [[NeuronState() for _ in range(int(np.prod(l.topo.out_shape)))]
              for l in layers]
    outputs, trains, touched = [], [], set()
    for frame in frames:
        x = frame.astype(np.int64)
        for i, layer in enumerate(layers):
            if layer is net.output_layer:
                trains.append(x.reshape(-1))
            topo = layer.topo
            oh, ow, oc = topo.out_shape
            if topo.kind == "sum_pool":
                k = topo.kernel
                x = x.reshape(oh, k, ow, k, oc).sum(axis=(1, 3))
            else:
                if topo.kind == "conv":
                    drive = conv_drive(x[None], topo.weights, topo.zero_pad)
                else:
                    w = topo.weights.astype(np.int64).reshape(oc, -1)
                    drive = np.clip(w @ x.reshape(-1), ACC_MIN, ACC_MAX)
                drive = drive.reshape(-1)
                states[i] = [step_neuron(st_, layer.params, int(d))
                             for st_, d in zip(states[i], drive)]
                values = [*drive.tolist(), *(v for st_ in states[i]
                                             for v in (st_.current, st_.voltage))]
                if ACC_MIN in values or ACC_MAX in values:
                    touched.add(i)
                x = np.array([st_.spiked_last_step for st_ in states[i]],
                             dtype=np.int64).reshape(topo.out_shape)
        outputs.append(x.reshape(-1))
    return np.array(outputs), np.array(trains), touched


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
        head.set_weights(2 * rng.integers(-64, 64, size=head.topo.weight_shape))
        steps = int(rng.integers(1, 12))
        shape = (batch, steps, *net.input_shape)
        # Large signed frame values drive the 24-bit accumulators to both rails.
        frames = (rng.integers(-2**21, 2**21, size=shape) if large
                  else rng.integers(0, 2, size=shape).astype(np.int8))

        counts = net.run(frames).sum(axis=1)
        trains = net.run(frames, stop=-1)
        assert counts.shape == (batch, head.topo.out_shape[2])
        assert trains.shape == (batch, steps, head.topo.weight_shape[1])
        for b in range(batch):
            want_out, want_trains, _ = reference_run(net, frames[b])
            want_counts = want_out.sum(axis=0)
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


CONV_TOKENS = st.builds(lambda f, k, z: f"{f}c{k}{'z' * z}", st.integers(1, 3),
                        st.integers(1, 4), st.booleans())
LAYER_TOKENS = st.one_of(st.integers(1, 3).map(lambda k: f"{k}a"), CONV_TOKENS, CONV_TOKENS,
                         st.integers(1, 8).map(lambda n: f"dense{n}"))


class TestExactnessPlan:
    """Network.run plans each layer once from one scan of its frames: a pool
    multiplies the reach by k * k, a spiking layer resets it to 1, and a
    weighted layer's bound is the reach times its largest unit L1 norm.
    stays_in_rails on that bound decides whether the layer clamps."""

    @given(side=st.integers(2, 6), layers=st.lists(LAYER_TOKENS, min_size=1, max_size=3),
           seed=st.integers(0, 2**31), reach=st.sampled_from([1, 3, 2**10, 2**21]),
           signed=st.booleans(), mag=st.sampled_from([2, 16, 128]), rails=st.booleans(),
           batch=st.integers(1, 2), steps=st.integers(1, 2 * TIME_BLOCK + 1))
    @example(side=4, layers=["2a", "dense4"], seed=0, reach=1, signed=False, mag=16,
             rails=False, batch=1, steps=9)
    @example(side=3, layers=["2c3z"], seed=1, reach=2**21, signed=True, mag=128, rails=True,
             batch=2, steps=3)
    @example(side=2, layers=[], seed=2, reach=2**21, signed=True, mag=128, rails=True,
             batch=2, steps=TIME_BLOCK + 1)
    @settings(max_examples=120, deadline=None)
    def test_run_equals_the_clamped_reference(self, side, layers, seed, reach, signed, mag,
                                              rails, batch, steps):
        arch = ", ".join([f"{side}x{side}x2", *layers, "out"])
        try:
            ExperimentConfig(arch=arch, width=side, height=side, classes=3)
        except ConfigError:
            event("rejected")
            return
        rng = np.random.default_rng(seed)

        def params():
            return make_params(current_decay_shift=int(rng.integers(0, 5)),
                               voltage_decay_shift=int(rng.integers(0, 5)),
                               threshold=int(rng.choice([rng.integers(1, 200), ACC_MAX])),
                               refractory_steps=int(rng.integers(0, 4)))

        topos = parse_arch(arch, 3)
        for i, topo in enumerate(topos):
            if topo.weight_shape:
                w = 2 * np.clip(rng.integers(-(mag // 2), mag // 2 + 1, topo.weight_shape),
                                -64, 63)
                if rails:
                    w = np.where(rng.random(w.shape) < 0.2,
                                 rng.choice([-128, 126], w.shape), w)
                topos[i] = replace(topo, weights=w)
        net = build_network(topos, params(), params())
        frames = rng.integers(-reach if signed else 0, reach + 1,
                              size=(batch, steps, side, side, 2))
        # The plan, derived here from the rule: each weighted layer's bound,
        # and whether stays_in_rails proves it.
        bounds, proven, r = set(), {}, int(np.abs(frames).max())
        for i, layer in enumerate(net.layers):
            if isinstance(layer, SumPoolLayer):
                r *= layer.topo.kernel ** 2
            else:
                bounds.add(r * gain(layer.topo.weights))
                proven[i] = stays_in_rails(layer.params, r * gain(layer.topo.weights))
                event(f"{'proven' if proven[i] else 'clamped'} {layer.topo.kind} layer")
                r = 1
        # The run must follow it: every drive under its layer's bound, and
        # every loop clamping exactly where the bound is not proven.
        clamps, drive_bounds = {}, set()
        run, drive = SpikingNeurons.run, snn.dense_drive

        def spied_run(neurons, drives, clamp):
            clamps.setdefault(net.layers.index(neurons), set()).add(clamp)
            return run(neurons, drives, clamp)

        def spied_drive(x, w_t, bound):
            drive_bounds.add(bound)
            return drive(x, w_t, bound)
        with mock.patch.object(SpikingNeurons, "run", spied_run), \
                mock.patch.object(snn, "dense_drive", spied_drive):
            got = net.run(frames)
        assert clamps == {i: {not p} for i, p in proven.items()}
        assert drive_bounds == bounds
        trains = net.run(frames, stop=-1)
        for b in range(batch):
            want_out, want_trains, touched = reference_run(net, frames[b])
            assert np.array_equal(got[b], want_out) and np.array_equal(trains[b], want_trains)
            if touched:
                event("a clamped layer touches a rail")
            assert not any(proven[i] for i in touched)


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
    Each layer is reset for the reach Network.run would plan for it.
    """
    reach = int(np.abs(frames.astype(np.int64)).max(initial=0))
    for layer in net.layers:
        layer.reset(len(frames), reach)
        reach = layer.plan(reach)
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
        head.set_weights(2 * rng.integers(-64, 64, size=head.topo.weight_shape))
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


class TestPoolDtype:
    """A pool counts in the smallest signed dtype that holds k * k times the
    reach it is reset for; its counts are the int64 sum's."""

    @given(seed=st.integers(0, 2**31), k=st.sampled_from([1, 2, 3, 4, 12]),
           peak=st.sampled_from([0, 1, 7, 8, 127, 300]))
    @settings(max_examples=60, deadline=None)
    def test_counts_are_the_int64_sum(self, seed, k, peak):
        rng = np.random.default_rng(seed)
        h = w = 2 * k
        topo = LayerTopology("sum_pool", k, False, (h, w, 2), (2, 2, 2))
        x = rng.integers(0, peak + 1, size=(2, 3, h, w, 2))
        x = x.astype(np.min_scalar_type(-1 - peak))
        layer = SumPoolLayer(topo)
        assert layer.plan(peak) == k * k * peak
        layer.reset(2, peak)
        got = layer.step(x)
        want = x.astype(np.int64).reshape(2, 3, 2, k, 2, k, 2).sum(axis=(3, 5))
        assert got.dtype == np.min_scalar_type(-1 - k * k * peak)
        assert np.array_equal(got, want)

    def test_gesture128_conv32c3z_gets_int8_windows(self):
        # The 2 x 2 pool before conv32c3z counts at most 4 spikes, so its
        # 144-wide windows copy int8, an eighth of the int64 bytes.
        net = build_network(parse_arch("gesture128", 3), NeuronParams(), NeuronParams(),
                            rng=Rng(3))
        widths = {}

        def spied(x, w_t, bound):
            widths.setdefault(w_t.shape[0], set()).add(x.dtype)
            return dense_drive(x, w_t, bound)
        frames = np.random.default_rng(0).random((1, 2, 128, 128, 2)) < 0.3
        with mock.patch.object(snn, "dense_drive", spied):
            out = net.run(frames.astype(np.int8), stop=-1)
        assert widths[144] == {np.dtype(np.int8)}
        assert widths[50] == {np.dtype(np.int8)}
        assert out.dtype == np.int8 and out.any()
        # Network.run still returns a trailing pool's counts as int64.
        assert net.run(frames.astype(np.int8), stop=1).dtype == np.int64


def picked_dtypes():
    """A patch of snn.drive_dtype that records each dtype it picks."""
    picked = []

    def recorded(bound):
        picked.append(drive_dtype(bound))
        return picked[-1]
    return mock.patch.object(snn, "drive_dtype", recorded), picked


# Weights on the even grid, both rails drawn often.
GRID_WEIGHTS = st.sampled_from([-128, 126]) | st.integers(-64, 63).map(lambda v: 2 * v)


def gain(w: np.ndarray) -> int:
    """The largest L1 norm of a unit's weights, (units, ...) w."""
    return int(np.abs(w.astype(np.int64)).reshape(len(w), -1).sum(axis=1).max(initial=0))


class TestDenseDrive:
    """dense_drive runs in float32 below a bound of 2^24 and in float64 above
    it, and equals the saturated int64 product either way."""

    @given(data=st.data(), fan_in=st.integers(1, 48), out=st.integers(1, 3),
           lead=st.sampled_from([(1, 1), (2, 3)]), side=st.sampled_from([-1, 0, 1, 2, 64]),
           sign=st.sampled_from([1, -1]))
    @settings(max_examples=80, deadline=None)
    @example(data=None, fan_in=1, out=1, lead=(1, 1), side=0, sign=1)
    @example(data=None, fan_in=48, out=2, lead=(2, 3), side=1, sign=-1)
    @example(data=None, fan_in=7, out=3, lead=(2, 3), side=64, sign=1)
    def test_matches_the_int64_product_on_both_sides_of_the_bound(self, data, fan_in, out,
                                                                   lead, side, sign):
        gen = np.random.default_rng(fan_in * 1000 + out)
        if data is None:  # explicit example: every weight on a rail, inputs at reach
            w = np.where(gen.random((out, fan_in)) < 0.5, -128, 126)
        else:
            w = np.array(data.draw(st.lists(GRID_WEIGHTS, min_size=out * fan_in,
                                            max_size=out * fan_in))).reshape(out, fan_in)
        # reach is the largest |input|: the bound's edge, just past it, or
        # (side 64) far past it, where float32 would drop low bits.
        edge = ((1 << 24) - 1) // max(gain(w), 1)
        reach = max(1, edge + side if side < 64 else side * edge + 1)
        if data is None:
            x = np.full((*lead, fan_in), sign * reach)
        else:
            x = gen.integers(-reach, reach + 1, size=(*lead, fan_in))
            x.flat[data.draw(st.integers(0, x.size - 1))] = sign * reach
        bound = reach * gain(w)
        patch, picked = picked_dtypes()
        with patch:
            got = dense_drive(x, w.T.astype(np.float32), bound)
        assert picked == [np.float32 if bound < 1 << 24 else np.float64]
        want = np.clip(x.astype(np.int64) @ w.T.astype(np.int64), ACC_MIN, ACC_MAX)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_float64_from_a_bound_of_2_24(self):
        # Eight -128 weights have gain 2^10, so a reach of 2^14 is a bound of
        # exactly 2^24, the first that float32 does not take.
        assert drive_dtype((1 << 24) - 1) is np.float32 and drive_dtype(1 << 24) is np.float64
        assert drive_dtype((1 << 53) - 1) is np.float64
        topo = LayerTopology("dense", 0, False, (1, 1, 8), (1, 1, 1), np.full((1, 8), -128))
        net = Network([DenseLayer(topo, make_params(threshold=ACC_MAX))])
        for reach, dtype in (((1 << 14) - 1, np.float32), (1 << 14, np.float64)):
            x = np.array([reach, -reach, reach - 1, 1 - reach, reach, 0, 0, 0])
            patch, picked = picked_dtypes()
            with patch:
                net.run(x.reshape(1, 1, 8))
            assert set(picked) == {dtype}
            assert net.output_layer.current.item() == -128 * int(x.sum()) == -128 * reach

    @given(seed=st.integers(0, 2**31), k=st.sampled_from([2, 4, 8]),
           rail=st.sampled_from([-128, 126, None]))
    @settings(max_examples=30, deadline=None)
    def test_pool_fed_head_reads_the_counts(self, seed, k, rail):
        # A head behind a sum pool is driven by counts up to k * k, not 0/1.
        net = build_network(parse_arch(f"16x16x2, {k}a, out", 3), make_params(),
                            make_params(threshold=200))
        head = net.output_layer
        gen = np.random.default_rng(seed)
        w = (np.full(head.topo.weight_shape, rail) if rail is not None
             else 2 * gen.integers(-64, 64, size=head.topo.weight_shape))
        head.set_weights(w)
        frames = gen.integers(0, 2, size=(2, TIME_BLOCK, 16, 16, 2))
        counts = net.layers[0].step(frames).reshape(2, TIME_BLOCK, -1)
        patch, picked = picked_dtypes()
        with patch:
            got = net.run(frames)
        # The pool passes on k * k times the frames' reach of 1.
        assert set(picked) == {drive_dtype(k * k * gain(w))} and int(counts.max()) > 1
        ref = SpikingNeurons((3,), head.params)
        ref.reset(2)
        want = ref.run(np.clip(counts @ w.T.astype(np.int64), ACC_MIN, ACC_MAX), clamp=True)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("arch", ["1x1x8, out", "2x2x2, 1c2, out"])
    def test_a_drive_bound_of_2_53_is_a_value_error(self, arch):
        # Both first layers have fan-in 8, and eight -128 weights a gain of
        # 2^10. Just below the bound float64 is exact: products near 2^50
        # cancel to 3 x -128, where float32 would give 0.
        topos = parse_arch(arch, 1)
        topos[0] = replace(topos[0], weights=np.full(topos[0].weight_shape, -128, np.int8))
        net = build_network(topos, make_params(), make_params())
        layer = net.layers[0]
        edge = (1 << 53) // (8 * 128)
        x = np.array([1, -1] * 3 + [0, 0]) * (edge - 1) + np.array([0, 1] * 3 + [0, 0])
        net.run(x.reshape(1, 1, *layer.topo.in_shape))
        assert layer.current.ravel().tolist() == [3 * -128]
        before = neuron_states(net)
        x[0] = edge
        with pytest.raises(ValueError, match=r"bound 9007199254740992 reaches 2\^53"):
            net.run(x.reshape(1, 1, *layer.topo.in_shape))
        # Rejected before any layer's neurons changed.
        for got, want in zip(neuron_states(net), before):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_a_layer_behind_neurons_rejects_before_the_trunk_resets(self):
        # A bound past 2^53 behind a spiking layer takes a network too large
        # to build here, so the head's gain is set past it. The trunk ahead
        # of the head keeps the state of the last run, at its batch of 1.
        net = build_network(parse_arch("1x1x8, dense4, out", 1),
                            make_params(threshold=ACC_MAX), make_params(), rng=Rng(5))
        x = np.ones((1, 3, 1, 1, 8), dtype=np.int8)
        net.run(x)
        before = neuron_states(net)
        assert np.any(before[0][0])
        net.output_layer._gain = 1 << 53
        with pytest.raises(ValueError, match=r"bound 9007199254740992 reaches 2\^53"):
            net.run(np.concatenate([x, x]))
        for got, want in zip(neuron_states(net), before):
            for a, b in zip(got, want):
                assert a.shape == b.shape and np.array_equal(a, b)


class TestConvDrive:
    """ConvLayer.step runs each window through dense_drive; its spikes and
    neuron state equal those driven by the per-tap int64 reference."""

    @given(data=st.data(), k=st.integers(1, 4), pad=st.booleans(), channels=st.integers(1, 4),
           filters=st.integers(1, 3), batch=st.integers(0, 3), steps=st.integers(1, TIME_BLOCK),
           large=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_step_matches_the_per_tap_reference(self, data, k, pad, channels, filters, batch,
                                                steps, large):
        pad = pad and k % 2 == 1  # a zero-padded conv has an odd kernel
        h, w = data.draw(st.integers(k, 6)), data.draw(st.integers(k, 6))
        topo = parse_arch(f"{h}x{w}x{channels}, {filters}c{k}{'z' * pad}, out", 2)[0]
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        # Large inputs meet full-scale weights of both signs, so drives pass
        # float32's bound and saturate at both 24-bit rails.
        weights = (rng.choice([-128, 126], size=topo.weight_shape) if large
                   else 2 * rng.integers(-64, 64, size=topo.weight_shape))
        params = make_params(current_decay_shift=int(rng.integers(0, 4)),
                             voltage_decay_shift=int(rng.integers(0, 4)),
                             threshold=int(rng.integers(1, 200)),
                             refractory_steps=int(rng.integers(0, 3)))
        topo = replace(topo, weights=weights.astype(np.int8))
        layer = ConvLayer(topo, params)
        ref = SpikingNeurons(topo.out_shape, params)
        layer.reset(batch, 2**21 if large else 1)
        ref.reset(batch)
        for _ in range(2):  # the second block starts from the first's state
            shape = (batch, steps, h, w, channels)
            x = (rng.integers(-2**21, 2**21, size=shape) if large
                 else rng.integers(0, 2, size=shape).astype(np.int8))
            drive = conv_drive(x.reshape(-1, h, w, channels), topo.weights, topo.zero_pad)
            if drive.size and drive.min() == ACC_MIN and drive.max() == ACC_MAX:
                event("drives reach both rails")
            got = layer.step(x)
            assert got.shape == (batch, steps, *topo.out_shape)
            assert np.array_equal(got, ref.run(drive.reshape(got.shape), clamp=True))
            for name in ("current", "voltage", "refractory"):
                assert np.array_equal(getattr(layer, name), getattr(ref, name)), name


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

    @pytest.mark.parametrize("layer_class, topo", [
        (DenseLayer, LayerTopology("dense", 0, False, (2, 2, 2), (1, 1, 3),
                                   np.full((3, 8), -6, dtype=np.int8))),
        (ConvLayer, LayerTopology("conv", 3, True, (4, 4, 2), (4, 4, 5),
                                  np.full((5, 2, 3, 3), 4, dtype=np.int8)))])
    def test_a_layer_keeps_the_topology_it_is_built_from(self, layer_class, topo):
        # LayerTopology checked the weights; the layer does not rebuild it.
        layer = layer_class(topo, make_params())
        assert layer.topo is topo
        assert np.array_equal(layer.w, topo.weights)
        layer.set_weights(-topo.weights)
        assert layer.topo is not topo and np.array_equal(layer.w, -topo.weights)
