"""Discrete-time spiking network with integer-exact dynamics.

Neurons are current-based leaky integrate-and-fire with shift-based decay
(decay factor 1 - 2^-k per step, shift 0 disables decay), hard reset to zero
and an optional refractory period. All accumulators saturate at 24 bits so a
run is reproducible bit-exactly for fixed inputs, weights and seed.

Layers: sum pooling (stateless, conserves spike counts), convolution and
dense, both spiking. What a layer of each kind maps its input to, and which
weights it holds, has one home: LayerTopology checks its out shape against
_out_shape, gives its weight_shape and rejects weights off the even 8-bit
grid; parse_arch, the layers, build_network and weights_io read them there.

Only the neuron state (current, voltage, refractory count) carries from one
time step to the next; pools and synaptic drives are stateless. So every
layer's step takes a block of time steps, (B, Tb, *in), and returns
(B, Tb, *out): the pool or dense drive runs once over all B * Tb frames, a
conv's drive once per sample, and SpikingNeurons.run, the one time loop,
fires the block step by step, updating the neuron state in place.
Network.run passes TIME_BLOCK steps at a time down the stack. The final
dense layer is the plastic output layer; all layers before it, the trunk,
are frozen at run time. head_counts scores K heads, one (K, out, in) weight
array, on the same inputs as one layer.

Dense and conv layers share one body, _WeightedLayer: neurons of the out
shape, driven through one float32 (fan-in, units) weight matrix by
dense_drive, as are head scoring and the lockstep trainer's windows.
dense_drive is a BLAS matmul of integers whose rows are a dense layer's
inputs or, once per sample, each output pixel's k x k conv window.

Exactness is decided once per run. Network.run scans its frames once for
their reach, the largest |value|; a k x k pool multiplies it by k * k and a
spiking layer resets it to 1. Reach x a weighted layer's gain, the largest
L1 norm of a unit's weights, bounds every partial sum of its drive, which
picks the drive's float dtype (drive_dtype). The drive saturates, and the
time loop clamps at the rails, only where stays_in_rails cannot prove the
bound keeps the state within them. The lockstep trainer, whose weights
move, bounds its heads' drives by the round's largest input x fan-in x 128.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .quant import Rng, WEIGHT_SPEC

ACC_MIN = -(1 << 23)
ACC_MAX = (1 << 23) - 1

Shape = tuple[int, int, int]


@dataclass(frozen=True)
class NeuronParams:
    current_decay_shift: int = 1
    voltage_decay_shift: int = 1
    threshold: int = 256
    refractory_steps: int = 0

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        for name in ("current_decay_shift", "voltage_decay_shift"):
            if not 0 <= getattr(self, name) <= 12:
                raise ValueError(f"{name} must be in [0, 12]")
        if self.refractory_steps < 0:
            raise ValueError("refractory_steps must be >= 0")


def _sat24(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.minimum(np.maximum(x, ACC_MIN, out=out), ACC_MAX, out=out)


def stays_in_rails(params: NeuronParams, reach: int) -> bool:
    """Whether neurons under params, started at rest, stay within the 24-bit
    rails under any drives at most D = reach in magnitude, so that no step of
    SpikingNeurons.run needs a clamp.

    With both decay shifts s_i and s_v at least 1 this holds when
    2^(s_i + s_v) * D < 2^23. A step maps the current i to i - (i >> s_i) + d,
    and i - (i >> s_i) is monotone in i, so from |i| <= 2^s_i * D it reaches
    at most (2^s_i - 1) * D + D: the current never leaves 2^s_i * D, and by
    the same step the voltage, driven by the current, never leaves
    2^(s_i + s_v) * D. A reset or a refractory hold only moves the voltage
    to 0. A shift of 0 does not decay, so a constant drive grows without
    bound and the loop must check.
    """
    s_i, s_v = params.current_decay_shift, params.voltage_decay_shift
    return s_i >= 1 and s_v >= 1 and reach << (s_i + s_v) <= ACC_MAX


def drive_dtype(bound: int) -> type:
    """The narrowest float dtype whose integer matmul is exact when bound caps
    every partial sum: below 2^24 each is an integer that float32 holds, in
    any summation order, and below 2^53 float64 does. A bound of 2^53 or more
    is a ValueError: no float dtype is exact there.
    """
    if bound >= 1 << 53:
        raise ValueError(f"drive bound {bound} reaches 2^53, past an exact float64 matmul")
    return np.float32 if bound < 1 << 24 else np.float64


def dense_drive(x: np.ndarray, w_t: np.ndarray, bound: int) -> np.ndarray:
    """int64 drive x @ w_t of integer inputs (spikes, or a pool's counts)
    through float (..., in, out) weights on the 8-bit grid, in
    drive_dtype(bound), where bound caps the largest |x| times the largest
    L1 norm of a unit's weights; saturated only where bound passes the rails."""
    dtype = drive_dtype(bound)
    drive = (x.astype(dtype) @ w_t.astype(dtype, copy=False)).astype(np.int64)
    return _sat24(drive, out=drive) if bound > ACC_MAX else drive


def _out_shape(kind: str, k: int, zero_pad: bool, in_shape: Shape, channels: int) -> Shape:
    """What a layer maps in_shape to, or a ValueError if it cannot exist: a
    k x k sum pool steps by k and keeps the channels, a conv of `channels`
    k x k filters steps by 1 (zero-padded, an odd kernel keeps the sides),
    and a dense layer has `channels` units."""
    h, w, c = in_shape
    if min(in_shape) < 1:
        raise ValueError(f"input shape {in_shape} has an empty dimension")
    if kind not in _LAYER_CLASSES:
        raise ValueError(f"unknown layer kind {kind!r}")
    if kind != "dense" and k < 1:
        raise ValueError(f"{kind} layer needs a kernel of at least 1")
    if kind == "sum_pool":
        if h % k or w % k:
            raise ValueError(f"pool {k}a does not divide {in_shape}")
        return (h // k, w // k, c)
    if channels < 1:
        raise ValueError(f"{kind} layer needs at least 1 {'unit' if kind == 'dense' else 'filter'}")
    if kind == "dense":
        return (1, 1, channels)
    if zero_pad and k % 2 == 0:
        raise ValueError(f"zero-padded conv needs an odd kernel, not {k}")
    if not zero_pad and (h < k or w < k):
        raise ValueError(f"conv kernel {k} exceeds input {in_shape}")
    return (h, w, channels) if zero_pad else (h - k + 1, w - k + 1, channels)


class OffGridError(ValueError):
    """A weight off the even 8-bit grid, rejected by LayerTopology."""


@dataclass(frozen=True)
class LayerTopology:
    """Serializable description of one layer (shape chain plus weights).

    Construction checks the out shape against _out_shape, the one layer
    rule, and stores given weights, which must fill weight_shape and lie on
    the even 8-bit grid, as int8 of weight_shape.
    """

    kind: str  # "sum_pool" | "conv" | "dense"
    kernel: int  # a pool's stride is its kernel; a conv's stride is 1
    zero_pad: bool
    in_shape: Shape
    out_shape: Shape
    weights: Optional[np.ndarray] = None  # even int8 values, None for pools

    def __post_init__(self):
        expected = _out_shape(self.kind, self.kernel, self.zero_pad, self.in_shape,
                              self.out_shape[2])
        if self.out_shape != expected:
            raise ValueError(f"{self.kind} shapes do not chain: {self.in_shape} -> "
                             f"{self.out_shape}, expected {expected}")
        if self.weights is not None:
            if self.weight_shape is None or self.weights.size != math.prod(self.weight_shape):
                raise ValueError(f"{self.kind} layer {self.in_shape} -> {self.out_shape} holds "
                                 f"{self.weight_shape or 'no'} weights, not {self.weights.size}")
            if not WEIGHT_SPEC.holds(self.weights):
                raise OffGridError(f"{self.kind} weight off the even 8-bit grid")
            object.__setattr__(self, "weights",
                               self.weights.astype(np.int8).reshape(self.weight_shape))

    @property
    def weight_shape(self) -> Optional[tuple[int, ...]]:
        """(filters, in channels, k, k) for a conv, (units, in size) for a
        dense layer, None for a pool."""
        if self.kind == "conv":
            return (self.out_shape[2], self.in_shape[2], self.kernel, self.kernel)
        if self.kind == "dense":
            return (self.out_shape[2], math.prod(self.in_shape))
        return None


def check_chain(topos: Sequence[LayerTopology]):
    for prev, nxt in zip(topos, topos[1:]):
        if math.prod(prev.out_shape) != math.prod(nxt.in_shape):
            raise ValueError(f"layer shapes do not chain: {prev.out_shape} -> {nxt.in_shape}")


class SumPoolLayer:
    """k x k sum pooling; passes spike counts through without loss."""

    def __init__(self, topo: LayerTopology):
        self.topo = topo
        self.reset()

    def plan(self, reach: int) -> int:
        """The counts' reach, k * k times the reach of the inputs."""
        return reach * self.topo.kernel ** 2

    def reset(self, batch: int = 1, reach: int = 1):
        """Count in the smallest signed dtype that holds the planned reach."""
        self._dtype = np.min_scalar_type(-1 - self.plan(reach))

    def step(self, x: np.ndarray) -> np.ndarray:
        """Pool a (B, Tb, *in) block into (B, Tb, *out) counts."""
        k = self.topo.kernel
        oh, ow, oc = self.topo.out_shape
        taps = x.reshape(-1, oh, k, ow, k, oc)
        # Adding the k*k taps one slice at a time is several times faster
        # than one sum over the two strided kernel axes.
        out = np.zeros((len(taps), oh, ow, oc), dtype=self._dtype)
        for dy in range(k):
            for dx in range(k):
                out += taps[:, :, dy, :, dx]
        return out.reshape(*x.shape[:2], oh, ow, oc)


class SpikingNeurons:
    """Integrate-and-fire state machine over a (batch, *out) array; the base of
    every spiking layer, and on its own the state of K heads stepped together.
    """

    def __init__(self, out_shape, params: NeuronParams):
        self.params = params
        self._shape = out_shape
        self.reset()

    def reset(self, batch: int = 1):
        shape = (batch, *self._shape)
        self.current = np.zeros(shape, dtype=np.int64)
        self.voltage = np.zeros(shape, dtype=np.int64)
        self.refractory = np.zeros(shape, dtype=np.int64)

    def run(self, drives: np.ndarray, clamp: bool) -> np.ndarray:
        """Fire over axis 1 of a (batch, T, *out) drive block; returns the
        int8 spikes as a (batch, T, *out) view of the time-major block that
        each step writes into. The state carries over from the previous
        block and is updated in place; drives is only read.

        clamp says whether each step clamps at the 24-bit rails. A caller
        whose drives stays_in_rails proves keep the state within them passes
        False, and the spikes are the same bits as with True.
        """
        p = self.params
        i, u, r = self.current, self.voltage, self.refractory
        spikes = np.empty((drives.shape[1], *i.shape), dtype=bool)
        shifted = np.empty_like(i)
        waiting = np.empty(i.shape, dtype=bool)
        for drive, fired in zip(drives.swapaxes(0, 1), spikes):
            if p.current_decay_shift:
                i -= np.right_shift(i, p.current_decay_shift, out=shifted)
            i += drive
            if clamp:
                _sat24(i, out=i)
            if p.voltage_decay_shift:
                u -= np.right_shift(u, p.voltage_decay_shift, out=shifted)
            u += i
            if clamp:
                _sat24(u, out=u)
            if p.refractory_steps:
                # A waiting neuron's voltage is held at zero, below the
                # positive threshold, so it cannot fire.
                np.greater(r, 0, out=waiting)
                u[waiting] = 0
                r -= waiting
            np.greater_equal(u, p.threshold, out=fired)
            u[fired] = 0
            if p.refractory_steps:
                r[fired] = p.refractory_steps
        return spikes.view(np.int8).swapaxes(0, 1)


class _WeightedLayer(SpikingNeurons):
    """Neurons of the topology's out shape, driven through its weights; the layer
    keeps the checked topology it is given, and set_weights makes a new one."""

    def __init__(self, topo: LayerTopology, params: NeuronParams):
        if topo.weights is None:
            raise ValueError(f"{topo.kind} layer requires weights")
        self._hold(topo)
        super().__init__(topo.out_shape, params)

    @property
    def w(self) -> np.ndarray:
        """The weights, of the topology's weight_shape, as int64."""
        return self.topo.weights.astype(np.int64)

    def set_weights(self, w: np.ndarray):
        self._hold(replace(self.topo, weights=w))

    def plan(self, reach: int) -> int:
        """The spikes' reach, 1; a ValueError where the inputs' reach, which
        reset takes and step trusts, puts the drive past an exact float64."""
        drive_dtype(reach * self._gain)
        return 1

    def reset(self, batch: int = 1, reach: int = 1):
        self._reach = reach
        super().reset(batch)

    def _hold(self, topo: LayerTopology):
        self.topo = topo
        w = topo.weights.reshape(topo.out_shape[2], -1)
        # The largest L1 norm of a unit's weights; times the input's reach, it
        # bounds every partial sum of the drive.
        self._gain = int(np.abs(w, dtype=np.int16).sum(axis=1, dtype=np.int64).max(initial=0))
        # (fan-in, units), in the order of a dense input or a conv window. BLAS
        # runs no int64 matmul, and float32 holds every weight exactly.
        self._w_t = w.T.astype(np.float32)


class ConvLayer(_WeightedLayer):
    def step(self, x: np.ndarray) -> np.ndarray:
        """Drive and fire a (B, Tb, *in) block; returns (B, Tb, *out) spikes.

        Each output pixel's k x k window is a row of one dense drive per
        sample, so only one sample's Tb frames of windows are copied at once."""
        p = (self.topo.kernel - 1) // 2 if self.topo.zero_pad else 0
        x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (0, 0)))
        windows = np.lib.stride_tricks.sliding_window_view(x, (self.topo.kernel,) * 2, (2, 3))
        drive = np.empty((*x.shape[:2], *self.topo.out_shape), dtype=np.int64)
        bound = self._reach * self._gain
        for sample, out in zip(windows, drive):
            out[:] = dense_drive(sample.reshape(*out.shape[:-1], -1), self._w_t, bound)
        return self.run(drive, not stays_in_rails(self.params, bound))


class DenseLayer(_WeightedLayer):
    def step(self, x: np.ndarray) -> np.ndarray:
        """Drive and fire a (B, Tb, *in) block; returns (B, Tb, *out) spikes."""
        bound = self._reach * self._gain
        drive = dense_drive(x.reshape(*x.shape[:2], -1), self._w_t, bound)
        return self.run(drive.reshape(*x.shape[:2], *self.topo.out_shape),
                        not stays_in_rails(self.params, bound))


# Time steps that Network.run passes down the stack at once. Each layer holds
# a block's drives (a dense drive copies B * TIME_BLOCK * fan-in inputs to
# float32, or to float64 past its bound, and a conv one sample's TIME_BLOCK
# frames of windows), so a longer block costs memory. At 8 the stock run
# peaks about 1% below stepping one step at a time. A 4-sample gesture128
# trunk run peaks about 4% above in RSS, with 11.9 MiB traced against 5.2.
TIME_BLOCK = 8


def head_counts(w: np.ndarray, params: NeuronParams, x: np.ndarray) -> np.ndarray:
    """Output spike counts (K, B, out) of K heads run over the same inputs.

    w is the heads' (K, out, N) weights, params their neuron parameters
    and x (B, T, N). The heads run through Network.run as one dense
    layer of K * out units. Each count equals a run of that head over that
    sample alone.
    """
    k, out, n = w.shape
    topo = LayerTopology("dense", 0, False, (1, 1, n), (1, 1, k * out), w)
    counts = Network([DenseLayer(topo, params)]).run(x).sum(axis=1)
    return counts.reshape(len(x), k, out).transpose(1, 0, 2)


_LAYER_CLASSES = {"sum_pool": SumPoolLayer, "conv": ConvLayer, "dense": DenseLayer}


class Network:
    """A stack of layers ending in the plastic dense output layer."""

    def __init__(self, layers: Sequence):
        if not layers or not isinstance(layers[-1], DenseLayer):
            raise ValueError("network must end in a dense output layer")
        self.layers = list(layers)
        self.input_shape = layers[0].topo.in_shape

    @property
    def output_layer(self) -> DenseLayer:
        return self.layers[-1]

    @property
    def topologies(self) -> list[LayerTopology]:
        return [l.topo for l in self.layers]

    def run(self, frames: np.ndarray, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Step B samples through layers[start:stop] together, TIME_BLOCK steps at a time.

        frames is (B, T, *in_shape) of layer start, or (B, T, prod(in_shape)). Each
        block passes through the whole stack before the next, and each layer's
        neurons carry their state from block to block. The forward pass draws
        nothing random, so each sample's result equals a run of that sample
        alone. Returns (B, T, prod(out_shape)): int8 spikes, or int64 after a pool or no layer.
        """
        stack = self.layers[start:stop]
        in_shape = self.layers[start].topo.in_shape
        if tuple(frames.shape[2:]) not in (in_shape, (int(np.prod(in_shape)),)):
            raise ValueError(
                f"frame shape {tuple(frames.shape[2:])} does not match input {in_shape}")
        batch, steps = frames.shape[:2]
        frames = frames.reshape(batch, steps, *in_shape)
        out_shape = stack[-1].topo.out_shape if stack else in_shape
        wide = not stack or isinstance(stack[-1], SumPoolLayer)
        out = np.empty((batch, steps, int(np.prod(out_shape))), np.int64 if wide else np.int8)
        # One scan plans every layer, and checks each bound before any resets.
        reaches = [max(int(frames.max(initial=0)), -int(frames.min(initial=0)))]
        for l in stack:
            reaches.append(l.plan(reaches[-1]))
        for l, reach in zip(stack, reaches):
            l.reset(batch, reach)
        for t in range(0, steps, TIME_BLOCK):
            x = frames[:, t:t + TIME_BLOCK]
            for l in stack:
                x = l.step(x)
            out[:, t:t + TIME_BLOCK] = x.reshape(*x.shape[:2], -1)
        return out

    def forward_window(self, frames: np.ndarray) -> np.ndarray:
        """Output spike counts of one sample's (T, *input_shape) frames."""
        return self.run(frames[None])[0].sum(axis=0)

    def hidden_forward(self, frames: np.ndarray) -> np.ndarray:
        """The trunk's (steps, pre_size) trains into the head, as run returns
        them. The trunk is frozen, so they can be cached across epochs and rounds."""
        return self.run(frames[None], stop=-1)[0]


def batches(arrays: Iterable[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """Stack runs of consecutive equal-shape arrays, at most size per stack.

    Each stack reuses one buffer: finish with it before taking the next.
    """
    buf, n = None, 0
    for a in arrays:
        if n and (n == size or a.shape != buf.shape[1:]):
            yield buf[:n]
            n = 0
        if buf is None or a.shape != buf.shape[1:]:
            buf = np.empty((size, *a.shape), dtype=a.dtype)
        buf[n] = a
        n += 1
    if n:
        yield buf[:n]


def classify(counts: np.ndarray):
    """Argmax of output spike counts over the last axis; ties break toward the lowest index."""
    if counts.shape[-1] < 1:
        raise ValueError("classify requires at least one neuron")
    return np.argmax(counts, axis=-1)


# --- architecture parsing -------------------------------------------------

_TOKEN_POOL = re.compile(r"^(\d+)a$")
_TOKEN_CONV = re.compile(r"^(\d+)c(\d+)(z?)$")
_TOKEN_DENSE = re.compile(r"^dense(\d+)$")
_TOKEN_INPUT = re.compile(r"^(\d+)x(\d+)x(\d+)$")

ARCH_PRESETS = {
    # 128x128x2 event input, frozen conv trunk, dense 512 hidden, plastic head.
    "gesture128": "128x128x2, 4a, 16c5z, 2a, 32c3z, 2a, dense512, out",
    # Small sensor variant for desk-scale experiments.
    "desk": "32x32x2, 2a, dense96, out",
}


def parse_arch(text: str, num_classes: int) -> list[LayerTopology]:
    """Parse an architecture string into a chained topology list.

    Grammar: "HxWxC, <k>a, <f>c<k>[z], dense<n>, ..., out". The trailing
    "out" is the plastic dense head with num_classes units.
    """
    text = ARCH_PRESETS.get(text.strip(), text)
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if len(tokens) < 2:
        raise ValueError(f"architecture needs an input shape and layers: {text!r}")
    m = _TOKEN_INPUT.match(tokens[0])
    if not m:
        raise ValueError(f"first token must be an input shape HxWxC, got {tokens[0]!r}")
    if tokens[-1] != "out":
        raise ValueError("architecture must end with the 'out' head token")

    shape: Shape = (int(m.group(1)), int(m.group(2)), int(m.group(3)))
    topos: list[LayerTopology] = []
    for tok in tokens[1:]:
        if tok == "out":
            kind, k, pad, channels = "dense", 0, False, num_classes
        elif m := _TOKEN_POOL.match(tok):
            kind, k, pad, channels = "sum_pool", int(m.group(1)), False, shape[2]
        elif m := _TOKEN_CONV.match(tok):
            # A 1x1 kernel pads nothing, so it is stored as unpadded.
            kind, k, channels = "conv", int(m.group(2)), int(m.group(1))
            pad = bool(m.group(3)) and k > 1
        elif m := _TOKEN_DENSE.match(tok):
            kind, k, pad, channels = "dense", 0, False, int(m.group(1))
        else:
            raise ValueError(f"unknown architecture token {tok!r}")
        topos.append(LayerTopology(kind, k, pad, shape, _out_shape(kind, k, pad, shape, channels)))
        shape = topos[-1].out_shape
    return topos


def _generate_even_weights(n: int, mag: int, rng: Rng) -> np.ndarray:
    """n uniform even integers in [-mag, mag] (mag rounded down to even), flat."""
    half = mag // 2
    return (2 * ((rng.u64(n) % np.uint64(2 * half + 1)).astype(np.int64) - half)).astype(np.int8)


def build_network(
    topos: Sequence[LayerTopology],
    hidden_params: NeuronParams,
    output_params: NeuronParams,
    rng: Optional[Rng] = None,
    hidden_init_mag: int = 16,
) -> Network:
    """Materialize a network: frozen hidden weights, zeroed plastic head.

    Topologies without weights get them filled in: hidden conv/dense layers
    draw fixed random even integers from rng (stream per layer), the output
    head starts at zero so the first error signal is maximal.
    """
    check_chain(topos)
    layers = []
    for idx, topo in enumerate(topos):
        is_output = idx == len(topos) - 1
        if topo.kind == "sum_pool":
            layers.append(SumPoolLayer(topo))
            continue
        if topo.weights is None:
            if is_output:
                w = np.zeros(topo.weight_shape, dtype=np.int8)
            else:
                if rng is None:
                    raise ValueError("hidden weights missing and no rng to generate them")
                w = _generate_even_weights(math.prod(topo.weight_shape), hidden_init_mag,
                                           rng.fork(f"hidden/{idx}"))
            topo = replace(topo, weights=w)
        params = output_params if is_output else hidden_params
        layers.append(_LAYER_CLASSES[topo.kind](topo, params))
    return Network(layers)
