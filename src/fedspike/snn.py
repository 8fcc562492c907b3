"""Discrete-time spiking network with integer-exact dynamics.

Neurons are current-based leaky integrate-and-fire with shift-based decay
(decay factor 1 - 2^-k per step, shift 0 disables decay), hard reset to zero
and an optional refractory period. All accumulators saturate at 24 bits so a
run is reproducible bit-exactly for fixed inputs, weights and seed.

Layers: sum pooling (stateless, conserves spike counts), convolution and
dense, both spiking. Only the neuron state (current, voltage, refractory
count) carries from one time step to the next; pools and synaptic drives
are stateless. So every layer's step takes a block of time steps,
(B, Tb, *in), and returns (B, Tb, *out): the pool or drive runs once over
all B * Tb frames, and SpikingNeurons.run, the one time loop, fires the
block step by step. Network.run passes TIME_BLOCK steps at a time down the
stack. The final dense layer is the plastic output layer; all layers before
it are frozen at run time. head_counts scores the output layers of several
clients, which differ only in their weights, on the same inputs as one
layer.
"""

from __future__ import annotations

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


def _sat24(x: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, ACC_MIN), ACC_MAX)


def dense_drive(x: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """Saturated int64 drive x @ w_t of 0/1 or count inputs through float64
    (..., in, out) weights; float64 sums of these integers are exact below 2^53.
    """
    return _sat24((x @ w_t).astype(np.int64))


@dataclass
class LayerTopology:
    """Serializable description of one layer (shape chain plus weights)."""

    kind: str  # "sum_pool" | "conv" | "dense"
    kernel: int
    stride: int
    zero_pad: bool
    in_shape: Shape
    out_shape: Shape
    weights: Optional[np.ndarray] = None  # even int8 values, None for pools


def _check_even(weights: np.ndarray):
    if weights.size and np.any(weights % 2 != 0):
        raise ValueError("odd weight value on the even 8-bit grid")
    if weights.size and (weights.min() < WEIGHT_SPEC.lo or weights.max() > WEIGHT_SPEC.hi):
        raise ValueError("weight outside even 8-bit range")


class SumPoolLayer:
    """k x k sum pooling; passes spike counts through without loss."""

    def __init__(self, topo: LayerTopology):
        self.topo = topo
        ih, iw, ic = topo.in_shape
        oh, ow, oc = topo.out_shape
        k = topo.kernel
        if ic != oc or ih != oh * k or iw != ow * k:
            raise ValueError(f"pool shapes do not chain: {topo.in_shape} -{k}a-> {topo.out_shape}")

    def reset(self, batch: int = 1):
        pass

    def step(self, x: np.ndarray) -> np.ndarray:
        """Pool a (B, Tb, *in) block into (B, Tb, *out) counts."""
        k = self.topo.kernel
        oh, ow, oc = self.topo.out_shape
        taps = x.reshape(-1, oh, k, ow, k, oc)
        # Adding the k*k taps one slice at a time is several times faster
        # than one sum over the two strided kernel axes.
        out = np.zeros((len(taps), oh, ow, oc), dtype=np.int64)
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

    def run(self, drives: np.ndarray) -> np.ndarray:
        """Fire over axis 1 of a (batch, T, *out) drive block; returns the
        int8 spikes. The state carries over from the previous block.
        """
        spikes = np.empty(drives.shape, dtype=np.int8)
        for t in range(drives.shape[1]):
            spikes[:, t] = self.fire(drives[:, t])
        return spikes

    def fire(self, drive: np.ndarray) -> np.ndarray:
        """Advance the neurons one step under drive (batch, *out); returns
        the spikes as booleans.
        """
        p = self.params
        i = self.current
        if p.current_decay_shift:
            i = i - (i >> p.current_decay_shift)
        i = _sat24(i + drive)
        self.current = i

        u = self.voltage
        if p.voltage_decay_shift:
            u = u - (u >> p.voltage_decay_shift)
        u = _sat24(u + i)
        if p.refractory_steps:
            in_refractory = self.refractory > 0
            u = np.where(in_refractory, 0, u)
            spikes = (u >= p.threshold) & ~in_refractory
            self.refractory = np.where(
                spikes, p.refractory_steps, np.maximum(self.refractory - 1, 0)
            )
        else:
            # Without a refractory period the refractory counters stay zero.
            spikes = u >= p.threshold
        self.voltage = np.where(spikes, 0, u)
        return spikes


class ConvLayer(SpikingNeurons):
    def __init__(self, topo: LayerTopology, params: NeuronParams):
        if topo.weights is None:
            raise ValueError("conv layer requires weights")
        _check_even(topo.weights)
        self.topo = topo
        ih, iw, ic = topo.in_shape
        oh, ow, oc = topo.out_shape
        k, s = topo.kernel, topo.stride
        self.w = topo.weights.astype(np.int64).reshape(oc, ic, k, k)
        pad = (k - 1) // 2 if topo.zero_pad else 0
        if topo.zero_pad and k % 2 == 0:
            raise ValueError("zero-padded conv requires an odd kernel")
        self._pad = pad
        if oh != (ih + 2 * pad - k) // s + 1 or ow != (iw + 2 * pad - k) // s + 1:
            raise ValueError(f"conv shapes do not chain: {topo.in_shape} -> {topo.out_shape}")
        super().__init__((oh, ow, oc), params)

    def step(self, x: np.ndarray) -> np.ndarray:
        """Drive and fire a (B, Tb, *in) block; returns (B, Tb, *out) spikes."""
        k, s = self.topo.kernel, self.topo.stride
        oh, ow, oc = self.topo.out_shape
        frames = x.reshape(-1, *self.topo.in_shape)
        if self._pad:
            frames = np.pad(frames, ((0, 0), (self._pad,) * 2, (self._pad,) * 2, (0, 0)))
        drive = np.zeros((len(frames), oh, ow, oc), dtype=np.int64)
        for dy in range(k):
            for dx in range(k):
                window = frames[:, dy : dy + oh * s : s, dx : dx + ow * s : s, :]
                drive += np.einsum("bhwi,oi->bhwo", window, self.w[:, :, dy, dx])
        return self.run(_sat24(drive).reshape(*x.shape[:2], oh, ow, oc))


class DenseLayer(SpikingNeurons):
    def __init__(self, topo: LayerTopology, params: NeuronParams):
        if topo.weights is None:
            raise ValueError("dense layer requires weights")
        self.topo = topo
        self.in_size = int(np.prod(topo.in_shape))
        self.out_size = topo.out_shape[2]
        self.set_weights(topo.weights)
        super().__init__((self.out_size,), params)

    @property
    def w(self) -> np.ndarray:
        """The (out, in) weights as int64."""
        return self.topo.weights.astype(np.int64)

    def step(self, x: np.ndarray) -> np.ndarray:
        """Drive and fire a (B, Tb, *in) block; returns (B, Tb, out) spikes."""
        return self.run(dense_drive(x.reshape(*x.shape[:2], self.in_size), self._w.T))

    def set_weights(self, w: np.ndarray):
        _check_even(w)
        self.topo.weights = w.astype(np.int8).reshape(self.out_size, self.in_size)
        # float64 products and sums of these integers are exact below 2^53,
        # and the matmul runs in BLAS, which int64 does not.
        self._w = self.topo.weights.astype(np.float64)


# Time steps that Network.run passes down the stack at once. Each layer holds
# a block's drives (a dense drive copies B * TIME_BLOCK * in_size inputs to
# float64), so a longer block costs memory. At 8 the stock run peaks about 1%
# below stepping one step at a time, and a 4-sample gesture128 trunk run
# about 14% above.
TIME_BLOCK = 8


def head_counts(heads: Sequence[DenseLayer], x: np.ndarray) -> np.ndarray:
    """Output spike counts (K, B, out) of K heads run over the same inputs.

    x is (B, T, in_size). The heads share their neuron parameters and differ
    in their weights, so they run as one dense layer over the stacked
    weights. Each count equals a run of that head over that sample alone.
    """
    k, out = len(heads), heads[0].out_size
    if any(h.params != heads[0].params or h.topo.weights.shape != heads[0].topo.weights.shape
           for h in heads):
        raise ValueError("heads scored together must share neuron parameters and shape")
    topo = replace(heads[0].topo, out_shape=(1, 1, k * out),
                   weights=np.concatenate([h.topo.weights for h in heads]))
    counts = Network([DenseLayer(topo, heads[0].params)]).run(x).sum(axis=1)
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

        frames is (B, T, *in_shape) of layer start, or (B, T, in_size). Each
        block passes through the whole stack before the next, and each layer's
        neurons carry their state from block to block. The forward pass draws
        nothing random, so each sample's result equals a run of that sample
        alone. Returns the last layer's spike trains, (B, T, out_size) int8.
        """
        stack = self.layers[start:stop]
        in_shape = self.layers[start].topo.in_shape
        if tuple(frames.shape[2:]) not in (in_shape, (int(np.prod(in_shape)),)):
            raise ValueError(
                f"frame shape {tuple(frames.shape[2:])} does not match input {in_shape}")
        batch, steps = frames.shape[:2]
        frames = frames.reshape(batch, steps, *in_shape)
        out_shape = stack[-1].topo.out_shape if stack else in_shape
        out = np.empty((batch, steps, int(np.prod(out_shape))), dtype=np.int8)
        for l in stack:
            l.reset(batch)
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
        """Spike trains feeding the output layer: (steps, pre_size) int8.

        The prefix is frozen, so for a fixed sample this is a pure function
        of the sample and can be cached across epochs and rounds.
        """
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
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    shape: Shape = (int(m.group(1)), int(m.group(2)), int(m.group(3)))
    if min(shape) < 1:
        raise ValueError(f"input shape {tokens[0]!r} has an empty dimension")
    if tokens[-1] != "out":
        raise ValueError("architecture must end with the 'out' head token")

    topos: list[LayerTopology] = []
    for tok in tokens[1:]:
        if tok == "out":
            topos.append(
                LayerTopology("dense", 0, 0, False, shape, (1, 1, num_classes))
            )
            shape = (1, 1, num_classes)
            continue
        if m := _TOKEN_POOL.match(tok):
            k = int(m.group(1))
            h, w, c = shape
            if k < 1:
                raise ValueError(f"pool {tok} needs a kernel of at least 1")
            if h % k or w % k:
                raise ValueError(f"pool {k}a does not divide {shape}")
            out = (h // k, w // k, c)
            topos.append(LayerTopology("sum_pool", k, k, False, shape, out))
        elif m := _TOKEN_CONV.match(tok):
            f, k, pad = int(m.group(1)), int(m.group(2)), bool(m.group(3))
            h, w, c = shape
            if f < 1 or k < 1:
                raise ValueError(f"conv {tok} needs at least 1 filter and a kernel of at least 1")
            if pad and k % 2 == 0:
                raise ValueError(f"zero-padded conv {tok} needs an odd kernel")
            if pad:
                out = (h, w, f)
            else:
                if h < k or w < k:
                    raise ValueError(f"conv {tok} kernel exceeds input {shape}")
                out = (h - k + 1, w - k + 1, f)
            # A 1x1 kernel pads nothing, so it is stored as unpadded.
            topos.append(LayerTopology("conv", k, 1, pad and k > 1, shape, out))
        elif m := _TOKEN_DENSE.match(tok):
            n = int(m.group(1))
            if n < 1:
                raise ValueError(f"dense {tok} needs at least 1 unit")
            out = (1, 1, n)
            topos.append(LayerTopology("dense", 0, 0, False, shape, out))
        else:
            raise ValueError(f"unknown architecture token {tok!r}")
        shape = topos[-1].out_shape
    return topos


def _generate_even_weights(shape, mag: int, rng: Rng) -> np.ndarray:
    """Uniform even integers in [-mag, mag] (mag rounded down to even)."""
    half = mag // 2
    n = int(np.prod(shape))
    draws = rng.u64(n) % np.uint64(2 * half + 1)
    return (2 * (draws.astype(np.int64) - half)).astype(np.int8).reshape(shape)


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
    for prev, nxt in zip(topos, topos[1:]):
        if int(np.prod(prev.out_shape)) != int(np.prod(nxt.in_shape)) and prev.out_shape != nxt.in_shape:
            raise ValueError(
                f"layer shapes do not chain: {prev.out_shape} -> {nxt.in_shape}"
            )
    layers = []
    for idx, topo in enumerate(topos):
        is_output = idx == len(topos) - 1
        if topo.kind == "sum_pool":
            layers.append(SumPoolLayer(topo))
            continue
        if topo.weights is None:
            if topo.kind == "conv":
                oc, (ih, iw, ic), k = topo.out_shape[2], topo.in_shape, topo.kernel
                wshape = (oc, ic, k, k)
            else:
                wshape = (topo.out_shape[2], int(np.prod(topo.in_shape)))
            if is_output:
                w = np.zeros(wshape, dtype=np.int8)
            else:
                if rng is None:
                    raise ValueError("hidden weights missing and no rng to generate them")
                w = _generate_even_weights(wshape, hidden_init_mag, rng.fork(f"hidden/{idx}"))
            topo = replace(topo, weights=w)
        params = output_params if is_output else hidden_params
        layers.append(_LAYER_CLASSES[topo.kind](topo, params))
    return Network(layers)
