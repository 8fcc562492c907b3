"""Error-triggered three-factor learning on the plastic output layer.

The rule keeps two exponentially decaying pre-synaptic traces per input
(stochastically rounded to 7 bits each step); their difference is the
pre-synaptic kernel. A per-neuron error unit compares the spike count in a
fixed window against a target and, when the error exceeds a threshold, every
incoming weight moves by learning_rate * error * kernel, gated by a box
function of the post-synaptic membrane, then stochastically rounded back to
the even 8-bit weight grid.

Both roundings run in integers: a decayed trace is x * (2^s - 1) / 2^s, and
at rate 2^-m a new weight is ((w << m) + num) / 2^m, with num from
update_numerator (a rate 2^k > 1 shifts num left instead). Both go to
quant.stochastic_round_array as Dyadic values, which it rounds in integers
against the raw draws. The calls name it as this module's attribute, where
bench/tracer.py counts the rounding lanes.

Every setting of the rule (window, error threshold and offset, learning
rate, trace shifts and impulses, box band) is read directly from the run's
ExperimentConfig, its [plasticity] section, which validates them. A trace
pair is a (2, ...) int64 array, x1 over x2; update_trace steps one, the
model the trace kernels are tested against.

train_lockstep trains the heads of K clients together, each pass p of every
client alongside the others' pass p. It builds the round's passes once as
one zero-padded (K, P, T, pre_size) spike block with (K, P) step counts. The
clients differ only in their weights, data and counter-based streams, so:
- trace_kernels steps every row of the block in one recurrence. A pass's
  traces start at zero, depend only on its spike train and draw two counter
  ticks per step from its own client's trace stream, so every trace value is
  a pure function of (seed, stream, counter, lane) and never of the weights;
- the K heads step as one (K, out) state, and their weights change only at
  window boundaries, so the drive of a window is one batched float64 matmul,
  exact below 2^53 like the per-step product;
- errors, triggers and gates are (K, out) arrays over all K rows, and each
  triggered client rounds its new weights on its own weight stream.
A pass's padding and a client's missing passes reach no error unit: a row
past its pass's full windows is masked out of the triggers and the stats,
so only the full windows of each pass count. A single client (the socket client,
SoelEngine.train_on_spikes) is the case K = 1.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .config import ExperimentConfig
from .quant import Dyadic, Rng, WEIGHT_SPEC, TRACE_SPEC, stochastic_round_array, u64_at
from .snn import DenseLayer, SpikingNeurons, dense_drive

TRACE_MAX = TRACE_SPEC.hi  # 127

IntOrArray = Union[int, np.ndarray]


def _trace_factors(cfg: ExperimentConfig) -> tuple[Dyadic, np.ndarray]:
    """cfg's (2, 1) decay factors and (2, 1) impulses of both traces."""
    # x * (1 - 2^-s) = x * (2^s - 1) / 2^s, both traces put over 2^q.
    s1, s2 = cfg.alpha1_shift, cfg.alpha2_shift
    q = max(s1, s2)
    decay = np.array([[((1 << s1) - 1) << (q - s1)], [((1 << s2) - 1) << (q - s2)]])
    impulse = np.array([[cfg.impulse1], [cfg.impulse2]], dtype=np.int64)
    return Dyadic(decay, q), impulse


def _step_traces(x: np.ndarray, spikes: np.ndarray, decay: Dyadic, impulse: np.ndarray,
                 z: np.ndarray) -> np.ndarray:
    """One time step of M trace pairs x (M, 2, N): decay, round with draws z,
    add impulses.

    spikes is (M, N); z holds x's uint64 draws; decay and impulse come from
    _trace_factors. The one trace kernel, shared by update_trace and
    trace_kernels.
    """
    decayed = stochastic_round_array(Dyadic(x * decay.num, decay.q), TRACE_SPEC, z)
    return np.minimum(decayed + impulse * spikes[:, None], TRACE_MAX)


def update_trace(cfg: ExperimentConfig, x: np.ndarray, pre_spike: IntOrArray,
                 rng: Rng) -> np.ndarray:
    """One timestep of the trace pair x, a (2, *shape) int64 array of traces
    in [0, 127]: decay, round to 7 bits, add impulses. Returns the new pair.

    pre_spike is 0/1, a scalar or an array broadcastable to shape. Consumes
    two rng draws, one per trace, in a fixed order; lane i serves element i
    of each trace.
    """
    x = np.asarray(x, dtype=np.int64)
    spike = np.broadcast_to(np.asarray(pre_spike, dtype=np.int64), x.shape[1:])
    z = rng.u64_at([rng.counter, rng.counter + 1], spike.size)
    rng.counter += 2
    new = _step_traces(x.reshape(1, 2, -1), spike.reshape(1, -1), *_trace_factors(cfg),
                       z[None])
    return new.reshape(x.shape)


def evaluate_errors(cfg: ExperimentConfig, targets: np.ndarray,
                    counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compare window spike counts against targets at a boundary.

    Uses cfg's error_threshold and error_offset. Returns int64 arrays shaped
    like counts: the errors targets - counts, whether each exceeds the
    threshold, and the 7-bit error registers, offset + the clipped error
    when triggered and offset otherwise.
    """
    offset = cfg.error_offset
    err = np.asarray(targets, dtype=np.int64) - np.asarray(counts, dtype=np.int64)
    triggered = np.abs(err) > cfg.error_threshold
    clipped = np.minimum(np.maximum(err, -offset), 127 - offset)
    return err, triggered, offset + np.where(triggered, clipped, 0)


def box_gate(cfg: ExperimentConfig, membrane: IntOrArray) -> IntOrArray:
    """1 where box_low <= membrane <= box_high (inclusive), else 0."""
    m = np.asarray(membrane)
    out = ((m >= cfg.box_low) & (m <= cfg.box_high)).astype(np.int64)
    return int(out[()]) if out.ndim == 0 else out


def update_numerator(cfg: ExperimentConfig, register: np.ndarray, gates: IntOrArray,
                     kernels: np.ndarray) -> np.ndarray:
    """(register - error_offset) * gate * (x2 - x1) of every (post, pre)
    synapse: the weight update before the rate.

    register and gates are (K, out), kernels (K, N); returns (K, out, N)
    int64, each entry below 127 * 127 < 2^14 in magnitude.
    """
    row = (register - cfg.error_offset) * gates
    return row[:, :, None] * kernels[:, None, :]


# --- lockstep trainer --------------------------------------------------------

class SoelEngine:
    """Drives error-triggered updates on one network's dense output layer.

    Reads the rule's settings ([plasticity]) from the run's config and holds
    two private rng streams (trace rounding and weight rounding) whose
    counters advance only with use, so a rerun with the same seed replays
    bit-exactly.
    """

    def __init__(self, cfg: ExperimentConfig, rng: Rng):
        self.cfg = cfg
        self._trace_rng = rng.fork("traces")
        self._weight_rng = rng.fork("updates")

    def train_on_spikes(self, head: DenseLayer, pre_spikes: np.ndarray,
                        targets: Sequence[int]) -> dict:
        """One pass over a (steps, pre_size) 0/1 spike array: train_lockstep
        with one client and one pass.

        targets holds the desired spike count per output neuron per window.
        """
        return train_lockstep([self], [head], [[(pre_spikes, targets)]])[0]


def trace_kernels(engines: Sequence[SoelEngine], spikes: np.ndarray,
                  steps: np.ndarray) -> np.ndarray:
    """Trace kernels x2 - x1 at every window boundary of each client's passes.

    spikes is a zero-padded (K, P, T, pre_size) block: row (k, p) is client
    k's pass p, of steps[k, p] steps, in training order, each starting from
    zero traces. Every row steps all T steps in one recurrence. Row (k, p)
    draws trace j of step t from engines[k]'s trace stream at counter c0 + 2 *
    (steps of the client's passes before p) + 2t + j, which is where separate
    runs of update_trace would draw it; each stream is left at c0 + 2 * (the
    client's steps). Returns (K, P, T // window, pre_size) int8 kernels, of
    which row (k, p)'s first steps[k, p] // window are its boundaries.
    """
    n_clients, n_passes, t_max, n = spikes.shape
    rows = n_clients * n_passes
    cfg = engines[0].cfg
    window = cfg.window
    c0 = np.array([e._trace_rng.counter % 2**64 for e in engines], dtype=np.uint64)
    before = 2 * (np.cumsum(steps, axis=1) - steps)
    # Stream base and step-0 counter of each (client, pass, trace) row.
    bases = np.repeat(np.array([e._trace_rng.base for e in engines], dtype=np.uint64),
                      2 * n_passes)
    first = (c0[:, None, None] + before.astype(np.uint64)[:, :, None]
             + np.arange(2, dtype=np.uint64)).ravel()
    x = np.zeros((rows, 2, n), dtype=np.int64)
    # Both traces lie in [0, 127], so their difference fits int8.
    kernels = np.zeros((rows, t_max // window, n), dtype=np.int8)
    flat = spikes.reshape(rows, t_max, n)
    decay, impulse = _trace_factors(cfg)
    for t in range(t_max):
        z = u64_at(bases, first + np.uint64(2 * t), n)
        x = _step_traces(x, flat[:, t], decay, impulse, z.reshape(rows, 2, n))
        if (t + 1) % window == 0:
            kernels[:, t // window] = x[:, 1] - x[:, 0]
    for engine, client_steps in zip(engines, steps):
        engine._trace_rng.counter += 2 * int(client_steps.sum())
    return kernels.reshape(n_clients, n_passes, t_max // window, n)


def train_lockstep(engines: Sequence[SoelEngine], heads: Sequence[DenseLayer],
                   passes: Sequence[Sequence[tuple[np.ndarray, Sequence[int]]]]
                   ) -> list[dict]:
    """Train K clients' heads together; returns each client's stats, a dict of
    its boundaries, triggered_updates, error_l1 and error_per_class (a list).

    passes[k] are client k's (pre_spikes, targets) pairs in training order:
    (steps, pre_size) 0/1 spike arrays and the desired spike count of each
    output neuron per window. heads[k] is updated in place at each window
    boundary where some unit's error exceeds its threshold, exactly as if
    client k trained alone. The passes go into one zero-padded (K, P, T,
    pre_size) block, and pass p of every client runs at once: each head
    starts it from reset neurons, and only a pass's full windows, never its
    padding or a missing pass p, reach the error units. The engines share
    one config and the heads their neuron parameters and shape.
    """
    if not engines:
        return []
    head, cfg = heads[0], engines[0].cfg
    if (any(e.cfg != cfg for e in engines)
            or any(h.params != head.params or h.topo.weights.shape != head.topo.weights.shape
                   for h in heads)):
        raise ValueError("clients trained in lockstep must share their settings")
    n_out = head.out_size
    shape = (len(heads), max(map(len, passes)))
    t_max = max((len(x) for ps in passes for x, _ in ps), default=0)
    steps = np.zeros(shape, dtype=np.int64)
    targets = np.zeros(shape + (n_out,), dtype=np.int64)
    spikes = np.zeros(shape + (t_max, head.in_size), dtype=np.int8)
    for k, client_passes in enumerate(passes):
        for p, (x, target) in enumerate(client_passes):
            if len(target) != n_out:
                raise ValueError(f"need {n_out} targets, got {len(target)}")
            if np.any(np.asarray(target) < 0):
                raise ValueError("target must be >= 0")
            steps[k, p], targets[k, p], spikes[k, p, :len(x)] = len(x), target, x
    kernels = trace_kernels(engines, spikes, steps)
    w = np.stack([h.w for h in heads])                    # (K, out, N) int64
    w_t = w.transpose(0, 2, 1).astype(np.float64)         # (K, N, out), for the drive
    # The rate is 2^up / 2^down; w + lr * num is ((w << down) + (num << up)) / 2^down.
    up = cfg.learning_rate.numerator.bit_length() - 1
    down = cfg.learning_rate.denominator.bit_length() - 1
    boundaries = np.zeros(len(heads), dtype=np.int64)
    triggered = np.zeros(len(heads), dtype=np.int64)
    per_class = np.zeros((len(heads), n_out), dtype=np.int64)
    neurons = SpikingNeurons((n_out,), head.params)
    window = cfg.window
    for p in range(shape[1]):
        full = steps[:, p] // window
        neurons.reset(len(heads))
        for b in range(full.max()):
            # Weights change only at boundaries, so one matmul drives the window.
            x = spikes[:, p, b * window:(b + 1) * window]
            counts = neurons.run(dense_drive(x, w_t)).sum(axis=1)
            # A pass's boundaries are its full windows; the other rows are masked.
            active = b < full
            err, trig, register = evaluate_errors(cfg, targets[:, p], counts)
            trig &= active[:, None]
            boundaries += active
            per_class += np.abs(err) * active[:, None]
            triggered += trig.sum(axis=1)
            if not trig.any():
                continue
            gates = box_gate(cfg, neurons.voltage) if cfg.box_enabled else 1
            num = update_numerator(cfg, register, gates, kernels[:, p, b])
            for k in np.flatnonzero(trig.any(axis=1)):
                new = Dyadic((w[k] << down) + (num[k] << up), down)
                w[k] = stochastic_round_array(new, WEIGHT_SPEC, engines[k]._weight_rng)
                w_t[k] = w[k].T
    for h, wk in zip(heads, w):
        h.set_weights(wk.astype(np.int8))
    return [{"boundaries": int(b), "triggered_updates": int(t), "error_l1": int(e.sum()),
             "error_per_class": e.tolist()}
            for b, t, e in zip(boundaries, triggered, per_class)]
