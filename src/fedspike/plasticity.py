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
against the top bits of the raw draws, in the numerators' dtype: int32 for
the traces, whose products x * (2^s - 1) stay below 127 * 4095 < 2^19, and
int64 for the weights. The calls name it as this module's attribute, where
bench/tracer.py counts the rounding lanes.

Every setting of the rule (window, error threshold and offset, learning
rate, trace shifts and impulses, box band) is read directly from the run's
ExperimentConfig, its [plasticity] section, which validates them. A trace
pair is a (2, ...) int32 array, x1 over x2; update_trace steps one, the
model the trace kernels are tested against.

train_lockstep trains the heads of K clients together, as one (K, out,
pre_size) weight array with one set of neuron parameters, each pass p of
every client alongside the others' pass p. It stores each distinct spike
train of the round once, in one zero-padded (M, T, pre_size) block, and
names the train of every client's pass p in a (K, P) index, with (K, P)
step counts: the epochs of a round replay the same shots, so a train is
held once however many passes run it. The clients differ only in their
weights, data and counter-based streams, so:
- trace_kernels steps every (client, pass) row in one recurrence. A pass's
  traces start at zero, depend only on its spike train and draw two counter
  ticks per step from its own client's trace stream, so every trace value is
  a pure function of (seed, stream, counter, lane) and never of the weights;
- the K heads step as one (K, out) state, and their weights change only at
  window boundaries, so the drive of a window is one batched matmul, in
  float32 below its exactness bound like the per-step product. The round's
  largest input bounds every drive: where snn.stays_in_rails proves that
  the head never reaches the 24-bit rails under it (both decay shifts at
  least 1, and 2^(s_i + s_v) times the bound below 2^23, as on desk), each
  window is the bare matmul cast to int64, and SpikingNeurons.run neither
  scans nor clamps; otherwise every window goes through snn.dense_drive
  and run's own check;
- errors, triggers and gates are (K, out) arrays over all K rows, masked to
  each pass's full windows. The weight streams are held as (K,) bases and
  counters. At a window with triggered clients, each takes one counter
  tick. A client whose update numerator is all zero (its box gate shut, or
  a zero kernel) would round to its own weights, so it draws and rounds
  nothing; one u64_at draw and one stochastic_round_array call serve all
  the others, each client's lanes at its own stream's counter, where its
  own Rng.u64 would draw them. The counters go back to the engines when
  the round ends.
The caller writes each trained row back into its head. A client trained
alone (a `fedspike client` process, through federation.train_clients) is
the case K = 1; the one-process socket simulation trains all K together.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import ExperimentConfig
from .quant import Dyadic, Rng, WEIGHT_SPEC, TRACE_SPEC, stochastic_round_array, u64_at
from .snn import (DenseLayer, NeuronParams, SpikingNeurons, dense_drive, drive_dtype,
                  stays_in_rails)

TRACE_MAX = TRACE_SPEC.hi  # 127


def _trace_factors(cfg: ExperimentConfig) -> tuple[Dyadic, np.ndarray]:
    """cfg's (2, 1) decay factors and (2, 1) impulses of both traces."""
    # x * (1 - 2^-s) = x * (2^s - 1) / 2^s, both traces put over 2^q.
    s1, s2 = cfg.alpha1_shift, cfg.alpha2_shift
    q = max(s1, s2)
    # int32 throughout: a trace times its factor is at most 127 * 4095 < 2^19.
    decay = np.array([[((1 << s1) - 1) << (q - s1)], [((1 << s2) - 1) << (q - s2)]],
                     dtype=np.int32)
    impulse = np.array([[cfg.impulse1], [cfg.impulse2]], dtype=np.int32)
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


def update_trace(cfg: ExperimentConfig, x: np.ndarray, pre_spike: int | np.ndarray,
                 rng: Rng) -> np.ndarray:
    """One timestep of the trace pair x, a (2, *shape) integer array of
    traces in [0, 127]: decay, round to 7 bits, add impulses. Returns the new
    pair as int32, the dtype trace_kernels steps in.

    pre_spike is 0/1, a scalar or an array broadcastable to shape. Consumes
    two rng draws, one per trace, in a fixed order; lane i serves element i
    of each trace.
    """
    x = np.asarray(x, dtype=np.int32)
    spike = np.broadcast_to(np.asarray(pre_spike, dtype=np.int32), x.shape[1:])
    z = u64_at(rng.base, [rng.counter, rng.counter + 1], spike.size)
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


def box_gate(cfg: ExperimentConfig, membrane: np.ndarray) -> np.ndarray:
    """int64 1 where box_low <= membrane <= box_high (inclusive), else 0."""
    return ((membrane >= cfg.box_low) & (membrane <= cfg.box_high)).astype(np.int64)


def update_numerator(cfg: ExperimentConfig, register: np.ndarray, gates: int | np.ndarray,
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
        with one client and one pass, its weights written back into head.

        targets holds the desired spike count per output neuron per window.
        """
        w = head.w[None]
        stats = train_lockstep([self], head.params, w, [[(pre_spikes, targets)]])[0]
        head.set_weights(w[0])
        return stats


def trace_kernels(engines: Sequence[SoelEngine], trains: np.ndarray, which: np.ndarray,
                  steps: np.ndarray) -> np.ndarray:
    """Trace kernels x2 - x1 at every window boundary of each client's passes.

    trains is a zero-padded (M, T, pre_size) block of spike trains, and row
    (k, p) of the (K, P) index which names the train of client k's pass p, of
    steps[k, p] steps, in training order, each starting from zero traces.
    Every (k, p) row steps all T steps in one recurrence. Row (k, p) draws
    trace j of step t from engines[k]'s trace stream at counter c0 + 2 *
    (steps of the client's passes before p) + 2t + j, which is where separate
    runs of update_trace would draw it; each stream is left at c0 + 2 * (the
    client's steps). Returns (K, P, T // window, pre_size) int8 kernels, of
    which row (k, p)'s first steps[k, p] // window are its boundaries.
    """
    n_clients, n_passes = which.shape
    _, t_max, n = trains.shape
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
    x = np.zeros((rows, 2, n), dtype=np.int32)
    # Both traces lie in [0, 127], so their difference fits int8.
    kernels = np.zeros((rows, t_max // window, n), dtype=np.int8)
    train_of_row = which.ravel()
    decay, impulse = _trace_factors(cfg)
    for t in range(t_max):
        z = u64_at(bases, first + np.uint64(2 * t), n)
        x = _step_traces(x, trains[train_of_row, t], decay, impulse, z.reshape(rows, 2, n))
        if (t + 1) % window == 0:
            kernels[:, t // window] = x[:, 1] - x[:, 0]
    for engine, client_steps in zip(engines, steps):
        engine._trace_rng.counter += 2 * int(client_steps.sum())
    return kernels.reshape(n_clients, n_passes, t_max // window, n)


def train_lockstep(engines: Sequence[SoelEngine], params: NeuronParams, w: np.ndarray,
                   passes: Sequence[Sequence[tuple[np.ndarray, Sequence[int]]]]
                   ) -> list[dict]:
    """Train K clients' heads together; returns each client's stats, a dict of
    its boundaries, triggered_updates, error_l1 and error_per_class (a list).

    w holds the heads' (K, out, pre_size) int64 weights and params their
    neuron parameters. passes[k] are client k's (pre_spikes, targets) pairs
    in training order: (steps, pre_size) 0/1 spike arrays and the desired
    spike count of each output neuron per window. w[k] is updated in place at
    each window boundary where some unit's error exceeds its threshold,
    exactly as if client k trained alone. Pass p of every client runs at
    once: each head starts it from reset neurons, and only a pass's full
    windows, never its padding or a missing pass p, reach the error units.
    Passes given one spike array (the same object) share its one copy.
    The engines share one config.
    """
    if not engines:
        return []
    cfg = engines[0].cfg
    if any(e.cfg != cfg for e in engines):
        raise ValueError("clients trained in lockstep must share their settings")
    n_clients, n_out, n_in = w.shape
    shape = (n_clients, max(map(len, passes)))
    steps = np.zeros(shape, dtype=np.int64)
    targets = np.zeros(shape + (n_out,), dtype=np.int64)
    which = np.zeros(shape, dtype=np.intp)
    distinct: dict[int, tuple[int, np.ndarray]] = {}  # id(train) -> (its row, train)
    for k, client_passes in enumerate(passes):
        for p, (x, target) in enumerate(client_passes):
            if len(target) != n_out:
                raise ValueError(f"need {n_out} targets, got {len(target)}")
            if np.any(np.asarray(target) < 0):
                raise ValueError("target must be >= 0")
            which[k, p] = distinct.setdefault(id(x), (len(distinct), x))[0]
            steps[k, p], targets[k, p] = len(x), target
    trains = np.zeros((len(distinct), steps.max(initial=0), n_in), dtype=np.int8)
    for row, x in distinct.values():
        trains[row, :len(x)] = x
    kernels = trace_kernels(engines, trains, which, steps)
    w_t = w.transpose(0, 2, 1).astype(np.float32)         # (K, N, out), for the drive
    # The round's largest input bounds every drive of the head: where the
    # heads provably stay within the rails, no window is scanned or clamped.
    reach = max(int(trains.max(initial=0)), -int(trains.min(initial=0)))
    proven = stays_in_rails(params, n_in * reach * 128)
    dtype = drive_dtype(n_in, reach) if proven else None
    # Each client's weight stream: its base, its counter modulo 2^64 and the
    # draws taken from it so far.
    bases = np.array([e._weight_rng.base for e in engines], dtype=np.uint64)
    c0 = np.array([e._weight_rng.counter % 2**64 for e in engines], dtype=np.uint64)
    drawn = np.zeros(n_clients, dtype=np.uint64)
    # The rate is 2^up / 2^down; w + lr * num is ((w << down) + (num << up)) / 2^down.
    up = cfg.learning_rate.numerator.bit_length() - 1
    down = cfg.learning_rate.denominator.bit_length() - 1
    boundaries = np.zeros(n_clients, dtype=np.int64)
    triggered = np.zeros(n_clients, dtype=np.int64)
    per_class = np.zeros((n_clients, n_out), dtype=np.int64)
    neurons = SpikingNeurons((n_out,), params)
    window = cfg.window
    for p in range(shape[1]):
        full = steps[:, p] // window
        neurons.reset(n_clients)
        for b in range(full.max()):
            # Weights change only at boundaries, so one matmul drives the window.
            x = trains[which[:, p], b * window:(b + 1) * window]
            if proven:
                spikes = neurons.run((x.astype(dtype) @ w_t).astype(np.int64), clamp=False)
            else:
                spikes = neurons.run(dense_drive(x, w_t))
            counts = spikes.sum(axis=1)
            # A pass's boundaries are its full windows; the other rows are masked.
            active = b < full
            err, trig, register = evaluate_errors(cfg, targets[:, p], counts)
            trig &= active[:, None]
            boundaries += active
            per_class += np.abs(err) * active[:, None]
            triggered += trig.sum(axis=1)
            ks = np.flatnonzero(trig.any(axis=1))
            if not ks.size:
                continue
            gates = box_gate(cfg, neurons.voltage[ks]) if cfg.box_enabled else 1
            num = update_numerator(cfg, register[ks], gates, kernels[ks, p, b])
            # A triggered client whose numerator is all zero (its box gate
            # shut, or a zero kernel) rounds to its own weights: it takes its
            # counter tick but draws and rounds nothing. One draw and one
            # rounding serve every other, each at its own stream's counter,
            # as its own Rng.u64 would draw it.
            moving = num.any(axis=(1, 2))
            ms = ks[moving]
            if ms.size:
                z = u64_at(bases[ms], c0[ms] + drawn[ms], n_out * n_in)
                new = Dyadic((w[ms] << down) + (num[moving] << up), down)
                w[ms] = stochastic_round_array(new, WEIGHT_SPEC, z.reshape(new.num.shape))
                w_t[ms] = w[ms].transpose(0, 2, 1)
            drawn[ks] += np.uint64(1)
    for engine, n in zip(engines, drawn):
        engine._weight_rng.counter += int(n)
    return [{"boundaries": int(b), "triggered_updates": int(t), "error_l1": int(e.sum()),
             "error_per_class": e.tolist()}
            for b, t, e in zip(boundaries, triggered, per_class)]
