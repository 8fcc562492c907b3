"""Error-triggered three-factor learning on the plastic output layer.

The rule keeps two exponentially decaying pre-synaptic traces per input
(stochastically rounded to 7 bits each step); their difference is the
pre-synaptic kernel. A per-neuron error unit compares the spike count in a
fixed window against a target and, when the error exceeds a threshold, every
incoming weight moves by learning_rate * error * kernel, gated by a box
function of the post-synaptic membrane, then stochastically rounded back to
the even 8-bit weight grid.

Every setting of the rule (window, error threshold and offset, learning
rate, trace shifts and impulses, box band) is read directly from the run's
ExperimentConfig, its [plasticity] section. TraceState is the trace pair
that update_trace steps, the model the trace kernels are tested against.

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
- errors, triggers and gates are (K, out) arrays, and each triggered client
  rounds its new weights on its own weight stream.
A pass's padding and a client's missing passes reach no error unit: only
the full windows of each pass count. A single client (the socket client,
SoelEngine.train_on_spikes) is the case K = 1.

The same update is also expressible as a small sum-of-products program
(coefficient times a product of state factors); compile_soel_to_sop emits
that form and evaluate_sop runs it in exact arithmetic, which the tests use
to cross-check the direct implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

from .config import ExperimentConfig
from .quant import (Rng, WEIGHT_SPEC, TRACE_SPEC, round_with_uniforms,
                    stochastic_round_array, to_unit, u64_at)
from .snn import DenseLayer, SpikingNeurons, dense_drive

TRACE_MAX = TRACE_SPEC.hi  # 127

IntOrArray = Union[int, np.ndarray]


@dataclass(frozen=True)
class TraceState:
    """Pair of decaying pre-synaptic traces (scalar or per-input arrays)."""

    x1: IntOrArray
    x2: IntOrArray
    alpha1_shift: int = 2
    alpha2_shift: int = 4
    impulse1: int = 16
    impulse2: int = 16

    def __post_init__(self):
        if not (1 <= self.alpha1_shift <= 12 and 1 <= self.alpha2_shift <= 12):
            raise ValueError("trace decay shifts must be in [1, 12]")
        if self.alpha1_shift == self.alpha2_shift:
            raise ValueError("trace decay shifts must differ or the kernel is zero")
        for imp in (self.impulse1, self.impulse2):
            if not 0 <= imp <= TRACE_MAX:
                raise ValueError("trace impulse must be in [0, 127]")
        for x in (self.x1, self.x2):
            if np.any(np.asarray(x) < 0) or np.any(np.asarray(x) > TRACE_MAX):
                raise ValueError("trace value outside [0, 127]")


def _step_traces(x: np.ndarray, spikes: np.ndarray, t: TraceState | ExperimentConfig,
                 u: np.ndarray) -> np.ndarray:
    """One time step of M trace pairs x (M, 2, N): decay, round with u, add impulses.

    spikes is (M, N); u is shaped like x; t gives the shifts and impulses.
    The one trace kernel, shared by update_trace and trace_kernels.
    """
    # x * (1 - 2^-shift) is dyadic and exact in float64 for 7-bit x.
    decay = np.array([[1.0 - 0.5**t.alpha1_shift], [1.0 - 0.5**t.alpha2_shift]])
    decayed = round_with_uniforms(x * decay, u, TRACE_SPEC)
    impulse = np.array([[t.impulse1], [t.impulse2]], dtype=np.int64)
    return np.minimum(decayed + impulse * spikes[:, None], TRACE_MAX)


def update_trace(t: TraceState, pre_spike: IntOrArray, rng: Rng) -> TraceState:
    """One timestep of both traces: decay, round to 7 bits, add impulses.

    pre_spike is 0/1 (scalar or array broadcastable against the traces).
    Consumes two rng draws, one per trace, in a fixed order; lane i serves
    element i of the traces and pre_spike broadcast to one shape.
    """
    x1, x2, spike = np.broadcast_arrays(np.asarray(t.x1, dtype=np.int64),
                                        np.asarray(t.x2, dtype=np.int64),
                                        np.asarray(pre_spike, dtype=np.int64))
    u = rng.uniforms_at([rng.counter, rng.counter + 1], x1.size)
    rng.counter += 2
    x = np.stack([x1.ravel(), x2.ravel()])
    new = _step_traces(x[None], spike.reshape(1, -1), t, u[None])[0]
    if x1.ndim == 0:
        return replace(t, x1=int(new[0, 0]), x2=int(new[1, 0]))
    return replace(t, x1=new[0].reshape(x1.shape), x2=new[1].reshape(x1.shape))


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
    clipped = np.clip(err, -offset, 127 - offset)
    return err, triggered, offset + np.where(triggered, clipped, 0)


def box_gate(cfg: ExperimentConfig, membrane: IntOrArray) -> IntOrArray:
    """1 where box_low <= membrane <= box_high (inclusive), else 0."""
    m = np.asarray(membrane)
    out = ((m >= cfg.box_low) & (m <= cfg.box_high)).astype(np.int64)
    return int(out[()]) if out.ndim == 0 else out


# --- sum-of-products rule programs -----------------------------------------

FACTOR_NAMES = ("x1", "x2", "error_register", "constant", "pre_spike", "post_spike")


@dataclass(frozen=True)
class SopTerm:
    coeff: Fraction
    factors: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        object.__setattr__(self, "factors", tuple(self.factors))
        for name in self.factors:
            if name not in FACTOR_NAMES:
                raise ValueError(f"unknown factor {name!r}")


@dataclass(frozen=True)
class SopProgram:
    terms: tuple[SopTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


def compile_soel_to_sop(cfg: ExperimentConfig) -> SopProgram:
    """Expand learning_rate * (E - error_offset) * (x2 - x1) into four terms."""
    lr, c = cfg.learning_rate, cfg.error_offset
    return SopProgram((
        SopTerm(lr, ("error_register", "x2")),
        SopTerm(-lr, ("error_register", "x1")),
        SopTerm(-lr * c, ("x2",)),
        SopTerm(lr * c, ("x1",)),
    ))


def evaluate_sop(program: SopProgram, bindings: Mapping[str, IntOrArray]):
    """Run a sum-of-products program exactly.

    Scalar bindings give an int (or an exact Fraction when the result is not
    integral); array bindings give an int64 array and raise if any entry
    would be fractional.
    """
    for term in program.terms:
        for name in term.factors:
            if name not in bindings:
                raise ValueError(f"unbound factor reference {name!r}")

    if any(isinstance(v, np.ndarray) for v in bindings.values()):
        denom = 1
        for term in program.terms:
            denom = denom * term.coeff.denominator // np.gcd(denom, term.coeff.denominator)
        total = None
        for term in program.terms:
            part = np.int64(term.coeff.numerator * (denom // term.coeff.denominator))
            for name in term.factors:
                part = part * np.asarray(bindings[name], dtype=np.int64)
            total = part if total is None else total + part
        if total is None:
            return 0
        total = np.asarray(total, dtype=np.int64)
        if denom > 1:
            if np.any(total % denom):
                raise ValueError("sum of products is not integral for these bindings")
            total = total // denom
        return total

    total = Fraction(0)
    for term in program.terms:
        part = term.coeff
        for name in term.factors:
            part *= int(bindings[name])
        total += part
    return int(total) if total.denominator == 1 else total


# --- lockstep trainer --------------------------------------------------------

@dataclass
class TrainStats:
    """Sums over one client's passes of a training call."""

    boundaries: int = 0
    triggered_updates: int = 0
    error_l1: int = 0
    error_per_class: np.ndarray | None = None


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
                        targets: Sequence[int]) -> TrainStats:
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
    for t in range(t_max):
        u = to_unit(u64_at(bases, first + np.uint64(2 * t), n))
        x = _step_traces(x, flat[:, t], cfg, u.reshape(rows, 2, n))
        if (t + 1) % window == 0:
            kernels[:, t // window] = x[:, 1] - x[:, 0]
    for engine, client_steps in zip(engines, steps):
        engine._trace_rng.counter += 2 * int(client_steps.sum())
    return kernels.reshape(n_clients, n_passes, t_max // window, n)


def train_lockstep(engines: Sequence[SoelEngine], heads: Sequence[DenseLayer],
                   passes: Sequence[Sequence[tuple[np.ndarray, Sequence[int]]]]
                   ) -> list[TrainStats]:
    """Train K clients' heads together; returns each client's TrainStats.

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
    scale = cfg.learning_rate.numerator / cfg.learning_rate.denominator
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
            # A pass's boundaries are its full windows.
            active = b < full
            clients = np.flatnonzero(active)
            err, trig, register = evaluate_errors(cfg, targets[active, p], counts[active])
            boundaries[clients] += 1
            per_class[clients] += np.abs(err)
            triggered[clients] += trig.sum(axis=1)
            if not trig.any():
                continue
            gates = (box_gate(cfg, neurons.voltage[active]) if cfg.box_enabled
                     else np.ones_like(register))
            row = (register - cfg.error_offset) * gates
            delta = (row[:, :, None] * kernels[active, p, b][:, None, :]).astype(np.float64) * scale
            for i in np.flatnonzero(trig.any(axis=1)):
                k = clients[i]
                w[k] = stochastic_round_array(w[k] + delta[i], WEIGHT_SPEC,
                                              engines[k]._weight_rng)
                w_t[k] = w[k].T
    for h, wk in zip(heads, w):
        h.set_weights(wk.astype(np.int8))
    return [TrainStats(int(b), int(t), int(e.sum()), e)
            for b, t, e in zip(boundaries, triggered, per_class)]
