"""Error-triggered three-factor learning on the plastic output layer.

The rule keeps two exponentially decaying pre-synaptic traces per input
(stochastically rounded to 7 bits each step); their difference is the
pre-synaptic kernel. A per-neuron error unit compares the spike count in a
fixed window against a target and, when the error exceeds a threshold, every
incoming weight moves by learning_rate * error * kernel, gated by a box
function of the post-synaptic membrane, then stochastically rounded back to
the even 8-bit weight grid.

A client's round trains several passes (local epochs times shots) in order.
Their traces can still be computed together, ahead of the head: each pass's
traces start at zero, depend only on its spike train, and draw exactly two
counter ticks per step from a counter-based stream, so every trace value is a
pure function of (seed, stream, counter, lane) and never of the weights.
SoelEngine.trace_kernels steps all passes at once and hands each pass the
kernels of its window boundaries. The head's weights change only at those
boundaries, so its drive for a whole window is one float64 matmul, exact
below 2^53 like the per-step product.

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

from .quant import (Rng, QuantSpec, WEIGHT_SPEC, TRACE_SPEC, round_with_uniforms,
                    stochastic_round_array)
from .snn import DenseLayer

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


@dataclass(frozen=True)
class ErrorUnit:
    """Windowed spike-count comparator feeding the weight update."""

    target: int = 0
    window: int = 16
    threshold: int = 1
    offset: int = 64
    last_error: int = 0
    error_register: int = 64

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")
        if not 0 <= self.offset <= 127:
            raise ValueError("offset must be in [0, 127]")
        if not 0 <= self.error_register <= 127:
            raise ValueError("error_register must be in [0, 127]")
        if self.target < 0:
            raise ValueError("target must be >= 0")

    @property
    def triggered(self) -> bool:
        return abs(self.last_error) > self.threshold


@dataclass(frozen=True)
class BoxGate:
    """Unit step band over the post-synaptic membrane."""

    u_min: int
    u_max: int

    def __post_init__(self):
        if self.u_min > self.u_max:
            raise ValueError("u_min must not exceed u_max")


@dataclass(frozen=True)
class PlasticityConfig:
    learning_rate: Fraction = Fraction(1)
    quant: QuantSpec = WEIGHT_SPEC
    box_enabled: bool = True

    def __post_init__(self):
        lr = Fraction(self.learning_rate)
        object.__setattr__(self, "learning_rate", lr)
        num, den = lr.numerator, lr.denominator
        power_of_two = num > 0 and (num & (num - 1)) == 0 and (den & (den - 1)) == 0
        if not (power_of_two and (num == 1 or den == 1)):
            raise ValueError(f"learning_rate must be a power of two, got {lr}")


def _step_traces(x: np.ndarray, spikes: np.ndarray, t: TraceState,
                 u: np.ndarray) -> np.ndarray:
    """One time step of M trace pairs x (M, 2, N): decay, round with u, add impulses.

    spikes is (M, N); u is shaped like x; t gives the shifts and impulses.
    The one trace kernel, shared by update_trace and SoelEngine.trace_kernels.
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


def pre_kernel(t: TraceState) -> IntOrArray:
    """Difference of the two traces; the pre-synaptic factor of the update."""
    diff = np.asarray(t.x2, dtype=np.int64) - np.asarray(t.x1, dtype=np.int64)
    return int(diff[()]) if diff.ndim == 0 else diff


def evaluate_error(unit: ErrorUnit, spike_count: int) -> tuple[ErrorUnit, bool]:
    """Compare the window's spike count against the target at a boundary."""
    err = unit.target - int(spike_count)
    triggered = abs(err) > unit.threshold
    if triggered:
        register = unit.offset + max(-unit.offset, min(err, 127 - unit.offset))
    else:
        register = unit.offset
    return replace(unit, last_error=err, error_register=register), triggered


def evaluate_errors(unit: ErrorUnit, targets: np.ndarray,
                    counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """evaluate_error for every class at once, with unit's threshold and offset.

    Returns int64 (errors, triggered, registers): what evaluate_error gives
    class i with target targets[i] for count counts[i].
    """
    err = np.asarray(targets, dtype=np.int64) - np.asarray(counts, dtype=np.int64)
    triggered = np.abs(err) > unit.threshold
    clipped = np.clip(err, -unit.offset, 127 - unit.offset)
    return err, triggered, unit.offset + np.where(triggered, clipped, 0)


def box_gate(gate: BoxGate, membrane: IntOrArray) -> IntOrArray:
    """1 where u_min <= membrane <= u_max (inclusive), else 0."""
    m = np.asarray(membrane)
    out = ((m >= gate.u_min) & (m <= gate.u_max)).astype(np.int64)
    return int(out[()]) if out.ndim == 0 else out


def _soel_delta(unit: ErrorUnit, kernel: IntOrArray, gate_value: IntOrArray,
                cfg: PlasticityConfig) -> np.ndarray:
    lr = cfg.learning_rate
    raw = (unit.error_register - unit.offset) * np.asarray(kernel, dtype=np.int64)
    raw = raw * np.asarray(gate_value, dtype=np.int64)
    # Exact: operands are small integers scaled by a power of two.
    return raw.astype(np.float64) * (lr.numerator / lr.denominator)


def apply_soel_update(w: IntOrArray, unit: ErrorUnit, t: TraceState,
                      gate_value: IntOrArray, cfg: PlasticityConfig,
                      rng: Rng) -> IntOrArray:
    """One triggered weight update, stochastically rounded onto the even grid.

    Returns w unchanged (and draws nothing) when the unit is not triggered.
    """
    if not unit.triggered:
        return w
    delta = _soel_delta(unit, pre_kernel(t), gate_value, cfg)
    target = np.asarray(w, dtype=np.float64) + delta
    out = stochastic_round_array(np.atleast_1d(target), cfg.quant, rng)
    return int(out[0]) if np.ndim(w) == 0 else out.reshape(np.shape(w))


def unquantized_update(w: IntOrArray, unit: ErrorUnit, t: TraceState,
                       gate_value: IntOrArray, cfg: PlasticityConfig) -> np.ndarray:
    """Exact-arithmetic companion of apply_soel_update (no rounding).

    Shares operands with the quantized path; saturates at the weight range
    ends but keeps fractional precision. Used as a fidelity reference.
    """
    target = np.asarray(w, dtype=np.float64)
    if unit.triggered:
        target = target + _soel_delta(unit, pre_kernel(t), gate_value, cfg)
    return np.clip(target, cfg.quant.lo, cfg.quant.hi)


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


def compile_soel_to_sop(cfg: PlasticityConfig, unit: ErrorUnit) -> SopProgram:
    """Expand learning_rate * (E - C) * (x2 - x1) into four product terms."""
    lr, c = cfg.learning_rate, unit.offset
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


# --- vectorized trainer -----------------------------------------------------

@dataclass
class TrainStats:
    """Aggregate of one training pass over a spike window."""

    boundaries: int = 0
    triggered_updates: int = 0
    error_l1: int = 0
    spike_counts: np.ndarray | None = None
    error_per_class: np.ndarray | None = None


class SoelEngine:
    """Drives error-triggered updates on one network's dense output layer.

    Holds the trace/error/gate configuration and two private rng streams
    (trace rounding and weight rounding) whose counters advance only with
    use, so a rerun with the same seed replays bit-exactly.
    """

    def __init__(self, cfg: PlasticityConfig, unit_template: ErrorUnit,
                 trace_template: TraceState, gate: BoxGate, rng: Rng):
        self.cfg = cfg
        self.unit_template = unit_template
        self.trace_template = trace_template
        self.gate = gate
        self._trace_rng = rng.fork("traces")
        self._weight_rng = rng.fork("updates")

    def trace_kernels(self, trains: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Trace kernels x2 - x1 at every window boundary of consecutive passes.

        trains are the (steps, pre_size) spike arrays of the passes in the
        order they will be trained, each starting from zero traces. All
        passes step together, longest first so the running ones are a prefix;
        pass p's step t draws trace k at counter c0 + 2 * (steps of passes
        before p) + 2t + k, which is where p separate runs of update_trace
        would draw it. Returns one (steps // window, pre_size) int8 array per
        pass and leaves the trace stream at c0 + 2 * (all steps).
        """
        if not trains:
            return []
        rng, window, n = self._trace_rng, self.unit_template.window, trains[0].shape[1]
        order = sorted(range(len(trains)), key=lambda p: -len(trains[p]))
        steps = [len(trains[p]) for p in order]
        before = np.cumsum([0] + [len(s) for s in trains])
        # Counter of each (pass, trace) pair at step 0, in running order.
        first = [rng.counter + 2 * int(before[p]) + k for p in order for k in (0, 1)]
        x = np.zeros((len(trains), 2, n), dtype=np.int64)
        # Both traces lie in [0, 127], so their difference fits int8.
        kernels = np.zeros((len(trains), steps[0] // window, n), dtype=np.int8)
        running = len(trains)
        for t in range(steps[0]):
            while steps[running - 1] <= t:
                running -= 1
            spikes = np.stack([trains[p][t] for p in order[:running]])
            u = rng.uniforms_at([c + 2 * t for c in first[:2 * running]], n)
            x[:running] = _step_traces(x[:running], spikes, self.trace_template,
                                       u.reshape(running, 2, n))
            if (t + 1) % window == 0:
                kernels[:running, t // window] = x[:running, 1] - x[:running, 0]
        rng.counter += 2 * int(before[-1])
        out = [None] * len(trains)
        for i, p in enumerate(order):
            out[p] = kernels[i, :steps[i] // window]
        return out

    def train_on_spikes(self, head: DenseLayer, pre_spikes: np.ndarray,
                        targets: Sequence[int],
                        kernels: np.ndarray | None = None) -> TrainStats:
        """One pass over a (steps, pre_size) 0/1 spike array.

        targets holds the desired spike count per output neuron per window.
        The head's weights are updated in place at each window boundary
        where some unit's error exceeds its threshold. kernels are this
        pass's trace kernels from trace_kernels; when omitted the pass draws
        its own. The head steps a batch of one sample.
        """
        steps, pre_size = pre_spikes.shape
        n_out = head.out_size
        if len(targets) != n_out:
            raise ValueError(f"need {n_out} targets, got {len(targets)}")
        window = self.unit_template.window
        if kernels is None:
            kernels = self.trace_kernels([pre_spikes])[0]
        if kernels.shape != (steps // window, pre_size):
            raise ValueError(f"need {(steps // window, pre_size)} kernels, "
                             f"got {kernels.shape}")

        head.reset()
        targets = np.asarray(targets, dtype=np.int64)
        if np.any(targets < 0):
            raise ValueError("target must be >= 0")
        stats = TrainStats(spike_counts=np.zeros(n_out, dtype=np.int64),
                           error_per_class=np.zeros(n_out, dtype=np.int64))
        for b, start in enumerate(range(0, steps, window)):
            # Weights change only at boundaries, so one matmul drives the window.
            drives = head.drive(pre_spikes[start:start + window])
            window_counts = np.zeros(n_out, dtype=np.int64)
            for drive in drives:
                window_counts += head.fire(drive[None])[0]
            stats.spike_counts += window_counts
            if b < len(kernels):
                stats.boundaries += 1
                self._boundary_update(head, kernels[b], targets, window_counts, stats)
        return stats

    def _boundary_update(self, head, kernel, targets, window_counts, stats):
        err, triggered, register = evaluate_errors(self.unit_template, targets,
                                                   window_counts)
        stats.error_l1 += int(np.abs(err).sum())
        stats.error_per_class += np.abs(err)
        if not triggered.any():
            return
        stats.triggered_updates += int(triggered.sum())

        if self.cfg.box_enabled:
            gates = box_gate(self.gate, head.voltage[0])
        else:
            gates = np.ones(head.out_size, dtype=np.int64)
        lr = self.cfg.learning_rate
        row = (register - self.unit_template.offset) * gates
        delta = np.outer(row, kernel).astype(np.float64) * (lr.numerator / lr.denominator)
        new_w = stochastic_round_array(
            head.w + delta, self.cfg.quant, self._weight_rng
        )
        head.set_weights(new_w.astype(np.int8))
