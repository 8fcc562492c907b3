"""Scalar references of the learning rule, kept beside the tests that use them.

No program path runs these: the engine evaluates the rule as array
expressions over every class and client at once (fedspike.plasticity). The
tests check the engine and the rule's properties against these one-value
forms. The rule's settings come from an ExperimentConfig, as in the engine;
one error unit's state after a boundary is an (error, triggered, register)
triple.
"""

from dataclasses import replace
from typing import Union

import numpy as np

from fedspike.config import ExperimentConfig
from fedspike.plasticity import TraceState
from fedspike.quant import TRACE_SPEC, WEIGHT_SPEC, Rng, round_with_uniforms, stochastic_round_array

IntOrArray = Union[int, np.ndarray]
ErrorState = tuple[int, bool, int]


def pre_kernel(t: TraceState) -> IntOrArray:
    """Difference of the two traces; the pre-synaptic factor of the update."""
    diff = np.asarray(t.x2, dtype=np.int64) - np.asarray(t.x1, dtype=np.int64)
    return int(diff[()]) if diff.ndim == 0 else diff


def float_update_trace(t: TraceState, pre_spike: IntOrArray, rng: Rng) -> TraceState:
    """update_trace in float64: each trace decays to x * (1 - 2^-shift) and
    rounds through round_with_uniforms on the uniforms of the same two draws,
    then takes its impulse where pre_spike is 1 and saturates at 127.
    """
    x1, x2, spike = np.broadcast_arrays(np.asarray(t.x1, dtype=np.int64),
                                        np.asarray(t.x2, dtype=np.int64),
                                        np.asarray(pre_spike, dtype=np.int64))
    u = rng.uniforms_at([rng.counter, rng.counter + 1], x1.size)
    rng.counter += 2
    new = []
    for x, uj, shift, impulse in zip((x1, x2), u, (t.alpha1_shift, t.alpha2_shift),
                                     (t.impulse1, t.impulse2)):
        decayed = round_with_uniforms(x.ravel() * (1.0 - 0.5**shift), uj, TRACE_SPEC)
        x = np.minimum(decayed + impulse * spike.ravel(), TRACE_SPEC.hi).reshape(x1.shape)
        new.append(int(x) if x.ndim == 0 else x)
    return replace(t, x1=new[0], x2=new[1])


def evaluate_error(cfg: ExperimentConfig, target: int, spike_count: int) -> ErrorState:
    """Compare the window's spike count against the target at a boundary."""
    err = int(target) - int(spike_count)
    triggered = abs(err) > cfg.error_threshold
    offset = cfg.error_offset
    register = offset + (max(-offset, min(err, 127 - offset)) if triggered else 0)
    return err, triggered, register


def _soel_delta(cfg: ExperimentConfig, register: int, kernel: IntOrArray,
                gate_value: IntOrArray) -> np.ndarray:
    lr = cfg.learning_rate
    raw = (register - cfg.error_offset) * np.asarray(kernel, dtype=np.int64)
    raw = raw * np.asarray(gate_value, dtype=np.int64)
    # Exact: operands are small integers scaled by a power of two.
    return raw.astype(np.float64) * (lr.numerator / lr.denominator)


def apply_soel_update(w: IntOrArray, unit: ErrorState, t: TraceState,
                      gate_value: IntOrArray, cfg: ExperimentConfig,
                      rng: Rng) -> IntOrArray:
    """One triggered weight update, stochastically rounded onto the even grid.

    Returns w unchanged (and draws nothing) when the unit is not triggered.
    """
    _, triggered, register = unit
    if not triggered:
        return w
    delta = _soel_delta(cfg, register, pre_kernel(t), gate_value)
    target = np.asarray(w, dtype=np.float64) + delta
    out = stochastic_round_array(np.atleast_1d(target), WEIGHT_SPEC, rng)
    return int(out[0]) if np.ndim(w) == 0 else out.reshape(np.shape(w))


def unquantized_update(w: IntOrArray, unit: ErrorState, t: TraceState,
                       gate_value: IntOrArray, cfg: ExperimentConfig) -> np.ndarray:
    """Exact-arithmetic companion of apply_soel_update (no rounding).

    Shares operands with the quantized path; saturates at the weight range
    ends but keeps fractional precision. Used as a fidelity reference.
    """
    _, triggered, register = unit
    target = np.asarray(w, dtype=np.float64)
    if triggered:
        target = target + _soel_delta(cfg, register, pre_kernel(t), gate_value)
    return np.clip(target, WEIGHT_SPEC.lo, WEIGHT_SPEC.hi)
