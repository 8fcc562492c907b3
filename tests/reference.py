"""Scalar references of the learning rule, kept beside the tests that use them.

No program path runs these: the engine evaluates the rule as array
expressions over every class and client at once (fedspike.plasticity). The
tests check the engine and the rule's properties against these one-value
forms.
"""

from dataclasses import replace
from typing import Union

import numpy as np

from fedspike.plasticity import ErrorUnit, PlasticityConfig, TraceState
from fedspike.quant import Rng, stochastic_round_array

IntOrArray = Union[int, np.ndarray]


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

