"""Scalar and float64 references, kept beside the tests that use them.

No program path runs these: the engine evaluates the rule as array
expressions over every class and client at once (fedspike.plasticity), and
rounds in integers (fedspike.quant.round_dyadic). The tests check the engine
and the rule's properties against these forms. The rule's settings come from
an ExperimentConfig, as in the engine; a trace pair is a (2, ...) int64
array, x1 over x2, as update_trace takes it; one error unit's state after a
boundary is an (error, triggered, register) triple.

The same update is also expressible as a small sum-of-products program
(coefficient times a product of state factors), the form of an integer
learning engine; compile_soel_to_sop emits that form and evaluate_sop runs it
in exact arithmetic, which the tests use to cross-check
fedspike.plasticity.update_numerator, the numerator that trains.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

import numpy as np

from fedspike.config import ExperimentConfig
from fedspike.quant import TRACE_SPEC, WEIGHT_SPEC, QuantSpec, Rng, to_unit

IntOrArray = Union[int, np.ndarray]
ErrorState = tuple[int, bool, int]


# --- rounding ----------------------------------------------------------------

def uniforms(rng: Rng, n: int) -> np.ndarray:
    """n doubles in [0, 1), one per lane of rng's next draw (one counter tick)."""
    return to_unit(rng.u64(n))


def uniforms_at(rng: Rng, counters, n: int) -> np.ndarray:
    """(len(counters), n) doubles: row i is what uniforms(rng, n) gives at counter i.

    Pure: the counter does not move.
    """
    return to_unit(rng.u64_at(counters, n))


def round_with_uniforms(values: np.ndarray, u: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Round values onto spec's grid in float64, up where u is below the
    fractional part; saturates at the grid's ends. Returns int64.

    round_dyadic(num, q, spec, z) is this on num / 2^q and to_unit(z),
    wherever num / 2^q is exact in float64.
    """
    values = np.asarray(values, dtype=np.float64)
    step = float(spec.step)
    a = np.floor(values / step) * step
    a = np.where(u < (values - a) / step, a + step, a)
    return np.clip(a, spec.lo, spec.hi).astype(np.int64)


def round_nearest_even_int(v) -> int:
    """Nearest even integer to v (an int, float or Fraction); exact ties
    resolve toward zero. aggregate's tie rule, in exact rational arithmetic.
    """
    q = Fraction(v) / 2
    m = math.floor(q)
    r = q - m
    # At r = 1/2 the candidates 2m and 2m + 2 straddle the odd midpoint 2m + 1.
    if r > Fraction(1, 2) or (r == Fraction(1, 2) and 2 * m + 1 < 0):
        m += 1
    return 2 * m


def clamp_to_spec(v: int, spec: QuantSpec) -> int:
    """Saturating clamp into spec's representable set; on even-only grids an
    odd value also drops its low bit toward zero.
    """
    v = int(min(max(v, spec.lo), spec.hi))
    if spec.even_only and v % 2:
        v += -1 if v > 0 else 1
    return v


# --- the learning rule -------------------------------------------------------

def pre_kernel(x: np.ndarray) -> IntOrArray:
    """x2 - x1 of a trace pair; the pre-synaptic factor of the update."""
    diff = np.asarray(x[1], dtype=np.int64) - np.asarray(x[0], dtype=np.int64)
    return int(diff[()]) if diff.ndim == 0 else diff


def float_update_trace(cfg: ExperimentConfig, x: np.ndarray, pre_spike: IntOrArray,
                       rng: Rng) -> np.ndarray:
    """update_trace in float64: each trace decays to x * (1 - 2^-shift) and
    rounds through round_with_uniforms on the uniforms of the same two draws,
    then takes its impulse where pre_spike is 1 and saturates at 127.
    """
    x = np.asarray(x, dtype=np.int64)
    spike = np.broadcast_to(np.asarray(pre_spike, dtype=np.int64), x.shape[1:]).ravel()
    u = uniforms_at(rng, [rng.counter, rng.counter + 1], spike.size)
    rng.counter += 2
    new = [np.minimum(round_with_uniforms(xj.ravel() * (1.0 - 0.5**shift), uj, TRACE_SPEC)
                      + impulse * spike, TRACE_SPEC.hi)
           for xj, uj, shift, impulse in zip(x, u, (cfg.alpha1_shift, cfg.alpha2_shift),
                                             (cfg.impulse1, cfg.impulse2))]
    return np.stack(new).reshape(x.shape)


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


def apply_soel_update(w: IntOrArray, unit: ErrorState, x: np.ndarray,
                      gate_value: IntOrArray, cfg: ExperimentConfig,
                      rng: Rng) -> IntOrArray:
    """One triggered weight update, stochastically rounded onto the even grid
    in float64 on one draw of rng.

    Returns w unchanged (and draws nothing) when the unit is not triggered.
    """
    _, triggered, register = unit
    if not triggered:
        return w
    delta = _soel_delta(cfg, register, pre_kernel(x), gate_value)
    target = np.atleast_1d(np.asarray(w, dtype=np.float64) + delta)
    out = round_with_uniforms(target, uniforms(rng, target.size), WEIGHT_SPEC)
    return int(out[0]) if np.ndim(w) == 0 else out.reshape(np.shape(w))


def unquantized_update(w: IntOrArray, unit: ErrorState, x: np.ndarray,
                       gate_value: IntOrArray, cfg: ExperimentConfig) -> np.ndarray:
    """Exact-arithmetic companion of apply_soel_update (no rounding).

    Shares operands with the quantized path; saturates at the weight range
    ends but keeps fractional precision. Used as a fidelity reference.
    """
    _, triggered, register = unit
    target = np.asarray(w, dtype=np.float64)
    if triggered:
        target = target + _soel_delta(cfg, register, pre_kernel(x), gate_value)
    return np.clip(target, WEIGHT_SPEC.lo, WEIGHT_SPEC.hi)


# --- sum-of-products rule programs ------------------------------------------

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
