"""Fixed-point number grids and the rounding rules every weight/trace write
goes through.

Two grids matter in practice: signed even 8-bit integers for synaptic
weights ({-128, -126, ..., 126}) and unsigned 7-bit integers for traces
({0, ..., 127}). Stochastic rounding is driven by a counter-based seeded
generator so that every draw is a pure function of
(seed, stream_id, counter, lane) and runs replay bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

Real = Union[int, float, Fraction]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LANE = 0xD1342543DE82EF95


@dataclass(frozen=True)
class QuantSpec:
    """Precision rules for one register class (bit width, sign, grid)."""

    bits: int
    signed: bool
    even_only: bool

    def __post_init__(self):
        if not 1 <= self.bits <= 16:
            raise ValueError(f"bits must be in [1, 16], got {self.bits}")
        if self.even_only and not self.signed:
            raise ValueError("even_only grids are signed (even weight grid)")

    @property
    def step(self) -> int:
        return 2 if self.even_only else 1

    @property
    def lo(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def hi(self) -> int:
        hi = (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1
        if self.even_only and hi % 2:
            hi -= 1
        return hi

    def contains(self, v: int) -> bool:
        return self.lo <= v <= self.hi and (not self.even_only or v % 2 == 0)


WEIGHT_SPEC = QuantSpec(bits=8, signed=True, even_only=True)
TRACE_SPEC = QuantSpec(bits=7, signed=False, even_only=False)


def _mix64(z: int) -> int:
    """Finalizer-style 64-bit mix (bijective on the 64-bit space)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# The mix's constants as numpy scalars, built once: on the one-row draws of
# Rng.u64, building them on every call cost about a third of the draw.
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_GOLDEN_U, _LANE_U = np.uint64(_GOLDEN), np.uint64(_LANE)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """_mix64 of each element of a uint64 array, in place."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def to_unit(z: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each uint64 draw."""
    return (z >> np.uint64(11)) * (2.0 ** -53)


def stream_id_for(label: str) -> int:
    """Stable 64-bit stream id for a component label (FNV-1a)."""
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class Rng:
    """Counter-based deterministic generator keyed by (seed, stream_id).

    Each call to :meth:`u64` / :meth:`uniforms` advances the counter by one
    and yields one value per lane, where the value is a pure function of
    (seed, stream_id, counter, lane). Distinct stream ids give independent
    streams, so every component (per-client traces, per-synapse weight
    rounding, data generation) can own its own replayable stream.
    """

    def __init__(self, seed: int, stream_id: int = 0, counter: int = 0):
        self.seed = seed & _MASK64
        self.stream_id = stream_id & _MASK64
        self.counter = counter
        # Every draw of the stream is a function of base, counter and lane.
        self.base = _mix64(_mix64(self.seed ^ _GOLDEN) ^ _mix64(self.stream_id))

    def fork(self, child: Union[int, str]) -> "Rng":
        """Derive an independent child stream; the parent is not advanced."""
        child_id = stream_id_for(child) if isinstance(child, str) else child & _MASK64
        return Rng(self.seed, _mix64(self.stream_id ^ _mix64(child_id ^ _GOLDEN)))

    def u64(self, n: int) -> np.ndarray:
        row = u64_at(self.base, [self.counter], n)[0]
        self.counter += 1
        return row

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), one per lane, advancing the counter once."""
        return to_unit(self.u64(n))

    def u64_at(self, counters, n: int) -> np.ndarray:
        """(len(counters), n) uint64: row i is what u64(n) gives at counter i.

        Pure: the counter does not move. The one-stream case of u64_at.
        """
        return u64_at(self.base, counters, n)

    def uniforms_at(self, counters, n: int) -> np.ndarray:
        """(len(counters), n) doubles: row i is what uniforms(n) gives at counter i."""
        return to_unit(self.u64_at(counters, n))


def u64_at(bases, counters, n: int) -> np.ndarray:
    """(len(counters), n) uint64: row i is what u64(n) gives at counter i of
    the stream whose Rng.base is bases[i] (one base serves every row).

    Pure. counters are taken modulo 2^64, as the counter is in every draw;
    an integer numpy array is used as is.
    """
    if not (isinstance(counters, np.ndarray) and counters.dtype.kind in "iu"):
        counters = np.array([int(c) & _MASK64 for c in counters], dtype=np.uint64)
    h = _mix64_np(np.asarray(bases, dtype=np.uint64)
                  + counters.astype(np.uint64, copy=False) * _GOLDEN_U)
    return _mix64_np(h[:, None] + np.arange(n, dtype=np.uint64) * _LANE_U)


def stochastic_round_array(values: np.ndarray, spec: QuantSpec, rng: Rng) -> np.ndarray:
    """Vectorized stochastic rounding onto spec's grid.

    Each value rounds to one of its two neighboring grid points, choosing the
    upper one with probability equal to the fractional position between them,
    so the expectation equals the input exactly. Out-of-range values saturate
    deterministically. Consumes one counter tick; lane i serves element i.
    """
    values = np.asarray(values, dtype=np.float64)
    return round_with_uniforms(values, rng.uniforms(values.size).reshape(values.shape), spec)


def round_with_uniforms(values: np.ndarray, u: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Round values onto spec's grid, up where u is below the fractional part.

    The step shared by every stochastic rounding: u holds one uniform draw
    per value (see stochastic_round_array). Returns int64.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite input")
    step = float(spec.step)
    a = np.floor(values / step, out=np.empty_like(values))  # an array even when 0-d
    a *= step
    a[u < (values - a) / step] += step
    return np.minimum(np.maximum(a, spec.lo, out=a), spec.hi, out=a).astype(np.int64)


def stochastic_round(v: Real, spec: QuantSpec, rng: Rng) -> int:
    """Stochastically round one value onto spec's grid (see array form)."""
    return int(stochastic_round_array(np.array([float(v)]), spec, rng)[0])


def round_nearest_even_int(v: Real) -> int:
    """Nearest even integer to v; exact ties resolve toward zero.

    Computed in exact rational arithmetic so float and Fraction inputs give
    platform-independent results.
    """
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError("non-finite input")
    q = Fraction(v) / 2
    m = math.floor(q)
    r = q - m
    if r > Fraction(1, 2):
        m += 1
    elif r == Fraction(1, 2):
        # Candidates 2m and 2m+2 straddle the odd midpoint 2m+1.
        if 2 * m + 1 < 0:
            m += 1
    return 2 * m


def clamp_to_spec(v: int, spec: QuantSpec) -> int:
    """Saturating clamp into spec's representable set.

    On even-only grids an odd value additionally drops its low bit by
    rounding toward zero.
    """
    v = int(min(max(v, spec.lo), spec.hi))
    if spec.even_only and v % 2:
        v += -1 if v > 0 else 1
    return v

