"""Fixed-point number grids and the rounding rules every weight/trace write
goes through.

Two grids matter in practice: signed even 8-bit integers for synaptic
weights ({-128, -126, ..., 126}) and unsigned 7-bit integers for traces
({0, ..., 127}). Stochastic rounding is driven by a counter-based seeded
generator so that every draw is a pure function of
(seed, stream_id, counter, lane) and runs replay bit-exactly.

stochastic_round_array is the one entry point. It takes Dyadic values
num / 2^q, int64 numerators over one power of two, and rounds them in
integers against the raw draws (round_dyadic); there is no float form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

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
_S11 = np.uint64(11)


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
    return (z >> _S11) * (2.0 ** -53)


def stream_id_for(label: str) -> int:
    """Stable 64-bit stream id for a component label (FNV-1a)."""
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class Rng:
    """Counter-based deterministic generator keyed by (seed, stream_id).

    Each call to :meth:`u64` advances the counter by one and yields one value
    per lane, where the value is a pure function of (seed, stream_id,
    counter, lane). Distinct stream ids give independent streams, so every
    component (per-client traces, per-synapse weight rounding, data
    generation) can own its own replayable stream.
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

    def u64_at(self, counters, n: int) -> np.ndarray:
        """(len(counters), n) uint64: row i is what u64(n) gives at counter i.

        Pure: the counter does not move. The one-stream case of u64_at.
        """
        return u64_at(self.base, counters, n)


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


@dataclass(frozen=True)
class Dyadic:
    """The exact values num / 2^q: int64 numerators over one power of two."""

    num: np.ndarray
    q: int

    @property
    def shape(self) -> tuple[int, ...]:
        return np.shape(self.num)

    @property
    def size(self) -> int:
        return np.size(self.num)


def stochastic_round_array(values: Dyadic, spec: QuantSpec,
                           rng: Union[Rng, np.ndarray]) -> np.ndarray:
    """Vectorized stochastic rounding of the values num / 2^q onto spec's grid.

    Each value rounds to one of its two neighboring grid points, choosing the
    upper one with probability equal to the fractional position between them,
    so the expectation equals the input exactly. Out-of-range values saturate
    deterministically. rng is an Rng, which consumes one counter tick with
    lane i serving element i, or the uint64 draws themselves, one per value.
    Returns int64 shaped like values.num (see round_dyadic).
    """
    z = rng.u64(values.size).reshape(values.shape) if isinstance(rng, Rng) else rng
    return round_dyadic(values.num, values.q, spec, z)


def round_dyadic(num: np.ndarray, q: int, spec: QuantSpec, z: np.ndarray) -> np.ndarray:
    """Round the int64 values num / 2^q onto spec's grid with raw uint64 draws z.

    A value rounds up where its draw u = (z >> 11) * 2^-53 lies below its
    fraction r / 2^q, which is the integer compare (z >> 11) < r << (53 - q).
    The even grid rounds num / 2^(q + 1) onto the integers and doubles the
    result. z holds one draw per value; returns int64, saturated at the
    grid's ends. Its float64 oracle is in tests/reference.py; the two agree
    bit for bit wherever num / 2^q is exact in float64.
    """
    if not 0 <= q <= 54 - spec.step:
        raise ValueError(f"q must be in [0, {54 - spec.step}], got {q}")
    shift = q + spec.step - 1
    out = np.asarray(num >> shift)
    rem = num & ((1 << shift) - 1)
    # z >> 11 is below 2^53, so its int64 view is the same number.
    out += np.asarray(z >> _S11).view(np.int64) < (rem << (53 - shift))
    if spec.even_only:
        out <<= 1
    return np.minimum(np.maximum(out, spec.lo, out=out), spec.hi, out=out)
