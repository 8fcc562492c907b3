"""Rounding-grid behavior: stochastic rounding, its float64 and exact
references, and the determinism contract of the counter-based generator."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspike.quant import (
    Dyadic,
    Rng,
    QuantSpec,
    TRACE_SPEC,
    WEIGHT_SPEC,
    to_unit,
    u64_at,
    stochastic_round_array,
    stream_id_for,
)
from reference import (clamp_to_spec, round_nearest_even_int, round_with_uniforms, uniforms,
                       uniforms_at)

UNIT_SPEC = QuantSpec(bits=8, signed=True, even_only=False)


def on_grid(v, spec):
    return spec.lo <= v <= spec.hi and v % spec.step == 0


def rounded(nums, q, spec, z):
    """stochastic_round_array on the values nums / 2^q with the draws z."""
    return stochastic_round_array(Dyadic(nums, q), spec, z)


def stochastic_round(num, q, spec, rng):
    """Round the one value num / 2^q with rng's next draw."""
    return int(rounded(np.array([num]), q, spec, rng.u64(1))[0])


def mc_mean(num, q, spec, n=100_000, seed=7):
    rng = Rng(seed, stream_id_for("mc"))
    draws = rounded(np.full(n, num), q, spec, rng.u64(n))
    return draws.mean(), draws


class TestStochasticRound:
    def test_on_grid_is_exact(self):
        rng = Rng(1)
        assert all(stochastic_round(3 << 5, 5, TRACE_SPEC, rng) == 3 for _ in range(50))

    def test_saturates_above(self):
        rng = Rng(1)
        assert stochastic_round(200, 0, TRACE_SPEC, rng) == 127

    def test_saturates_below_even(self):
        rng = Rng(1)
        assert stochastic_round(-400, 0, WEIGHT_SPEC, rng) == -128

    def test_unit_grid_split(self):
        # 3.25 = 13/4 sits a quarter of the way up: mean of draws ~ 3.25.
        mean, draws = mc_mean(13, 2, UNIT_SPEC)
        assert set(np.unique(draws)) == {3, 4}
        assert abs(mean - 3.25) < 0.01

    def test_even_grid_split(self):
        # 5.5 = 11/2 between 4 and 6 -> 6 with p=0.75.
        mean, draws = mc_mean(11, 1, WEIGHT_SPEC)
        assert set(np.unique(draws)) == {4, 6}
        p6 = np.mean(draws == 6)
        sigma = math.sqrt(0.75 * 0.25 / len(draws))
        assert abs(p6 - 0.75) < 4 * sigma

    @given(v=st.integers(-120 << 20, 120 << 20), q=st.integers(0, 20),
           seed=st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_returns_a_neighbor(self, v, q, seed):
        num = v >> (20 - q)  # num / 2^q in [-120, 120]
        out = stochastic_round(num, q, WEIGHT_SPEC, Rng(seed))
        a = 2 * math.floor(Fraction(num, 2**q) / 2)
        assert out in (a, a + 2)
        assert on_grid(out, WEIGHT_SPEC)

    def test_replay_identical(self):
        vals = Dyadic(np.arange(-3200, 3201, 25), 5)  # linspace(-100, 100, 257)
        a = stochastic_round_array(vals, WEIGHT_SPEC, Rng(99, 5).u64(vals.size))
        b = stochastic_round_array(vals, WEIGHT_SPEC, Rng(99, 5).u64(vals.size))
        assert np.array_equal(a, b)


class TestRoundWithUniforms:
    """The float64 reference of stochastic_round_array (tests/reference.py)."""

    def test_draw_below_fraction_rounds_up(self):
        vals = np.array([3.25, 3.25, -3.25, 5.5, 5.5, 4.0])
        u = np.array([0.2, 0.3, 0.7, 0.7, 0.8, 0.0])
        assert round_with_uniforms(vals[:3], u[:3], UNIT_SPEC).tolist() == [4, 3, -3]
        assert round_with_uniforms(vals[3:], u[3:], WEIGHT_SPEC).tolist() == [6, 4, 4]

    def test_saturates(self):
        assert round_with_uniforms(np.array([300.0, -300.0]), np.zeros(2),
                                   WEIGHT_SPEC).tolist() == [126, -128]

    @given(seed=st.integers(0, 2**64 - 1), counter=st.integers(0, 2**66))
    @settings(max_examples=50)
    def test_is_the_step_of_stochastic_round_array(self, seed, counter):
        # -140 to 140 in steps of 8.75 = 35/4.
        nums = np.arange(-560, 561, 35)
        u = uniforms(Rng(seed, 3, counter), nums.size)
        got = rounded(nums, 2, WEIGHT_SPEC, Rng(seed, 3, counter).u64(nums.size))
        assert np.array_equal(round_with_uniforms(nums / 4.0, u, WEIGHT_SPEC), got)


@st.composite
def dyadic_cases(draw):
    """(spec, q, nums, draws) with every num / 2^q exact in float64.

    Each value's integer part lies near or past the grid's ends (or anywhere
    the 53-bit bound allows), and each draw is 0, 2^64 - 1, random, or just
    below or at the point where the rounding flips.
    """
    spec = draw(st.sampled_from([WEIGHT_SPEC, TRACE_SPEC, UNIT_SPEC]))
    q = draw(st.integers(0, 54 - spec.step))
    shift = q + spec.step - 1
    bound = 1 << (53 - shift)  # |floor| <= bound keeps |num| <= 2^53
    floors = st.integers(max(-bound, spec.lo // spec.step - 3),
                         min(bound - 1, spec.hi // spec.step + 3))
    nums, draws = [], []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            num = (draw(floors) << shift) + draw(st.integers(0, (1 << shift) - 1))
        else:
            num = draw(st.integers(-(1 << 53), 1 << 53))
        flip = (num % (1 << shift)) << (53 - shift)  # draws below it round up
        kind = draw(st.sampled_from(["zero", "max", "random", "below", "at"]))
        low = draw(st.integers(0, 2047))
        z = {"zero": 0, "max": 2**64 - 1, "random": draw(st.integers(0, 2**64 - 1)),
             "below": max(flip - 1, 0) << 11 | low, "at": flip << 11 | low}[kind]
        nums.append(num)
        draws.append(z)
    return spec, q, np.array(nums, dtype=np.int64), np.array(draws, dtype=np.uint64)


class TestRoundDyadic:
    """stochastic_round_array(Dyadic(num, q), spec, z) is
    round_with_uniforms(num / 2^q, to_unit(z), spec) bit for bit wherever
    num / 2^q is exact in float64."""

    def test_examples(self):
        z_half = np.full(4, 1 << 63, dtype=np.uint64)
        # 13/4 = 3.25 on the unit grid; -7/4 = -1.75 on the even grid lies a
        # quarter of the way from -2 up to 0; both stay down at u = 1/2.
        assert rounded(np.array([13, -7]), 2, UNIT_SPEC, z_half[:2]).tolist() == [3, -2]
        # 3/2 on the trace grid: u = 1/2 is not below 1/2, u just below it is.
        below = np.array([(1 << 63) - (1 << 11)], dtype=np.uint64)
        assert rounded(np.array([3]), 1, TRACE_SPEC, z_half[:1]).tolist() == [1]
        assert rounded(np.array([3]), 1, TRACE_SPEC, below).tolist() == [2]
        # Saturation at both ends, and a value on the grid never moves.
        nums = np.array([1000 << 5, -1000 << 5, 40 << 5, 39])
        assert rounded(nums, 5, WEIGHT_SPEC, z_half * 0).tolist() == [126, -128, 40, 2]

    @given(case=dyadic_cases())
    @settings(max_examples=400)
    def test_equals_float_rounding_on_the_uniforms(self, case):
        spec, q, nums, z = case
        got = rounded(nums, q, spec, z)
        want = round_with_uniforms(nums / 2.0**q, to_unit(z), spec)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @given(seed=st.integers(0, 2**64 - 1), counter=st.sampled_from([0, 2**64 - 1]),
           q=st.integers(0, 12))
    @settings(max_examples=50)
    def test_keeps_the_shape_of_its_operands(self, seed, counter, q):
        nums = np.arange(-600, 600).reshape(2, 3, 200) << (q // 2)
        z = Rng(seed, 5, counter).u64(nums.size).reshape(nums.shape)
        got = rounded(nums, q, TRACE_SPEC, z)
        assert got.shape == nums.shape
        assert np.array_equal(got, round_with_uniforms(nums / 2.0**q, to_unit(z), TRACE_SPEC))

    @given(case=dyadic_cases(), seed=st.integers(0, 2**64 - 1),
           counter=st.sampled_from([0, 2**64 - 1]))
    @settings(max_examples=100)
    def test_is_the_dyadic_step_of_stochastic_round_array(self, case, seed, counter):
        # A caller rounds with one counter tick of its stream: Rng.u64, or
        # the row of u64_at at that counter, give the same result.
        spec, q, nums, z = case
        want = round_with_uniforms(nums / 2.0**q, to_unit(z), spec)
        assert np.array_equal(rounded(nums, q, spec, z), want)
        rng = Rng(seed, 3, counter)
        got = rounded(nums, q, spec, rng.u64(nums.size))
        assert rng.counter == counter + 1
        z = u64_at(rng.base, [counter], nums.size)[0]
        assert np.array_equal(got, rounded(nums, q, spec, z))

    @pytest.mark.parametrize("q, spec", [(-1, TRACE_SPEC), (54, TRACE_SPEC),
                                         (53, WEIGHT_SPEC), (-1, WEIGHT_SPEC)])
    def test_shift_outside_the_53_bit_draw_rejected(self, q, spec):
        with pytest.raises(ValueError, match="q must be in"):
            rounded(np.array([1]), q, spec, np.zeros(1, dtype=np.uint64))


class TestTopBitCompare:
    """stochastic_round_array compares a draw's top s bits with the remainder,
    (z >> (64 - s)) < r, where the float rule compares 53 bits,
    (z >> 11) < r << (53 - s). Every shift of both grids, at the draw where
    the rounding flips and just below it, in int64 and in int32."""

    @staticmethod
    def cases(shift):
        """(floors, remainders, draws) at shift s: each remainder r with the
        draw r << (64 - s), which rounds down, the draw one below, which rounds
        up where r > 0, and draws whose low bits are all set on either side."""
        top = (1 << shift) - 1
        rems = sorted({r for r in (0, 1, 2, top // 3, top - top // 2, top) if r <= top})
        low = (1 << (64 - shift)) - 1
        rem, z = [], []
        for r in rems:
            at = r << (64 - shift)
            for d in (at, at | low, at - 1, at - 1 - low):
                if 0 <= d < 1 << 64:
                    rem.append(r)
                    z.append(d)
        # Floors whose values sit inside both grids and stay exact in float64.
        floors = [0] if shift == 53 else [0, 1]
        rem, z = np.array(rem, dtype=np.int64), np.array(z, dtype=np.uint64)
        nums = np.concatenate([(f << shift) + rem for f in floors])
        return nums, np.tile(z, len(floors)), np.tile(rem, len(floors))

    @pytest.mark.parametrize("spec", [TRACE_SPEC, WEIGHT_SPEC], ids=["trace", "weight"])
    def test_every_shift_equals_the_53_bit_compare_and_the_float_rule(self, spec):
        for shift in range(1, 54):
            q = shift - spec.step + 1
            nums, z, rem = self.cases(shift)
            up = (z >> np.uint64(11)).view(np.int64) < (rem << (53 - shift))
            assert up.any() and not up.all()
            want = (((nums >> shift) + up) * spec.step).clip(spec.lo, spec.hi)
            oracle = round_with_uniforms(nums / 2.0**q, to_unit(z), spec)
            assert np.array_equal(want, oracle)
            got = rounded(nums, q, spec, z)
            assert got.dtype == np.int64 and np.array_equal(got, want), shift
            if 1 << shift <= np.iinfo(np.int32).max:
                small = rounded(nums.astype(np.int32), q, spec, z)
                assert small.dtype == np.int32 and np.array_equal(small, want), shift

    @pytest.mark.parametrize("spec", [TRACE_SPEC, WEIGHT_SPEC], ids=["trace", "weight"])
    def test_int32_widens_where_it_cannot_hold_the_shift(self, spec):
        # At s = 31 an int32 numerator is its own remainder: it rounds in int64.
        nums = np.array([0, 1, 2**31 - 1], dtype=np.int32)
        z = np.array([2**64 - 1, 0, (2**31 - 1 << 33) - 1], dtype=np.uint64)
        q = 31 - spec.step + 1
        got = rounded(nums, q, spec, z)
        assert got.dtype == np.int64
        assert np.array_equal(got, round_with_uniforms(nums / 2.0**q, to_unit(z), spec))
        assert got.tolist() == [0, spec.step, spec.step]

    def test_shift_0_never_rounds_up(self):
        # Integers on the unit grid have no fraction, whatever the draw.
        nums = np.array([-5, 0, 3, 127, 200], dtype=np.int32)
        z = np.full(nums.shape, 2**64 - 1, dtype=np.uint64)
        got = rounded(nums, 0, TRACE_SPEC, z)
        assert got.dtype == np.int32 and got.tolist() == [0, 0, 3, 127, 127]

    def test_int8_numerators_widen_to_int64(self):
        # 127 / 2 on the even grid is 63.5 halves: doubling 64 in int8 would
        # wrap, so int8 rounds in int64 and saturates at 126.
        got = rounded(np.array([127, -128], dtype=np.int8), 0, WEIGHT_SPEC,
                      np.zeros(2, dtype=np.uint64))
        assert got.dtype == np.int64 and got.tolist() == [126, -128]


class TestUniformsAt:
    """The reference's uniforms_at: to_unit of u64_at on the stream's base."""

    COUNTERS = st.one_of(st.integers(0, 2**32 + 8), st.integers(2**32, 2**63),
                         st.integers(2**64 - 8, 2**64 + 8))

    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1),
           counters=st.lists(COUNTERS, min_size=1, max_size=6), n=st.integers(0, 40))
    @settings(max_examples=100)
    def test_row_is_uniforms_at_that_counter(self, seed, stream, counters, n):
        rng = Rng(seed, stream, counter=17)
        got = uniforms_at(rng, counters, n)
        assert got.shape == (len(counters), n) and rng.counter == 17
        for row, c in zip(got, counters):
            want = uniforms(Rng(seed, stream, counter=c), n)
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))

    def test_counter_wraps_at_2_64(self):
        rng = Rng(5, 9)
        wrapped = uniforms_at(rng, [2**64 - 1, 2**64, 2**64 + 1], 4)
        plain = uniforms_at(rng, [2**64 - 1, 0, 1], 4)
        assert np.array_equal(wrapped, plain)
        assert not np.array_equal(wrapped[0], wrapped[1])


class TestU64At:
    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1),
           counters=st.lists(TestUniformsAt.COUNTERS, min_size=1, max_size=6),
           n=st.integers(0, 40))
    @settings(max_examples=100)
    def test_row_is_u64_at_that_counter(self, seed, stream, counters, n):
        rng = Rng(seed, stream, counter=17)
        got = u64_at(rng.base, counters, n)
        assert got.dtype == np.uint64 and got.shape == (len(counters), n)
        assert rng.counter == 17
        for row, c in zip(got, counters):
            assert np.array_equal(row, Rng(seed, stream, counter=c).u64(n))

    def test_integer_array_counters(self):
        rng = Rng(5, 9)
        for counters in (np.arange(2**64 - 3, 2**64, dtype=np.uint64),
                         np.array([0, 2**63 - 1], dtype=np.int64)):
            got = u64_at(rng.base, counters, 3)
            for row, c in zip(got, counters):
                assert np.array_equal(row, Rng(5, 9, counter=int(c)).u64(3))

    def test_counters_past_2_64_wrap(self):
        rng = Rng(5, 9)
        got = u64_at(rng.base, [2**64, 2**64 + 1, 2**65 + 3], 3)
        assert np.array_equal(got, u64_at(rng.base, [0, 1, 3], 3))
        assert np.array_equal(got[2], Rng(5, 9, counter=2**65 + 3).u64(3))


class TestMultiStreamU64At:
    """u64_at over one stream base per row: what trains every client's trace
    passes in one recurrence."""

    ROWS = st.tuples(st.integers(0, 2**64 - 1), TestUniformsAt.COUNTERS)

    @given(seed=st.integers(0, 2**64 - 1), rows=st.lists(ROWS, min_size=1, max_size=8),
           n=st.integers(0, 40))
    @settings(max_examples=100)
    def test_row_is_its_streams_draw_at_its_counter(self, seed, rows, n):
        bases = [Rng(seed, stream).base for stream, _ in rows]
        counters = [c for _, c in rows]
        got = u64_at(np.array(bases, dtype=np.uint64), counters, n)
        assert got.dtype == np.uint64 and got.shape == (len(rows), n)
        for row, (stream, c) in zip(got, rows):
            assert np.array_equal(row, Rng(seed, stream, counter=c).u64(n))

    def test_mixed_streams_at_and_past_the_wrap(self):
        streams = Rng(3, 1), Rng(3, 2)
        bases = np.array([streams[i % 2].base for i in range(6)], dtype=np.uint64)
        counters = np.array([2**64 - 2, 2**64 - 1, 0, 1, 2**64 - 1, 5], dtype=np.uint64)
        got = u64_at(bases, counters + np.uint64(1), 4)
        for i, row in enumerate(got):
            want = Rng(3, 1 + i % 2, counter=int(counters[i]) + 1).u64(4)
            assert np.array_equal(row, want)

    def test_one_base_serves_every_row(self):
        # One base is a stream's base repeated on every row; Rng.u64 is the
        # one-row case at the stream's counter.
        rng = Rng(5, 9, counter=4)
        counters = [0, 2**64 - 1, 2**64 + 2]
        bases = np.full(len(counters), rng.base, dtype=np.uint64)
        assert np.array_equal(u64_at(bases, counters, 5), u64_at(rng.base, counters, 5))
        assert np.array_equal(u64_at(rng.base, [4], 5)[0], rng.u64(5))


class TestRoundNearestEven:
    """The exact reference of aggregate's tie rule (tests/reference.py)."""

    @pytest.mark.parametrize(
        "v,expected",
        [
            (6.0, 6),
            (5.0, 4),    # tie between 4 and 6, toward zero
            (-5.0, -4),  # tie mirrored
            (-3.2, -4),
            (0.4, 0),
            (1.0, 0),    # tie between 0 and 2, toward zero
            (-1.0, 0),
            (7.1, 8),
        ],
    )
    def test_examples(self, v, expected):
        assert round_nearest_even_int(v) == expected

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            round_nearest_even_int(float("nan"))

    @given(v=st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=300)
    def test_always_even_within_one(self, v):
        out = round_nearest_even_int(v)
        assert out % 2 == 0
        assert abs(v - out) <= 1.0

    def test_exact_fraction_input(self):
        assert round_nearest_even_int(Fraction(2, 5)) == 0
        assert round_nearest_even_int(Fraction(5, 1)) == 4
        assert round_nearest_even_int(Fraction(-7, 2)) == -4


class TestClamp:
    """The saturating clamp of the reference (tests/reference.py)."""

    @pytest.mark.parametrize(
        "v,spec,expected",
        [
            (127, WEIGHT_SPEC, 126),
            (-500, WEIGHT_SPEC, -128),
            (64, TRACE_SPEC, 64),
            (-127, WEIGHT_SPEC, -126),
            (300, TRACE_SPEC, 127),
            (-3, TRACE_SPEC, 0),
        ],
    )
    def test_examples(self, v, spec, expected):
        assert clamp_to_spec(v, spec) == expected

    @given(v=st.integers(-1000, 1000))
    def test_idempotent_and_in_range(self, v):
        out = clamp_to_spec(v, WEIGHT_SPEC)
        assert on_grid(out, WEIGHT_SPEC)
        assert clamp_to_spec(out, WEIGHT_SPEC) == out


class TestQuantSpec:
    def test_weight_grid_bounds(self):
        assert WEIGHT_SPEC.lo == -128
        assert WEIGHT_SPEC.hi == 126
        assert WEIGHT_SPEC.step == 2

    def test_trace_grid_bounds(self):
        assert TRACE_SPEC.lo == 0
        assert TRACE_SPEC.hi == 127

    def test_bits_range_enforced(self):
        with pytest.raises(ValueError):
            QuantSpec(bits=0, signed=True, even_only=False)
        with pytest.raises(ValueError):
            QuantSpec(bits=17, signed=True, even_only=False)

    def test_even_only_implies_signed(self):
        with pytest.raises(ValueError):
            QuantSpec(bits=8, signed=False, even_only=True)

    @given(values=st.lists(st.integers(-300, 300), max_size=6),
           spec=st.sampled_from([WEIGHT_SPEC, TRACE_SPEC, UNIT_SPEC]))
    def test_holds_is_every_value_on_the_grid(self, values, spec):
        # The one grid check of weight layers, snapshots and weight files.
        for dtype in (np.int64, np.int16):
            v = np.array(values, dtype=dtype)
            assert spec.holds(v) == all(on_grid(x, spec) for x in values)


class TestRng:
    def test_same_key_same_sequence(self):
        a = Rng(42, 7)
        b = Rng(42, 7)
        assert np.array_equal(a.u64(100), b.u64(100))
        assert np.array_equal(a.u64(100), b.u64(100))

    def test_distinct_streams_differ(self):
        a = Rng(42, 1).u64(64)
        b = Rng(42, 2).u64(64)
        assert not np.array_equal(a, b)

    def test_fork_is_deterministic_and_independent(self):
        root = Rng(42)
        c1 = root.fork("client/0")
        c2 = root.fork("client/0")
        other = root.fork("client/1")
        assert np.array_equal(c1.u64(16), c2.u64(16))
        assert not np.array_equal(Rng(42).fork("client/0").u64(16), other.u64(16))

    def test_counter_advances_per_call(self):
        rng = Rng(1, 1)
        first = rng.u64(4)
        second = rng.u64(4)
        assert not np.array_equal(first, second)
        assert rng.counter == 2

    def test_uniforms_in_unit_interval(self):
        u = to_unit(Rng(3, 3).u64(10_000))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_stream_id_for_stable(self):
        assert stream_id_for("traces/x1") == stream_id_for("traces/x1")
        assert stream_id_for("traces/x1") != stream_id_for("traces/x2")
