"""Event file round-trips, frame binning, synthetic gestures and splits."""

import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspike.data import (
    DEFAULT_DURATION_US,
    EVENT_DTYPE,
    HEADER_SIZE,
    EventFormatError,
    GestureSample,
    NUM_SYNTHETIC_CLASSES,
    bin_events,
    generate_synthetic,
    make_splits,
    read_events,
    write_events,
    _pattern_pixels,
)
from fedspike.config import ExperimentConfig
from fedspike.experiment import synth_pool as stock_pool
from fedspike.quant import Rng, u64_at
from fedspike.snn import LayerTopology, SumPoolLayer
from reference import uniforms


def make_sample(n=1000, seed=0, width=32, height=32, label=3, subject=7):
    rng = np.random.default_rng(seed)
    ev = np.zeros(n, dtype=EVENT_DTYPE)
    ev["timestamp_us"] = np.sort(rng.integers(0, DEFAULT_DURATION_US, size=n))
    ev["x"] = rng.integers(0, width, size=n)
    ev["y"] = rng.integers(0, height, size=n)
    ev["polarity"] = rng.integers(0, 2, size=n)
    return GestureSample(ev, label=label, subject=subject, width=width, height=height)


class TestEventFiles:
    def test_round_trip(self, tmp_path):
        sample = make_sample()
        path = tmp_path / "g.nfev"
        write_events(path, sample)
        back = read_events(path)
        assert np.array_equal(back.events, sample.events)
        assert (back.label, back.subject) == (3, 7)
        assert (back.width, back.height) == (32, 32)
        assert back.duration_us == DEFAULT_DURATION_US

    def test_empty_stream_is_valid(self, tmp_path):
        sample = GestureSample(np.zeros(0, dtype=EVENT_DTYPE), label=0)
        path = tmp_path / "g.nfev"
        write_events(path, sample)
        assert len(read_events(path).events) == 0

    def test_coordinate_out_of_bounds_rejected(self, tmp_path):
        sample = make_sample(n=10)
        sample.events["x"][5] = sample.width
        with pytest.raises(EventFormatError) as exc:
            write_events(tmp_path / "g.nfev", sample)
        assert exc.value.code == "OUT_OF_BOUNDS"

    def test_non_monotonic_rejected(self, tmp_path):
        sample = make_sample(n=10)
        sample.events["timestamp_us"][4] = 10**6
        sample.events["timestamp_us"][5] = 0
        with pytest.raises(EventFormatError) as exc:
            write_events(tmp_path / "g.nfev", sample)
        assert exc.value.code == "NON_MONOTONIC"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.nfev"
        write_events(path, make_sample(n=5))
        path.write_bytes(b"WHAT" + path.read_bytes()[4:])
        with pytest.raises(EventFormatError) as exc:
            read_events(path)
        assert exc.value.code == "BAD_MAGIC"

    def test_truncated(self, tmp_path):
        path = tmp_path / "g.nfev"
        write_events(path, make_sample(n=5))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(EventFormatError) as exc:
            read_events(path)
        assert exc.value.code == "TRUNCATED"

    def test_count_past_the_file_reserves_no_memory(self, tmp_path):
        # A header claiming 2^32 - 1 events used to make read() ask for 38 GB.
        path = tmp_path / "g.nfev"
        path.write_bytes(b"NFEV" + struct.pack("<HHHHHQI", 2, 4, 4, 0, 0, 100, 2**32 - 1))
        tracemalloc.start()
        try:
            with pytest.raises(EventFormatError) as exc:
                read_events(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == "TRUNCATED"
        assert peak < 1 << 20

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "g.nfev"
        write_events(path, make_sample(n=5))
        path.write_bytes(path.read_bytes() + b"!")
        with pytest.raises(EventFormatError) as exc:
            read_events(path)
        assert exc.value.code == "TRAILING_DATA"

    def test_corrupt_coordinates_rejected_on_read(self, tmp_path):
        path = tmp_path / "g.nfev"
        sample = make_sample(n=1)
        write_events(path, sample)
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE + 4:HEADER_SIZE + 6] = (1000).to_bytes(2, "little")  # x of the only event
        path.write_bytes(bytes(data))
        with pytest.raises(EventFormatError) as exc:
            read_events(path)
        assert exc.value.code == "OUT_OF_BOUNDS"

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("width, height", [(131072, 4), (4, 65536), (70000, 32)])
    def test_sensor_over_u16_rejected(self, tmp_path, width, height, n):
        # Coordinates are u16: x 80283 on a 131072-wide sensor would be stored
        # as 14747 and pass the bounds check, and the header would not pack.
        ev = np.zeros(n, dtype=EVENT_DTYPE)
        ev["x"] = 80283 % 65536
        sample = GestureSample(ev, label=0, width=width, height=height)
        with pytest.raises(EventFormatError) as exc:
            write_events(tmp_path / "g.nfev", sample)
        assert exc.value.code == "BAD_SENSOR"

    @pytest.mark.parametrize("subject", [-1, 65536, 2**40])
    def test_subject_outside_u16_rejected(self, tmp_path, subject):
        # The header stores the subject as u16; 65536 died in a raw
        # struct.error while packing it.
        with pytest.raises(EventFormatError) as exc:
            write_events(tmp_path / "g.nfev", make_sample(n=10, subject=subject))
        assert exc.value.code == "BAD_SUBJECT"

    def test_largest_u16_subject_round_trips(self, tmp_path):
        path = tmp_path / "g.nfev"
        write_events(path, make_sample(n=10, subject=65535))
        assert read_events(path).subject == 65535

    def test_largest_u16_sensor_round_trips(self, tmp_path):
        ev = np.zeros(1, dtype=EVENT_DTYPE)
        ev["x"], ev["y"] = 65534, 65534
        path = tmp_path / "g.nfev"
        write_events(path, GestureSample(ev, label=0, width=65535, height=65535))
        back = read_events(path)
        assert (back.width, back.height) == (65535, 65535)
        assert np.array_equal(back.events, ev)


def event_file(duration_us, times, version=2):
    """Bytes of an event file on a 4 x 4 sensor, written without validation."""
    ev = np.zeros(len(times), dtype=EVENT_DTYPE)
    ev["timestamp_us"] = times
    window = struct.pack("<Q", duration_us) if version == 2 else b""
    return (b"NFEV" + struct.pack("<HHHHH", version, 4, 4, 1, 0) + window
            + struct.pack("<I", len(ev)) + ev.tobytes())


class TestRecordingWindow:
    """The window is stored in the header (u64 after the subject); validate
    keeps it in [1, 2^32] with every event before it."""

    @given(duration=st.integers(1, 2**32), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, tmp_path_factory, duration, data):
        times = sorted(data.draw(st.lists(st.integers(0, min(duration - 1, 2**32 - 1)),
                                          max_size=4)))
        ev = np.zeros(len(times), dtype=EVENT_DTYPE)
        ev["timestamp_us"] = times
        path = tmp_path_factory.getbasetemp() / "window.nfev"
        write_events(path, GestureSample(ev, label=1, width=4, height=4, duration_us=duration))
        back = read_events(path)
        assert back.duration_us == duration
        assert np.array_equal(back.events, ev)

    def test_header_holds_the_window(self, tmp_path):
        path = tmp_path / "g.nfev"
        write_events(path, GestureSample(np.zeros(0, dtype=EVENT_DTYPE), label=0,
                                         duration_us=2**32))
        data = path.read_bytes()
        assert len(data) == HEADER_SIZE == 26
        assert struct.unpack_from("<Q", data, 14) == (2**32,)

    @pytest.mark.parametrize("duration, times", [(0, []), (2**32 + 1, []), (0, [0]),
                                                 (300_000, [100, 300_000])],
                             ids=["zero", "past-2^32", "zero-with-event", "event-at-window"])
    def test_bad_window_names_the_file(self, tmp_path, duration, times):
        path = tmp_path / "g.nfev"
        path.write_bytes(event_file(duration, times))
        with pytest.raises(EventFormatError) as exc:
            read_events(path)
        assert exc.value.code == "BAD_DURATION"
        assert str(exc.value).startswith(f"event file {path}: ")
        with pytest.raises(EventFormatError) as exc:
            write_events(tmp_path / "out.nfev", GestureSample(
                np.frombuffer(path.read_bytes(), EVENT_DTYPE, offset=HEADER_SIZE).copy(),
                label=1, width=4, height=4, duration_us=duration))
        assert exc.value.code == "BAD_DURATION"

    def test_window_outlasts_the_last_event(self, tmp_path):
        # The window used to be guessed as max(1.45 s, last event + 1).
        path = tmp_path / "g.nfev"
        path.write_bytes(event_file(2_000_000, [0, 300_000]))
        assert read_events(path).duration_us == 2_000_000

    @pytest.mark.parametrize("times", [[], [5, 9]], ids=["empty", "two-events"])
    def test_version_1_is_unsupported(self, tmp_path, times):
        path = tmp_path / "g.nfev"
        path.write_bytes(event_file(0, times, version=1))
        with pytest.raises(EventFormatError) as exc:
            read_events(path)
        assert exc.value.code == "BAD_VERSION"
        assert str(exc.value) == f"event file {path}: unsupported event file version 1"

    def test_bad_magic_names_the_file(self, tmp_path):
        path = tmp_path / "g.nfev"
        path.write_bytes(b"NFE")
        with pytest.raises(EventFormatError) as exc:
            read_events(path)
        assert str(exc.value) == f"event file {path}: bad magic: not an event file"


class TestBinEvents:
    def test_event_at_zero_lands_in_step_zero(self):
        ev = np.array([(0, 4, 2, 1)], dtype=EVENT_DTYPE)
        frames = bin_events(GestureSample(ev, label=0), dt_us=10_000)
        assert frames[0, 2, 4, 1] == 1
        assert frames.sum() == 1

    def test_default_duration_gives_145_steps(self):
        frames = bin_events(make_sample(), dt_us=10_000)
        assert frames.shape == (145, 32, 32, 2)

    def test_same_cell_same_step_collapses(self):
        ev = np.array([(100, 4, 2, 1), (200, 4, 2, 1)], dtype=EVENT_DTYPE)
        frames = bin_events(GestureSample(ev, label=0), dt_us=10_000)
        assert frames.sum() == 1

    def test_counts_conserved_for_cell_unique_events(self):
        sample = make_sample(n=400, seed=1)
        frames = bin_events(sample, dt_us=10_000)
        ev = sample.events
        cells = set(zip(ev["timestamp_us"] // 10_000, ev["x"], ev["y"], ev["polarity"]))
        assert frames.sum() == len(cells)

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            bin_events(make_sample(n=1), dt_us=0)


def sum_pooled(frames, k):
    """The k x k SumPoolLayer applied to (T, H, W, 2) frames."""
    h, w = frames.shape[1:3]
    topo = LayerTopology("sum_pool", k, False, (h, w, 2), (h // k, w // k, 2))
    return SumPoolLayer(topo).step(frames[None])[0]


def events(rows):
    """Sorted EVENT_DTYPE records from (timestamp_us, x, y, polarity) rows."""
    ev = np.array([tuple(r) for r in rows], dtype=EVENT_DTYPE)
    return ev[np.argsort(ev["timestamp_us"], kind="stable")]


class TestPooledBinning:
    """bin_events(s, dt, pool=k) is the k x k sum pool of bin_events(s, dt)."""

    DURATION = 200_000  # 20 steps of 10 ms
    POOLS = [1, 2, 3, 4, 12]

    def assert_pooled_matches(self, sample, k):
        pooled = bin_events(sample, 10_000, pool=k)
        expected = sum_pooled(bin_events(sample, 10_000), k)
        assert pooled.shape == expected.shape
        assert np.array_equal(pooled, expected)
        return pooled

    @given(seed=st.integers(0, 2**31), k=st.sampled_from(POOLS),
           n=st.integers(1, 400), repeats=st.integers(0, 60), last=st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_equals_sum_pool_of_binary_frames(self, seed, k, n, repeats, last):
        """Random events on a 24 x 24 sensor, with repeated (step, pixel,
        polarity) cells and events in the last step."""
        rng = np.random.default_rng(seed)
        rows = np.column_stack([rng.integers(0, self.DURATION, n),
                                rng.integers(0, 24, n), rng.integers(0, 24, n),
                                rng.integers(0, 2, n)])
        again = rows[rng.integers(0, n, repeats)].copy()
        again[:, 0] = again[:, 0] // 10_000 * 10_000 + rng.integers(0, 10_000, repeats)
        tail = np.column_stack([rng.integers(self.DURATION - 10_000, self.DURATION, last),
                                rng.integers(0, 24, last), rng.integers(0, 24, last),
                                rng.integers(0, 2, last)])
        sample = GestureSample(events(np.concatenate([rows, again, tail])), label=0,
                               width=24, height=24, duration_us=self.DURATION)
        sample.validate()
        self.assert_pooled_matches(sample, k)

    @pytest.mark.parametrize("k", POOLS)
    def test_empty_sample(self, k):
        sample = GestureSample(np.zeros(0, dtype=EVENT_DTYPE), label=0, width=24,
                               height=24, duration_us=self.DURATION)
        pooled = self.assert_pooled_matches(sample, k)
        assert pooled.shape == (20, 24 // k, 24 // k, 2) and not pooled.any()

    @pytest.mark.parametrize("k", POOLS)
    def test_duplicates_in_one_cell_count_once(self, k):
        sample = GestureSample(events([(100, 5, 7, 1), (900, 5, 7, 1), (9_999, 5, 7, 1)]),
                               label=0, width=24, height=24, duration_us=self.DURATION)
        pooled = self.assert_pooled_matches(sample, k)
        assert pooled.sum() == 1 and pooled[0, 7 // k, 5 // k, 1] == 1

    @pytest.mark.parametrize("k", POOLS)
    def test_every_pixel_spiking_in_the_last_step(self, k):
        """Each block counts k^2 per polarity; at k = 12 that is 144, past int8."""
        grid = [(self.DURATION - 1, x, y, p) for x in range(24) for y in range(24)
                for p in range(2)]
        sample = GestureSample(events(grid + grid[:50]), label=0, width=24, height=24,
                               duration_us=self.DURATION)
        pooled = self.assert_pooled_matches(sample, k)
        assert (pooled[-1] == k * k).all() and not pooled[:-1].any()
        assert np.iinfo(pooled.dtype).max >= k * k
        assert pooled.dtype == (np.int8 if k * k <= 127 else np.int16)

    @pytest.mark.parametrize("k", [0, 5, 7])
    def test_pool_must_divide_the_sensor(self, k):
        with pytest.raises(ValueError, match="does not divide"):
            bin_events(make_sample(width=24, height=24), 10_000, pool=k)


def reference_synthetic(class_index, seed, *, width=32, height=32,
                        duration_us=DEFAULT_DURATION_US, step_us=10_000,
                        noise_rate=1.0, subject=0):
    """The per-event generator generate_synthetic must match byte for byte.

    One scalar draw per Poisson factor and two per noise event, advancing one
    counter each, with the pattern recomputed at every step.
    """
    rng = Rng(seed).fork(f"synthetic/{class_index}/{subject}")

    def poisson_count():
        if noise_rate <= 0:
            return 0
        limit = math.exp(-noise_rate)
        k, p = 0, 1.0
        while True:
            p *= float(uniforms(rng, 1)[0])
            if p <= limit:
                return k
            k += 1

    steps = math.ceil(duration_us / step_us)
    rows = []
    covered = set()
    for t in range(steps):
        base = t * step_us
        current = _pattern_pixels(class_index, t, steps, width, height)
        for x, y in sorted(current - covered):
            rows.append((base, x, y, 1))
        for x, y in sorted(covered - current):
            rows.append((base, x, y, 0))
        covered = current
        for _ in range(poisson_count()):
            draw = rng.u64(3)
            x = int(draw[0] % np.uint64(width))
            y = int(draw[1] % np.uint64(height))
            pol = int(draw[2] % np.uint64(2))
            jitter = int(rng.u64(1)[0] % np.uint64(step_us))
            rows.append((min(base + jitter, duration_us - 1), x, y, pol))
    events = np.array(rows, dtype=EVENT_DTYPE)
    return events[np.argsort(events["timestamp_us"], kind="stable")]


# sha256 of the stock preset's 125 pooled samples' event bytes, in pool order.
STOCK_POOL_SHA256 = "9876abc3678d3e1487a08858610b4438ed85c921b7ff06317d38ff1ddf9f9379"


class TestGenerateSynthetic:
    def test_sensor_over_u16_rejected(self):
        # Noise x 80283 would be stored as 14747 in the u16 field.
        with pytest.raises(EventFormatError) as exc:
            generate_synthetic(0, 7, width=131072, height=4)
        assert exc.value.code == "BAD_SENSOR"

    @given(cls=st.integers(0, NUM_SYNTHETIC_CLASSES - 1),
           seed=st.integers(0, 2**63),
           subject=st.integers(0, 300),
           width=st.integers(2, 9).map(lambda k: 2 * k + 1),
           height=st.integers(2, 9).map(lambda k: 2 * k + 1),
           step_us=st.integers(1_000, 20_000),
           duration_us=st.integers(1, 200_000),
           rate=st.sampled_from([0.0, 0.3, 1.0, 40.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_event_reference(self, cls, seed, subject, width, height,
                                             step_us, duration_us, rate):
        kwargs = dict(width=width, height=height, duration_us=duration_us,
                      step_us=step_us, noise_rate=rate, subject=subject)
        got = generate_synthetic(cls, seed, **kwargs).events
        want = reference_synthetic(cls, seed, **kwargs)
        assert got.tobytes() == want.tobytes()

    def test_high_rate_grows_the_draw_block(self, monkeypatch):
        blocks = []

        def counted(base, counters, n):
            blocks.append(len(counters))
            return u64_at(base, counters, n)
        monkeypatch.setattr("fedspike.data.u64_at", counted)
        kwargs = dict(duration_us=100_000, noise_rate=40.0)
        got = generate_synthetic(9, 3, **kwargs).events
        assert len(blocks) > 1
        assert got.tobytes() == reference_synthetic(9, 3, **kwargs).tobytes()

    def test_stock_pool_bytes_are_pinned(self):
        pool = stock_pool(ExperimentConfig())
        assert len(pool) == 125
        digest = hashlib.sha256(b"".join(s.events.tobytes() for s in pool))
        assert digest.hexdigest() == STOCK_POOL_SHA256

    @pytest.mark.parametrize("rate", [709.0, 1000.0, 5000.0, math.inf, math.nan])
    def test_rejects_rates_beyond_the_poisson_sampler(self, rate):
        with pytest.raises(ValueError, match="noise_rate"):
            generate_synthetic(0, seed=1, duration_us=20_000, noise_rate=rate)

    def test_rejects_durations_beyond_32_bit_timestamps(self):
        # Step 1 would start at 2^32 and wrap to 0 in the u32 timestamp field.
        with pytest.raises(EventFormatError) as exc:
            generate_synthetic(0, seed=1, width=8, height=8, duration_us=2**32 + 10,
                               step_us=2**32, noise_rate=0.0)
        assert exc.value.code == "BAD_DURATION"

    def test_largest_representable_rate_still_draws(self):
        sample = generate_synthetic(0, seed=1, duration_us=20_000, noise_rate=700.0)
        assert len(sample.events) > 1000

    def test_deterministic_per_class_and_seed(self):
        a = generate_synthetic(2, seed=5)
        b = generate_synthetic(2, seed=5)
        assert np.array_equal(a.events, b.events)

    def test_different_classes_differ(self):
        a = generate_synthetic(0, seed=5)
        b = generate_synthetic(4, seed=5)
        assert not (len(a.events) == len(b.events)
                    and np.array_equal(a.events, b.events))

    def test_different_seeds_differ(self):
        a = generate_synthetic(0, seed=5)
        b = generate_synthetic(0, seed=6)
        assert not (len(a.events) == len(b.events)
                    and np.array_equal(a.events, b.events))

    def test_drift_right_mean_x_strictly_increases(self):
        sample = generate_synthetic(0, seed=3, noise_rate=0.0)
        ev = sample.events
        assert len(ev)
        means = [ev["x"][ev["timestamp_us"] == t].mean()
                 for t in np.unique(ev["timestamp_us"])]
        assert np.all(np.diff(means) > 0)

    @given(cls=st.integers(0, NUM_SYNTHETIC_CLASSES - 1),
           seed=st.integers(0, 2**31),
           rate=st.sampled_from([0.0, 0.5, 3.0]))
    @settings(max_examples=20, deadline=None)
    def test_all_samples_satisfy_invariants(self, cls, seed, rate):
        sample = generate_synthetic(cls, seed=seed, noise_rate=rate)
        sample.validate()  # raises on any invariant violation
        assert sample.label == cls
        assert len(sample.events) > 0
        assert sample.events["timestamp_us"].max() < sample.duration_us

    def test_class_index_validated(self):
        with pytest.raises(ValueError):
            generate_synthetic(NUM_SYNTHETIC_CLASSES, seed=1)

    def test_round_trips_through_file(self, tmp_path):
        sample = generate_synthetic(8, seed=9, noise_rate=2.0)
        path = tmp_path / "g.nfev"
        write_events(path, sample)
        assert np.array_equal(read_events(path).events, sample.events)


def synth_pool(classes, per_class, seed=100):
    samples = []
    for c in classes:
        for r in range(per_class):
            samples.append(generate_synthetic(
                c, seed=seed + r, subject=r, noise_rate=0.5))
    return samples


class TestMakeSplits:
    def test_one_shot_per_class_per_client(self):
        pool = synth_pool(range(5), per_class=9)
        assignment, test = make_splits(pool, num_clients=5, test_size=15, seed=1)
        assert sorted(assignment.shots) == [0, 1, 2, 3, 4]
        for samples in assignment.shots.values():
            assert len(samples) == 5
            assert sorted(s.label for s in samples) == [0, 1, 2, 3, 4]
        assert len(test) == 15

    def test_disjointness(self):
        pool = synth_pool(range(3), per_class=8)
        assignment, test = make_splits(pool, num_clients=4, test_size=9, seed=2)
        seen = set()
        for samples in assignment.shots.values():
            for s in samples:
                assert id(s) not in seen
                seen.add(id(s))
        for s in test:
            assert id(s) not in seen

    def test_deterministic(self):
        pool = synth_pool(range(3), per_class=8)
        a = make_splits(pool, num_clients=4, test_size=9, seed=2)
        b = make_splits(pool, num_clients=4, test_size=9, seed=2)
        assert [s.subject for s in a[1]] == [s.subject for s in b[1]]
        for k in a[0].shots:
            assert [s.subject for s in a[0].shots[k]] == [s.subject for s in b[0].shots[k]]

    def test_insufficient_samples_rejected(self):
        pool = synth_pool(range(2), per_class=4)
        with pytest.raises(ValueError, match="insufficient samples"):
            make_splits(pool, num_clients=4, test_size=2, seed=3)

    @pytest.mark.parametrize("shared", [0, 3])
    def test_too_few_subjects_covering_every_class_rejected(self, shared):
        # Enough samples per class, but only `shared` subjects record both
        # classes; the split used to fall back to a sample-disjoint one.
        pool = [generate_synthetic(c, seed=100, subject=r if r < shared else 10 * c + r,
                                   noise_rate=0.5, duration_us=100_000)
                for c in range(2) for r in range(6)]
        with pytest.raises(ValueError, match=f"^{shared} subjects cover every class; "
                                             "4 clients need one each$"):
            make_splits(pool, num_clients=4, test_size=2, seed=3)

    def test_test_set_prefers_unseen_subjects(self):
        # 8 subjects per class; 4 land in shots, so the 2 test picks per
        # class can always come from the other 4 subjects.
        pool = synth_pool(range(3), per_class=8)
        assignment, test = make_splits(pool, num_clients=4, test_size=6, seed=4)
        shot_subjects = {s.subject for g in assignment.shots.values() for s in g}
        assert all(s.subject not in shot_subjects for s in test)
