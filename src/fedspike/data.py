"""Event streams: file IO, spike-frame binning, synthetic gestures, splits.

Events are (timestamp_us, x, y, polarity) records. The binary file format
"NFEV" is little-endian: magic, version u16=2, width u16, height u16,
class_label u16, subject u16, duration_us u64, event_count u32, then 9 bytes
per event (timestamp_us u32, x u16, y u16, polarity u8). duration_us is the
recording window that binning spans, in [1, 2^32]. Timestamps must be
non-decreasing and before it; coordinates must sit inside the sensor.

Synthetic gestures stand in for recorded data at desk scale: each class is a
moving pattern (a bar drifting in one of eight directions, or a rotating
spoke) with ON events where the pattern newly covers a pixel and OFF events
where it leaves one, plus optional Poisson background noise. Generation is
deterministic per (class, seed).
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import FedspikeError
from .quant import Rng, to_unit, u64_at

MAGIC = b"NFEV"
VERSION = 2
# The header after the magic and the version.
_HEADER = struct.Struct("<HHHHQI")
HEADER_SIZE = len(MAGIC) + 2 + _HEADER.size
DEFAULT_DURATION_US = 1_450_000
# Coordinates, the sensor's width and height and the subject are stored as u16.
SENSOR_MAX = 65535
SUBJECT_MAX = 65535

EVENT_DTYPE = np.dtype(
    [("timestamp_us", "<u4"), ("x", "<u2"), ("y", "<u2"), ("polarity", "u1")]
)

NUM_SYNTHETIC_CLASSES = 10

# Unit steps for the eight drift directions, counter-clockwise from "right".
_DRIFT_DIRECTIONS = [
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)
]


class EventFormatError(FedspikeError):
    """An event file, sample or dataset manifest that the run cannot use."""


@dataclass
class GestureSample:
    """One gesture recording: an event stream plus its metadata."""

    events: np.ndarray  # EVENT_DTYPE records, timestamps non-decreasing
    label: int
    subject: int = 0
    width: int = 32
    height: int = 32
    duration_us: int = DEFAULT_DURATION_US

    def validate(self):
        ev = self.events
        if ev.dtype != EVENT_DTYPE:
            raise EventFormatError("BAD_DTYPE", "events must use the event record dtype")
        if self.width > SENSOR_MAX or self.height > SENSOR_MAX:
            raise EventFormatError("BAD_SENSOR", f"sensor {self.width}x{self.height} "
                                   f"is over the u16 limit {SENSOR_MAX}")
        if not 0 <= self.subject <= SUBJECT_MAX:
            raise EventFormatError("BAD_SUBJECT", f"subject {self.subject} is outside "
                                   f"the u16 range [0, {SUBJECT_MAX}]")
        if not 1 <= self.duration_us <= 1 << 32:
            raise EventFormatError("BAD_DURATION", f"duration_us {self.duration_us} is "
                                   f"outside [1, 2^32]")
        if len(ev) == 0:
            return
        if np.any(np.diff(ev["timestamp_us"].astype(np.int64)) < 0):
            raise EventFormatError("NON_MONOTONIC", "timestamps decrease within the stream")
        # Timestamps never decrease, so the last event is the latest.
        if ev["timestamp_us"][-1] >= self.duration_us:
            raise EventFormatError("BAD_DURATION", f"an event at {ev['timestamp_us'][-1]} us "
                                   f"is not before duration_us {self.duration_us}")
        if ev["x"].max() >= self.width or ev["y"].max() >= self.height:
            raise EventFormatError("OUT_OF_BOUNDS", "event coordinate outside the sensor")
        if ev["polarity"].max() > 1:
            raise EventFormatError("BAD_POLARITY", "polarity must be 0 or 1")


@dataclass
class ShotAssignment:
    """Per-client one-shot training sets: one sample per novel class."""

    shots: dict[int, list[GestureSample]] = field(default_factory=dict)

    def __post_init__(self):
        for client, samples in self.shots.items():
            labels = [s.label for s in samples]
            twice = [c for c in labels if labels.count(c) > 1]
            if twice:
                raise ValueError(f"client {client} holds two shots of class {twice[0]}")


def write_events(path, sample: GestureSample):
    sample.validate()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<H", VERSION))
        fh.write(_HEADER.pack(sample.width, sample.height, sample.label, sample.subject,
                              sample.duration_us, len(sample.events)))
        fh.write(sample.events.astype(EVENT_DTYPE).tobytes())


def read_events(path) -> GestureSample:
    """The sample an event file holds. Any fault is an EventFormatError that
    names the file."""
    try:
        return _decode_events(Path(path).read_bytes())
    except EventFormatError as err:
        raise EventFormatError(err.code, f"event file {path}: {err}") from None


def _decode_events(data: bytes) -> GestureSample:
    if data[:4] != MAGIC:
        raise EventFormatError("BAD_MAGIC", "bad magic: not an event file")
    if len(data) < 6:
        raise EventFormatError("TRUNCATED", "unexpected end of event file")
    version = int.from_bytes(data[4:6], "little")
    if version != VERSION:
        raise EventFormatError("BAD_VERSION", f"unsupported event file version {version}")
    if len(data) < HEADER_SIZE:
        raise EventFormatError("TRUNCATED", "unexpected end of event file")
    width, height, label, subject, duration, count = _HEADER.unpack_from(data, 6)
    # Compared before any read, so a header's event count sets nothing aside.
    end = HEADER_SIZE + count * EVENT_DTYPE.itemsize
    if len(data) < end:
        raise EventFormatError("TRUNCATED", "unexpected end of event file")
    if len(data) > end:
        raise EventFormatError("TRAILING_DATA", "trailing bytes after last event")
    events = np.frombuffer(data, EVENT_DTYPE, count, HEADER_SIZE).copy()
    sample = GestureSample(events, label, subject, width, height, duration)
    sample.validate()
    return sample


def bin_events(sample: GestureSample, dt_us: int, pool: int = 1) -> np.ndarray:
    """Discretize a sample into spike-count frames (steps, height/pool, width/pool, 2).

    An event at time t lands in step floor(t / dt_us); several events in the
    same (step, pixel, polarity) cell collapse to a single spike. Each frame
    cell counts the spikes of its pool x pool pixel block, which is the
    pool x pool sum pool of the binary frames that pool=1 returns. The dtype
    is the smallest signed integer that holds pool^2 (int8 up to pool 11).
    """
    if dt_us <= 0:
        raise ValueError("dt_us must be positive")
    height, width = sample.height, sample.width
    if pool < 1 or height % pool or width % pool:
        raise ValueError(f"pool {pool} does not divide the sensor {(height, width)}")
    steps = math.ceil(sample.duration_us / dt_us)
    frames = np.zeros((steps, height // pool, width // pool, 2),
                      dtype=np.min_scalar_type(-pool * pool))
    ev = sample.events
    if len(ev):
        step = ev["timestamp_us"] // dt_us
        if step.max() >= steps:
            raise ValueError("event timestamp beyond the sample duration")
        # Count each distinct (step, pixel, polarity) cell once in its block.
        cell = (step, ev["y"], ev["x"], ev["polarity"])
        _, first = np.unique(np.ravel_multi_index(cell, (steps, height, width, 2)),
                             return_index=True)
        np.add.at(frames, (step[first], ev["y"][first] // pool,
                           ev["x"][first] // pool, ev["polarity"][first]), 1)
    return frames


def _pattern_pixels(class_index: int, t: int, steps: int,
                    width: int, height: int) -> set[tuple[int, int]]:
    cx0, cy0 = (width - 1) / 2, (height - 1) / 2
    if class_index < 8:
        dx, dy = _DRIFT_DIRECTIONS[class_index]
        norm = math.hypot(dx, dy)
        margin = 4.0
        travel = min(width, height) - 2 * margin
        offset = travel * t / max(steps - 1, 1) - travel / 2
        cx = cx0 + dx / norm * offset
        cy = cy0 + dy / norm * offset
        px, py = -dy / norm, dx / norm  # bar lies perpendicular to the motion
        half = min(width, height) // 3
        points = ((cx + px * i, cy + py * i) for i in range(-half, half + 1))
    else:
        sign = 1 if class_index == 8 else -1
        angle = sign * 2 * math.pi * t / steps
        radius = min(width, height) / 2 - 2
        n = int(radius) + 1
        points = ((cx0 + math.cos(angle) * r, cy0 + math.sin(angle) * r)
                  for r in np.linspace(0, radius, n))
    pixels = set()
    for fx, fy in points:
        x, y = round(fx), round(fy)
        if 0 <= x < width and 0 <= y < height:
            pixels.add((x, y))
    return pixels


@functools.lru_cache(maxsize=32)
def _pattern_events(class_index: int, steps: int, width: int,
                    height: int) -> np.ndarray:
    """The moving pattern's (step, x, y, polarity) rows, in generation order.

    At each step, ON rows for the pixels the pattern newly covers, then OFF
    rows for the pixels it leaves, each sorted by (x, y). The pattern depends
    only on these arguments, so it is cached; the array is read-only.
    """
    rows = []
    covered: set[tuple[int, int]] = set()
    for t in range(steps):
        current = _pattern_pixels(class_index, t, steps, width, height)
        rows += [(t, x, y, 1) for x, y in sorted(current - covered)]
        rows += [(t, x, y, 0) for x, y in sorted(covered - current)]
        covered = current
    out = np.array(rows, dtype=np.int64).reshape(-1, 4)
    out.flags.writeable = False
    return out


def noise_rate_representable(rate: float) -> bool:
    """Whether the Poisson noise sampler can draw at this rate.

    It multiplies uniforms until the product reaches exp(-rate); above a rate
    of about 708 that bound is no longer a normal double (it underflows to 0
    near 745), and the counts stop following the rate. NaN is rejected;
    rates <= 0 draw no noise.
    """
    return rate <= 0 or math.exp(-rate) >= sys.float_info.min


def _noise_rows(rng: Rng, steps: int, rate: float, width: int, height: int,
                step_us: int, duration_us: int) -> np.ndarray:
    """The background noise's (time, x, y, polarity) rows, in step order.

    Lanes 0-2 of counters 0..M-1 come from one vectorised draw; a scalar walk
    over lane 0 replays the Poisson counts (see generate_synthetic), doubling
    the block whenever the walk runs past its end.
    """
    limit = math.exp(-rate)
    block = u64_at(rng.base, np.arange(8 * steps + 16), 3)
    u = to_unit(block[:, 0]).tolist()

    def grow(size):
        nonlocal block
        more = u64_at(rng.base, np.arange(len(block), max(size, 2 * len(block))), 3)
        block = np.concatenate([block, more])
        u.extend(to_unit(more[:, 0]).tolist())

    event_steps, firsts = [], []
    c = 0
    for t in range(steps):
        k, p = 0, 1.0
        while True:
            if c >= len(u):
                grow(c + 1)
            p *= u[c]
            c += 1
            if p <= limit:
                break
            k += 1
        event_steps += [t] * k
        firsts += range(c, c + 2 * k, 2)
        c += 2 * k
    if c > len(block):  # the last step's events reach past the block
        grow(c)
    firsts = np.array(firsts, dtype=np.int64)
    xyp = block[firsts] % np.array([width, height, 2], dtype=np.uint64)
    jitter = block[firsts + 1, 0] % np.uint64(step_us)
    times = np.minimum(np.array(event_steps, dtype=np.int64) * step_us
                       + jitter.astype(np.int64), duration_us - 1)
    return np.column_stack([times, xyp.astype(np.int64)])


def generate_synthetic(class_index: int, seed: int, *, width: int = 32,
                       height: int = 32, duration_us: int = DEFAULT_DURATION_US,
                       step_us: int = 10_000, noise_rate: float = 1.0,
                       subject: int = 0) -> GestureSample:
    """Make one synthetic gesture: a class-specific moving pattern plus noise.

    noise_rate is the mean number of background events per generator step.

    The counter layout of the draws, which tests pin: every draw is a u64
    lane of the stream Rng(seed).fork("synthetic/<class>/<subject>"), read at
    counters 0, 1, 2, ... in order. At each step t the pattern's events come
    first, at time t * step_us. Then, when noise_rate > 0, the step's noise:
    one counter per Poisson factor (its lane 0 as a uniform in [0, 1)) until
    the running product is <= exp(-noise_rate), the step's event count k
    being the number of factors before the last. Each of the k events then
    takes two counters: lanes 0/1/2 of the first give x mod width, y mod
    height and polarity mod 2; lane 0 of the second gives a jitter mod
    step_us, and the event's time is min(t * step_us + jitter, duration_us - 1).
    Events are finally sorted by time, stably.
    """
    if not 0 <= class_index < NUM_SYNTHETIC_CLASSES:
        raise ValueError(f"class_index must be in [0, {NUM_SYNTHETIC_CLASSES})")
    if not noise_rate_representable(noise_rate):
        raise ValueError(f"noise_rate {noise_rate} is beyond the Poisson sampler "
                         f"(exp(-rate) must be a normal double)")
    rng = Rng(seed).fork(f"synthetic/{class_index}/{subject}")
    steps = math.ceil(duration_us / step_us)
    rows = _pattern_events(class_index, steps, width, height) * [step_us, 1, 1, 1]
    if noise_rate > 0:
        noise = _noise_rows(rng, steps, noise_rate, width, height, step_us, duration_us)
        rows = np.concatenate([rows, noise])
    # A step's noise never precedes its pattern rows in time, nor reaches the
    # next step's, so a stable sort by time gives the per-step order.
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    events = np.empty(len(rows), dtype=EVENT_DTYPE)
    for i, name in enumerate(EVENT_DTYPE.names):
        events[name] = rows[:, i]
    sample = GestureSample(events, class_index, subject, width, height, duration_us)
    sample.validate()
    return sample


def _shuffle(items: list, rng: Rng) -> list:
    order = np.argsort(rng.u64(len(items)), kind="stable")
    return [items[i] for i in order]


def make_splits(samples: Sequence[GestureSample], num_clients: int,
                test_size: int, seed: int) -> tuple[ShotAssignment, list[GestureSample]]:
    """Partition samples into per-client one-shot sets and a shared test set.

    Every client receives exactly one sample of each class; no sample is
    shared between clients or with the test set. Each client is pinned to
    one subject that covers every class, so there must be at least
    num_clients such subjects, and test samples come from the held-out
    subjects first.
    """
    classes = sorted({s.label for s in samples})
    if not classes:
        raise ValueError("no samples to split")
    by_class = {c: [s for s in samples if s.label == c] for c in classes}

    per_class_test = {c: test_size // len(classes) for c in classes}
    for c in classes[: test_size % len(classes)]:
        per_class_test[c] += 1
    for c in classes:
        need = num_clients + per_class_test[c]
        if len(by_class[c]) < need:
            raise ValueError(
                f"insufficient samples for class {c}: need {need}, have {len(by_class[c])}"
            )

    common_subjects = set.intersection(*({s.subject for s in by_class[c]} for c in classes))
    if len(common_subjects) < num_clients:
        raise ValueError(f"{len(common_subjects)} subjects cover every class; "
                         f"{num_clients} clients need one each")
    rng = Rng(seed).fork("splits")
    client_subjects = _shuffle(sorted(common_subjects), rng)[:num_clients]
    shots = {k: [] for k in range(num_clients)}
    taken = set()
    for c in classes:
        for k, subj in enumerate(client_subjects):
            pick = next(s for s in by_class[c] if s.subject == subj and id(s) not in taken)
            shots[k].append(pick)
            taken.add(id(pick))
    pools = {c: _shuffle([s for s in by_class[c] if id(s) not in taken], rng)
             for c in classes}

    test: list[GestureSample] = []
    for c in classes:
        preferred = [s for s in pools[c] if s.subject not in client_subjects]
        rest = [s for s in pools[c] if s.subject in client_subjects]
        test.extend((preferred + rest)[: per_class_test[c]])
    return ShotAssignment(shots), test
