"""Every input surface a run reads from another party, fuzzed: INI text, a
dataset manifest, event-file bytes, weight-file bytes and wire frames. Each
either loads cleanly or fails as a FedspikeError, the one error the command
line reports with a code; no other exception may escape.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspike.config import _SCHEMA, load_config
from fedspike.data import EVENT_DTYPE, GestureSample, read_events, write_events
from fedspike.errors import FedspikeError
from fedspike.experiment import load_all_shots, load_test
from fedspike.protocol import (Message, MessageType, decode_message, encode_message,
                               unpack_abort, unpack_delta, unpack_weights)
from fedspike.snn import NeuronParams, build_network
from fedspike.weights_io import load_weights

FUZZ = settings(max_examples=150, deadline=None)

# Any JSON value, a few levels deep.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


# --- INI text ------------------------------------------------------------------

VALUES = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["1/128", "1/0", "3/7", "nan", "inf", "-0", "1e400", "true", "off",
                     "desk", "gesture128", "32x32x2, 2a, dense96, out", "8x8x2, out",
                     "127.0.0.1:7177", "fe80::1%eth0:1", "50%", "%(x)s", "", "socket"]),
    st.text(max_size=12))
LINES = st.one_of(
    st.sampled_from(sorted(_SCHEMA) + ["DEFAULT", "mystery", ""]).map(lambda s: f"[{s}]"),
    st.tuples(st.sampled_from(sorted(k for keys in _SCHEMA.values() for k in keys)),
              st.sampled_from(["=", ":", " = ", ""]), VALUES).map("".join),
    st.text(max_size=16))


@given(lines=st.lists(LINES, max_size=8))
@FUZZ
def test_ini_text_loads_or_is_a_config_error(workdir, lines):
    path = workdir / "fuzz.ini"
    path.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
    try:
        load_config(str(path))
    except FedspikeError as err:
        assert err.code == "BAD_CONFIG"


# --- dataset manifests -------------------------------------------------------------

def _sample(label: int) -> GestureSample:
    events = np.zeros(3, dtype=EVENT_DTYPE)
    events["timestamp_us"] = [0, 40_000, 90_000]
    events["x"] = [0, 1, 2]
    return GestureSample(events, label, width=4, height=4, duration_us=100_000)


@pytest.fixture(scope="module")
def dataset(workdir):
    """A directory of event files labelled 0 and 1; each example writes its
    own manifest beside them."""
    root = workdir / "ds"
    root.mkdir()
    for label in (0, 1):
        write_events(root / f"{label}.nfev", _sample(label))
    return root


ENTRIES = st.lists(st.one_of(
    st.fixed_dictionaries({"path": st.sampled_from(["0.nfev", "1.nfev", "a\0b"]),
                           "label": st.integers(0, 2) | JSON}),
    JSON), max_size=3)
MANIFESTS = st.one_of(JSON, st.fixed_dictionaries({}, optional={
    "version": st.just(1) | JSON,
    "duration_us": st.integers(0, 2**33) | JSON,
    "shots": st.dictionaries(st.sampled_from(["0", "1", "03", "x", "-1"]) | st.text(max_size=3),
                             ENTRIES, max_size=3) | JSON,
    "test": ENTRIES | JSON,
}))


@given(manifest=MANIFESTS)
@FUZZ
def test_manifest_loads_or_is_a_named_error(dataset, manifest):
    (dataset / "manifest.json").write_text(json.dumps(manifest))
    for load in (load_test, load_all_shots):
        try:
            load(dataset)
        except FedspikeError:
            pass


# --- event files ---------------------------------------------------------------

VALID_EVENTS = b"NFEV" + struct.pack("<HHHHHI", 1, 4, 4, 0, 0, 2) + np.array(
    [(5, 1, 2, 1), (9, 3, 3, 0)], dtype=EVENT_DTYPE).tobytes()
HEADERS = st.builds(lambda fields: b"NFEV" + struct.pack("<HHHHHI", *fields), st.tuples(
    st.sampled_from([0, 1, 2]), *[st.integers(0, 0xFFFF)] * 4,
    st.sampled_from([0, 1, 2, 3, 0xFFFFFFFF])))
EVENTS = st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 6),
                            st.integers(0, 255)), max_size=3).map(
    lambda rows: np.array(rows, dtype=EVENT_DTYPE).tobytes())


def _mutated(base: bytes):
    """base with one byte changed, cut short, or extended."""
    return st.one_of(
        st.tuples(st.integers(0, len(base) - 1), st.integers(0, 255)).map(
            lambda c: base[:c[0]] + bytes([c[1]]) + base[c[0] + 1:]),
        st.integers(0, len(base)).map(lambda n: base[:n]),
        st.binary(min_size=1, max_size=4).map(lambda extra: base + extra))


@given(data=st.one_of(st.binary(max_size=40), _mutated(VALID_EVENTS),
                      st.tuples(HEADERS, EVENTS).map(b"".join)))
@FUZZ
def test_event_bytes_load_or_are_a_format_error(workdir, data):
    path = workdir / "fuzz.nfev"
    path.write_bytes(data)
    try:
        read_events(path)
    except FedspikeError:
        pass


# --- weight files ----------------------------------------------------------------

def _layer(kind: int, dims, weights: bytes) -> bytes:
    return struct.pack("<B6HI", kind, *dims, len(weights)) + weights


VALID_WEIGHTS = b"NFW1" + struct.pack("<HH", 1, 2) + _layer(1, (4, 4, 2, 2, 2, 2), b"") + \
    _layer(3, (2, 2, 2, 1, 1, 2), bytes([2, 0, 254, 4] * 4))
# Small shapes only: a layer's neuron state grows with its shape, not its weights.
LAYERS = st.builds(_layer, st.integers(0, 4), st.tuples(*[st.integers(0, 5)] * 6),
                   st.lists(st.sampled_from([0, 2, 254, 1]), max_size=40).map(bytes))
LAYER_FILES = st.builds(lambda version, layers: b"NFW1" + struct.pack("<HH", version, len(layers))
                        + b"".join(layers), st.sampled_from([1, 1, 2]),
                        st.lists(LAYERS, max_size=3))


@given(data=st.one_of(st.binary(max_size=40), _mutated(VALID_WEIGHTS), LAYER_FILES))
@FUZZ
def test_weight_bytes_build_or_are_a_format_error(workdir, data):
    path = workdir / "fuzz.nfw"
    path.write_bytes(data)
    try:
        topos = load_weights(path)
    except FedspikeError:
        return
    # What loads builds: the network needs nothing the file left out.
    build_network(topos, NeuronParams(), NeuronParams())


# --- wire frames -----------------------------------------------------------------

VALID_FRAME = encode_message(Message(MessageType.DELTA, 1, 2,
                                     struct.pack("<II", 2, 1) + bytes([4, 0, 254, 255])))
PAYLOADS = st.one_of(st.binary(max_size=24),
                     st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
                               st.binary(max_size=8)).map(
                         lambda p: struct.pack("<II", p[0], p[1]) + p[2]))


@given(data=st.one_of(st.binary(max_size=40), _mutated(VALID_FRAME),
                      st.tuples(st.sampled_from(list(MessageType)), PAYLOADS).map(
                          lambda m: encode_message(Message(m[0], 0, 0, m[1])))))
@FUZZ
def test_frames_decode_or_are_a_protocol_error(data):
    try:
        msg = decode_message(data)
    except FedspikeError:
        return
    unpack_abort(msg.payload)
    for unpack in (unpack_weights, unpack_delta):
        try:
            unpack(msg.payload)
        except FedspikeError:
            pass
