"""Frame encoding, payload codecs and malformed-frame rejection."""

import socket
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspike.protocol import (
    HEADER,
    MAGIC,
    Message,
    MessageType,
    ProtocolError,
    decode_message,
    encode_message,
    pack_abort,
    pack_array,
    recv_frame,
    send_frame,
    unpack_abort,
    unpack_array,
)


class TestFrameLayout:
    def test_hello_for_client_3_exact_bytes(self):
        frame = encode_message(Message(MessageType.HELLO, client_id=3))
        body = MAGIC + struct.pack("<HBIII", 1, 0x01, 3, 0, 0)
        expected = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        assert frame == expected

    def test_header_is_19_bytes(self):
        assert HEADER.size == 19


class TestRoundTrip:
    @given(
        mtype=st.sampled_from(list(MessageType)),
        client_id=st.integers(0, 2**32 - 1),
        round_=st.integers(0, 2**32 - 1),
        payload=st.binary(max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_decode_inverts_encode(self, mtype, client_id, round_, payload):
        msg = Message(mtype, client_id, round_, payload)
        back = decode_message(encode_message(msg))
        assert back == msg

    @given(
        mtype=st.sampled_from(list(MessageType)),
        payload=st.binary(max_size=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_encode_inverts_decode(self, mtype, payload):
        frame = encode_message(Message(mtype, 1, 2, payload))
        assert encode_message(decode_message(frame)) == frame


class TestRejection:
    def make_frame(self):
        return bytearray(encode_message(Message(MessageType.DELTA, 1, 4, b"\x05\x06")))

    def expect(self, data, code):
        with pytest.raises(ProtocolError) as exc:
            decode_message(bytes(data))
        assert exc.value.code == code

    def test_bad_magic(self):
        frame = self.make_frame()
        frame[0] = ord("X")
        self.expect(frame, "BAD_MAGIC")

    def test_bad_version(self):
        frame = self.make_frame()
        frame[4:6] = struct.pack("<H", 7)
        self.expect(frame, "BAD_VERSION")

    def test_bad_type(self):
        frame = self.make_frame()
        frame[6] = 0x4F
        # The checksum is computed over the body, so corrupting the type
        # must be reported as a type error only when the crc is fixed up.
        body = bytes(frame[:-4])
        frame[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        self.expect(frame, "BAD_TYPE")

    def test_flipped_checksum_bit(self):
        frame = self.make_frame()
        frame[-1] ^= 0x01
        self.expect(frame, "BAD_CHECKSUM")

    def test_flipped_payload_bit(self):
        frame = self.make_frame()
        frame[HEADER.size] ^= 0x80
        self.expect(frame, "BAD_CHECKSUM")

    def test_truncated(self):
        frame = self.make_frame()
        self.expect(frame[:-3], "TRUNCATED")
        self.expect(frame[:10], "TRUNCATED")

    def test_trailing_data(self):
        frame = self.make_frame() + b"\x00"
        self.expect(frame, "TRAILING_DATA")


class TestPayloadCodecs:
    """pack_array / unpack_array: weights travel as "<i1", deltas as "<i2"."""

    def test_weights_round_trip(self):
        w = np.arange(-12, 12, 2, dtype=np.int8).reshape(3, 4)
        assert np.array_equal(unpack_array(pack_array(w, "<i1"), "<i1"), w)

    def test_weights_length_mismatch(self):
        payload = pack_array(np.zeros((2, 2), dtype=np.int8), "<i1")
        with pytest.raises(ProtocolError) as exc:
            unpack_array(payload + b"\x00", "<i1")
        assert exc.value.code == "BAD_PAYLOAD"

    def test_weights_must_be_2d(self):
        with pytest.raises(ProtocolError):
            pack_array(np.zeros(4, dtype=np.int8), "<i1")

    @pytest.mark.parametrize("value", [128, -129])
    def test_weights_range_checked(self, value):
        # An int64 weight past int8 is an error, never wrapped onto the wire.
        with pytest.raises(ProtocolError) as exc:
            pack_array(np.array([[0, value]]), "<i1")
        assert exc.value.code == "BAD_PAYLOAD"

    def test_snapshot_payload_golden_bytes(self):
        w = np.array([[-128, -2, 0], [2, 64, 126]], dtype=np.int8)
        payload = pack_array(w, "<i1")
        assert payload == bytes.fromhex("02000000" "03000000" "80fe00" "02407e")

    def test_delta_payload_golden_bytes(self):
        d = np.array([[-254, 0], [256, -32768], [32767, 2]], dtype=np.int64)
        payload = pack_array(d, "<i2")
        assert payload == bytes.fromhex("03000000" "02000000" "02ff" "0000"
                                        "0001" "0080" "ff7f" "0200")

    def test_delta_round_trip_preserves_negatives(self):
        d = np.array([[-254, 0], [254, -2]], dtype=np.int64)
        back = unpack_array(pack_array(d, "<i2"), "<i2")
        assert back.dtype == np.int64
        assert np.array_equal(back, d)

    def test_delta_range_checked(self):
        with pytest.raises(ProtocolError):
            pack_array(np.array([[1 << 15]]), "<i2")

    def test_delta_length_mismatch(self):
        payload = pack_array(np.zeros((2, 2), dtype=np.int64), "<i2")
        with pytest.raises(ProtocolError) as exc:
            unpack_array(payload[:-1], "<i2")
        assert exc.value.code == "BAD_PAYLOAD"

    def test_abort_reason_round_trip(self):
        assert unpack_abort(pack_abort("round 3 failed")) == "round 3 failed"


class TestSocketFraming:
    def test_send_recv_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            msg = Message(MessageType.SNAPSHOT, 2, 5,
                          pack_array(np.full((2, 3), 4, dtype=np.int8), "<i1"))
            send_frame(a, msg)
            assert recv_frame(b) == msg
        finally:
            a.close()
            b.close()

    def test_messages_arrive_in_order(self):
        a, b = socket.socketpair()
        try:
            for i in range(5):
                send_frame(a, Message(MessageType.DELTA, i, i))
            for i in range(5):
                assert recv_frame(b).client_id == i
        finally:
            a.close()
            b.close()

    def test_closed_connection_mid_frame(self):
        a, b = socket.socketpair()
        frame = encode_message(Message(MessageType.ACK, 1, 1))
        a.sendall(frame[:7])
        a.close()
        try:
            with pytest.raises(ProtocolError) as exc:
                recv_frame(b)
            assert exc.value.code == "TRUNCATED"
        finally:
            b.close()
