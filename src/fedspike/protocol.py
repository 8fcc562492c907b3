"""Length-prefixed binary frames for the federation wire protocol ("NFL1").

Frame layout, little-endian: magic "NFL1", version u16=1, type u8,
client_id u32, round u32, payload_len u32, payload bytes, crc32 u32 computed
over header plus payload. One frame per message in both directions.

Payloads: SNAPSHOT carries (rows u32, cols u32, int8 weights), DELTA carries
(rows u32, cols u32, int16 deltas), ABORT carries a utf-8 reason string,
HELLO and ACK are empty.
"""

from __future__ import annotations

import enum
import socket
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import FedspikeError

MAGIC = b"NFL1"
VERSION = 1
HEADER = struct.Struct("<4sHBIII")  # magic, version, type, client_id, round, payload_len
CRC = struct.Struct("<I")
MAX_PAYLOAD = 1 << 24


class MessageType(enum.IntEnum):
    HELLO = 0x01
    SNAPSHOT = 0x02
    DELTA = 0x03
    ACK = 0x04
    ABORT = 0x05


class ProtocolError(FedspikeError):
    """A frame or payload that breaks the wire format."""


@dataclass
class Message:
    type: MessageType
    client_id: int = 0
    round: int = 0
    payload: bytes = field(default=b"", repr=False)


def encode_message(msg: Message) -> bytes:
    if len(msg.payload) > MAX_PAYLOAD:
        raise ProtocolError("BAD_PAYLOAD", "payload too large")
    head = HEADER.pack(MAGIC, VERSION, int(msg.type), msg.client_id,
                       msg.round, len(msg.payload))
    body = head + msg.payload
    return body + CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def decode_message(data: bytes) -> Message:
    if len(data) < HEADER.size + CRC.size:
        raise ProtocolError("TRUNCATED", "frame shorter than a header")
    magic, version, mtype, client_id, round_, payload_len = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ProtocolError("BAD_MAGIC", "bad magic: not a protocol frame")
    if version != VERSION:
        raise ProtocolError("BAD_VERSION", f"unsupported protocol version {version}")
    try:
        mtype = MessageType(mtype)
    except ValueError:
        raise ProtocolError("BAD_TYPE", f"unknown message type 0x{mtype:02x}") from None
    expected = HEADER.size + payload_len + CRC.size
    if len(data) < expected:
        raise ProtocolError("TRUNCATED", "frame ends before its declared payload")
    if len(data) > expected:
        raise ProtocolError("TRAILING_DATA", "bytes after the frame checksum")
    body, crc_bytes = data[: HEADER.size + payload_len], data[HEADER.size + payload_len:]
    (crc,) = CRC.unpack(crc_bytes)
    if crc != zlib.crc32(body) & 0xFFFFFFFF:
        raise ProtocolError("BAD_CHECKSUM", "frame checksum mismatch")
    return Message(mtype, client_id, round_, data[HEADER.size: HEADER.size + payload_len])


# --- payload codecs ---------------------------------------------------------

def pack_weights(w: np.ndarray) -> bytes:
    w = np.asarray(w)
    if w.ndim != 2:
        raise ProtocolError("BAD_PAYLOAD", "weights must be 2-D")
    return struct.pack("<II", *w.shape) + w.astype("<i1").tobytes()


def unpack_weights(payload: bytes) -> np.ndarray:
    if len(payload) < 8:
        raise ProtocolError("BAD_PAYLOAD", "weight payload shorter than its shape")
    rows, cols = struct.unpack_from("<II", payload)
    if len(payload) != 8 + rows * cols:
        raise ProtocolError("BAD_PAYLOAD", "weight payload length mismatch")
    return np.frombuffer(payload, dtype="<i1", offset=8).reshape(rows, cols).copy()


def pack_delta(d: np.ndarray) -> bytes:
    d = np.asarray(d)
    if d.ndim != 2:
        raise ProtocolError("BAD_PAYLOAD", "delta must be 2-D")
    if d.size and (d.min() < -(1 << 15) or d.max() >= (1 << 15)):
        raise ProtocolError("BAD_PAYLOAD", "delta exceeds 16-bit range")
    return struct.pack("<II", *d.shape) + d.astype("<i2").tobytes()


def unpack_delta(payload: bytes) -> np.ndarray:
    if len(payload) < 8:
        raise ProtocolError("BAD_PAYLOAD", "delta payload shorter than its shape")
    rows, cols = struct.unpack_from("<II", payload)
    if len(payload) != 8 + 2 * rows * cols:
        raise ProtocolError("BAD_PAYLOAD", "delta payload length mismatch")
    return (np.frombuffer(payload, dtype="<i2", offset=8)
            .astype(np.int64).reshape(rows, cols))


def pack_abort(reason: str) -> bytes:
    return reason.encode("utf-8")


def unpack_abort(payload: bytes) -> str:
    return payload.decode("utf-8", errors="replace")


# --- stream transport -------------------------------------------------------

def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            raise ProtocolError("TRUNCATED", "connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, msg: Message):
    sock.sendall(encode_message(msg))


def recv_frame(sock: socket.socket) -> Message:
    head = _recv_exact(sock, HEADER.size)
    magic, _, _, _, _, payload_len = HEADER.unpack(head)
    if magic != MAGIC:
        raise ProtocolError("BAD_MAGIC", "bad magic: not a protocol frame")
    if payload_len > MAX_PAYLOAD:
        raise ProtocolError("BAD_PAYLOAD", "declared payload too large")
    rest = _recv_exact(sock, payload_len + CRC.size)
    return decode_message(head + rest)
