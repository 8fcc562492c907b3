"""Binary weight-file format "NFW1" (little-endian).

Layout: magic "NFW1", version u16=1, layer_count u16, then per layer:
kind u8 (1=sum_pool, 2=conv, 3=dense), shape 6xu16
(in_h, in_w, in_c, out_h, out_w, out_c), weight_count u32, weights i8[].

Kernel size, stride and padding are recovered from the shapes and weight
counts (a conv wider than 1x1 that keeps its input shape is zero-padded, so
its kernel must be odd), so the file stays minimal and the round-trip is
bit-exact. Every stored weight must sit on the even 8-bit grid.
"""

from __future__ import annotations

import math
import struct
from typing import BinaryIO, Sequence

import numpy as np

from .snn import LayerTopology

MAGIC = b"NFW1"
VERSION = 1

_KIND_CODES = {"sum_pool": 1, "conv": 2, "dense": 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


class WeightFormatError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise WeightFormatError("TRUNCATED", "unexpected end of weight file")
    return buf


def save_weights(path, topologies: Sequence[LayerTopology]):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HH", VERSION, len(topologies)))
        for topo in topologies:
            weights = topo.weights
            count = 0 if weights is None else weights.size
            fh.write(struct.pack("<B", _KIND_CODES[topo.kind]))
            fh.write(struct.pack("<6H", *topo.in_shape, *topo.out_shape))
            fh.write(struct.pack("<I", count))
            if count:
                fh.write(np.ascontiguousarray(weights, dtype="<i1").tobytes())


def _rebuild_topology(kind: str, in_shape, out_shape, weights) -> LayerTopology:
    ih, iw, ic = in_shape
    oh, ow, oc = out_shape
    if kind == "sum_pool":
        if weights is not None:
            raise WeightFormatError("SHAPE_MISMATCH", "pool layer carries weights")
        if ic != oc or oh == 0 or ow == 0 or ih % oh or iw % ow or ih // oh != iw // ow:
            raise WeightFormatError("SHAPE_MISMATCH", f"pool shapes invalid: {in_shape}->{out_shape}")
        return LayerTopology(kind, ih // oh, ih // oh, False, in_shape, out_shape)
    if kind == "conv":
        if weights is None:
            raise WeightFormatError("SHAPE_MISMATCH", "conv layer missing weights")
        per_filter = weights.size // oc if oc else 0
        if oc == 0 or weights.size % oc or ic == 0 or per_filter % ic:
            raise WeightFormatError("SHAPE_MISMATCH", "conv weight count does not factor")
        k = math.isqrt(per_filter // ic)
        if k * k * ic * oc != weights.size:
            raise WeightFormatError("SHAPE_MISMATCH", "conv weight count is not a square kernel")
        if oh == ih and ow == iw and k > 1 and k % 2:
            pad = True
        elif oh == ih - k + 1 and ow == iw - k + 1:
            pad = False
        else:
            raise WeightFormatError("SHAPE_MISMATCH", f"conv shapes invalid: {in_shape}->{out_shape}")
        return LayerTopology(kind, k, 1, pad, in_shape, out_shape,
                             weights.reshape(oc, ic, k, k))
    # dense
    if weights is None:
        raise WeightFormatError("SHAPE_MISMATCH", "dense layer missing weights")
    in_size = ih * iw * ic
    if oh != 1 or ow != 1 or weights.size != in_size * oc:
        raise WeightFormatError("SHAPE_MISMATCH", f"dense shapes invalid: {in_shape}->{out_shape}")
    return LayerTopology(kind, 0, 0, False, in_shape, out_shape,
                         weights.reshape(oc, in_size))


def load_weights(path) -> list[LayerTopology]:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MAGIC:
            raise WeightFormatError("BAD_MAGIC", "bad magic: not a weight file")
        version, layer_count = struct.unpack("<HH", _read_exact(fh, 4))
        if version != VERSION:
            raise WeightFormatError("BAD_VERSION", f"unsupported weight file version {version}")
        topos = []
        for _ in range(layer_count):
            (kind_code,) = struct.unpack("<B", _read_exact(fh, 1))
            if kind_code not in _KIND_NAMES:
                raise WeightFormatError("BAD_KIND", f"unknown layer kind {kind_code}")
            dims = struct.unpack("<6H", _read_exact(fh, 12))
            (count,) = struct.unpack("<I", _read_exact(fh, 4))
            weights = None
            if count:
                raw = np.frombuffer(_read_exact(fh, count), dtype="<i1").astype(np.int8)
                if np.any(raw % 2 != 0):
                    raise WeightFormatError("ODD_WEIGHT", "odd weight value in file")
                weights = raw
            topos.append(_rebuild_topology(_KIND_NAMES[kind_code], dims[:3], dims[3:], weights))
        if fh.read(1):
            raise WeightFormatError("TRAILING_DATA", "trailing bytes after last layer")
    for prev, nxt in zip(topos, topos[1:]):
        if int(np.prod(prev.out_shape)) != int(np.prod(nxt.in_shape)):
            raise WeightFormatError(
                "SHAPE_MISMATCH",
                f"layer shapes do not chain: {prev.out_shape} -> {nxt.in_shape}",
            )
    return topos
