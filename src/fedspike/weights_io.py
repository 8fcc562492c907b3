"""Binary weight-file format "NFW1" (little-endian).

Layout: magic "NFW1", version u16=1, layer_count u16, then per layer:
kind u8 (1=sum_pool, 2=conv, 3=dense), shape 6xu16
(in_h, in_w, in_c, out_h, out_w, out_c), weight_count u32, weights i8[].

The file leaves out each layer's kernel and padding, and load infers them:
a pool's kernel is in_h // out_h, a conv's is sqrt(count / (out_c * in_c)),
and a conv wider than 1x1 that keeps its input's sides is zero-padded.
snn.LayerTopology then checks the layer against the one rule of what each
kind maps its input to and which weights it holds, and is the one check that
every stored weight sits on the even 8-bit grid. A weight off the grid loads
as ODD_WEIGHT; any other layer it rejects, or a conv or dense layer stored
without weights, loads as SHAPE_MISMATCH. So the file stays minimal and the
round-trip is bit-exact. Every layer must fit the u16 shapes and u32 count.
A file must end in a dense layer, the network's output layer, or it loads as
NO_HEAD.
"""

from __future__ import annotations

import io
import math
import struct
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .errors import FedspikeError
from .snn import LayerTopology, OffGridError, check_chain

MAGIC = b"NFW1"
VERSION = 1

_KIND_CODES = {"sum_pool": 1, "conv": 2, "dense": 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


class WeightFormatError(FedspikeError):
    """A weight file that breaks the format, or a layer that cannot be stored."""


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise WeightFormatError("TRUNCATED", "unexpected end of weight file")
    return buf


def check_storable(topologies: Sequence[LayerTopology]):
    """Raise TOO_LARGE for a layer with a dimension over the u16 shape fields
    or with 2^32 weights or more (counted from its shapes), over the u32 count."""
    for i, t in enumerate(topologies):
        count = math.prod(t.weight_shape) if t.weight_shape else 0
        if max(*t.in_shape, *t.out_shape) > 0xFFFF or count >= 1 << 32:
            raise WeightFormatError("TOO_LARGE", f"layer {i} ({t.kind}) maps {t.in_shape} -> "
                                    f"{t.out_shape} with {count} weights; a weight file "
                                    "holds dimensions up to 65535 and under 2^32 weights")


def save_weights(path, topologies: Sequence[LayerTopology]):
    check_storable(topologies)
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
    """Infer what the file leaves out, a layer's kernel and padding, and let
    LayerTopology check the layer (a ValueError if it rejects it)."""
    (ih, iw, ic), (oh, ow, oc) = in_shape, out_shape
    k, pad = 0, False
    if kind == "sum_pool":
        k = ih // oh if oh else 0
    elif weights is None:
        raise WeightFormatError("SHAPE_MISMATCH", f"{kind} layer missing weights")
    elif kind == "conv":
        k = math.isqrt(weights.size // (oc * ic)) if oc * ic else 0
        pad = (oh, ow) == (ih, iw) and k > 1
    return LayerTopology(kind, k, pad, in_shape, out_shape, weights)


def load_weights(path) -> list[LayerTopology]:
    # Read from memory, where a layer's weight count cannot make read() set
    # aside more than the file holds.
    fh = io.BytesIO(Path(path).read_bytes())
    if _read_exact(fh, 4) != MAGIC:
        raise WeightFormatError("BAD_MAGIC", "bad magic: not a weight file")
    version, layer_count = struct.unpack("<HH", _read_exact(fh, 4))
    if version != VERSION:
        raise WeightFormatError("BAD_VERSION", f"unsupported weight file version {version}")
    topos = []
    # LayerTopology checks every stored weight once: one off the grid is
    # ODD_WEIGHT; its other ValueErrors and check_chain's are SHAPE_MISMATCH.
    try:
        for _ in range(layer_count):
            (kind_code,) = struct.unpack("<B", _read_exact(fh, 1))
            if kind_code not in _KIND_NAMES:
                raise WeightFormatError("BAD_KIND", f"unknown layer kind {kind_code}")
            dims = struct.unpack("<6H", _read_exact(fh, 12))
            (count,) = struct.unpack("<I", _read_exact(fh, 4))
            weights = None
            if count:
                weights = np.frombuffer(_read_exact(fh, count), dtype="<i1")
            topos.append(_rebuild_topology(_KIND_NAMES[kind_code], dims[:3], dims[3:], weights))
        if fh.read(1):
            raise WeightFormatError("TRAILING_DATA", "trailing bytes after last layer")
        if not topos or topos[-1].kind != "dense":
            raise WeightFormatError("NO_HEAD", "the network does not end in a dense output layer")
        check_chain(topos)
    except OffGridError:
        raise WeightFormatError("ODD_WEIGHT", "odd weight value in file") from None
    except ValueError as err:
        raise WeightFormatError("SHAPE_MISMATCH", str(err)) from None
    return topos
