"""Weight file round-trips and malformed-input rejection."""

import itertools
import math
import struct
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from fedspike.quant import Rng
from fedspike.snn import LayerTopology, NeuronParams, build_network, parse_arch
from fedspike.weights_io import (
    MAGIC,
    WeightFormatError,
    check_storable,
    load_weights,
    save_weights,
)

ARCH = "16x16x2, 2a, 4c3z, 2a, dense32, out"


def build_example_net(arch=ARCH):
    net = build_network(
        parse_arch(arch, num_classes=5),
        NeuronParams(threshold=64),
        NeuronParams(threshold=64),
        rng=Rng(7),
    )
    head = net.output_layer
    head.set_weights(
        (2 * np.random.default_rng(3).integers(-20, 21, size=head.topo.weight_shape)).astype(np.int8)
    )
    return net


class TestRoundTrip:
    # A 1x1 conv pads nothing, so 4c1 and 4c1z both load back unpadded.
    @pytest.mark.parametrize("arch", [ARCH, "8x8x2, 4c1, out", "8x8x2, 4c1z, out"],
                             ids=["example", "4c1", "4c1z"])
    def test_topologies_survive_save_load(self, tmp_path, arch):
        net = build_example_net(arch)
        path = tmp_path / "w.nfw"
        save_weights(path, net.topologies)
        loaded = load_weights(path)
        assert len(loaded) == len(net.topologies)
        for a, b in zip(net.topologies, loaded):
            assert (a.kind, a.kernel, a.zero_pad) == (b.kind, b.kernel, b.zero_pad)
            assert (a.in_shape, a.out_shape) == (b.in_shape, b.out_shape)
            if a.weights is None:
                assert b.weights is None
            else:
                assert np.array_equal(a.weights.reshape(-1), b.weights.reshape(-1))

    def test_second_save_is_byte_identical(self, tmp_path):
        net = build_example_net()
        p1, p2 = tmp_path / "a.nfw", tmp_path / "b.nfw"
        save_weights(p1, net.topologies)
        save_weights(p2, load_weights(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_network_behaves_identically(self, tmp_path):
        net = build_example_net()
        path = tmp_path / "w.nfw"
        save_weights(path, net.topologies)
        clone = build_network(load_weights(path),
                              NeuronParams(threshold=64), NeuronParams(threshold=64))
        frames = np.random.default_rng(1).integers(0, 2, size=(20, 16, 16, 2)).astype(np.int8)
        assert np.array_equal(net.forward_window(frames),
                              clone.forward_window(frames))


def write_valid_file(tmp_path):
    net = build_example_net()
    path = tmp_path / "w.nfw"
    save_weights(path, net.topologies)
    return path


class TestMalformedFiles:
    def expect(self, path, code):
        with pytest.raises(WeightFormatError) as exc:
            load_weights(path)
        assert exc.value.code == code

    def test_bad_magic(self, tmp_path):
        path = write_valid_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(b"XXXX" + data[4:])
        self.expect(path, "BAD_MAGIC")

    def test_bad_version(self, tmp_path):
        path = write_valid_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(data))
        self.expect(path, "BAD_VERSION")

    def test_bad_kind(self, tmp_path):
        path = write_valid_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # first layer's kind byte
        path.write_bytes(bytes(data))
        self.expect(path, "BAD_KIND")

    def test_truncated(self, tmp_path):
        path = write_valid_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        self.expect(path, "TRUNCATED")

    def test_count_past_the_file_reserves_no_memory(self, tmp_path):
        # A layer claiming 2^32 - 1 weights used to make read() ask for 4 GB.
        path = tmp_path / "w.nfw"
        path.write_bytes(MAGIC + struct.pack("<HHB6HI", 1, 1, 3, 1, 1, 1, 1, 1, 1, 2**32 - 1))
        tracemalloc.start()
        try:
            self.expect(path, "TRUNCATED")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_trailing_data(self, tmp_path):
        path = write_valid_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        self.expect(path, "TRAILING_DATA")

    def test_odd_weight(self, tmp_path):
        net = build_example_net()
        # Corrupt one weight byte of the dense head (last layer in the file).
        path = tmp_path / "w.nfw"
        save_weights(path, net.topologies)
        data = bytearray(path.read_bytes())
        data[-1] = 0x03
        path.write_bytes(bytes(data))
        with pytest.raises(WeightFormatError, match="odd weight value") as exc:
            load_weights(path)
        assert exc.value.code == "ODD_WEIGHT"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "w.nfw"
        path.write_bytes(b"")
        self.expect(path, "TRUNCATED")

    def test_chain_mismatch(self, tmp_path):
        net = build_example_net()
        topos = net.topologies
        # Save only the conv layer and the head; their shapes cannot chain.
        path = tmp_path / "w.nfw"
        save_weights(path, [topos[1], topos[-1]])
        self.expect(path, "SHAPE_MISMATCH")

    def test_dense_weight_count_mismatch(self, tmp_path):
        # Declare a larger out_c for the dense head without adding weights.
        path = tmp_path / "w.nfw"
        net = build_example_net()
        head = net.topologies[-1]
        buf = MAGIC + struct.pack("<HH", 1, 1)
        buf += struct.pack("<B", 3)
        buf += struct.pack("<6H", *head.in_shape, 1, 1, head.out_shape[2] + 1)
        buf += struct.pack("<I", head.weights.size)
        buf += head.weights.astype("<i1").tobytes()
        path.write_bytes(buf)
        self.expect(path, "SHAPE_MISMATCH")

    def write_layer(self, tmp_path, kind, shapes, weights=b""):
        path = tmp_path / "w.nfw"
        path.write_bytes(MAGIC + struct.pack("<HHB", 1, 1, kind) + struct.pack("<6H", *shapes)
                         + struct.pack("<I", len(weights)) + weights)
        return path

    def test_pool_with_a_zero_output_width(self, tmp_path):
        self.expect(self.write_layer(tmp_path, 1, (4, 4, 1, 2, 0, 1)), "SHAPE_MISMATCH")

    def test_even_conv_kernel_that_keeps_the_input_shape(self, tmp_path):
        # A 2x2 kernel cannot be zero-padded to keep (4, 4, 1), nor shrink to it.
        path = self.write_layer(tmp_path, 2, (4, 4, 1, 4, 4, 1), bytes([2, 0, 0, 2]))
        self.expect(path, "SHAPE_MISMATCH")


class TestWeightGrid:
    """LayerTopology is the one gate onto the weight grid, so every topology
    that save_weights can be given writes the values it holds."""

    @pytest.mark.parametrize("value", [300, -130, 3, 2.5])
    def test_no_topology_holds_a_weight_off_the_grid(self, value):
        head = build_example_net().output_layer
        before = head.topo
        w = np.full(head.topo.weight_shape, value)
        with pytest.raises(ValueError, match="off the even 8-bit grid"):
            LayerTopology("dense", 0, False, before.in_shape, before.out_shape, w)
        with pytest.raises(ValueError, match="off the even 8-bit grid"):
            head.set_weights(w)
        conv = parse_arch(ARCH, num_classes=5)[1]
        with pytest.raises(ValueError, match="off the even 8-bit grid"):
            replace(conv, weights=np.full(conv.weight_shape, value))
        with pytest.raises(FrozenInstanceError):
            before.weights = w
        assert head.topo is before


class TestTooLarge:
    def test_layer_wider_than_u16_is_refused_before_the_file_opens(self, tmp_path):
        # It used to die in struct.pack and leave a truncated file behind.
        net = build_network(parse_arch("2x2x2, dense65536, out", num_classes=1),
                            NeuronParams(), NeuronParams(), rng=Rng(1))
        path = tmp_path / "w.nfw"
        with pytest.raises(WeightFormatError) as exc:
            save_weights(path, net.topologies)
        assert exc.value.code == "TOO_LARGE"
        assert str(exc.value) == ("layer 0 (dense) maps (2, 2, 2) -> (1, 1, 65536) with "
                                  "524288 weights; a weight file holds dimensions up to "
                                  "65535 and under 2^32 weights")
        assert not path.exists()

    @pytest.mark.parametrize("arch", ["1x65535x2, dense32769, out", "2x2x2, 4c65537z, out"])
    def test_weight_count_of_2_32_or_more_is_refused(self, arch):
        with pytest.raises(WeightFormatError, match="[0-9]{10,} weights") as exc:
            check_storable(parse_arch(arch, num_classes=1))
        assert exc.value.code == "TOO_LARGE"

    def test_largest_storable_layers_pass(self):
        check_storable(parse_arch("1x65535x2, dense32768, out", num_classes=1))
        check_storable(parse_arch("2x2x2, dense65535, out", num_classes=65535))


def layer_tokens():
    """Every pool, conv and dense token of the exhaustive grid."""
    yield from (f"{k}a" for k in (1, 2, 3))
    yield from (f"{f}c{k}{z}" for f in (1, 2) for k in (1, 2, 3, 4) for z in ("", "z"))
    yield from ("dense1", "dense2")


def accepted(kind, in_shape, out_shape, weights):
    """Whether any kernel and padding make LayerTopology accept a stored layer."""
    for k in range(6):
        for pad in (False, True):
            try:
                LayerTopology(kind, k, pad, in_shape, out_shape, weights)
                return True
            except ValueError:
                pass
    return False


class TestLayerRuleGrid:
    """The one layer rule, exhaustively on small shapes: parse_arch and the
    weight file agree on which layers exist and on what they hold."""

    def test_every_small_arch_round_trips_or_is_rejected(self, tmp_path):
        path = tmp_path / "w.nfw"
        built = 0
        for h, w, c in itertools.product(range(1, 6), range(1, 6), (1, 2)):
            for tok in layer_tokens():
                arch = f"{h}x{w}x{c}, {tok}, out"
                try:
                    topos = parse_arch(arch, num_classes=2)
                except ValueError:
                    continue
                net = build_network(topos, NeuronParams(), NeuronParams(), rng=Rng(1))
                save_weights(path, net.topologies)
                for a, b in zip(net.topologies, load_weights(path), strict=True):
                    assert (a.kind, a.kernel, a.zero_pad, a.in_shape, a.out_shape) == \
                        (b.kind, b.kernel, b.zero_pad, b.in_shape, b.out_shape), arch
                    assert (a.weights is None) == (b.weights is None), arch
                    if a.weights is not None:
                        assert np.array_equal(a.weights, b.weights), arch
                built += 1
        # Per input: the pools whose kernel divides both sides, the unpadded
        # convs no wider than the input, every odd padded conv, both denses.
        assert built == 576

    def test_stored_layers_load_exactly_when_the_rule_accepts_them(self, tmp_path):
        # A file leaves out the kernel and padding: a one-layer file must
        # pass the layer rule when some kernel and padding fit its shapes and
        # weight count, and be SHAPE_MISMATCH otherwise. A layer that passes
        # then loads if it is a dense head, and is NO_HEAD if not.
        path = tmp_path / "w.nfw"
        loaded = 0
        for kind, code in (("sum_pool", 1), ("conv", 2), ("dense", 3)):
            for in_shape in itertools.product(range(1, 4), range(1, 4), (1, 2)):
                for out_shape in itertools.product(range(4), range(4), range(3)):
                    ic, oc = in_shape[2], out_shape[2]
                    counts = {"sum_pool": {0, 2},
                              "conv": {0, 1, oc * ic, 4 * oc * ic, 9 * oc * ic, 9 * oc * ic + 1},
                              "dense": {0, 1, oc * math.prod(in_shape),
                                        oc * math.prod(in_shape) + 1}}[kind]
                    for count in counts:
                        weights = np.zeros(count, dtype=np.int8) if count else None
                        ok = (weights is None) == (kind == "sum_pool") and \
                            accepted(kind, in_shape, out_shape, weights)
                        path.write_bytes(MAGIC + struct.pack("<HHB6HI", 1, 1, code, *in_shape,
                                                             *out_shape, count) + bytes(count))
                        try:
                            load_weights(path)
                            got = None
                        except WeightFormatError as err:
                            got = err.code
                        want = ("SHAPE_MISMATCH" if not ok
                                else None if kind == "dense" else "NO_HEAD")
                        assert got == want, (kind, in_shape, out_shape, count)
                        loaded += ok
        assert loaded > 100
