"""Weight file round-trips and malformed-input rejection."""

import struct

import numpy as np
import pytest

from fedspike.quant import Rng
from fedspike.snn import NeuronParams, build_network, parse_arch
from fedspike.weights_io import (
    MAGIC,
    WeightFormatError,
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
        (2 * np.random.default_rng(3).integers(-20, 21, size=(5, head.in_size))).astype(np.int8)
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
            assert (a.kind, a.kernel, a.stride, a.zero_pad) == (
                b.kind, b.kernel, b.stride, b.zero_pad)
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
