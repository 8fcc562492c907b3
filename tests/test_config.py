"""Config file parsing, overrides, and fail-fast validation."""

import socket
import threading
from fractions import Fraction

import pytest

from fedspike.config import (
    ConfigError,
    ExperimentConfig,
    dump_config,
    load_config,
    parse_address,
    parse_fraction,
)


class TestParsers:
    def test_fraction_whole(self):
        assert parse_fraction("1") == Fraction(1)
        assert parse_fraction("4") == Fraction(4)

    def test_fraction_ratio(self):
        assert parse_fraction("1/8") == Fraction(1, 8)
        assert parse_fraction(" 3/2 ") == Fraction(3, 2)

    def test_fraction_rejects_junk(self):
        for bad in ("x", "1/0", "1/2/3", ""):
            with pytest.raises(ConfigError):
                parse_fraction(bad)

    def test_address(self):
        assert parse_address("127.0.0.1:7000") == ("127.0.0.1", 7000)
        assert parse_address("[::1]:80") == ("[::1]", 80)

    def test_address_rejects_junk(self):
        for bad in ("nohost", ":80", "host:", "host:zz"):
            with pytest.raises(ConfigError):
                parse_address(bad)


class TestLoad:
    def test_defaults_are_valid(self):
        cfg = load_config(None)
        assert cfg == ExperimentConfig()

    def test_ini_round_trip(self, tmp_path):
        cfg = ExperimentConfig(rounds=3, master_seed=99,
                               learning_rate=Fraction(1, 4), box_enabled=False)
        path = tmp_path / "exp.ini"
        path.write_text(dump_config(cfg))
        assert load_config(str(path)) == cfg

    def test_file_values_land(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[federation]\nclients = 3\nrounds = 2\ntransport = socket\n"
            "listen = 10.0.0.1:9000\n"
            "[plasticity]\nlearning_rate = 1/4\nbox_enabled = off\n"
            "[seed]\nmaster = 123\n")
        cfg = load_config(str(path))
        assert cfg.clients == 3
        assert cfg.rounds == 2
        assert cfg.transport == "socket"
        assert cfg.listen == ("10.0.0.1", 9000)
        assert cfg.learning_rate == Fraction(1, 4)
        assert cfg.box_enabled is False
        assert cfg.master_seed == 123

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[federation]\nrounds = 2\n")
        cfg = load_config(str(path), {"rounds": 9, "master_seed": 5})
        assert cfg.rounds == 9
        assert cfg.master_seed == 5

    def test_none_overrides_ignored(self):
        cfg = load_config(None, {"rounds": None, "clients": None})
        assert cfg.rounds == ExperimentConfig().rounds

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/exp.ini")

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"\[mystery\]"):
            load_config(str(path))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[federation]\nwarp_factor = 9\n")
        with pytest.raises(ConfigError, match="warp_factor"):
            load_config(str(path))

    def test_bad_int(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[federation]\nrounds = soon\n")
        with pytest.raises(ConfigError, match=r"\[federation\] rounds"):
            load_config(str(path))

    def test_bad_bool(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[plasticity]\nbox_enabled = maybe\n")
        with pytest.raises(ConfigError, match="box_enabled"):
            load_config(str(path))


class TestValidation:
    def test_error_names_the_field(self):
        cases = [
            ({"window": 0}, r"\[plasticity\] window"),
            ({"error_offset": 128}, r"\[plasticity\] error_offset"),
            ({"learning_rate": Fraction(3, 7)}, r"\[plasticity\] learning_rate"),
            ({"transport": "tcp"}, r"\[federation\] transport"),
            ({"classes": 11}, r"\[data\] classes"),
            # Event records store the sensor as u16; each side has its own key.
            ({"height": 0}, r"\[data\] height: must be in \[1, 65535\]"),
            ({"width": 65536}, r"\[data\] width: must be in \[1, 65535\]"),
            ({"height": 65536}, r"\[data\] height: must be in \[1, 65535\]"),
            ({"width": 131072, "height": 4, "arch": "4x131072x2, out"}, r"\[data\] width"),
            ({"clients": 0}, r"\[federation\] clients"),
            ({"alpha1_shift": 0}, r"\[plasticity\] alpha1_shift"),
            ({"alpha2_shift": 2}, r"\[plasticity\] alpha2_shift"),
            ({"box_low": 10, "box_high": 5}, r"\[plasticity\] box_high"),
            ({"hidden_threshold": 0}, r"\[network\] hidden_threshold"),
            ({"master_seed": -1}, r"\[seed\] master"),
            ({"arch": "noise"}, r"\[network\] arch"),
        ]
        for kwargs, pattern in cases:
            with pytest.raises(ConfigError, match=pattern):
                ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("rate", [709.0, 1000.0, 5000.0, float("inf")])
    def test_noise_rate_beyond_the_poisson_sampler_rejected(self, rate):
        # exp(-rate) leaves the normal doubles near 708.4: rates of 1000 and
        # 5000 would both draw about 754 events per step.
        with pytest.raises(ConfigError, match=r"\[data\] noise_rate"):
            ExperimentConfig(noise_rate=rate)

    def test_duration_beyond_32_bit_timestamps_rejected(self):
        with pytest.raises(ConfigError, match=r"\[data\] duration_us"):
            ExperimentConfig(duration_us=2**32 + 1)

    def test_noise_rate_within_the_sampler_allowed(self):
        assert ExperimentConfig(noise_rate=708.0).noise_rate == 708.0

    def test_arch_must_match_sensor_shape(self):
        with pytest.raises(ConfigError, match=r"\[network\] arch"):
            ExperimentConfig(width=16)  # desk arch expects 32x32x2 frames

    def test_custom_arch_with_matching_sensor(self):
        cfg = ExperimentConfig(arch="16x16x2, out", width=16, height=16)
        assert cfg.arch == "16x16x2, out"

    @pytest.mark.parametrize("arch", ["32x32x2, 16a, out", "32x32x2, 4a, 4a, out",
                                      "32x32x2, 2a, 4c3z, 16a, out"])
    def test_head_input_counts_over_int8_rejected(self, arch):
        # The cached head input is int8: a 16a pool's count of 256 would wrap to 0.
        with pytest.raises(ConfigError, match=r"\[network\] arch.*127"):
            ExperimentConfig(arch=arch)

    @pytest.mark.parametrize("arch", ["desk", "32x32x2, 2a, out", "32x32x2, 2a, 2a, 2a, out",
                                      "32x32x2, 16a, 4c1, 2a, out"])
    def test_head_input_counts_within_int8_allowed(self, arch):
        assert ExperimentConfig(arch=arch).arch == arch

    @pytest.mark.parametrize("arch", ["32x32x2, 0a, out", "32x32x2, 4c0, out",
                                      "32x32x2, 0c3, out", "32x32x2, dense0, out",
                                      "32x32x2, 4c2z, out"])
    def test_layers_that_cannot_exist_rejected(self, arch):
        # A zero pool kernel divides by zero; a zero conv kernel grows the
        # frame; zero filters or units leave the head no input; a zero-padded
        # even kernel has no centre.
        with pytest.raises(ConfigError, match=r"\[network\] arch"):
            ExperimentConfig(arch=arch)

    def test_largest_u16_sensor_allowed(self):
        cfg = ExperimentConfig(width=65535, height=1, arch="1x65535x2, out")
        assert (cfg.width, cfg.height) == (65535, 1)

    def test_rounds_zero_allowed(self):
        assert ExperimentConfig(rounds=0).rounds == 0

    def test_power_of_two_rates_allowed(self):
        for lr in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 128)):
            assert ExperimentConfig(learning_rate=lr).learning_rate == lr

    @pytest.mark.parametrize("port", [65536, 70000, -1])
    def test_listen_port_outside_16_bits_rejected(self, tmp_path, port):
        # bind() would fail later with a raw OverflowError.
        path = tmp_path / "exp.ini"
        path.write_text(f"[federation]\nlisten = 127.0.0.1:{port}\n")
        with pytest.raises(ConfigError, match=r"\[federation\] listen"):
            load_config(str(path))

    @pytest.mark.parametrize("port", [0, 65535])
    def test_listen_port_range_ends_allowed(self, port):
        assert ExperimentConfig(listen=("127.0.0.1", port)).listen[1] == port

    @pytest.mark.parametrize("timeout", [float("inf"), 1e12, 2 * threading.TIMEOUT_MAX,
                                         float("nan")])
    def test_timeout_a_socket_cannot_take_rejected(self, tmp_path, timeout):
        path = tmp_path / "exp.ini"
        path.write_text(f"[federation]\ntimeout_s = {timeout}\n")
        with pytest.raises(ConfigError, match=r"\[federation\] timeout_s"):
            load_config(str(path))

    def test_largest_socket_timeout_allowed(self):
        cfg = ExperimentConfig(timeout_s=threading.TIMEOUT_MAX)
        with socket.socket() as sock:
            sock.settimeout(cfg.timeout_s)

    def test_master_seed_of_2_64_or_more_rejected(self):
        # Streams key on the seed modulo 2^64: 7 + 2^64 would replay seed 7.
        for seed in (2**64, 7 + 2**64):
            with pytest.raises(ConfigError, match=r"\[seed\] master: must be < 2\^64"):
                ExperimentConfig(master_seed=seed)
        assert ExperimentConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1


class TestModuleBuilders:
    def test_neuron_params_split(self):
        cfg = ExperimentConfig(hidden_threshold=64, output_threshold=512,
                               refractory_hidden=1, refractory_output=2)
        hp, op = cfg.hidden_params(), cfg.output_params()
        assert hp.threshold == 64 and op.threshold == 512
        assert hp.refractory_steps == 1 and op.refractory_steps == 2
