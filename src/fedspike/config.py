"""Experiment configuration: an INI file plus command-line overrides.

One flat dataclass carries every knob an experiment run needs, grouped into
INI sections that mirror the package modules ([network], [plasticity],
[federation], [data], [seed]). Values are validated eagerly at load time so
a bad config fails before any work starts, and the error names the field.
Components read the resolved config directly: the trainer its [plasticity]
fields, the round loop and both transports their [federation] fields.

The master seed is the only seed in the file. Every component forks its own
named stream from it (the network builder, each client's trainer, the
synthetic data generator, the split shuffler), so runs are reproducible
end to end from one integer.
"""

from __future__ import annotations

import configparser
import io
import math
import threading
from dataclasses import dataclass, fields
from fractions import Fraction

from .data import NUM_SYNTHETIC_CLASSES, SENSOR_MAX, SUBJECT_MAX, noise_rate_representable
from .errors import FedspikeError
from .snn import NeuronParams, parse_arch
from .weights_io import WeightFormatError, check_storable


# The learning rates 2^k the trainer admits. The weight update rounds
# ((w << 40) + num) / 2^40 at the smallest, below 2^48 in int64, and
# w + (num << 8) at the largest, which saturates at any num != 0.
LEARNING_RATE_EXPONENTS = (-40, 8)

# The largest step count a setting may hold. No run is longer: duration_us
# is at most 2^32 and dt_us at least 1. Larger periods and counts would
# overflow the int64 state they land in.
STEPS_MAX = 1 << 32


class ConfigError(FedspikeError, ValueError):
    """A config file or value failed to load or validate; the message names
    the field as [section] key. Its code is always BAD_CONFIG."""

    def __init__(self, message: str):
        super().__init__("BAD_CONFIG", message)


def parse_fraction(text: str) -> Fraction:
    """Parse "1", "3", or "1/8" into an exact rational."""
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"bad fraction {text!r}: {err}") from err
    raise ConfigError(f"bad fraction {text!r}")


def parse_address(text: str) -> tuple[str, int]:
    """Parse "host:port" into an address tuple."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"address must be host:port, got {text!r}")
    try:
        return host, int(port)
    except ValueError as err:
        raise ConfigError(f"bad port in address {text!r}") from err


@dataclass
class ExperimentConfig:
    # [network]
    arch: str = "desk"
    hidden_threshold: int = 64
    output_threshold: int = 512
    current_decay_shift: int = 3
    voltage_decay_shift: int = 3
    refractory_hidden: int = 0
    refractory_output: int = 0
    hidden_init_mag: int = 32

    # [plasticity]
    window: int = 16
    error_threshold: int = 3
    error_offset: int = 64
    learning_rate: Fraction = Fraction(1, 128)
    alpha1_shift: int = 2
    alpha2_shift: int = 4
    impulse1: int = 16
    impulse2: int = 16
    box_enabled: bool = True
    box_low: int = 0
    box_high: int = 1024
    target_rate: int = 12
    off_target: int = 0

    # [federation]
    clients: int = 5
    rounds: int = 8
    local_epochs: int = 1
    transport: str = "inproc"
    listen: tuple[str, int] = ("127.0.0.1", 7177)
    timeout_s: float = 30.0

    # [data]
    classes: int = 5
    width: int = 32
    height: int = 32
    duration_us: int = 1_450_000
    step_us: int = 10_000
    dt_us: int = 10_000
    noise_rate: float = 1.0
    test_size: int = 100

    # [seed]
    master_seed: int = 7

    def __post_init__(self):
        self.validate()

    def validate(self):
        def need(ok: bool, section: str, key: str, why: str):
            if not ok:
                raise ConfigError(f"[{section}] {key}: {why}")

        need(self.hidden_threshold > 0, "network", "hidden_threshold", "must be > 0")
        need(self.output_threshold > 0, "network", "output_threshold", "must be > 0")
        for key in ("current_decay_shift", "voltage_decay_shift"):
            need(0 <= getattr(self, key) <= 12, "network", key, "must be in [0, 12]")
        for key in ("refractory_hidden", "refractory_output"):
            need(0 <= getattr(self, key) <= STEPS_MAX, "network", key, "must be in [0, 2^32]")
        need(0 <= self.hidden_init_mag <= 126, "network", "hidden_init_mag",
             "must be in [0, 126]")

        need(1 <= self.window <= STEPS_MAX, "plasticity", "window", "must be in [1, 2^32]")
        need(self.error_threshold >= 0, "plasticity", "error_threshold", "must be >= 0")
        need(0 <= self.error_offset <= 127, "plasticity", "error_offset",
             "must be in [0, 127]")
        for key in ("alpha1_shift", "alpha2_shift"):
            need(1 <= getattr(self, key) <= 12, "plasticity", key, "must be in [1, 12]")
        need(self.alpha1_shift != self.alpha2_shift, "plasticity", "alpha2_shift",
             "must differ from alpha1_shift")
        for key in ("impulse1", "impulse2"):
            need(0 <= getattr(self, key) <= 127, "plasticity", key,
                 "must be in [0, 127]")
        need(self.box_low <= self.box_high, "plasticity", "box_high",
             "must be >= box_low")
        for key in ("target_rate", "off_target"):
            need(0 <= getattr(self, key) <= STEPS_MAX, "plasticity", key, "must be in [0, 2^32]")
        try:
            self.learning_rate = Fraction(self.learning_rate)
        except (TypeError, ValueError, ArithmeticError) as err:
            raise ConfigError(f"[plasticity] learning_rate: {err}") from err
        # A reduced fraction of two powers of two is 2^k or 1/2^k.
        num, den = self.learning_rate.numerator, self.learning_rate.denominator
        lo, hi = LEARNING_RATE_EXPONENTS
        need(num > 0 and num & (num - 1) == 0 and den & (den - 1) == 0
             and Fraction(2) ** lo <= self.learning_rate <= Fraction(2) ** hi,
             "plasticity", "learning_rate", f"learning_rate must be a power of two in "
             f"[2^{lo}, 2^{hi}], got {self.learning_rate}")

        need(self.clients >= 1, "federation", "clients", "must be >= 1")
        need(self.rounds >= 0, "federation", "rounds", "must be >= 0")
        need(self.local_epochs >= 0, "federation", "local_epochs", "must be >= 0")
        need(self.transport in ("inproc", "socket"), "federation", "transport",
             "must be 'inproc' or 'socket'")
        need(0 <= self.listen[1] <= 65535, "federation", "listen",
             "port must be in [0, 65535]")
        need(self.timeout_s > 0, "federation", "timeout_s", "must be > 0")
        # Sockets take timeouts up to threading.TIMEOUT_MAX and fail above it.
        need(math.isfinite(self.timeout_s) and self.timeout_s <= threading.TIMEOUT_MAX,
             "federation", "timeout_s", f"must be finite and <= {threading.TIMEOUT_MAX:g}")

        need(1 <= self.classes <= NUM_SYNTHETIC_CLASSES, "data", "classes",
             f"must be in [1, {NUM_SYNTHETIC_CLASSES}]")
        for key in ("width", "height"):  # event records store u16 coordinates
            need(1 <= getattr(self, key) <= SENSOR_MAX, "data", key,
                 f"must be in [1, {SENSOR_MAX}]")
        need(0 < self.duration_us <= 1 << 32, "data", "duration_us",
             "must be in [1, 2^32] (32-bit timestamps)")
        for key in ("step_us", "dt_us"):  # a longer step outlasts any 32-bit timestamp
            need(1 <= getattr(self, key) <= 1 << 32, "data", key, "must be in [1, 2^32]")
        need(self.noise_rate >= 0, "data", "noise_rate", "must be >= 0")
        need(noise_rate_representable(self.noise_rate), "data", "noise_rate",
             "must be at most about 708 (exp(-rate) a normal double)")
        need(self.test_size >= 0, "data", "test_size", "must be >= 0")
        # Synthesis draws clients + ceil(test_size / classes) subjects per
        # class, numbered from 0, and event files store the subject as u16.
        subjects = self.clients - (-self.test_size // self.classes)
        need(subjects <= SUBJECT_MAX + 1, "data", "test_size",
             f"clients + ceil(test_size / classes) is {subjects} synthetic subjects, "
             f"over the u16 limit of {SUBJECT_MAX + 1}")

        need(self.master_seed >= 0, "seed", "master", "must be >= 0")
        # Streams key on the seed modulo 2^64, so a larger seed would alias.
        need(self.master_seed < 1 << 64, "seed", "master", "must be < 2^64")

        try:
            topos = parse_arch(self.arch, self.classes)
            check_storable(topos)  # weight files store u16 shapes and u32 counts
        except (ValueError, WeightFormatError) as err:
            raise ConfigError(f"[network] arch: {err}") from err
        need(topos[0].in_shape == (self.height, self.width, 2), "network", "arch",
             f"input shape {topos[0].in_shape} does not match "
             f"{self.height}x{self.width}x2 event frames")
        # Cached head inputs are int8; each sum pool right before the head
        # multiplies the largest count (1 for a spike or an input event) by k^2.
        count = 1
        for topo in reversed(topos[:-1]):
            if topo.kind != "sum_pool":
                break
            count *= topo.kernel ** 2
        need(count <= 127, "network", "arch",
             f"sum pools before the head reach a count of {count}, over the int8 limit 127")

    # -- neuron parameters for snn.build_network --------------------------

    def hidden_params(self) -> NeuronParams:
        return NeuronParams(current_decay_shift=self.current_decay_shift,
                            voltage_decay_shift=self.voltage_decay_shift,
                            threshold=self.hidden_threshold,
                            refractory_steps=self.refractory_hidden)

    def output_params(self) -> NeuronParams:
        return NeuronParams(current_decay_shift=self.current_decay_shift,
                            voltage_decay_shift=self.voltage_decay_shift,
                            threshold=self.output_threshold,
                            refractory_steps=self.refractory_output)


# The INI section of each group of fields, keyed by the group's first field.
_SECTION_STARTS = {"arch": "network", "window": "plasticity", "clients": "federation",
                   "classes": "data", "master_seed": "seed"}


def _schema() -> dict[str, dict[str, str]]:
    """section -> {INI key: field name}, in field order. Every key is its
    field's name, except [seed] master.
    """
    schema, section = {}, None
    for f in fields(ExperimentConfig):
        section = _SECTION_STARTS.get(f.name, section)
        schema.setdefault(section, {})["master" if f.name == "master_seed" else f.name] = f.name
    return schema


_SCHEMA = _schema()
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _convert(section: str, key: str, attr: str, raw: str):
    kind = _FIELD_TYPES[attr]
    try:
        if attr == "learning_rate":
            return parse_fraction(raw)
        if attr == "listen":
            return parse_address(raw)
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ConfigError(f"expected a boolean, got {raw!r}")
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw.strip()
    except ValueError as err:
        raise ConfigError(f"[{section}] {key}: {err}") from err


def load_config(path: str | None = None, overrides: dict[str, object] | None = None
                ) -> ExperimentConfig:
    """Build a validated config from defaults, an optional file, and overrides.

    overrides maps attribute names (e.g. "master_seed", "rounds") to already
    typed values; it is how command-line flags land on top of the file.
    """
    values: dict[str, object] = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as err:
            raise ConfigError(f"config file {path}: {' '.join(str(err).splitlines())}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"[{section}] {key}: unknown key")
                attr = _SCHEMA[section][key]
                values[attr] = _convert(section, key, attr, raw)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)


def dump_config(cfg: ExperimentConfig) -> str:
    """Serialize the resolved config back to its INI form."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SCHEMA.items():
        parser[section] = {}
        for key, attr in keys.items():
            value = getattr(cfg, attr)
            if attr == "listen":
                text = f"{value[0]}:{value[1]}"
            elif isinstance(value, bool):
                text = "true" if value else "false"
            else:
                text = str(value)
            parser[section][key] = text
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
