"""Deterministic fixed-point simulator of federated one-shot learning on
spiking-network clients.

Everything numeric is integer-exact and replayable: weights live on an even
8-bit grid, traces on a 7-bit grid, all stochastic rounding is driven by
counter-based seeded streams, and the federated rounds are synchronous, so
two runs with the same seed produce bit-identical weights and metrics.
"""

__version__ = "0.1.0"

from .config import ConfigError, ExperimentConfig, dump_config, load_config
from .data import (
    EVENT_DTYPE,
    EventFormatError,
    GestureSample,
    bin_events,
    generate_synthetic,
    make_splits,
    read_events,
    write_events,
)
from .errors import FedspikeError
from .federation import (
    FederationError,
    LocalClient,
    ModelSnapshot,
    aggregate,
    run_federation,
    run_socket_clients,
    serve_federation,
)
from .plasticity import SoelEngine
from .quant import QuantSpec, Rng, TRACE_SPEC, WEIGHT_SPEC
from .snn import (
    ARCH_PRESETS,
    DenseLayer,
    Network,
    NeuronParams,
    build_network,
    classify,
    parse_arch,
)
from .weights_io import WeightFormatError, load_weights, save_weights
from .experiment import (
    assemble,
    build_dataset,
    evaluate_network,
    load_all_shots,
    load_shots,
    load_test,
    run_simulation,
    write_dataset,
)

__all__ = [
    "ARCH_PRESETS",
    "ConfigError",
    "DenseLayer",
    "EVENT_DTYPE",
    "EventFormatError",
    "ExperimentConfig",
    "FedspikeError",
    "FederationError",
    "GestureSample",
    "LocalClient",
    "ModelSnapshot",
    "Network",
    "NeuronParams",
    "QuantSpec",
    "Rng",
    "SoelEngine",
    "TRACE_SPEC",
    "WEIGHT_SPEC",
    "WeightFormatError",
    "aggregate",
    "assemble",
    "bin_events",
    "build_dataset",
    "build_network",
    "classify",
    "dump_config",
    "evaluate_network",
    "generate_synthetic",
    "load_all_shots",
    "load_config",
    "load_shots",
    "load_test",
    "load_weights",
    "make_splits",
    "parse_arch",
    "read_events",
    "run_federation",
    "run_simulation",
    "run_socket_clients",
    "save_weights",
    "serve_federation",
    "write_dataset",
    "write_events",
]
