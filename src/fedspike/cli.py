"""Command-line entry points.

Subcommands:
  gen-data   write synthetic event files and a split manifest
  simulate   run the full federation (in-process by default) and emit metrics
  serve      run the coordinator side of a socket federation
  client     run one participant against a running server
  eval       score a saved weight file on a dataset's test split

A failure exits 1 with one line on stderr: a FedspikeError (see errors.py)
as "error: CODE: message", a MemoryError as "error: OUT_OF_MEMORY: message",
an OSError (a missing file, a refused connection) as "error: message". Bad
arguments exit 2.

Metrics are line-delimited JSON with sorted keys, printed to stdout and
mirrored to metrics.jsonl in the output directory so two runs with the same
config and seed can be compared byte for byte. A run that fails with a
FederationError keeps the rows of its completed rounds and ends with an
"error" row (code, message, failed round); the command still exits 1.
Wall-clock timing goes to stderr only, never into the metrics stream.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import ExperimentConfig, dump_config, load_config, parse_address
from .errors import FedspikeError
from .experiment import (
    clients_for,
    evaluate_network,
    load_all_shots,
    load_shots,
    load_test,
    network_for,
    run_simulation,
    serve_federation,
    write_dataset,
)
from .federation import FederationError, ModelSnapshot, run_socket_clients
from .snn import build_network
from .weights_io import load_weights, save_weights


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH", help="INI config file")
    parser.add_argument("--seed", type=int, metavar="N", help="master seed")
    parser.add_argument("--rounds", type=int, metavar="N", help="federation rounds")
    parser.add_argument("--clients", type=int, metavar="N", help="number of clients")
    parser.add_argument("--listen", metavar="ADDR", help="host:port for socket mode")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedspike",
        description="Federated one-shot training of spiking network output layers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write event files and a split manifest")
    _add_common(p)
    p.add_argument("--transport", choices=("inproc", "socket"))

    p = sub.add_parser("simulate", help="run the full federation and emit metrics")
    _add_common(p)
    p.add_argument("--transport", choices=("inproc", "socket"))
    p.add_argument("--data", metavar="DIR", help="dataset directory from gen-data "
                   "(default: synthesize in memory)")

    p = sub.add_parser("serve", help="coordinate a socket federation")
    _add_common(p)

    p = sub.add_parser("client", help="join a socket federation as one participant")
    _add_common(p)
    p.add_argument("--id", type=int, required=True, metavar="K", help="client id")
    p.add_argument("--data", metavar="DIR", required=True,
                   help="dataset directory holding this client's shots")

    p = sub.add_parser("eval", help="score a weight file on a test split")
    p.add_argument("--config", metavar="PATH",
                   help="INI config of the run that wrote the weights (neuron parameters, dt_us)")
    p.add_argument("--weights", metavar="PATH", required=True, help="weight file")
    p.add_argument("--data", metavar="DIR", required=True, help="dataset directory")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    overrides = {
        "master_seed": args.seed,
        "rounds": args.rounds,
        "clients": args.clients,
        # serve and client always speak TCP, take no --transport, and record socket.
        "transport": getattr(args, "transport", "socket"),
        "listen": parse_address(args.listen) if args.listen else None,
    }
    return load_config(args.config, overrides)


def _emit(rows, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "metrics.jsonl", "w") as fh:
        for row in rows:
            line = json.dumps(row, sort_keys=True)
            print(line)
            fh.write(line + "\n")


def _recorded(out_dir: Path, run, *args):
    """run(*args); on a FederationError, first write the records it carries and
    an error row (code, message, failed round) to metrics.jsonl."""
    try:
        return run(*args)
    except FederationError as err:
        _emit(err.metrics + [{"event": "error", "code": err.code, "message": str(err),
                              "round": err.round}], out_dir)
        raise


def _write_resolved(cfg: ExperimentConfig, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.ini").write_text(dump_config(cfg))


def cmd_gen_data(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.out)
    manifest = write_dataset(cfg, out)
    _write_resolved(cfg, out)
    print(manifest)
    return 0


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.out)
    shots = test = None
    if args.data:
        shots = load_all_shots(args.data)
        test = load_test(args.data)
    started = time.monotonic()
    final, metrics, ex = _recorded(out, run_simulation, cfg, shots, test)
    elapsed = time.monotonic() - started
    _write_resolved(cfg, out)
    _emit(metrics, out)
    save_weights(out / "weights_global.nfw", ex.clients[0].network.topologies)
    for c in ex.clients:
        save_weights(out / f"weights_client_{c.client_id}.nfw", c.network.topologies)
    print(f"final round {final.round} checksum {final.checksum:#010x} "
          f"in {elapsed:.1f}s", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.out)
    net = network_for(cfg)
    initial = ModelSnapshot(0, net.output_layer.topo.weights)  # the head starts at zero
    final, metrics = _recorded(out, serve_federation, cfg, initial)
    _write_resolved(cfg, out)
    _emit(metrics, out)
    net.output_layer.set_weights(final.output_weights)
    save_weights(out / "weights_global.nfw", net.topologies)
    print(f"final round {final.round} checksum {final.checksum:#010x}",
          file=sys.stderr)
    return 0


def cmd_client(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.out)
    client = clients_for(cfg, {args.id: load_shots(args.data, args.id)})[0]
    final, metrics = _recorded(out, run_socket_clients, cfg, [client], cfg.listen)
    _write_resolved(cfg, out)
    _emit(metrics, out)
    save_weights(out / f"weights_client_{args.id}.nfw", client.network.topologies)
    print(f"client {args.id} final round {final.round} "
          f"checksum {final.checksum:#010x}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    topos = load_weights(args.weights)
    net = build_network(topos, cfg.hidden_params(), cfg.output_params())
    test = load_test(args.data)
    accuracy = evaluate_network(net, test, cfg.dt_us)
    print(json.dumps({"accuracy": accuracy, "samples": len(test)}, sort_keys=True))
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "simulate": cmd_simulate,
    "serve": cmd_serve,
    "client": cmd_client,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FedspikeError as err:
        print(f"error: {err.code}: {err}", file=sys.stderr)
    except MemoryError as err:
        print(f"error: OUT_OF_MEMORY: {err}", file=sys.stderr)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
