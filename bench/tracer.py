"""In-memory spans around calls into the fedspike modules, from outside.

A Tracer patches public functions and methods of the package (and the
``step`` of every layer built while it is installed) with wrappers that
record one span per call: span id, name, start, end, parent span id, run id
and thread index. Spans are packed into one flat int64 array so a traced
run of a million layer steps stays small; ``save`` writes them out once at
the end. Nothing in the package itself is edited.

Self time is a span's duration minus the durations of its direct children.
Spans nest within a thread, so per-thread self times add up to at most the
thread's busy time.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "run", "thread")


class _ThreadState:
    """Open spans of one thread, its index in the span table, and its role."""

    def __init__(self, index: int):
        self.stack: list[int] = []
        self.index = index
        self.role = ""


def layer_name(layer, is_head: bool) -> str:
    """Stable name of one layer instance: pool, conv16c5z, dense96, head."""
    topo = layer.topo
    if topo.kind == "sum_pool":
        return "pool"
    if topo.kind == "conv":
        return f"conv{topo.out_shape[2]}c{topo.kernel}{'z' if topo.zero_pad else ''}"
    return "head" if is_head else f"dense{topo.out_shape[2]}"


class Tracer:
    """Records spans for the calls it wraps; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.data = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._count_lock = threading.Lock()
        self.run_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _thread_state(self):
        try:
            return self._local.state
        except AttributeError:
            self._local.state = _ThreadState(next(self._threads))
            return self._local.state

    def count(self, name: str, n: int = 1):
        """Add n to counts[name]; safe from any thread."""
        with self._count_lock:
            self.counts[name] += n

    def set_role(self, role: str):
        """Tag the calling thread, e.g. "server"; wrappers may read it."""
        self._thread_state().role = role

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span named name."""
        name_id = self._name_id(name)
        clock, ids, thread_state = time.perf_counter_ns, self._ids, self._thread_state
        record = self.data.extend

        def traced(*args, **kwargs):
            state = thread_state()
            stack = state.stack
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # One extend per span keeps rows whole when threads interleave.
                record((span_id, name_id, start, end, parent, self.run_id, state.index))
        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn under a span named name and return its result."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement):
        """Set owner.attr, remembering the original for uninstall()."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr: str, name: str):
        original = getattr(owner, attr)
        self.patch(owner, attr, self.wrap(name, original))

    def install(self):
        """Wrap every layer boundary the benchmark reports on."""
        from fedspike import experiment, federation, plasticity, protocol, snn, weights_io

        for attr, name in (("assemble", "experiment.assemble"),
                           ("client_for", "experiment.client_for"),
                           ("cache_spikes", "experiment.cache_spikes"),
                           ("evaluate_network", "experiment.evaluate_network"),
                           ("generate_synthetic", "data.generate_synthetic"),
                           ("bin_events", "data.bin_events"),
                           ("write_events", "data.write_events"),
                           ("read_events", "data.read_events")):
            self.patch_span(experiment, attr, name)
        for attr, name in (("save_weights", "weights_io.save"),
                           ("load_weights", "weights_io.load")):
            self.patch_span(weights_io, attr, name)
        self.patch_span(snn.Network, "hidden_forward", "snn.hidden_forward")
        self.patch_span(snn.Network, "forward_window", "snn.forward_window")
        self.patch_span(plasticity.SoelEngine, "train_on_spikes",
                        "plasticity.train_on_spikes")
        self.patch_span(plasticity, "update_trace", "plasticity.update_trace")
        for attr in ("train", "evaluate", "install"):
            self.patch_span(federation.LocalClient, attr, f"federation.{attr}")
        self.patch_span(federation, "aggregate", "federation.aggregate")
        self.patch_span(protocol, "decode_message", "protocol.decode")

        network_for = self.wrap("experiment.network_for", experiment.network_for)

        def counted_network_for(cfg):
            self.count("experiment.network_for")
            return network_for(cfg)
        self.patch(experiment, "network_for", counted_network_for)

        round_array = self.wrap("quant.stochastic_round", plasticity.stochastic_round_array)

        def counted_round(values, spec, rng):
            self.count("quant.rng_lanes", int(np.size(values)))
            return round_array(values, spec, rng)
        self.patch(plasticity, "stochastic_round_array", counted_round)

        encode = self.wrap("protocol.encode", protocol.encode_message)

        def counted_encode(msg):
            frame = encode(msg)
            self.count("protocol.bytes", len(frame))
            return frame
        self.patch(protocol, "encode_message", counted_encode)

        self.patch_span(federation, "send_frame", "protocol.send_frame")
        recv = {role: self.wrap(f"protocol.{role}_recv_frame", federation.recv_frame)
                for role in ("server", "client")}

        def role_recv(sock):
            return recv[self._thread_state().role or "client"](sock)
        self.patch(federation, "recv_frame", role_recv)

        serve = experiment.serve_federation

        def serve_as_server(*args, **kwargs):
            self.set_role("server")
            return serve(*args, **kwargs)
        self.patch(experiment, "serve_federation", serve_as_server)

        network_init = snn.Network.__init__

        def traced_init(net, layers):
            network_init(net, layers)
            last = len(net.layers) - 1
            for i, layer in enumerate(net.layers):
                if "step" not in layer.__dict__:
                    name = layer_name(layer, i == last)
                    layer.step = self.wrap(f"snn.{name}.step", layer.step)
        self.patch(snn.Network, "__init__", traced_init)
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ------------------------------------------------------------

    def table(self) -> np.ndarray:
        """Spans as an (n, 7) int64 array ordered by span id (see FIELDS)."""
        rows = np.frombuffer(self.data, dtype=np.int64).reshape(-1, len(FIELDS))
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def summary(self, run_id: int) -> dict[str, dict]:
        """Per span name in one run: calls, total_ns, self_ns, plus per-thread self_ns."""
        rows = self.table()
        dur = rows[:, 3] - rows[:, 2]
        child = np.zeros(len(rows), dtype=np.int64)
        parent = rows[:, 4]
        has_parent = parent >= 0
        # Row of each span id, so each child's duration lands on its parent's row.
        position = np.full(int(rows[:, 0].max(initial=-1)) + 1, -1, dtype=np.int64)
        position[rows[:, 0]] = np.arange(len(rows))
        np.add.at(child, position[parent[has_parent]], dur[has_parent])
        self_ns = dur - child
        out: dict[str, dict] = {}
        mine = rows[:, 5] == run_id
        for nid, name in enumerate(self.names):
            sel = mine & (rows[:, 1] == nid)
            if not sel.any():
                continue
            out[name] = {"calls": int(sel.sum()), "total_ns": int(dur[sel].sum()),
                         "self_ns": int(self_ns[sel].sum())}
        threads = {}
        for tid in np.unique(rows[mine, 6]):
            sel = mine & (rows[:, 6] == tid)
            threads[int(tid)] = int(self_ns[sel].sum())
        out["_threads"] = threads
        return out

    def child_total_ns(self, run_id: int, parent_name: str, child_names) -> int:
        """Total duration of spans named child_names whose parent is parent_name."""
        rows = self.table()
        mine = rows[rows[:, 5] == run_id]
        if parent_name not in self._name_ids:
            return 0
        parent_ids = set(mine[mine[:, 1] == self._name_ids[parent_name], 0].tolist())
        wanted = [self._name_ids[n] for n in child_names if n in self._name_ids]
        sel = np.isin(mine[:, 1], wanted) & np.isin(mine[:, 4], list(parent_ids))
        return int((mine[sel, 3] - mine[sel, 2]).sum())

    def save(self, path):
        np.savez(path, spans=self.table(), names=np.array(self.names),
                 fields=np.array(FIELDS))
