"""Timing wrappers installed from the benchmark around calls into each layer.

Each wrapper replaces a name at the namespace its caller looks it up in:
``pipeline`` imports its compute functions by name, so those are wrapped in
``gridmesh.pipeline``; ``reduce_network`` finds ``kron_reduce`` and
``fault_variants`` in ``gridmesh.dynamics``; methods are wrapped on their
class. A span records its name, start, end, parent span (from a per-thread
stack: edges compute on their own threads and DSA simulates on pool threads,
so a span opened on another thread has no parent), the run it belongs to and
a few counters read from the call's arguments or result. Spans stay in memory
until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from gridmesh import dynamics, nodes, pipeline, virtualdemo, wire
from gridmesh.eventlog import EventLog
from gridmesh.linkem import DROPPED, LinkEmulator
from gridmesh.store import FileStore
from gridmesh.ybus import YMatrix


@dataclass
class Span:
    id: int
    name: str
    start: float                 # perf_counter seconds
    end: float
    parent: int | None
    thread: int
    run: int | None
    counters: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _frame(args, out) -> dict:
    if out is DROPPED:
        return {"dropped": 1}
    return {"frames": 1, "delay_ms": out.delay_ms, "jitter_ms": out.jitter_ms,
            "serialization_ms": out.serialization_s * 1e3,
            "queued_ms": out.queued_s * 1e3}


def _out_len(args, out) -> dict:
    return {"bytes": len(out)}


# (span name, owner, attribute, counters(args, result) or None)
TARGETS = (
    ("linkem.schedule", LinkEmulator, "schedule_frame_ex", _frame),
    ("nodes.execute_run", nodes.CloudNode, "execute_run", None),
    ("nodes.ue_agent", nodes, "ue_agent", None),
    ("nodes.send", nodes.ShapedConnection, "send", None),
    ("store.put", FileStore, "put", lambda a, out: {"bytes": len(a[2])}),
    ("store.get", FileStore, "get", None),
    ("store.wait_for", FileStore, "wait_for", None),
    ("store.exists", FileStore, "exists", None),
    ("wire.encode", wire, "encode", _out_len),
    ("wire.feed", wire.StreamDecoder, "feed", None),
    ("eventlog.log", EventLog, "log", None),
    ("pipeline.edge_topology_blob", pipeline, "edge_topology_blob", None),
    ("pipeline.edge_scenarios_blob", pipeline, "edge_scenarios_blob", None),
    ("pipeline.cloud_merge", pipeline, "cloud_merge", None),
    ("pipeline.topology_compute", pipeline, "topology_compute", None),
    ("pipeline.dsa_compute", pipeline, "dsa_compute", None),
    ("pipeline.result_blob", pipeline, "topology_result_blob", _out_len),
    ("pipeline.result_blob", pipeline, "dsa_result_blob", _out_len),
    ("ybus.build_partial", pipeline, "build_partial", None),
    ("ybus.merge_partials", pipeline, "merge_partials", None),
    ("ybus.fault_variants", dynamics, "fault_variants", None),
    ("ybus.to_dense", YMatrix, "to_dense", None),
    ("powerflow.solve", pipeline, "solve_power_flow",
     lambda a, out: {"iterations": out.iterations}),
    ("powerflow.initialize", pipeline, "initialize_machines", None),
    ("dynamics.kron", dynamics, "kron_reduce", None),
    ("dynamics.rk4", pipeline, "simulate_dynamics",
     lambda a, out: {"steps": int(a[3].t_end / a[3].dt + 1e-9)}),
    ("dynamics.assess", pipeline, "assess_run", None),
    ("sampling.draw", pipeline, "draw_samples", None),
    ("sampling.reduce", pipeline, "reduce_scenarios", None),
    ("sampling.combine", pipeline, "combine_region_sets", None),
    ("sampling.apply_scenario", pipeline, "apply_scenario", None),
    ("virtualdemo.run", virtualdemo, "run_virtual_demo", None),
)

# per-layer metric -> (unit, span name, what to take per run)
# "ms": summed span time (summed across threads), "calls": span count,
# a counter name: that counter summed, "max:<counter>": its largest value.
LAYER_METRICS = {
    "linkem.frames": ("count", "linkem.schedule", "frames"),
    "linkem.delay_ms": ("ms", "linkem.schedule", "delay_ms"),
    "linkem.jitter_ms": ("ms", "linkem.schedule", "jitter_ms"),
    "linkem.serialization_ms": ("ms", "linkem.schedule", "serialization_ms"),
    "linkem.queued_ms": ("ms", "linkem.schedule", "queued_ms"),
    "linkem.dropped": ("count", "linkem.schedule", "dropped"),
    "nodes.execute_run_ms": ("ms", "nodes.execute_run", "ms"),
    "nodes.ue_agent_ms": ("ms", "nodes.ue_agent", "ms"),
    "nodes.send_wait_ms": ("ms", "nodes.send", "ms"),
    "store.put_ms": ("ms", "store.put", "ms"),
    "store.put_bytes": ("bytes", "store.put", "bytes"),
    "store.get_ms": ("ms", "store.get", "ms"),
    "store.wait_for_ms": ("ms", "store.wait_for", "ms"),
    "store.exists_calls": ("count", "store.exists", "calls"),
    "wire.frames": ("count", "wire.encode", "calls"),
    "wire.bytes": ("bytes", "wire.encode", "bytes"),
    "wire.max_frame_bytes": ("bytes", "wire.encode", "max:bytes"),
    "wire.encode_ms": ("ms", "wire.encode", "ms"),
    "wire.feed_ms": ("ms", "wire.feed", "ms"),
    "eventlog.lines": ("count", "eventlog.log", "calls"),
    "eventlog.log_ms": ("ms", "eventlog.log", "ms"),
    "pipeline.edge_topology_blob_ms": ("ms", "pipeline.edge_topology_blob", "ms"),
    "pipeline.edge_scenarios_blob_ms": ("ms", "pipeline.edge_scenarios_blob", "ms"),
    "pipeline.cloud_merge_ms": ("ms", "pipeline.cloud_merge", "ms"),
    "pipeline.topology_compute_ms": ("ms", "pipeline.topology_compute", "ms"),
    "pipeline.dsa_compute_ms": ("ms", "pipeline.dsa_compute", "ms"),
    "pipeline.result_blob_ms": ("ms", "pipeline.result_blob", "ms"),
    "pipeline.result_bytes": ("bytes", "pipeline.result_blob", "bytes"),
    "ybus.build_partial_ms": ("ms", "ybus.build_partial", "ms"),
    "ybus.merge_partials_ms": ("ms", "ybus.merge_partials", "ms"),
    "ybus.fault_variants_ms": ("ms", "ybus.fault_variants", "ms"),
    "ybus.to_dense_calls": ("count", "ybus.to_dense", "calls"),
    "ybus.to_dense_ms": ("ms", "ybus.to_dense", "ms"),
    "powerflow.solves": ("count", "powerflow.solve", "calls"),
    "powerflow.iterations": ("count", "powerflow.solve", "iterations"),
    "powerflow.solve_ms": ("ms", "powerflow.solve", "ms"),
    "powerflow.initialize_ms": ("ms", "powerflow.initialize", "ms"),
    "dynamics.kron_ms": ("ms", "dynamics.kron", "ms"),
    "dynamics.simulations": ("count", "dynamics.rk4", "calls"),
    "dynamics.rk4_steps": ("count", "dynamics.rk4", "steps"),
    "dynamics.rk4_ms": ("ms", "dynamics.rk4", "ms"),
    "dynamics.assess_ms": ("ms", "dynamics.assess", "ms"),
    "sampling.draw_ms": ("ms", "sampling.draw", "ms"),
    "sampling.reduce_ms": ("ms", "sampling.reduce", "ms"),
    "sampling.combine_ms": ("ms", "sampling.combine", "ms"),
    "sampling.apply_scenario_ms": ("ms", "sampling.apply_scenario", "ms"),
    "virtualdemo.run_ms": ("ms", "virtualdemo.run", "ms"),
}


class Tracer:
    """Collects spans while installed; ``run`` names the run new spans belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counters):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            run = tracer.run
            stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            tracer.spans.append(Span(span_id, name, start, end, parent,
                                     threading.get_ident(), run,
                                     counters(args, out) if counters else {}))
            return out

        return wrapper

    def install(self) -> None:
        for name, owner, attr, counters in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counters))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def self_ms(self) -> dict[int, float]:
        """Span id -> duration minus the time its same-thread children cover."""
        child_ms: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_ms[s.parent] += s.ms
        return {s.id: s.ms - child_ms[s.id] for s in self.spans}

    def per_run(self) -> dict[int, dict[str, float]]:
        """Run index -> every LAYER_METRICS value for that run (0 where no span)."""
        by_run: dict[int, dict[str, list[Span]]] = defaultdict(lambda: defaultdict(list))
        for s in self.spans:
            if s.run is not None:
                by_run[s.run][s.name].append(s)
        out = {}
        for run, by_name in by_run.items():
            row = {}
            for metric, (_, name, what) in LAYER_METRICS.items():
                spans = by_name.get(name, [])
                if what == "ms":
                    row[metric] = sum(s.ms for s in spans)
                elif what == "calls":
                    row[metric] = len(spans)
                elif what.startswith("max:"):
                    row[metric] = max((s.counters[what[4:]] for s in spans), default=0)
                else:
                    row[metric] = sum(s.counters.get(what, 0) for s in spans)
            out[run] = row
        return out

    def to_json(self) -> list:
        selfs = self.self_ms()
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "thread": s.thread, "run": s.run,
                 "self_ms": selfs[s.id], **s.counters} for s in self.spans]
