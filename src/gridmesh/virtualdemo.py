"""Deterministic virtual-time execution of a whole demo on one event loop.

A second driver of the edge and cloud logic in ``core``, beside ``nodes``: a
heap scheduler stands in for the clock, a core's Timer becomes a scheduler
entry and its Compute runs inline. Every hop still produces real wire frames,
passes through the sender's link emulator and decodes on arrival, so two runs
with the same seeds give identical verdicts and stage timings. Compute is
instantaneous in virtual time (timings describe the transport). The UE fires
its reports at their scripted times, without waiting for acks.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from pathlib import Path

from . import wire
from .core import CLOUD, CloudCore, Compute, EdgeCore, Log, Send, Timer
from .eventlog import EventLog
from .linkem import DOWN, DROPPED, LinkEmulator, LinkProfile, UP
from .model import GridCase
from .nodes import UeScriptItem
from .pipeline import RunManifest
from .store import FileStore, result_key
from .wire import Envelope, MessageKind


@dataclass
class DemoOutcome:
    exit_code: int
    run_id: str
    result_blob: bytes | None
    log_paths: list


class _Scheduler:
    def __init__(self):
        self._heap: list = []
        self._seq = itertools.count()
        self.now = 0.0

    def at(self, t: float, fn, *args) -> None:
        heapq.heappush(self._heap, (t, next(self._seq), fn, args))

    def run(self) -> None:
        while self._heap:
            t, _, fn, args = heapq.heappop(self._heap)
            self.now = max(self.now, t)
            fn(*args)


class _Node:
    def __init__(self, name: str, sched: _Scheduler, profile: LinkProfile, log_dir):
        self.name = name
        self.sched = sched
        self.emulator = LinkEmulator(profile)
        self.log = EventLog(name, path=log_dir / f"{name}.log")

    def send(self, dst: "_Node", env: Envelope, direction: str) -> None:
        frame = wire.encode(env)
        delivery = self.emulator.schedule_frame(len(frame), direction, self.sched.now)
        if delivery is DROPPED:
            self.log.log("frame_dropped", ts=self.sched.now, to=dst.name)
            return
        self.sched.at(delivery, dst.handle, self, wire.decode(frame))


class _VirtualUe(_Node):
    def __init__(self, name, sched, profile, log_dir, edge: _Node,
                 script: list[UeScriptItem]):
        super().__init__(name, sched, profile, log_dir)
        self.edge = edge
        self._seq = itertools.count(1)
        n = next(self._seq)
        self.sched.at(0.0, self._send_report, wire.hello(name, "ue", n), n)
        for item in script:
            n = next(self._seq)
            if item.kind == "topology":
                env = wire.topology_report(list(item.branches), n, list(item.buses))
            else:
                env = wire.forecast_report(item.forecast or {}, n)
            self.sched.at(item.at_s, self._send_report, env, n)

    def _send_report(self, env: Envelope, seq: int) -> None:
        self.log.log("ue_send", ts=self.sched.now, seq=seq, kind=int(env.msg_type))
        self.send(self.edge, env, UP)

    def handle(self, src, env: Envelope) -> None:
        if env.msg_type == MessageKind.ACK:
            self.log.log("ack_recv", ts=self.sched.now, seq=int(env.obj()["of"]))
        elif env.msg_type == MessageKind.ERROR:
            self.log.log("edge_error", ts=self.sched.now, code=env.obj().get("code", "?"))


class _CoreNode(_Node):
    """An edge or the cloud: performs its core's actions in virtual time.
    ``cloud`` is an edge's uplink, the node its ``CLOUD`` peer stands for."""

    def __init__(self, name, sched, profile, log_dir, core, cloud: _Node | None = None):
        super().__init__(name, sched, profile, log_dir)
        self.core = core
        self.cloud = cloud
        self.exit_code: int | None = None

    def call(self, entry, *args) -> None:
        self.perform(entry(self.sched.now, *args))

    def handle(self, src, env: Envelope) -> None:
        self.call(self.core.handle, CLOUD if src is self.cloud else src, env)

    def perform(self, actions: list) -> None:
        for a in actions:
            if isinstance(a, Send):
                dst, direction = (self.cloud, UP) if a.peer is CLOUD else (a.peer, DOWN)
                self.send(dst, a.env, direction)
            elif isinstance(a, Log):
                self.log.log(a.event, ts=self.sched.now, **a.fields)
            elif isinstance(a, Timer):
                self.sched.at(self.sched.now + a.delay, self.call, self.core.on_timer, a)
            elif isinstance(a, Compute):
                self.call(self.core.run_compute, a)
            else:
                self.exit_code = a.code


def run_virtual_demo(base: GridCase, manifest: RunManifest, store: FileStore,
                     log_dir, profile: LinkProfile,
                     ue_scripts: dict[str, tuple[str, list[UeScriptItem]]],
                     withhold_regions: set[str] = frozenset(),
                     sim_workers: int = 1) -> DemoOutcome:
    """Drive one full run in virtual time.

    ``ue_scripts`` maps UE name -> (edge region, script). ``withhold_regions``
    spawn no edge (for exercising the barrier timeout). The run opens one
    second after the last scripted report. ``sim_workers`` is ignored: the
    cloud simulates scenarios serially. It is accepted only because the
    benchmark in ``bench/`` still passes it.
    """
    log_dir = Path(log_dir)
    log_dir.mkdir(parents=True, exist_ok=True)
    sched = _Scheduler()
    cloud = _CoreNode("cloud", sched, profile, log_dir, CloudCore(base, store))
    edges = {r: _CoreNode(f"edge-{r}", sched, profile, log_dir, EdgeCore(r, base, store),
                          cloud)
             for r in manifest.expected_regions if r not in withhold_regions}
    for edge in edges.values():
        sched.at(0.0, edge.perform, edge.core.hello())
    for ue_name, (region, script) in sorted(ue_scripts.items()):
        if region in edges:
            _VirtualUe(ue_name, sched, profile, log_dir, edges[region], script)

    latest = max([it.at_s for _, s in ue_scripts.values() for it in s], default=0.0)
    sched.at(latest + 1.0, cloud.call, cloud.core.open_run, manifest)
    sched.run()

    key = result_key(manifest.run_id)
    blob = store.get(key) if store.exists(key) else None
    code = cloud.exit_code if cloud.exit_code is not None else 2
    return DemoOutcome(exit_code=code, run_id=manifest.run_id, result_blob=blob,
                       log_paths=sorted(log_dir.glob("*.log")))
