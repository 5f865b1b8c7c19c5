"""Deterministic virtual-time execution of a whole demo on one event loop.

``CoreNode`` is the one node of both drivers: it performs a core's actions by
the rule ``core`` states, on a ``Scheduler``, a heap of timed calls. Here the
clock is virtual and a frame's transport is a call to the receiving node;
``nodes`` runs the same node on the real clock over TCP. Every hop still
produces real wire frames, passes through the sender's link emulator and
decodes on arrival, so two runs with the same seeds give identical verdicts
and stage timings. Compute is instantaneous in virtual time (timings describe
the transport). A UE waits for each ack as it does over sockets: its reports
are timed from its start, behind an unacked Hello, and an unacked report is
resent once, then counted failed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from pathlib import Path

from . import wire
from .core import UPLINK, CloudCore, Compute, EdgeCore, Log, Send, Timer, UeCore, \
    UeScriptItem
from .eventlog import EventLog
from .linkem import DOWN, DROPPED, LinkEmulator, LinkProfile, UP
from .model import GridCase
from .pipeline import RunManifest
from .store import FileStore, result_key
from .wire import Envelope


@dataclass
class DemoOutcome:
    exit_code: int
    result_blob: bytes | None       # None unless the run exited 0
    log_paths: list


class Scheduler:
    """A heap of timed calls run in time order; ``now`` jumps to each call's due time."""
    now = 0.0

    def __init__(self):
        self._heap: list = []
        self._seq = itertools.count()

    def at(self, t: float, fn, *args) -> None:
        heapq.heappush(self._heap, (t, next(self._seq), fn, args))

    def run(self) -> None:
        while self._heap:
            t, _, fn, args = heapq.heappop(self._heap)
            self.now = max(self.now, t)
            fn(*args)


class CoreNode:
    """A UE, an edge or the cloud: performs its core's actions on ``sched``'s
    clock. ``uplink`` is the peer ``UPLINK`` stands for (a UE's edge, an edge's
    cloud). A frame reaches ``transmit`` at its emulated delivery instant; a
    Done, and the actions listed after it, take effect once every frame
    scheduled before it is delivered."""

    def __init__(self, name: str, sched: Scheduler, profile: LinkProfile, log: EventLog,
                 core=None, uplink=None):
        self.name = name
        self.sched = sched
        self.emulator = LinkEmulator(profile)
        self.log = log
        self.core = core
        self.uplink = uplink
        self.exit_code: int | None = None
        self._delivered_by = 0.0       # the latest delivery instant scheduled so far

    def send(self, dst, env: Envelope, direction: str) -> None:
        frame = wire.encode(env)
        slot = self.emulator.schedule_frame_ex(len(frame), direction, self.sched.now)
        if slot is DROPPED:
            self.log.log("frame_dropped", ts=self.sched.now, direction=direction,
                         kind=int(env.msg_type))
            return
        self._delivered_by = max(self._delivered_by, slot.delivery)
        self.sched.at(slot.delivery, self.transmit, dst, frame)

    def transmit(self, dst: "CoreNode", frame: bytes) -> None:
        dst.handle(self, wire.decode(frame))

    def call(self, entry, *args) -> None:
        self.perform(entry(self.sched.now, *args))

    def handle(self, src, env: Envelope) -> None:
        self.call(self.core.handle, UPLINK if src is self.uplink else src, env)

    def perform(self, actions: list) -> None:
        for i, a in enumerate(actions):
            if isinstance(a, Send):
                dst, direction = (self.uplink, UP) if a.peer is UPLINK else (a.peer, DOWN)
                self.send(dst, a.env, direction)
            elif isinstance(a, Log):
                self.log.log(a.event, ts=self.sched.now, **a.fields)
            elif isinstance(a, Timer):
                self.sched.at(self.sched.now + a.delay, self.call, self.core.on_timer, a)
            elif isinstance(a, Compute):
                self.call(self.core.run_compute, a)
            else:
                self.sched.at(self._delivered_by, self.finish, a.code, actions[i + 1:])
                return

    def finish(self, code: int, after: list) -> None:
        self.perform(after)
        self.exit_code = code


def run_virtual_demo(base: GridCase, manifest: RunManifest, store: FileStore,
                     log_dir, profile: LinkProfile,
                     ue_scripts: dict[str, tuple[str, list[UeScriptItem]]],
                     withhold_regions: set[str] = frozenset(),
                     sim_workers: int = 1) -> DemoOutcome:
    """Drive one full run in virtual time.

    ``ue_scripts`` maps UE name -> (edge region, script). ``withhold_regions``
    spawn no edge (for exercising the barrier timeout). The run opens at the
    largest script ``at_s`` plus one second. ``sim_workers`` is ignored: the
    cloud integrates a run's scenarios in one batch. It is accepted only
    because the benchmark in ``bench/`` still passes it.
    """
    log_dir = Path(log_dir)
    log_dir.mkdir(parents=True, exist_ok=True)
    sched = Scheduler()

    def node(name, core, uplink=None):
        return CoreNode(name, sched, profile, EventLog(name, path=log_dir / f"{name}.log"),
                        core, uplink)

    cloud = node("cloud", CloudCore(base, store))
    edges = {r: node(f"edge-{r}", EdgeCore(r, base, store), cloud)
             for r in manifest.expected_regions if r not in withhold_regions}
    for edge in edges.values():
        sched.at(0.0, edge.perform, edge.core.hello())
    for ue_name, (region, script) in sorted(ue_scripts.items()):
        if region in edges:
            ue = node(ue_name, UeCore(ue_name, script), edges[region])
            sched.at(0.0, ue.call, ue.core.start)

    latest = max([it.at_s for _, s in ue_scripts.values() for it in s], default=0.0)
    sched.at(latest + 1.0, cloud.call, cloud.core.open_run, manifest)
    sched.run()

    code = cloud.exit_code if cloud.exit_code is not None else 2
    blob = store.get(result_key(manifest.run_id)) if code == 0 else None
    return DemoOutcome(exit_code=code, result_blob=blob,
                       log_paths=sorted(log_dir.glob("*.log")))
