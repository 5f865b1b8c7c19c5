"""Socket drivers: the three node roles, wired over TCP through the link emulator.

UE agents push timed topology/forecast reports to an edge and await acks.
``EdgeNode`` and ``CloudNode`` run the edge and cloud logic of ``core``, which
makes every protocol decision; they read frames, perform the core's actions
and keep its work on the right thread: an edge computes inline, on the
thread that read the cloud's RunOpen, the cloud on the thread that calls
``execute_run``.

Outbound frames pass through the sender's link emulator: the frame is
scheduled (serialization + delay + jitter, FIFO per direction) and the writer
sleeps until its delivery instant before the socket write, so a driver sends
only after releasing its core's lock. Direction 'up' points toward the cloud
(UE->edge, edge->cloud), 'down' back out.
"""

from __future__ import annotations

import heapq
import itertools
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import wire
from .core import CLOUD, CloudCore, Compute, Done, EdgeCore, Log, Send, Timer
from .eventlog import EventLog
from .linkem import DOWN, DROPPED, LinkEmulator, LinkProfile, UP, zero_impairment_profile
from .model import GridCase
from .pipeline import RunManifest
from .store import FileStore
from .wire import Envelope, MessageKind, StreamDecoder

ACK_TIMEOUT_S = 2.0
RECV_CHUNK = 65536


def parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host, int(port)


def format_addr(addr: tuple[str, int]) -> str:
    return f"{addr[0]}:{addr[1]}"


def _sleep_until(t: float) -> None:
    remaining = t - time.time()
    if remaining > 0:
        time.sleep(remaining)


class ShapedConnection:
    """One framed TCP connection; outbound frames go through the link emulator."""

    def __init__(self, sock: socket.socket, emulator: LinkEmulator, out_direction: str):
        self.sock = sock
        self.emulator = emulator
        self.out_direction = out_direction
        self._send_lock = threading.Lock()
        self._decoder = StreamDecoder()

    def send(self, env: Envelope) -> bool:
        """Returns False when the emulator dropped the frame."""
        frame = wire.encode(env)
        with self._send_lock:
            delivery = self.emulator.schedule_frame(len(frame), self.out_direction,
                                                    time.time())
            if delivery is DROPPED:
                return False
            _sleep_until(delivery)
            try:
                self.sock.sendall(frame)
            except OSError:
                return False
        return True

    def envelopes(self):
        """Yield inbound envelopes until the peer closes or the socket dies."""
        while True:
            try:
                data = self.sock.recv(RECV_CHUNK)
            except OSError:
                return
            if not data:
                return
            yield from self._decoder.feed(data)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class _AckTable:
    """Matches Ack{of: seq} replies to pending sends."""

    def __init__(self):
        self._events: dict[int, threading.Event] = {}
        self._lock = threading.Lock()

    def expect(self, seq: int) -> threading.Event:
        ev = threading.Event()
        with self._lock:
            self._events[seq] = ev
        return ev

    def resolve(self, seq: int) -> None:
        with self._lock:
            ev = self._events.pop(seq, None)
        if ev:
            ev.set()

    def forget(self, seq: int) -> None:
        with self._lock:
            self._events.pop(seq, None)


# ----------------------------------------------------------------------
# UE agent

@dataclass(frozen=True)
class UeScriptItem:
    at_s: float
    kind: str                    # "topology" | "forecast"
    branches: tuple[dict, ...] = ()
    buses: tuple[dict, ...] = ()
    forecast: dict | None = None


@dataclass
class UeReport:
    node_id: str
    delivered: list[int] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)
    error: str | None = None

    @property
    def clean(self) -> bool:
        return self.error is None and not self.failed


def load_ue_script(path: str | Path) -> list[UeScriptItem]:
    items = []
    for obj in json.loads(Path(path).read_text()):
        items.append(UeScriptItem(
            at_s=float(obj["at_s"]), kind=obj["kind"],
            branches=tuple(obj.get("branches", ())),
            buses=tuple(obj.get("buses", ())),
            forecast=obj.get("forecast"),
        ))
    if any(b.at_s > a.at_s for a, b in zip(items[1:], items)):
        raise ValueError("script timestamps must be nondecreasing")
    return items


def ue_agent(node_id: str, script: list[UeScriptItem], edge_addr: tuple[str, int],
             profile: LinkProfile | None = None, log: EventLog | None = None,
             ack_timeout: float = ACK_TIMEOUT_S) -> UeReport:
    """Play a timed report script against one edge server."""
    log = log or EventLog(node_id)
    emulator = LinkEmulator(profile or zero_impairment_profile())
    report = UeReport(node_id=node_id)
    try:
        sock = socket.create_connection(edge_addr, timeout=10.0)
    except OSError as exc:
        report.error = f"connect to {format_addr(edge_addr)} failed: {exc}"
        log.log("ue_error", reason=report.error)
        return report

    conn = ShapedConnection(sock, emulator, UP)
    acks = _AckTable()

    def reader():
        for env in conn.envelopes():
            if env.msg_type == MessageKind.ACK:
                acks.resolve(int(env.obj()["of"]))
            elif env.msg_type == MessageKind.ERROR:
                obj = env.obj()
                log.log("edge_error", code=obj.get("code", "?"))

    threading.Thread(target=reader, name=f"{node_id}-reader", daemon=True).start()

    seq = itertools.count(1)

    def send_acked(env: Envelope, n: int) -> bool:
        ev = acks.expect(n)
        log.log("ue_send", seq=n, kind=int(env.msg_type))
        conn.send(env)
        if ev.wait(ack_timeout):
            return True
        ev = acks.expect(n)          # one retry, same seq (idempotent delta)
        log.log("ue_retry", seq=n)
        conn.send(env)
        if ev.wait(ack_timeout):
            return True
        acks.forget(n)
        return False

    try:
        n = next(seq)
        if not send_acked(wire.hello(node_id, "ue", n), n):
            report.error = "hello not acknowledged"
            log.log("ue_error", reason=report.error)
            return report
        start = time.time()
        for item in script:
            _sleep_until(start + item.at_s)
            n = next(seq)
            if item.kind == "topology":
                env = wire.topology_report(list(item.branches), n, list(item.buses))
            elif item.kind == "forecast":
                env = wire.forecast_report(item.forecast or {}, n)
            else:
                raise ValueError(f"unknown script item kind {item.kind!r}")
            if send_acked(env, n):
                report.delivered.append(n)
            else:
                report.failed.append(n)
                log.log("ue_unacked", seq=n)
        log.log("ue_done", delivered=len(report.delivered), failed=len(report.failed))
        return report
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Edge server and cloud coordinator

class _SocketDriver:
    """What both socket drivers share: a listening server whose links are each
    read on their own thread, one lock around every call into the core, and
    Sends and Logs performed after that lock is released; ``_defer`` places
    the other actions."""

    def __init__(self, name: str, core, listen: tuple[str, int],
                 profile: LinkProfile | None, log: EventLog | None):
        self.name = name
        self.core = core
        self.listen_addr = listen
        self.log = log or EventLog(name)
        self.emulator = LinkEmulator(profile or zero_impairment_profile())
        self._cond = threading.Condition()
        self._server: socket.socket | None = None
        self.cloud: ShapedConnection | None = None     # an edge's uplink
        self.bound_addr: tuple[str, int] | None = None
        self._closing = False

    def _listen(self) -> None:
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind(self.listen_addr)
        self._server.listen(32)
        self.bound_addr = self._server.getsockname()
        threading.Thread(target=self._accept_loop, daemon=True,
                         name=f"{self.name}-accept").start()

    def _accept_loop(self):
        while not self._closing:
            try:
                sock, _ = self._server.accept()
            except OSError:
                return
            conn = ShapedConnection(sock, self.emulator, DOWN)
            threading.Thread(target=self._serve, args=(conn, conn), daemon=True,
                             name=f"{self.name}-peer").start()

    def _serve(self, peer, conn: ShapedConnection):
        """Reader thread of one link; ``peer`` is how the core knows it."""
        for env in conn.envelopes():
            with self._cond:
                actions = self.core.handle(time.time(), peer, env)
            self._perform(actions)

    def _perform(self, actions: list) -> None:
        for a in actions:
            if isinstance(a, Send):
                (self.cloud if a.peer is CLOUD else a.peer).send(a.env)
            elif isinstance(a, Log):
                self.log.log(a.event, **a.fields)
            else:
                self._defer(a)

    def close(self) -> None:
        self._closing = True
        if self._server:
            self._server.close()
        if self.cloud:
            self.cloud.close()


class EdgeNode(_SocketDriver):
    """Socket driver for one region's ``EdgeCore``: a UE-facing server plus a
    client link to the cloud. Compute steps run inline on the cloud link's
    reader thread, each under the driver lock like every other core call."""

    def __init__(self, region: str, base_case: GridCase, store: FileStore,
                 cloud_addr: tuple[str, int], listen: tuple[str, int] = ("127.0.0.1", 0),
                 profile: LinkProfile | None = None, log: EventLog | None = None):
        super().__init__(f"edge-{region}", EdgeCore(region, base_case, store), listen,
                         profile, log)
        self.region = region
        self.cloud_addr = cloud_addr

    view = property(lambda self: self.core.view)
    forecast = property(lambda self: self.core.forecast)
    runs = property(lambda self: self.core.runs)

    def start(self) -> tuple[str, int]:
        sock = socket.create_connection(self.cloud_addr, timeout=10.0)
        self.cloud = ShapedConnection(sock, self.emulator, UP)
        self._perform(self.core.hello())           # before any reader thread starts
        self._listen()
        threading.Thread(target=self._serve, args=(CLOUD, self.cloud), daemon=True,
                         name=f"{self.name}-cloud").start()
        self.log.log("edge_up", listen=format_addr(self.bound_addr),
                     cloud=format_addr(self.cloud_addr))
        return self.bound_addr

    def _defer(self, step: Compute) -> None:
        """Run a compute step inline; ``_perform`` runs the step that follows it, if
        any, the same way."""
        with self._cond:
            actions = self.core.run_compute(time.time(), step)
        self._perform(actions)


class CloudNode(_SocketDriver):
    """Socket driver for the ``CloudCore``. A run's compute and timers run on
    the thread that calls ``execute_run``."""

    def __init__(self, base_case: GridCase, store: FileStore,
                 listen: tuple[str, int] = ("127.0.0.1", 0),
                 profile: LinkProfile | None = None, log: EventLog | None = None):
        super().__init__("cloud", CloudCore(base_case, store), listen, profile, log)
        self.edges: dict[str, ShapedConnection] = self.core.edges
        self._agenda: list = []            # heap of (due, tick, Timer | Compute | Done)
        self._tick = itertools.count()

    def start(self) -> tuple[str, int]:
        self._listen()
        self.log.log("cloud_up", listen=format_addr(self.bound_addr))
        return self.bound_addr

    def close(self) -> None:
        super().close()
        with self._cond:
            conns = list(self.edges.values())
        for c in conns:
            c.close()

    def _defer(self, action) -> None:
        """Hand a timer, the compute or the run's end to ``execute_run``."""
        due = time.time() + action.delay if isinstance(action, Timer) else 0.0
        with self._cond:
            heapq.heappush(self._agenda, (due, next(self._tick), action))
            self._cond.notify()

    def execute_run(self, manifest: RunManifest) -> int:
        """Drive one run to completion; returns the process exit code (0/2/3)."""
        with self._cond:
            self._agenda.clear()
            actions = self.core.open_run(time.time(), manifest)
        while True:
            self._perform(actions)
            with self._cond:
                while not self._agenda or self._agenda[0][0] > time.time():
                    self._cond.wait(self._agenda[0][0] - time.time()
                                    if self._agenda else None)
                _, _, a = heapq.heappop(self._agenda)
                if isinstance(a, Done):
                    return a.code
                entry = self.core.run_compute if isinstance(a, Compute) else self.core.on_timer
                actions = entry(time.time(), a)
