"""Socket drivers: the three node roles, wired over TCP through the link emulator.

``ue_agent``, ``EdgeNode`` and ``CloudNode`` run the UE, edge and cloud logic
of ``core``, which makes every protocol decision. Each link is read on its own
thread, every call into a core holds the driver's lock, and actions are
performed by the rule ``core`` states; a Compute runs inline under the lock on
whichever thread produced it. Timers and Done go to the agenda that
``ue_agent`` and ``execute_run`` drive on the calling thread.

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
from pathlib import Path

from . import wire
from .core import UPLINK, CloudCore, Compute, Done, EdgeCore, Log, Send, Timer, UeCore, \
    UeReport, UeScriptItem, parse_ue_script
from .eventlog import EventLog
from .linkem import DOWN, DROPPED, LinkEmulator, LinkProfile, UP, zero_impairment_profile
from .model import GridCase
from .pipeline import RunManifest
from .store import FileStore
from .wire import Envelope, StreamDecoder

RECV_CHUNK = 65536


def parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host, int(port)


def format_addr(addr: tuple[str, int]) -> str:
    return f"{addr[0]}:{addr[1]}"


def _connect(addr: tuple[str, int]) -> socket.socket:
    """Open a TCP link: the connect may take 10 s, but reads then block, so a
    link stays up however long it idles. Frames leave at once (TCP_NODELAY):
    the link emulator delays them, not Nagle's wait for the peer's ACK."""
    sock = socket.create_connection(addr, timeout=10.0)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


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
        """Returns False when the emulator dropped the frame. A failed socket
        write is no drop: the link is dead, and its reader thread ends on it."""
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
                pass
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


# ----------------------------------------------------------------------
# UE agent

def load_ue_script(path: str | Path) -> list[UeScriptItem]:
    return parse_ue_script(json.loads(Path(path).read_text()))


def ue_agent(node_id: str, script: list[UeScriptItem], edge_addr: tuple[str, int],
             profile: LinkProfile | None = None, log: EventLog | None = None) -> UeReport:
    """Play a timed report script against one edge server."""
    ue = _SocketDriver(node_id, UeCore(node_id, script), None, profile, log)
    try:
        sock = _connect(edge_addr)
    except OSError as exc:
        ue.core.report.error = f"connect to {format_addr(edge_addr)} failed: {exc}"
        ue.log.log("ue_error", reason=ue.core.report.error)
        return ue.core.report
    ue.uplink = ShapedConnection(sock, ue.emulator, UP)
    threading.Thread(target=ue._serve, args=(UPLINK, ue.uplink), daemon=True,
                     name=f"{node_id}-reader").start()
    try:
        ue._drive(ue.core.start)
    finally:
        ue.close()
    return ue.core.report


# ----------------------------------------------------------------------
# Edge server and cloud coordinator

class _SocketDriver:
    """What every socket driver shares: links each read on their own thread,
    one lock around every call into the core, and Sends and Logs performed
    after that lock is released. ``_drive`` runs the agenda, a heap of the
    core's timers and its Done, on the calling thread. A server (edge, cloud)
    also listens for peers."""

    def __init__(self, name: str, core, listen: tuple[str, int] | None,
                 profile: LinkProfile | None, log: EventLog | None):
        self.name = name
        self.core = core
        self.listen_addr = listen
        self.log = log or EventLog(name)
        self.emulator = LinkEmulator(profile or zero_impairment_profile())
        self._cond = threading.Condition()
        self._agenda: list = []            # heap of (due, tick, Timer | Done)
        self._tick = itertools.count()
        self._server: socket.socket | None = None
        self.uplink: ShapedConnection | None = None    # a UE's or an edge's
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
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)   # as in _connect
            conn = ShapedConnection(sock, self.emulator, DOWN)
            threading.Thread(target=self._serve, args=(conn, conn), daemon=True,
                             name=f"{self.name}-peer").start()

    def _serve(self, peer, conn: ShapedConnection):
        """Reader thread of one link; ``peer`` is how the core knows it. The link
        closes when its reader ends; bytes that do not decode as a frame end
        this link alone."""
        try:
            for env in conn.envelopes():
                with self._cond:
                    actions = self.core.handle(time.time(), peer, env)
                self._perform(actions)
        except wire.ProtocolError as exc:
            self.log.log("frame_error", reason=type(exc).__name__)
        finally:
            conn.close()

    def _perform(self, actions: list) -> None:
        for a in actions:
            if isinstance(a, Send):
                conn = self.uplink if a.peer is UPLINK else a.peer
                if not conn.send(a.env):
                    self.log.log("frame_dropped", direction=conn.out_direction,
                                 kind=int(a.env.msg_type))
            elif isinstance(a, Log):
                self.log.log(a.event, **a.fields)
            elif isinstance(a, Compute):
                with self._cond:
                    more = self.core.run_compute(time.time(), a)
                self._perform(more)
            else:                                   # a Timer or Done, for ``_drive``
                due = time.time() + a.delay if isinstance(a, Timer) else 0.0
                with self._cond:
                    heapq.heappush(self._agenda, (due, next(self._tick), a))
                    self._cond.notify()

    def _drive(self, entry, *args) -> int:
        """Call ``entry`` on a fresh agenda, then perform actions and run the
        agenda as it falls due until a Done; returns its code."""
        with self._cond:
            self._agenda.clear()
            actions = entry(time.time(), *args)
        while True:
            self._perform(actions)
            with self._cond:
                while not self._agenda or self._agenda[0][0] > time.time():
                    self._cond.wait(self._agenda[0][0] - time.time()
                                    if self._agenda else None)
                _, _, a = heapq.heappop(self._agenda)
                if isinstance(a, Done):
                    return a.code
                actions = self.core.on_timer(time.time(), a)

    def close(self) -> None:
        self._closing = True
        if self._server:
            self._server.close()
        if self.uplink:
            self.uplink.close()


class EdgeNode(_SocketDriver):
    """Socket driver for one region's ``EdgeCore``: a UE-facing server plus a
    client link to the cloud."""

    def __init__(self, region: str, base_case: GridCase, store: FileStore,
                 cloud_addr: tuple[str, int], listen: tuple[str, int] = ("127.0.0.1", 0),
                 profile: LinkProfile | None = None, log: EventLog | None = None):
        super().__init__(f"edge-{region}", EdgeCore(region, base_case, store), listen,
                         profile, log)
        self.region = region
        self.cloud_addr = cloud_addr

    def start(self) -> tuple[str, int]:
        sock = _connect(self.cloud_addr)
        self.uplink = ShapedConnection(sock, self.emulator, UP)
        self._perform(self.core.hello())           # before any reader thread starts
        self._listen()
        threading.Thread(target=self._serve, args=(UPLINK, self.uplink), daemon=True,
                         name=f"{self.name}-cloud").start()
        self.log.log("edge_up", listen=format_addr(self.bound_addr),
                     cloud=format_addr(self.cloud_addr))
        return self.bound_addr


class CloudNode(_SocketDriver):
    """Socket driver for the ``CloudCore``. A run's timers run on the thread
    that calls ``execute_run``."""

    def __init__(self, base_case: GridCase, store: FileStore,
                 listen: tuple[str, int] = ("127.0.0.1", 0),
                 profile: LinkProfile | None = None, log: EventLog | None = None):
        super().__init__("cloud", CloudCore(base_case, store), listen, profile, log)
        self.edges: dict[str, ShapedConnection] = self.core.edges

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

    def execute_run(self, manifest: RunManifest) -> int:
        """Drive one run to completion; returns the process exit code (0/2/3)."""
        return self._drive(self.core.open_run, manifest)
