"""Socket drivers: the virtual-time driver's node on the real clock, over TCP.

``ue_agent``, ``EdgeNode`` and ``CloudNode`` run ``core``'s UE, edge and cloud
as ``virtualdemo.CoreNode``; only the clock and the transport differ. Each node
is one event loop on one thread (a UE's on its caller's, a server's on its own
from ``start`` to ``close``): a heap of timed calls that waits in a selector on
the node's sockets. A frame's socket write is a heap entry at its emulated
delivery instant, so no send waits for the link and a fan-out travels together.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import heapq
import json
import selectors
import socket
import threading
import time
from concurrent.futures import Future
from pathlib import Path

from . import wire
from .core import CloudCore, Done, EdgeCore, Log, UeCore, UeReport, UeScriptItem, \
    parse_ue_script
from .eventlog import EventLog
from .linkem import LinkProfile, zero_impairment_profile
from .model import GridCase
from .pipeline import RunManifest
from .store import FileStore
from .virtualdemo import CoreNode, Scheduler
from .wire import StreamDecoder

RECV_CHUNK = 65536
SELECT_GRAIN_S = 0.001       # poll waits whole milliseconds


def parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host, int(port)


def format_addr(addr: tuple[str, int]) -> str:
    return f"{addr[0]}:{addr[1]}"


def _connect(addr: tuple[str, int]) -> socket.socket:
    """Open a TCP link: the connect may take 10 s; the socket then blocks. Frames
    leave at once (TCP_NODELAY): the link emulator delays them, not Nagle."""
    sock = socket.create_connection(addr, timeout=10.0)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class ShapedConnection:
    """One framed TCP link; frames reach ``send`` at their emulated delivery instant."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = StreamDecoder()

    def send(self, frame: bytes) -> bool:
        """Write one frame without waiting. False if the link is dead or cannot
        take the whole frame at once (its peer has stopped reading): no drop."""
        try:
            return self.sock.send(frame, socket.MSG_DONTWAIT) == len(frame)
        except OSError:
            return False


class _Loop(Scheduler):
    """The scheduler on the real clock. Between due calls it waits in a selector
    whose keys carry the call that serves each readable socket."""

    now = property(lambda self: time.time())

    def __init__(self):
        super().__init__()
        self.selector = selectors.PollSelector()
        self.running = False
        self._calls: collections.deque = collections.deque()
        self._wake_r, self._wake_w = socket.socketpair()
        self.selector.register(self._wake_r, selectors.EVENT_READ, self._woken)

    def call_threadsafe(self, fn, *args) -> None:
        """Run ``fn(*args)`` on the loop; raises OSError once the loop is closed."""
        self._calls.append((fn, args))
        self._wake_w.send(b"\0")

    def _woken(self) -> None:
        self._wake_r.recv(RECV_CHUNK)
        while self._calls:
            fn, args = self._calls.popleft()
            fn(*args)

    def stop(self) -> None:
        self.running = False

    def run(self) -> None:
        """Serve readable sockets and due calls until ``stop``, then close. The
        selector waits until less than ``SELECT_GRAIN_S`` is left before the
        next call; a sleep waits out that rest, so no call fires a grain late."""
        self.running = True
        try:
            while self.running:
                delay = self._heap[0][0] - time.time() if self._heap else None
                if delay is not None and 0.0 < delay < SELECT_GRAIN_S:
                    time.sleep(delay)
                wait = None if delay is None else delay - SELECT_GRAIN_S   # poll rounds it up
                for key, _ in self.selector.select(wait):
                    key.data()
                while self.running and self._heap and self._heap[0][0] <= time.time():
                    _, _, fn, args = heapq.heappop(self._heap)
                    fn(*args)
        finally:
            self.close()

    def close(self) -> None:
        """Close the selector and every socket registered with it."""
        for key in list((self.selector.get_map() or {}).values()):
            key.fileobj.close()
        self.selector.close()
        self._wake_w.close()


class _SocketNode(CoreNode):
    """A core's node on a real-clock loop, with ``ShapedConnection`` peers."""

    def __init__(self, name: str, core, profile: LinkProfile | None, log: EventLog | None,
                 listen: tuple[str, int] | None = None):
        super().__init__(name, _Loop(), profile or zero_impairment_profile(),
                         log or EventLog(name), core)
        self.listen_addr = listen
        self.bound_addr: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._run: Future | None = None            # the cloud's run in flight

    def transmit(self, conn: ShapedConnection, frame: bytes) -> None:
        if not conn.send(frame):
            self._drop(conn)

    def finish(self, code: int) -> None:
        """A Done ends a UE's loop, or the cloud's run in flight."""
        super().finish(code)
        if self._run is None:
            self.sched.stop()
        else:
            self._run.set_result(code)

    def _attach(self, sock: socket.socket) -> ShapedConnection:
        conn = ShapedConnection(sock)
        self.sched.selector.register(sock, selectors.EVENT_READ,
                                     functools.partial(self._read, conn))
        return conn

    def _drop(self, conn: ShapedConnection) -> None:
        """Stop reading a link and close it; a no-op once it is closed."""
        if conn.sock.fileno() != -1:
            self.sched.selector.unregister(conn.sock)
            conn.sock.close()

    def _read(self, conn: ShapedConnection) -> None:
        """Hand one read's frames to the core. A hang-up, bytes that do not decode
        as a frame, or a reply too large to encode close this link alone."""
        data = b""
        with contextlib.suppress(OSError):          # a reset link reads as a hang-up
            data = conn.sock.recv(RECV_CHUNK)
        try:
            for env in conn.decoder.feed(data) if data else ():
                self.handle(conn, env)
        except wire.ProtocolError as exc:
            self.log.log("frame_error", reason=type(exc).__name__)
            data = b""
        if not data:
            self._drop(conn)

    def _accept(self, server: socket.socket) -> None:
        with contextlib.suppress(OSError):        # a peer that left before its accept
            sock, _ = server.accept()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)   # as in _connect
            self._attach(sock)

    def _listen(self) -> None:
        server = socket.create_server(self.listen_addr, backlog=32)
        server.setblocking(False)
        self.bound_addr = server.getsockname()
        self.sched.selector.register(server, selectors.EVENT_READ,
                                     functools.partial(self._accept, server))
        self._thread = threading.Thread(target=self._serve, name=f"{self.name}-loop",
                                        daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        """The server's thread: a run in flight fails with what ended the loop."""
        failure: BaseException = RuntimeError(f"{self.name} closed during a run")
        try:
            self.sched.run()
        except BaseException as exc:
            failure = exc
            raise
        finally:
            if self._run is not None and not self._run.done():
                self._run.set_exception(failure)

    def close(self) -> None:
        """Stop the loop, join its thread and close every socket. Idempotent."""
        with contextlib.suppress(OSError):           # the loop has ended already
            self.sched.call_threadsafe(self.sched.stop)
        if self._thread is not None:
            self._thread.join()
        self.sched.close()


# ----------------------------------------------------------------------
# UE agent

def load_ue_script(path: str | Path) -> list[UeScriptItem]:
    return parse_ue_script(json.loads(Path(path).read_text()))


def ue_agent(node_id: str, script: list[UeScriptItem], edge_addr: tuple[str, int],
             profile: LinkProfile | None = None, log: EventLog | None = None) -> UeReport:
    """Play a timed report script against one edge server, on the calling thread."""
    ue = _SocketNode(node_id, UeCore(node_id, script), profile, log)
    try:
        ue.uplink = ue._attach(_connect(edge_addr))
    except OSError as exc:
        ue.core.report.error = f"connect to {format_addr(edge_addr)} failed: {exc}"
        ue.perform([Log("ue_error", reason=ue.core.report.error), Done(2)])
    else:
        ue.call(ue.core.start)
    ue.sched.run()
    return ue.core.report


# ----------------------------------------------------------------------
# Edge server and cloud coordinator

class EdgeNode(_SocketNode):
    """Socket node for one region's ``EdgeCore``: a UE-facing server plus a
    client link to the cloud."""

    def __init__(self, region: str, base_case: GridCase, store: FileStore,
                 cloud_addr: tuple[str, int], listen: tuple[str, int] = ("127.0.0.1", 0),
                 profile: LinkProfile | None = None, log: EventLog | None = None):
        super().__init__(f"edge-{region}", EdgeCore(region, base_case, store), profile, log,
                         listen)
        self.cloud_addr = cloud_addr

    def start(self) -> tuple[str, int]:
        self.uplink = self._attach(_connect(self.cloud_addr))
        self.perform(self.core.hello())           # before the loop's thread starts
        self._listen()
        self.log.log("edge_up", listen=format_addr(self.bound_addr),
                     cloud=format_addr(self.cloud_addr))
        return self.bound_addr


class CloudNode(_SocketNode):
    """Socket node for the ``CloudCore``; ``execute_run`` hands a run to its loop."""

    def __init__(self, base_case: GridCase, store: FileStore,
                 listen: tuple[str, int] = ("127.0.0.1", 0),
                 profile: LinkProfile | None = None, log: EventLog | None = None):
        super().__init__("cloud", CloudCore(base_case, store), profile, log, listen)
        self.edges: dict[str, ShapedConnection] = self.core.edges

    def start(self) -> tuple[str, int]:
        self._listen()
        self.log.log("cloud_up", listen=format_addr(self.bound_addr))
        return self.bound_addr

    def execute_run(self, manifest: RunManifest) -> int:
        """Drive one run to its exit code (0/2/3); raises what ended the loop first."""
        self._run = done = Future()
        self.sched.call_threadsafe(self.call, self.core.open_run, manifest)
        return done.result()
