"""Sans-IO protocol cores for the UE, edge and cloud roles.

Each core is a state machine whose entry points take the current time and one
input and return a list of actions; a core opens no socket, reads no clock and
never sleeps. ``virtualdemo.CoreNode`` drives a core on a heap of timed calls,
in virtual time or, in ``nodes``, on the real clock over TCP, so every protocol
decision is made once, the same way in both modes. The store stays a direct
call. The cores are protocol only: they read no artifact and branch on no run
mode, since ``pipeline`` builds, parses and computes every upload and result.
Cores are not thread-safe: each node calls its core from one event loop.
It performs the actions in list order, by one rule:

- ``Send(peer, env)``: transmit. A node's link toward the cloud (a UE's
  edge, an edge's cloud) is the peer ``UPLINK``; any other peer is the
  handle the driver passed in with the frame.
- ``Log(event, **fields)``: write one event-log line, stamped by the driver.
- ``Timer(delay, name, key)``: call ``on_timer`` with it ``delay`` s later.
- ``Compute``: call ``run_compute`` with it inline, then perform what it
  returns. A core lists its replies before a Compute, so none waits for it.
- ``Done(code)``: once every sent frame is delivered, perform the actions
  listed after it and record the UE's or the run's exit code.

``handle`` never raises on malformed input: it adds an error reply, or for a
UE an error line, to the actions decided before the fault. An edge or the
cloud answers a frame kind it does not take with ``unexpected_kind`` and
one reject log line, and changes no state. No frame goes to a receiver that
ignores it: a UE's reports are acked, but no Hello, a UE's or an edge's, and
no RunResult, whose sender has nothing left to do. An edge's upload is its
one store put per run, which no frame announces: the cloud's barrier reads
the store. The store's immutable keys are a run's only record, kept by no
core: a RunResult names its run, whose result is ``result_key(run_id)``. An
edge's rejection of a UE frame names that frame's seq, so the UE stops
waiting for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import pipeline, wire
from .model import CaseError, GridCase
from .pipeline import RunManifest
from .sampling import ForecastSpec
from .store import AlreadyExistsError, FileStore, POLL_INTERVAL_S, result_key, upload_key
from .wire import Envelope, MessageKind

ACK_TIMEOUT_S = 2.0
UPLINK = "uplink"                # the peer a node's link toward the cloud is known by
POLL, ACK, SEND = "poll", "ack", "send"


@dataclass(frozen=True)
class Send:
    peer: object
    env: Envelope


class Log:
    def __init__(self, event: str, **fields):
        self.event = event
        self.fields = fields


@dataclass(frozen=True)
class Timer:
    delay: float
    name: str                    # POLL (cloud), ACK | SEND (UE)
    key: object                  # the cloud's run id; a UE's awaited seq or item index


@dataclass(frozen=True)
class Compute:
    """A run's compute step; an edge's carries, once computed, its upload."""
    manifest: RunManifest
    blob: bytes | None = None


@dataclass(frozen=True)
class Done:
    code: int                    # 0 complete, 2 failed, 3 barrier timeout


@dataclass(frozen=True)
class UeScriptItem:
    at_s: float
    kind: str                    # "topology" | "forecast"
    branches: tuple[dict, ...] = ()
    buses: tuple[dict, ...] = ()
    forecast: dict | None = None

    def __post_init__(self):
        if self.kind not in ("topology", "forecast"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if isinstance(self.at_s, bool) or not isinstance(self.at_s, (int, float)):
            raise ValueError(f"at_s must be a number, got {self.at_s!r}")
        if not (math.isfinite(self.at_s) and self.at_s >= 0):
            raise ValueError(f"at_s must be finite and >= 0, got {self.at_s}")

    def envelope(self, seq: int) -> Envelope:
        if self.kind == "topology":
            return wire.topology_report(list(self.branches), seq, list(self.buses))
        return wire.forecast_report(self.forecast or {}, seq)


def _rows(obj: dict, name: str, keys: tuple[str, ...]) -> tuple[dict, ...]:
    """``obj[name]`` (absent: none), a list of objects that each have ``keys``."""
    rows = obj.get(name, [])
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError(f"{name} must be a list of objects")
    for j, row in enumerate(rows):
        for k in keys:
            if k not in row:
                raise ValueError(f"missing {name}[{j}].{k}")
    return tuple(rows)


def parse_ue_script(objs: list[dict]) -> list[UeScriptItem]:
    """Script items from a JSON list of objects; ``at_s`` must not decrease.
    A malformed item is a ValueError that names the item and its field. The
    values' finiteness and ownership are the edge's to check."""
    if not isinstance(objs, list):
        raise ValueError(f"script must be a list of items, got {type(objs).__name__}")
    items = []
    for i, obj in enumerate(objs):
        try:
            if not isinstance(obj, dict):
                raise ValueError(f"must be an object, got {type(obj).__name__}")
            forecast = obj.get("forecast")
            if forecast is not None and not isinstance(forecast, dict):
                raise ValueError(f"forecast must be an object, got {type(forecast).__name__}")
            items.append(UeScriptItem(at_s=obj["at_s"], kind=obj["kind"],
                                      branches=_rows(obj, "branches", ("id", "status")),
                                      buses=_rows(obj, "buses", ("id", "p_load", "q_load")),
                                      forecast=forecast))
        except KeyError as exc:
            raise ValueError(f"script item {i}: missing {exc.args[0]}") from None
        except ValueError as exc:
            raise ValueError(f"script item {i}: {exc}") from None
    if any(b.at_s < a.at_s for a, b in zip(items, items[1:])):
        raise ValueError("script timestamps must be nondecreasing")
    return items


@dataclass
class UeReport:
    node_id: str
    delivered: list[int] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)       # never acked
    rejected: list[int] = field(default_factory=list)     # refused by the edge
    error: str | None = None

    @property
    def clean(self) -> bool:
        return self.error is None and not self.failed and not self.rejected


class UeCore:
    """A 5G device playing a timed report script to its edge, the ``UPLINK``.

    The Hello goes first, as seq 1, and unacked, as an edge's does. Each item
    then leaves ``at_s`` after the UE starts (an ``at_s=0`` item with the
    Hello), and never before the previous item is acked or given up. An item
    unacked after ``ACK_TIMEOUT_S`` is counted failed, not resent: its link
    loses no frame, so only a silent or dead edge leaves it unacked. An item
    the edge rejects (an ErrorMsg whose ``of`` is its seq) is given up at once
    and counted rejected.
    """

    def __init__(self, node_id: str, script: list[UeScriptItem]):
        self.node_id = node_id
        self.script = script
        self.report = UeReport(node_id)
        self._next = 0                               # index of the next item
        self._t0 = 0.0                               # when the UE started
        self._pending: int | None = None             # the seq awaiting an Ack

    def start(self, now: float) -> list:
        self._t0 = now
        hello = wire.hello(self.node_id, "ue", 1)
        return [Log("ue_send", seq=1, kind=int(hello.msg_type)), Send(UPLINK, hello),
                *self._next_item(now)]

    def handle(self, now: float, peer, env: Envelope) -> list:
        try:
            obj = env.obj()
            if env.msg_type == MessageKind.ERROR:
                out = [Log("edge_error", code=obj.get("code", "?"))]
                if self._pending and obj.get("of") == self._pending:
                    out += self._settle(now, self.report.rejected, "ue_rejected")
                return out
            if env.msg_type == MessageKind.ACK:
                of = int(obj["of"])              # parsed whatever is pending
                if of == self._pending:
                    return self._settle(now, self.report.delivered)
        except Exception as exc:             # malformed input must not kill the node
            return [Log("ue_reject", reason=type(exc).__name__)]
        return []

    def on_timer(self, now: float, timer: Timer) -> list:
        if timer.name == SEND:
            return self._send_item()
        if timer.key != self._pending:
            return []                        # that frame was settled meanwhile
        return self._settle(now, self.report.failed, "ue_unacked")

    def _settle(self, now: float, tally: list[int], *event: str) -> list:
        """Stop waiting for the pending item; count its seq in ``tally``, log ``event``."""
        seq, self._pending = self._pending, None
        tally.append(seq)
        return [*(Log(e, seq=seq) for e in event), *self._next_item(now)]

    def _next_item(self, now: float) -> list:
        """Send the next item if it is due, else wait for it; end after the last."""
        if self._next == len(self.script):
            r = self.report
            return [Log("ue_done", delivered=len(r.delivered), failed=len(r.failed),
                        rejected=len(r.rejected)),
                    Done(0 if r.clean else 2)]
        due = self._t0 + self.script[self._next].at_s
        if now < due:
            return [Timer(due - now, SEND, self._next)]
        return self._send_item()

    def _send_item(self) -> list:
        seq = self._pending = self._next + 2                     # the Hello is seq 1
        env = self.script[self._next].envelope(seq)
        self._next += 1
        return [Log("ue_send", seq=seq, kind=int(env.msg_type)), Send(UPLINK, env),
                Timer(ACK_TIMEOUT_S, ACK, seq)]


def _unexpected(peer, env: Envelope, reject: str, of: int | None = None) -> list:
    """The reply and the reject log line for a frame kind its receiver does not take."""
    kind = int(env.msg_type)
    return [Send(peer, wire.error_msg("unexpected_kind", f"msg_type {kind}", env.run_id, of)),
            Log(reject, reason="unexpected_kind", kind=kind)]


def _apply_topology(view: GridCase, region: str, obj: dict) -> GridCase:
    """Apply a topology report's absolute assignments; raises before mutating,
    also when the report names a branch or bus that ``region`` does not own."""
    assignments = {int(br["id"]): str(br["status"]) for br in obj.get("branches", [])}
    loads = {int(b["id"]): (float(b["p_load"]), float(b["q_load"]))
             for b in obj.get("buses", [])}
    for what, ids, owner in (("branch", assignments, view.branch_owners()),
                             ("bus", loads, view.bus_owner())):
        foreign = sorted(i for i in ids if owner.get(i, region) != region)
        if foreign:
            raise CaseError(f"{what} ids {foreign} are not owned by region {region}")
    out = view
    if assignments:
        out = out.with_branch_status(assignments)
    if loads:
        out = out.with_bus_loads(loads)
    return out


class EdgeCore:
    """One region's aggregation point: folds UE reports into the region view
    and, for each RunOpen, computes and stores the region's upload: its partial
    admittance, plus in DSA its reduced scenario set. A repeated RunOpen
    computes again; its put fails on the stored key and is answered with
    ``upload_conflict``, so a region's first upload stands."""

    def __init__(self, region: str, base: GridCase, store: FileStore):
        self.region = region
        self.view = base
        self.store = store
        self.forecast: ForecastSpec | None = None

    def hello(self) -> list:
        return [Send(UPLINK, wire.hello(f"edge-{self.region}", "edge", 1, region=self.region))]

    def handle(self, now: float, peer, env: Envelope) -> list:
        """A frame from ``UPLINK`` or from a UE connection."""
        if peer is not UPLINK:
            return self._from_ue(peer, env)
        out: list = []
        try:
            self._from_cloud(env, out)
        except Exception as exc:             # malformed input must not kill the node
            out += [Send(UPLINK, wire.error_msg("edge_failure", str(exc), env.run_id)),
                    Log("edge_error", reason=type(exc).__name__, detail=str(exc))]
        return out

    def _from_ue(self, peer, env: Envelope) -> list:
        out: list = []
        seq = None
        try:
            obj = env.obj()
            seq = int(obj.get("seq", 0))
            if env.msg_type == MessageKind.HELLO:            # unacked, as an edge's
                return [Log("edge_recv", kind="hello", seq=seq, node=obj.get("node_id", "?"))]
            if env.msg_type == MessageKind.TOPOLOGY_REPORT:
                out.append(Log("edge_recv", kind="topology", seq=seq))
                self.view = _apply_topology(self.view, self.region, obj)
                out += [Log("delta_applied", branch=int(br["id"]), status=br["status"])
                        for br in obj.get("branches", [])]
            elif env.msg_type == MessageKind.FORECAST_REPORT:
                out.append(Log("edge_recv", kind="forecast", seq=seq))
                self.forecast = ForecastSpec.from_dict(obj["spec"])
            else:
                return _unexpected(peer, env, "edge_reject", of=seq)
            out.append(Send(peer, wire.ack(seq)))
        except Exception as exc:             # malformed input must not kill the node
            out += [Send(peer, wire.error_msg("bad_report", str(exc), of=seq)),
                    Log("edge_reject", reason=type(exc).__name__)]
        return out

    def _from_cloud(self, env: Envelope, out: list) -> None:
        if env.msg_type == MessageKind.RUN_OPEN:
            m = RunManifest.from_payload(env.obj())
            out += [Log("run_open_recv", run=m.run_id, mode=m.mode), Compute(m)]
        elif env.msg_type == MessageKind.RUN_RESULT:              # unacked
            blob = self.store.get(result_key(env.run_id.hex()))
            out.append(Log("result_recv", run=env.run_id.hex(),
                           verdict=env.obj().get("verdict_summary", "?"), bytes=len(blob)))
        elif env.msg_type == MessageKind.ERROR:
            obj = env.obj()
            out.append(Log("cloud_error", code=obj.get("code", "?"), text=obj.get("text", "")))
        else:
            out += _unexpected(UPLINK, env, "edge_reject")

    def run_compute(self, now: float, step: Compute) -> list:
        """Compute the region's upload, or store the computed one."""
        m = step.manifest
        rid = m.run_id
        key = upload_key(rid, self.region)
        try:
            if step.blob is None:
                blob = pipeline.edge_upload(self.view, self.region, m, self.forecast)
                return [Log("edge_compute_done", run=rid), replace(step, blob=blob)]
            self.store.put(key, step.blob)
        except AlreadyExistsError as exc:
            return [Send(UPLINK, wire.error_msg("upload_conflict", str(exc), m.run_id_bytes)),
                    Log("upload_conflict", run=rid)]
        except Exception as exc:
            return [Send(UPLINK, wire.error_msg("compute_failure", str(exc), m.run_id_bytes)),
                    Log("compute_failure", run=rid, detail=str(exc))]
        return [Log("store_put_done", run=rid, key=key)]


class CloudCore:
    """Registers edges, opens runs, enforces the upload barrier, merges,
    simulates and fans the result out: one unacked RunResult to each expected
    edge it knows. Its Done and ``run_complete`` wait for those frames'
    delivery, so a run completes when its last RunResult arrives.

    Barrier rule: the store is the only signal. The run's expected uploads
    are checked in it when the run opens and then every ``POLL_INTERVAL_S``
    until the deadline; its immutable keys make each region's first upload
    win. An edge's Hello, on any link, gets the open run's RunOpen exactly
    while the barrier still waits for that region's upload.
    """

    def __init__(self, base: GridCase, store: FileStore):
        self.base = base
        self.store = store
        self.edges: dict[str, object] = {}                  # region -> peer
        self.manifest: RunManifest | None = None
        self._deadline = 0.0
        self._unfound: list[str] = []     # expected uploads not yet seen; the barrier's wait

    def open_run(self, now: float, manifest: RunManifest) -> list:
        self.manifest = manifest
        self._deadline = now + manifest.deadline_s
        self._unfound = list(manifest.expected_regions)
        return ([Log("run_open", run=manifest.run_id, mode=manifest.mode,
                     regions=",".join(manifest.expected_regions)),
                 *self._to_edges(wire.run_open(manifest.to_payload(), manifest.run_id_bytes))]
                + (self._barrier() or [Timer(POLL_INTERVAL_S, POLL, manifest.run_id)]))

    def handle(self, now: float, peer, env: Envelope) -> list:
        out: list = []
        try:
            self._from_edge(peer, env, out)
        except Exception as exc:
            out += [Send(peer, wire.error_msg("bad_message", str(exc))),
                    Log("cloud_reject", reason=type(exc).__name__)]
        return out

    def _from_edge(self, peer, env: Envelope, out: list) -> None:
        obj = env.obj()
        if env.msg_type == MessageKind.HELLO:
            region = obj.get("region")
            if obj.get("role") != "edge" or not region:
                out.append(Send(peer, wire.error_msg("bad_hello",
                                                     "expected role=edge with region")))
                return
            self.edges[region] = peer
            out.append(Log("hello", region=region))
            if region in self._unfound:
                m = self.manifest
                out.append(Send(peer, wire.run_open(m.to_payload(), m.run_id_bytes)))
        elif env.msg_type == MessageKind.ERROR:
            out.append(Log("edge_error_recv", code=obj.get("code", "?"),
                           text=obj.get("text", "")))
        else:
            out += _unexpected(peer, env, "cloud_reject")

    def on_timer(self, now: float, timer: Timer) -> list:
        """The barrier's poll: check the store again, or abort at the deadline."""
        m = self.manifest
        if not self._unfound or timer.key != m.run_id:
            return []
        out = self._barrier()
        if out or now < self._deadline:
            return out or [timer]
        missing = ",".join(self._missing())
        self._unfound = []                                  # the barrier has ended
        return [Log("run_aborted", run=m.run_id, missing=missing),
                *self._to_edges(wire.error_msg("barrier_timeout",
                                               f"missing regions: {missing}", m.run_id_bytes)),
                Done(3)]

    def run_compute(self, now: float, step: Compute) -> list:
        """Merge the uploads, simulate, store the result and send it, unacked, to
        every expected edge; the run completes once those frames are delivered."""
        m = step.manifest
        rid = m.run_id
        try:
            blobs = {r: self.store.get(upload_key(rid, r)) for r in m.expected_regions}
            blob, summary = pipeline.cloud_result(self.base, m, blobs)
            key = result_key(rid)
            self.store.put(key, blob)
        except Exception as exc:
            return [Log("run_failed", run=rid, reason=type(exc).__name__, detail=str(exc)),
                    *self._to_edges(wire.error_msg("compute_failure", str(exc),
                                                   m.run_id_bytes)),
                    Done(2)]
        out = [Log("sim_done", run=rid), Log("result_put", run=rid, key=key, summary=summary)]
        for r in m.expected_regions:
            if r in self.edges:
                out += [Send(self.edges[r], wire.run_result(summary, m.run_id_bytes)),
                        Log("result_sent", run=rid, region=r)]
        return out + [Done(0), Log("run_complete", run=rid)]

    def _missing(self) -> list[str]:
        """The expected regions whose upload is not stored; a stored key is
        immutable, so only the ones not found before are checked."""
        rid = self.manifest.run_id
        self._unfound = [r for r in self._unfound if not self.store.exists(upload_key(rid, r))]
        return self._unfound

    def _barrier(self) -> list:
        """barrier_done and the compute once every expected upload is stored."""
        if self._missing():
            return []
        return [Log("barrier_done", run=self.manifest.run_id), Compute(self.manifest)]

    def _to_edges(self, env: Envelope) -> list:
        return [Send(self.edges[r], env) for r in self.manifest.expected_regions
                if r in self.edges]
