"""Sans-IO protocol cores for the edge and cloud roles.

Each core is a state machine whose entry points take the current time and one
input and return a list of actions; a core opens no socket, reads no clock and
never sleeps. ``nodes`` drives the cores over TCP with threads, ``virtualdemo``
on a heap scheduler in virtual time, so every protocol decision is made once,
the same way in both modes. The store stays a direct call. Cores are not
thread-safe: a driver serialises its calls into one core, and performs the
actions in list order:

- ``Send(peer, env)``: an edge's cloud link is the peer ``CLOUD``; any other
  peer is the handle the driver passed in with the frame.
- ``Log(event, **fields)``: one event-log line, stamped by the driver.
- ``Timer(delay, name, run)``: call ``on_timer`` with it ``delay`` s later.
- ``Compute``: call ``run_compute`` with it (an edge driver does so inline, the
  socket cloud on the thread that calls ``execute_run``).
- ``Done(code)``: the cloud's run ended with this exit code.

``handle`` never raises on malformed input: it adds an error reply to the
actions decided before the fault.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace

from . import pipeline, wire
from .model import GridCase
from .pipeline import RunManifest
from .sampling import ForecastSpec
from .store import AlreadyExistsError, FileStore, POLL_INTERVAL_S, partial_key, \
    result_key, scenarios_key
from .wire import Envelope, MessageKind

RESULT_ACK_TIMEOUT_S = 15.0
CLOUD = "cloud"                  # the peer an edge's cloud link is known by
POLL, RESULT_ACK = "poll", "result_ack"
BARRIER, COMPUTE, FANOUT, DONE = "barrier", "compute", "fanout", "done"


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
    name: str                    # POLL | RESULT_ACK
    run: str


@dataclass(frozen=True)
class Compute:
    """The cloud needs only the manifest. An edge step also carries the view and
    forecast as they stood at RunOpen, its artifact and, once computed, its blob."""
    manifest: RunManifest
    view: GridCase | None = None
    forecast: ForecastSpec | None = None
    artifact: str = "partial_y"
    blob: bytes | None = None


@dataclass(frozen=True)
class Done:
    code: int                    # 0 complete, 2 compute failed, 3 barrier timeout


def _apply_topology(view: GridCase, obj: dict) -> GridCase:
    """Apply a topology report's absolute assignments; raises before mutating."""
    assignments = {int(br["id"]): str(br["status"]) for br in obj.get("branches", [])}
    loads = {int(b["id"]): (float(b["p_load"]), float(b["q_load"]))
             for b in obj.get("buses", [])}
    out = view
    if assignments:
        out = out.with_branch_status(assignments)
    if loads:
        out = out.with_bus_loads(loads)
    return out


class EdgeCore:
    """One region's aggregation point: folds UE reports into the region view
    and, for each run the cloud opens, computes, stores and announces the
    region's artifacts."""

    def __init__(self, region: str, base: GridCase, store: FileStore):
        self.region = region
        self.base = base
        self.view = base
        self.store = store
        self.forecast: ForecastSpec | None = None
        self.runs: dict[str, str] = {}          # run id -> computing | uploaded
        self._seq = itertools.count(1)

    def hello(self) -> list:
        return [Send(CLOUD, wire.hello(f"edge-{self.region}", "edge", next(self._seq),
                                       region=self.region))]

    def handle(self, now: float, peer, env: Envelope) -> list:
        """A frame from ``CLOUD`` or from a UE connection."""
        out: list = []
        try:
            if peer is CLOUD:
                self._from_cloud(env, out)
            else:
                self._from_ue(peer, env, out)
        except Exception as exc:             # malformed input must not kill the node
            if peer is CLOUD:
                out += [Send(CLOUD, wire.error_msg("edge_failure", str(exc), env.run_id)),
                        Log("edge_error", reason=type(exc).__name__, detail=str(exc))]
            else:
                out += [Send(peer, wire.error_msg("bad_report", str(exc))),
                        Log("edge_reject", reason=type(exc).__name__)]
        return out

    def _from_ue(self, peer, env: Envelope, out: list) -> None:
        obj = env.obj()
        seq = int(obj.get("seq", 0))
        if env.msg_type == MessageKind.HELLO:
            out.append(Log("edge_recv", kind="hello", seq=seq, node=obj.get("node_id", "?")))
        elif env.msg_type == MessageKind.TOPOLOGY_REPORT:
            out.append(Log("edge_recv", kind="topology", seq=seq))
            self.view = _apply_topology(self.view, obj)
            out += [Log("delta_applied", branch=int(br["id"]), status=br["status"])
                    for br in obj.get("branches", [])]
        elif env.msg_type == MessageKind.FORECAST_REPORT:
            out.append(Log("edge_recv", kind="forecast", seq=seq))
            self.forecast = ForecastSpec.from_dict(obj["spec"])
        else:
            out.append(Send(peer, wire.error_msg("unexpected_kind",
                                                 f"msg_type {int(env.msg_type)}")))
            return
        out.append(Send(peer, wire.ack(seq)))

    def _from_cloud(self, env: Envelope, out: list) -> None:
        if env.msg_type == MessageKind.RUN_OPEN:
            m = RunManifest.from_payload(env.obj())
            if m.run_id in self.runs:
                out += [Send(CLOUD, wire.error_msg(
                            "duplicate_run", f"run {m.run_id} already processed",
                            env.run_id)),
                        Log("run_open_duplicate", run=m.run_id)]
                return
            self.runs[m.run_id] = "computing"
            out += [Log("run_open_recv", run=m.run_id, mode=m.mode),
                    Compute(m, self.view, self.forecast)]
        elif env.msg_type == MessageKind.RUN_RESULT:
            obj = env.obj()
            blob = self.store.get(obj["store_key"])
            parsed = json.loads(blob.decode())
            out += [Log("result_recv", run=env.run_id.hex(),
                        verdict=obj.get("verdict_summary", "?"),
                        bytes=len(blob), mode=parsed.get("mode", "?")),
                    Send(CLOUD, wire.ack(int(obj.get("seq", 0))))]
        elif env.msg_type == MessageKind.RUN_CLOSE:
            self.runs.pop(env.obj().get("run_id", ""), None)
        elif env.msg_type == MessageKind.ERROR:
            obj = env.obj()
            out.append(Log("cloud_error", code=obj.get("code", "?"), text=obj.get("text", "")))

    def run_compute(self, now: float, step: Compute) -> list:
        """Compute an artifact, or store and announce a computed one. The partial
        comes first; in DSA mode the scenario set follows it."""
        m = step.manifest
        rid = m.run_id
        try:
            if step.blob is None:
                if step.artifact == "partial_y":
                    blob = pipeline.edge_topology_blob(step.view, self.base, self.region)
                else:
                    blob = pipeline.edge_scenarios_blob(step.view, self.region, m.dsa,
                                                        step.forecast)
                return [Log("edge_compute_done", run=rid, artifact=step.artifact),
                        replace(step, blob=blob)]
            if step.artifact == "partial_y":
                key, ready = partial_key(rid, self.region), wire.partial_ready
            else:
                key, ready = scenarios_key(rid, self.region), wire.scenario_ready
            self.store.put(key, step.blob)
        except AlreadyExistsError as exc:
            return [Send(CLOUD, wire.error_msg("upload_conflict", str(exc), m.run_id_bytes)),
                    Log("upload_conflict", run=rid)]
        except Exception as exc:
            return [Send(CLOUD, wire.error_msg("compute_failure", str(exc), m.run_id_bytes)),
                    Log("compute_failure", run=rid, detail=str(exc))]
        out = [Log("store_put_done", run=rid, key=key),
               Send(CLOUD, ready(self.region, key, next(self._seq), m.run_id_bytes))]
        if step.artifact == "partial_y" and m.mode == pipeline.MODE_DSA:
            out.append(replace(step, artifact="scenarios", blob=None))
        else:
            self.runs[rid] = "uploaded"
        return out


class CloudCore:
    """Registers edges, opens runs, enforces the upload barrier, merges,
    simulates and fans the result out.

    Barrier rule: the run's expected artifacts are checked in the store when
    the run opens, on each accepted Ready, and every ``POLL_INTERVAL_S`` until
    the deadline, so a dropped Ready still completes the run.
    """

    def __init__(self, base: GridCase, store: FileStore):
        self.base = base
        self.store = store
        self.edges: dict[str, object] = {}                  # region -> peer
        self.received: set[tuple[str, str, str]] = set()    # (run, region, artifact)
        self.manifest: RunManifest | None = None
        self._phase = DONE
        self._deadline = 0.0
        self._run_open_sent: set[str] = set()
        self._unacked: dict[int, str] = {}                  # RunResult seq -> region
        self._seq = itertools.count(1)

    def open_run(self, now: float, manifest: RunManifest) -> list:
        self.manifest = manifest
        self._phase = BARRIER
        self._deadline = now + manifest.deadline_s
        self._run_open_sent = {r for r in manifest.expected_regions if r in self.edges}
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
            out += [Log("hello", region=region), Send(peer, wire.ack(int(obj.get("seq", 0))))]
            m = self.manifest
            if m and region in m.expected_regions and region not in self._run_open_sent:
                self._run_open_sent.add(region)
                out.append(Send(peer, wire.run_open(m.to_payload(), m.run_id_bytes)))
        elif env.msg_type in (MessageKind.PARTIAL_READY, MessageKind.SCENARIO_READY):
            artifact = ("partial_y" if env.msg_type == MessageKind.PARTIAL_READY
                        else "scenarios")
            region = obj["region"]
            rid = env.run_id.hex()
            if (rid, region, artifact) in self.received:
                out += [Send(peer, wire.error_msg(
                            "duplicate_upload",
                            f"{artifact} for region {region} already received", env.run_id)),
                        Log("duplicate_upload", run=rid, region=region, artifact=artifact)]
                return
            self.received.add((rid, region, artifact))
            out.append(Log("ready_recv", run=rid, region=region, artifact=artifact,
                           key=obj["store_key"]))
            if self._phase == BARRIER and rid == self.manifest.run_id:
                out += self._barrier()
            out.append(Send(peer, wire.ack(int(obj.get("seq", 0)))))
        elif env.msg_type == MessageKind.ACK:
            if (self._unacked.pop(int(obj["of"]), None) is not None
                    and not self._unacked and self._phase == FANOUT):
                out += self._complete()
        elif env.msg_type == MessageKind.ERROR:
            out.append(Log("edge_error_recv", code=obj.get("code", "?"),
                           text=obj.get("text", "")))

    def on_timer(self, now: float, timer: Timer) -> list:
        m = self.manifest
        if m is None or timer.run != m.run_id:
            return []
        if timer.name == POLL and self._phase == BARRIER:
            out = self._barrier()
            if out or now < self._deadline:
                return out or [timer]
            missing = ",".join(sorted({k.split("/")[3] for k in self._missing()}))
            self._phase = DONE
            return [Log("run_aborted", run=m.run_id, missing=missing),
                    *self._to_edges(wire.error_msg("barrier_timeout",
                                                   f"missing regions: {missing}",
                                                   m.run_id_bytes)),
                    Done(3)]
        if timer.name == RESULT_ACK and self._phase == FANOUT:
            return ([Log("result_unacked", run=m.run_id, region=r)
                     for r in self._unacked.values()] + self._complete())
        return []

    def run_compute(self, now: float, step: Compute) -> list:
        """Merge the partials, simulate, store the result and send it to every
        expected edge; the run completes when each has acked it."""
        m = step.manifest
        rid = m.run_id
        try:
            blobs = {r: self.store.get(partial_key(rid, r)) for r in m.expected_regions}
            view, y = pipeline.cloud_merge(self.base, blobs)
            if m.mode == pipeline.MODE_TOPOLOGY:
                result = pipeline.topology_compute(view, y, m.fault, m.sim_cfg)
                blob = pipeline.topology_result_blob(result)
                summary = result.verdict
            else:
                region_sets = {}
                for r in m.expected_regions:
                    parsed = pipeline.parse_scenarios_blob(
                        self.store.get(scenarios_key(rid, r)))
                    region_sets[r] = (parsed["scenario_set"], parsed["load_bus_ids"])
                report = pipeline.dsa_compute(view, y, region_sets, m.fault, m.sim_cfg)
                blob = pipeline.dsa_result_blob(report)
                summary = f"insecurity_probability={report.insecurity_probability!r}"
        except Exception as exc:
            self._phase = DONE
            return [Log("run_failed", run=rid, reason=type(exc).__name__, detail=str(exc)),
                    *self._to_edges(wire.error_msg("compute_failure", str(exc),
                                                   m.run_id_bytes)),
                    Done(2)]
        key = result_key(rid)
        self.store.put(key, blob)
        out = [Log("sim_done", run=rid), Log("result_put", run=rid, key=key, summary=summary)]
        self._unacked = {}
        for r in m.expected_regions:
            if r in self.edges:
                n = next(self._seq)
                self._unacked[n] = r
                out += [Send(self.edges[r], wire.run_result(key, summary, n, m.run_id_bytes)),
                        Log("result_sent", run=rid, region=r)]
        self._phase = FANOUT
        if not self._unacked:
            return out + self._complete()
        return out + [Timer(RESULT_ACK_TIMEOUT_S, RESULT_ACK, rid)]

    def _missing(self) -> list[str]:
        m = self.manifest
        keys = [partial_key(m.run_id, r) for r in m.expected_regions]
        if m.mode == pipeline.MODE_DSA:
            keys += [scenarios_key(m.run_id, r) for r in m.expected_regions]
        return [k for k in keys if not self.store.exists(k)]

    def _barrier(self) -> list:
        """barrier_done and the compute once every expected artifact is stored."""
        if self._missing():
            return []
        self._phase = COMPUTE
        return [Log("barrier_done", run=self.manifest.run_id), Compute(self.manifest)]

    def _complete(self) -> list:
        self._phase = DONE
        return [Log("run_complete", run=self.manifest.run_id), Done(0)]

    def _to_edges(self, env: Envelope) -> list:
        return [Send(self.edges[r], env) for r in self.manifest.expected_regions
                if r in self.edges]
