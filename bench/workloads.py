"""The benchmark's three workloads: inputs, set-up, one run, and the oracle.

A workload object owns the nodes it starts. ``setup`` loads or generates the
case and, for the socket workloads, starts a cloud and three edges in this
process over loopback and waits until the cloud has registered every edge.
``run`` executes one run and returns its record; ``oracle`` gives the bytes
the monolithic pipeline produces for the same input. Every input is drawn
from ``random.Random`` seeded with the workload name and seed, so the same
seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

from gridmesh import nodes, pipeline, reports, virtualdemo
from gridmesh.dynamics import SimulationConfig
from gridmesh.eventlog import EventLog, read_events
from gridmesh.linkem import default_5g_sa_profile, zero_impairment_profile
from gridmesh.model import FaultSpec, GridCase, load_bundled_case, load_case
from gridmesh.nodes import UeScriptItem
from gridmesh.pipeline import DsaParams, RunManifest
from gridmesh.store import FileStore, result_key

import synthcase

SIM_T_END = 3.0              # as `gridmesh demo`
SIM_DT = 0.005
T_FAULT = 0.1
CLEAR_STEPS = range(4, 41)   # t_clear = t_fault + k * dt: 0.12 .. 0.30 s
RING_BRANCHES = (4, 5, 6, 7, 8, 9)
RING_OPENABLE = (4, 5, 7, 8, 9)
DSA_FAULT = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.27, cleared_branch=6)
REGISTER_TIMEOUT_S = 10.0
STAGE_METRICS = ("stage.edge_compute_ms", "stage.barrier_idle_ms",
                 "stage.cloud_compute_ms", "stage.fanout_ms")


def run_id(*parts) -> str:
    return hashlib.blake2s("/".join(map(str, parts)).encode(), digest_size=16).hexdigest()


def derive_seed(*parts) -> int:
    return int(run_id(*parts)[:16], 16)


def sim_config(case: GridCase) -> SimulationConfig:
    return SimulationConfig(t_end=SIM_T_END, dt=SIM_DT, omega_s=2 * math.pi * case.freq_hz)


def draw_fault(rng: random.Random, case: GridCase, opened: int) -> FaultSpec:
    """A ring-branch fault: the cleared branch is closed in this run, the faulted
    bus is one of its ends, and the clearing time lies on the 5 ms grid."""
    cleared = rng.choice([b for b in RING_BRANCHES if b != opened])
    br = case.branch(cleared)
    return FaultSpec(faulted_bus=rng.choice((br.from_bus, br.to_bus)), t_fault=T_FAULT,
                     t_clear=round(T_FAULT + SIM_DT * rng.choice(CLEAR_STEPS), 6),
                     cleared_branch=cleared)


@dataclass(frozen=True)
class RunInput:
    index: int
    manifest: RunManifest
    reports: tuple[tuple[int, str, str], ...] = ()   # (branch, status, owning region)
    opened: int | None = None                         # branch Open during this run


@dataclass
class RunRecord:
    input: RunInput
    ok: bool                      # every report acked and the run exited 0
    wall_ms: float | None         # None until derived from the UE log
    start_wall: float = 0.0       # time.time() when the run was called
    end_wall: float = 0.0         # time.time() when the run returned
    ue_logs: tuple[Path, ...] = ()


class _Workload:
    name = ""
    regions = ("R1", "R2", "R3")

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = random.Random(f"{self.name}/{seed}")
        self.case: GridCase | None = None

    def case_counts(self) -> dict:
        c = self.case
        return {"buses": c.n, "branches": len(c.branches), "machines": len(c.generators)}

    def teardown(self) -> None:
        pass

    def manifest(self, i: int, fault: FaultSpec, dsa: DsaParams | None = None) -> RunManifest:
        return RunManifest(run_id=run_id(self.name, self.seed, i),
                           expected_regions=self.regions,
                           mode=pipeline.MODE_DSA if dsa else pipeline.MODE_TOPOLOGY,
                           fault=fault, sim_cfg=sim_config(self.case), dsa=dsa)

    def oracle(self, inp: RunInput) -> bytes:
        m = inp.manifest
        return pipeline.monolithic_topology(self.case, {inp.opened: "Open"}, m.fault,
                                            m.sim_cfg)[1]

    def result(self, inp: RunInput) -> bytes | None:
        key = result_key(inp.manifest.run_id)
        return self.store.get(key) if self.store.exists(key) else None

    def finish(self, rec: RunRecord) -> None:
        """Derive what a run's record needs from its logs, after the timed loop."""

    def stages(self, inp: RunInput) -> dict[str, float]:
        """stage.* needs wall-clock node logs; virtual-time logs report 0."""
        return dict.fromkeys(STAGE_METRICS, 0.0)


class _SocketWorkload(_Workload):
    """Cloud and three edges as node objects in this process, over loopback."""

    def profile(self, *link):
        raise NotImplementedError

    def setup(self, rep: int) -> None:
        root = self.work / f"cluster{rep}"
        self.case = load_bundled_case("case9")
        self.store = FileStore(root / "store")
        self.log_paths = [root / "logs" / "cloud.log"]
        self.cloud = nodes.CloudNode(self.case, self.store, profile=self.profile("cloud"),
                                     log=EventLog("cloud", path=self.log_paths[0]))
        cloud_addr = self.cloud.start()
        self.edges = {}
        for r in self.regions:
            path = root / "logs" / f"edge-{r}.log"
            self.log_paths.append(path)
            edge = nodes.EdgeNode(r, self.case, self.store, cloud_addr,
                                  profile=self.profile("edge", r),
                                  log=EventLog(f"edge-{r}", path=path))
            edge.start()
            self.edges[r] = edge
        deadline = time.monotonic() + REGISTER_TIMEOUT_S
        while set(self.cloud.edges) != set(self.regions):
            if time.monotonic() > deadline:
                raise RuntimeError("edges did not register with the cloud")
            time.sleep(0.001)
        self.ue_dir = root / "logs" / "ue"

    def teardown(self) -> None:
        for e in self.edges.values():
            e.close()
        self.cloud.close()

    def stages(self, inp: RunInput) -> dict[str, float]:
        """stage.* for one run from its logs, in ms.

        edge_compute: per edge, the time from run_open_recv (or its previous
        store_put_done) to each edge_compute_done, summed; the slowest edge.
        barrier_idle: barrier_done minus the last store_put_done.
        cloud_compute: sim_done minus barrier_done.
        fanout: the last result_recv minus sim_done.
        """
        rid = inp.manifest.run_id
        rep = reports.emit_report(rid, self.store, self.log_paths)
        at: dict[str, list[float]] = {}
        for row in rep.rows:
            at.setdefault(row.stage, []).append(row.t_ms)
        edge_ms = 0.0
        for path in self.log_paths[1:]:
            events = [(ts, ev) for ts, _, ev, f in read_events(path)
                      if f.get("run") == rid]
            busy, since = 0.0, None
            for ts, ev in events:
                if ev in ("run_open_recv", "store_put_done"):
                    since = ts
                elif ev == "edge_compute_done" and since is not None:
                    busy += (ts - since) * 1e3
            edge_ms = max(edge_ms, busy)
        return dict(zip(STAGE_METRICS, (
            edge_ms,
            at["barrier_done"][0] - max(at["store_put_done"]),
            at["sim_done"][0] - at["barrier_done"][0],
            max(at["result_recv"]) - at["sim_done"][0])))


class TopoCase9(_SocketWorkload):
    """Use case 1 on case9 over the stock 5G SA link profile."""

    name = "topo_case9_5g"

    def profile(self, *link):
        return default_5g_sa_profile(seed=derive_seed(self.name, self.seed, *link))

    def inputs(self, count: int) -> list[RunInput]:
        """Each run re-closes the branch the previous run opened and opens another;
        each report goes to the edge that owns the branch, as `demo topology` does."""
        owner = self.case.branch_partition()
        out, prev = [], None
        for i in range(count):
            opened = self.rng.choice([b for b in RING_OPENABLE if b != prev])
            reclose = ((prev, "Closed", owner[prev]),) if prev is not None else ()
            out.append(RunInput(i, self.manifest(i, draw_fault(self.rng, self.case, opened)),
                                reclose + ((opened, "Open", owner[opened]),), opened))
            prev = opened
        return out

    def run(self, inp: RunInput) -> RunRecord:
        start_wall = time.time()
        logs = []
        ok = True
        for j, (branch, status, region) in enumerate(inp.reports):
            name = f"ue-{inp.index}-{j}"
            logs.append(self.ue_dir / f"{name}.log")
            item = UeScriptItem(at_s=0.0, kind="topology",
                                branches=({"id": branch, "status": status},))
            report = nodes.ue_agent(name, [item], self.edges[region].bound_addr,
                                    profile=self.profile("ue", inp.index, j),
                                    log=EventLog(name, path=logs[-1]))
            ok = ok and report.clean
        if ok:
            ok = self.cloud.execute_run(inp.manifest) == 0
        return RunRecord(inp, ok, None, start_wall, time.time(), tuple(logs))

    def finish(self, rec: RunRecord) -> None:
        # the clock starts when the run's first report (seq 2, after Hello) is
        # sent; a UE that never got that far leaves the call's start
        sent = [ts for ts, _, ev, f in read_events(rec.ue_logs[0])
                if ev == "ue_send" and f.get("seq") != "1"]
        rec.wall_ms = (rec.end_wall - (sent or [rec.start_wall])[0]) * 1e3


class DsaCase9(_SocketWorkload):
    """Use case 2 on case9's three regions over the zero-impairment link."""

    name = "dsa_case9_r3"
    N_RAW = 200
    K = 3

    def profile(self, *link):
        return zero_impairment_profile(seed=derive_seed(self.name, self.seed, *link))

    def inputs(self, count: int) -> list[RunInput]:
        # seeds are spaced so that neighbouring workload seeds share no run input
        return [RunInput(i, self.manifest(i, DSA_FAULT, DsaParams(
                    n_raw=self.N_RAW, k=self.K, seed=self.seed * 1_000_000 + i)))
                for i in range(count)]

    def run(self, inp: RunInput) -> RunRecord:
        start = time.perf_counter()
        ok = self.cloud.execute_run(inp.manifest) == 0
        return RunRecord(inp, ok, (time.perf_counter() - start) * 1e3)

    def oracle(self, inp: RunInput) -> bytes:
        m = inp.manifest
        return pipeline.monolithic_dsa(self.case, {}, m.dsa, m.fault, m.sim_cfg)[1]


class TopoGrid500(_Workload):
    """Use case 1 through the virtual-time driver on the synthetic lattice case.

    The case comes from a fixed generator seed, so every workload seed times
    the same grid and the runs' inputs alone vary with the seed.
    """

    name = "topo_grid500_vt"

    def setup(self, rep: int) -> None:
        root = self.work / f"vt{rep}"
        root.mkdir(parents=True)
        synth = synthcase.lattice_case(load_bundled_case("case9"))
        path = root / "grid500.txt"
        path.write_text(synth.text)
        self.case = load_case(path)
        self.lattice = synth.lattice_branch_ids
        self.store = FileStore(root / "store")
        self.root = root

    def inputs(self, count: int) -> list[RunInput]:
        """Each run opens one lattice branch (the lattice stays connected) on a
        fresh set of virtual nodes, so no run has to undo the previous one."""
        owner = self.case.branch_partition()
        out = []
        for i in range(count):
            opened = self.rng.choice(self.lattice)
            out.append(RunInput(i, self.manifest(i, draw_fault(self.rng, self.case, opened)),
                                ((opened, "Open", owner[opened]),), opened))
        return out

    def run(self, inp: RunInput) -> RunRecord:
        (branch, status, region), = inp.reports
        script = [UeScriptItem(at_s=0.0, kind="topology",
                               branches=({"id": branch, "status": status},))]
        profile = default_5g_sa_profile(seed=derive_seed(self.name, self.seed, inp.index))
        start = time.perf_counter()
        outcome = virtualdemo.run_virtual_demo(
            self.case, inp.manifest, self.store, self.root / "logs" / str(inp.index), profile,
            {"ue-1": (region, script)}, sim_workers=1)
        wall_ms = (time.perf_counter() - start) * 1e3
        return RunRecord(inp, outcome.exit_code == 0, wall_ms)


WORKLOADS = {w.name: w for w in (TopoCase9, DsaCase9, TopoGrid500)}
