"""The socket and virtual-time drivers run the same node, so the same inputs
must leave the same store bytes and the same UE, edge and cloud events in both
modes, whatever the link's timing; each socket node calls its core from its
one event loop."""

import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from gridmesh import core, virtualdemo
from gridmesh.core import EdgeCore, UeCore
from gridmesh.dynamics import SimulationConfig
from gridmesh.eventlog import EventLog, read_events
from gridmesh.linkem import default_5g_sa_profile, zero_impairment_profile
from gridmesh.model import Branch, Bus, FaultSpec, load_bundled_case
from gridmesh.nodes import CloudNode, EdgeNode, UeScriptItem, ue_agent
from gridmesh.pipeline import DsaParams, RunManifest
from gridmesh.store import FileStore
from gridmesh.virtualdemo import run_virtual_demo

ZERO = zero_impairment_profile()
FAULT = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3, cleared_branch=6)
CFG = SimulationConfig(t_end=2.0, dt=0.005)
REGIONS = ("R1", "R2", "R3")
NODES = ("cloud",) + tuple(f"edge-{r}" for r in REGIONS)
DRIVER_ONLY = {"cloud_up", "edge_up"}


def socket_run(case, manifest, scripts, root, profile):
    store = FileStore(root / "store")
    logs = root / "logs"
    cloud = CloudNode(case, store, profile=profile,
                      log=EventLog("cloud", path=logs / "cloud.log"))
    cloud_addr = cloud.start()
    edges = {r: EdgeNode(r, case, store, cloud_addr, profile=profile,
                         log=EventLog(f"edge-{r}", path=logs / f"edge-{r}.log"))
             for r in REGIONS}
    try:
        for e in edges.values():
            e.start()
        deadline = time.time() + 5
        while time.time() < deadline and len(cloud.edges) < len(edges):
            time.sleep(0.01)
        for name, (region, script) in sorted(scripts.items()):
            assert ue_agent(name, script, edges[region].bound_addr, profile=profile,
                            log=EventLog(name, path=logs / f"{name}.log")).clean
        code = cloud.execute_run(manifest)
    finally:
        for e in edges.values():
            e.close()
        cloud.close()
    return code, store, logs


def artifacts(store, run_id):
    return {k: store.get(k) for k in store.list(f"runs/{run_id}/")}


def events(logs, node):
    return Counter((ev, tuple(sorted(f.items())))
                   for _, _, ev, f in read_events(logs / f"{node}.log")
                   if ev not in DRIVER_ONLY)


@pytest.mark.parametrize("mode,profile", [
    pytest.param("Topology", ZERO, id="Topology"), pytest.param("DSA", ZERO, id="DSA"),
    pytest.param("Topology", default_5g_sa_profile(seed=3), id="Topology-5g"),
    pytest.param("DSA", default_5g_sa_profile(seed=3), id="DSA-5g")])
def test_socket_and_virtual_runs_are_identical(mode, profile, tmp_path):
    case = load_bundled_case("case9")
    dsa = DsaParams(n_raw=20, k=2, seed=11) if mode == "DSA" else None
    manifest = RunManifest(run_id="ab" * 16, expected_regions=REGIONS, mode=mode,
                           fault=FAULT, sim_cfg=CFG, deadline_s=15.0, dsa=dsa)
    scripts = {}
    if mode == "Topology":
        scripts["ue-2"] = ("R2", [UeScriptItem(at_s=0.0, kind="topology",
                                               branches=({"id": 9, "status": "Open"},))])

    code, store, logs = socket_run(case, manifest, scripts, tmp_path / "socket", profile)
    vstore = FileStore(tmp_path / "virtual" / "store")
    out = run_virtual_demo(case, manifest, vstore, tmp_path / "virtual" / "logs", profile,
                           scripts)

    assert code == out.exit_code == 0
    stored = artifacts(store, manifest.run_id)
    assert len(stored) == len(REGIONS) + 1                # one upload per region, one result
    assert stored == artifacts(vstore, manifest.run_id)
    for node in NODES + tuple(scripts):
        assert events(logs, node) == events(tmp_path / "virtual" / "logs", node), node


def test_concurrent_reports_under_fast_thread_switching(tmp_path):
    # each edge calls its core from its one loop: 24 UE threads on two
    # cores, switching every 10 us, each set the load of a different bus
    # their edge owns; a lost update would drop one from the edge's view
    base = load_bundled_case("case9")
    # eight load-free stub buses per region, each on a branch from a bus the region owns
    hubs = {"R1": 4, "R2": 8, "R3": 9}
    owner = {10 + i: r for i, r in enumerate(r for r in REGIONS for _ in range(8))}
    case = replace(
        base,
        buses=base.buses + tuple(Bus(id=b, kind="PQ", owner_region=r) for b, r in owner.items()),
        branches=base.branches + tuple(Branch(id=b, from_bus=hubs[r], to_bus=b, r=0.01, x=0.1)
                                       for b, r in owner.items()))
    manifest = RunManifest(run_id="cd" * 16, expected_regions=REGIONS, mode="Topology",
                           fault=FAULT, sim_cfg=CFG, deadline_s=15.0)
    store = FileStore(tmp_path / "store")
    cloud = CloudNode(case, store, profile=ZERO)
    cloud_addr = cloud.start()
    edges = {r: EdgeNode(r, case, store, cloud_addr, profile=ZERO) for r in REGIONS}
    load = {bus: (0.5 + bus / 100, 0.1) for bus in owner}

    def script(region, bus):
        branches = ({"id": 9, "status": "Open"},) if region == "R2" else ()
        return [UeScriptItem(at_s=0.0, kind="topology", branches=branches, buses=(
            {"id": bus, "p_load": load[bus][0], "q_load": load[bus][1]},))]

    results = []
    threads = [threading.Thread(target=lambda r=r, b=b: results.append(ue_agent(
                   f"ue-{r}-{b}", script(r, b), edges[r].bound_addr, profile=ZERO)))
               for b, r in owner.items()]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for e in edges.values():
            e.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        code = cloud.execute_run(manifest)
    finally:
        sys.setswitchinterval(switch)
        for e in edges.values():
            e.close()
        cloud.close()
    assert len(results) == 24 and all(r.clean for r in results)
    for r, e in edges.items():
        assert {b.id: (b.p_load, b.q_load) for b in e.core.view.buses
                if b.id in load} == {b: load[b] if owner[b] == r else (0.0, 0.0) for b in load}
    assert edges["R2"].core.view.branch(9).status == "Open"
    assert code == 0


def test_a_dropped_frame_is_logged_by_its_sender_in_both_drivers(tmp_path, monkeypatch):
    # at loss 0.5, link seed 1 passes a UE's first frame (its unacked Hello),
    # drops the second (its report) and passes the third (the report's
    # resend); the edge's link is lossless
    monkeypatch.setattr(core, "ACK_TIMEOUT_S", 0.5)
    lossy = replace(ZERO, loss_rate=0.5, seed=1)
    script = [UeScriptItem(at_s=0.0, kind="topology")]
    case = load_bundled_case("case9")
    store = FileStore(tmp_path / "socket" / "store")
    cloud = CloudNode(case, store, profile=ZERO)
    edge = EdgeNode("R1", case, store, cloud.start(), profile=ZERO)
    try:
        report = ue_agent("ue-1", script, edge.start(), profile=lossy,
                          log=EventLog("ue-1", path=tmp_path / "socket" / "ue-1.log"))
    finally:
        edge.close()
        cloud.close()

    sched = virtualdemo.Scheduler()
    logs = tmp_path / "virtual"
    vedge = virtualdemo.CoreNode("edge-R1", sched, ZERO,
                                 EventLog("edge-R1", path=logs / "edge-R1.log"),
                                 EdgeCore("R1", case, FileStore(logs / "store")))
    ue = virtualdemo.CoreNode("ue-1", sched, lossy, EventLog("ue-1", path=logs / "ue-1.log"),
                              UeCore("ue-1", script), vedge)
    sched.at(0.0, ue.call, ue.core.start)
    sched.run()

    assert report.clean and report.delivered == ue.core.report.delivered == [2]
    assert ue.exit_code == 0
    expected = [("ue_send", {"seq": "1", "kind": "1"}),
                ("ue_send", {"seq": "2", "kind": "2"}),
                ("frame_dropped", {"direction": "up", "kind": "2"}),
                ("ue_retry", {"seq": "2"}),
                ("ue_done", {"delivered": "1", "failed": "0", "rejected": "0"})]
    for driver in ("socket", "virtual"):
        events = read_events(tmp_path / driver / "ue-1.log")
        assert [(ev, f) for _, _, ev, f in events] == expected, driver
