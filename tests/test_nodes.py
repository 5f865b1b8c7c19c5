import socket
import threading
import time

import pytest

import gridmesh.wire as wire
from gridmesh import pipeline, virtualdemo
from gridmesh.core import CLOUD, RESULT_ACK_TIMEOUT_S, CloudCore, Compute, EdgeCore, Send
from gridmesh.eventlog import read_events
from gridmesh.linkem import LinkEmulator, UP, default_5g_sa_profile, \
    zero_impairment_profile
from gridmesh.model import load_bundled_case
from gridmesh.nodes import (CloudNode, EdgeNode, ShapedConnection, UeScriptItem,
                            ue_agent)
from gridmesh.pipeline import DsaParams, RunManifest, new_run_id
from gridmesh.store import FileStore, partial_key, result_key
from gridmesh.dynamics import SimulationConfig
from gridmesh.model import FaultSpec

ZERO = zero_impairment_profile()
WS_CFG = SimulationConfig(t_end=2.0, dt=0.005)
FAULT = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3, cleared_branch=6)


@pytest.fixture
def case9():
    return load_bundled_case("case9")


@pytest.fixture
def cluster(case9, tmp_path):
    """cloud + three edges over loopback with zero impairment."""
    store = FileStore(tmp_path / "store")
    cloud = CloudNode(case9, store, profile=ZERO)
    cloud_addr = cloud.start()
    edges = {}
    for r in ("R1", "R2", "R3"):
        e = EdgeNode(r, case9, store, cloud_addr, profile=ZERO)
        e.start()
        edges[r] = e
    deadline = time.time() + 5
    while time.time() < deadline and len(cloud.edges) < 3:
        time.sleep(0.01)
    assert len(cloud.edges) == 3
    yield cloud, edges, store
    for e in edges.values():
        e.close()
    cloud.close()


def manifest(mode="Topology", regions=("R1", "R2", "R3"), deadline_s=15.0, dsa=None):
    return RunManifest(run_id=new_run_id(), expected_regions=tuple(regions),
                       mode=mode, fault=FAULT, sim_cfg=WS_CFG,
                       deadline_s=deadline_s, dsa=dsa)


class TestUeAgent:
    def test_empty_script_clean_exit(self, cluster):
        _, edges, _ = cluster
        report = ue_agent("ue-x", [], edges["R1"].bound_addr, profile=ZERO)
        assert report.clean and report.delivered == [] and report.error is None

    def test_one_report_one_ack(self, cluster):
        _, edges, _ = cluster
        item = UeScriptItem(at_s=0.0, kind="topology",
                            branches=({"id": 9, "status": "Open"},))
        report = ue_agent("ue-y", [item], edges["R2"].bound_addr, profile=ZERO)
        assert report.delivered == [2] and not report.failed
        assert edges["R2"].view.branch(9).status == "Open"

    def test_connection_refused_reported(self):
        report = ue_agent("ue-z", [], ("127.0.0.1", 9), profile=ZERO)
        assert report.error is not None and "connect" in report.error

    def test_fifty_agents_idempotent_deltas(self, cluster, case9):
        # oracle: applying the deltas directly, bypassing the network
        _, edges, _ = cluster
        script = [UeScriptItem(at_s=0.0, kind="topology",
                               branches=({"id": 9, "status": "Open"},
                                         {"id": 4, "status": "Closed"}))]
        expected = case9.with_branch_status({9: "Open", 4: "Closed"})

        reports = []
        def run_one(i):
            reports.append(ue_agent(f"ue-{i}", script, edges["R1"].bound_addr,
                                    profile=ZERO))

        threads = [threading.Thread(target=run_one, args=(i,)) for i in range(50)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r.clean for r in reports)
        assert edges["R1"].view == expected

    def test_malformed_report_leaves_state_unchanged(self, cluster):
        _, edges, _ = cluster
        before = edges["R3"].view
        item = UeScriptItem(at_s=0.0, kind="topology",
                            branches=({"id": 999, "status": "Open"},))
        report = ue_agent("ue-bad", [item], edges["R3"].bound_addr, profile=ZERO,
                          ack_timeout=0.2)
        assert report.failed == [2]           # never acked
        assert edges["R3"].view == before


class TestTopologyRun:
    def test_happy_path_matches_monolithic_bitwise(self, cluster, case9):
        cloud, edges, store = cluster
        item = UeScriptItem(at_s=0.0, kind="topology",
                            branches=({"id": 9, "status": "Open"},))
        assert ue_agent("ue-1", [item], edges["R2"].bound_addr, profile=ZERO).clean

        m = manifest()
        assert cloud.execute_run(m) == 0
        blob = store.get(result_key(m.run_id))
        _, expected = pipeline.monolithic_topology(case9, {9: "Open"}, FAULT, WS_CFG)
        assert blob == expected

    def test_edge_logs_verdict_on_result(self, cluster, tmp_path, case9):
        cloud, edges, store = cluster
        m = manifest()
        assert cloud.execute_run(m) == 0
        # every edge fetched and recorded the result (RunResult was acked)
        for e in edges.values():
            assert e.runs[m.run_id] == "uploaded"

    def test_duplicate_run_open_rejected(self, cluster):
        cloud, edges, store = cluster
        m = manifest()
        assert cloud.execute_run(m) == 0
        edge = edges["R1"]
        # replay the same RunOpen at one edge's core
        actions = edge.core.handle(0.0, CLOUD,
                                   wire.run_open(m.to_payload(), m.run_id_bytes))
        assert not any(isinstance(a, Compute) for a in actions)    # no second upload
        assert [a.env.obj()["code"] for a in actions if isinstance(a, Send)] == \
            ["duplicate_run"]
        assert edge.runs[m.run_id] == "uploaded"   # state unchanged

    def test_barrier_timeout_names_missing_region(self, case9, tmp_path):
        store = FileStore(tmp_path / "store")
        cloud = CloudNode(case9, store, profile=ZERO)
        cloud_addr = cloud.start()
        edges = [EdgeNode(r, case9, store, cloud_addr, profile=ZERO)
                 for r in ("R1", "R2")]      # R3 withheld
        for e in edges:
            e.start()
        time.sleep(0.2)
        m = manifest(deadline_s=1.0)
        code = cloud.execute_run(m)
        assert code == 3
        time.sleep(0.3)
        for e in edges:
            e.close()
        cloud.close()
        assert not store.exists(result_key(m.run_id))
        assert store.exists(partial_key(m.run_id, "R1"))

    def test_killing_ue_does_not_abort_run(self, cluster, case9):
        cloud, edges, store = cluster

        # UE that connects and then dies mid-session without close handshake
        sock = socket.create_connection(edges["R1"].bound_addr)
        conn = ShapedConnection(sock, LinkEmulator(ZERO), UP)
        conn.send(wire.hello("ue-doomed", "ue", 1))
        time.sleep(0.1)
        sock.close()

        m = manifest()
        assert cloud.execute_run(m) == 0
        assert store.exists(result_key(m.run_id))

    def test_default_5g_profile_network_transparent(self, case9, tmp_path):
        # impairments delay frames but never change the computed result
        store = FileStore(tmp_path / "store")
        prof = default_5g_sa_profile(seed=5)
        cloud = CloudNode(case9, store, profile=prof)
        cloud_addr = cloud.start()
        edges = [EdgeNode(r, case9, store, cloud_addr, profile=prof)
                 for r in ("R1", "R2", "R3")]
        for e in edges:
            e.start()
        deadline = time.time() + 5
        while time.time() < deadline and len(cloud.edges) < 3:
            time.sleep(0.01)
        m = manifest()
        code = cloud.execute_run(m)
        for e in edges:
            e.close()
        cloud.close()
        assert code == 0
        _, expected = pipeline.monolithic_topology(case9, {}, FAULT, WS_CFG)
        assert store.get(result_key(m.run_id)) == expected


class TestEdgeArtifacts:
    def test_partial_excludes_opened_branch(self, cluster, case9):
        # oracle: build the partial from a hand-modified case
        cloud, edges, store = cluster
        item = UeScriptItem(at_s=0.0, kind="topology",
                            branches=({"id": 9, "status": "Open"},))
        assert ue_agent("ue-q", [item], edges["R2"].bound_addr, profile=ZERO).clean
        m = manifest()
        assert cloud.execute_run(m) == 0
        uploaded = store.get(partial_key(m.run_id, "R2"))
        expected = pipeline.edge_topology_blob(
            case9.with_branch_status({9: "Open"}), case9, "R2")
        assert uploaded == expected
        part, deltas = pipeline.parse_topology_blob(uploaded)
        assert 9 not in part.branch_ids and deltas == {9: "Open"}

    def test_forecast_report_shapes_dsa_sampling(self, case9, tmp_path):
        from gridmesh.cli import _single_region_case
        from gridmesh.sampling import ForecastSpec
        case = _single_region_case(case9, "R1")
        store = FileStore(tmp_path / "store")
        cloud = CloudNode(case, store, profile=ZERO)
        cloud_addr = cloud.start()
        edge = EdgeNode("R1", case, store, cloud_addr, profile=ZERO)
        edge.start()
        deadline = time.time() + 5
        while time.time() < deadline and len(cloud.edges) < 1:
            time.sleep(0.01)

        spec = ForecastSpec(n_dims=3, dist="uniform", half_width=0.02)
        item = UeScriptItem(at_s=0.0, kind="forecast", forecast=spec.to_dict())
        assert ue_agent("ue-f", [item], edge.bound_addr, profile=ZERO).clean
        assert edge.forecast == spec

        dsa = DsaParams(n_raw=20, k=4, seed=5)
        m = manifest(mode="DSA", regions=("R1",), dsa=dsa)
        code = cloud.execute_run(m)
        edge.close()
        cloud.close()
        assert code == 0
        from gridmesh.store import scenarios_key
        parsed = pipeline.parse_scenarios_blob(store.get(scenarios_key(m.run_id, "R1")))
        assert parsed["forecast_spec"] == spec.to_dict()
        for rep in parsed["scenario_set"].representatives:
            assert all(0.98 <= v <= 1.02 for v in rep.multipliers)


class _Recorder(virtualdemo._Node):
    """A virtual peer that keeps every frame it receives and answers none."""

    def __init__(self, *args):
        super().__init__(*args)
        self.inbox = []

    def handle(self, src, env):
        self.inbox.append(env)


class TestDuplicateUpload:
    def test_second_ready_rejected_first_wins(self, case9, tmp_path):
        # R1 and R2 are virtual edges; a hand-rolled R3 uploads once, reports
        # readiness twice and never acks RunResult, so the result-ack timer
        # fires, in virtual time
        logs = tmp_path / "logs"
        store = FileStore(tmp_path / "store")
        sched = virtualdemo._Scheduler()
        cloud = virtualdemo._CoreNode("cloud", sched, ZERO, logs,
                                      CloudCore(case9, store))
        for r in ("R1", "R2"):
            edge = virtualdemo._CoreNode(f"edge-{r}", sched, ZERO, logs,
                                         EdgeCore(r, case9, store), cloud)
            sched.at(0.0, edge.perform, edge.core.hello())
        r3 = _Recorder("edge-R3", sched, ZERO, logs)
        sched.at(0.0, r3.send, cloud, wire.hello("edge-R3", "edge", 1, region="R3"), UP)

        m = manifest()
        key = partial_key(m.run_id, "R3")
        store.put(key, pipeline.edge_topology_blob(case9, case9, "R3"))
        for seq in (2, 3):
            sched.at(0.1, r3.send, cloud,
                     wire.partial_ready("R3", key, seq, m.run_id_bytes), UP)
        sched.at(1.0, cloud.call, cloud.core.open_run, m)
        sched.run()

        assert cloud.exit_code == 0                       # run unaffected
        errors = [e for e in r3.inbox if e.msg_type == wire.MessageKind.ERROR]
        assert [e.obj()["code"] for e in errors] == ["duplicate_upload"]
        _, expected = pipeline.monolithic_topology(case9, {}, FAULT, WS_CFG)
        assert store.get(result_key(m.run_id)) == expected
        events = read_events(logs / "cloud.log")
        assert [f["region"] for _, _, ev, f in events if ev == "result_unacked"] == ["R3"]
        assert [ev for _, _, ev, _ in events[-2:]] == ["result_unacked", "run_complete"]
        sent = max(ts for ts, _, ev, _ in events if ev == "result_sent")
        assert events[-1][0] - sent == pytest.approx(RESULT_ACK_TIMEOUT_S)

    def test_store_rejects_second_artifact_write(self, case9, tmp_path):
        from gridmesh.store import AlreadyExistsError
        store = FileStore(tmp_path / "store")
        rid = new_run_id()
        key = partial_key(rid, "R1")
        store.put(key, b"first")
        with pytest.raises(AlreadyExistsError):
            store.put(key, b"second")


class TestDsaRun:
    def test_distributed_dsa_matches_monolithic(self, case9, tmp_path):
        # single-region ownership: one edge samples every load
        from gridmesh.cli import _single_region_case
        case = _single_region_case(case9, "R1")
        store = FileStore(tmp_path / "store")
        cloud = CloudNode(case, store, profile=ZERO)
        cloud_addr = cloud.start()
        edge = EdgeNode("R1", case, store, cloud_addr, profile=ZERO)
        edge.start()
        deadline = time.time() + 5
        while time.time() < deadline and len(cloud.edges) < 1:
            time.sleep(0.01)

        dsa = DsaParams(n_raw=40, k=5, seed=7)
        m = manifest(mode="DSA", regions=("R1",), dsa=dsa)
        code = cloud.execute_run(m)
        edge.close()
        cloud.close()
        assert code == 0
        blob = store.get(result_key(m.run_id))
        report, expected = pipeline.monolithic_dsa(case, {}, dsa, FAULT, WS_CFG,
                                                   regions=["R1"])
        assert blob == expected
        assert 0.0 <= report.insecurity_probability <= 1.0
