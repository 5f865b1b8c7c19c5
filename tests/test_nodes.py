import contextlib
import copy
import json
import random
import selectors
import socket
import statistics
import threading
import time
from dataclasses import replace

import pytest

import gridmesh.wire as wire
from gridmesh import core, nodes, pipeline, virtualdemo
from gridmesh.core import ACK_TIMEOUT_S, UPLINK, CloudCore, Compute, EdgeCore, Send
from gridmesh.eventlog import EventLog, read_events
from gridmesh.linkem import UP, default_5g_sa_profile, zero_impairment_profile
from gridmesh.model import load_bundled_case
from gridmesh.nodes import CloudNode, EdgeNode, UeScriptItem, load_ue_script, ue_agent
from gridmesh.pipeline import DsaParams, RunManifest, new_run_id
from gridmesh.sampling import ForecastSpec
from gridmesh.store import AlreadyExistsError, FileStore, result_key, upload_key
from gridmesh.dynamics import SimulationConfig
from gridmesh.model import FaultSpec

ZERO = zero_impairment_profile()
LINK_100MS = replace(ZERO, delay_min_ms=100.0, delay_max_ms=100.0)    # fixed, no jitter
# each draws an edge error of over 20 kB that names its distribution
BAD_FORECAST = wire.encode(wire.forecast_report({"n_dims": 1, "dist": "x" * 20_000,
                                                 "sigma": 0.1, "half_width": 0.0,
                                                 "trunc_sigmas": 3.0}, 2))
WS_CFG = SimulationConfig(t_end=2.0, dt=0.005)
FAULT = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3, cleared_branch=6)


@pytest.fixture
def case9():
    return load_bundled_case("case9")


def start_cluster(case, root, profile=ZERO, regions=("R1", "R2", "R3")):
    """A cloud and an edge per region over loopback, logging to ``root/logs``;
    returns once every edge has said Hello."""
    store = FileStore(root / "store")
    cloud = CloudNode(case, store, profile=profile,
                      log=EventLog("cloud", path=root / "logs" / "cloud.log"))
    cloud_addr = cloud.start()
    edges = {}
    for r in regions:
        e = EdgeNode(r, case, store, cloud_addr, profile=profile,
                     log=EventLog(f"edge-{r}", path=root / "logs" / f"edge-{r}.log"))
        e.start()
        edges[r] = e
    deadline = time.time() + 5
    while time.time() < deadline and len(cloud.edges) < len(regions):
        time.sleep(0.01)
    assert len(cloud.edges) == len(regions)
    return cloud, edges, store


def close_cluster(cloud, edges):
    for e in edges.values():
        e.close()
    cloud.close()


@pytest.fixture
def cluster(case9, tmp_path):
    """cloud + three edges over loopback with zero impairment."""
    cloud, edges, store = start_cluster(case9, tmp_path)
    yield cloud, edges, store
    close_cluster(cloud, edges)


def await_result_recv(root, regions, run_id, timeout=5.0):
    """Wait until each region's edge has logged ``result_recv`` for the run: a
    run ends when its unacked RunResults are delivered, not when they are read."""
    deadline = time.time() + timeout
    for r in regions:
        path = root / "logs" / f"edge-{r}.log"
        while not any(ev == "result_recv" and f["run"] == run_id
                      for _, _, ev, f in read_events(path)):
            assert time.time() < deadline, f"edge-{r} logged no result_recv"
            time.sleep(0.01)


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
        assert edges["R2"].core.view.branch(9).status == "Open"

    def test_connection_refused_reported(self):
        report = ue_agent("ue-z", [], ("127.0.0.1", 9), profile=ZERO)
        assert report.error is not None and "connect" in report.error

    def test_fifty_agents_idempotent_deltas(self, cluster, case9):
        # oracle: applying the deltas directly, bypassing the network
        _, edges, _ = cluster
        script = [UeScriptItem(at_s=0.0, kind="topology",
                               branches=({"id": 6, "status": "Open"},
                                         {"id": 4, "status": "Closed"}))]
        expected = case9.with_branch_status({6: "Open", 4: "Closed"})

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
        assert edges["R1"].core.view == expected

    def test_malformed_report_leaves_state_unchanged(self, cluster):
        _, edges, _ = cluster
        before = edges["R3"].core.view
        item = UeScriptItem(at_s=0.0, kind="topology",
                            branches=({"id": 999, "status": "Open"},))
        start = time.monotonic()
        report = ue_agent("ue-bad", [item], edges["R3"].bound_addr, profile=ZERO)
        # the edge's error names seq 2: the UE stops waiting at once
        assert time.monotonic() - start < ACK_TIMEOUT_S
        assert report.rejected == [2] and report.failed == [] and not report.clean
        assert edges["R3"].core.view == before


class TestLinks:
    def test_links_block_on_reads_once_connected(self, cluster, monkeypatch):
        # a read timeout left on a link would end it after an idle spell;
        # without TCP_NODELAY a frame can wait for the peer's delayed ACK
        cloud, edges, _ = cluster

        def nodelay(sock):
            return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

        assert all(e.uplink.sock.gettimeout() is None for e in edges.values())
        ends = [e.uplink.sock for e in edges.values()] + [c.sock for c in cloud.edges.values()]
        assert len(ends) == 6 and all(nodelay(s) for s in ends)
        opened = []
        connect = nodes._connect

        def recording(addr):
            sock = connect(addr)
            opened.append((sock.gettimeout(), nodelay(sock)))
            return sock

        monkeypatch.setattr(nodes, "_connect", recording)
        assert ue_agent("ue-t", [], edges["R1"].bound_addr, profile=ZERO).clean
        assert opened == [(None, True)]

    def test_a_link_the_peer_hung_up_is_closed(self, cluster):
        _, edges, _ = cluster
        with socket.create_connection(edges["R1"].bound_addr, timeout=5.0) as ue:
            ue.shutdown(socket.SHUT_WR)
            assert ue.recv(1024) == b""              # the edge closed its end too

    def test_a_report_to_a_peer_that_hung_up_fails_after_one_timeout(self, tmp_path,
                                                                     monkeypatch):
        # a dead link answers nothing: the UE counts its report failed once
        # the ack timeout passes, with no resend
        monkeypatch.setattr(core, "ACK_TIMEOUT_S", 0.1)
        item = UeScriptItem(at_s=0.0, kind="topology")
        with socket.create_server(("127.0.0.1", 0)) as server:
            threading.Thread(target=lambda: server.accept()[0].close()).start()
            report = ue_agent("ue-w", [item], server.getsockname(), profile=ZERO,
                              log=EventLog("ue-w", path=tmp_path / "ue-w.log"))
        assert (report.delivered, report.failed, report.error) == ([], [2], None)
        assert [ev for _, _, ev, _ in read_events(tmp_path / "ue-w.log")] == \
            ["ue_send", "ue_send", "ue_unacked", "ue_done"]

    def test_junk_bytes_end_that_link_alone(self, case9, tmp_path, monkeypatch):
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        store = FileStore(tmp_path / "store")
        cloud = CloudNode(case9, store, profile=ZERO)
        edge = EdgeNode("R1", case9, store, cloud.start(), profile=ZERO,
                        log=EventLog("edge-R1", path=tmp_path / "edge.log"))
        try:
            addr = edge.start()
            junk = socket.create_connection(addr, timeout=5.0)
            junk.sendall(b"X" * 42)
            assert junk.recv(1024) == b""            # the edge closed this link
            junk.close()
            assert ue_agent("ue-after", [], addr, profile=ZERO).clean
        finally:
            edge.close()
            cloud.close()
        errors = [f for _, _, ev, f in read_events(tmp_path / "edge.log")
                  if ev == "frame_error"]
        assert errors == [{"reason": "FramingError"}]
        assert uncaught == []

    def test_a_reply_too_large_to_encode_ends_that_link_alone(self, cluster, tmp_path,
                                                               monkeypatch):
        # the edge's error quotes the distribution's repr in JSON, which doubles
        # each backslash twice: the report fits the payload cap, its error not
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        monkeypatch.setattr(wire, "MAX_PAYLOAD", 4096)
        _, edges, _ = cluster
        addr = edges["R1"].bound_addr
        bad = wire.encode(wire.forecast_report({"n_dims": 1, "dist": "\\" * 1500,
                                                "sigma": 0.1, "half_width": 0.0,
                                                "trunc_sigmas": 3.0}, 2))
        with socket.create_connection(addr, timeout=5.0) as peer:
            peer.sendall(bad)
            assert peer.recv(1024) == b""             # the edge closed this link
        assert ue_agent("ue-after", [], addr, profile=ZERO).clean
        errors = [f for _, _, ev, f in read_events(tmp_path / "logs" / "edge-R1.log")
                  if ev == "frame_error"]
        assert errors == [{"reason": "FramingError"}]
        assert uncaught == []


class TestEventLoop:
    """Each socket node is one event loop: a server owns one thread from
    ``start`` to ``close``, and no send waits for its frame's delivery."""

    def test_a_server_owns_one_thread_and_none_after_close(self, case9, tmp_path):
        before = set(threading.enumerate())
        cloud, edges, store = start_cluster(case9, tmp_path)
        try:
            item = UeScriptItem(at_s=0.0, kind="topology",
                                branches=({"id": 9, "status": "Open"},))
            assert ue_agent("ue-1", [item], edges["R2"].bound_addr, profile=ZERO).clean
            assert cloud.execute_run(manifest()) == 0
            assert len(set(threading.enumerate()) - before) == 4
        finally:
            close_cluster(cloud, edges)
            cloud.close()                                  # closing twice is harmless
        assert set(threading.enumerate()) - before == set()

    def test_a_fan_out_travels_together(self, case9, tmp_path):
        # the cloud's three RunOpens, then its three RunResults, each leave at
        # one instant and arrive 100 ms later, not one delivery after another
        cloud, edges, _ = start_cluster(case9, tmp_path, profile=LINK_100MS)
        try:
            m = manifest()
            assert cloud.execute_run(m) == 0
            await_result_recv(tmp_path, edges, m.run_id)
        finally:
            close_cluster(cloud, edges)
        for event in ("run_open_recv", "result_recv"):
            at = [ts for r in edges for ts, _, ev, f in
                  read_events(tmp_path / "logs" / f"edge-{r}.log")
                  if ev == event and f["run"] == m.run_id]
            assert len(at) == 3 and max(at) - min(at) < 0.05, event

    def test_done_waits_for_the_frames_before_it(self, case9, tmp_path):
        # a barrier timeout's errors are written before execute_run returns, so
        # a `gridmesh cloud` process that exits on its return still sends them
        cloud, edges, _ = start_cluster(case9, tmp_path, profile=LINK_100MS,
                                        regions=("R1", "R2"))        # R3 withheld
        try:
            start = time.monotonic()
            assert cloud.execute_run(manifest(deadline_s=0.5)) == 3
            assert time.monotonic() - start >= 0.6
            time.sleep(0.3)
        finally:
            close_cluster(cloud, edges)
        for r in edges:
            errors = [f["code"] for _, _, ev, f in
                      read_events(tmp_path / "logs" / f"edge-{r}.log") if ev == "cloud_error"]
            assert errors == ["barrier_timeout"], r

    def test_a_loop_that_fails_fails_the_run(self, case9, tmp_path, monkeypatch):
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)

        def broken(self, now, manifest):
            raise RuntimeError("open_run failed")

        monkeypatch.setattr(CloudCore, "open_run", broken)
        cloud = CloudNode(case9, FileStore(tmp_path / "store"), profile=ZERO)
        cloud.start()
        try:
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="open_run failed"):
                cloud.execute_run(manifest())
            with pytest.raises(OSError):                   # the loop has ended
                cloud.execute_run(manifest())
            assert time.monotonic() - start < 2.0
        finally:
            cloud.close()
        assert [type(h.exc_value) for h in uncaught] == [RuntimeError]

    @pytest.mark.parametrize("reads", ["never", "slowly"])
    def test_a_peer_that_stops_reading_does_not_stall_its_node(self, cluster, reads):
        # the hog's 20 kB errors fill the socket buffers. Through a small receive
        # buffer, 1 kB read every 50 ms would keep a blocking write going for a
        # second per error; the write that does not fit closes the link at once
        _, edges, _ = cluster
        addr = edges["R1"].bound_addr
        with socket.socket() as hog:
            hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            hog.connect(addr)
            hog.settimeout(0.5)

            def trickle():
                with contextlib.suppress(OSError):
                    while reads == "slowly" and hog.recv(1024):
                        time.sleep(0.05)

            reader = threading.Thread(target=trickle)
            reader.start()
            with pytest.raises(OSError):             # the edge has closed the link
                while True:
                    hog.sendall(BAD_FORECAST)
            start = time.monotonic()
            assert ue_agent("ue-after", [], addr, profile=ZERO).clean
            assert time.monotonic() - start < ACK_TIMEOUT_S
            reader.join()

    def test_timed_calls_fire_on_time(self):
        # as in a node, each call sets the next one 0.3-14.3 ms after its own
        # now. Waits in whole milliseconds fire each call ~0.7 ms late, or
        # ~1.7 ms where epoll stretches the wait by one (9 and 13 ms among these)
        loop = nodes._Loop()
        rng = random.Random(3)
        late = []

        def fire(due):
            now = time.time()
            late.append(now - due)
            if len(late) == 20:
                loop.stop()
            else:
                due = now + 0.0003 + 0.001 * rng.randrange(15)
                loop.at(due, fire, due)

        fire(time.time())
        loop.run()
        late = late[1:]
        assert len(late) == 19 and min(late) >= 0.0
        assert statistics.median(late) < 0.0005
        assert sum(t > 0.0005 for t in late) <= 2

    def test_a_read_is_served_while_a_call_is_far_off(self):
        loop = nodes._Loop()
        ours, theirs = socket.socketpair()
        served = []
        loop.selector.register(ours, selectors.EVENT_READ,
                               lambda: served.append((time.time(), ours.recv(1))))
        sent = []

        def write():
            time.sleep(0.01)
            sent.append(time.time())
            theirs.send(b"x")

        writer = threading.Thread(target=write)
        loop.at(time.time() + 0.05, loop.stop)
        writer.start()
        try:
            loop.run()
        finally:
            writer.join()
            theirs.close()
        (at, data), = served
        assert data == b"x" and at - sent[0] < 0.005


class TestUeScript:
    def test_unknown_kind_rejected_at_parse_time(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"at_s": 0.0, "kind": "topology"},
                                    {"at_s": 0.1, "kind": "bogus"}]))
        with pytest.raises(ValueError, match="bogus"):
            load_ue_script(path)

    def test_decreasing_times_rejected(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"at_s": 0.5, "kind": "topology"},
                                    {"at_s": 0.1, "kind": "forecast"}]))
        with pytest.raises(ValueError, match="nondecreasing"):
            load_ue_script(path)

    @pytest.mark.parametrize("at_s", [float("inf"), float("nan"), -1.0])
    def test_a_time_that_is_not_finite_and_nonnegative_is_rejected(self, at_s):
        # an infinite time once escaped the virtual scheduler as OverflowError,
        # and NaN or -1 sent the report at once
        with pytest.raises(ValueError, match="at_s must be finite and >= 0"):
            core.parse_ue_script([{"at_s": 0.0, "kind": "topology"},
                                  {"at_s": at_s, "kind": "topology"}])


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
        await_result_recv(tmp_path, edges, m.run_id)
        # every edge fetched the result and logged the cloud's verdict once
        result, _ = pipeline.monolithic_topology(case9, {}, FAULT, WS_CFG)
        size = str(len(store.get(result_key(m.run_id))))
        for r in edges:
            recv = [f for _, _, ev, f in read_events(tmp_path / "logs" / f"edge-{r}.log")
                    if ev == "result_recv" and f["run"] == m.run_id]
            assert recv == [{"run": m.run_id, "verdict": result.verdict, "bytes": size}]

    def test_duplicate_run_open_rejected(self, cluster):
        cloud, edges, store = cluster
        m = manifest()
        assert cloud.execute_run(m) == 0
        edge = edges["R1"]
        upload = store.get(upload_key(m.run_id, "R1"))
        # replay the same RunOpen at one edge's core: it computes again, and
        # the stored key refuses the second put
        actions = edge.core.handle(0.0, UPLINK,
                                   wire.run_open(m.to_payload(), m.run_id_bytes))
        [step] = [a for a in actions if isinstance(a, Compute)]
        computed = edge.core.run_compute(0.0, step)
        [step] = [a for a in computed if isinstance(a, Compute)]
        stored = edge.core.run_compute(0.0, step)
        events = [a.event for a in actions + computed + stored if isinstance(a, core.Log)]
        assert events.count("upload_conflict") == 1 and "store_put_done" not in events
        assert [a.env.obj()["code"] for a in stored if isinstance(a, Send)] == \
            ["upload_conflict"]
        assert store.get(upload_key(m.run_id, "R1")) == upload

    def test_rerun_of_a_stored_run_fails_with_exit_2(self, cluster):
        # the edges' puts and the cloud's put of the result fail on their stored keys
        cloud, _, store = cluster
        m = manifest()
        assert cloud.execute_run(m) == 0
        blob = store.get(result_key(m.run_id))
        assert cloud.execute_run(m) == 2
        assert store.get(result_key(m.run_id)) == blob

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
        assert store.exists(upload_key(m.run_id, "R1"))

    def test_killing_ue_does_not_abort_run(self, cluster, case9):
        cloud, edges, store = cluster

        # UE that connects and then dies mid-session without close handshake
        sock = socket.create_connection(edges["R1"].bound_addr)
        sock.sendall(wire.encode(wire.hello("ue-doomed", "ue", 1)))
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
        uploaded = store.get(upload_key(m.run_id, "R2"))
        expected = pipeline.edge_topology_blob(case9.with_branch_status({9: "Open"}), "R2")
        assert uploaded == expected
        assert 9 not in pipeline.parse_upload(uploaded)["partial"].branches

    def test_forecast_report_shapes_dsa_sampling(self, cluster):
        cloud, edges, store = cluster
        spec = ForecastSpec(n_dims=1, dist="uniform", half_width=0.02)
        item = UeScriptItem(at_s=0.0, kind="forecast", forecast=spec.to_dict())
        for r, edge in edges.items():
            assert ue_agent(f"ue-{r}", [item], edge.bound_addr, profile=ZERO).clean
            assert edge.core.forecast == spec

        m = manifest(mode="DSA", dsa=DsaParams(n_raw=20, k=4, seed=5))
        assert cloud.execute_run(m) == 0
        for r in edges:
            parsed = pipeline.parse_upload(store.get(upload_key(m.run_id, r)))
            assert parsed["forecast_spec"] == spec.to_dict()
            for row in parsed["scenario_set"].multipliers.tolist():
                assert all(0.98 <= v <= 1.02 for v in row)


def _log(log_dir, name):
    return EventLog(name, path=log_dir / f"{name}.log")


class _Recorder(virtualdemo.CoreNode):
    """A virtual peer that keeps every frame it receives and answers none."""

    def __init__(self, *args):
        super().__init__(*args)
        self.inbox = []

    def handle(self, src, env):
        self.inbox.append(env)


class TestDuplicateUpload:
    @pytest.mark.parametrize("mode", ["Topology", "DSA"])
    def test_second_ready_rejected_first_wins(self, mode, case9, tmp_path):
        # R1 and R2 are virtual edges; a hand-rolled R3 says only Hello and puts
        # its upload in the store, where a second put is refused; no edge acks
        # its RunResult, and none needs to, in virtual time
        logs = tmp_path / "logs"
        store = FileStore(tmp_path / "store")
        sched = virtualdemo.Scheduler()
        cloud = virtualdemo.CoreNode("cloud", sched, ZERO, _log(logs, "cloud"),
                                     CloudCore(case9, store))
        for r in ("R1", "R2"):
            edge = virtualdemo.CoreNode(f"edge-{r}", sched, ZERO, _log(logs, f"edge-{r}"),
                                        EdgeCore(r, case9, store), cloud)
            sched.at(0.0, edge.perform, edge.core.hello())
        r3 = _Recorder("edge-R3", sched, ZERO, _log(logs, "edge-R3"))
        sched.at(0.0, r3.send, cloud, wire.hello("edge-R3", "edge", 1, region="R3"), UP)

        dsa = DsaParams(n_raw=20, k=2, seed=3) if mode == "DSA" else None
        m = manifest(mode=mode, dsa=dsa)
        key = upload_key(m.run_id, "R3")
        store.put(key, pipeline.edge_scenarios_blob(case9, "R3", dsa) if dsa
                  else pipeline.edge_topology_blob(case9, "R3"))
        with pytest.raises(AlreadyExistsError):
            store.put(key, b"second")
        sched.at(1.0, cloud.call, cloud.core.open_run, m)
        sched.run()

        assert cloud.exit_code == 0                       # run unaffected
        assert [e.msg_type for e in r3.inbox] == [wire.MessageKind.RUN_OPEN,
                                                  wire.MessageKind.RUN_RESULT]
        _, expected = (pipeline.monolithic_dsa(case9, {}, dsa, FAULT, WS_CFG) if dsa
                       else pipeline.monolithic_topology(case9, {}, FAULT, WS_CFG))
        assert store.get(result_key(m.run_id)) == expected
        # the run completes as the last RunResult arrives, with no wait for acks
        events = read_events(logs / "cloud.log")
        assert [(ev, f.get("region")) for _, _, ev, f in events[-4:]] == [
            ("result_sent", "R1"), ("result_sent", "R2"), ("result_sent", "R3"),
            ("run_complete", None)]
        assert events[-1][0] - events[-2][0] < 1e-3                # a zero link

    def test_store_rejects_second_artifact_write(self, case9, tmp_path):
        store = FileStore(tmp_path / "store")
        rid = new_run_id()
        key = upload_key(rid, "R1")
        store.put(key, b"first")
        with pytest.raises(AlreadyExistsError):
            store.put(key, b"second")


def core_state(c) -> dict:
    """A core's attributes, its containers copied."""
    return {k: copy.copy(v) if isinstance(v, (dict, set, list)) else v
            for k, v in vars(c).items()}


class TestUnexpectedKinds:
    """A core answers a frame kind it does not take with one
    ``unexpected_kind`` reply and one reject log line, and keeps its state."""

    RID = bytes.fromhex(new_run_id())

    @pytest.mark.parametrize("env", [
        wire.topology_report([{"id": 9, "status": "Open"}], 2),
        wire.forecast_report(ForecastSpec(n_dims=1).to_dict(), 3),
        wire.ack(1),
        wire.run_result("verdict: Stable", RID),
        wire.run_open(manifest().to_payload(), RID),
    ], ids=lambda env: env.msg_type.name)
    def test_cloud_rejects_a_kind_edges_do_not_send(self, env, case9, tmp_path):
        cloud = CloudCore(case9, FileStore(tmp_path / "store"))
        link = object()
        cloud.handle(0.0, link, wire.hello("edge-R1", "edge", 1, region="R1"))
        cloud.open_run(0.0, manifest(regions=("R1",)))
        before = core_state(cloud)
        out = cloud.handle(0.1, link, env)
        assert core_state(cloud) == before
        [reply, log] = out
        assert isinstance(reply, Send) and reply.peer is link
        assert reply.env.obj()["code"] == "unexpected_kind"
        assert (log.event, log.fields) == ("cloud_reject", {"reason": "unexpected_kind",
                                                            "kind": int(env.msg_type)})

    @pytest.mark.parametrize("env", [
        wire.hello("cloud", "cloud", 1),
        wire.ack(1),
        wire.topology_report([{"id": 9, "status": "Open"}], 2),
        wire.forecast_report(ForecastSpec(n_dims=1).to_dict(), 3),
    ], ids=lambda env: env.msg_type.name)
    def test_edge_rejects_a_kind_the_cloud_does_not_send(self, env, case9, tmp_path):
        edge = EdgeCore("R1", case9, FileStore(tmp_path / "store"))
        before = core_state(edge)
        out = edge.handle(0.0, UPLINK, env)
        assert core_state(edge) == before
        [reply, log] = out
        assert isinstance(reply, Send) and reply.peer is UPLINK
        assert reply.env.obj()["code"] == "unexpected_kind"
        assert (log.event, log.fields) == ("edge_reject", {"reason": "unexpected_kind",
                                                           "kind": int(env.msg_type)})


class TestDsaRun:
    def test_distributed_dsa_matches_monolithic(self, cluster, case9):
        cloud, _, store = cluster
        dsa = DsaParams(n_raw=40, k=5, seed=7)
        m = manifest(mode="DSA", dsa=dsa)
        assert cloud.execute_run(m) == 0
        blob = store.get(result_key(m.run_id))
        report, expected = pipeline.monolithic_dsa(case9, {}, dsa, FAULT, WS_CFG)
        assert blob == expected
        assert 0.0 <= report.insecurity_probability <= 1.0
