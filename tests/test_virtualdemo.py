import hashlib
import json
from collections import Counter
from dataclasses import replace
from operator import setitem

import pytest

from gridmesh import pipeline, virtualdemo, wire
from gridmesh.core import ACK_TIMEOUT_S, UPLINK, CloudCore, EdgeCore, Send, UeCore
from gridmesh.dynamics import SimulationConfig
from gridmesh.eventlog import EventLog, read_events
from gridmesh.linkem import UP, default_5g_sa_profile, zero_impairment_profile
from gridmesh.model import Branch, Bus, FaultSpec, Generator, GridCase, load_bundled_case
from gridmesh.nodes import UeScriptItem
from gridmesh.pipeline import DsaParams, RunManifest
from gridmesh.reports import emit_report
from gridmesh.sampling import ForecastSpec, combine_region_sets
from gridmesh.store import POLL_INTERVAL_S, FileStore, result_key, upload_key
from gridmesh.virtualdemo import run_virtual_demo
from gridmesh.wire import canonical_json
from gridmesh.ybus import build_partials, build_ybus

from helpers import reference_first_error

FAULT = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3, cleared_branch=6)
CFG = SimulationConfig(t_end=2.0, dt=0.005)
RID = "cd" * 16
LINK_100MS = replace(zero_impairment_profile(), delay_min_ms=100.0,
                     delay_max_ms=100.0)                      # fixed, no jitter


def topo_manifest(deadline_s=30.0):
    return RunManifest(run_id=RID, expected_regions=("R1", "R2", "R3"),
                       mode="Topology", fault=FAULT, sim_cfg=CFG,
                       deadline_s=deadline_s)


SCRIPTS = {
    "ue-1": ("R1", []),
    "ue-2": ("R2", [UeScriptItem(at_s=0.2, kind="topology",
                                 branches=({"id": 9, "status": "Open"},))]),
    "ue-3": ("R3", []),
}


class TestVirtualTopology:
    def test_completes_and_matches_monolithic(self, tmp_path):
        case = load_bundled_case("case9")
        store = FileStore(tmp_path / "store")
        out = run_virtual_demo(case, topo_manifest(), store, tmp_path / "logs",
                               zero_impairment_profile(), SCRIPTS)
        assert out.exit_code == 0
        _, expected = pipeline.monolithic_topology(case, {9: "Open"}, FAULT, CFG)
        assert out.result_blob == expected
        # zero impairment: each reception trails its send by well under 5 ms
        report = emit_report(RID, store, out.log_paths)
        sends = sorted(r.t_ms for r in report.rows if r.stage == "ue_send")
        recvs = sorted(r.t_ms for r in report.rows if r.stage == "edge_recv")
        assert len(sends) == len(recvs)
        assert all(0 <= rv - sd < 5.0 for sd, rv in zip(sends, recvs))

    def test_region_owning_only_open_branches_uploads_an_empty_partial(self, tmp_path):
        # R2 owns no bus, only branch 3 in parallel with R1's branch 1; once
        # its UE opens branch 3 the region has nothing left to stamp
        case = GridCase(
            buses=(Bus(id=1, kind="Slack", owner_region="R1"),
                   Bus(id=2, kind="PV", owner_region="R1")),
            branches=(Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.4),
                      Branch(id=3, from_bus=1, to_bus=2, r=0.0, x=0.4, owner_region="R2")),
            generators=(Generator(id=1, bus=1, h=1e6, d=0.0, xd_p=1e-6),
                        Generator(id=2, bus=2, h=3.0, d=0.0, xd_p=0.3, p_mech=0.8)))
        fault = FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=0.2)
        manifest = RunManifest(run_id=RID, expected_regions=("R1", "R2"), mode="Topology",
                               fault=fault, sim_cfg=CFG)
        opens = UeScriptItem(at_s=0.2, kind="topology",
                             branches=({"id": 3, "status": "Open"},))
        store = FileStore(tmp_path / "store")
        out = run_virtual_demo(case, manifest, store, tmp_path / "logs",
                               zero_impairment_profile(),
                               {"ue-1": ("R1", []), "ue-2": ("R2", [opens])})
        assert out.exit_code == 0
        upload = pipeline.parse_upload(store.get(upload_key(RID, "R2")))
        assert upload["partial"].branches == {} and upload["partial"].shunts == {}
        parts = {r: pipeline.parse_upload(store.get(upload_key(RID, r))) for r in ("R1", "R2")}
        assert pipeline.cloud_merge(case, parts).case == case.with_branch_status({3: "Open"})
        _, expected = pipeline.monolithic_topology(case, {3: "Open"}, fault, CFG)
        assert out.result_blob == expected

    @pytest.mark.parametrize("mode", ["Topology", "DSA"])
    def test_every_frame_sent_has_a_reader(self, mode, tmp_path, monkeypatch):
        # the cloud sends an edge its RunOpen and RunResult only: no Hello and
        # no RunResult is acked, and an upload is a store put, not a frame
        sent = Counter()
        send = virtualdemo.CoreNode.send

        def counting(node, dst, env, direction):
            sent[node.name, env.msg_type.name] += 1
            send(node, dst, env, direction)

        monkeypatch.setattr(virtualdemo.CoreNode, "send", counting)
        manifest = (topo_manifest() if mode == "Topology"
                    else dsa_manifest(DsaParams(n_raw=20, k=2, seed=1)))
        out = run_virtual_demo(load_bundled_case("case9"), manifest,
                               FileStore(tmp_path / "store"), tmp_path / "logs",
                               zero_impairment_profile(), SCRIPTS)
        assert out.exit_code == 0
        # ue-2's one report, and its edge's ack of it
        expected = Counter({("cloud", "RUN_OPEN"): 3, ("cloud", "RUN_RESULT"): 3,
                            ("ue-2", "TOPOLOGY_REPORT"): 1, ("edge-R2", "ACK"): 1})
        for ue, (region, _) in SCRIPTS.items():
            # a UE's Hello and its edge's
            expected.update({(ue, "HELLO"): 1, (f"edge-{region}", "HELLO"): 1})
        assert sent == expected

    @pytest.mark.parametrize("mode", ["Topology", "DSA"])
    def test_a_run_completes_as_its_last_result_arrives(self, mode, tmp_path, monkeypatch):
        # RunResult is unacked: over 5G, the cloud's run_complete is the
        # instant the last edge logs result_recv, and no edge acks its cloud
        uplinks = Counter()
        send = virtualdemo.CoreNode.send

        def counting(node, dst, env, direction):
            if node.name.startswith("edge-") and direction == UP:
                uplinks[env.msg_type.name] += 1
            send(node, dst, env, direction)

        monkeypatch.setattr(virtualdemo.CoreNode, "send", counting)
        case = load_bundled_case("case9")
        dsa = DsaParams(n_raw=20, k=2, seed=1) if mode == "DSA" else None
        manifest = dsa_manifest(dsa) if dsa else topo_manifest()
        store = FileStore(tmp_path / "store")
        logs = tmp_path / "logs"
        out = run_virtual_demo(case, manifest, store, logs, default_5g_sa_profile(seed=29),
                               SCRIPTS)
        assert out.exit_code == 0
        [complete] = [ts for ts, _, ev, _ in read_events(logs / "cloud.log")
                      if ev == "run_complete"]
        received = [ts for r in ("R1", "R2", "R3")
                    for ts, _, ev, _ in read_events(logs / f"edge-{r}.log")
                    if ev == "result_recv"]
        assert len(received) == 3 and complete == max(received)
        assert uplinks == Counter({"HELLO": 3})
        _, expected = (pipeline.monolithic_dsa(case, {9: "Open"}, dsa, FAULT, CFG) if dsa
                       else pipeline.monolithic_topology(case, {9: "Open"}, FAULT, CFG))
        digest = hashlib.sha256(store.get(result_key(RID))).hexdigest()
        assert digest == hashlib.sha256(expected).hexdigest()

    def test_deterministic_timings_and_verdicts(self, tmp_path):
        case = load_bundled_case("case9")
        prof = default_5g_sa_profile(seed=4)
        runs = []
        for sub in ("a", "b"):
            store = FileStore(tmp_path / sub / "store")
            out = run_virtual_demo(case, topo_manifest(), store,
                                   tmp_path / sub / "logs", prof, SCRIPTS)
            report = emit_report(RID, store, out.log_paths)
            runs.append((out, report))
        (out_a, rep_a), (out_b, rep_b) = runs
        assert out_a.exit_code == out_b.exit_code == 0
        assert out_a.result_blob == out_b.result_blob
        assert rep_a.csv() == rep_b.csv()       # identical stage timings

    def test_impaired_profile_same_result_later_timings(self, tmp_path):
        case = load_bundled_case("case9")
        store_z = FileStore(tmp_path / "z" / "store")
        out_z = run_virtual_demo(case, topo_manifest(), store_z, tmp_path / "z/logs",
                                 zero_impairment_profile(), SCRIPTS)
        store_g = FileStore(tmp_path / "g" / "store")
        out_g = run_virtual_demo(case, topo_manifest(), store_g, tmp_path / "g/logs",
                                 default_5g_sa_profile(seed=2), SCRIPTS)
        assert out_z.result_blob == out_g.result_blob   # impairments only delay
        rep_z = emit_report(RID, store_z, out_z.log_paths)
        rep_g = emit_report(RID, store_g, out_g.log_paths)
        t_z = max(r.t_ms for r in rep_z.rows if r.stage == "result_recv")
        t_g = max(r.t_ms for r in rep_g.rows if r.stage == "result_recv")
        assert t_g > t_z

    def test_withheld_region_times_out(self, tmp_path):
        case = load_bundled_case("case9")
        store = FileStore(tmp_path / "store")
        out = run_virtual_demo(case, topo_manifest(deadline_s=3.0), store,
                               tmp_path / "logs", zero_impairment_profile(), SCRIPTS,
                               withhold_regions={"R3"})
        assert out.exit_code == 3
        report = emit_report(RID, store, out.log_paths)
        assert report.outcome == "TimedOut"
        assert report.missing_regions == ("R3",)

    def test_the_store_poll_completes_the_barrier_before_any_ready(self, tmp_path):
        # no frame announces an upload: a poll finds the last one stored within
        # POLL_INTERVAL_S, on a link whose frames take 100 ms (log stamps carry
        # microseconds)
        out = run_virtual_demo(load_bundled_case("case9"), topo_manifest(),
                               FileStore(tmp_path / "store"), tmp_path / "logs",
                               LINK_100MS, SCRIPTS)
        assert out.exit_code == 0
        at = {}
        for path in out.log_paths:
            for ts, _, ev, _ in read_events(path):
                at.setdefault(ev, []).append(ts)
        last_put = max(at["store_put_done"])
        (barrier,) = at["barrier_done"]
        assert last_put <= barrier <= last_put + POLL_INTERVAL_S + 1e-6

    def test_a_found_upload_is_not_checked_again(self, tmp_path, monkeypatch):
        checks = Counter()
        exists = FileStore.exists
        monkeypatch.setattr(FileStore, "exists",
                            lambda self, key: checks.update([key]) or exists(self, key))
        out = run_virtual_demo(load_bundled_case("case9"), topo_manifest(deadline_s=3.0),
                               FileStore(tmp_path / "store"), tmp_path / "logs",
                               zero_impairment_profile(), SCRIPTS, withhold_regions={"R3"})
        assert out.exit_code == 3
        assert max(checks[upload_key(RID, r)] for r in ("R1", "R2")) <= 3
        assert checks[upload_key(RID, "R3")] > 1000


def dsa_manifest(dsa, deadline_s=30.0):
    return RunManifest(run_id=RID, expected_regions=("R1", "R2", "R3"), mode="DSA",
                       fault=FAULT, sim_cfg=CFG, deadline_s=deadline_s, dsa=dsa)


class TestVirtualDsa:
    def test_dsa_run_produces_probability(self, tmp_path):
        case = load_bundled_case("case9")
        manifest = dsa_manifest(DsaParams(n_raw=30, k=5, seed=3))
        store = FileStore(tmp_path / "store")
        out = run_virtual_demo(case, manifest, store, tmp_path / "logs",
                               zero_impairment_profile(),
                               {f"ue-{r}": (r, []) for r in ("R1", "R2", "R3")})
        assert out.exit_code == 0
        report = pipeline.parse_dsa_result(out.result_blob)
        assert 0.0 <= report.insecurity_probability <= 1.0
        _, expected = pipeline.monolithic_dsa(case, {}, manifest.dsa, FAULT, CFG)
        assert out.result_blob == expected

    def test_forecast_report_shapes_dsa_sampling(self, tmp_path):
        case = load_bundled_case("case9")
        spec = ForecastSpec(n_dims=1, dist="uniform", half_width=0.02)
        dsa = DsaParams(n_raw=20, k=4, seed=5)
        store = FileStore(tmp_path / "store")
        item = UeScriptItem(at_s=0.0, kind="forecast", forecast=spec.to_dict())
        out = run_virtual_demo(case, dsa_manifest(dsa), store, tmp_path / "logs",
                               zero_impairment_profile(),
                               {f"ue-{r}": (r, [item]) for r in ("R1", "R2", "R3")})
        assert out.exit_code == 0
        for r in ("R1", "R2", "R3"):
            parsed = pipeline.parse_upload(store.get(upload_key(RID, r)))
            assert parsed["forecast_spec"] == spec.to_dict()
        _, expected = pipeline.monolithic_dsa(case, {}, dsa, FAULT, CFG,
                                              forecasts=dict.fromkeys(("R1", "R2", "R3"), spec))
        assert out.result_blob == expected

    def test_forecast_to_one_edge_only(self, tmp_path):
        case = load_bundled_case("case9")
        spec = ForecastSpec(n_dims=1, dist="uniform", half_width=0.02)
        dsa = DsaParams(n_raw=20, k=4, seed=5)
        store = FileStore(tmp_path / "store")
        item = UeScriptItem(at_s=0.0, kind="forecast", forecast=spec.to_dict())
        out = run_virtual_demo(case, dsa_manifest(dsa), store, tmp_path / "logs",
                               zero_impairment_profile(),
                               {"ue-R1": ("R1", [item]), "ue-R2": ("R2", []),
                                "ue-R3": ("R3", [])})
        assert out.exit_code == 0
        specs = {r: pipeline.parse_upload(store.get(upload_key(RID, r)))
                 ["forecast_spec"] for r in ("R1", "R2", "R3")}
        assert specs["R1"] == spec.to_dict()
        assert specs["R2"] == specs["R3"] == ForecastSpec(n_dims=1).to_dict()
        _, expected = pipeline.monolithic_dsa(case, {}, dsa, FAULT, CFG,
                                              forecasts={"R1": spec})
        assert out.result_blob == expected
        # the same spec on every region is a different answer
        _, everywhere = pipeline.monolithic_dsa(
            case, {}, dsa, FAULT, CFG, forecasts=dict.fromkeys(("R1", "R2", "R3"), spec))
        _, default = pipeline.monolithic_dsa(case, {}, dsa, FAULT, CFG)
        assert expected not in (everywhere, default)


    def test_a_diverging_scenario_fails_the_run_as_the_loop_would(self, tmp_path):
        # loads of up to 3.5 times their base: some joint scenario's power flow diverges
        case = load_bundled_case("case9")
        spec = ForecastSpec(n_dims=1, dist="uniform", half_width=2.5)
        dsa = DsaParams(n_raw=20, k=3, seed=5)
        item = UeScriptItem(at_s=0.0, kind="forecast", forecast=spec.to_dict())
        logs = tmp_path / "logs"
        out = run_virtual_demo(case, dsa_manifest(dsa), FileStore(tmp_path / "store"), logs,
                               zero_impairment_profile(),
                               {f"ue-{r}": (r, [item]) for r in ("R1", "R2", "R3")})
        assert out.exit_code == 2
        joint, _, _ = combine_region_sets({r: pipeline.region_scenarios(case, r, dsa, spec)[:2]
                                           for r in ("R1", "R2", "R3")})
        k, exc = reference_first_error(case, build_ybus(case), joint, FAULT)
        failed = [f for ev, f in _events(logs, "cloud") if ev == "run_failed"]
        assert [f["reason"] for f in failed] == [type(exc).__name__]
        assert failed[0]["detail"] == f"scenario {k}: {exc}".replace(" ", "_")


class TestDsaOracle:
    @pytest.mark.parametrize("oracle", [pipeline.monolithic_dsa,
                                        pipeline.dsa_bruteforce_probability])
    def test_forecast_that_does_not_fit_a_region_raises(self, oracle):
        wrong = ForecastSpec(n_dims=2)                # each case9 region owns one load
        with pytest.raises(pipeline.ManifestError, match="2 dims, region R1 has 1 loads"):
            oracle(load_bundled_case("case9"), {}, DsaParams(n_raw=20, k=2, seed=1),
                   FAULT, CFG, forecasts={"R1": wrong})

    def test_a_region_without_loads_samples_as_its_edge_does(self, tmp_path):
        # R4 owns bus 1 and no load: its edge samples a 0-dimension default
        # spec and fails its compute on a 2-dimension one, and so does the oracle
        case = load_bundled_case("case9")
        case = replace(case, buses=tuple(replace(b, owner_region="R4") if b.id == 1 else b
                                         for b in case.buses))
        dsa = DsaParams(n_raw=20, k=2, seed=1)
        manifest = replace(dsa_manifest(dsa), expected_regions=("R1", "R2", "R3", "R4"))
        wrong = ForecastSpec(n_dims=2)
        item = UeScriptItem(at_s=0.0, kind="forecast", forecast=wrong.to_dict())
        outs = [run_virtual_demo(case, manifest, FileStore(tmp_path / f"store{i}"),
                                 tmp_path / f"logs{i}", zero_impairment_profile(), scripts)
                for i, scripts in enumerate(({}, {"ue-4": ("R4", [item])}))]
        assert [out.exit_code for out in outs] == [0, 3]
        _, expected = pipeline.monolithic_dsa(case, {}, dsa, FAULT, CFG)
        assert outs[0].result_blob == expected
        for oracle in (pipeline.monolithic_dsa, pipeline.dsa_bruteforce_probability):
            with pytest.raises(pipeline.ManifestError, match="2 dims, region R4 has 0 loads"):
                oracle(case, {}, dsa, FAULT, CFG, forecasts={"R4": wrong})


def _events(log_dir, node):
    return [(ev, f) for _, _, ev, f in read_events(log_dir / f"{node}.log")]


class TestVirtualBadInput:
    def test_rerun_into_one_store_fails_the_second_run(self, tmp_path):
        # the second run's result key is taken: a classified failure, exit 2
        case = load_bundled_case("case9")
        store = FileStore(tmp_path / "store")
        logs = tmp_path / "logs"
        outs = [run_virtual_demo(case, topo_manifest(), store, logs,
                                 zero_impairment_profile(), SCRIPTS) for _ in range(2)]
        assert [o.exit_code for o in outs] == [0, 2]
        assert outs[0].result_blob is not None and outs[1].result_blob is None
        failed = [f["reason"] for ev, f in _events(logs, "cloud") if ev == "run_failed"]
        assert failed == ["AlreadyExistsError"]
        assert ("cloud_error", "compute_failure") in \
            [(ev, f.get("code")) for ev, f in _events(logs, "edge-R1")]

    def test_tampered_partial_fails_the_run(self, tmp_path):
        # R1's upload is in the store before its edge computes, with R2's
        # branch 8 stamp added; the cloud rejects it instead of merging it
        case = load_bundled_case("case9")
        payloads = {r: p.to_payload() for r, p in build_partials(case).items()}
        payloads["R1"]["branches"].append(
            next(b for b in payloads["R2"]["branches"] if b[0] == 8))
        store = FileStore(tmp_path / "store")
        store.put(upload_key(RID, "R1"), canonical_json({"partial": payloads["R1"]}))
        logs = tmp_path / "logs"
        out = run_virtual_demo(case, topo_manifest(), store, logs,
                               zero_impairment_profile(), SCRIPTS)
        assert out.exit_code == 2 and out.result_blob is None
        failed = [f["reason"] for ev, f in _events(logs, "cloud") if ev == "run_failed"]
        assert failed == ["PartialMismatchError"]

    @pytest.mark.parametrize("tamper", [
        lambda p: setitem(p["branches"][0], 1, float("nan")),
        lambda p: setitem(p["branches"][0], 6, float("inf")),
        lambda p: p["branches"][0].pop(),
        lambda p: setitem(p["branches"][0], 0, 1.5),
        lambda p: setitem(p["branches"][0], 0, True),
        lambda p: setitem(p["branches"][0], 2, True),
        lambda p: setitem(p["branches"][0], 2, "0.1"),
        lambda p: setitem(p["branches"][0], 2, 10**400),
        lambda p: p["shunts"].append([4, 0.1]),
    ], ids=["nan_from_diagonal", "infinite_off_diagonal", "six_number_branch_row",
            "fractional_branch_id", "bool_branch_id", "bool_value", "string_value",
            "integer_past_the_float_range", "two_number_shunt_row"])
    def test_a_non_finite_stamp_fails_the_run(self, tamper, tmp_path):
        # R1's upload is in the store before its edge computes, its branch 1
        # stamp (row 0) made non-finite or malformed, or a short shunt row
        # added; the cloud rejects the partial as it reads it, before a NaN
        # could reach the Kron reduction or an id of 1.5 or a value of true
        # could be read as a number
        case = load_bundled_case("case9")
        partial = build_partials(case)["R1"].to_payload()
        tamper(partial)
        store = FileStore(tmp_path / "store")
        store.put(upload_key(RID, "R1"), canonical_json({"partial": partial}))
        logs = tmp_path / "logs"
        out = run_virtual_demo(case, topo_manifest(), store, logs,
                               zero_impairment_profile(), SCRIPTS)
        assert out.exit_code == 2 and out.result_blob is None
        failed = [f["reason"] for ev, f in _events(logs, "cloud") if ev == "run_failed"]
        assert failed == ["PartialPayloadError"]

    @pytest.mark.parametrize("tamper", [
        lambda sset: dict(sset, weights=[float("nan")] * len(sset["weights"])),
        lambda sset: dict(sset, multipliers=[[float("inf")]] + sset["multipliers"][1:]),
        lambda sset: dict(sset, multipliers=[row * 2 for row in sset["multipliers"]]),
        lambda sset: dict(sset, ids=[999, 999]),
    ], ids=["nan_weights", "infinite_multiplier", "a_column_per_load_too_many",
            "ids_repeated_and_past_n_raw"])
    def test_tampered_scenario_set_fails_the_run(self, tamper, tmp_path):
        # R1's DSA upload is in the store before its edge computes, its
        # scenario set altered; the cloud rejects it instead of simulating it
        case = load_bundled_case("case9")
        dsa = DsaParams(n_raw=20, k=2, seed=1)
        upload = json.loads(pipeline.edge_scenarios_blob(case, "R1", dsa))
        upload["scenario_set"] = tamper(upload["scenario_set"])
        store = FileStore(tmp_path / "store")
        store.put(upload_key(RID, "R1"), canonical_json(upload))
        logs = tmp_path / "logs"
        out = run_virtual_demo(case, dsa_manifest(dsa), store, logs,
                               zero_impairment_profile(), {})
        assert out.exit_code == 2 and out.result_blob is None
        failed = [f["reason"] for ev, f in _events(logs, "cloud") if ev == "run_failed"]
        assert failed == ["SamplingError"]

    def test_bad_input_never_crashes_the_scheduler(self, tmp_path):
        # a report naming an unknown branch is rejected and the run completes
        case = load_bundled_case("case9")
        bad = UeScriptItem(at_s=0.1, kind="topology",
                           branches=({"id": 999, "status": "Open"},))
        store = FileStore(tmp_path / "a" / "store")
        logs = tmp_path / "a" / "logs"
        out = run_virtual_demo(case, topo_manifest(), store, logs,
                               zero_impairment_profile(),
                               dict(SCRIPTS, **{"ue-3": ("R3", [bad])}))
        assert out.exit_code == 0
        # the rejection names seq 2, so the UE gives it up at once: no resend
        assert _events(logs, "ue-3") == [
            ("ue_send", {"seq": "1", "kind": "1"}), ("ue_send", {"seq": "2", "kind": "2"}),
            ("edge_error", {"code": "bad_report"}), ("ue_rejected", {"seq": "2"}),
            ("ue_done", {"delivered": "0", "failed": "0", "rejected": "1"})]
        edge = [ev for ev, _ in _events(logs, "edge-R3")]
        assert "edge_reject" in edge and "delta_applied" not in edge
        assert store.get(upload_key(RID, "R3")) == \
            pipeline.edge_topology_blob(case, "R3")      # view unchanged
        _, expected = pipeline.monolithic_topology(case, {9: "Open"}, FAULT, CFG)
        assert out.result_blob == expected

        # a forecast that does not fit the region's loads fails the edge compute
        wrong = ForecastSpec(n_dims=2)                # R1 owns one load
        logs = tmp_path / "b" / "logs"
        item = UeScriptItem(at_s=0.0, kind="forecast", forecast=wrong.to_dict())
        out = run_virtual_demo(case, dsa_manifest(DsaParams(n_raw=20, k=2, seed=1),
                                                  deadline_s=3.0),
                               FileStore(tmp_path / "b" / "store"), logs,
                               zero_impairment_profile(), {"ue-1": ("R1", [item])})
        assert out.exit_code == 3 and out.result_blob is None
        assert "compute_failure" in [ev for ev, _ in _events(logs, "edge-R1")]
        cloud = _events(logs, "cloud")
        assert ("edge_error_recv", "compute_failure") in \
            [(ev, f.get("code")) for ev, f in cloud]
        assert cloud[-1] == ("run_aborted", {"run": RID, "missing": "R1"})

    @pytest.mark.parametrize("item", [
        {"branches": ({"id": 9, "status": "Open"},)},
        {"buses": ({"id": 8, "p_load": 2.5, "q_load": 0.5},)},
    ], ids=["branch", "bus_load"])
    def test_a_report_on_another_regions_item_is_rejected(self, item, tmp_path):
        # branch 9 and bus 8 belong to R2: R1's edge rejects the report
        # before its ack, so the run neither fails nor loses what was acked
        case = load_bundled_case("case9")
        logs = tmp_path / "logs"
        script = [UeScriptItem(at_s=0.0, kind="topology", **item)]
        out = run_virtual_demo(case, topo_manifest(), FileStore(tmp_path / "store"), logs,
                               zero_impairment_profile(), {"ue-1": ("R1", script)})
        assert out.exit_code == 0
        assert _events(logs, "ue-1")[-1] == \
            ("ue_done", {"delivered": "0", "failed": "0", "rejected": "1"})
        assert ("edge_reject", {"reason": "CaseError"}) in _events(logs, "edge-R1")
        _, expected = pipeline.monolithic_topology(case, {}, FAULT, CFG)
        assert out.result_blob == expected

    def test_a_non_finite_bus_load_is_rejected_before_its_ack(self, tmp_path):
        # R1's edge once acked a nan load on its own bus 5
        case = load_bundled_case("case9")
        logs = tmp_path / "logs"
        script = [UeScriptItem(at_s=0.0, kind="topology",
                               buses=({"id": 5, "p_load": float("nan"), "q_load": 0.5},))]
        out = run_virtual_demo(case, topo_manifest(), FileStore(tmp_path / "store"), logs,
                               zero_impairment_profile(), {"ue-1": ("R1", script)})
        assert out.exit_code == 0
        assert _events(logs, "ue-1")[-1] == \
            ("ue_done", {"delivered": "0", "failed": "0", "rejected": "1"})
        assert ("edge_reject", {"reason": "CaseError"}) in _events(logs, "edge-R1")
        _, expected = pipeline.monolithic_topology(case, {}, FAULT, CFG)
        assert out.result_blob == expected

    def test_a_rejection_names_the_frames_seq_when_it_parsed(self, tmp_path):
        edge = EdgeCore("R1", load_bundled_case("case9"), FileStore(tmp_path / "store"))
        frames = [("unexpected_kind", 4, wire.make_envelope(wire.MessageKind.RUN_OPEN,
                                                            {"seq": 4})),
                  ("bad_report", 5, wire.topology_report([{"id": 999, "status": "Open"}], 5)),
                  ("bad_report", None, wire.Envelope(wire.MessageKind.TOPOLOGY_REPORT, b"{"))]
        for code, seq, env in frames:
            [err] = [a.env.obj() for a in edge.handle(0.0, "ue", env) if isinstance(a, Send)]
            assert (err["code"], err["of"]) == (code, seq)

    @pytest.mark.parametrize("spec", [
        dict(ForecastSpec(n_dims=1).to_dict(), sigma=float("nan")),
        dict(ForecastSpec(n_dims=1, dist="uniform").to_dict(), half_width=float("inf")),
    ])
    def test_non_finite_forecast_is_rejected_before_its_ack(self, spec, tmp_path):
        case = load_bundled_case("case9")
        dsa = DsaParams(n_raw=20, k=2, seed=1)
        logs = tmp_path / "logs"
        item = UeScriptItem(at_s=0.0, kind="forecast", forecast=spec)
        out = run_virtual_demo(case, dsa_manifest(dsa), FileStore(tmp_path / "store"), logs,
                               zero_impairment_profile(), {"ue-1": ("R1", [item])})
        assert out.exit_code == 0
        assert _events(logs, "ue-1") == [
            ("ue_send", {"seq": "1", "kind": "1"}), ("ue_send", {"seq": "2", "kind": "3"}),
            ("edge_error", {"code": "bad_report"}), ("ue_rejected", {"seq": "2"}),
            ("ue_done", {"delivered": "0", "failed": "0", "rejected": "1"})]
        assert ("edge_reject", {"reason": "SamplingError"}) in _events(logs, "edge-R1")
        _, expected = pipeline.monolithic_dsa(case, {}, dsa, FAULT, CFG)
        assert out.result_blob == expected


def _log(log_dir, name):
    return EventLog(name, path=log_dir / f"{name}.log")


class _Watched(virtualdemo.CoreNode):
    """A node that also keeps the virtual time of every frame it receives."""

    def __init__(self, *args):
        super().__init__(*args)
        self.arrivals = []

    def handle(self, src, env):
        self.arrivals.append((self.sched.now, env))
        super().handle(src, env)


class _Silent(virtualdemo.CoreNode):
    """A virtual edge that answers nothing."""

    def handle(self, src, env):
        pass


class TestVirtualUe:
    def test_unacked_hello_gives_up_after_two_timeouts(self, tmp_path):
        # the Hello goes once, unacked; the report goes with it, is resent
        # once and is then counted failed
        sched = virtualdemo.Scheduler()
        zero = zero_impairment_profile()
        edge = _Silent("edge-R1", sched, zero, _log(tmp_path, "edge-R1"))
        item = UeScriptItem(at_s=0.0, kind="topology")
        ue = virtualdemo.CoreNode("ue-1", sched, zero, _log(tmp_path, "ue-1"),
                                  UeCore("ue-1", [item]), edge)
        sched.at(0.0, ue.call, ue.core.start)
        sched.run()
        assert ue.exit_code == 2
        report = ue.core.report
        assert (report.delivered, report.failed, report.error) == ([], [2], None)
        events = read_events(tmp_path / "ue-1.log")
        assert [(ev, f.get("seq")) for _, _, ev, f in events] == [
            ("ue_send", "1"), ("ue_send", "2"), ("ue_retry", "2"), ("ue_unacked", "2"),
            ("ue_done", None)]
        assert events[0][0] == events[1][0] == 0.0          # at_s=0 leaves with the Hello
        assert events[-1][0] == pytest.approx(2 * ACK_TIMEOUT_S)

    def test_item_leaves_at_s_after_the_ue_starts(self, tmp_path):
        case = load_bundled_case("case9")
        store = FileStore(tmp_path / "store")
        prof = default_5g_sa_profile(seed=6)
        sched = virtualdemo.Scheduler()
        edge = virtualdemo.CoreNode("edge-R2", sched, prof, _log(tmp_path, "edge-R2"),
                                    EdgeCore("R2", case, store))
        item = UeScriptItem(at_s=0.5, kind="topology",
                            branches=({"id": 9, "status": "Open"},))
        ue = _Watched("ue-2", sched, prof, _log(tmp_path, "ue-2"), UeCore("ue-2", [item]),
                      edge)
        sched.at(0.0, ue.call, ue.core.start)
        sched.run()
        assert ue.exit_code == 0 and ue.core.report.delivered == [2]
        # the edge acks the report alone, not the Hello
        [(_, ack)] = ue.arrivals
        assert ack.msg_type == wire.MessageKind.ACK and ack.obj()["of"] == 2
        sent = [(ts, f["seq"]) for ts, _, ev, f in read_events(tmp_path / "ue-2.log")
                if ev == "ue_send"]
        assert sent == [(0.0, "1"), (0.5, "2")]

    def test_malformed_ack_is_logged_not_raised(self):
        core = UeCore("ue-1", [])
        core.start(0.0)
        [log] = core.handle(0.1, UPLINK, wire.make_envelope(wire.MessageKind.ACK, {}))
        assert (log.event, log.fields) == ("ue_reject", {"reason": "KeyError"})

    def test_a_malformed_ack_is_logged_while_a_report_is_pending(self):
        core = UeCore("ue-1", [UeScriptItem(at_s=0.0, kind="topology")])
        core.start(0.0)
        for payload, reason in (({}, "KeyError"), ({"of": "x"}, "ValueError")):
            [log] = core.handle(0.1, UPLINK, wire.make_envelope(wire.MessageKind.ACK, payload))
            assert (log.event, log.fields) == ("ue_reject", {"reason": reason})
        # the report stayed pending, so its Ack still ends the script
        assert core.handle(0.2, UPLINK, wire.ack(2))[-1].code == 0

    def test_an_edge_logs_a_ue_hello_and_sends_no_ack(self, tmp_path):
        edge = EdgeCore("R1", load_bundled_case("case9"), FileStore(tmp_path / "store"))
        [log] = edge.handle(0.0, "ue-link", wire.hello("ue-1", "ue", 1))
        assert (log.event, log.fields) == ("edge_recv", {"kind": "hello", "seq": 1,
                                                         "node": "ue-1"})


def _topology_result() -> bytes:
    return pipeline.monolithic_topology(load_bundled_case("case9"), {}, FAULT, CFG)[1]


def _hello_run(tmp_path, hellos, deadline_s=30.0):
    """Nodes run by hand: the cloud opens a run at 0.1 s, and each ``(t, region,
    node class)`` of ``hellos`` is an edge on its own link that says Hello at
    ``t``. A region's first edge logs as ``edge-<region>``, a later one as
    ``edge-<region>-2``. Returns the cloud, the edge nodes and the store."""
    case = load_bundled_case("case9")
    store = FileStore(tmp_path / "store")
    sched = virtualdemo.Scheduler()
    zero = zero_impairment_profile()
    cloud = virtualdemo.CoreNode("cloud", sched, zero, _log(tmp_path, "cloud"),
                                 CloudCore(case, store))
    sched.at(0.1, cloud.call, cloud.core.open_run, topo_manifest(deadline_s))
    edges, seen = [], Counter()
    for t, r, cls in hellos:
        seen[r] += 1
        name = f"edge-{r}" + (f"-{seen[r]}" if seen[r] > 1 else "")
        edge = cls(name, sched, zero, _log(tmp_path, name), EdgeCore(r, case, store), cloud)
        sched.at(t, edge.perform, edge.core.hello())
        edges.append(edge)
    sched.run()
    return cloud, edges, store


class TestCloudHello:
    def test_an_edge_that_says_hello_after_the_run_opens_gets_its_run_open(self, tmp_path):
        node = virtualdemo.CoreNode
        cloud, _, store = _hello_run(tmp_path, [(0.5, "R1", node), (1.5, "R2", node),
                                                (2.5, "R3", node)])
        assert cloud.exit_code == 0
        assert store.get(result_key(RID)) == _topology_result()
        # the run opened before any edge had said Hello
        assert [ev for ev, _ in _events(tmp_path, "cloud")][:2] == ["run_open", "hello"]
        for r in ("R1", "R2", "R3"):
            assert [ev for ev, _ in _events(tmp_path, f"edge-{r}")][:2] == \
                ["run_open_recv", "edge_compute_done"]

    def test_an_edge_restarted_during_the_barrier_gets_the_run_open_again(self, tmp_path):
        # R3's first link says Hello, takes the RunOpen and goes silent; R3
        # then says Hello on a new link before the barrier's deadline
        node = virtualdemo.CoreNode
        cloud, [*_, again], store = _hello_run(
            tmp_path, [(0.0, "R1", node), (0.0, "R2", node), (0.0, "R3", _Silent),
                       (0.5, "R3", node)], deadline_s=1.0)
        assert cloud.exit_code == 0
        assert store.get(result_key(RID)) == _topology_result()
        assert cloud.core.edges["R3"] is again
        assert [ev for ev, _ in _events(tmp_path, "edge-R3-2")][:2] == \
            ["run_open_recv", "edge_compute_done"]

    def test_a_hello_after_the_barrier_timeout_gets_no_run_open(self, tmp_path):
        node = virtualdemo.CoreNode
        cloud, [*_, late], store = _hello_run(
            tmp_path, [(0.0, "R1", node), (0.0, "R2", node), (3.0, "R3", _Watched)],
            deadline_s=1.0)
        assert cloud.exit_code == 3
        assert [ev for ev, _ in _events(tmp_path, "cloud")][-2:] == ["run_aborted", "hello"]
        assert late.arrivals == []
        assert not store.exists(upload_key(RID, "R3"))

    @pytest.mark.parametrize("hello", [{"role": "ue", "region": "R1"}, {"role": "edge"},
                                       {"role": "edge", "region": ""}])
    def test_a_hello_without_role_edge_and_a_region_is_refused(self, hello, tmp_path):
        cloud = CloudCore(load_bundled_case("case9"), FileStore(tmp_path / "store"))
        cloud.open_run(0.0, topo_manifest())
        [reply] = cloud.handle(0.1, "peer", wire.make_envelope(wire.MessageKind.HELLO, hello))
        assert isinstance(reply, Send) and reply.peer == "peer"
        assert reply.env.obj()["code"] == "bad_hello"
        assert cloud.edges == {}


class TestReports:
    def test_stage_rows_and_summary(self, tmp_path):
        case = load_bundled_case("case9")
        store = FileStore(tmp_path / "store")
        out = run_virtual_demo(case, topo_manifest(), store, tmp_path / "logs",
                               zero_impairment_profile(), SCRIPTS)
        report = emit_report(RID, store, out.log_paths)
        assert report.outcome == "Complete"
        stages = {r.stage for r in report.rows}
        assert {"ue_send", "edge_recv", "edge_compute_done", "store_put_done",
                "barrier_done", "sim_done", "result_recv"} <= stages
        assert sum(1 for r in report.rows if r.stage == "result_recv") == 3
        csv = report.csv()
        assert csv.splitlines()[0] == "run_id,stage,node,t_ms"
        assert "verdict:" in report.summary()

    def test_causal_order_per_chain(self, tmp_path):
        case = load_bundled_case("case9")
        store = FileStore(tmp_path / "store")
        out = run_virtual_demo(case, topo_manifest(), store, tmp_path / "logs",
                               zero_impairment_profile(), SCRIPTS)
        report = emit_report(RID, store, out.log_paths)

        def stage_ts(stage, agg):
            vals = [r.t_ms for r in report.rows if r.stage == stage]
            return agg(vals)

        assert stage_ts("edge_compute_done", min) <= stage_ts("store_put_done", min)
        assert stage_ts("store_put_done", max) <= stage_ts("barrier_done", min)
        assert stage_ts("barrier_done", max) <= stage_ts("sim_done", min)
        assert stage_ts("sim_done", max) <= stage_ts("result_recv", min)

    def test_unknown_run_raises(self, tmp_path):
        from gridmesh.reports import ReportError
        store = FileStore(tmp_path / "store")
        with pytest.raises(ReportError, match="not found"):
            emit_report("ff" * 16, store, [])

    def test_missing_logs_flagged_partial(self, tmp_path):
        case = load_bundled_case("case9")
        store = FileStore(tmp_path / "store")
        out = run_virtual_demo(case, topo_manifest(), store, tmp_path / "logs",
                               zero_impairment_profile(), SCRIPTS)
        edge_logs = [p for p in out.log_paths if "edge" in p.name]
        report = emit_report(RID, store, edge_logs)    # cloud log withheld
        assert report.partial
        assert "partial report" in report.summary()
