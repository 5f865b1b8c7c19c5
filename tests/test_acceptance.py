"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success). Criteria 8-10 drive the real multi-process demos through the CLI.
"""

import contextlib
import math
import os
import random
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import gridmesh.wire as wire
from gridmesh import pipeline
from gridmesh.dynamics import SimulationConfig, simulate_batch
from gridmesh.linkem import LinkEmulator, UP, default_5g_sa_profile, \
    zero_impairment_profile
from gridmesh.model import Bus, FaultSpec, GridCase, load_bundled_case
from gridmesh.nodes import CloudNode, EdgeNode
from gridmesh.powerflow import PowerFlowDivergedError, solve_power_flow
from gridmesh.store import AlreadyExistsError, FileStore, result_key, upload_key
from gridmesh.wire import StreamDecoder, decode, encode
from gridmesh.ybus import build_partials, build_ybus, merge_partials

from helpers import initialized, perturb_machine, random_connected_case, reduced, smib_case

WS = 2 * math.pi * 60.0
SRC = Path(__file__).resolve().parent.parent / "src"


@contextlib.contextmanager
def criterion(num: int, title: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS: {title} ({time.perf_counter() - t0:.2f}s)")


def test_01_merge_equivalence_bitwise():
    with criterion(1, "merge of random partitions equals whole build, bitwise, <10s"):
        t0 = time.perf_counter()
        rng = random.Random(20260810)
        for _ in range(100):
            case = random_connected_case(rng, rng.randint(5, 30), rng.randint(1, 5))
            y = build_ybus(case)
            merged = merge_partials(case, build_partials(case))
            assert merged.to_dense().tobytes() == y.to_dense().tobytes()
        assert time.perf_counter() - t0 < 10.0


def test_02_dynamics_equilibrium():
    with criterion(2, "nine-bus equilibrium drift < 1e-6 rad over 5s, <5s runtime"):
        t0 = time.perf_counter()
        case = load_bundled_case("case9")
        machines, sol = initialized(case)
        fault = FaultSpec(faulted_bus=7, t_fault=1e6, t_clear=2e6)
        res = simulate_batch(machines, reduced(case, sol, fault), fault,
                             SimulationConfig(t_end=5.0, dt=0.005, omega_s=WS))[0]
        assert res.verdict == "Stable"
        assert np.max(np.abs(res.delta - res.delta[:, :1])) < 1e-6
        assert time.perf_counter() - t0 < 5.0


def test_03_smib_oscillation_frequency():
    with criterion(3, "SMIB frequency within 2% of the analytic linearization, <5s"):
        t0 = time.perf_counter()
        h, x_line, xd_p = 3.0, 0.4, 0.3
        case = smib_case(p_mech=0.8, x_line=x_line, xd_p=xd_p, h=h)
        machines, sol = initialized(case)
        (e_inf, e_m), (d_inf, d_m) = machines.e_mag[0], machines.delta0[0]
        pmax = e_inf * e_m / (xd_p + x_line + 1e-6)
        wn = math.sqrt(WS * pmax * math.cos(d_m - d_inf) / (2 * h))

        pert = perturb_machine(machines, 1, 0.02)
        fault = FaultSpec(faulted_bus=2, t_fault=1e6, t_clear=2e6)
        res = simulate_batch(pert, reduced(case, sol, fault), fault,
                             SimulationConfig(t_end=5.0, dt=0.005, omega_s=WS))[0]
        rel = res.delta[1] - res.delta[0]
        x = rel - rel.mean()
        ups = [res.times[i] + (res.times[i + 1] - res.times[i]) * (-x[i]) / (x[i + 1] - x[i])
               for i in range(len(x) - 1) if x[i] <= 0 < x[i + 1]]
        measured = 2 * math.pi / np.diff(ups).mean()
        assert abs(measured - wn) / wn < 0.02
        assert time.perf_counter() - t0 < 5.0


def test_04_instability_detection_and_monotonicity():
    with criterion(4, "sustained SMIB fault unstable within 2s; clearing sweep monotone"):
        case = smib_case()
        machines, sol = initialized(case)
        cfg = SimulationConfig(t_end=3.0, dt=0.005, omega_s=WS)

        sustained = FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=1e6)
        res = simulate_batch(machines, reduced(case, sol, sustained), sustained, cfg)[0]
        assert res.verdict == "Unstable" and res.t_unstable <= 2.0

        verdicts = []
        for k in range(1, 11):
            fault = FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=0.1 + 0.05 * k)
            verdicts.append(simulate_batch(machines, reduced(case, sol, fault), fault,
                                           cfg)[0].verdict)
        boundary = verdicts.index("Unstable") if "Unstable" in verdicts else len(verdicts)
        assert all(v == "Stable" for v in verdicts[:boundary])
        assert all(v == "Unstable" for v in verdicts[boundary:])
        assert 0 < boundary < 10      # if t1 < t2 and t2 stable then t1 stable


def test_05_power_flow_roundtrip_and_divergence():
    with criterion(5, "50 random solved states recovered within 1e-6; infeasible diverges"):
        rng = random.Random(31)
        for _ in range(50):
            case = random_connected_case(rng, rng.randint(4, 14), 1)
            case = GridCase(buses=case.buses, branches=case.branches, generators=())
            y = build_ybus(case)
            n = case.n
            vm = 1.0 + 0.03 * np.array([rng.uniform(-1, 1) for _ in range(n)])
            va = 0.05 * np.array([rng.uniform(-1, 1) for _ in range(n)])
            vm[0], va[0] = case.buses[0].v_mag, case.buses[0].v_ang
            v = vm * np.exp(1j * va)
            s = v * np.conj(y.to_dense() @ v)
            buses = [case.buses[0]] + [
                Bus(id=b.id, kind="PQ", v_mag=1.0, v_ang=0.0,
                    p_load=-s[i].real, q_load=-s[i].imag,
                    shunt_g=b.shunt_g, shunt_b=b.shunt_b, owner_region=b.owner_region)
                for i, b in enumerate(case.buses) if i > 0]
            seeded = GridCase(buses=tuple(buses), branches=case.branches, generators=())
            sol = solve_power_flow(build_ybus(seeded), tol=1e-10)
            assert np.max(np.abs(sol.v_mag - vm)) < 1e-6
            assert np.max(np.abs(sol.v_ang - va)) < 1e-6

        infeasible = GridCase(
            buses=(Bus(id=1, kind="Slack"), Bus(id=2, kind="PQ", p_load=250.0)),
            branches=(case.branches[0].__class__(id=1, from_bus=1, to_bus=2,
                                                 r=0.0, x=0.1),),
            generators=())
        with pytest.raises(PowerFlowDivergedError):
            solve_power_flow(build_ybus(infeasible))


GOLDEN_ACK_HEX = "474d0204000102030405060708090a0b0c0d0e0f000000027b7df6c654f4"


def test_06_protocol_golden_fuzz_reassembly():
    with criterion(6, "golden frame exact; 1e4 fuzz inputs never crash; split reads"):
        env = wire.Envelope(msg_type=wire.MessageKind.ACK, payload=b"{}",
                            run_id=bytes(range(16)))
        assert encode(env).hex() == GOLDEN_ACK_HEX
        assert decode(bytes.fromhex(GOLDEN_ACK_HEX)) == env

        rng = random.Random(6)
        for _ in range(10_000):
            junk = rng.randbytes(rng.randint(0, 2048))
            try:
                decode(junk)
            except wire.ProtocolError:
                pass

        frames = b"".join(
            encode(wire.make_envelope(wire.MessageKind.ACK, {"of": i}))
            for i in range(5))
        whole = StreamDecoder().feed(frames)
        for cut in range(len(frames) + 1):
            dec = StreamDecoder()
            assert dec.feed(frames[:cut]) + dec.feed(frames[cut:]) == whole


def test_07_link_calibration():
    with criterion(7, "delay support [7.5,18.5]ms over 1e4 frames; 10MB uplink "
                      "serialization 1.526s within 1%"):
        t0 = time.perf_counter()
        em = LinkEmulator(default_5g_sa_profile(seed=77))
        delays = np.empty(10_000)
        for i in range(10_000):
            delays[i] = em.schedule_frame_ex(1, UP, now=float(i)).delay_ms
        assert delays.min() >= 7.5 and delays.max() <= 18.5

        big = LinkEmulator(default_5g_sa_profile(seed=1))
        sched = big.schedule_frame_ex(10_000_000, UP, now=0.0)
        expected = 8e7 / 52.43e6
        assert abs(sched.serialization_s - expected) / expected < 0.01
        assert expected == pytest.approx(1.526, abs=1e-3)
        assert time.perf_counter() - t0 < 10.0


def _run_demo(args, timeout):
    """``python -m gridmesh demo`` with this checkout's ``src`` on the path, so a
    bare ``pytest`` finds the package without installing it."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "gridmesh", "demo", *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path))


def test_08_use_case_one_end_to_end(tmp_path):
    with criterion(8, "topology demo: completes on 5G profile; zero-impairment run "
                      "bitwise-equal to monolithic; <60s"):
        t0 = time.perf_counter()
        five_g = _run_demo(["topology", "--out-dir", str(tmp_path / "g")], timeout=120)
        assert five_g.returncode == 0, five_g.stdout + five_g.stderr
        assert "Complete" in five_g.stdout
        # the demo waits for each edge to read its unacked RunResult
        stages = (tmp_path / "g" / "report.csv").read_text().splitlines()
        assert sorted(row.split(",")[2] for row in stages if ",result_recv," in row) == \
            ["edge-R1", "edge-R2", "edge-R3"]

        zero = _run_demo(["topology", "--profile", "zero",
                          "--out-dir", str(tmp_path / "z")], timeout=120)
        assert zero.returncode == 0, zero.stdout + zero.stderr
        run_id = re.search(r"run ([0-9a-f]{32})", zero.stdout).group(1)
        store = FileStore(tmp_path / "z" / "store")
        blob = store.get(result_key(run_id))
        case = load_bundled_case("case9")
        cfg = SimulationConfig(t_end=3.0, dt=0.005, omega_s=WS)
        fault = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3, cleared_branch=6)
        _, expected = pipeline.monolithic_topology(case, {9: "Open"}, fault, cfg)
        assert blob == expected
        assert "monolithic equivalence: PASS (bitwise)" in zero.stdout
        assert time.perf_counter() - t0 < 60.0


def test_09_use_case_two_end_to_end(tmp_path):
    with criterion(9, "DSA demo: bitwise the monolithic result; representative "
                      "probability within 0.10 of the brute force over 200 joint "
                      "draws; <3min"):
        t0 = time.perf_counter()
        proc = _run_demo(["dsa", "--out-dir", str(tmp_path / "d"), "--profile", "zero"],
                         timeout=170)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "monolithic equivalence: PASS (bitwise)" in proc.stdout
        run_id = re.search(r"run ([0-9a-f]{32})", proc.stdout).group(1)
        store = FileStore(tmp_path / "d" / "store")
        report = pipeline.parse_dsa_result(store.get(result_key(run_id)))
        p_rep = report.insecurity_probability

        # brute-force oracle over raw draw i of each of case9's three regions,
        # recomputed by the harness
        from gridmesh.cli import DEMO_FAULT
        cfg = SimulationConfig(t_end=3.0, dt=0.005, omega_s=WS)
        p_brute = pipeline.dsa_bruteforce_probability(
            load_bundled_case("case9"), {}, pipeline.DsaParams(n_raw=200, k=10, seed=42),
            DEMO_FAULT["dsa"], cfg)
        assert 0.0 < p_brute < 1.0          # the fault is genuinely marginal
        assert abs(p_rep - p_brute) <= 0.10
        assert time.perf_counter() - t0 < 180.0


def test_10_barrier_robustness(tmp_path):
    with criterion(10, "withheld region: exit 3 and the error names exactly it; "
                       "an upload completes the run with no frame, and a second "
                       "put of it is refused"):
        proc = _run_demo(["topology", "--profile", "zero", "--withhold-region", "R3",
                          "--deadline-s", "1", "--out-dir", str(tmp_path / "w")],
                         timeout=120)
        assert proc.returncode == 3, proc.stdout + proc.stderr
        cloud_log = (tmp_path / "w" / "logs" / "cloud.log").read_text()
        aborted = [l for l in cloud_log.splitlines() if "run_aborted" in l]
        assert len(aborted) == 1 and "missing=R3" in aborted[0]
        edge_logs = "".join(p.read_text()
                            for p in (tmp_path / "w" / "logs").glob("edge-*.log"))
        assert "barrier_timeout" in edge_logs
        assert "missing_regions:_R3" in edge_logs and "R1" not in \
            [l.split("missing_regions:_")[1] for l in edge_logs.splitlines()
             if "missing_regions:_" in l][0]

        # a hand-rolled R3 says only Hello: its stored upload alone completes
        # the run, and a second put to its key is refused, so the first wins
        case = load_bundled_case("case9")
        store = FileStore(tmp_path / "dup" / "store")
        zero = zero_impairment_profile()
        cloud = CloudNode(case, store, profile=zero)
        cloud_addr = cloud.start()
        edges = [EdgeNode(r, case, store, cloud_addr, profile=zero)
                 for r in ("R1", "R2")]
        for e in edges:
            e.start()
        m = pipeline.RunManifest(
            run_id=pipeline.new_run_id(), expected_regions=("R1", "R2", "R3"),
            mode="Topology",
            fault=FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3, cleared_branch=6),
            sim_cfg=SimulationConfig(t_end=2.0, dt=0.005, omega_s=WS),
            deadline_s=15.0)
        sock = socket.create_connection(cloud_addr)
        inbox = []

        def r3_reader():
            # keep every frame and answer none: RunResult is unacked
            decoder = StreamDecoder()
            while data := sock.recv(65536):
                inbox.extend(decoder.feed(data))

        reader = threading.Thread(target=r3_reader, daemon=True)
        reader.start()
        sock.sendall(encode(wire.hello("edge-R3", "edge", 1, region="R3")))
        deadline = time.time() + 5
        while time.time() < deadline and len(cloud.edges) < 3:
            time.sleep(0.01)
        key = upload_key(m.run_id, "R3")
        store.put(key, pipeline.edge_topology_blob(case, "R3"))
        code = cloud.execute_run(m)
        time.sleep(0.2)
        for e in edges:
            e.close()
        cloud.close()
        reader.join(timeout=5)          # the cloud hung up, so the reader ends
        sock.close()
        assert code == 0
        assert [e.msg_type for e in inbox] == [wire.MessageKind.RUN_OPEN,
                                               wire.MessageKind.RUN_RESULT]
        with pytest.raises(AlreadyExistsError):
            store.put(key, b"second")
        _, expected = pipeline.monolithic_topology(
            case, {}, m.fault, m.sim_cfg)
        assert store.get(result_key(m.run_id)) == expected
