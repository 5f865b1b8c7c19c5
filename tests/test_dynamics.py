import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gridmesh.dynamics import (DynamicsError, NumericBlowupError, SecurityReport,
                               SimulationConfig, SimulationResult, SingularNetworkError,
                               SwitchTimeError, assess_run, kron_eliminate, kron_reduce,
                               reduce_network, simulate_batch, simulate_dynamics,
                               write_trajectory_csv)
from gridmesh.model import FaultSpec, Generator, load_bundled_case
from gridmesh.powerflow import PowerFlowError, initialize_machines, solve_power_flow
from gridmesh.sampling import ForecastSpec, apply_scenario, draw_samples
from gridmesh.ybus import build_ybus

from helpers import perturb_machine, random_connected_case, reference_simulate, smib_case

WS = 2 * math.pi * 60.0


def solved(case):
    sol = solve_power_flow(case)
    return initialize_machines(case, sol), sol


def no_switch_fault(bus=2):
    return FaultSpec(faulted_bus=bus, t_fault=1e6, t_clear=2e6)


class TestKron:
    def test_no_elimination_returns_kept_block(self):
        y = np.array([[1 - 2j, 0.5j], [0.5j, 2 - 1j]])
        out = kron_eliminate(y, np.array([0, 1]))
        assert np.array_equal(out, y)

    def test_two_node_hand_algebra(self):
        # oracle: Y_red = Y11 - Y12*Y21/Y22
        y11, y12, y21, y22 = 1 - 5j, 0.2 + 2j, 0.2 + 2j, 3 - 4j
        y = np.array([[y11, y12], [y21, y22]])
        out = kron_eliminate(y, np.array([0]))
        assert out[0, 0] == pytest.approx(y11 - y12 * y21 / y22, abs=1e-15)

    def test_isolated_zero_bus_singular(self):
        y = np.array([[1 - 5j, 0j], [0j, 0j]])
        with pytest.raises(SingularNetworkError):
            kron_eliminate(y, np.array([0]))

    def test_reduction_preserves_injection_equivalence(self):
        # eliminate half the nodes of a random symmetric matrix; check the
        # defining property: same source currents for matching source voltages
        rng = np.random.default_rng(5)
        n = 6
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        y = a + a.T - 1j * np.eye(n) * 8
        keep = np.array([0, 1, 2])
        y_red = kron_eliminate(y, keep)
        vk = rng.normal(size=3) + 1j * rng.normal(size=3)
        # solve for eliminated node voltages with zero injections there
        ve = np.linalg.solve(y[3:, 3:], -y[3:, :3] @ vk)
        i_full = (y @ np.concatenate([vk, ve]))[:3]
        i_red = y_red @ vk
        assert np.max(np.abs(i_full - i_red)) < 1e-9

    def test_kron_reduce_dimension_is_machine_count(self):
        case = load_bundled_case("case9")
        mcase, sol = solved(case)
        out = kron_reduce(build_ybus(case).to_dense(), mcase, sol)
        assert out.shape == (3, 3)
        assert np.all(np.isfinite(out))


class TestSimulate:
    def test_equilibrium_holds_five_seconds(self):
        mcase, sol = solved(load_bundled_case("case9"))
        fault = no_switch_fault(bus=7)
        net = reduce_network(mcase, sol, fault, build_ybus(mcase))
        cfg = SimulationConfig(t_end=5.0, dt=0.005, omega_s=WS)
        res = simulate_dynamics(mcase, net, fault, cfg)
        assert res.verdict == "Stable"
        assert np.max(np.abs(res.delta - res.delta[:, :1])) < 1e-6

    def test_smib_oscillation_frequency_matches_linearization(self):
        # oracle: wn = sqrt(ws * Pmax * cos(delta0) / (2H)) for the classical model
        h, x_line, xd_p = 3.0, 0.4, 0.3
        mcase, sol = solved(smib_case(p_mech=0.8, x_line=x_line, xd_p=xd_p, h=h))
        g_inf, g_m = mcase.generators
        pmax = g_inf.e_mag * g_m.e_mag / (xd_p + x_line + 1e-6)
        d0 = g_m.delta0 - g_inf.delta0
        wn = math.sqrt(WS * pmax * math.cos(d0) / (2 * h))

        pert = perturb_machine(mcase, 1, 0.02)
        fault = no_switch_fault()
        net = reduce_network(pert, sol, fault, build_ybus(pert))
        res = simulate_dynamics(pert, net, fault,
                                SimulationConfig(t_end=5.0, dt=0.005, omega_s=WS))
        rel = res.delta[1] - res.delta[0]
        x = rel - rel.mean()
        ups = []
        for i in range(len(x) - 1):
            if x[i] <= 0 < x[i + 1]:
                t0, t1 = res.times[i], res.times[i + 1]
                ups.append(t0 + (t1 - t0) * (-x[i]) / (x[i + 1] - x[i]))
        periods = np.diff(ups)
        measured = 2 * math.pi / periods.mean()
        assert abs(measured - wn) / wn < 0.02

    def test_sustained_terminal_fault_unstable(self):
        # equal-area: a bolted machine-terminal fault leaves no decelerating area
        mcase, sol = solved(smib_case())
        fault = FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=1e6)
        net = reduce_network(mcase, sol, fault, build_ybus(mcase))
        res = simulate_dynamics(mcase, net, fault,
                                SimulationConfig(t_end=3.0, dt=0.005, omega_s=WS))
        assert res.verdict == "Unstable"
        assert res.t_unstable is not None and res.t_unstable < 2.0

    def test_energy_conserved_lossless_smib(self):
        # E(delta, dw) = H*(ws*dw)^2/ws - Pm*d12 - Pmax*cos(d12) is a first integral
        h, x_line, xd_p = 3.0, 0.4, 0.3
        mcase, sol = solved(smib_case(p_mech=0.8, x_line=x_line, xd_p=xd_p, h=h, d=0.0))
        g_inf, g_m = mcase.generators
        pmax = g_inf.e_mag * g_m.e_mag / (xd_p + x_line + 1e-6)
        pert = perturb_machine(mcase, 1, 0.1)
        fault = no_switch_fault()
        net = reduce_network(pert, sol, fault, build_ybus(pert))
        res = simulate_dynamics(pert, net, fault,
                                SimulationConfig(t_end=5.0, dt=0.005, omega_s=WS))
        d12 = res.delta[1] - res.delta[0]
        w = WS * res.omega_dev[1]
        energy = 0.5 * (2 * h / WS) * w ** 2 - g_m.p_mech * d12 - pmax * np.cos(d12)
        swing = energy.max() - energy.min()
        assert swing / abs(energy.mean()) < 1e-3

    def test_step_halving_fourth_order(self):
        mcase, sol = solved(smib_case())
        pert = perturb_machine(mcase, 1, 0.1)
        fault = no_switch_fault()
        net = reduce_network(pert, sol, fault, build_ybus(pert))

        def final_angle(dt):
            cfg = SimulationConfig(t_end=1.0, dt=dt, omega_s=WS)
            return simulate_dynamics(pert, net, fault, cfg).delta[1][-1]

        ref = final_angle(0.00125)
        err_coarse = abs(final_angle(0.01) - ref)
        err_fine = abs(final_angle(0.005) - ref)
        assert err_coarse / err_fine >= 8.0

    def test_clearing_time_monotonicity(self):
        mcase, sol = solved(smib_case())
        cfg = SimulationConfig(t_end=3.0, dt=0.005, omega_s=WS)
        verdicts = []
        for k in range(1, 11):
            t_clear = 0.1 + 0.05 * k
            fault = FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=t_clear)
            net = reduce_network(mcase, sol, fault, build_ybus(mcase))
            res = simulate_dynamics(mcase, net, fault, cfg)
            verdicts.append(res.verdict)
        # once unstable, later clearings stay unstable
        first_bad = verdicts.index("Unstable") if "Unstable" in verdicts else len(verdicts)
        assert all(v == "Stable" for v in verdicts[:first_bad])
        assert all(v == "Unstable" for v in verdicts[first_bad:])
        assert 0 < first_bad < len(verdicts)   # the sweep actually brackets the boundary

    def test_determinism_bitwise(self):
        mcase, sol = solved(load_bundled_case("case9"))
        fault = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3, cleared_branch=6)
        net = reduce_network(mcase, sol, fault, build_ybus(mcase))
        cfg = SimulationConfig(t_end=2.0, dt=0.005, omega_s=WS)
        a = simulate_dynamics(mcase, net, fault, cfg)
        b = simulate_dynamics(mcase, net, fault, cfg)
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.omega_dev, b.omega_dev)
        assert a.verdict == b.verdict and a.t_unstable == b.t_unstable

    def test_switch_times_must_sit_on_grid(self):
        mcase, sol = solved(smib_case())
        fault = FaultSpec(faulted_bus=2, t_fault=0.1003, t_clear=0.3)
        net = reduce_network(mcase, sol, fault, build_ybus(mcase))
        with pytest.raises(SwitchTimeError):
            simulate_dynamics(mcase, net, fault,
                              SimulationConfig(t_end=1.0, dt=0.005, omega_s=WS))

    def test_trajectories_decimated(self):
        mcase, sol = solved(smib_case())
        fault = no_switch_fault()
        net = reduce_network(mcase, sol, fault, build_ybus(mcase))
        cfg = SimulationConfig(t_end=30.0, dt=0.005, omega_s=WS)   # 6001 raw steps
        res = simulate_dynamics(mcase, net, fault, cfg)
        assert len(res.times) <= 5000
        assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(30.0)

    def test_config_validation(self):
        with pytest.raises(DynamicsError):
            SimulationConfig(t_end=1.0, dt=0.5)
        with pytest.raises(DynamicsError):
            SimulationConfig(t_end=-1.0)


def prepared(case, scenarios, fault):
    """Each scenario's initialized machines and reduced network, as the cloud
    builds them before it integrates."""
    y = build_ybus(case)
    cases, nets = [], []
    for s in scenarios:
        scase = apply_scenario(case, s)
        sol = solve_power_flow(scase, y=y)
        mcase = initialize_machines(scase, sol)
        cases.append(mcase)
        nets.append(reduce_network(mcase, sol, fault, y))
    return cases, nets


def case9_batch(n):
    case = load_bundled_case("case9")
    fault = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.27, cleared_branch=6)
    samples = draw_samples(ForecastSpec(n_dims=len(case.load_bus_ids()), sigma=0.05), n, 3)
    return (*prepared(case, samples, fault), fault)


def with_inertia(case, machine, h):
    gens = list(case.generators)
    gens[machine] = replace(gens[machine], h=h)
    return replace(case, generators=tuple(gens))


def with_machines(case, rng):
    """The random case's slack machine plus one machine on every PV bus."""
    extra = [Generator(id=i + 2, bus=b.id, h=rng.uniform(2, 8), d=rng.uniform(0, 2),
                       xd_p=rng.uniform(0.1, 0.4), p_mech=rng.uniform(0, 0.5))
             for i, b in enumerate(b for b in case.buses if b.kind == "PV")]
    return replace(case, generators=case.generators + tuple(extra))


def assert_same_trajectory(got, want):
    assert got.to_payload() == want.to_payload()
    assert got.delta.tobytes() == want.delta.tobytes()
    assert got.omega_dev.tobytes() == want.omega_dev.tobytes()


class TestBatch:
    CFG = SimulationConfig(t_end=3.0, dt=0.005, omega_s=WS)

    def test_case9_scenarios_equal_one_at_a_time(self):
        cases, nets, fault = case9_batch(12)
        batched = simulate_batch(cases, nets, fault, self.CFG)
        assert {r.verdict for r in batched} == {"Stable", "Unstable"}
        for c, net, got in zip(cases, nets, batched):
            assert_same_trajectory(got, reference_simulate(c, net, fault, self.CFG))

    def test_decimated_batch_equals_one_at_a_time(self):
        # 5001 steps: stride 2, and the last step is appended to the samples
        mcase, sol = solved(smib_case())
        fault = FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=0.2)
        cfg = SimulationConfig(t_end=100.02, dt=0.02, omega_s=WS)
        cases = [mcase, perturb_machine(mcase, 1, 0.1)]
        nets = [reduce_network(c, sol, fault, build_ybus(c)) for c in cases]
        batched = simulate_batch(cases, nets, fault, cfg)
        assert len(batched[0].times) == 2502 and batched[0].times[-1] == 5001 * 0.02
        for c, net, got in zip(cases, nets, batched):
            assert_same_trajectory(got, reference_simulate(c, net, fault, cfg))

    def test_empty_batch_and_mismatched_lengths(self):
        cases, nets, fault = case9_batch(2)
        assert simulate_batch([], [], fault, self.CFG) == []
        with pytest.raises(DynamicsError):
            simulate_batch(cases, nets[:1], fault, self.CFG)

    def test_machine_counts_must_agree(self):
        cases, nets, fault = case9_batch(1)
        mcase, sol = solved(smib_case())
        smib_fault = FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=0.27)
        smib_net = reduce_network(mcase, sol, smib_fault, build_ybus(mcase))
        with pytest.raises(DynamicsError):
            simulate_batch([cases[0], mcase], [nets[0], smib_net], smib_fault, self.CFG)

    def test_blowup_names_the_scenario_at_its_own_time(self):
        cases, nets, fault = case9_batch(4)
        cases[2] = with_inertia(cases[2], 1, 1e-308)
        with pytest.raises(NumericBlowupError) as alone:
            simulate_dynamics(cases[2], nets[2], fault, self.CFG)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericBlowupError) as batched:
                simulate_batch(cases, nets, fault, self.CFG)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert batched.value.t == alone.value.t
        assert str(batched.value).startswith("scenario 2: ")

    def test_lowest_blown_scenario_wins_even_when_later(self):
        cases, nets, fault = case9_batch(4)
        cases[1] = with_inertia(cases[1], 1, 1e-306)
        cases[3] = with_inertia(cases[3], 1, 1e-308)
        times = []
        for s in (1, 3):
            with pytest.raises(NumericBlowupError) as alone:
                simulate_dynamics(cases[s], nets[s], fault, self.CFG)
            times.append(alone.value.t)
        assert times[0] > times[1]            # scenario 3 blows up first
        with pytest.raises(NumericBlowupError) as batched:
            simulate_batch(cases, nets, fault, self.CFG)
        assert batched.value.t == times[0]
        assert str(batched.value).startswith("scenario 1: ")

    @given(seed=st.integers(0, 2**32 - 1),
           picks=st.lists(st.integers(0, 7), min_size=1, max_size=6, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_batched_equals_one_at_a_time(self, seed, picks):
        rng = random.Random(seed)
        case = with_machines(random_connected_case(rng, rng.randint(4, 10), 1), rng)
        assume(case.load_bus_ids())
        samples = draw_samples(ForecastSpec(n_dims=len(case.load_bus_ids()), sigma=0.4),
                               8, seed)
        fault = FaultSpec(faulted_bus=rng.choice(case.buses).id, t_fault=0.1,
                          t_clear=round(0.1 + 0.01 * rng.randint(1, 20), 6))
        cfg = SimulationConfig(t_end=1.0, dt=0.01, omega_s=WS,
                               angle_threshold=rng.uniform(0.05, 3.2))
        try:
            cases, nets = prepared(case, [samples[i] for i in picks], fault)
        except (PowerFlowError, DynamicsError):
            assume(False)
        batched = simulate_batch(cases, nets, fault, cfg)
        assert len(batched) == len(picks)
        for c, net, got in zip(cases, nets, batched):
            assert_same_trajectory(got, reference_simulate(c, net, fault, cfg))


class TestAssessAndExport:
    def _result(self, verdict, t=None):
        return SimulationResult(times=np.array([0.0]), delta=np.zeros((1, 1)),
                                omega_dev=np.zeros((1, 1)), verdict=verdict,
                                t_unstable=t)

    def test_all_stable(self):
        rep = assess_run([(0.5, self._result("Stable")), (0.5, self._result("Stable"))])
        assert rep.insecurity_probability == 0.0

    def test_all_unstable(self):
        rep = assess_run([(0.3, self._result("Unstable", 0.1)),
                          (0.7, self._result("Unstable", 0.2))])
        assert rep.insecurity_probability == 1.0

    def test_weighted_mix(self):
        rep = assess_run([(0.7, self._result("Stable")),
                          (0.3, self._result("Unstable", 0.5))])
        assert rep.insecurity_probability == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(DynamicsError):
            assess_run([])

    def test_negative_weight_rejected(self):
        with pytest.raises(DynamicsError):
            assess_run([(-0.1, self._result("Stable"))])

    def test_report_payload_roundtrip(self):
        rep = assess_run([(0.7, self._result("Stable")),
                          (0.3, self._result("Unstable", 0.5))], scenario_ids=[4, 9])
        again = SecurityReport.from_payload(rep.to_payload())
        assert again.insecurity_probability == rep.insecurity_probability
        assert again.rows == rep.rows

    def test_trajectory_csv_layout(self, tmp_path):
        mcase, sol = solved(smib_case())
        fault = FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=1e6)
        net = reduce_network(mcase, sol, fault, build_ybus(mcase))
        res = simulate_dynamics(mcase, net, fault,
                                SimulationConfig(t_end=1.0, dt=0.005, omega_s=WS))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,delta_1,delta_2,omega_dev_1,omega_dev_2"
        assert len(lines) == len(res.times) + 2
        assert lines[-1].startswith("verdict,Unstable,")
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and len(first) == 5

    def test_result_payload_roundtrip(self):
        mcase, sol = solved(smib_case())
        fault = no_switch_fault()
        net = reduce_network(mcase, sol, fault, build_ybus(mcase))
        res = simulate_dynamics(mcase, net, fault,
                                SimulationConfig(t_end=1.0, dt=0.005, omega_s=WS))
        again = SimulationResult.from_payload(res.to_payload())
        assert np.array_equal(again.delta, res.delta)
        assert np.array_equal(again.times, res.times)
        assert again.verdict == res.verdict
