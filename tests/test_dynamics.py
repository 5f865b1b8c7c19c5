import math
import random
import tracemalloc
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gridmesh import dynamics
from gridmesh.dynamics import (DynamicsError, NumericBlowupError, ReducedNetwork,
                               SecurityReport, SimulationConfig, SimulationResult,
                               SingularNetworkError, SwitchTimeError, assess_run, chunk_rows,
                               kron_eliminate, kron_reduce, prepare_batch, simulate_batch,
                               write_trajectory_csv)
from gridmesh.model import (Branch, Bus, CaseError, FaultSpec, Generator, GridCase,
                            load_bundled_case)
from gridmesh.powerflow import (Loads, Machines, PowerFlowDivergedError, PowerFlowError,
                                SingularJacobianError, solve_batch)
from gridmesh.sampling import ForecastSpec, draw_samples, scenario_loads
from gridmesh.ybus import YMatrix, build_ybus

import helpers
from helpers import (initialized, perturb_machine, random_connected_case, reduced,
                     reference_apply_scenario, reference_first_error, reference_newton_raphson,
                     reference_prepare, reference_simulate, smib_case)

WS = 2 * math.pi * 60.0


def simulate(machines, net, fault, cfg):
    """The one scenario of ``machines`` and ``net``, integrated."""
    return simulate_batch(machines, net, fault, cfg)[0]


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
        _, sol = initialized(case)
        out = kron_reduce(build_ybus(case).to_dense(), case, sol, Loads.of_case(case))
        assert out.shape == (1, 3, 3)
        assert np.all(np.isfinite(out))


class TestSimulate:
    def test_equilibrium_holds_five_seconds(self):
        case = load_bundled_case("case9")
        machines, sol = initialized(case)
        fault = no_switch_fault(bus=7)
        net = reduced(case, sol, fault)
        cfg = SimulationConfig(t_end=5.0, dt=0.005, omega_s=WS)
        res = simulate(machines, net, fault, cfg)
        assert res.verdict == "Stable"
        assert np.max(np.abs(res.delta - res.delta[:, :1])) < 1e-6

    def test_smib_oscillation_frequency_matches_linearization(self):
        # oracle: wn = sqrt(ws * Pmax * cos(delta0) / (2H)) for the classical model
        h, x_line, xd_p = 3.0, 0.4, 0.3
        case = smib_case(p_mech=0.8, x_line=x_line, xd_p=xd_p, h=h)
        machines, sol = initialized(case)
        (e_inf, e_m), (d_inf, d_m) = machines.e_mag[0], machines.delta0[0]
        pmax = e_inf * e_m / (xd_p + x_line + 1e-6)
        d0 = d_m - d_inf
        wn = math.sqrt(WS * pmax * math.cos(d0) / (2 * h))

        pert = perturb_machine(machines, 1, 0.02)
        fault = no_switch_fault()
        net = reduced(case, sol, fault)
        res = simulate(pert, net, fault, SimulationConfig(t_end=5.0, dt=0.005, omega_s=WS))
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
        case = smib_case()
        machines, sol = initialized(case)
        fault = FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=1e6)
        net = reduced(case, sol, fault)
        res = simulate(machines, net, fault, SimulationConfig(t_end=3.0, dt=0.005, omega_s=WS))
        assert res.verdict == "Unstable"
        assert res.t_unstable is not None and res.t_unstable < 2.0

    def test_energy_conserved_lossless_smib(self):
        # E(delta, dw) = H*(ws*dw)^2/ws - Pm*d12 - Pmax*cos(d12) is a first integral
        h, x_line, xd_p = 3.0, 0.4, 0.3
        case = smib_case(p_mech=0.8, x_line=x_line, xd_p=xd_p, h=h, d=0.0)
        machines, sol = initialized(case)
        e_inf, e_m = machines.e_mag[0]
        pmax = e_inf * e_m / (xd_p + x_line + 1e-6)
        pert = perturb_machine(machines, 1, 0.1)
        fault = no_switch_fault()
        net = reduced(case, sol, fault)
        res = simulate(pert, net, fault, SimulationConfig(t_end=5.0, dt=0.005, omega_s=WS))
        d12 = res.delta[1] - res.delta[0]
        w = WS * res.omega_dev[1]
        energy = 0.5 * (2 * h / WS) * w ** 2 - machines.p_mech[0, 1] * d12 - pmax * np.cos(d12)
        swing = energy.max() - energy.min()
        assert swing / abs(energy.mean()) < 1e-3

    def test_step_halving_fourth_order(self):
        case = smib_case()
        machines, sol = initialized(case)
        pert = perturb_machine(machines, 1, 0.1)
        fault = no_switch_fault()
        net = reduced(case, sol, fault)

        def final_angle(dt):
            cfg = SimulationConfig(t_end=1.0, dt=dt, omega_s=WS)
            return simulate(pert, net, fault, cfg).delta[1][-1]

        ref = final_angle(0.00125)
        err_coarse = abs(final_angle(0.01) - ref)
        err_fine = abs(final_angle(0.005) - ref)
        assert err_coarse / err_fine >= 8.0

    def test_clearing_time_monotonicity(self):
        case = smib_case()
        machines, sol = initialized(case)
        cfg = SimulationConfig(t_end=3.0, dt=0.005, omega_s=WS)
        verdicts = []
        for k in range(1, 11):
            t_clear = 0.1 + 0.05 * k
            fault = FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=t_clear)
            net = reduced(case, sol, fault)
            res = simulate(machines, net, fault, cfg)
            verdicts.append(res.verdict)
        # once unstable, later clearings stay unstable
        first_bad = verdicts.index("Unstable") if "Unstable" in verdicts else len(verdicts)
        assert all(v == "Stable" for v in verdicts[:first_bad])
        assert all(v == "Unstable" for v in verdicts[first_bad:])
        assert 0 < first_bad < len(verdicts)   # the sweep actually brackets the boundary

    def test_determinism_bitwise(self):
        case = load_bundled_case("case9")
        machines, sol = initialized(case)
        fault = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3, cleared_branch=6)
        net = reduced(case, sol, fault)
        cfg = SimulationConfig(t_end=2.0, dt=0.005, omega_s=WS)
        a = simulate(machines, net, fault, cfg)
        b = simulate(machines, net, fault, cfg)
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.omega_dev, b.omega_dev)
        assert a.verdict == b.verdict and a.t_unstable == b.t_unstable

    def test_switch_times_must_sit_on_grid(self):
        case = smib_case()
        machines, sol = initialized(case)
        fault = FaultSpec(faulted_bus=2, t_fault=0.1003, t_clear=0.3)
        net = reduced(case, sol, fault)
        with pytest.raises(SwitchTimeError):
            simulate(machines, net, fault, SimulationConfig(t_end=1.0, dt=0.005, omega_s=WS))

    def test_trajectories_decimated(self):
        case = smib_case()
        machines, sol = initialized(case)
        fault = no_switch_fault()
        net = reduced(case, sol, fault)
        cfg = SimulationConfig(t_end=30.0, dt=0.005, omega_s=WS)   # 6001 raw steps
        res = simulate(machines, net, fault, cfg)
        assert len(res.times) <= 5000
        assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(30.0)

    def test_config_validation(self):
        with pytest.raises(DynamicsError):
            SimulationConfig(t_end=1.0, dt=0.5)
        with pytest.raises(DynamicsError):
            SimulationConfig(t_end=-1.0)
        # at one time each was accepted: a nan or inf t_end failed in
        # math.floor after the power flow
        for bad in ({"t_end": math.nan}, {"t_end": math.inf}, {"omega_s": math.nan},
                    {"omega_s": math.inf}, {"omega_s": 0.0}, {"omega_s": -WS},
                    {"dt": math.nan}):
            with pytest.raises(DynamicsError, match=next(iter(bad))):
                SimulationConfig(**{"t_end": 1.0, **bad})
            with pytest.raises(DynamicsError):
                SimulationConfig.from_dict({**SimulationConfig(t_end=1.0).to_dict(), **bad})


def prepared(case, scenarios, fault):
    """Each scenario's initialized machines and reduced network, each a batch
    of one, as the cloud builds them before it integrates."""
    machines, nets, _ = reference_prepare(case, build_ybus(case), scenarios, fault)
    return machines, nets


VARIANTS = ("y_red_pre", "y_red_on", "y_red_post")


def stacked(machines, nets):
    """Scenarios of one row each, as one batch of machines and reduced
    networks in ``simulate_batch``'s layout."""
    return (Machines(*(np.concatenate([getattr(m, f.name) for m in machines])
                       for f in fields(Machines))),
            ReducedNetwork(*(np.concatenate([getattr(net, name) for net in nets])
                             for name in VARIANTS)))


def case9_batch(n):
    case = load_bundled_case("case9")
    fault = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.27, cleared_branch=6)
    samples = draw_samples(ForecastSpec(n_dims=len(case.load_bus_ids()), sigma=0.05), n, 3)
    return (*prepared(case, samples, fault), fault)


def with_inertia(machines, machine, h):
    inertia = machines.h.copy()
    inertia[:, machine] = h
    return replace(machines, h=inertia)


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
        machines, nets, fault = case9_batch(12)
        batched = simulate_batch(*stacked(machines, nets), fault, self.CFG)
        assert {r.verdict for r in batched} == {"Stable", "Unstable"}
        for m, net, got in zip(machines, nets, batched):
            assert_same_trajectory(got, reference_simulate(m, net, fault, self.CFG))

    def test_decimated_batch_equals_one_at_a_time(self):
        # 5001 steps: stride 2, and the last step is appended to the samples
        case = smib_case()
        machines, sol = initialized(case)
        fault = FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=0.2)
        cfg = SimulationConfig(t_end=100.02, dt=0.02, omega_s=WS)
        rows = [machines, perturb_machine(machines, 1, 0.1)]
        nets = [reduced(case, sol, fault)] * 2
        batched = simulate_batch(*stacked(rows, nets), fault, cfg)
        assert len(batched[0].times) == 2502 and batched[0].times[-1] == 5001 * 0.02
        for m, net, got in zip(rows, nets, batched):
            assert_same_trajectory(got, reference_simulate(m, net, fault, cfg))

    def test_empty_batch_and_mismatched_lengths(self):
        machines, nets, fault = case9_batch(2)
        empty = ReducedNetwork(*[np.empty((0, 3, 3), dtype=complex)] * 3)
        assert simulate_batch(Machines(*[np.empty((0, 3))] * 5), empty, fault, self.CFG) == []
        with pytest.raises(DynamicsError):
            simulate_batch(stacked(machines, nets)[0], stacked(machines[:1], nets[:1])[1],
                           fault, self.CFG)

    def test_machine_counts_must_agree(self):
        machines, nets, fault = case9_batch(1)
        case = smib_case()
        _, sol = initialized(case)
        smib_fault = FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=0.27)
        smib_net = reduced(case, sol, smib_fault)
        with pytest.raises(DynamicsError):
            simulate_batch(machines[0], smib_net, smib_fault, self.CFG)

    def test_blowup_names_the_scenario_at_its_own_time(self):
        machines, nets, fault = case9_batch(4)
        machines[2] = with_inertia(machines[2], 1, 1e-308)
        with pytest.raises(NumericBlowupError) as alone:
            simulate(machines[2], nets[2], fault, self.CFG)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericBlowupError) as batched:
                simulate_batch(*stacked(machines, nets), fault, self.CFG)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert batched.value.t == alone.value.t
        assert str(batched.value).startswith("scenario 2: ")

    def test_a_subnormal_inertia_blows_up_without_a_numpy_warning(self):
        # 1 / (2 h) overflows for h = 1e-320: the blow-up is one classified
        # error, not also a RuntimeWarning
        machines, nets, fault = case9_batch(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericBlowupError):
                simulate(with_inertia(machines[0], 1, 1e-320), nets[0], fault, self.CFG)

    def test_lowest_blown_scenario_wins_even_when_later(self):
        machines, nets, fault = case9_batch(4)
        machines[1] = with_inertia(machines[1], 1, 1e-306)
        machines[3] = with_inertia(machines[3], 1, 1e-308)
        times = []
        for s in (1, 3):
            with pytest.raises(NumericBlowupError) as alone:
                simulate(machines[s], nets[s], fault, self.CFG)
            times.append(alone.value.t)
        assert times[0] > times[1]            # scenario 3 blows up first
        with pytest.raises(NumericBlowupError) as batched:
            simulate_batch(*stacked(machines, nets), fault, self.CFG)
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
        cfg = SimulationConfig(t_end=1.0, dt=0.01, omega_s=WS)
        try:
            machines, nets = prepared(case, [samples[i] for i in picks], fault)
        except (PowerFlowError, DynamicsError):
            assume(False)
        with mock.patch.object(dynamics, "ANGLE_THRESHOLD", rng.uniform(0.05, 3.2)):
            batched = simulate_batch(*stacked(machines, nets), fault, cfg)
            assert len(batched) == len(picks)
            for m, net, got in zip(machines, nets, batched):
                assert_same_trajectory(got, reference_simulate(m, net, fault, cfg))


def blowup_step(machines, net, fault, cfg):
    """The step at which the one scenario of ``machines`` goes non-finite
    when integrated alone."""
    with pytest.raises(NumericBlowupError) as alone, np.errstate(all="ignore"):
        reference_simulate(machines, net, fault, cfg)
    return round(alone.value.t / cfg.dt)


def blocks_of(steps):
    """``simulate_batch`` checks every ``steps`` steps (None: as it ships)."""
    if steps is None:
        return nullcontext()
    return mock.patch.object(dynamics, "BLOCK_STEPS", steps)


class TestBatchBlocks:
    """``simulate_batch`` holds ``BLOCK_STEPS`` steps at a time and checks and
    samples them together; at every edge of a block it gives the answer of
    the one-at-a-time loop."""

    B = dynamics.BLOCK_STEPS
    CFG = TestBatch.CFG

    @pytest.mark.parametrize("n_steps, max_points", [
        (0, 5000), (B - 1, 5000), (B, 5000), (B + 1, 5000), (100, 10), (3 * B, 7)])
    def test_block_edges_equal_one_at_a_time(self, n_steps, max_points):
        # the threshold puts some scenarios over it at step 0; with fewer
        # stored points the sampling stride falls across the block edges
        machines, nets, fault = case9_batch(6)
        spreads = sorted(np.ptp(m.delta0[0]) for m in machines)
        cfg = SimulationConfig(t_end=max(n_steps, 0.5) * 0.005, dt=0.005, omega_s=WS)
        with mock.patch.object(dynamics, "MAX_STORED_POINTS", max_points), \
                mock.patch.object(helpers, "MAX_STORED_POINTS", max_points), \
                mock.patch.object(dynamics, "ANGLE_THRESHOLD", spreads[3]):
            batched = simulate_batch(*stacked(machines, nets), fault, cfg)
            for m, net, got in zip(machines, nets, batched):
                assert_same_trajectory(got, reference_simulate(m, net, fault, cfg))
        assert {r.t_unstable == 0.0 for r in batched} == {True, False}

    @pytest.mark.parametrize("offset", [None, 5, 0, -1], ids=[
        "as_shipped", "inside_the_first_block", "at_the_first_blocks_last_step",
        "at_the_second_blocks_first_step"])
    def test_a_blowup_is_met_at_its_own_step(self, offset):
        machines, nets, fault = case9_batch(4)
        machines[2] = with_inertia(machines[2], 1, 1e-306)
        step = blowup_step(machines[2], nets[2], fault, self.CFG)
        assert step > 2
        with blocks_of(None if offset is None else step + offset):
            with pytest.raises(NumericBlowupError) as batched:
                simulate_batch(*stacked(machines, nets), fault, self.CFG)
        assert batched.value.t == step * self.CFG.dt
        assert str(batched.value) == f"scenario 2: non-finite state at t={step * 0.005:.6f}s"

    @pytest.mark.parametrize("same_block", [True, False], ids=["same_block", "later_block"])
    def test_scenario_0_blowing_up_after_a_higher_one_is_named(self, same_block):
        machines, nets, fault = case9_batch(4)
        machines[0] = with_inertia(machines[0], 1, 10 ** -305.7)
        machines[3] = with_inertia(machines[3], 1, 1e-307)
        first, later = (blowup_step(machines[s], nets[s], fault, self.CFG) for s in (3, 0))
        assert first < later
        with blocks_of(later if same_block else first):
            with pytest.raises(NumericBlowupError) as batched:
                simulate_batch(*stacked(machines, nets), fault, self.CFG)
        assert batched.value.t == later * self.CFG.dt
        assert str(batched.value).startswith("scenario 0: ")

    def test_ten_machines_sum_as_one_at_a_time(self):
        # from 8 terms on, numpy's add.reduce sums pairwise, not left to right
        rng = random.Random(5)
        case = with_machines(random_connected_case(rng, 14, 1), rng)
        assert len(case.generators) == 10
        samples = draw_samples(ForecastSpec(n_dims=len(case.load_bus_ids()), sigma=0.1), 3, 5)
        fault = FaultSpec(faulted_bus=case.buses[3].id, t_fault=0.1, t_clear=0.2)
        machines, nets = prepared(case, list(samples), fault)
        cfg = SimulationConfig(t_end=1.0, dt=0.01, omega_s=WS)
        batched = simulate_batch(*stacked(machines, nets), fault, cfg)
        for m, net, got in zip(machines, nets, batched):
            assert_same_trajectory(got, reference_simulate(m, net, fault, cfg))

    def test_traced_peak_is_the_samples_and_a_fixed_working_set(self):
        # 1000 case9 scenarios over 200 steps store 9.2 MiB of samples; the
        # working arrays, the block of states and the block checks take ~3.2 MiB
        # more, and holding every step's state would take another 9.2 MiB
        case = load_bundled_case("case9")
        fault = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.27, cleared_branch=6)
        samples = draw_samples(ForecastSpec(n_dims=3, sigma=0.05), 1000, 1)
        machines, net = prepare_batch(build_ybus(case), scenario_loads(case, samples),
                                      fault)
        cfg = SimulationConfig(t_end=1.0, omega_s=WS)
        tracemalloc.start()
        try:
            results = simulate_batch(machines, net, fault, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = len(results) * 2 * 3 * len(results[0].times) * 8
        assert peak - stored <= 5 << 20


def preparation_outcome(case, scenarios, fault):
    """What the batched preparation gives: machines, reduced networks and
    power-flow iteration counts, or its error's class and message."""
    y = build_ybus(case)
    loads = scenario_loads(case, scenarios)
    try:
        machines, net = prepare_batch(y, loads, fault)
    except (PowerFlowError, DynamicsError) as exc:
        return type(exc), str(exc)
    iterations = solve_batch(case, y.to_dense(), loads).iterations
    return machines, net, iterations.tolist()


def assert_same_preparation(case, scenarios, fault, cfg):
    """The batch prepares every scenario bit for bit as the scenario-by-scenario
    loop does, and integrates to the same trajectories; or it raises the error
    the loop meets first, named with its scenario. Returns that error's class."""
    got = preparation_outcome(case, scenarios, fault)
    first = reference_first_error(case, build_ybus(case), scenarios, fault)
    if first is not None:
        k, exc = first
        assert got == (type(exc), f"scenario {k}: {exc}")
        return type(exc)
    machines, net, iterations = got
    rows, nets, want_iterations = reference_prepare(case, build_ybus(case), scenarios, fault)
    assert iterations == want_iterations
    want_machines, want_net = stacked(rows, nets)
    for name in ("e_mag", "delta0", "p_mech", "h", "d"):
        assert getattr(machines, name).tobytes() == getattr(want_machines, name).tobytes(), name
    for name in VARIANTS:
        assert getattr(net, name).tobytes() == getattr(want_net, name).tobytes(), name
    for got_sim, want_sim in zip(simulate_batch(machines, net, fault, cfg),
                                 simulate_batch(want_machines, want_net, fault, cfg)):
        assert_same_trajectory(got_sim, want_sim)
    return None


def uniform(*multipliers, dims=3):
    return np.array([(m,) * dims for m in multipliers], dtype=float)


def row_bytes(case):
    return 64 * (case.n + len(case.generators)) ** 2


@contextmanager
def chunks_of(case, rows):
    """``prepare_batch`` takes the scenarios of ``case`` ``rows`` at a time."""
    with mock.patch.object(dynamics, "PREPARE_BUDGET_BYTES", rows * row_bytes(case)):
        assert chunk_rows(case) == rows
        yield


def chain_case(n, machines=1):
    """Machines on the first buses of a chain (a slack, then PV buses), the
    other buses lightly loaded PQ buses."""
    buses = tuple(Bus(id=i, kind="Slack" if i == 1 else "PV" if i <= machines else "PQ",
                      p_load=0.002 if i > machines else 0.0,
                      q_load=0.001 if i > machines else 0.0) for i in range(1, n + 1))
    branches = tuple(Branch(id=i, from_bus=i, to_bus=i + 1, r=0.0005, x=0.005)
                     for i in range(1, n))
    return GridCase(buses=buses, branches=branches,
                    generators=tuple(Generator(id=i, bus=i, h=5.0, d=1.0, xd_p=0.2)
                                     for i in range(1, machines + 1)))


def case9_with_radial_bus(p_load=0.0):
    """case9 plus PQ bus 10, tied to bus 4 by branch 10 alone: with branch 10
    cleared, bus 10 keeps nothing but its load in the post-fault network."""
    case = load_bundled_case("case9")
    return replace(case, buses=case.buses + (Bus(id=10, kind="PQ", p_load=p_load),),
                   branches=case.branches + (Branch(id=10, from_bus=4, to_bus=10, r=0.0,
                                                    x=0.1),))


RADIAL_FAULT = FaultSpec(faulted_bus=4, t_fault=0.1, t_clear=0.2, cleared_branch=10)


class TestPrepareBatch:
    """``prepare_batch`` against the scenario-by-scenario loop it replaced,
    ``helpers.reference_prepare``: the same bytes in every scenario, and the
    same first error."""

    FAULT = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.27, cleared_branch=6)
    CFG = SimulationConfig(t_end=1.0, dt=0.01, omega_s=WS)

    def test_case9_rows_freeze_at_their_own_iteration(self):
        case = load_bundled_case("case9")
        scenarios = uniform(1.0, 2.0, 1.5, 2.0, 0.5)
        _, _, iterations = preparation_outcome(case, scenarios, self.FAULT)
        assert len(set(iterations)) > 1
        assert assert_same_preparation(case, scenarios, self.FAULT, self.CFG) is None

    @given(seed=st.integers(0, 2**32 - 1), on_case9=st.booleans(),
           n=st.integers(1, 6), spread=st.floats(0.0, 2.5), rows=st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_scenario_by_scenario(self, seed, on_case9, n, spread, rows):
        rng = random.Random(seed)
        if on_case9:
            case, fault = load_bundled_case("case9"), self.FAULT
        else:
            case = with_machines(random_connected_case(rng, rng.randint(4, 10), 1), rng)
            fault = FaultSpec(faulted_bus=rng.choice(case.buses).id, t_fault=0.1, t_clear=0.2)
        assume(case.load_bus_ids())
        scenarios = np.array([[rng.uniform(0.2, 1.0 + spread) for _ in case.load_bus_ids()]
                              for _ in range(n)])
        with chunks_of(case, rows):
            assert_same_preparation(case, scenarios, fault, self.CFG)

    @pytest.mark.parametrize("rows", [5, 2, 1])
    def test_the_lowest_diverging_scenario_names_the_error(self, rows):
        # scenarios 2 and 4 diverge, 4 in fewer iterations: the loop meets 2 first
        case = load_bundled_case("case9")
        for scenarios in (uniform(1.0, 1.5, 3.0, 1.2, 5.0),
                          uniform(1.0, 3.0, 1.2, 3.0)):   # 1 and 3 in the same iteration
            with chunks_of(case, rows):
                got = assert_same_preparation(case, scenarios, self.FAULT, self.CFG)
            assert got is PowerFlowDivergedError

    def test_rows_stopped_together_fail_at_the_lowest(self):
        # every row needs 4 or 5 iterations, so all three stop at the cap together
        case = load_bundled_case("case9")
        y = build_ybus(case)
        with pytest.raises(PowerFlowDivergedError) as batched:
            solve_batch(case, y.to_dense(), scenario_loads(case, uniform(1.0, 2.0, 1.5)),
                        max_iter=1)
        with pytest.raises(PowerFlowDivergedError) as alone:
            reference_newton_raphson(reference_apply_scenario(case, uniform(1.0)[0]), y,
                                     max_iter=1)
        assert str(batched.value) == str(alone.value)
        assert batched.value.iterations == alone.value.iterations == 1
        assert batched.value.max_mismatch == alone.value.max_mismatch

    @pytest.mark.parametrize("rows", [3, 1])
    def test_a_lower_scenario_fails_a_later_stage_first(self, rows):
        # every scenario's post-fault Kron block is singular, and scenario 2
        # diverges: the loop meets scenario 0's singular block first
        case = case9_with_radial_bus()
        with chunks_of(case, rows):
            assert assert_same_preparation(case, uniform(1.0, 1.0, 3.0), RADIAL_FAULT,
                                           self.CFG) is SingularNetworkError
            # when scenario 0 diverges, its power flow fails before any reduction
            assert assert_same_preparation(case, uniform(3.0, 1.0), RADIAL_FAULT,
                                           self.CFG) is PowerFlowDivergedError

    @pytest.mark.parametrize("rows", [2, 1])
    def test_a_bad_fault_is_met_once_the_first_scenario_is_solved(self, rows):
        case = load_bundled_case("case9").with_branch_status({9: "Open"})
        fault = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3, cleared_branch=9)
        y = build_ybus(case)
        with pytest.raises(CaseError, match="not Closed"):
            reference_prepare(case, y, uniform(1.0, 3.0), fault)
        with chunks_of(case, rows):
            with pytest.raises(CaseError, match="not Closed"):
                prepare_batch(y, scenario_loads(case, uniform(1.0, 3.0)), fault)
            assert (preparation_outcome(case, uniform(3.0, 1.0), fault)[0]
                    is PowerFlowDivergedError)

    @pytest.mark.parametrize("rows", [4, 2])
    def test_a_singular_kron_block_names_its_scenario(self, rows):
        # scenario 2 has no load on bus 10, whose post-fault row is then all zero
        case = case9_with_radial_bus(p_load=0.1)
        y = build_ybus(case)
        one = Loads.of_case(case)
        loads = Loads(*(np.repeat(a, 4, axis=0) for a in (one.p_load, one.q_load, one.p_mech)))
        loads.p_load[2, case.bus_index()[10]] = 0.0
        with chunks_of(case, rows), pytest.raises(SingularNetworkError) as info:
            prepare_batch(y, loads, RADIAL_FAULT)
        assert str(info.value) == "scenario 2: eliminated block is singular"
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        head = Loads(loads.p_load[:2], loads.q_load[:2], loads.p_mech[:2])
        _, net = prepare_batch(y, head, RADIAL_FAULT)
        _, alone = prepare_batch(y, one, RADIAL_FAULT)
        for name in VARIANTS:
            assert getattr(net, name)[1].tobytes() == getattr(alone, name)[0].tobytes()

    def test_a_failing_chunk_is_halved_down_to_its_scenario(self):
        # a chunk of 64 whose last scenario has no load on bus 10: each failing
        # chunk is prepared again as two halves, so the power flow runs
        # 1 + 2 * 6 times before scenario 63 is found alone
        case = case9_with_radial_bus(p_load=0.1)
        one = Loads.of_case(case)
        loads = Loads(*(np.repeat(a, 64, axis=0) for a in (one.p_load, one.q_load, one.p_mech)))
        loads.p_load[63, case.bus_index()[10]] = 0.0
        calls = []

        def counting(case, ybus, chunk, *args, **kwargs):
            calls.append(len(chunk))
            return solve_batch(case, ybus, chunk, *args, **kwargs)

        with chunks_of(case, 64), mock.patch.object(dynamics, "solve_batch", counting), \
                pytest.raises(SingularNetworkError) as info:
            prepare_batch(build_ybus(case), loads, RADIAL_FAULT)
        assert str(info.value) == "scenario 63: eliminated block is singular"
        assert len(calls) <= 2 * math.ceil(math.log2(64)) + 1
        assert calls == [64, 32, 32, 16, 16, 8, 8, 4, 4, 2, 2, 1, 1]

    def test_a_singular_jacobian_names_its_scenario(self):
        # bus 3 is tied in by branch 2, but the matrix leaves out branch 2's
        # stamp, so bus 3's row and column are empty
        case = GridCase(
            buses=(Bus(id=1, kind="Slack"), Bus(id=2, kind="PQ", p_load=0.5),
                   Bus(id=3, kind="PQ", p_load=0.2, q_load=0.1)),
            branches=(Branch(id=1, from_bus=1, to_bus=2, r=0.01, x=0.1),
                      Branch(id=2, from_bus=2, to_bus=3, r=0.01, x=0.1)),
            generators=(Generator(id=1, bus=1, h=5.0, d=0.0, xd_p=0.1),))
        full = build_ybus(case)
        y = YMatrix(case, {1: full.branches[1]}, full.shunts)
        with pytest.raises(SingularJacobianError,
                           match="^scenario 0: singular Jacobian at iteration 0$") as info:
            prepare_batch(y, scenario_loads(case, uniform(1.0, 1.1, dims=2)),
                          FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=0.2))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_a_stacked_solve_stops_at_its_first_singular_system(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        a[2] = a[4] = 0.0
        keep = np.array([0])
        with pytest.raises(SingularNetworkError) as info:
            kron_eliminate(a, keep)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        # the regular matrices of the stack reduce bit for bit as they do alone
        regular = a[[0, 1, 3]]
        reduced = kron_eliminate(regular, keep)
        for k in range(3):
            assert reduced[k].tobytes() == kron_eliminate(regular[k], keep).tobytes()


class TestPrepareChunks:
    """``prepare_batch`` bounds its working memory by preparing the scenarios
    ``chunk_rows`` at a time."""

    def test_chunks_fit_the_budget_on_a_large_case(self):
        # the bench's 509-bus lattice has three machines; 1000 scenarios at
        # once would need gigabytes
        large = chain_case(509, machines=3)
        rows = chunk_rows(large)
        assert 1 <= rows < 1000
        assert rows * row_bytes(large) <= dynamics.PREPARE_BUDGET_BYTES
        # a DSA run on case9 at k=10 still prepares its 1000 scenarios at once
        assert chunk_rows(load_bundled_case("case9")) >= 1000
        with mock.patch.object(dynamics, "PREPARE_BUDGET_BYTES", 1):
            assert chunk_rows(large) == 1

    def test_traced_peak_follows_the_chunk_not_the_scenario_count(self):
        case = chain_case(150)
        y = build_ybus(case)
        loads = scenario_loads(case, uniform(*np.linspace(0.8, 1.2, 12), dims=case.n - 1))
        fault = FaultSpec(faulted_bus=75, t_fault=0.1, t_clear=0.2)
        per_run = 4 * 16 * case.n ** 2      # the dense matrix and its three fault variants

        def peak(rows):
            with chunks_of(case, rows):
                tracemalloc.start()
                try:
                    got = prepare_batch(y, loads, fault)
                    return tracemalloc.get_traced_memory()[1], got
                finally:
                    tracemalloc.stop()

        chunked, (machines, net) = peak(2)
        whole, (want_machines, want_net) = peak(12)
        assert chunked <= 2 * row_bytes(case) + per_run < whole
        assert machines.e_mag.tobytes() == want_machines.e_mag.tobytes()
        for name in VARIANTS:
            assert getattr(net, name).tobytes() == getattr(want_net, name).tobytes()


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
                          (0.3, self._result("Unstable", 0.5))])
        again = SecurityReport.from_payload(rep.to_payload())
        assert again.insecurity_probability == rep.insecurity_probability
        assert again.rows == rep.rows

    def test_trajectory_csv_layout(self, tmp_path):
        case = smib_case()
        machines, sol = initialized(case)
        fault = FaultSpec(faulted_bus=2, t_fault=0.1, t_clear=1e6)
        net = reduced(case, sol, fault)
        res = simulate(machines, net, fault, SimulationConfig(t_end=1.0, dt=0.005, omega_s=WS))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,delta_1,delta_2,omega_dev_1,omega_dev_2"
        assert len(lines) == len(res.times) + 2
        assert lines[-1].startswith("verdict,Unstable,")
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and len(first) == 5

    def test_result_payload_roundtrip(self):
        case = smib_case()
        machines, sol = initialized(case)
        fault = no_switch_fault()
        net = reduced(case, sol, fault)
        res = simulate(machines, net, fault, SimulationConfig(t_end=1.0, dt=0.005, omega_s=WS))
        again = SimulationResult.from_payload(res.to_payload())
        assert np.array_equal(again.delta, res.delta)
        assert np.array_equal(again.times, res.times)
        assert again.verdict == res.verdict
