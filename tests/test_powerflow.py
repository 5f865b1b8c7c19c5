import importlib
import math
import random
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmesh.model import Branch, Bus, CaseError, Generator, GridCase, load_bundled_case
from gridmesh.powerflow import (Loads, PowerFlowDivergedError, PowerFlowError,
                                SingularJacobianError, solve_batch, solve_power_flow)
from gridmesh.ybus import YMatrix, build_partials, build_ybus, merge_partials

from helpers import (initialized, random_connected_case, reference_solve_power_flow,
                     smib_case)

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Frozen from the brute-force oracle below (grid search + refinement over
# (v2, theta2) minimizing the bus-2 complex mismatch, residual < 1e-15).
ORACLE_2BUS_V2 = 0.9949361530051241
ORACLE_2BUS_TH2 = -0.1006789603951654


def two_bus_loaded(p=1.0, q=0.0):
    return GridCase(
        buses=(Bus(id=1, kind="Slack"), Bus(id=2, kind="PQ", p_load=p, q_load=q)),
        branches=(Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.1),),
        generators=(),
    )


def brute_force_two_bus(p, q, v_span=(0.5, 1.2), t_span=(-0.8, 0.2)):
    """Independent oracle: exhaustive grid search refined around the minimum."""
    y = np.array([[-10j, 10j], [10j, -10j]])
    target = complex(-p, -q)

    def mismatch(v2, th2):
        v = np.array([1.0, v2 * np.exp(1j * th2)])
        s = v * np.conj(y @ v)
        return abs(s[1] - target)

    vg = np.linspace(*v_span, 200)
    tg = np.linspace(*t_span, 200)
    best = (np.inf, 0.0, 0.0)
    for v in vg:
        for t in tg:
            m = mismatch(v, t)
            if m < best[0]:
                best = (m, v, t)
    for _ in range(40):
        dv, dt = vg[1] - vg[0], tg[1] - tg[0]
        vg = np.linspace(best[1] - dv, best[1] + dv, 15)
        tg = np.linspace(best[2] - dt, best[2] + dt, 15)
        for v in vg:
            for t in tg:
                m = mismatch(v, t)
                if m < best[0]:
                    best = (m, v, t)
    return best


class TestSolvePowerFlow:
    def test_no_load_flat_start_zero_iterations(self):
        sol = solve_power_flow(build_ybus(two_bus_loaded(0.0, 0.0)))
        assert sol.iterations <= 1
        assert np.allclose(sol.v_mag, 1.0) and np.allclose(sol.v_ang, 0.0)
        assert sol.max_mismatch < 1e-8

    def test_two_bus_against_frozen_oracle(self):
        residual, v2, th2 = brute_force_two_bus(1.0, 0.0)
        assert residual < 1e-9
        assert v2 == pytest.approx(ORACLE_2BUS_V2, abs=1e-9)
        assert th2 == pytest.approx(ORACLE_2BUS_TH2, abs=1e-9)
        sol = solve_power_flow(build_ybus(two_bus_loaded(1.0, 0.0)))
        assert sol.v_mag[1] == pytest.approx(ORACLE_2BUS_V2, abs=1e-6)
        assert sol.v_ang[1] == pytest.approx(ORACLE_2BUS_TH2, abs=1e-6)

    def test_far_infeasible_load_diverges(self):
        # continuation: the 2-bus nose point is p = 1/(4x) * ... ~ 2.5; 100x beyond
        with pytest.raises(PowerFlowDivergedError):
            solve_power_flow(build_ybus(two_bus_loaded(250.0, 0.0)))

    def test_divergence_error_carries_last_mismatch(self):
        try:
            solve_power_flow(build_ybus(two_bus_loaded(250.0, 0.0)))
        except PowerFlowDivergedError as exc:
            assert exc.max_mismatch > 0
        else:
            pytest.fail("expected divergence")

    @pytest.mark.parametrize("load", [float("nan"), float("inf")])
    def test_non_finite_load_diverges(self, load):
        # a case refuses a non-finite load, so it comes as a scenario's row
        case = load_bundled_case("case9")
        loads = Loads.of_case(case)
        loads.p_load[0, case.bus_index()[5]] = load
        loads.q_load[0, case.bus_index()[5]] = 0.3
        with pytest.raises(PowerFlowDivergedError, match="not finite at iteration 0") as info:
            solve_batch(case, build_ybus(case).to_dense(), loads)
        assert info.value.iterations == 0 and not math.isfinite(info.value.max_mismatch)

    def test_injections_are_the_final_mismatch_evaluation(self):
        case = load_bundled_case("case9")
        sol = solve_power_flow(build_ybus(case))
        v = sol.voltage()
        want = v * np.conj(build_ybus(case).to_dense() @ v)
        assert sol.injections.tobytes() == want.tobytes()
        assert sol.iterations == 4

    def test_mismatch_below_tol_at_every_bus(self):
        case = load_bundled_case("case9")
        sol = solve_power_flow(build_ybus(case), tol=1e-10)
        assert sol.max_mismatch < 1e-10

    def test_nine_bus_matches_reference_operating_point(self):
        # well-known solved state of this test system
        sol = solve_power_flow(build_ybus(load_bundled_case("case9")))
        assert sol.v_mag[4] == pytest.approx(0.9956, abs=2e-4)    # bus 5
        assert sol.v_mag[6] == pytest.approx(1.0258, abs=2e-4)    # bus 7
        assert math.degrees(sol.v_ang[1]) == pytest.approx(9.28, abs=0.05)

    def test_round_trip_recovery(self):
        rng = random.Random(99)
        for _ in range(10):
            case = random_connected_case(rng, rng.randint(4, 12), 1)
            case = GridCase(buses=case.buses, branches=case.branches, generators=())
            y = build_ybus(case)
            n = case.n
            vm = 1.0 + 0.03 * np.array([rng.uniform(-1, 1) for _ in range(n)])
            va = 0.05 * np.array([rng.uniform(-1, 1) for _ in range(n)])
            vm[0], va[0] = case.buses[0].v_mag, case.buses[0].v_ang
            v = vm * np.exp(1j * va)
            s = v * np.conj(y.to_dense() @ v)
            buses = []
            for i, b in enumerate(case.buses):
                if b.kind == "Slack":
                    buses.append(b)
                else:
                    buses.append(Bus(id=b.id, kind="PQ", v_mag=1.0, v_ang=0.0,
                                     p_load=-s[i].real, q_load=-s[i].imag,
                                     shunt_g=b.shunt_g, shunt_b=b.shunt_b,
                                     owner_region=b.owner_region))
            seeded = GridCase(buses=tuple(buses), branches=case.branches,
                              generators=())
            sol = solve_power_flow(build_ybus(seeded), tol=1e-10)
            assert np.max(np.abs(sol.v_mag - vm)) < 1e-6
            assert np.max(np.abs(sol.v_ang - va)) < 1e-6

    def test_merged_partials_solve_as_the_whole_build(self):
        case = load_bundled_case("case9")
        a = solve_power_flow(build_ybus(case))
        b = solve_power_flow(merge_partials(case, build_partials(case)))
        for name in ("v_mag", "v_ang", "injections"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestInitializeMachines:
    def test_zero_current_gives_terminal_voltage(self):
        # machine with zero output: E = V exactly
        case = smib_case(p_mech=0.0)
        out, sol = initialized(case)
        i = case.bus_index()[case.generators[1].bus]
        assert out.e_mag[0, 1] == pytest.approx(sol.v_mag[0, i], abs=1e-12)
        assert out.delta0[0, 1] == pytest.approx(sol.v_ang[0, i], abs=1e-12)
        assert out.p_mech[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_smib_closed_form(self):
        # oracle: complex arithmetic by hand for P=0.8 through x_net
        case = smib_case(p_mech=0.8, x_line=0.4, xd_p=0.3)
        out, sol = initialized(case)
        i = case.bus_index()[2]
        v = sol.v_mag[0, i] * np.exp(1j * sol.v_ang[0, i])
        s = sol.injections[0, i]
        i_gen = np.conj(s / v)
        e = v + 1j * 0.3 * i_gen
        assert out.e_mag[0, 1] == pytest.approx(abs(e), abs=1e-12)
        assert out.delta0[0, 1] == pytest.approx(math.atan2(e.imag, e.real), abs=1e-12)

    def test_idempotent_at_equilibrium(self):
        case = load_bundled_case("case9")
        once, sol = initialized(case)
        # the second power flow starts at the first one's voltages, with the
        # machines' initialized mechanical power
        at_solution = replace(case, buses=tuple(
            replace(b, v_mag=float(sol.v_mag[0, k]), v_ang=float(sol.v_ang[0, k]))
            for k, b in enumerate(case.buses)))
        twice, _ = initialized(at_solution, replace(Loads.of_case(case), p_mech=once.p_mech))
        assert np.all(np.abs(once.e_mag - twice.e_mag) < 1e-12)
        assert np.all(np.abs(once.delta0 - twice.delta0) < 1e-12)
        assert np.all(np.abs(once.p_mech - twice.p_mech) < 1e-10)

    def test_generator_on_pq_bus_rejected(self):
        with pytest.raises(CaseError, match="Slack or PV"):
            GridCase(
                buses=(Bus(id=1, kind="Slack"), Bus(id=2, kind="PQ")),
                branches=(Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.1),),
                generators=(Generator(id=1, bus=2, h=3.0, d=0.0, xd_p=0.3),),
            )


def load_synthcase():
    """The benchmark's seeded 509-bus lattice generator, ``bench/synthcase.py``."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("synthcase")
    finally:
        sys.path.remove(str(BENCH))


def outcome(solve):
    """What a solver call gives: its solution, or the class and iteration it
    failed at."""
    try:
        return solve()
    except PowerFlowDivergedError as exc:
        return type(exc), exc.iterations
    except PowerFlowError as exc:
        return type(exc), str(exc)


def capped_mismatch(solve, max_iter):
    """The mismatch a solver is left with when stopped after ``max_iter`` steps."""
    with pytest.raises(PowerFlowDivergedError) as info:
        solve(max_iter=max_iter)
    return info.value.max_mismatch


def assert_matches_reference(case, y, **opts):
    def new(**over):
        return solve_power_flow(y, **{**opts, **over})

    def ref(**over):
        return reference_solve_power_flow(case, y, **{**opts, **over})

    got, want = outcome(new), outcome(ref)
    if not isinstance(want, tuple):
        assert not isinstance(got, tuple), got
        assert got.iterations == want.iterations
        assert np.max(np.abs(got.v_mag - want.v_mag)) <= 1e-10
        assert np.max(np.abs(got.v_ang - want.v_ang)) <= 1e-10
    elif got != want:
        # Far from any solution, Newton's iteration amplifies a last-bit
        # difference step by step until the two paths part and one leaves the
        # feasible region earlier. Only that is allowed: both diverge, they
        # agree to round-off after the first step, and they have parted
        # before the first of them stops.
        assert isinstance(got, tuple) and got[0] is want[0] is PowerFlowDivergedError, \
            (got, want)
        for k, close in ((1, True), (min(got[1], want[1]) - 1, False)):
            a, b = capped_mismatch(new, k), capped_mismatch(ref, k)
            assert (abs(a - b) <= 1e-10 * abs(b)) is close, (k, a, b)


class TestAgainstDenseReference:
    """The Jacobian is assembled by broadcasting; the dense ``np.diag``/matmul
    Newton-Raphson it replaced must give the same answer to round-off."""

    def test_case9(self):
        case = load_bundled_case("case9")
        assert_matches_reference(case, build_ybus(case))

    def test_lattice_case(self):
        case = load_synthcase().lattice_case(load_bundled_case("case9")).case
        assert_matches_reference(case, build_ybus(case))

    @given(seed=st.integers(0, 2**32 - 1), n_buses=st.integers(4, 30),
           load_scale=st.floats(0.0, 8.0), tol=st.sampled_from([1e-8, 1e-10]),
           max_iter=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_random_cases(self, seed, n_buses, load_scale, tol, max_iter):
        rng = random.Random(seed)
        case = random_connected_case(rng, n_buses, 2)
        case = case.with_bus_loads({
            b.id: (b.p_load * load_scale * rng.uniform(0.5, 1.5),
                   b.q_load * load_scale * rng.uniform(0.5, 1.5))
            for b in case.buses if b.kind == "PQ"})
        assert_matches_reference(case, build_ybus(case), tol=tol, max_iter=max_iter)


class TestSingularJacobian:
    def test_isolated_pq_bus_raises_singular_jacobian(self):
        # bus 3 is tied in by branch 2 in the case, but the prebuilt matrix
        # leaves out branch 2's stamp, so bus 3's row and column are empty
        case = GridCase(
            buses=(Bus(id=1, kind="Slack"), Bus(id=2, kind="PQ", p_load=0.5),
                   Bus(id=3, kind="PQ", p_load=0.2, q_load=0.1)),
            branches=(Branch(id=1, from_bus=1, to_bus=2, r=0.01, x=0.1),
                      Branch(id=2, from_bus=2, to_bus=3, r=0.01, x=0.1)),
            generators=(),
        )
        full = build_ybus(case)
        y = YMatrix(case, {1: full.branches[1]}, full.shunts)
        with pytest.raises(SingularJacobianError, match="at iteration 0") as info:
            solve_power_flow(y)
        assert not isinstance(info.value, np.linalg.LinAlgError)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert outcome(lambda: reference_solve_power_flow(case, y)) == \
            (SingularJacobianError, "singular Jacobian at iteration 0")
