"""Shared test fixtures: canonical machine-infinite-bus system, random cases,
a one-scenario reference integrator and a dense-matmul reference power flow."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np

from gridmesh.dynamics import (MAX_STORED_POINTS, STABLE, UNSTABLE, NumericBlowupError,
                               SimulationResult, _snap_step)
from gridmesh.model import PQ, PV, Branch, Bus, Generator, GridCase
from gridmesh.powerflow import (PowerFlowDivergedError, PowerFlowSolution,
                                SingularJacobianError, _specified_injections)

INF_H = 1e6          # stand-in for an infinite bus: huge inertia, negligible reactance
INF_XD = 1e-6


def smib_case(p_mech: float = 0.8, x_line: float = 0.4, xd_p: float = 0.3,
              h: float = 3.0, d: float = 0.0) -> GridCase:
    """One machine against a stiff source over a lossless line."""
    return GridCase(
        buses=(Bus(id=1, kind="Slack", v_mag=1.0),
               Bus(id=2, kind="PV", v_mag=1.0)),
        branches=(Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=x_line),),
        generators=(Generator(id=1, bus=1, h=INF_H, d=0.0, xd_p=INF_XD),
                    Generator(id=2, bus=2, h=h, d=d, xd_p=xd_p, p_mech=p_mech)),
    )


def perturb_machine(case: GridCase, machine_idx: int, d_delta: float) -> GridCase:
    gens = list(case.generators)
    gens[machine_idx] = replace(gens[machine_idx],
                                delta0=gens[machine_idx].delta0 + d_delta)
    return replace(case, generators=tuple(gens))


def random_connected_case(rng: random.Random, n_buses: int, n_regions: int) -> GridCase:
    """Random connected case: spanning tree plus extra (possibly open) branches."""
    regions = [f"R{i + 1}" for i in range(n_regions)]
    buses = []
    for i in range(1, n_buses + 1):
        kind = "Slack" if i == 1 else rng.choice(["PV", "PQ"])
        buses.append(Bus(
            id=i, kind=kind, v_mag=1.0 + 0.05 * rng.uniform(-1, 1),
            p_load=rng.uniform(0, 0.5) if kind == "PQ" else 0.0,
            q_load=rng.uniform(0, 0.2) if kind == "PQ" else 0.0,
            shunt_g=rng.choice([0.0, rng.uniform(0, 0.05)]),
            shunt_b=rng.choice([0.0, rng.uniform(-0.1, 0.1)]),
            owner_region=rng.choice(regions),
        ))
    branches = []
    bid = 1
    order = list(range(2, n_buses + 1))
    rng.shuffle(order)
    for i in order:
        j = rng.choice(list(range(1, i)))
        branches.append(Branch(
            id=bid, from_bus=j, to_bus=i,
            r=rng.uniform(0.001, 0.05), x=rng.uniform(0.01, 0.3),
            b_charge=rng.choice([0.0, rng.uniform(0, 0.3)]),
            tap=rng.choice([1.0, rng.uniform(0.9, 1.1)]),
            owner_region=rng.choice(regions),
        ))
        bid += 1
    for _ in range(rng.randint(0, n_buses)):
        a, b = rng.sample(range(1, n_buses + 1), 2)
        branches.append(Branch(
            id=bid, from_bus=a, to_bus=b,
            r=rng.uniform(0.001, 0.05), x=rng.uniform(0.01, 0.3),
            status=rng.choice(["Closed", "Closed", "Open"]),
            owner_region=rng.choice(regions),
        ))
        bid += 1
    gens = (Generator(id=1, bus=1, h=5.0, d=0.0, xd_p=0.1),)
    return GridCase(buses=tuple(buses), branches=tuple(branches), generators=gens)


def reference_simulate(case: GridCase, net, fault, cfg):
    """One scenario integrated on its own: the per-scenario RK4 loop that
    ``dynamics.simulate_batch`` replaced, kept here as the oracle that a
    batched trajectory must equal bit for bit."""
    m = len(case.generators)
    e = np.array([g.e_mag for g in case.generators])
    h = np.array([g.h for g in case.generators])
    damp = np.array([g.d for g in case.generators])
    pm = np.array([g.p_mech for g in case.generators])
    ee = np.outer(e, e)
    ws = cfg.omega_s
    acc = 1.0 / (2.0 * h)

    k_fault = _snap_step(fault.t_fault, cfg.dt, "t_fault")
    k_clear = _snap_step(fault.t_clear, cfg.dt, "t_clear")
    n_steps = int(math.floor(cfg.t_end / cfg.dt + 1e-9))

    mats = []
    for y_red in (net.y_red_pre, net.y_red_on, net.y_red_post):
        mats.append((ee * y_red.real, ee * y_red.imag))

    def electrical_power(delta, phase):
        g_ee, b_ee = mats[phase]
        dij = delta[:, None] - delta[None, :]
        return np.sum(g_ee * np.cos(dij) + b_ee * np.sin(dij), axis=1)

    def deriv(state, phase):
        delta, dw = state[:m], state[m:]
        pe = electrical_power(delta, phase)
        return np.concatenate([ws * dw, acc * (pm - pe - damp * dw)])

    state = np.concatenate([np.array([g.delta0 for g in case.generators]), np.zeros(m)])
    deltas = np.empty((n_steps + 1, m))
    omegas = np.empty((n_steps + 1, m))
    deltas[0] = state[:m]
    omegas[0] = state[m:]

    verdict = STABLE
    t_unstable = None

    def spread(delta):
        return float(np.max(delta) - np.min(delta)) if m > 1 else 0.0

    if spread(state[:m]) > cfg.angle_threshold:
        verdict, t_unstable = UNSTABLE, 0.0

    dt = cfg.dt
    for k in range(n_steps):
        phase = 0 if k < k_fault else (1 if k < k_clear else 2)
        k1 = deriv(state, phase)
        k2 = deriv(state + 0.5 * dt * k1, phase)
        k3 = deriv(state + 0.5 * dt * k2, phase)
        k4 = deriv(state + dt * k3, phase)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = (k + 1) * dt
        if not np.all(np.isfinite(state)):
            raise NumericBlowupError(f"non-finite state at t={t:.6f}s", t)
        deltas[k + 1] = state[:m]
        omegas[k + 1] = state[m:]
        if verdict == STABLE and spread(state[:m]) > cfg.angle_threshold:
            verdict, t_unstable = UNSTABLE, t

    stride = max(1, math.ceil((n_steps + 1) / MAX_STORED_POINTS))
    keep = list(range(0, n_steps + 1, stride))
    if keep[-1] != n_steps:
        keep.append(n_steps)
    keep_arr = np.array(keep, dtype=int)
    return SimulationResult(times=keep_arr * dt, delta=deltas[keep_arr].T.copy(),
                            omega_dev=omegas[keep_arr].T.copy(), verdict=verdict,
                            t_unstable=t_unstable)


def reference_solve_power_flow(case: GridCase, y, tol: float = 1e-8,
                               max_iter: int = 20) -> PowerFlowSolution:
    """Newton-Raphson with the Jacobian formed from dense ``np.diag`` matrices
    and complex matmuls: the assembly ``powerflow.solve_power_flow`` replaced,
    kept here as the oracle its voltages must match to round-off."""
    ybus = y.to_dense()
    p_spec, q_spec = _specified_injections(case)
    s_spec = p_spec + 1j * q_spec

    kinds = [b.kind for b in case.buses]
    pv = np.array([i for i, k in enumerate(kinds) if k == PV], dtype=int)
    pq = np.array([i for i, k in enumerate(kinds) if k == PQ], dtype=int)
    pvpq = np.concatenate([pv, pq])

    vm = np.array([b.v_mag for b in case.buses], dtype=float)
    va = np.array([b.v_ang for b in case.buses], dtype=float)

    def mismatch(vm, va):
        v = vm * np.exp(1j * va)
        s = v * np.conj(ybus @ v)
        mis = s - s_spec
        return np.concatenate([mis[pvpq].real, mis[pq].imag]), v, s

    f, v, s = mismatch(vm, va)
    max_mis = float(np.max(np.abs(f))) if f.size else 0.0
    it = 0
    while not max_mis < tol:
        if not np.isfinite(max_mis):
            raise PowerFlowDivergedError(
                f"mismatch is not finite at iteration {it}", it, max_mis)
        if it >= max_iter:
            raise PowerFlowDivergedError(
                f"no convergence after {it} iterations (mismatch {max_mis:.3e})",
                it, max_mis)
        ibus = ybus @ v
        diag_v = np.diag(v)
        diag_i = np.diag(ibus)
        diag_vnorm = np.diag(v / vm)
        ds_dvm = diag_v @ np.conj(ybus @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm
        ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)

        j11 = ds_dva[np.ix_(pvpq, pvpq)].real
        j12 = ds_dvm[np.ix_(pvpq, pq)].real
        j21 = ds_dva[np.ix_(pq, pvpq)].imag
        j22 = ds_dvm[np.ix_(pq, pq)].imag
        jac = np.block([[j11, j12], [j21, j22]])
        try:
            dx = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"singular Jacobian at iteration {it}") from exc

        va[pvpq] -= dx[:len(pvpq)]
        vm[pq] -= dx[len(pvpq):]
        it += 1
        if not (np.all(np.isfinite(vm)) and np.all(np.isfinite(va))) or np.any(vm <= 0):
            raise PowerFlowDivergedError(
                f"iterate left the feasible region at iteration {it}", it, float("inf"))
        f, v, s = mismatch(vm, va)
        max_mis = float(np.max(np.abs(f))) if f.size else 0.0

    return PowerFlowSolution(v_mag=vm, v_ang=va, iterations=it, max_mismatch=max_mis,
                             injections=s)
