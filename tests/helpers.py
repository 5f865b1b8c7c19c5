"""Shared test fixtures: canonical machine-infinite-bus system, one case's
machines and reduced networks as batches of one, random cases,
an entry-by-entry reference placement of Y's stamps, a one-scenario
reference integrator, a dense-matmul reference power flow,
the scenario-by-scenario preparation the batched one replaced and the
tuple-by-tuple cross-region scenario product."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np

from gridmesh.dynamics import (MAX_STORED_POINTS, STABLE, UNSTABLE, DynamicsError,
                               NumericBlowupError, ReducedNetwork, SimulationResult, SingularNetworkError,
                               _snap_step, reduce_batch)
from gridmesh.model import PQ, PV, Branch, Bus, CaseError, Generator, GridCase
from gridmesh.powerflow import (BatchSolution, Loads, Machines, PowerFlowDivergedError,
                                PowerFlowError, PowerFlowSolution, SingularJacobianError,
                                initialize_batch, solve_batch)
from gridmesh.sampling import SamplingError
from gridmesh.ybus import build_ybus, fault_variants

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


def initialized(case: GridCase, loads: Loads | None = None) -> tuple[Machines, BatchSolution]:
    """The case's machines initialized at its power flow, for its own loads
    or ``loads``, and that solution, each a batch of one."""
    loads = Loads.of_case(case) if loads is None else loads
    sol = solve_batch(case, build_ybus(case).to_dense(), loads)
    return initialize_batch(case, sol, loads), sol


def reduced(case: GridCase, sol: BatchSolution, fault) -> ReducedNetwork:
    """The case's reduced networks for ``fault`` at the solved operating point."""
    return reduce_batch(case, sol, Loads.of_case(case),
                        fault_variants(build_ybus(case), case, fault))


def perturb_machine(machines: Machines, machine_idx: int, d_delta: float) -> Machines:
    """``machines`` with one machine's initial rotor angle moved by ``d_delta``."""
    delta0 = machines.delta0.copy()
    delta0[:, machine_idx] += d_delta
    return replace(machines, delta0=delta0)


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


def reference_dense(y) -> np.ndarray:
    """``y``'s dense matrix, each entry folded as complex 0 plus its terms in
    canonical order: the stamps by ascending branch id, then the shunt."""
    idx = y.case.bus_index()
    ends = {br.id: (idx[br.from_bus], idx[br.to_bus]) for br in y.case.branches}
    terms: dict[tuple[int, int], list[complex]] = {}
    for bid in sorted(y.branches):
        (f, t), (ff, tt, off) = ends[bid], y.branches[bid]
        for pos, value in (((f, f), ff), ((t, t), tt), ((f, t), off), ((t, f), off)):
            terms.setdefault(pos, []).append(value)
    for bus_id in sorted(y.shunts):
        terms.setdefault((idx[bus_id], idx[bus_id]), []).append(y.shunts[bus_id])
    dense = np.zeros((y.case.n, y.case.n), dtype=complex)
    for pos, values in terms.items():
        total = complex(0.0, 0.0)
        for value in values:
            total += value
        dense[pos] = total
    return dense


def reference_simulate(machines: Machines, net, fault, cfg):
    """One scenario, the one row of ``machines`` and ``net``, integrated on
    its own: the per-scenario RK4 loop that ``dynamics.simulate_batch``
    replaced, kept here as the oracle that a batched trajectory must equal
    bit for bit."""
    e, h, damp, pm, delta0 = (getattr(machines, name)[0]
                              for name in ("e_mag", "h", "d", "p_mech", "delta0"))
    m = len(e)
    ee = np.outer(e, e)
    ws = cfg.omega_s
    acc = 1.0 / (2.0 * h)

    k_fault = _snap_step(fault.t_fault, cfg.dt, "t_fault")
    k_clear = _snap_step(fault.t_clear, cfg.dt, "t_clear")
    n_steps = int(math.floor(cfg.t_end / cfg.dt + 1e-9))

    mats = []
    for y_red in (net.y_red_pre[0], net.y_red_on[0], net.y_red_post[0]):
        mats.append((ee * y_red.real, ee * y_red.imag))

    def electrical_power(delta, phase):
        g_ee, b_ee = mats[phase]
        dij = delta[:, None] - delta[None, :]
        return np.sum(g_ee * np.cos(dij) + b_ee * np.sin(dij), axis=1)

    def deriv(state, phase):
        delta, dw = state[:m], state[m:]
        pe = electrical_power(delta, phase)
        return np.concatenate([ws * dw, acc * (pm - pe - damp * dw)])

    state = np.concatenate([delta0, np.zeros(m)])
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
    s_spec = reference_specified_injections(case)

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


# ----------------------------------------------------------------------
# Scenario-by-scenario preparation: the loop ``dynamics.prepare_batch``
# replaced, kept with the one-case code it called as the oracle that every
# batched row must equal bit for bit. That code computes with Python and
# numpy complex scalars, and three vectorized forms of the same formulas
# are not bitwise equal to them on this numpy (2.4):
#   - the vectorized complex ``np.abs`` differs from the scalar ``abs`` in the
#     last bit, while ``np.hypot(re, im)`` matches it;
#   - numpy's complex division differs from Python's ``complex(p, -q) / vm**2``
#     (and the batch does not rely on it for ``1.0 / complex(0, xd')``), so
#     the load admittance is added in real and imaginary parts;
#   - the real part of a vectorized complex product differs from the scalar
#     product's, so it is written ``er*cr - ei*ci``.
# A stack of ``Y @ v`` is bitwise ``np.matmul(Y, V[..., None])``, not ``V @ Y.T``.

def reference_specified_injections(case: GridCase) -> np.ndarray:
    """Scheduled complex net injection per bus (generation minus load)."""
    idx = case.bus_index()
    p = np.array([-b.p_load for b in case.buses], dtype=float)
    q = np.array([-b.q_load for b in case.buses], dtype=float)
    for g in case.generators:
        if case.bus(g.bus).kind == PQ:
            raise CaseError(f"generator {g.id} sits on PQ bus {g.bus}; "
                            "generator buses must be Slack or PV")
        p[idx[g.bus]] += g.p_mech
    return p + 1j * q


def reference_apply_scenario(case: GridCase, row) -> GridCase:
    load_ids = case.load_bus_ids()
    multipliers = np.asarray(row).tolist()
    if len(multipliers) != len(load_ids):
        raise SamplingError(
            f"scenario has {len(multipliers)} multipliers, case has {len(load_ids)} loads")
    by_bus = dict(zip(load_ids, multipliers))
    old_total = sum(b.p_load for b in case.buses)
    scaled = case.with_bus_loads({b.id: (b.p_load * by_bus[b.id], b.q_load * by_bus[b.id])
                                  for b in case.buses if b.id in by_bus})
    new_total = sum(b.p_load for b in scaled.buses)
    if old_total != 0.0:
        ratio = new_total / old_total
        gens = tuple(replace(g, p_mech=g.p_mech * ratio) for g in scaled.generators)
        scaled = replace(scaled, generators=gens)
    return scaled


def reference_newton_raphson(case: GridCase, y, tol: float = 1e-8,
                             max_iter: int = 20) -> PowerFlowSolution:
    """One case's Newton-Raphson with the broadcast Jacobian."""
    ybus = y.to_dense()
    s_spec = reference_specified_injections(case)
    kinds = [b.kind for b in case.buses]
    pv = np.array([i for i, k in enumerate(kinds) if k == PV], dtype=int)
    pq = np.array([i for i, k in enumerate(kinds) if k == PQ], dtype=int)
    pvpq = np.concatenate([pv, pq])
    vm = np.array([b.v_mag for b in case.buses], dtype=float)
    va = np.array([b.v_ang for b in case.buses], dtype=float)
    npv, m, npq = len(pv), len(pvpq), len(pq)
    y_kept = ybus[pvpq[:, None], pvpq]
    jac = np.empty((m + npq, m + npq))
    rows_pvpq = np.arange(m)
    rows_pq = np.arange(npq)
    it = 0
    while True:
        v = vm * np.exp(1j * va)
        ibus = ybus @ v
        s_inj = v * np.conj(ibus)
        mis = s_inj - s_spec
        f = np.concatenate([mis[pvpq].real, mis[pq].imag])
        max_mis = float(np.max(np.abs(f))) if f.size else 0.0
        if max_mis < tol:
            break
        if not np.isfinite(max_mis):
            raise PowerFlowDivergedError(
                f"mismatch is not finite at iteration {it}", it, max_mis)
        if it >= max_iter:
            raise PowerFlowDivergedError(
                f"no convergence after {it} iterations (mismatch {max_mis:.3e})",
                it, max_mis)
        vk = v[pvpq]
        t = y_kept * vk
        np.conjugate(t, out=t)
        t *= vk[:, None]
        jac[:m, :m] = t.imag
        np.negative(t.real[npv:], out=jac[m:, :m])
        np.divide(t.real[:, npv:], vm[pq], out=jac[:m, m:])
        np.divide(t.imag[npv:, npv:], vm[pq], out=jac[m:, m:])
        diag_va = 1j * vk * np.conj(ibus[pvpq])
        diag_vm = np.conj(ibus[pq]) * (v[pq] / vm[pq])
        jac[rows_pvpq, rows_pvpq] += diag_va.real
        jac[m + rows_pq, npv + rows_pq] += diag_va.imag[npv:]
        jac[npv + rows_pq, m + rows_pq] += diag_vm.real
        jac[m + rows_pq, m + rows_pq] += diag_vm.imag
        try:
            dx = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"singular Jacobian at iteration {it}") from exc
        va[pvpq] -= dx[:m]
        vm[pq] -= dx[m:]
        it += 1
        if not (np.all(np.isfinite(vm)) and np.all(np.isfinite(va))) or np.any(vm <= 0):
            raise PowerFlowDivergedError(
                f"iterate left the feasible region at iteration {it}", it, float("inf"))
    return PowerFlowSolution(v_mag=vm, v_ang=va, iterations=it, max_mismatch=max_mis,
                             injections=s_inj)


def reference_initialize_machines(case: GridCase, sol: PowerFlowSolution) -> Machines:
    """The case's machines at ``sol``, one generator at a time, as one row."""
    idx = case.bus_index()
    v = sol.voltage()
    rows = []
    for g in case.generators:
        i = idx[g.bus]
        if sol.v_mag[i] < 1e-9:
            raise PowerFlowError(f"generator {g.id}: terminal voltage is zero at bus {g.bus}")
        bus = case.bus(g.bus)
        s_gen = sol.injections[i] + complex(bus.p_load, bus.q_load)
        i_gen = np.conj(s_gen / v[i])
        e = v[i] + 1j * g.xd_p * i_gen
        p_elec = (e * np.conj(i_gen)).real
        rows.append((float(abs(e)), float(np.angle(e)), float(p_elec), g.h, g.d))
    return Machines(*(np.array([column], dtype=float) for column in zip(*rows)))


def reference_kron_reduce(y: np.ndarray, case: GridCase, sol: PowerFlowSolution) -> np.ndarray:
    n, m = case.n, len(case.generators)
    idx = case.bus_index()
    aug = np.zeros((n + m, n + m), dtype=complex)
    aug[:n, :n] = y
    for k, bus in enumerate(case.buses):
        if bus.p_load != 0.0 or bus.q_load != 0.0:
            vm = sol.v_mag[k]
            aug[k, k] += complex(bus.p_load, -bus.q_load) / (vm * vm)
    for g_i, gen in enumerate(case.generators):
        b = idx[gen.bus]
        yg = 1.0 / complex(0.0, gen.xd_p)
        node = n + g_i
        aug[node, node] += yg
        aug[node, b] -= yg
        aug[b, node] -= yg
        aug[b, b] += yg
    keep = np.arange(n, n + m)
    elim = np.arange(n)
    try:
        x = np.linalg.solve(aug[np.ix_(elim, elim)], aug[np.ix_(elim, keep)])
    except np.linalg.LinAlgError as exc:
        raise SingularNetworkError("eliminated block is singular") from exc
    return aug[np.ix_(keep, keep)] - aug[np.ix_(keep, elim)] @ x


def reference_prepare(case: GridCase, y, multipliers, fault):
    """Each multiplier row's initialized machines, reduced network (each a
    batch of one) and power-flow iteration count, one row after another."""
    machines, nets, iterations = [], [], []
    for row in multipliers:
        scase = reference_apply_scenario(case, row)
        sol = reference_newton_raphson(scase, y)
        machines.append(reference_initialize_machines(scase, sol))
        variants = fault_variants(y, scase, fault)
        nets.append(ReducedNetwork(*(reference_kron_reduce(v, scase, sol)[None]
                                     for v in variants)))
        iterations.append(sol.iterations)
    return machines, nets, iterations


def reference_first_error(case: GridCase, y, multipliers, fault):
    """The first multiplier row the scenario-by-scenario loop fails on, and
    its error; None when every row prepares."""
    for k, row in enumerate(multipliers):
        try:
            reference_prepare(case, y, [row], fault)
        except (PowerFlowError, DynamicsError) as exc:
            return k, exc
    return None


# ----------------------------------------------------------------------
# The cross-region product built one tuple at a time, as it was before
# ``sampling.combine_region_sets`` built it with numpy: the oracle whose
# multipliers and weights the array product must equal bit for bit.

def reference_combine(region_sets):
    """Joint multiplier tuples (columns in ascending load-bus id), their
    normalized weights and the sorted load bus ids."""
    regions = sorted(region_sets)
    all_bus_ids = [b for r in regions for b in region_sets[r][1]]
    order = np.argsort(all_bus_ids, kind="stable")
    combos = [((), 1.0)]
    for r in regions:
        sset, _ = region_sets[r]
        combos = [(mult + tuple(row), w * sw)
                  for mult, w in combos
                  for row, sw in zip(sset.multipliers.tolist(), sset.weights.tolist())]
    multipliers = [tuple(mult[j] for j in order) for mult, _ in combos]
    weights = [w for _, w in combos]
    total = sum(weights)
    return multipliers, [w / total for w in weights], sorted(all_bus_ids)
