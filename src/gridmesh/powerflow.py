"""Steady-state AC power flow (polar Newton-Raphson) and classical-machine initialization.

The solver warm-starts from the case's stored operating point. Generators
must sit at Slack or PV buses; reactive limits are not enforced.

The Jacobian is MATPOWER's ``dSbus_dV`` (Zimmerman, Murillo-Sanchez and
Thomas, IEEE Trans. Power Systems, 2011). MATPOWER writes it with diagonal
matrices; here each diagonal product is a row or column scaling of Y,
applied by broadcasting on the rows and columns the Jacobian keeps, so
assembly costs O(n^2) per iteration. The dense ``np.linalg.solve`` of the
Jacobian, O(n^3), is what remains of the cost on large cases.

A solution carries the injections V * conj(Y V) of its final mismatch
evaluation. A mismatch that is not finite is a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import CaseError, GridCase, PQ, PV
from .ybus import YMatrix, build_ybus


class PowerFlowError(Exception):
    pass


class PowerFlowDivergedError(PowerFlowError):
    def __init__(self, message: str, iterations: int, max_mismatch: float):
        super().__init__(message)
        self.iterations = iterations
        self.max_mismatch = max_mismatch


class SingularJacobianError(PowerFlowError):
    pass


@dataclass(frozen=True, eq=False)
class PowerFlowSolution:
    v_mag: np.ndarray       # per bus, ascending id order
    v_ang: np.ndarray       # rad
    iterations: int
    max_mismatch: float
    injections: np.ndarray  # complex net injection V * conj(Y V) per bus

    def voltage(self) -> np.ndarray:
        """Complex bus voltage phasors."""
        return self.v_mag * np.exp(1j * self.v_ang)


def _specified_injections(case: GridCase) -> tuple[np.ndarray, np.ndarray]:
    """Scheduled net P and Q injection per bus (generation minus load)."""
    idx = case.bus_index()
    p = np.array([-b.p_load for b in case.buses], dtype=float)
    q = np.array([-b.q_load for b in case.buses], dtype=float)
    for g in case.generators:
        bus = case.bus(g.bus)
        if bus.kind == PQ:
            raise CaseError(f"generator {g.id} sits on PQ bus {g.bus}; "
                            "generator buses must be Slack or PV")
        p[idx[g.bus]] += g.p_mech
    return p, q


def solve_power_flow(case: GridCase, tol: float = 1e-8, max_iter: int = 20,
                     y: YMatrix | None = None) -> PowerFlowSolution:
    """Newton-Raphson in polar form with an analytic Jacobian.

    ``y`` lets a caller supply a prebuilt (e.g. merged) admittance matrix;
    by default the matrix is built from the case.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if y is None:
        y = build_ybus(case)
    if y.n != case.n:
        raise PowerFlowError(f"admittance dimension {y.n} != bus count {case.n}")

    ybus = y.to_dense()
    p_spec, q_spec = _specified_injections(case)
    s_spec = p_spec + 1j * q_spec

    kinds = [b.kind for b in case.buses]
    pv = np.array([i for i, k in enumerate(kinds) if k == PV], dtype=int)
    pq = np.array([i for i, k in enumerate(kinds) if k == PQ], dtype=int)
    pvpq = np.concatenate([pv, pq])

    vm = np.array([b.v_mag for b in case.buses], dtype=float)
    va = np.array([b.v_ang for b in case.buses], dtype=float)

    npv, m, npq = len(pv), len(pvpq), len(pq)
    y_kept = ybus[pvpq[:, None], pvpq]       # the rows and columns the Jacobian keeps
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
        # dSbus_dV entry by entry, with t_ik = V_i * conj(Y_ik * V_k):
        #   dS_i/dVa_k = -j * t_ik,     plus j * V_i * conj(I_i) when i == k
        #   dS_i/dVm_k = t_ik / |V_k|,  plus conj(I_i) * V_i / |V_i| when i == k
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


def initialize_machines(case: GridCase, sol: PowerFlowSolution) -> GridCase:
    """Set internal EMF, rotor angle and mechanical power from a solved operating point.

    E∠δ0 = V + j·xd' · I_gen with I_gen from the generator's electrical output
    (the solution's net injection plus local load); p_mech is set to the
    machine's electrical power so the subsequent dynamic simulation starts at
    equilibrium.
    """
    idx = case.bus_index()
    v = sol.voltage()
    gens = []
    for g in case.generators:
        i = idx[g.bus]
        if sol.v_mag[i] < 1e-9:
            raise PowerFlowError(f"generator {g.id}: terminal voltage is zero at bus {g.bus}")
        bus = case.bus(g.bus)
        s_gen = sol.injections[i] + complex(bus.p_load, bus.q_load)
        i_gen = np.conj(s_gen / v[i])
        e = v[i] + 1j * g.xd_p * i_gen
        p_elec = (e * np.conj(i_gen)).real
        gens.append(replace(g, e_mag=float(abs(e)), delta0=float(np.angle(e)),
                            p_mech=float(p_elec)))
    buses = tuple(replace(b, v_mag=float(sol.v_mag[k]), v_ang=float(sol.v_ang[k]))
                  for k, b in enumerate(case.buses))
    return replace(case, buses=buses, generators=tuple(gens))
