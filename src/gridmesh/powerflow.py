"""Steady-state AC power flow (polar Newton-Raphson) and classical-machine
initialization, for a batch of load scenarios over one topology.

``Loads`` carries each scenario's loads and mechanical power as arrays with a
leading scenario axis; scenario s is row s of every batched result, and the
single-case ``solve_power_flow`` (of a ``YMatrix``, for its case's loads) and
``initialize_machines`` are batches of one. The solver warm-starts every
scenario from the case's stored operating point, and the scenarios still
iterating step together: one stacked product with the dense Y, one
``(active, m, m)`` Jacobian array and one ``np.linalg.solve`` per Newton
step. A scenario freezes once its own mismatch passes ``tol``, so its
iteration count and bytes are those it gets alone. Generators sit at Slack or
PV buses (``GridCase`` enforces it); reactive limits are not enforced.

The Jacobian is MATPOWER's ``dSbus_dV`` (Zimmerman, Murillo-Sanchez and
Thomas, IEEE Trans. Power Systems, 2011). MATPOWER writes it with diagonal
matrices; here each diagonal product is a row or column scaling of Y,
applied by broadcasting on the rows and columns the Jacobian keeps, so
assembly costs O(n^2) per iteration. The dense solve of the Jacobian, O(n^3),
is what remains of the cost on large cases.

A solution carries the injections V * conj(Y V) of its final mismatch
evaluation. A mismatch that is not finite is a divergence. Each batched stage
raises the first error it meets. Which scenario a scenario-by-scenario loop
would fail on first is found by ``dynamics.prepare_batch``, which prepares a
failing chunk again in halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GridCase, PQ, PV
from .ybus import YMatrix


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
class Loads:
    """Per scenario: bus loads, (scenarios, buses) in ascending bus-id order,
    and generator mechanical power, (scenarios, generators) in id order."""

    p_load: np.ndarray
    q_load: np.ndarray
    p_mech: np.ndarray

    def __len__(self) -> int:
        return len(self.p_load)

    def __getitem__(self, rows: slice) -> "Loads":
        return Loads(self.p_load[rows], self.q_load[rows], self.p_mech[rows])

    @classmethod
    def of_case(cls, case: GridCase) -> "Loads":
        """The case's own loads and mechanical power, as a batch of one."""
        return cls(p_load=np.array([[b.p_load for b in case.buses]], dtype=float),
                   q_load=np.array([[b.q_load for b in case.buses]], dtype=float),
                   p_mech=np.array([[g.p_mech for g in case.generators]], dtype=float))


@dataclass(frozen=True, eq=False)
class PowerFlowSolution:
    """One operating point."""

    v_mag: np.ndarray       # per bus, ascending id order
    v_ang: np.ndarray       # rad
    iterations: int
    max_mismatch: float
    injections: np.ndarray  # complex net injection V * conj(Y V) per bus

    def voltage(self) -> np.ndarray:
        """Complex bus voltage phasors."""
        return self.v_mag * np.exp(1j * self.v_ang)


@dataclass(frozen=True, eq=False)
class BatchSolution:
    """One operating point per scenario: ``PowerFlowSolution``'s fields with
    a leading scenario axis, (scenarios, buses) or (scenarios,)."""

    v_mag: np.ndarray
    v_ang: np.ndarray
    iterations: np.ndarray
    max_mismatch: np.ndarray
    injections: np.ndarray

    @classmethod
    def of(cls, sol: PowerFlowSolution) -> "BatchSolution":
        """One solution as a batch of one."""
        return cls(sol.v_mag[None], sol.v_ang[None], np.array([sol.iterations]),
                   np.array([sol.max_mismatch]), sol.injections[None])

    def row(self, k: int) -> PowerFlowSolution:
        return PowerFlowSolution(v_mag=self.v_mag[k], v_ang=self.v_ang[k],
                                 iterations=int(self.iterations[k]),
                                 max_mismatch=float(self.max_mismatch[k]),
                                 injections=self.injections[k])


def generator_bus_rows(case: GridCase) -> np.ndarray:
    """Each generator's bus index."""
    idx = case.bus_index()
    return np.array([idx[g.bus] for g in case.generators], dtype=int)


def _specified_injections(case: GridCase, loads: Loads) -> np.ndarray:
    """Scheduled complex net injection per scenario and bus (generation minus load)."""
    p = -loads.p_load
    p[:, generator_bus_rows(case)] += loads.p_mech
    return p + 1j * -loads.q_load


def solve_batch(case: GridCase, ybus: np.ndarray, loads: Loads,
                tol: float = 1e-8, max_iter: int = 20) -> BatchSolution:
    """Newton-Raphson in polar form with an analytic Jacobian, for every
    scenario of ``loads`` over one dense matrix. Raises the first failure:
    at the first iteration where a scenario is stuck, the lowest stuck
    scenario's divergence; a singular Jacobian anywhere in the stack; an
    iterate leaving the feasible region."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if ybus.shape != (case.n, case.n):
        raise PowerFlowError(f"admittance dimension {ybus.shape[0]} != bus count {case.n}")
    s_spec = _specified_injections(case, loads)

    kinds = [b.kind for b in case.buses]
    pv = np.array([i for i, k in enumerate(kinds) if k == PV], dtype=int)
    pq = np.array([i for i, k in enumerate(kinds) if k == PQ], dtype=int)
    pvpq = np.concatenate([pv, pq])
    npv, m, npq = len(pv), len(pvpq), len(pq)
    y_kept = ybus[pvpq[:, None], pvpq]       # the rows and columns the Jacobian keeps
    diag_pvpq = np.arange(m)
    diag_pq = np.arange(npq)

    size = len(loads)
    out = BatchSolution(v_mag=np.empty((size, case.n)), v_ang=np.empty((size, case.n)),
                        iterations=np.zeros(size, dtype=int), max_mismatch=np.zeros(size),
                        injections=np.empty((size, case.n), dtype=complex))
    rows = np.arange(size)                   # the scenario of each working row
    jacobians = np.empty((size, m + npq, m + npq))
    vm = np.tile(np.array([b.v_mag for b in case.buses], dtype=float), (size, 1))
    va = np.tile(np.array([b.v_ang for b in case.buses], dtype=float), (size, 1))

    it = 0
    while True:
        v = vm * np.exp(1j * va)
        # a stack of Y @ v, bit for bit (V @ Y.T is not)
        ibus = np.matmul(ybus, v[:, :, None])[:, :, 0]
        s_inj = v * np.conj(ibus)
        mis = s_inj - s_spec[rows]
        f = np.concatenate([mis[:, pvpq].real, mis[:, pq].imag], axis=1)
        max_mis = np.max(np.abs(f), axis=1) if m else np.zeros(len(rows))
        done = max_mis < tol
        for field, value in ((out.v_mag, vm), (out.v_ang, va), (out.injections, s_inj),
                             (out.max_mismatch, max_mis)):
            field[rows[done]] = value[done]
        out.iterations[rows[done]] = it
        stuck = np.flatnonzero(~done & (~np.isfinite(max_mis) | (it >= max_iter)))
        if stuck.size:                       # rows ascend: the first is the lowest
            a = stuck[0]
            reason = (f"mismatch is not finite at iteration {it}"
                      if not np.isfinite(max_mis[a]) else
                      f"no convergence after {it} iterations (mismatch {max_mis[a]:.3e})")
            raise PowerFlowDivergedError(reason, it, float(max_mis[a]))
        if done.all():
            break
        keep = ~done
        rows, vm, va, v, ibus, f = rows[keep], vm[keep], va[keep], v[keep], ibus[keep], f[keep]

        # dSbus_dV entry by entry, with t_ik = V_i * conj(Y_ik * V_k):
        #   dS_i/dVa_k = -j * t_ik,     plus j * V_i * conj(I_i) when i == k
        #   dS_i/dVm_k = t_ik / |V_k|,  plus conj(I_i) * V_i / |V_i| when i == k
        vk = v[:, pvpq]
        vm_pq = vm[:, None, pq]
        t = y_kept * vk[:, None, :]
        np.conjugate(t, out=t)
        t *= vk[:, :, None]
        jac = jacobians[:len(rows)]
        jac[:, :m, :m] = t.imag
        np.negative(t.real[:, npv:], out=jac[:, m:, :m])
        np.divide(t.real[:, :, npv:], vm_pq, out=jac[:, :m, m:])
        np.divide(t.imag[:, npv:, npv:], vm_pq, out=jac[:, m:, m:])
        del t                                # free before the solve copies the Jacobian
        diag_va = 1j * vk * np.conj(ibus[:, pvpq])
        diag_vm = np.conj(ibus[:, pq]) * (v[:, pq] / vm[:, pq])
        jac[:, diag_pvpq, diag_pvpq] += diag_va.real
        jac[:, m + diag_pq, npv + diag_pq] += diag_va.imag[:, npv:]
        jac[:, npv + diag_pq, m + diag_pq] += diag_vm.real
        jac[:, m + diag_pq, m + diag_pq] += diag_vm.imag
        try:
            dx = np.linalg.solve(jac, f[:, :, None])
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"singular Jacobian at iteration {it}") from exc

        va[:, pvpq] -= dx[:, :m, 0]
        vm[:, pq] -= dx[:, m:, 0]
        it += 1
        if not (np.isfinite(vm).all() and np.isfinite(va).all() and (vm > 0).all()):
            raise PowerFlowDivergedError(
                f"iterate left the feasible region at iteration {it}", it, float("inf"))
    return out


def solve_power_flow(y: YMatrix, tol: float = 1e-8, max_iter: int = 20) -> PowerFlowSolution:
    """Newton-Raphson for the loads of ``y.case`` over ``y``: ``solve_batch``
    for a batch of one."""
    return solve_batch(y.case, y.to_dense(), Loads.of_case(y.case), tol, max_iter).row(0)


@dataclass(frozen=True, eq=False)
class Machines:
    """Classical machine parameters per scenario, each (scenarios, machines)
    in generator-id order."""

    e_mag: np.ndarray
    delta0: np.ndarray
    p_mech: np.ndarray
    h: np.ndarray
    d: np.ndarray

    def __len__(self) -> int:
        return len(self.e_mag)


def initialize_batch(case: GridCase, sol: BatchSolution, loads: Loads) -> Machines:
    """Internal EMF, rotor angle and mechanical power of every machine, per scenario.

    E∠δ0 = V + j·xd' · I_gen with I_gen from the generator's electrical output
    (the solution's net injection plus local load); p_mech is set to the
    machine's electrical power so the dynamic simulation starts at equilibrium.
    A zero terminal voltage raises, the lowest such scenario's first.

    Products and magnitudes are written out in real and imaginary parts, so
    that each row is bitwise what one generator's complex scalars give: the
    vectorized complex ``np.abs`` and the real part of a vectorized complex
    product both differ from the scalar ones in the last bit, while
    ``np.hypot(re, im)`` and ``er*cr - ei*ci`` match them.
    """
    gen_rows = generator_bus_rows(case)
    low = sol.v_mag[:, gen_rows] < 1e-9
    bad = np.flatnonzero(low.any(axis=1))
    if bad.size:
        g = case.generators[int(np.argmax(low[bad[0]]))]
        raise PowerFlowError(f"generator {g.id}: terminal voltage is zero at bus {g.bus}")
    v = (sol.v_mag * np.exp(1j * sol.v_ang))[:, gen_rows]
    s_gen = sol.injections[:, gen_rows]
    s_gen.real += loads.p_load[:, gen_rows]
    s_gen.imag += loads.q_load[:, gen_rows]
    i_gen = np.conj(s_gen / v)
    igr, igi = i_gen.real, i_gen.imag
    xd = np.array([g.xd_p for g in case.generators])
    # e = v + (1j * xd') * i_gen, where 1j * xd' is the Python complex (0, xd')
    er = v.real + (0.0 * igr - xd * igi)
    ei = v.imag + (0.0 * igi + xd * igr)
    shape = er.shape
    return Machines(e_mag=np.hypot(er, ei), delta0=np.arctan2(ei, er),
                    p_mech=er * igr - ei * -igi,
                    h=np.broadcast_to([g.h for g in case.generators], shape),
                    d=np.broadcast_to([g.d for g in case.generators], shape))


def initialize_machines(case: GridCase, sol: PowerFlowSolution) -> Machines:
    """The case's machines initialized at one solved operating point with its
    own loads: ``initialize_batch`` for a batch of one, a one-row ``Machines``."""
    return initialize_batch(case, BatchSolution.of(sol), Loads.of_case(case))
