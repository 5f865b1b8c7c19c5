"""Classical-model transient simulation over the reduced generator network.

Loads become constant shunt admittances at the solved voltages, generator
internal nodes attach through their transient reactances, and every non-source
bus is eliminated. Rotor dynamics per machine i, with dw the per-unit speed
deviation (so delta'' = omega_s/(2H) * accelerating power):

    ddelta_i/dt      = omega_s * dw_i
    2 H_i d(dw_i)/dt = Pm_i - Pe_i - D_i * dw_i
    Pe_i = sum_j E_i E_j (G_ij cos(delta_i - delta_j) + B_ij sin(delta_i - delta_j))

integrated with fixed-step RK4, switching the reduced matrix at the fault and
clearing instants (both snapped to step boundaries). The run is declared
Unstable the first time the rotor-angle spread (max pairwise |delta_i -
delta_j|, equivalently the range about the center of inertia) exceeds the
configured threshold.

Scenarios that share a topology are prepared and integrated as one batch,
each array carrying a leading scenario axis: ``prepare_batch`` solves every
scenario's power flow (``powerflow.solve_batch``, where a scenario freezes
once its own mismatch passes the tolerance), initializes its machines,
builds the fault variants of the one dense matrix once and reduces all
scenarios of each variant in one stacked Kron elimination;
``simulate_batch`` then steps them all in one RK4 loop. Every scenario gets
the bytes it gets alone, and the single-case ``reduce_network`` and
``simulate_dynamics`` are batches of one. The stacked Jacobians and
augmented matrices grow with scenarios x buses^2, so ``prepare_batch``
takes the scenarios in consecutive chunks whose working arrays fit in
``PREPARE_BUDGET_BYTES``; on a small case one chunk holds them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import FaultSpec, GridCase, validate_fault
from .powerflow import (Batch, BatchSolution, Loads, Machines, PowerFlowSolution,
                        generator_bus_rows, initialize_batch, solve_batch, solve_each)
from .ybus import YMatrix, fault_variants

MAX_STORED_POINTS = 5000

STABLE = "Stable"
UNSTABLE = "Unstable"

_VARIANTS = ("y_red_pre", "y_red_on", "y_red_post")

# The working arrays of the scenarios prepared at once stay under this many
# bytes, whatever the case's size and the number of scenarios.
PREPARE_BUDGET_BYTES = 64 << 20


class DynamicsError(Exception):
    pass


class SingularNetworkError(DynamicsError):
    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class SwitchTimeError(DynamicsError):
    """Fault/clearing time is not on the integration grid."""


class NumericBlowupError(DynamicsError):
    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class SimulationConfig:
    t_end: float
    dt: float = 0.005
    omega_s: float = 2 * math.pi * 60.0
    angle_threshold: float = math.pi

    def __post_init__(self):
        if not (0 < self.dt <= 0.02):
            raise DynamicsError(f"dt must lie in (0, 0.02], got {self.dt}")
        if self.t_end <= 0:
            raise DynamicsError("t_end must be > 0")

    def to_dict(self) -> dict:
        return {"t_end": self.t_end, "dt": self.dt, "omega_s": self.omega_s,
                "angle_threshold": self.angle_threshold}

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationConfig":
        return cls(t_end=float(d["t_end"]), dt=float(d["dt"]),
                   omega_s=float(d["omega_s"]),
                   angle_threshold=float(d["angle_threshold"]))


@dataclass(frozen=True, eq=False)
class ReducedNetwork:
    """Pre-, on- and post-fault reduced matrices, (machines, machines) each,
    or (scenarios, machines, machines) for a batch."""

    y_red_pre: np.ndarray
    y_red_on: np.ndarray
    y_red_post: np.ndarray

    def __post_init__(self):
        shape = self.y_red_pre.shape
        for name in _VARIANTS:
            mat = getattr(self, name)
            if mat.shape != shape or shape[-1:] != shape[-2:-1]:
                raise DynamicsError(f"{name} is not a stack of square matrices like y_red_pre")
            if not np.all(np.isfinite(mat)):
                raise DynamicsError(f"{name} has non-finite entries")


@dataclass(frozen=True, eq=False)
class SimulationResult:
    times: np.ndarray            # stored sample times, s
    delta: np.ndarray            # (machines, samples), rad
    omega_dev: np.ndarray        # (machines, samples), p.u. speed deviation
    verdict: str
    t_unstable: float | None = None

    def __post_init__(self):
        if (self.verdict == UNSTABLE) != (self.t_unstable is not None):
            raise DynamicsError("verdict Unstable iff t_unstable present")
        if self.delta.shape != self.omega_dev.shape or self.delta.shape[1] != len(self.times):
            raise DynamicsError("trajectory array shapes disagree")

    def to_payload(self) -> dict:
        return {
            "times": self.times.tolist(),
            "delta": self.delta.tolist(),
            "omega_dev": self.omega_dev.tolist(),
            "verdict": self.verdict,
            "t_unstable": self.t_unstable,
        }

    @classmethod
    def from_payload(cls, d: dict) -> "SimulationResult":
        return cls(times=np.array(d["times"], dtype=float),
                   delta=np.array(d["delta"], dtype=float),
                   omega_dev=np.array(d["omega_dev"], dtype=float),
                   verdict=d["verdict"],
                   t_unstable=None if d["t_unstable"] is None else float(d["t_unstable"]))


def kron_eliminate(y: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Eliminate every node not in ``keep``: Y_kk - Y_ke * Y_ee^-1 * Y_ek.

    ``y`` is one matrix or a stack of them on its last two axes; each is
    reduced bit for bit as it is alone. ``SingularNetworkError.row`` is the
    first matrix of the stack whose eliminated block is singular.
    """
    keep = np.asarray(keep, dtype=int)
    eliminated = np.ones(y.shape[-1], dtype=bool)
    eliminated[keep] = False
    elim = np.flatnonzero(eliminated)
    ykk = y[..., keep[:, None], keep]
    if elim.size == 0:
        return ykk
    yke = y[..., keep[:, None], elim]
    yek = y[..., elim[:, None], keep]
    yee = y[..., elim[:, None], elim]
    stack = (-1,) + yee.shape[-2:]
    x, singular = solve_each(yee.reshape(stack), yek.reshape((-1,) + yek.shape[-2:]))
    if singular is not None:
        raise SingularNetworkError("eliminated block is singular", row=len(x)) from singular
    return ykk - yke @ x.reshape(yek.shape)


def kron_reduce(y: np.ndarray, case: GridCase, sol: BatchSolution, loads: Loads,
                batch: Batch) -> np.ndarray:
    """Reduce the dense bus-level matrix to the generator internal nodes, for
    scenarios [0, batch.live); ``sol`` and ``loads`` hold one row per scenario.
    ``reduce_batch`` calls it once per fault variant (``bench/tracing.py``
    times it by this name).

    Loads are converted to constant admittances y_load = (P - jQ)/|V|^2 at the
    solved voltages; each machine couples through 1/(j xd'). Internal nodes are
    appended after the physical buses, in generator-id order. A scenario whose
    eliminated block is singular fails the batch.

    Each load admittance is added in real and imaginary parts, because numpy's
    complex division differs from Python's ``complex(p, -q) / vm**2`` in the
    last bit; 1/(j xd') is computed with Python's complex, as one case did.
    """
    n, m = case.n, len(case.generators)
    if m == 0:
        raise DynamicsError("case has no generators")
    gen_rows = generator_bus_rows(case)
    nodes = np.arange(n, n + m)
    live = batch.live
    aug = np.zeros((live, n + m, n + m), dtype=complex)
    aug[:, :n, :n] = y
    load_cols = [k for k, b in enumerate(case.buses) if b.p_load != 0.0 or b.q_load != 0.0]
    vm2 = sol.v_mag[:live, load_cols] * sol.v_mag[:live, load_cols]
    aug.real[:, load_cols, load_cols] += loads.p_load[:live, load_cols] / vm2
    aug.imag[:, load_cols, load_cols] -= loads.q_load[:live, load_cols] / vm2
    yg = np.array([1.0 / complex(0.0, g.xd_p) for g in case.generators])
    aug[:, nodes, nodes] += yg
    aug[:, nodes, gen_rows] -= yg
    aug[:, gen_rows, nodes] -= yg
    aug[:, gen_rows, gen_rows] += yg
    try:
        return kron_eliminate(aug, nodes)
    except SingularNetworkError as exc:
        batch.fail(exc.row, exc)
        return kron_eliminate(aug[:exc.row], nodes)


def reduce_network(case: GridCase, sol: PowerFlowSolution, fault: FaultSpec,
                   y: YMatrix) -> ReducedNetwork:
    """Pre/on/post-fault reduced matrices for one fault, sharing one operating
    point: ``reduce_batch`` for the case's own loads, a batch of one."""
    batch = Batch(1)
    net = reduce_batch(case, BatchSolution.of(sol), Loads.of_case(case),
                       fault_variants(y, case, fault), batch)
    batch.raise_error()
    return ReducedNetwork(net.y_red_pre[0], net.y_red_on[0], net.y_red_post[0])


def reduce_batch(case: GridCase, sol: BatchSolution, loads: Loads,
                 variants: tuple[np.ndarray, ...], batch: Batch) -> ReducedNetwork:
    """Every scenario's reduced matrices of the pre/on/post-fault ``variants``
    (from ``fault_variants``); a scenario whose matrices are singular or not
    finite fails the batch, the first failing variant first."""
    reduced = [kron_reduce(v, case, sol, loads, batch) for v in variants]
    for name, mat in zip(_VARIANTS, reduced):
        bad = np.flatnonzero(~np.isfinite(mat[:batch.live]).all(axis=(1, 2)))
        if bad.size:
            batch.fail(bad[0], DynamicsError(f"{name} has non-finite entries"))
    return ReducedNetwork(*(mat[:batch.live] for mat in reduced))


def chunk_rows(case: GridCase) -> int:
    """How many scenarios ``prepare_batch`` prepares at once.

    One scenario's working arrays take under 64 (n + g)^2 bytes for n buses
    and g machines: a Newton step holds a Jacobian of at most 2n x 2n floats
    and either the complex products it is built from or the copy that
    ``np.linalg.solve`` makes, and the Kron stage a complex augmented matrix
    of (n + g)^2 entries and its eliminated block.
    """
    row_bytes = 64 * (case.n + len(case.generators)) ** 2
    return max(1, PREPARE_BUDGET_BYTES // row_bytes)


def prepare_batch(case: GridCase, y: YMatrix, loads: Loads,
                  fault: FaultSpec) -> tuple[Machines, ReducedNetwork]:
    """Every scenario's initialized machines and reduced network, over one
    dense matrix and one set of fault variants.

    The scenarios go through in consecutive chunks of ``chunk_rows``; each
    row is computed as it is alone, so the chunking changes no byte. The
    stages run in a scenario-by-scenario loop's order: power flow and
    machine initialization for every scenario of a chunk, then, if the
    run's first scenario got through them, the fault variants (built once)
    and the chunk's reductions. A failing scenario raises the error that
    loop would meet first, named with its scenario, and later chunks are
    not prepared.
    """
    dense = y.to_dense()
    size = chunk_rows(case)
    variants = None
    parts = []
    for first in range(0, max(len(loads), 1), size):
        chunk = loads[first:first + size]
        batch = Batch(len(chunk), first)
        sol = solve_batch(case, dense, chunk, batch)
        machines = initialize_batch(case, sol, chunk, batch)
        if batch.live == 0:              # the chunk's first scenario never reached its fault
            batch.raise_error(name_row=True)
        if variants is None:
            variants = fault_variants(y, case, fault)
        net = reduce_batch(case, sol, chunk, variants, batch)
        batch.raise_error(name_row=True)
        parts.append((machines, net))
    if len(parts) == 1:
        return parts[0]
    return (Machines(*(np.concatenate([getattr(m, f.name) for m, _ in parts])
                       for f in fields(Machines))),
            ReducedNetwork(*(np.concatenate([getattr(net, name) for _, net in parts])
                             for name in _VARIANTS)))


def _snap_step(t: float, dt: float, name: str) -> int:
    k = round(t / dt)
    if abs(k * dt - t) > 1e-9:
        raise SwitchTimeError(f"{name}={t} is not a multiple of dt={dt}")
    return k


def simulate_dynamics(case: GridCase, net: ReducedNetwork, fault: FaultSpec,
                      cfg: SimulationConfig) -> SimulationResult:
    """Integrate one initialized machine set through the fault sequence
    (``simulate_batch`` with one scenario)."""
    validate_fault(case, fault)
    one = ReducedNetwork(net.y_red_pre[None], net.y_red_on[None], net.y_red_post[None])
    return simulate_batch(Machines.of_cases([case]), one, fault, cfg)[0]


def simulate_batch(machines: Machines, net: ReducedNetwork, fault: FaultSpec,
                   cfg: SimulationConfig) -> list[SimulationResult]:
    """Integrate the swing equations of every scenario through one fault sequence.

    Scenario s is row s of ``machines`` (initialized, e.g. by
    ``prepare_batch``) and of the stacked reduced network ``net``; the fault
    must have been checked against the case (``fault_variants`` does). All
    scenarios step together in one RK4 loop over a ``(scenarios, 2 *
    machines)`` state ``[delta | dw]``; each row gets exactly the arithmetic
    of a one-scenario run, so a trajectory does not depend on the batch it
    ran in. Trajectories are stored decimated to at most ``MAX_STORED_POINTS``
    samples per machine; verdicts are evaluated at full resolution. If any
    scenario goes non-finite, ``NumericBlowupError`` names the lowest-index
    one, at the time it blows up on its own.
    """
    if len(machines) != len(net.y_red_pre):
        raise DynamicsError(f"{len(machines)} machine sets but {len(net.y_red_pre)} "
                            "reduced networks")
    if not len(machines):
        return []
    n, m = machines.e_mag.shape
    if net.y_red_pre.shape[1:] != (m, m):
        raise DynamicsError("reduced network dimension != machine count")

    e = machines.e_mag
    damp = machines.d
    pm = machines.p_mech
    ee = e[:, :, None] * e[:, None, :]
    ws = cfg.omega_s
    acc = 1.0 / (2.0 * machines.h)

    k_fault = _snap_step(fault.t_fault, cfg.dt, "t_fault")
    k_clear = _snap_step(fault.t_clear, cfg.dt, "t_clear")
    n_steps = int(math.floor(cfg.t_end / cfg.dt + 1e-9))

    mats = [(ee * y_red.real, ee * y_red.imag)
            for y_red in (net.y_red_pre, net.y_red_on, net.y_red_post)]

    def deriv(state: np.ndarray, phase: int) -> np.ndarray:
        g_ee, b_ee = mats[phase]
        delta, dw = state[:, :m], state[:, m:]
        dij = delta[:, :, None] - delta[:, None, :]
        pe = np.add.reduce(g_ee * np.cos(dij) + b_ee * np.sin(dij), axis=2)
        return np.concatenate([ws * dw, acc * (pm - pe - damp * dw)], axis=1)

    state = np.concatenate([machines.delta0, np.zeros((n, m))], axis=1)

    # decimated samples go straight into one buffer; results are views of it
    stride = max(1, math.ceil((n_steps + 1) / MAX_STORED_POINTS))
    keep = list(range(0, n_steps + 1, stride))
    if keep[-1] != n_steps:
        keep.append(n_steps)
    samples = np.empty((n, 2 * m, len(keep)))
    samples[:, :, 0] = state

    unstable_at = np.full(n, -1)         # first step over the threshold, per scenario
    blown_at = np.zeros(n, dtype=int)    # first non-finite step, per scenario

    def mark_unstable(step: int) -> bool:
        """Record the scenarios first over the threshold at ``step``; called
        while one is still below it, returns whether one still is."""
        delta = state[:, :m]
        over = (np.maximum.reduce(delta, axis=1) - np.minimum.reduce(delta, axis=1)
                > cfg.angle_threshold)
        if not over.any():
            return True
        unstable_at[over & (unstable_at < 0)] = step
        return bool((unstable_at < 0).any())

    pending = mark_unstable(0)
    dt = cfg.dt
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            phase = 0 if k < k_fault else (1 if k < k_clear else 2)
            k1 = deriv(state, phase)
            k2 = deriv(state + 0.5 * dt * k1, phase)
            k3 = deriv(state + 0.5 * dt * k2, phase)
            k4 = deriv(state + dt * k3, phase)
            state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            step = k + 1
            if not np.isfinite(state).all():
                blown_at[~np.isfinite(state).all(axis=1) & (blown_at == 0)] = step
                if blown_at[0]:
                    break                  # no lower index is left to blow up
            if step % stride == 0:
                samples[:, :, step // stride] = state
            elif step == n_steps:
                samples[:, :, -1] = state
            if pending:
                pending = mark_unstable(step)

    if blown_at.any():
        s = int(np.flatnonzero(blown_at)[0])
        t = int(blown_at[s]) * dt
        raise NumericBlowupError(f"scenario {s}: non-finite state at t={t:.6f}s", t)

    times = np.array(keep, dtype=int) * dt
    results = []
    for s in range(n):
        t_unstable = None if unstable_at[s] < 0 else int(unstable_at[s]) * dt
        results.append(SimulationResult(
            times=times, delta=samples[s, :m], omega_dev=samples[s, m:],
            verdict=STABLE if t_unstable is None else UNSTABLE, t_unstable=t_unstable))
    return results


@dataclass(frozen=True)
class SecurityReport:
    insecurity_probability: float
    rows: tuple[dict, ...]       # per scenario: weight, verdict, t_unstable, ids

    def to_payload(self) -> dict:
        return {"insecurity_probability": self.insecurity_probability,
                "rows": list(self.rows)}

    @classmethod
    def from_payload(cls, d: dict) -> "SecurityReport":
        return cls(insecurity_probability=float(d["insecurity_probability"]),
                   rows=tuple(d["rows"]))


def assess_run(results: list[tuple[float, SimulationResult]],
               scenario_ids: list | None = None) -> SecurityReport:
    """Weighted probability that the system is insecure across scenarios."""
    if not results:
        raise DynamicsError("assess_run needs at least one scenario result")
    if any(w < 0 for w, _ in results):
        raise DynamicsError("scenario weights must be >= 0")
    total = sum(w for w, _ in results)
    if total <= 0:
        raise DynamicsError("scenario weights sum to zero")
    bad = sum(w for w, r in results if r.verdict == UNSTABLE)
    rows = []
    for i, (w, r) in enumerate(results):
        rows.append({
            "index": i,
            "scenario_id": scenario_ids[i] if scenario_ids else i,
            "weight": w,
            "verdict": r.verdict,
            "t_unstable": r.t_unstable,
        })
    return SecurityReport(insecurity_probability=bad / total, rows=tuple(rows))


def write_trajectory_csv(result: SimulationResult, path) -> None:
    """Trajectory export: header, one row per sample, then a final verdict line.

    Columns: t, delta_1..delta_m, omega_dev_1..omega_dev_m (machines in
    generator-id order). The last line is ``verdict,<Stable|Unstable>[,t_unstable]``.
    """
    m = result.delta.shape[0]
    lines = ["t," + ",".join(f"delta_{i+1}" for i in range(m)) + ","
             + ",".join(f"omega_dev_{i+1}" for i in range(m))]
    for s, t in enumerate(result.times):
        row = [repr(float(t))]
        row += [repr(float(result.delta[i, s])) for i in range(m)]
        row += [repr(float(result.omega_dev[i, s])) for i in range(m)]
        lines.append(",".join(row))
    if result.verdict == UNSTABLE:
        lines.append(f"verdict,{result.verdict},{result.t_unstable!r}")
    else:
        lines.append(f"verdict,{result.verdict}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
