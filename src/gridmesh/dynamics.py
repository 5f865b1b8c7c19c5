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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FaultSpec, GridCase, validate_fault
from .powerflow import PowerFlowSolution
from .ybus import YMatrix, fault_variants

MAX_STORED_POINTS = 5000

STABLE = "Stable"
UNSTABLE = "Unstable"


class DynamicsError(Exception):
    pass


class SingularNetworkError(DynamicsError):
    pass


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
    y_red_pre: np.ndarray
    y_red_on: np.ndarray
    y_red_post: np.ndarray

    def __post_init__(self):
        m = self.y_red_pre.shape[0]
        for name in ("y_red_pre", "y_red_on", "y_red_post"):
            mat = getattr(self, name)
            if mat.shape != (m, m):
                raise DynamicsError(f"{name} is not {m}x{m}")
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
    """Eliminate every node not in ``keep``: Y_kk - Y_ke * Y_ee^-1 * Y_ek."""
    keep = np.asarray(keep, dtype=int)
    eliminated = np.ones(y.shape[0], dtype=bool)
    eliminated[keep] = False
    elim = np.flatnonzero(eliminated)
    ykk = y[np.ix_(keep, keep)]
    if elim.size == 0:
        return ykk.copy()
    yke = y[np.ix_(keep, elim)]
    yek = y[np.ix_(elim, keep)]
    yee = y[np.ix_(elim, elim)]
    try:
        x = np.linalg.solve(yee, yek)
    except np.linalg.LinAlgError as exc:
        raise SingularNetworkError("eliminated block is singular") from exc
    return ykk - yke @ x


def kron_reduce(y: np.ndarray, case: GridCase, sol: PowerFlowSolution) -> np.ndarray:
    """Reduce the dense bus-level matrix to the generator internal nodes.

    Loads are converted to constant admittances y_load = (P - jQ)/|V|^2 at the
    solved voltages; each machine couples through 1/(j xd'). Internal nodes are
    appended after the physical buses, in generator-id order.
    """
    n, m = case.n, len(case.generators)
    if m == 0:
        raise DynamicsError("case has no generators")
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
    return kron_eliminate(aug, np.arange(n, n + m))


def reduce_network(case: GridCase, sol: PowerFlowSolution, fault: FaultSpec,
                   y: YMatrix) -> ReducedNetwork:
    """Pre/on/post-fault reduced matrices for one fault, sharing one operating point."""
    y_pre, y_on, y_post = fault_variants(y, case, fault)
    return ReducedNetwork(
        y_red_pre=kron_reduce(y_pre, case, sol),
        y_red_on=kron_reduce(y_on, case, sol),
        y_red_post=kron_reduce(y_post, case, sol),
    )


def _snap_step(t: float, dt: float, name: str) -> int:
    k = round(t / dt)
    if abs(k * dt - t) > 1e-9:
        raise SwitchTimeError(f"{name}={t} is not a multiple of dt={dt}")
    return k


def simulate_dynamics(case: GridCase, net: ReducedNetwork, fault: FaultSpec,
                      cfg: SimulationConfig) -> SimulationResult:
    """Integrate one machine set through the fault sequence (``simulate_batch``
    with one scenario)."""
    return simulate_batch([case], [net], fault, cfg)[0]


def simulate_batch(cases: list[GridCase], nets: list[ReducedNetwork], fault: FaultSpec,
                   cfg: SimulationConfig) -> list[SimulationResult]:
    """Integrate the swing equations of every scenario through one fault sequence.

    Scenario s is ``cases[s]`` with its reduced network ``nets[s]``; every case
    has the same machine count and must have been initialized
    (powerflow.initialize_machines). All scenarios step together in one RK4
    loop over a ``(scenarios, 2 * machines)`` state ``[delta | dw]``; each row
    gets exactly the arithmetic of a one-scenario run, so a trajectory does not
    depend on the batch it ran in. Trajectories are stored decimated to at most
    ``MAX_STORED_POINTS`` samples per machine; verdicts are evaluated at full
    resolution. If any scenario goes non-finite, ``NumericBlowupError`` names
    the lowest-index one, at the time it blows up on its own.
    """
    if len(cases) != len(nets):
        raise DynamicsError(f"{len(cases)} cases but {len(nets)} reduced networks")
    if not cases:
        return []
    m = len(cases[0].generators)
    for case, net in zip(cases, nets):
        validate_fault(case, fault)
        if len(case.generators) != m:
            raise DynamicsError("scenarios differ in machine count")
        if net.y_red_pre.shape[0] != m:
            raise DynamicsError("reduced network dimension != machine count")

    def per_machine(attr: str) -> np.ndarray:
        return np.array([[getattr(g, attr) for g in case.generators] for case in cases])

    e = per_machine("e_mag")
    h = per_machine("h")
    damp = per_machine("d")
    pm = per_machine("p_mech")
    ee = e[:, :, None] * e[:, None, :]
    ws = cfg.omega_s
    acc = 1.0 / (2.0 * h)

    k_fault = _snap_step(fault.t_fault, cfg.dt, "t_fault")
    k_clear = _snap_step(fault.t_clear, cfg.dt, "t_clear")
    n_steps = int(math.floor(cfg.t_end / cfg.dt + 1e-9))

    mats = []
    for name in ("y_red_pre", "y_red_on", "y_red_post"):
        y_red = np.array([getattr(net, name) for net in nets])
        mats.append((ee * y_red.real, ee * y_red.imag))

    def deriv(state: np.ndarray, phase: int) -> np.ndarray:
        g_ee, b_ee = mats[phase]
        delta, dw = state[:, :m], state[:, m:]
        dij = delta[:, :, None] - delta[:, None, :]
        pe = np.add.reduce(g_ee * np.cos(dij) + b_ee * np.sin(dij), axis=2)
        return np.concatenate([ws * dw, acc * (pm - pe - damp * dw)], axis=1)

    n = len(cases)
    state = np.concatenate([per_machine("delta0"), np.zeros((n, m))], axis=1)

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
