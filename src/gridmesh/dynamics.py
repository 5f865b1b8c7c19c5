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
delta_j|, equivalently the range about the center of inertia) exceeds
``ANGLE_THRESHOLD``.

Scenarios that share a topology are prepared and integrated as one batch,
each array carrying a leading scenario axis, over one ``YMatrix`` and the
view that is its ``case``: ``prepare_batch`` solves every scenario's power
flow (``powerflow.solve_batch``, where a scenario freezes once its own
mismatch passes the tolerance), initializes its machines, builds the fault
variants of the one dense matrix once and reduces all scenarios of each
variant in one stacked Kron elimination; ``simulate_batch`` then steps them
all in one RK4 loop over buffers allocated once per call, and checks and
samples their states once per block of ``BLOCK_STEPS`` steps rather than at
every step. Every scenario gets the bytes it gets alone, and a Topology
run's ``reduce_network`` and ``simulate_dynamics`` are ``reduce_batch`` and
``simulate_batch`` for a batch of one. The stacked Jacobians and augmented
matrices grow with scenarios x buses^2, so ``prepare_batch`` takes the
scenarios in consecutive chunks whose working arrays fit in
``PREPARE_BUDGET_BYTES``; on a small case one chunk holds them all. A stage
raises the first error it meets; a chunk that fails is prepared again in two
halves, lower half first, down to the one scenario that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import FaultSpec, GridCase
from .powerflow import (BatchSolution, Loads, Machines, PowerFlowError, PowerFlowSolution,
                        generator_bus_rows, initialize_batch, solve_batch)
from .ybus import YMatrix, fault_variants

MAX_STORED_POINTS = 5000

# A run is Unstable once its rotor-angle spread exceeds this many radians.
ANGLE_THRESHOLD = math.pi

# RK4 steps whose full-resolution states simulate_batch holds before it checks
# and samples them: a (BLOCK_STEPS + 1, scenarios, 2 * machines) float buffer.
BLOCK_STEPS = 32

STABLE = "Stable"
UNSTABLE = "Unstable"

_VARIANTS = ("y_red_pre", "y_red_on", "y_red_post")

# The working arrays of the scenarios prepared at once stay under this many
# bytes, whatever the case's size and the number of scenarios.
PREPARE_BUDGET_BYTES = 64 << 20


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

    def __post_init__(self):
        if not (0 < self.dt <= 0.02):
            raise DynamicsError(f"dt must lie in (0, 0.02], got {self.dt}")
        for name in ("t_end", "omega_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DynamicsError(f"{name} must be finite and > 0, got {value}")

    def to_dict(self) -> dict:
        return {"t_end": self.t_end, "dt": self.dt, "omega_s": self.omega_s}

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationConfig":
        return cls(t_end=float(d["t_end"]), dt=float(d["dt"]), omega_s=float(d["omega_s"]))


@dataclass(frozen=True, eq=False)
class ReducedNetwork:
    """Pre-, on- and post-fault reduced matrices, (scenarios, machines,
    machines) each."""

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
    reduced bit for bit as it is alone. If any eliminated block is singular,
    raises ``SingularNetworkError``.
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
    try:
        x = np.linalg.solve(yee, yek)
    except np.linalg.LinAlgError as exc:
        raise SingularNetworkError("eliminated block is singular") from exc
    return ykk - yke @ x


def kron_reduce(y: np.ndarray, case: GridCase, sol: BatchSolution, loads: Loads) -> np.ndarray:
    """Reduce the dense bus-level matrix to the generator internal nodes, for
    every scenario; ``sol`` and ``loads`` hold one row per scenario.
    ``reduce_batch`` calls it once per fault variant (``bench/tracing.py``
    times it by this name).

    Loads are converted to constant admittances y_load = (P - jQ)/|V|^2 at the
    solved voltages; each machine couples through 1/(j xd'). Internal nodes are
    appended after the physical buses, in generator-id order. A singular
    eliminated block raises ``SingularNetworkError``.

    Each load admittance is added in real and imaginary parts, because numpy's
    complex division differs from Python's ``complex(p, -q) / vm**2`` in the
    last bit; 1/(j xd') is computed with Python's complex, as one case did.
    """
    n, m = case.n, len(case.generators)
    if m == 0:
        raise DynamicsError("case has no generators")
    gen_rows = generator_bus_rows(case)
    nodes = np.arange(n, n + m)
    aug = np.zeros((len(loads), n + m, n + m), dtype=complex)
    aug[:, :n, :n] = y
    idx = case.bus_index()
    load_cols = [idx[b] for b in case.load_bus_ids()]
    vm2 = sol.v_mag[:, load_cols] * sol.v_mag[:, load_cols]
    aug.real[:, load_cols, load_cols] += loads.p_load[:, load_cols] / vm2
    aug.imag[:, load_cols, load_cols] -= loads.q_load[:, load_cols] / vm2
    yg = np.array([1.0 / complex(0.0, g.xd_p) for g in case.generators])
    aug[:, nodes, nodes] += yg
    aug[:, nodes, gen_rows] -= yg
    aug[:, gen_rows, nodes] -= yg
    aug[:, gen_rows, gen_rows] += yg
    return kron_eliminate(aug, nodes)


def reduce_network(y: YMatrix, sol: PowerFlowSolution, fault: FaultSpec) -> ReducedNetwork:
    """Pre/on/post-fault reduced matrices for one fault at one solved
    operating point with the loads of ``y.case``: ``reduce_batch`` for a
    batch of one, each matrix a stack of one."""
    return reduce_batch(y.case, BatchSolution.of(sol), Loads.of_case(y.case),
                        fault_variants(y, fault))


def reduce_batch(case: GridCase, sol: BatchSolution, loads: Loads,
                 variants: tuple[np.ndarray, ...]) -> ReducedNetwork:
    """Every scenario's reduced matrices of the pre/on/post-fault ``variants``
    (from ``fault_variants``). Raises the first failing variant's error: a
    singular eliminated block, then a reduced matrix that is not finite."""
    return ReducedNetwork(*(kron_reduce(v, case, sol, loads) for v in variants))


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


def prepare_batch(y: YMatrix, loads: Loads,
                  fault: FaultSpec) -> tuple[Machines, ReducedNetwork]:
    """Every scenario of ``y.case`` in ``loads``: its initialized machines and
    reduced network, over one dense matrix and one set of fault variants.

    The scenarios go through in consecutive chunks of ``chunk_rows``; each
    row is computed as it is alone, so the chunking changes no byte. A chunk
    runs the stages in a scenario-by-scenario loop's order: power flow and
    machine initialization, then the fault variants (built once, when the
    first chunk gets that far) and the reductions. A chunk whose stages
    raise a ``PowerFlowError`` or ``DynamicsError`` is prepared again as two
    halves, lower half first, and so on down to a single failing scenario,
    whose error is raised named ``scenario <k>: ``. Since the lower half
    always goes first, that is the error the loop meets first, and no later
    scenario is prepared.
    """
    case, dense = y.case, y.to_dense()
    variants = None

    def prepare(first: int, chunk: Loads) -> list[tuple[Machines, ReducedNetwork]]:
        nonlocal variants
        try:
            sol = solve_batch(case, dense, chunk)
            machines = initialize_batch(case, sol, chunk)
            if variants is None:
                variants = fault_variants(y, fault)
            return [(machines, reduce_batch(case, sol, chunk, variants))]
        except (PowerFlowError, DynamicsError) as exc:
            if len(chunk) == 1:
                exc.args = (f"scenario {first}: {exc}",)
            if len(chunk) < 2:
                raise
        half = len(chunk) // 2
        return prepare(first, chunk[:half]) + prepare(first + half, chunk[half:])

    size = chunk_rows(case)
    parts = [part for first in range(0, max(len(loads), 1), size)
             for part in prepare(first, loads[first:first + size])]
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


def simulate_dynamics(machines: Machines, net: ReducedNetwork, fault: FaultSpec,
                      cfg: SimulationConfig) -> SimulationResult:
    """Integrate one scenario, a one-row ``machines`` and ``net``, through the
    fault sequence: ``simulate_batch`` for a batch of one."""
    return simulate_batch(machines, net, fault, cfg)[0]


def _mark_first(at: np.ndarray, hits: np.ndarray, first_step: int) -> None:
    """Set ``at[s]``, where still -1, to the first step whose row of ``hits``
    is true in column s; row i of ``hits`` is step ``first_step + i``."""
    hit = hits.any(axis=0) & (at < 0)
    if hit.any():
        at[hit] = first_step + hits.argmax(axis=0)[hit]


def simulate_batch(machines: Machines, net: ReducedNetwork, fault: FaultSpec,
                   cfg: SimulationConfig) -> list[SimulationResult]:
    """Integrate the swing equations of every scenario through one fault sequence.

    Scenario s is row s of ``machines`` (initialized, e.g. by
    ``prepare_batch``) and of the stacked reduced network ``net``; the fault
    must have been checked against the case (``fault_variants`` does). All
    scenarios step together in one RK4 loop over a ``(scenarios, 2 *
    machines)`` state ``[delta | dw]``; each row gets exactly the arithmetic
    of a one-scenario run, so a trajectory does not depend on the batch it
    ran in. Every array the steps write is allocated once per call and
    written in place. The loop keeps the full-resolution states of ``BLOCK_STEPS``
    steps; after each block, one vectorized pass finds each scenario's first
    non-finite step and first step over ``ANGLE_THRESHOLD``, and copies out
    the decimated samples (at most ``MAX_STORED_POINTS`` per machine, the
    last step always among them). If any scenario goes non-finite,
    ``NumericBlowupError`` names the lowest-index one, at the time it blows
    up on its own; the loop stops after the block in which scenario 0 does.
    """
    if len(machines) != len(net.y_red_pre):
        raise DynamicsError(f"{len(machines)} machine sets but {len(net.y_red_pre)} "
                            "reduced networks")
    if not len(machines):
        return []
    n, m = machines.e_mag.shape
    if net.y_red_pre.shape[1:] != (m, m):
        raise DynamicsError("reduced network dimension != machine count")

    damp = machines.d
    pm = machines.p_mech
    dt = cfg.dt

    k_fault = _snap_step(fault.t_fault, dt, "t_fault")
    k_clear = _snap_step(fault.t_clear, dt, "t_clear")
    n_steps = int(math.floor(cfg.t_end / dt + 1e-9))

    # Per phase, G*EE and B*EE are one (2, scenarios, m, m) block, so that one
    # multiply by the cos/sin block of the same layout forms both products.
    gb = np.empty((3, 2, n, m, m))
    phase_gb = list(gb)
    dij = np.empty((n, m, m))
    cs = np.empty((2, n, m, m))
    cos_dij, sin_dij = cs
    prod = np.empty((2, n, m, m))
    g_terms, b_terms = prod
    pe = np.empty((n, m))
    damped = np.empty((n, m))

    def views(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """delta as a column and as a row, and dw, of the states ``x``."""
        return x[:, :m, None], x[:, None, :m], x[:, m:]

    # The loop makes some 56 numpy calls per step on small arrays, so it binds
    # their names once, and its scalars as 0-d arrays that numpy does not
    # convert again on every call.
    add, subtract, multiply, cos, sin = np.add, np.subtract, np.multiply, np.cos, np.sin
    add_reduce = np.add.reduce
    ws, dt_, half_dt, sixth_dt, two = (np.array(v) for v in
                                       (cfg.omega_s, dt, 0.5 * dt, dt / 6.0, 2.0))

    def deriv(x: tuple, out: tuple, g: np.ndarray) -> None:
        """Write into ``out`` (the delta and dw halves of one k buffer) the
        derivative at the states whose ``views`` are ``x``, in phase ``g``."""
        dcol, drow, dw = x
        subtract(dcol, drow, out=dij)
        cos(dij, out=cos_dij)
        sin(dij, out=sin_dij)
        multiply(g, cs, out=prod)
        add(g_terms, b_terms, out=g_terms)
        add_reduce(g_terms, axis=-1, out=pe)
        multiply(ws, dw, out=out[0])
        subtract(pm, pe, out=pe)
        multiply(damp, dw, out=damped)
        subtract(pe, damped, out=pe)
        multiply(acc, pe, out=out[1])

    ks = np.empty((4, n, 2 * m))
    k1, k2, k3, k4 = ks
    k_out = [(k[:, :m], k[:, m:]) for k in ks]
    k2_k3 = ks[1:3]
    stage = np.empty((n, 2 * m))
    stage_x = views(stage)

    # row 0 holds the state before the block, row j the state after its step j
    block = np.empty((BLOCK_STEPS + 1, n, 2 * m))
    block[0, :, :m] = machines.delta0
    block[0, :, m:] = 0.0
    rows = list(block)
    rows_x = [views(row) for row in rows]

    # decimated samples go straight into one buffer; results are views of it
    stride = max(1, math.ceil((n_steps + 1) / MAX_STORED_POINTS))
    keep = list(range(0, n_steps + 1, stride))
    if keep[-1] != n_steps:
        keep.append(n_steps)
    samples = np.empty((n, 2 * m, len(keep)))
    unstable_at = np.full(n, -1)         # first step over the threshold, per scenario
    blown_at = np.full(n, -1)            # first non-finite step, per scenario

    def check(k0: int, held: np.ndarray) -> None:
        """The per-step checks and sampling, over the states of steps
        ``k0``, ``k0 + 1``, ... held in ``held``."""
        delta = held[:, :, :m]
        spread = np.maximum.reduce(delta, axis=2) - np.minimum.reduce(delta, axis=2)
        _mark_first(unstable_at, spread > ANGLE_THRESHOLD, k0)
        _mark_first(blown_at, ~np.isfinite(held[1:]).all(axis=2), k0 + 1)
        first = -(-k0 // stride) * stride
        picked = held[first - k0::stride]
        samples[:, :, first // stride:first // stride + len(picked)] = np.moveaxis(picked, 0, -1)
        if k0 + len(held) - 1 == n_steps and n_steps % stride:
            samples[:, :, -1] = held[-1]

    with np.errstate(all="ignore"):
        # 1/(2h) and the E products may overflow; the states then go
        # non-finite, which the block checks report as NumericBlowupError
        acc = 1.0 / (2.0 * machines.h)
        ee = machines.e_mag[:, :, None] * machines.e_mag[:, None, :]
        for phase, y_red in enumerate((net.y_red_pre, net.y_red_on, net.y_red_post)):
            np.multiply(ee, y_red.real, out=gb[phase, 0])
            np.multiply(ee, y_red.imag, out=gb[phase, 1])
        for k0 in range(0, max(n_steps, 1), BLOCK_STEPS):
            if k0:
                np.copyto(rows[0], rows[BLOCK_STEPS])
            nb = min(BLOCK_STEPS, n_steps - k0)
            for j in range(1, nb + 1):
                k = k0 + j - 1
                g = phase_gb[0 if k < k_fault else (1 if k < k_clear else 2)]
                state = rows[j - 1]
                deriv(rows_x[j - 1], k_out[0], g)
                multiply(half_dt, k1, out=stage)
                add(state, stage, out=stage)
                deriv(stage_x, k_out[1], g)
                multiply(half_dt, k2, out=stage)
                add(state, stage, out=stage)
                deriv(stage_x, k_out[2], g)
                multiply(dt_, k3, out=stage)
                add(state, stage, out=stage)
                deriv(stage_x, k_out[3], g)
                # state + dt/6 * (k1 + 2 k2 + 2 k3 + k4), summed left to right
                multiply(two, k2_k3, out=k2_k3)
                add(k1, k2, out=k1)
                add(k1, k3, out=k1)
                add(k1, k4, out=k1)
                multiply(sixth_dt, k1, out=k1)
                add(state, k1, out=rows[j])
            check(k0, block[:nb + 1])
            if blown_at[0] >= 0:
                break                      # no lower index is left to blow up

    blown = np.flatnonzero(blown_at >= 0)
    if blown.size:
        s = int(blown[0])
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


def assess_run(results: list[tuple[float, SimulationResult]]) -> SecurityReport:
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
