"""Grid data model: buses, branches, generators, fault specs, and the case file format.

All electrical quantities are per-unit on the system MVA base; angles are in
radians. A ``GridCase`` is immutable; topology and load changes produce new cases via
:func:`with_branch_status` / :func:`with_bus_loads`.

Case file format (plain text, '#' starts a comment)::

    [meta]
    base_mva,freq_hz
    [bus]
    id,kind,v_mag,v_ang,p_load,q_load,shunt_g,shunt_b,owner_region
    [branch]
    id,from_bus,to_bus,r,x,b_charge,tap,status,owner_region
    [gen]
    id,bus,h,d,xd_p,p_mech

Bus ``owner_region`` is optional (defaults to "R1"). A blank branch
``owner_region`` inherits the owning region of its from-bus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter
from pathlib import Path

SLACK = "Slack"
PV = "PV"
PQ = "PQ"
CLOSED = "Closed"
OPEN = "Open"

DEFAULT_REGION = "R1"


class CaseError(ValueError):
    """Raised when a grid case violates a structural invariant."""


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str                 # Slack | PV | PQ
    v_mag: float = 1.0        # p.u.
    v_ang: float = 0.0        # rad
    p_load: float = 0.0
    q_load: float = 0.0
    shunt_g: float = 0.0
    shunt_b: float = 0.0
    owner_region: str = DEFAULT_REGION


@dataclass(frozen=True)
class Branch:
    id: int
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charge: float = 0.0
    tap: float = 1.0
    status: str = CLOSED
    owner_region: str = ""    # blank = inherit from_bus owner

    @property
    def closed(self) -> bool:
        return self.status == CLOSED


@dataclass(frozen=True)
class Generator:
    id: int
    bus: int
    h: float                  # inertia constant, s (machine on system base)
    d: float                  # damping, p.u.
    xd_p: float               # transient reactance, p.u.
    p_mech: float = 0.0


@dataclass(frozen=True)
class FaultSpec:
    faulted_bus: int
    t_fault: float
    t_clear: float
    cleared_branch: int | None = None


@dataclass(frozen=True)
class GridCase:
    """Static network plus a stored operating point.

    Buses, branches and generators are kept sorted by ascending id; every
    per-bus array in the package follows that order.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    base_mva: float = 100.0
    freq_hz: float = 60.0

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(sorted(self.buses, key=lambda b: b.id)))
        object.__setattr__(self, "branches", tuple(sorted(self.branches, key=lambda b: b.id)))
        object.__setattr__(self, "generators", tuple(sorted(self.generators, key=lambda g: g.id)))
        _validate(self)

    # -- index helpers -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.buses)

    def bus_index(self) -> dict[int, int]:
        """Map bus id -> row/column index (ascending-id order)."""
        return {b.id: i for i, b in enumerate(self.buses)}

    def bus(self, bus_id: int) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise CaseError(f"unknown bus id {bus_id}")

    def branch(self, branch_id: int) -> Branch:
        for br in self.branches:
            if br.id == branch_id:
                return br
        raise CaseError(f"unknown branch id {branch_id}")

    def load_bus_ids(self) -> list[int]:
        """Ids of buses carrying load (nonzero P or Q), ascending."""
        return [b.id for b in self.buses if b.p_load != 0.0 or b.q_load != 0.0]

    def bus_owner(self) -> dict[int, str]:
        return {b.id: b.owner_region for b in self.buses}

    def branch_owners(self) -> dict[int, str]:
        """Region owning each branch, Open or Closed (blank owner inherits from_bus)."""
        owners = self.bus_owner()
        return {br.id: br.owner_region or owners[br.from_bus] for br in self.branches}

    def branch_partition(self) -> dict[int, str]:
        """Region owning each Closed branch."""
        owners = self.branch_owners()
        return {br.id: owners[br.id] for br in self.branches if br.closed}

    def regions(self) -> list[str]:
        """Every region that owns a bus or a branch, Open or Closed: a region
        whose branches are all open still takes part (with an empty partial)."""
        return sorted(set(self.bus_owner().values()) | set(self.branch_owners().values()))

    # -- derived cases -------------------------------------------------

    def with_branch_status(self, assignments: dict[int, str]) -> "GridCase":
        """New case with branch statuses set absolutely (idempotent deltas)."""
        known = {br.id for br in self.branches}
        for bid, st in assignments.items():
            if bid not in known:
                raise CaseError(f"unknown branch id {bid} in status assignment")
            if st not in (CLOSED, OPEN):
                raise CaseError(f"bad branch status {st!r}")
        new = tuple(
            replace(br, status=assignments[br.id]) if br.id in assignments else br
            for br in self.branches
        )
        return replace(self, branches=new)

    def with_bus_loads(self, loads: dict[int, tuple[float, float]]) -> "GridCase":
        """New case with (p_load, q_load) set absolutely on the given buses."""
        known = {b.id for b in self.buses}
        for bid in loads:
            if bid not in known:
                raise CaseError(f"unknown bus id {bid} in load assignment")
        new = tuple(
            replace(b, p_load=loads[b.id][0], q_load=loads[b.id][1])
            if b.id in loads else b
            for b in self.buses
        )
        return replace(self, buses=new)


def _validate(case: GridCase) -> None:
    for cls, recs in ((GridCase, (case,)), (Bus, case.buses), (Branch, case.branches),
                      (Generator, case.generators)):
        names = [n for n, t in cls.__annotations__.items() if t == "float"]  # annotations are str
        if not all(map(math.isfinite, chain.from_iterable(map(attrgetter(*names), recs)))):
            rec, name = next((r, n) for r in recs for n in names if not math.isfinite(getattr(r, n)))
            what = cls.__name__.lower() + ("" if rec is case else f" {rec.id}")
            raise CaseError(f"{what} {name} must be finite, got {getattr(rec, name)}")
    ids = [b.id for b in case.buses]
    if len(set(ids)) != len(ids):
        raise CaseError("duplicate bus ids")
    if any(b.id < 1 for b in case.buses):
        raise CaseError("bus ids must be >= 1")
    if any(b.v_mag <= 0 for b in case.buses):
        raise CaseError("bus v_mag must be > 0")
    slacks = [b.id for b in case.buses if b.kind == SLACK]
    if len(slacks) != 1:
        raise CaseError(f"exactly one Slack bus required, found {len(slacks)}")
    if any(b.kind not in (SLACK, PV, PQ) for b in case.buses):
        raise CaseError("bus kind must be Slack, PV or PQ")

    bids = [br.id for br in case.branches]
    if len(set(bids)) != len(bids):
        raise CaseError("duplicate branch ids")
    kinds = {b.id: b.kind for b in case.buses}
    for br in case.branches:
        if br.from_bus == br.to_bus:
            raise CaseError(f"branch {br.id} is a self-loop")
        if br.from_bus not in kinds or br.to_bus not in kinds:
            raise CaseError(f"branch {br.id} references unknown bus")
        if br.r == 0.0 and br.x == 0.0:
            raise CaseError(f"branch {br.id} has r = x = 0")
        if br.tap <= 0:
            raise CaseError(f"branch {br.id} tap must be > 0")
        if br.status not in (CLOSED, OPEN):
            raise CaseError(f"branch {br.id} has bad status {br.status!r}")

    gids = [g.id for g in case.generators]
    if len(set(gids)) != len(gids):
        raise CaseError("duplicate generator ids")
    gen_buses = [g.bus for g in case.generators]
    if len(set(gen_buses)) != len(gen_buses):
        raise CaseError("at most one generator per bus")
    for g in case.generators:
        if g.bus not in kinds:
            raise CaseError(f"generator {g.id} references unknown bus {g.bus}")
        if kinds[g.bus] == PQ:
            raise CaseError(f"generator {g.id} sits on PQ bus {g.bus}; "
                            "generator buses must be Slack or PV")
        if g.h <= 0 or g.xd_p <= 0:
            raise CaseError(f"generator {g.id} needs h, xd_p > 0")

    if case.buses and not _connected(case):
        raise CaseError("grid is not connected over Closed branches")


def _connected(case: GridCase) -> bool:
    adj: dict[int, list[int]] = {b.id: [] for b in case.buses}
    for br in case.branches:
        if br.closed:
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)
    start = case.buses[0].id
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(case.buses)


# ----------------------------------------------------------------------
# Case file I/O

def parse_case(text: str) -> GridCase:
    """Parse the sectioned comma-separated case format."""
    section = None
    base_mva, freq_hz = 100.0, 60.0
    buses: list[Bus] = []
    branches: list[Branch] = []
    gens: list[Generator] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("meta", "bus", "branch", "gen"):
                raise CaseError(f"line {lineno}: unknown section [{section}]")
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            if section == "meta":
                base_mva = float(fields[0])
                if len(fields) > 1:
                    freq_hz = float(fields[1])
            elif section == "bus":
                owner = fields[8] if len(fields) > 8 and fields[8] else DEFAULT_REGION
                buses.append(Bus(
                    id=int(fields[0]), kind=fields[1],
                    v_mag=float(fields[2]), v_ang=float(fields[3]),
                    p_load=float(fields[4]), q_load=float(fields[5]),
                    shunt_g=float(fields[6]), shunt_b=float(fields[7]),
                    owner_region=owner,
                ))
            elif section == "branch":
                owner = fields[8] if len(fields) > 8 else ""
                branches.append(Branch(
                    id=int(fields[0]), from_bus=int(fields[1]), to_bus=int(fields[2]),
                    r=float(fields[3]), x=float(fields[4]), b_charge=float(fields[5]),
                    tap=float(fields[6]), status=fields[7], owner_region=owner,
                ))
            elif section == "gen":
                gens.append(Generator(
                    id=int(fields[0]), bus=int(fields[1]),
                    h=float(fields[2]), d=float(fields[3]), xd_p=float(fields[4]),
                    p_mech=float(fields[5])))
            else:
                raise CaseError(f"line {lineno}: record outside any section")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, CaseError):
                raise
            raise CaseError(f"line {lineno}: bad record {line!r}: {exc}") from exc
    return GridCase(buses=tuple(buses), branches=tuple(branches),
                    generators=tuple(gens), base_mva=base_mva, freq_hz=freq_hz)


def load_case(path: str | Path) -> GridCase:
    return parse_case(Path(path).read_text())


def dump_case(case: GridCase) -> str:
    lines = ["[meta]", f"{case.base_mva:g},{case.freq_hz:g}", "[bus]"]
    for b in case.buses:
        lines.append(f"{b.id},{b.kind},{b.v_mag!r},{b.v_ang!r},{b.p_load!r},"
                     f"{b.q_load!r},{b.shunt_g!r},{b.shunt_b!r},{b.owner_region}")
    lines.append("[branch]")
    for br in case.branches:
        lines.append(f"{br.id},{br.from_bus},{br.to_bus},{br.r!r},{br.x!r},"
                     f"{br.b_charge!r},{br.tap!r},{br.status},{br.owner_region}")
    lines.append("[gen]")
    for g in case.generators:
        lines.append(f"{g.id},{g.bus},{g.h!r},{g.d!r},{g.xd_p!r},{g.p_mech!r}")
    return "\n".join(lines) + "\n"


def bundled_case_path(name: str) -> Path:
    """Path of a case fixture shipped with the package (e.g. 'case9')."""
    return Path(__file__).parent / "cases" / f"{name}.txt"


def load_bundled_case(name: str) -> GridCase:
    return load_case(bundled_case_path(name))


def validate_fault(case: GridCase, fault: FaultSpec) -> None:
    if not (0 <= fault.t_fault < fault.t_clear < math.inf):
        raise CaseError("fault times must be finite and satisfy 0 <= t_fault < t_clear")
    case.bus(fault.faulted_bus)
    if fault.cleared_branch is not None:
        br = case.branch(fault.cleared_branch)
        if not br.closed:
            raise CaseError(f"cleared branch {br.id} is not Closed pre-fault")


def fault_to_dict(fault: FaultSpec) -> dict:
    return {
        "faulted_bus": fault.faulted_bus,
        "cleared_branch": fault.cleared_branch,
        "t_fault": fault.t_fault,
        "t_clear": fault.t_clear,
    }


def fault_from_dict(d: dict) -> FaultSpec:
    return FaultSpec(
        faulted_bus=int(d["faulted_bus"]),
        cleared_branch=None if d.get("cleared_branch") is None else int(d["cleared_branch"]),
        t_fault=float(d["t_fault"]),
        t_clear=float(d["t_clear"]),
    )
