"""Seeded synthetic grid case: case9 plus a PQ lattice hung off three of its buses.

The lattice has ``ROWS`` x ``COLS`` PQ buses joined to their four neighbours.
Tie branches join case9's load buses 5 (R1), 8 (R2) and 6 (R3) to the middle
row of the lattice, and the lattice columns are split between the three
regions in thirds, so the case keeps case9's three regions and only its
three machines. Every lattice branch is Closed and the lattice is
2-edge-connected, so opening any single lattice branch leaves the grid
connected, which is the only topology change the benchmark draws on it.

Line impedances and loads are drawn from ``random.Random(SEED)``. The seed is
fixed, so every workload seed times the same grid. Loads are small (total
~0.5 p.u. across the lattice), so Newton-Raphson converges from the stored
flat operating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gridmesh.model import Branch, Bus, GridCase, dump_case, parse_case

SEED = 509
ROWS = 20
COLS = 25
FIRST_LATTICE_BUS = 10
FIRST_LATTICE_BRANCH = 10
# case9 bus -> (region, lattice column it ties into)
TIES = ((5, "R1", 3), (8, "R2", 12), (6, "R3", 21))


@dataclass(frozen=True)
class SynthCase:
    case: GridCase
    lattice_branch_ids: tuple[int, ...]
    text: str                    # dump_case output; parse_case(text) == case


def _region(col: int) -> str:
    return f"R{col * 3 // COLS + 1}"


def _bus_id(r: int, c: int) -> int:
    return FIRST_LATTICE_BUS + r * COLS + c


def lattice_case(base: GridCase) -> SynthCase:
    """``base`` (case9) plus the seeded lattice; round-trip checked."""
    rng = random.Random(SEED)

    buses = list(base.buses)
    for r in range(ROWS):
        for c in range(COLS):
            p = rng.uniform(0.0, 0.002)
            buses.append(Bus(id=_bus_id(r, c), kind="PQ", p_load=p,
                             q_load=p * rng.uniform(0.2, 0.5), owner_region=_region(c)))

    branches = list(base.branches)
    bid = FIRST_LATTICE_BRANCH
    lattice = []

    def add(a: int, b: int, region: str, r_pu: float, x: float, b_ch: float) -> int:
        nonlocal bid
        branches.append(Branch(id=bid, from_bus=a, to_bus=b, r=r_pu, x=x,
                               b_charge=b_ch, owner_region=region))
        bid += 1
        return bid - 1

    for r in range(ROWS):
        for c in range(COLS):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < ROWS and c + dc < COLS:
                    lattice.append(add(_bus_id(r, c), _bus_id(r + dr, c + dc), _region(c),
                                       rng.uniform(0.002, 0.01), rng.uniform(0.01, 0.04),
                                       rng.uniform(0.0, 0.01)))
    for bus, region, col in TIES:
        add(bus, _bus_id(ROWS // 2, col), region, 0.005, 0.03, 0.0)

    case = GridCase(buses=tuple(buses), branches=tuple(branches),
                    generators=base.generators, base_mva=base.base_mva,
                    freq_hz=base.freq_hz)
    text = dump_case(case)
    if parse_case(text) != case:
        raise ValueError("synthetic case does not round-trip through dump_case/parse_case")
    return SynthCase(case=case, lattice_branch_ids=tuple(lattice), text=text)
