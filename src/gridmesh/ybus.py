"""Admittance matrix construction, region partials, merging and fault variants.

A region partial carries stamp values, not matrix positions: the three
admittance terms of each Closed branch its region owns and the nonzero shunt
of each bus its region owns. The same two helpers compute those values for a
whole build and a region partial. A ``YMatrix`` is its stamps and shunts and
the case whose bus indices place them, the one statement of its view: the
compute path takes the matrix alone. One helper adds every term into a zeroed
dense array in canonical order (branches by ascending id, then shunts by
ascending bus id), so merged region partials place bit-for-bit as the whole
build. The merged matrix's case closes a branch exactly when its owner's
partial stamps it. ``fault_variants`` places the same stamps without the
cleared branch for the post-fault matrix.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterable

import numpy as np

from .model import CLOSED, OPEN, Branch, Bus, CaseError, FaultSpec, GridCase, validate_fault

Stamp = tuple[complex, complex, complex]      # from-diagonal, to-diagonal, off-diagonal
Y_FAULT = complex(0.0, -1e6)                  # fault shunt: a near-bolted three-phase fault


class YBusError(CaseError):
    """Base for admittance-assembly failures."""


class UnknownRegionError(YBusError):
    pass


class PartialMismatchError(YBusError):
    """The partials to merge do not match the case: a region's partial is
    missing or unknown, stamps a branch its region does not own or the case
    does not have, or does not carry exactly its region's nonzero shunts."""


class PartialPayloadError(YBusError):
    """A partial row is malformed, names one branch or bus shunt twice, or
    carries a value that is not finite."""


class YMatrix:
    """Nodal admittance matrix as its stamps: branch id -> stamp and bus id ->
    shunt, placed at the bus indices of ``case`` (ascending bus id)."""

    __slots__ = ("case", "branches", "shunts")

    def __init__(self, case: GridCase, branches: dict[int, Stamp], shunts: dict[int, complex]):
        self.case = case
        self.branches = branches
        self.shunts = shunts

    def __repr__(self) -> str:
        return (f"YMatrix(n={self.case.n}, branches={len(self.branches)}, "
                f"shunts={len(self.shunts)})")

    def to_dense(self) -> np.ndarray:
        return _place(self.case, self.branches, self.shunts)


def _branch_stamps(branches: Iterable[Branch]) -> dict[int, Stamp]:
    """The stamp of each given branch that is Closed.

    With series admittance y = 1/(r + jx): off-diagonals get -y/tap,
    diagonal(from) y/tap^2 + j*b_charge/2, diagonal(to) y + j*b_charge/2.
    """
    stamps = {}
    for br in branches:
        if br.closed:
            y = 1.0 / complex(br.r, br.x)
            half_charge = complex(0.0, 0.5 * br.b_charge)
            stamps[br.id] = (y / (br.tap * br.tap) + half_charge, y + half_charge,
                             -(y / br.tap))
    return stamps


def _shunts(buses: Iterable[Bus]) -> dict[int, complex]:
    """The shunt of each given bus whose shunt is nonzero."""
    return {bus.id: complex(bus.shunt_g, bus.shunt_b) for bus in buses
            if bus.shunt_g != 0.0 or bus.shunt_b != 0.0}


def _place(case: GridCase, stamps: dict[int, Stamp], shunts: dict[int, complex]) -> np.ndarray:
    """The dense matrix of the given stamps and shunts: every term added into
    a zeroed array at the case's own bus indices, one at a time in canonical
    order. The array is allocated last: allocated before the term arrays, it
    raised the peak RSS of runs on a 509-bus case by one matrix (4 MB) in
    most runs, through the heap's layout."""
    idx = case.bus_index()
    ends = {br.id: (idx[br.from_bus], idx[br.to_bus]) for br in case.branches}
    rows, cols, values = [], [], []
    for bid in sorted(stamps):
        f, t = ends[bid]
        ff, tt, off = stamps[bid]
        rows += (f, t, f, t)
        cols += (f, t, t, f)
        values += (ff, tt, off, off)
    for bus_id in sorted(shunts):
        rows.append(idx[bus_id])
        cols.append(idx[bus_id])
        values.append(shunts[bus_id])
    at = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))
    values = np.array(values, dtype=complex)
    dense = np.zeros((case.n, case.n), dtype=complex)
    np.add.at(dense, at, values)
    return dense


def build_ybus(case: GridCase) -> YMatrix:
    """Stamp all Closed branches and bus shunts of a case.

    Open branches contribute nothing; zero shunts are not stamped.
    """
    return YMatrix(case, _branch_stamps(case.branches), _shunts(case.buses))


class PartialAdmittance:
    """One region's additive share of the full matrix: the stamp of each
    Closed branch it owns, by branch id, and the nonzero shunt of each bus it
    owns, by bus id."""

    __slots__ = ("branches", "shunts")

    def __init__(self, branches: dict[int, Stamp], shunts: dict[int, complex]):
        self.branches = branches
        self.shunts = shunts

    def __repr__(self) -> str:
        return f"PartialAdmittance(branches={len(self.branches)}, shunts={len(self.shunts)})"

    def to_payload(self) -> dict:
        return {
            "branches": [[bid] + [x for v in stamp for x in (v.real, v.imag)]
                         for bid, stamp in sorted(self.branches.items())],
            "shunts": [[bus_id, v.real, v.imag] for bus_id, v in sorted(self.shunts.items())],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PartialAdmittance":
        """Read a partial back: each branch row is an integer id and six
        numbers, each shunt row an integer id and two; it may name each branch
        and bus shunt once, and every value must be finite."""
        try:
            branches = {bid: (complex(*v[0:2]), complex(*v[2:4]), complex(*v[4:6]))
                        for bid, *v in _rows(payload["branches"], 6)}
            shunts = {bus_id: complex(*v) for bus_id, *v in _rows(payload["shunts"], 2)}
        except OverflowError:                # an integer past the float range
            raise PartialPayloadError("partial carries a non-finite value") from None
        if len(branches) < len(payload["branches"]) or len(shunts) < len(payload["shunts"]):
            raise PartialPayloadError("partial names a branch or bus shunt twice")
        values = [v for stamp in branches.values() for v in stamp] + list(shunts.values())
        if not all(cmath.isfinite(v) for v in values):
            raise PartialPayloadError("partial carries a non-finite value")
        return cls(branches, shunts)


def _rows(rows: list, n_values: int) -> list:
    """``rows``, once each is a list of an integer id and ``n_values`` ints or
    floats (a bool or a string is neither)."""
    for row in rows:
        if not (isinstance(row, list) and len(row) == n_values + 1 and type(row[0]) is int
                and all(type(v) in (int, float) for v in row[1:])):
            raise PartialPayloadError(
                f"partial row {row!r} is not an integer id and {n_values} numbers")
    return rows


def build_partial(case: GridCase, region: str) -> PartialAdmittance:
    """Stamp the Closed branches and nonzero bus shunts the case gives ``region``."""
    if region not in case.regions():
        raise UnknownRegionError(f"region {region!r} not declared anywhere in the case")
    owner = case.branch_owners()
    return PartialAdmittance(
        _branch_stamps(br for br in case.branches if owner[br.id] == region),
        _shunts(bus for bus in case.buses if bus.owner_region == region))


def build_partials(case: GridCase) -> dict[str, PartialAdmittance]:
    """One partial per region using the case's declared ownership."""
    return {r: build_partial(case, r) for r in case.regions()}


def merge_partials(base: GridCase, parts: dict[str, PartialAdmittance]) -> YMatrix:
    """The matrix the region partials state; its ``case`` is their view.

    ``parts`` holds one partial for each region of ``base``. Each may stamp
    only branches its region owns, and must carry exactly the nonzero shunts
    of its region's buses. A branch is Closed in the view exactly when its
    owner's partial stamps it. The matrix places the partials' stamps as
    :func:`build_ybus` places a whole build's, so the merge of every region's
    partial of a view reproduces that view's build exactly.
    """
    regions = set(base.regions())
    problems = [f"{what} regions {sorted(ids)}" for what, ids in (
        ("missing", regions - parts.keys()), ("unknown", parts.keys() - regions)) if ids]
    owner, bus_owner, shunts = base.branch_owners(), base.bus_owner(), _shunts(base.buses)
    for region in sorted(regions & parts.keys()):
        stamped, carried = parts[region].branches.keys(), parts[region].shunts.keys()
        own_shunts = {bus_id for bus_id in shunts if bus_owner[bus_id] == region}
        for what, ids in (("stamps unknown branches", stamped - owner.keys()),
                          ("stamps foreign branches",
                           {bid for bid in stamped if owner.get(bid, region) != region}),
                          ("leaves out the shunts of buses", own_shunts - carried),
                          ("carries extra shunts of buses", carried - own_shunts)):
            if ids:
                problems.append(f"{region} {what} {sorted(ids)}")
    if problems:
        raise PartialMismatchError("; ".join(problems))
    stamps = {bid: s for part in parts.values() for bid, s in part.branches.items()}
    view = base.with_branch_status({br.id: CLOSED if br.id in stamps else OPEN
                                    for br in base.branches if br.closed != (br.id in stamps)})
    return YMatrix(view, stamps,
                   {bus_id: v for part in parts.values() for bus_id, v in part.shunts.items()})


def fault_variants(y: YMatrix, fault: FaultSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense pre-, on- and post-fault matrices for one fault specification.

    Y_pre is ``y.to_dense()``. Y_on adds the fault shunt ``Y_FAULT`` to the
    faulted bus's diagonal, after that entry's other terms. Y_post places the
    same stamps without the cleared branch's, so it is bitwise a fresh build
    of ``y.case`` with that branch Open; with nothing cleared, Y_post is Y_pre.
    """
    validate_fault(y.case, fault)
    f = y.case.bus_index()[fault.faulted_bus]
    pre = y.to_dense()
    on = pre.copy()
    on[f, f] += Y_FAULT
    if fault.cleared_branch is None:
        return pre, on, pre
    kept = {bid: s for bid, s in y.branches.items() if bid != fault.cleared_branch}
    return pre, on, _place(y.case, kept, y.shunts)
