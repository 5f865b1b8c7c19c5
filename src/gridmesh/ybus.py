"""Sparse complex admittance matrix: construction, region partials, merging, fault variants.

A region partial carries stamp values, not matrix positions: the three
admittance terms of each Closed branch its region owns and the nonzero shunt
of each bus its region owns. The same two helpers compute those values for
a whole build and a region partial, and one helper places them at the case's
own bus indices and folds every entry's terms in canonical order (branches by
ascending id, then shunts by ascending bus id), for a whole build and a merge
alike, so merged region partials fold bit-for-bit to the whole build. The
merge first checks that the partials cover exactly the case's Closed branches
and nonzero shunts, each once. Every matrix keeps its per-entry terms keyed by
origin, so ``fault_variants`` adds a fault shunt after an entry's terms and
re-folds only the entries a cleared branch touches.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterable

import numpy as np

from .model import Branch, Bus, CaseError, FaultSpec, GridCase, validate_fault

# contribution sort keys: (kind, id); kind 0 = branch, 1 = bus shunt
_KIND_BRANCH = 0
_KIND_SHUNT = 1

Entry = tuple[int, int]
ContribKey = tuple[int, int]
Terms = tuple[tuple[ContribKey, complex], ...]
Stamp = tuple[complex, complex, complex]      # from-diagonal, to-diagonal, off-diagonal


class YBusError(CaseError):
    """Base for admittance-assembly failures."""


class UnknownRegionError(YBusError):
    pass


class DuplicateCoverageError(YBusError):
    """Two partials claim the same branch (or bus shunt)."""


class IncompleteCoverageError(YBusError):
    """The partials' branches or shunts do not match the case's."""


class PartialPayloadError(YBusError):
    """A partial names one branch or bus shunt twice, or carries a value
    that is not finite."""


class YMatrix:
    """Structurally symmetric sparse complex nodal admittance matrix.

    ``entries`` maps (row, col) -> complex value; rows/cols index buses in
    ascending-id order. ``contribs`` maps (row, col) -> sorted tuple of
    ((kind, id), complex) terms whose ordered sum is the entry value.
    """

    __slots__ = ("n", "entries", "contribs")

    def __init__(self, n: int, contribs: dict[Entry, Terms]):
        self.n = n
        self.contribs = contribs
        self.entries: dict[Entry, complex] = {
            pos: _fold(terms) for pos, terms in contribs.items()
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, YMatrix):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __repr__(self) -> str:
        return f"YMatrix(n={self.n}, nnz={len(self.entries)})"

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n), dtype=complex)
        for (i, j), v in self.entries.items():
            dense[i, j] = v
        return dense


def _fold(terms: Terms) -> complex:
    total = complex(0.0, 0.0)
    for _, value in terms:
        total += value
    return total


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


def _place(case: GridCase, stamps: dict[int, Stamp], shunts: dict[int, complex]) -> YMatrix:
    """The matrix of the given stamps at the case's own bus indices, each
    entry's terms folded in key order."""
    idx = case.bus_index()
    ends = {br.id: (idx[br.from_bus], idx[br.to_bus]) for br in case.branches}
    acc: dict[Entry, list[tuple[ContribKey, complex]]] = {}
    for bid, (ff, tt, off) in stamps.items():
        f, t = ends[bid]
        key = (_KIND_BRANCH, bid)
        for pos, value in (((f, f), ff), ((t, t), tt), ((f, t), off), ((t, f), off)):
            acc.setdefault(pos, []).append((key, value))
    for bus_id, value in shunts.items():
        i = idx[bus_id]
        acc.setdefault((i, i), []).append(((_KIND_SHUNT, bus_id), value))
    return YMatrix(case.n, {pos: tuple(sorted(ts, key=lambda t: t[0]))
                            for pos, ts in acc.items()})


def build_ybus(case: GridCase) -> YMatrix:
    """Stamp all Closed branches and bus shunts of a case.

    Open branches contribute nothing; zero shunts are not stamped.
    """
    return _place(case, _branch_stamps(case.branches), _shunts(case.buses))


class PartialAdmittance:
    """One region's additive share of the full matrix: the stamp of each
    Closed branch it owns, by branch id, and the nonzero shunt of each bus it
    owns, by bus id."""

    __slots__ = ("region", "branches", "shunts")

    def __init__(self, region: str, branches: dict[int, Stamp], shunts: dict[int, complex]):
        self.region = region
        self.branches = branches
        self.shunts = shunts

    def __repr__(self) -> str:
        return (f"PartialAdmittance(region={self.region!r}, "
                f"branches={len(self.branches)}, shunts={len(self.shunts)})")

    def to_payload(self) -> dict:
        return {
            "region": self.region,
            "branches": [[bid] + [x for v in stamp for x in (v.real, v.imag)]
                         for bid, stamp in sorted(self.branches.items())],
            "shunts": [[bus_id, v.real, v.imag] for bus_id, v in sorted(self.shunts.items())],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PartialAdmittance":
        """Read a partial back; it may name each branch and bus shunt once,
        and every value must be finite."""
        branches = {int(bid): (complex(ff_re, ff_im), complex(tt_re, tt_im),
                               complex(off_re, off_im))
                    for bid, ff_re, ff_im, tt_re, tt_im, off_re, off_im in payload["branches"]}
        shunts = {int(bus_id): complex(g, b) for bus_id, g, b in payload["shunts"]}
        if len(branches) < len(payload["branches"]) or len(shunts) < len(payload["shunts"]):
            raise PartialPayloadError("partial names a branch or bus shunt twice")
        values = [v for stamp in branches.values() for v in stamp] + list(shunts.values())
        if not all(cmath.isfinite(v) for v in values):
            raise PartialPayloadError("partial carries a non-finite value")
        return cls(payload["region"], branches, shunts)


def build_partial(case: GridCase, region: str) -> PartialAdmittance:
    """Stamp the Closed branches and nonzero bus shunts the case gives ``region``."""
    if region not in case.regions():
        raise UnknownRegionError(f"region {region!r} not declared anywhere in the case")
    owner = case.branch_owners()
    return PartialAdmittance(
        region, _branch_stamps(br for br in case.branches if owner[br.id] == region),
        _shunts(bus for bus in case.buses if bus.owner_region == region))


def build_partials(case: GridCase) -> dict[str, PartialAdmittance]:
    """One partial per region using the case's declared ownership."""
    return {r: build_partial(case, r) for r in case.regions()}


def _cover(what: str, claims: list[Iterable[int]], expected: set[int]) -> None:
    """Raise unless the claims name every expected id exactly once, and no other."""
    seen: set[int] = set()
    for ids in claims:
        dup = seen & set(ids)
        if dup:
            raise DuplicateCoverageError(f"{what} {sorted(dup)} stamped by more than one region")
        seen |= set(ids)
    if seen != expected:
        raise IncompleteCoverageError(
            f"{what} coverage mismatch: missing={sorted(expected - seen)} "
            f"unexpected={sorted(seen - expected)}")


def merge_partials(case: GridCase, parts: list[PartialAdmittance]) -> YMatrix:
    """Place region partials at the case's own bus indices.

    The partials must cover exactly the case's Closed branches and nonzero bus
    shunts, each once. Their stamps are then placed and folded as
    :func:`build_ybus` places and folds a whole build's, so the merge of every
    region's partial reproduces it exactly.
    """
    _cover("branches", [p.branches for p in parts], case.closed_branch_ids())
    _cover("bus shunts", [p.shunts for p in parts], set(_shunts(case.buses)))
    return _place(case, {bid: s for p in parts for bid, s in p.branches.items()},
                  {bus_id: v for p in parts for bus_id, v in p.shunts.items()})


def fault_variants(y: YMatrix, case: GridCase,
                   fault: FaultSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense pre-, on- and post-fault matrices for one fault specification.

    Y_pre is ``y.to_dense()``. Y_on adds the fault shunt to the faulted bus's
    diagonal, after that entry's other terms. Y_post re-folds only the cleared
    branch's four entries without its terms, so it is bitwise a fresh build of
    the case with that branch Open; with nothing cleared, Y_post is Y_pre.
    """
    validate_fault(case, fault)
    f = case.bus_index()[fault.faulted_bus]
    pre = y.to_dense()
    on = pre.copy()
    on[f, f] += fault.y_fault
    if fault.cleared_branch is None:
        return pre, on, pre

    drop = (_KIND_BRANCH, fault.cleared_branch)
    touched = [pos for pos, terms in y.contribs.items() if any(k == drop for k, _ in terms)]
    if not touched:
        raise YBusError(f"cleared branch {fault.cleared_branch} is not stamped in the matrix")
    post = pre.copy()
    for pos in touched:
        post[pos] = _fold(tuple(t for t in y.contribs[pos] if t[0] != drop))
    return pre, on, post
