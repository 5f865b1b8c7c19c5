"""Sparse complex admittance matrix: construction, region partials, merging, fault variants.

Every matrix keeps its per-entry contribution list keyed by origin (branch id
or bus shunt). One stamp helper makes the terms, and one helper puts each
entry's terms in canonical order (branches by ascending id, then shunts by
ascending bus id) for a whole build, a region partial, a partial read back
from its payload and a merge alike, so merged region partials fold
bit-for-bit to the whole build. ``fault_variants`` adds a fault shunt after
an entry's terms and re-folds only the entries a cleared branch touches.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .model import Branch, Bus, CaseError, FaultSpec, GridCase, validate_fault

# contribution sort keys: (kind, id); kind 0 = branch, 1 = bus shunt
_KIND_BRANCH = 0
_KIND_SHUNT = 1

Entry = tuple[int, int]
ContribKey = tuple[int, int]
Terms = tuple[tuple[ContribKey, complex], ...]


class YBusError(CaseError):
    """Base for admittance-assembly failures."""


class UnknownRegionError(YBusError):
    pass


class PartitionError(YBusError):
    """Partition or bus-ownership map does not cover the case."""


class DuplicateCoverageError(YBusError):
    """Two partials claim the same branch (or bus shunt)."""


class IncompleteCoverageError(YBusError):
    """Merged branch set does not match the expected set."""


class PartialPayloadError(YBusError):
    """A partial's term lies outside its matrix or belongs to a branch or
    shunt the partial does not declare."""


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


def _canonical(terms: Iterable[tuple[Entry, ContribKey, complex]]) -> dict[Entry, Terms]:
    """Group (pos, key, value) terms by entry, each entry's terms in key order."""
    acc: dict[Entry, list[tuple[ContribKey, complex]]] = {}
    for pos, key, value in terms:
        acc.setdefault(pos, []).append((key, value))
    return {pos: tuple(sorted(ts, key=lambda t: t[0])) for pos, ts in acc.items()}


def _stamps(case: GridCase, branches: Iterable[Branch], shunt_buses: Iterable[Bus]):
    """The (pos, key, value) terms of the given closed branches and bus shunts.

    Per branch with series admittance y = 1/(r + jx): off-diagonals get
    -y/tap, diagonal(from) y/tap^2 + j*b_charge/2, diagonal(to) y + j*b_charge/2.
    """
    idx = case.bus_index()
    for br in branches:
        y = 1.0 / complex(br.r, br.x)
        half_charge = complex(0.0, 0.5 * br.b_charge)
        f, t = idx[br.from_bus], idx[br.to_bus]
        off = -(y / br.tap)
        key = (_KIND_BRANCH, br.id)
        yield (f, f), key, y / (br.tap * br.tap) + half_charge
        yield (t, t), key, y + half_charge
        yield (f, t), key, off
        yield (t, f), key, off
    for bus in shunt_buses:
        i = idx[bus.id]
        yield (i, i), (_KIND_SHUNT, bus.id), complex(bus.shunt_g, bus.shunt_b)


def _has_shunt(bus: Bus) -> bool:
    return bus.shunt_g != 0.0 or bus.shunt_b != 0.0


def build_ybus(case: GridCase) -> YMatrix:
    """Stamp all Closed branches and bus shunts of a case.

    Open branches contribute nothing; zero shunts are not stamped.
    """
    branches = [br for br in case.branches if br.closed]
    shunts = [bus for bus in case.buses if _has_shunt(bus)]
    return YMatrix(case.n, _canonical(_stamps(case, branches, shunts)))


class PartialAdmittance:
    """One region's additive share of the full matrix.

    Carries the branch stamps it owns plus the shunts of its owned buses, with
    provenance, so merging can re-fold contributions in canonical order.
    """

    __slots__ = ("region", "n", "branch_ids", "shunt_bus_ids", "contribs")

    def __init__(self, region: str, n: int, branch_ids: set[int], shunt_bus_ids: set[int],
                 contribs: dict[Entry, Terms]):
        self.region = region
        self.n = n
        self.branch_ids = frozenset(branch_ids)
        self.shunt_bus_ids = frozenset(shunt_bus_ids)
        self.contribs = contribs

    def __repr__(self) -> str:
        return (f"PartialAdmittance(region={self.region!r}, n={self.n}, "
                f"branches={len(self.branch_ids)}, nnz={len(self.contribs)})")

    def to_payload(self) -> dict:
        terms = []
        for (i, j) in sorted(self.contribs):
            for (kind, kid), v in self.contribs[(i, j)]:
                terms.append([i, j, kind, kid, v.real, v.imag])
        return {
            "region": self.region,
            "n": self.n,
            "branch_ids": sorted(self.branch_ids),
            "shunt_bus_ids": sorted(self.shunt_bus_ids),
            "terms": terms,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PartialAdmittance":
        """Read a partial back; every term must lie in the n x n matrix and
        belong to a branch or bus shunt the partial declares."""
        n = int(payload["n"])
        owned = {_KIND_BRANCH: set(payload["branch_ids"]),
                 _KIND_SHUNT: set(payload["shunt_bus_ids"])}
        terms = []
        for i, j, kind, kid, re, im in payload["terms"]:
            pos, key = (int(i), int(j)), (int(kind), int(kid))
            if not (0 <= pos[0] < n and 0 <= pos[1] < n):
                raise PartialPayloadError(f"term at {pos} lies outside the {n}x{n} matrix")
            if key[1] not in owned.get(key[0], ()):
                raise PartialPayloadError(f"term {key} at {pos} belongs to no branch or "
                                          f"shunt of region {payload['region']!r}")
            terms.append((pos, key, complex(re, im)))
        return cls(region=payload["region"], n=n, branch_ids=owned[_KIND_BRANCH],
                   shunt_bus_ids=owned[_KIND_SHUNT], contribs=_canonical(terms))


def build_partial(case: GridCase, region: str, partition: dict[int, str],
                  bus_owner: dict[int, str]) -> PartialAdmittance:
    """Stamp exactly the branches assigned to ``region`` plus its owned bus shunts."""
    closed = case.closed_branch_ids()
    missing = closed - set(partition)
    if missing:
        raise PartitionError(f"partition does not cover closed branches {sorted(missing)}")
    uncovered = {b.id for b in case.buses} - set(bus_owner)
    if uncovered:
        raise PartitionError(f"bus_owner does not cover buses {sorted(uncovered)}")
    known = set(partition.values()) | set(bus_owner.values()) | set(case.regions())
    if region not in known:
        raise UnknownRegionError(f"region {region!r} not declared anywhere in the case")

    branches = [br for br in case.branches if br.closed and partition[br.id] == region]
    shunts = [bus for bus in case.buses if bus_owner[bus.id] == region and _has_shunt(bus)]
    return PartialAdmittance(region, case.n, {br.id for br in branches},
                             {bus.id for bus in shunts},
                             _canonical(_stamps(case, branches, shunts)))


def build_partials(case: GridCase) -> dict[str, PartialAdmittance]:
    """One partial per region using the case's declared ownership."""
    partition = case.branch_partition()
    owners = case.bus_owner()
    return {r: build_partial(case, r, partition, owners) for r in case.regions()}


def merge_partials(parts: list[PartialAdmittance], expected_branches: set[int]) -> YMatrix:
    """Combine disjoint region partials into the full matrix.

    Contributions from all partials are re-folded in the canonical stamp order,
    so the merge of a valid full partition reproduces :func:`build_ybus` exactly.
    """
    if not parts:
        raise IncompleteCoverageError("no partials to merge")
    dims = {p.n for p in parts}
    if len(dims) != 1:
        raise YBusError(f"partials disagree on dimension: {sorted(dims)}")

    parts = sorted(parts, key=lambda p: p.region)
    seen_branches: set[int] = set()
    seen_shunts: set[int] = set()
    for p in parts:
        dup = seen_branches & p.branch_ids
        if dup:
            raise DuplicateCoverageError(
                f"branches {sorted(dup)} stamped by more than one region")
        dup_sh = seen_shunts & p.shunt_bus_ids
        if dup_sh:
            raise DuplicateCoverageError(
                f"bus shunts {sorted(dup_sh)} stamped by more than one region")
        seen_branches |= p.branch_ids
        seen_shunts |= p.shunt_bus_ids

    if seen_branches != set(expected_branches):
        missing = sorted(set(expected_branches) - seen_branches)
        extra = sorted(seen_branches - set(expected_branches))
        raise IncompleteCoverageError(
            f"branch coverage mismatch: missing={missing} unexpected={extra}")

    return YMatrix(parts[0].n, _canonical(
        (pos, key, value) for p in parts
        for pos, terms in p.contribs.items() for key, value in terms))


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
