"""Sparse complex admittance matrix: construction, region partials, merging, fault variants.

Every matrix keeps its per-entry contribution list keyed by origin (branch id,
bus shunt, fault shunt). Entry values are folded from contributions in a fixed
canonical order (branches by ascending id, then shunts by ascending bus id,
then fault shunts), so a matrix assembled from merged region partials is
bit-for-bit identical to one built whole, and removing a branch reproduces a
fresh build of the modified case exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .model import Branch, CaseError, FaultSpec, GridCase, validate_fault

# contribution sort keys: (kind, id); kind 0 = branch, 1 = bus shunt, 2 = fault
_KIND_BRANCH = 0
_KIND_SHUNT = 1
_KIND_FAULT = 2

Entry = tuple[int, int]
ContribKey = tuple[int, int]


class YBusError(CaseError):
    """Base for admittance-assembly failures."""


class DegenerateBranchError(YBusError):
    pass


class UnknownRegionError(YBusError):
    pass


class PartitionError(YBusError):
    """Partition or bus-ownership map does not cover the case."""


class DuplicateCoverageError(YBusError):
    """Two partials claim the same branch (or bus shunt)."""


class IncompleteCoverageError(YBusError):
    """Merged branch set does not match the expected set."""


class YMatrix:
    """Structurally symmetric sparse complex nodal admittance matrix.

    ``entries`` maps (row, col) -> complex value; rows/cols index buses in
    ascending-id order. ``contribs`` maps (row, col) -> sorted tuple of
    ((kind, id), complex) terms whose ordered sum is the entry value.
    """

    __slots__ = ("n", "entries", "contribs")

    def __init__(self, n: int, contribs: dict[Entry, tuple[tuple[ContribKey, complex], ...]]):
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


def _fold(terms: tuple[tuple[ContribKey, complex], ...]) -> complex:
    total = complex(0.0, 0.0)
    for _, value in terms:
        total += value
    return total


class _Builder:
    """Accumulates keyed contributions, emits a canonically ordered YMatrix."""

    def __init__(self, n: int):
        self.n = n
        self._acc: dict[Entry, list[tuple[ContribKey, complex]]] = {}

    def add(self, pos: Entry, key: ContribKey, value: complex) -> None:
        self._acc.setdefault(pos, []).append((key, value))

    def build(self) -> YMatrix:
        contribs = {pos: tuple(sorted(terms, key=lambda t: t[0]))
                    for pos, terms in self._acc.items()}
        return YMatrix(self.n, contribs)


def _branch_terms(br: Branch, idx: dict[int, int]):
    """The four stamp terms of one closed branch: (pos, value) pairs."""
    if br.r == 0.0 and br.x == 0.0:
        raise DegenerateBranchError(f"branch {br.id} has r = x = 0")
    y = 1.0 / complex(br.r, br.x)
    half_charge = complex(0.0, 0.5 * br.b_charge)
    f, t = idx[br.from_bus], idx[br.to_bus]
    off = -(y / br.tap)
    return [
        ((f, f), y / (br.tap * br.tap) + half_charge),
        ((t, t), y + half_charge),
        ((f, t), off),
        ((t, f), off),
    ]


def build_ybus(case: GridCase) -> YMatrix:
    """Stamp all Closed branches and bus shunts of a case.

    Per closed branch with series admittance y = 1/(r + jx): off-diagonals get
    -y/tap, diagonal(from) y/tap^2 + j*b_charge/2, diagonal(to) y + j*b_charge/2.
    Open branches contribute nothing; zero shunts are not stamped.
    """
    idx = case.bus_index()
    b = _Builder(case.n)
    for br in case.branches:
        if not br.closed:
            continue
        for pos, value in _branch_terms(br, idx):
            b.add(pos, (_KIND_BRANCH, br.id), value)
    for bus in case.buses:
        if bus.shunt_g != 0.0 or bus.shunt_b != 0.0:
            i = idx[bus.id]
            b.add((i, i), (_KIND_SHUNT, bus.id), complex(bus.shunt_g, bus.shunt_b))
    return b.build()


class PartialAdmittance:
    """One region's additive share of the full matrix.

    Carries the branch stamps it owns plus the shunts of its owned buses, with
    provenance, so merging can re-fold contributions in canonical order.
    """

    __slots__ = ("region", "n", "branch_ids", "shunt_bus_ids", "contribs", "entries")

    def __init__(self, region: str, n: int, branch_ids: set[int], shunt_bus_ids: set[int],
                 contribs: dict[Entry, tuple[tuple[ContribKey, complex], ...]]):
        self.region = region
        self.n = n
        self.branch_ids = frozenset(branch_ids)
        self.shunt_bus_ids = frozenset(shunt_bus_ids)
        self.contribs = contribs
        self.entries: dict[Entry, complex] = {
            pos: _fold(terms) for pos, terms in contribs.items()
        }

    def __repr__(self) -> str:
        return (f"PartialAdmittance(region={self.region!r}, n={self.n}, "
                f"branches={len(self.branch_ids)}, nnz={len(self.entries)})")

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
        acc: dict[Entry, list[tuple[ContribKey, complex]]] = {}
        for i, j, kind, kid, re, im in payload["terms"]:
            acc.setdefault((int(i), int(j)), []).append(
                ((int(kind), int(kid)), complex(re, im)))
        contribs = {pos: tuple(sorted(terms, key=lambda t: t[0]))
                    for pos, terms in acc.items()}
        return cls(
            region=payload["region"],
            n=int(payload["n"]),
            branch_ids=set(payload["branch_ids"]),
            shunt_bus_ids=set(payload["shunt_bus_ids"]),
            contribs=contribs,
        )

    def to_json(self) -> bytes:
        return json.dumps(self.to_payload(), sort_keys=True,
                          separators=(",", ":")).encode()

    @classmethod
    def from_json(cls, blob: bytes) -> "PartialAdmittance":
        return cls.from_payload(json.loads(blob.decode()))


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

    idx = case.bus_index()
    acc: dict[Entry, list[tuple[ContribKey, complex]]] = {}
    branch_ids: set[int] = set()
    for br in case.branches:
        if not br.closed or partition[br.id] != region:
            continue
        branch_ids.add(br.id)
        for pos, value in _branch_terms(br, idx):
            acc.setdefault(pos, []).append(((_KIND_BRANCH, br.id), value))
    shunt_ids: set[int] = set()
    for bus in case.buses:
        if bus_owner[bus.id] != region:
            continue
        if bus.shunt_g != 0.0 or bus.shunt_b != 0.0:
            shunt_ids.add(bus.id)
            i = idx[bus.id]
            acc.setdefault((i, i), []).append(
                ((_KIND_SHUNT, bus.id), complex(bus.shunt_g, bus.shunt_b)))
    contribs = {pos: tuple(sorted(terms, key=lambda t: t[0]))
                for pos, terms in acc.items()}
    return PartialAdmittance(region, case.n, branch_ids, shunt_ids, contribs)


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

    seen_branches: set[int] = set()
    seen_shunts: set[int] = set()
    for p in sorted(parts, key=lambda p: p.region):
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

    b = _Builder(parts[0].n)
    for p in sorted(parts, key=lambda p: p.region):
        for pos, terms in p.contribs.items():
            for key, value in terms:
                b.add(pos, key, value)
    return b.build()


def fault_variants(y: YMatrix, case: GridCase, fault: FaultSpec) -> tuple[YMatrix, YMatrix, YMatrix]:
    """Pre-, on- and post-fault matrices for one fault specification.

    Y_pre is the input unchanged; Y_on adds the fault shunt to the faulted
    bus's diagonal; Y_post drops the cleared branch's stamps (identical to a
    fresh build of the case with that branch Open), or Y_pre when nothing clears.
    """
    validate_fault(case, fault)
    idx = case.bus_index()
    f = idx[fault.faulted_bus]

    on_contribs = dict(y.contribs)
    key = (_KIND_FAULT, 0)
    pos = (f, f)
    on_contribs[pos] = y.contribs.get(pos, ()) + ((key, fault.y_fault),)
    y_on = YMatrix(y.n, on_contribs)

    if fault.cleared_branch is None:
        return y, y_on, y

    drop = (_KIND_BRANCH, fault.cleared_branch)
    if not any(k == drop for terms in y.contribs.values() for k, _ in terms):
        raise YBusError(f"cleared branch {fault.cleared_branch} is not stamped in the matrix")
    post_contribs: dict[Entry, tuple[tuple[ContribKey, complex], ...]] = {}
    for p, terms in y.contribs.items():
        kept = tuple(t for t in terms if t[0] != drop)
        if kept:
            post_contribs[p] = kept
    return y, y_on, YMatrix(y.n, post_contribs)
