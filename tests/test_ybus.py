import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmesh.model import Branch, Bus, CaseError, FaultSpec, GridCase, load_bundled_case
from gridmesh.powerflow import PowerFlowError, solve_power_flow
from gridmesh.wire import canonical_json
from gridmesh.ybus import (Y_FAULT, PartialAdmittance, PartialMismatchError,
                           PartialPayloadError, UnknownRegionError, build_partial,
                           build_partials, build_ybus, fault_variants, merge_partials)

from helpers import random_connected_case, reference_dense


def shipped(part):
    """A partial as the cloud reads it back from an edge's upload."""
    return PartialAdmittance.from_payload(json.loads(canonical_json(part.to_payload())))


def with_owners(case, region, branches=None, buses=None):
    """The case with every bus and branch owned by ``region`` except those
    given, by id, in ``branches`` and ``buses``."""
    branches, buses = branches or {}, buses or {}
    return replace(
        case,
        buses=tuple(replace(b, owner_region=buses.get(b.id, region)) for b in case.buses),
        branches=tuple(replace(br, owner_region=branches.get(br.id, region))
                       for br in case.branches))


def two_bus_case():
    return GridCase(
        buses=(Bus(id=1, kind="Slack"), Bus(id=2, kind="PQ")),
        branches=(Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.1),),
        generators=(),
    )


class TestBuildYbus:
    def test_two_bus_pure_reactance(self):
        # hand computation: y = 1/(j0.1) = -10j; no charging, tap 1
        y = build_ybus(two_bus_case())
        assert y.to_dense().tolist() == [[complex(0, -10), complex(0, 10)],
                                         [complex(0, 10), complex(0, -10)]]

    def test_all_branches_open_only_shunts(self):
        # connectivity is checked over Closed branches, so a single bus stands in
        solo = GridCase(buses=(Bus(id=1, kind="Slack", shunt_g=0.1, shunt_b=-0.2),),
                        branches=(), generators=())
        assert build_ybus(solo).to_dense().tolist() == [[complex(0.1, -0.2)]]
        no_shunt = GridCase(buses=(Bus(id=1, kind="Slack"),), branches=(), generators=())
        assert bitwise_equal(build_ybus(no_shunt).to_dense(), np.zeros((1, 1), complex))

    def test_open_branch_contributes_nothing(self):
        case = load_bundled_case("case9")
        extra = case.branches + (Branch(id=99, from_bus=4, to_bus=9, r=0.01, x=0.2,
                                        status="Open", owner_region="R1"),)
        case2 = GridCase(buses=case.buses, branches=extra, generators=case.generators)
        assert bitwise_equal(build_ybus(case2).to_dense(), build_ybus(case).to_dense())

    def test_tap_and_charging_stamp(self):
        case = GridCase(
            buses=(Bus(id=1, kind="Slack"), Bus(id=2, kind="PQ")),
            branches=(Branch(id=1, from_bus=1, to_bus=2, r=0.01, x=0.1,
                             b_charge=0.2, tap=0.98),),
            generators=(),
        )
        y = build_ybus(case).to_dense()
        ys = 1.0 / complex(0.01, 0.1)
        assert y[0, 0] == ys / (0.98 * 0.98) + complex(0, 0.1)
        assert y[1, 1] == ys + complex(0, 0.1)
        assert y[0, 1] == -(ys / 0.98)
        assert y[1, 0] == -(ys / 0.98)

    def test_structural_symmetry_and_value_symmetry(self):
        rng = random.Random(7)
        for _ in range(10):
            case = random_connected_case(rng, rng.randint(4, 20), 2)
            y = build_ybus(case).to_dense()
            assert bitwise_equal(y, y.T)

    def test_zero_row_sums_without_shunts_or_charging(self):
        rng = random.Random(11)
        case = random_connected_case(rng, 12, 2)
        clean_buses = tuple(
            Bus(id=b.id, kind=b.kind, v_mag=b.v_mag, p_load=b.p_load, q_load=b.q_load,
                owner_region=b.owner_region) for b in case.buses)
        clean_branches = tuple(
            Branch(id=br.id, from_bus=br.from_bus, to_bus=br.to_bus, r=br.r, x=br.x,
                   b_charge=0.0, tap=1.0, status=br.status,
                   owner_region=br.owner_region) for br in case.branches)
        y = build_ybus(GridCase(buses=clean_buses, branches=clean_branches,
                                generators=case.generators))
        dense = y.to_dense()
        assert np.max(np.abs(dense.sum(axis=1))) < 1e-12


class TestBuildPartial:
    def test_single_region_equals_full(self):
        case = with_owners(load_bundled_case("case9"), "R1")
        parts = build_partials(case)
        assert set(parts["R1"].branches) == {br.id for br in case.branches if br.closed}
        assert bitwise_equal(merge_partials(case, parts).to_dense(),
                             build_ybus(case).to_dense())

    def test_triangle_split_sums_to_full(self):
        case = with_owners(load_bundled_case("case3"), "R1", branches={3: "R2"},
                           buses={2: "R2"})
        p1, p2 = build_partial(case, "R1"), build_partial(case, "R2")
        assert (set(p1.branches), set(p2.branches)) == ({1, 2}, {3})
        assert bitwise_equal(merge_partials(case, {"R1": p1, "R2": p2}).to_dense(),
                             build_ybus(case).to_dense())

    def test_stamp_values_and_payload(self):
        # hand computation for one tapped, charged branch and one shunt; the
        # payload holds stamp values by id, no matrix positions
        case = GridCase(
            buses=(Bus(id=1, kind="Slack", shunt_g=0.1, shunt_b=-0.2), Bus(id=2, kind="PQ")),
            branches=(Branch(id=1, from_bus=1, to_bus=2, r=0.01, x=0.1,
                             b_charge=0.2, tap=0.98),),
            generators=())
        part = build_partial(case, "R1")
        ys = 1.0 / complex(0.01, 0.1)
        ff, tt, off = ys / (0.98 * 0.98) + complex(0, 0.1), ys + complex(0, 0.1), -(ys / 0.98)
        assert part.branches == {1: (ff, tt, off)}
        assert part.shunts == {1: complex(0.1, -0.2)}
        assert part.to_payload() == {
            "branches": [[1, ff.real, ff.imag, tt.real, tt.imag, off.real, off.imag]],
            "shunts": [[1, 0.1, -0.2]]}

    def test_empty_region_known_from_case(self):
        # R2 keeps bus 2, which has no shunt, and no branch
        case = with_owners(load_bundled_case("case3"), "R1", buses={2: "R2"})
        part = build_partial(case, "R2")
        assert part.branches == {} and part.shunts == {}

    def test_unknown_region_rejected(self):
        with pytest.raises(UnknownRegionError):
            build_partial(load_bundled_case("case3"), "Rx")

    def test_payload_roundtrip(self):
        case = load_bundled_case("case9")
        part = build_partials(case)["R2"]
        again = shipped(part)
        assert again.branches == part.branches
        assert again.shunts == part.shunts

    def test_a_shunt_named_twice_is_rejected(self):
        case = GridCase(buses=(Bus(id=1, kind="Slack", shunt_b=0.1), Bus(id=2, kind="PQ")),
                        branches=(Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.1),),
                        generators=())
        payload = build_partial(case, "R1").to_payload()
        payload["shunts"].append(payload["shunts"][0])
        with pytest.raises(PartialPayloadError, match="twice"):
            PartialAdmittance.from_payload(payload)


def shipped_partials(view):
    """Every region's partial of ``view`` as the cloud reads it back."""
    return {r: shipped(p) for r, p in build_partials(view).items()}


def flipped_view(case, rng):
    """The case with a random subset of its branches flipped between Open and
    Closed, each by its own region's edge; a flip that would disconnect the
    case is skipped."""
    view = case
    for br in rng.sample(case.branches, len(case.branches)):
        if rng.random() < 0.5:
            try:
                view = view.with_branch_status(
                    {br.id: "Open" if view.branch(br.id).closed else "Closed"})
            except CaseError:
                pass
    return view


def case9_with_shunt():
    """case9 with a shunt at bus 5, which R1 owns."""
    case = load_bundled_case("case9")
    return replace(case, buses=tuple(replace(b, shunt_b=0.1) if b.id == 5 else b
                                     for b in case.buses))


# how a tamper with the case9_with_shunt payloads reads in the merge's error
MISMATCHES = {
    "foreign_branch": (lambda p: p["R1"]["branches"].append(
        next(b for b in p["R2"]["branches"] if b[0] == 8)), r"R1 stamps foreign branches \[8\]"),
    "unknown_branch": (lambda p: p["R1"]["branches"].append([99] + [0.1] * 6),
                       r"R1 stamps unknown branches \[99\]"),
    "missing_region": (lambda p: p.pop("R3"), r"missing regions \['R3'\]"),
    "unknown_region": (lambda p: p.update(R9={"branches": [], "shunts": []}),
                       r"unknown regions \['R9'\]"),
    "missing_shunt": (lambda p: p["R1"]["shunts"].clear(),
                      r"R1 leaves out the shunts of buses \[5\]"),
    "extra_shunt": (lambda p: p["R1"]["shunts"].append([4, 0.0, 0.1]),
                    r"R1 carries extra shunts of buses \[4\]"),
}


class TestMergePartials:
    def test_merge_equals_build_bitwise_random_cases(self):
        rng = random.Random(1234)
        for _ in range(25):
            case = random_connected_case(rng, rng.randint(5, 30), rng.randint(1, 5))
            y = build_ybus(case)
            merged = merge_partials(case, shipped_partials(case))
            assert (merged.branches, merged.shunts) == (y.branches, y.shunts)
            assert bitwise_equal(merged.to_dense(), y.to_dense())

    def test_merge_survives_payload_roundtrip(self):
        case = load_bundled_case("case9")
        y = merge_partials(case, shipped_partials(case))
        view = y.case
        assert view == case
        assert bitwise_equal(y.to_dense(), build_ybus(case).to_dense())

    def test_single_part_identity(self):
        case = with_owners(load_bundled_case("case9"), "R1")
        merged = merge_partials(case, build_partials(case))
        whole = build_ybus(case)
        assert (merged.branches, merged.shunts) == (whole.branches, whole.shunts)

    @given(seed=st.integers(0, 2**32 - 1), n_buses=st.integers(2, 14),
           n_regions=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_merge_states_the_view_its_regions_flipped(self, seed, n_buses, n_regions):
        """The cloud reads every branch's status from its owner's partial."""
        rng = random.Random(seed)
        base = random_connected_case(rng, n_buses, n_regions)
        view = flipped_view(base, rng)
        y = merge_partials(base, shipped_partials(view))
        merged = y.case
        assert merged == view
        assert bitwise_equal(y.to_dense(), build_ybus(view).to_dense())
        assert bitwise_equal(y.to_dense(), reference_dense(y))

    def test_overlapping_branch_rejected(self):
        # a branch comes from its owner's partial only: R2 may not stamp R3's branch 7
        case = load_bundled_case("case9")
        parts = build_partials(case)
        parts["R2"] = PartialAdmittance({**parts["R2"].branches, 7: parts["R3"].branches[7]},
                                        parts["R2"].shunts)
        with pytest.raises(PartialMismatchError, match=r"R2 stamps foreign branches \[7\]"):
            merge_partials(case, parts)

    def test_incomplete_coverage_rejected(self):
        case = load_bundled_case("case9")
        parts = build_partials(case)
        with pytest.raises(PartialMismatchError, match="missing regions"):
            merge_partials(case, {r: p for r, p in parts.items() if r != "R3"})
        with pytest.raises(PartialMismatchError, match="unknown regions"):
            merge_partials(case, {**parts, "R9": PartialAdmittance({}, {})})

    def test_a_left_out_shunt_is_rejected(self):
        # accepted, the merge would differ from build_ybus by bus 7's shunt
        case = random_connected_case(random.Random(0), 8, 3)
        owner = case.bus(7).owner_region
        assert case.bus(7).shunt_g != 0.0 or case.bus(7).shunt_b != 0.0
        payloads = {r: p.to_payload() for r, p in build_partials(case).items()}
        payloads[owner]["shunts"] = [s for s in payloads[owner]["shunts"] if s[0] != 7]
        parts = {r: PartialAdmittance.from_payload(p) for r, p in payloads.items()}
        with pytest.raises(PartialMismatchError, match=r"leaves out the shunts of buses \[7\]"):
            merge_partials(case, parts)

    @pytest.mark.parametrize("tamper, message", MISMATCHES.values(), ids=list(MISMATCHES))
    def test_a_mismatch_is_rejected(self, tamper, message):
        case = case9_with_shunt()
        payloads = {r: p.to_payload() for r, p in build_partials(case).items()}
        tamper(payloads)
        parts = {r: PartialAdmittance.from_payload(p) for r, p in payloads.items()}
        with pytest.raises(PartialMismatchError, match=f"^{message}$"):
            merge_partials(case, parts)

    def test_a_non_finite_shunt_is_rejected(self):
        case = random_connected_case(random.Random(0), 8, 3)
        payload = build_partial(case, case.bus(7).owner_region).to_payload()
        next(s for s in payload["shunts"] if s[0] == 7)[2] = float("nan")
        with pytest.raises(PartialPayloadError, match="non-finite"):
            PartialAdmittance.from_payload(payload)

    def test_valid_payloads_keep_their_bytes(self):
        for part in build_partials(load_bundled_case("case9")).values():
            payload = canonical_json(part.to_payload())
            assert canonical_json(shipped(part).to_payload()) == payload

    @pytest.mark.parametrize("tamper, error", [
        ("R2 branch term", PartialMismatchError),
        ("R1 branch named twice", PartialPayloadError),
    ], ids=["R2 branch term", "R1 branch named twice"])
    def test_tampered_payload_rejected(self, tamper, error):
        # accepted, either would stamp a branch twice
        case = load_bundled_case("case9")
        payloads = {r: p.to_payload() for r, p in build_partials(case).items()}
        rows = payloads["R1"]["branches"]
        rows.append(next(b for b in payloads["R2"]["branches"] if b[0] == 8)
                    if tamper == "R2 branch term" else rows[0])
        with pytest.raises(error):
            merge_partials(case, {r: PartialAdmittance.from_payload(p)
                                  for r, p in payloads.items()})


def bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFaultVariants:
    def test_pre_is_input_unchanged(self):
        case = load_bundled_case("case9")
        y = build_ybus(case)
        pre, _, _ = fault_variants(y, FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.2))
        assert bitwise_equal(pre, y.to_dense())

    def test_on_adds_fault_shunt_only(self):
        case = load_bundled_case("case9")
        y = build_ybus(case)
        fault = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.2)
        pre, on, _ = fault_variants(y, fault)
        f = case.bus_index()[7]
        assert on[f, f] == y.to_dense()[f, f] + Y_FAULT
        on[f, f] = pre[f, f]
        assert bitwise_equal(on, pre)

    def test_post_equals_rebuild_bitwise(self):
        case = load_bundled_case("case9")
        y = build_ybus(case)
        fault = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.2, cleared_branch=6)
        _, _, post = fault_variants(y, fault)
        rebuilt = build_ybus(case.with_branch_status({6: "Open"}))
        assert bitwise_equal(post, rebuilt.to_dense())

    def test_no_cleared_branch_post_is_pre(self):
        case = load_bundled_case("case9")
        y = build_ybus(case)
        pre, _, post = fault_variants(y, FaultSpec(faulted_bus=5, t_fault=0.0, t_clear=0.5))
        assert post is pre

    def test_pure_function(self):
        case = load_bundled_case("case9")
        y = build_ybus(case)
        fault = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.2, cleared_branch=6)
        a = fault_variants(y, fault)
        b = fault_variants(y, fault)
        for ya, yb in zip(a, b):
            assert bitwise_equal(ya, yb)
        fresh = build_ybus(case)
        assert (y.branches, y.shunts) == (fresh.branches, fresh.shunts)

    def test_absent_faulted_bus(self):
        case = load_bundled_case("case9")
        y = build_ybus(case)
        with pytest.raises(Exception, match="unknown bus"):
            fault_variants(y, FaultSpec(faulted_bus=42, t_fault=0.1, t_clear=0.2))

    @given(seed=st.integers(0, 2**32 - 1), n_buses=st.integers(2, 14),
           n_regions=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_variants_match_fresh_builds_random_cases(self, seed, n_buses, n_regions):
        """Over the merged matrix of a view whose regions flipped some of
        their branches. Small random cases often carry parallel branches, so
        a cleared branch's off-diagonal entries keep another branch's term."""
        rng = random.Random(seed)
        base = random_connected_case(rng, n_buses, n_regions)
        y = merge_partials(base, shipped_partials(flipped_view(base, rng)))
        case = y.case
        idx = case.bus_index()
        for br in case.branches:
            if not br.closed:
                continue
            try:
                opened = case.with_branch_status({br.id: "Open"})
            except CaseError:                # the case would island
                continue
            bus = rng.choice((br.from_bus, br.to_bus))
            fault = FaultSpec(faulted_bus=bus, t_fault=0.1, t_clear=0.2,
                              cleared_branch=br.id)
            pre, on, post = fault_variants(y, fault)
            assert bitwise_equal(pre, y.to_dense())
            assert bitwise_equal(post, build_ybus(opened).to_dense())
            f = idx[bus]
            assert on[f, f] == pre[f, f] + Y_FAULT
            on[f, f] = pre[f, f]
            assert bitwise_equal(on, pre)
        try:
            sol = solve_power_flow(y)
        except PowerFlowError:
            return
        v = sol.voltage()
        assert bitwise_equal(sol.injections, v * np.conj(y.to_dense() @ v))
