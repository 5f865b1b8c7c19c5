import math

import pytest

from gridmesh.model import (Branch, Bus, CaseError, FaultSpec, Generator, GridCase,
                            dump_case, load_bundled_case, parse_case, validate_fault)
from gridmesh.ybus import Y_FAULT


def tiny_case(**kw):
    buses = kw.pop("buses", (Bus(id=1, kind="Slack"), Bus(id=2, kind="PQ", p_load=0.5)))
    branches = kw.pop("branches", (Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.1),))
    gens = kw.pop("generators", ())
    return GridCase(buses=buses, branches=branches, generators=gens, **kw)


class TestValidation:
    def test_duplicate_bus_ids(self):
        with pytest.raises(CaseError, match="duplicate bus"):
            tiny_case(buses=(Bus(id=1, kind="Slack"), Bus(id=1, kind="PQ")))

    def test_exactly_one_slack(self):
        with pytest.raises(CaseError, match="Slack"):
            tiny_case(buses=(Bus(id=1, kind="PQ"), Bus(id=2, kind="PQ")))
        with pytest.raises(CaseError, match="Slack"):
            tiny_case(buses=(Bus(id=1, kind="Slack"), Bus(id=2, kind="Slack")))

    def test_degenerate_branch_rejected(self):
        with pytest.raises(CaseError, match="r = x = 0"):
            tiny_case(branches=(Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.0),))

    def test_self_loop_rejected(self):
        with pytest.raises(CaseError, match="self-loop"):
            tiny_case(branches=(Branch(id=1, from_bus=1, to_bus=1, r=0.0, x=0.1),))

    def test_bad_tap_rejected(self):
        with pytest.raises(CaseError, match="tap"):
            tiny_case(branches=(Branch(id=1, from_bus=1, to_bus=2, r=0, x=0.1, tap=0.0),))

    def test_unknown_endpoint(self):
        with pytest.raises(CaseError, match="unknown bus"):
            tiny_case(branches=(Branch(id=1, from_bus=1, to_bus=9, r=0, x=0.1),))

    def test_disconnected_rejected(self):
        with pytest.raises(CaseError, match="not connected"):
            tiny_case(branches=(Branch(id=1, from_bus=1, to_bus=2, r=0, x=0.1,
                                       status="Open"),))

    def test_generator_invariants(self):
        with pytest.raises(CaseError, match="h, xd_p"):
            tiny_case(generators=(Generator(id=1, bus=1, h=0.0, d=0, xd_p=0.1),))
        with pytest.raises(CaseError, match="one generator per bus"):
            tiny_case(generators=(Generator(id=1, bus=1, h=1, d=0, xd_p=0.1),
                                  Generator(id=2, bus=1, h=1, d=0, xd_p=0.1)))

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_inertia_rejected(self, h):
        # a nan inertia once failed only inside RK4, and an infinite one gave a verdict
        with pytest.raises(CaseError, match="generator 1 h must be finite"):
            tiny_case(generators=(Generator(id=1, bus=1, h=h, d=0, xd_p=0.1),))

    def test_every_number_must_be_finite(self):
        with pytest.raises(CaseError, match="gridcase freq_hz must be finite"):
            tiny_case(freq_hz=math.inf)
        with pytest.raises(CaseError, match="branch 1 b_charge must be finite"):
            tiny_case(branches=(Branch(id=1, from_bus=1, to_bus=2, r=0, x=0.1,
                                       b_charge=-math.inf),))
        case = load_bundled_case("case9")
        with pytest.raises(CaseError, match="bus 5 q_load must be finite"):
            case.with_bus_loads({5: (1.25, math.nan)})
        assert case.with_bus_loads({5: (-1.25, -0.5)}).bus(5).p_load == -1.25

    def test_buses_sorted_by_id(self):
        case = tiny_case(buses=(Bus(id=2, kind="PQ"), Bus(id=1, kind="Slack")))
        assert [b.id for b in case.buses] == [1, 2]


class TestCaseFile:
    def test_bundled_fixtures_load(self):
        c3 = load_bundled_case("case3")
        assert c3.n == 3 and len(c3.branches) == 3 and len(c3.generators) == 2
        c9 = load_bundled_case("case9")
        assert c9.n == 9 and len(c9.branches) == 9 and len(c9.generators) == 3
        assert c9.regions() == ["R1", "R2", "R3"]

    def test_dump_parse_roundtrip(self):
        case = load_bundled_case("case9")
        again = parse_case(dump_case(case))
        assert again == case

    def test_comments_and_blank_lines(self):
        case = load_bundled_case("case3")
        text = "# leading comment\n\n" + dump_case(case) + "\n# trailing\n"
        assert parse_case(text) == case

    def test_blank_branch_owner_inherits_from_bus(self):
        text = """
[meta]
100,60
[bus]
1,Slack,1.0,0.0,0,0,0,0,RA
2,PQ,1.0,0.0,0.1,0,0,0,RB
[branch]
1,2,1,0.01,0.1,0,1.0,Closed,
[gen]
"""
        case = parse_case(text)
        assert case.branch_partition() == {1: "RB"}

    def test_nan_load_rejected(self):
        text = dump_case(load_bundled_case("case9"))
        assert "\n5,PQ,1.0,0.0,1.25," in text
        with pytest.raises(CaseError, match="bus 5 p_load must be finite, got nan"):
            parse_case(text.replace("\n5,PQ,1.0,0.0,1.25,", "\n5,PQ,1.0,0.0,nan,"))

    def test_trailing_columns_ignored(self):
        # [gen] records once carried two more columns, e_mag and delta0
        case = load_bundled_case("case3")
        head, gens = dump_case(case).split("[gen]\n")
        old = head + "[gen]\n" + "".join(f"{line},1.0,0.0\n" for line in gens.splitlines())
        assert parse_case(old) == case

    def test_bad_section(self):
        with pytest.raises(CaseError, match="unknown section"):
            parse_case("[nope]\n1,2\n")

    def test_bad_record(self):
        with pytest.raises(CaseError, match="bad record"):
            parse_case("[bus]\n1,Slack,abc\n")


class TestTopologyDeltas:
    def test_status_assignment_idempotent(self):
        case = load_bundled_case("case9")
        once = case.with_branch_status({9: "Open"})
        twice = once.with_branch_status({9: "Open"})
        assert once == twice
        assert once.branch(9).status == "Open"

    def test_unknown_branch_rejected(self):
        case = load_bundled_case("case9")
        with pytest.raises(CaseError, match="unknown branch"):
            case.with_branch_status({99: "Open"})

    def test_load_assignment(self):
        case = load_bundled_case("case9")
        out = case.with_bus_loads({5: (2.0, 0.7)})
        assert out.bus(5).p_load == 2.0 and out.bus(5).q_load == 0.7

    def test_load_bus_ids_ascending(self):
        case = load_bundled_case("case9")
        assert case.load_bus_ids() == [5, 6, 8]


class TestFaultSpec:
    def test_valid(self):
        case = load_bundled_case("case9")
        validate_fault(case, FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3,
                                       cleared_branch=6))

    def test_times_ordered(self):
        case = load_bundled_case("case9")
        with pytest.raises(CaseError, match="t_fault < t_clear"):
            validate_fault(case, FaultSpec(faulted_bus=7, t_fault=0.3, t_clear=0.1))

    @pytest.mark.parametrize("t_fault, t_clear", [
        (0.1, math.inf), (math.nan, 0.3), (0.1, math.nan), (math.inf, math.inf)])
    def test_times_finite(self, t_fault, t_clear):
        case = load_bundled_case("case9")
        with pytest.raises(CaseError, match="must be finite"):
            validate_fault(case, FaultSpec(faulted_bus=7, t_fault=t_fault, t_clear=t_clear))

    def test_faulted_bus_exists(self):
        case = load_bundled_case("case9")
        with pytest.raises(CaseError, match="unknown bus"):
            validate_fault(case, FaultSpec(faulted_bus=77, t_fault=0.1, t_clear=0.3))

    def test_cleared_branch_must_be_closed(self):
        case = load_bundled_case("case9").with_branch_status({9: "Open"})
        with pytest.raises(CaseError, match="not Closed"):
            validate_fault(case, FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3,
                                           cleared_branch=9))

    def test_default_fault_shunt_is_near_bolted(self):
        assert Y_FAULT == complex(0.0, -1e6)
        assert math.isfinite(Y_FAULT.imag)
