"""The distributed pipeline against its monolithic oracle: region uploads built
by ``edge_upload`` and computed by ``cloud_result`` give the oracle's bytes,
and ``result_summary`` gives ``gridmesh report``'s summary lines."""

import json
import math
import random
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gridmesh import pipeline
from gridmesh.dynamics import NumericBlowupError, SimulationConfig
from gridmesh.model import CaseError, FaultSpec, load_bundled_case
from gridmesh.pipeline import DsaParams, RunManifest
from gridmesh.sampling import ForecastSpec
from gridmesh.wire import canonical_json

from helpers import random_connected_case

RID = "ef" * 16
CFG = SimulationConfig(t_end=2.0, dt=0.01)
FAULT = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.25, cleared_branch=6)


def distributed(base, view, manifest, forecasts=None):
    """Each region's edge uploads from ``view``; the cloud computes the result."""
    forecasts = forecasts or {}
    blobs = {r: pipeline.edge_upload(view, r, manifest, forecasts.get(r))
             for r in manifest.expected_regions}
    return pipeline.cloud_result(base, manifest, blobs)


def outcome(fn):
    """The call's result, or the class of the error it raised."""
    try:
        return fn()
    except Exception as exc:
        return type(exc)


@given(seed=st.integers(0, 2**32 - 1), n_buses=st.integers(3, 10),
       n_regions=st.integers(1, 3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_topology_result_is_the_oracle_bytes(seed, n_buses, n_regions, data):
    base = random_connected_case(random.Random(seed), n_buses, n_regions)
    deltas = {}
    flips = st.lists(st.sampled_from(base.branches), min_size=1, max_size=4, unique=True)
    for br in data.draw(flips):
        flipped = {**deltas, br.id: "Open" if br.closed else "Closed"}
        try:
            base.with_branch_status(flipped)
        except CaseError:                    # the case would island
            continue
        deltas = flipped
    view = base.with_branch_status(deltas)
    closed = [br.id for br in view.branches if br.closed]
    fault = FaultSpec(faulted_bus=data.draw(st.sampled_from([b.id for b in base.buses])),
                      t_fault=0.1, t_clear=0.2,
                      cleared_branch=data.draw(st.sampled_from([None, *closed])))
    cfg = SimulationConfig(t_end=0.5, dt=0.01)
    m = RunManifest(run_id=RID, expected_regions=tuple(view.regions()),
                    mode=pipeline.MODE_TOPOLOGY, fault=fault, sim_cfg=cfg)

    got = outcome(lambda: distributed(base, view, m))
    expected = outcome(lambda: pipeline.monolithic_topology(base, deltas, fault, cfg))
    if isinstance(expected, tuple):
        result, blob = expected
        assert got == (blob, result.verdict)
    else:
        assert got is expected


def test_dsa_result_with_per_region_forecasts_is_the_oracle_bytes():
    case = load_bundled_case("case9")
    dsa = DsaParams(n_raw=20, k=3, seed=7)
    forecasts = {"R1": ForecastSpec(n_dims=1, dist="uniform", half_width=0.02),
                 "R3": ForecastSpec(n_dims=1, sigma=0.1)}
    m = RunManifest(run_id=RID, expected_regions=tuple(case.regions()),
                    mode=pipeline.MODE_DSA, fault=FAULT, sim_cfg=CFG, dsa=dsa)
    blob, summary = distributed(case, case, m, forecasts)
    report, expected = pipeline.monolithic_dsa(case, {}, dsa, FAULT, CFG, forecasts=forecasts)
    assert blob == expected
    assert summary == f"insecurity_probability={report.insecurity_probability!r}"
    assert pipeline.result_summary(blob) == (
        "weighted insecurity probability: 0.14999999999999997 "
        "(9/27 representative scenarios unstable)")


def test_topology_result_summaries():
    case = load_bundled_case("case9")
    stable = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.2, cleared_branch=6)
    _, blob = pipeline.monolithic_topology(case, {}, stable, CFG)
    assert pipeline.result_summary(blob) == "verdict: Stable"
    unstable = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3, cleared_branch=6)
    _, blob = pipeline.monolithic_topology(case, {9: "Open"}, unstable, CFG)
    assert pipeline.result_summary(blob) == "verdict: Unstable at t=0.48s"


def topology_manifest(case, fault):
    return RunManifest(run_id=RID, expected_regions=tuple(case.regions()),
                       mode=pipeline.MODE_TOPOLOGY, fault=fault, sim_cfg=CFG)


@pytest.mark.parametrize("through", ["monolithic_topology", "cloud_result"])
def test_a_bad_fault_fails_before_the_power_flow(through):
    case = load_bundled_case("case9")
    fault = FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=math.inf, cleared_branch=6)
    with mock.patch.object(pipeline, "solve_power_flow",
                           wraps=pipeline.solve_power_flow) as solve:
        with pytest.raises(CaseError, match="finite"):
            if through == "monolithic_topology":
                pipeline.monolithic_topology(case, {}, fault, CFG)
            else:
                distributed(case, case, topology_manifest(case, fault))
    assert solve.call_count == 0


def test_a_huge_stamp_blows_up_without_a_numpy_warning():
    # R1's branch 1 from-diagonal at 1e300 passes the partial's checks; the
    # integration overflows, which simulate_batch reports as one classified
    # error and not also as a RuntimeWarning
    case = load_bundled_case("case9")
    m = topology_manifest(case, FAULT)
    blobs = {r: pipeline.edge_upload(case, r, m) for r in m.expected_regions}
    upload = json.loads(blobs["R1"])
    upload["partial"]["branches"][0][1] = 1e300
    blobs["R1"] = canonical_json(upload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericBlowupError):
            pipeline.cloud_result(case, m, blobs)
