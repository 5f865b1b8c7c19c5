"""The benchmark calls the package by name: its workloads build nodes and
virtual runs with keyword arguments, and its tracer wraps names by attribute.
A change that drops one of them must fail here rather than in the bench."""

import importlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gridmesh import pipeline, virtualdemo
from gridmesh.dynamics import SimulationConfig
from gridmesh.linkem import zero_impairment_profile
from gridmesh.model import FaultSpec, load_bundled_case
from gridmesh.pipeline import DsaParams, RunManifest
from gridmesh.store import FileStore

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """``bench/workloads.py`` imports its sibling ``synthcase`` by bare name."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


WORKLOADS = load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_match_the_oracle(name, tmp_path):
    wl = WORKLOADS[name](0, tmp_path)
    wl.setup(0)
    try:
        inputs = wl.inputs(2)        # the warm-up input and one timed one
        records = [wl.run(inp) for inp in inputs]
        assert all(rec.ok for rec in records)
        for inp in inputs:
            assert wl.result(inp) == wl.oracle(inp)
    finally:
        wl.teardown()


def test_tracer_times_a_virtual_run(tmp_path):
    tracer = load_tracing().Tracer()
    manifest = RunManifest(
        run_id="ef" * 16, expected_regions=("R1", "R2", "R3"), mode="Topology",
        fault=FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3, cleared_branch=6),
        sim_cfg=SimulationConfig(t_end=1.0, dt=0.005))
    dsa_manifest = replace(manifest, run_id="fe" * 16, mode="DSA",
                           dsa=DsaParams(n_raw=20, k=2, seed=1))
    original = pipeline.topology_compute
    tracer.install()
    try:
        outs = []
        for run, m in enumerate((manifest, dsa_manifest)):
            tracer.run = run
            outs.append(virtualdemo.run_virtual_demo(
                load_bundled_case("case9"), m, FileStore(tmp_path / "store"),
                tmp_path / f"logs{run}", zero_impairment_profile(), {}))
    finally:
        tracer.uninstall()
    assert [out.exit_code for out in outs] == [0, 0]
    assert pipeline.topology_compute is original
    row = tracer.per_run()[0]
    for metric in ("virtualdemo.run_ms", "pipeline.edge_topology_blob_ms",
                   "pipeline.cloud_merge_ms", "pipeline.topology_compute_ms",
                   "pipeline.result_blob_ms", "ybus.build_partial_ms",
                   "ybus.merge_partials_ms", "ybus.fault_variants_ms", "dynamics.kron_ms"):
        assert row[metric] > 0, metric
    # Y is densified once for the power flow and once for the three fault variants
    assert row["ybus.to_dense_calls"] == 2
    assert row["powerflow.solves"] == 1
    # Topology's batches of one are kept for these spans: each runs once per run
    assert row["powerflow.initialize_ms"] > 0 and row["dynamics.rk4_ms"] > 0
    assert row["dynamics.simulations"] == 1
    assert row["dynamics.rk4_steps"] == 200
    # the bench writes both as JSON: a counter must be a plain number
    json.dumps(tracer.to_json())
    json.dumps(tracer.per_run())
    dsa_row = tracer.per_run()[1]
    for metric in ("sampling.draw_ms", "sampling.reduce_ms", "sampling.combine_ms"):
        assert dsa_row[metric] > 0, metric
