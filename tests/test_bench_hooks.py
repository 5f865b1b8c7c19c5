"""The benchmark's tracer wraps names in the package by attribute. A refactor
that moves one of them must fail here rather than read 0 in the bench."""

import importlib.util
import sys
from pathlib import Path

from gridmesh import pipeline, virtualdemo
from gridmesh.dynamics import SimulationConfig
from gridmesh.linkem import zero_impairment_profile
from gridmesh.model import FaultSpec, load_bundled_case
from gridmesh.pipeline import RunManifest
from gridmesh.store import FileStore

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_times_a_virtual_run(tmp_path):
    tracer = load_tracing().Tracer()
    manifest = RunManifest(
        run_id="ef" * 16, expected_regions=("R1", "R2", "R3"), mode="Topology",
        fault=FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3, cleared_branch=6),
        sim_cfg=SimulationConfig(t_end=1.0, dt=0.005))
    original = pipeline.topology_compute
    tracer.install()
    try:
        tracer.run = 0
        out = virtualdemo.run_virtual_demo(load_bundled_case("case9"), manifest,
                                           FileStore(tmp_path / "store"), tmp_path / "logs",
                                           zero_impairment_profile(), {})
    finally:
        tracer.uninstall()
    assert out.exit_code == 0
    assert pipeline.topology_compute is original
    row = tracer.per_run()[0]
    for metric in ("virtualdemo.run_ms", "pipeline.edge_topology_blob_ms",
                   "pipeline.cloud_merge_ms", "pipeline.topology_compute_ms",
                   "pipeline.result_blob_ms"):
        assert row[metric] > 0, metric
