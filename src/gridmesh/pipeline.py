"""Run manifests and the compute pipeline shared by distributed nodes and oracles.

Everything here is pure: the socket nodes, the virtual-time demo and the
monolithic single-process oracle all call the same functions, which is what
makes distributed results comparable bit-for-bit with in-process ones.
"""

from __future__ import annotations

import hashlib
import json
import uuid
from dataclasses import dataclass
from pathlib import Path

from .dynamics import (SecurityReport, SimulationConfig, SimulationResult, assess_run,
                       reduce_network, simulate_dynamics)
from .model import FaultSpec, GridCase, fault_from_dict, fault_to_dict
from .powerflow import initialize_machines, solve_power_flow
from .sampling import (ForecastSpec, Scenario, ScenarioSet, apply_scenario,
                       combine_region_sets, draw_samples, reduce_scenarios)
from .wire import canonical_json
from .ybus import PartialAdmittance, YMatrix, build_partial, build_ybus, merge_partials

MODE_TOPOLOGY = "Topology"
MODE_DSA = "DSA"

DEFAULT_FORECAST_SIGMA = 0.05
DEFAULT_DEADLINE_S = 30.0


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class DsaParams:
    n_raw: int
    k: int
    seed: int

    def to_dict(self) -> dict:
        return {"n_raw": self.n_raw, "k": self.k, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "DsaParams":
        return cls(n_raw=int(d["n_raw"]), k=int(d["k"]), seed=int(d["seed"]))


@dataclass(frozen=True)
class RunManifest:
    run_id: str                      # 32 hex chars
    expected_regions: tuple[str, ...]
    mode: str                        # Topology | DSA
    fault: FaultSpec
    sim_cfg: SimulationConfig
    deadline_s: float = DEFAULT_DEADLINE_S
    dsa: DsaParams | None = None

    def __post_init__(self):
        if len(self.run_id) != 32 or any(c not in "0123456789abcdef" for c in self.run_id):
            raise ManifestError(f"run_id must be 32 lowercase hex chars, got {self.run_id!r}")
        if not self.expected_regions:
            raise ManifestError("expected_regions must be non-empty")
        object.__setattr__(self, "expected_regions", tuple(sorted(self.expected_regions)))
        if self.mode not in (MODE_TOPOLOGY, MODE_DSA):
            raise ManifestError(f"mode must be Topology or DSA, got {self.mode!r}")
        if self.deadline_s <= 0:
            raise ManifestError("deadline_s must be > 0")
        if (self.mode == MODE_DSA) != (self.dsa is not None):
            raise ManifestError("dsa params required exactly when mode is DSA")

    @property
    def run_id_bytes(self) -> bytes:
        return bytes.fromhex(self.run_id)

    def to_payload(self) -> dict:
        obj = {
            "run_id": self.run_id,
            "expected_regions": list(self.expected_regions),
            "mode": self.mode,
            "fault": fault_to_dict(self.fault),
            "sim_cfg": self.sim_cfg.to_dict(),
            "deadline_s": self.deadline_s,
            "dsa": self.dsa.to_dict() if self.dsa else None,
        }
        return obj

    @classmethod
    def from_payload(cls, d: dict) -> "RunManifest":
        return cls(
            run_id=d["run_id"],
            expected_regions=tuple(d["expected_regions"]),
            mode=d["mode"],
            fault=fault_from_dict(d["fault"]),
            sim_cfg=SimulationConfig.from_dict(d["sim_cfg"]),
            deadline_s=float(d["deadline_s"]),
            dsa=DsaParams.from_dict(d["dsa"]) if d.get("dsa") else None,
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(canonical_json(self.to_payload()))

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        return cls.from_payload(json.loads(Path(path).read_bytes()))


def new_run_id() -> str:
    return uuid.uuid4().hex


def region_seed(seed: int, region: str) -> int:
    """Per-region sampling seed derived from the manifest seed."""
    digest = hashlib.blake2s(f"{seed}/{region}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def region_load_bus_ids(case: GridCase, region: str) -> list[int]:
    return [b.id for b in case.buses
            if b.owner_region == region and (b.p_load != 0.0 or b.q_load != 0.0)]


# ----------------------------------------------------------------------
# Edge-side artifacts

def status_deltas(view: GridCase, base: GridCase) -> list[list]:
    """Branch status assignments that turn ``base`` into ``view``."""
    base_status = {br.id: br.status for br in base.branches}
    return sorted([br.id, br.status] for br in view.branches
                  if base_status.get(br.id) != br.status)


def edge_topology_blob(view: GridCase, base: GridCase, region: str) -> bytes:
    """Region partial plus the topology deltas it reflects, as one upload."""
    partial = build_partial(view, region, view.branch_partition(), view.bus_owner())
    return canonical_json({
        "partial": partial.to_payload(),
        "status_deltas": status_deltas(view, base),
    })


def parse_topology_blob(blob: bytes) -> tuple[PartialAdmittance, dict[int, str]]:
    obj = json.loads(blob.decode())
    deltas = {int(bid): status for bid, status in obj["status_deltas"]}
    return PartialAdmittance.from_payload(obj["partial"]), deltas


def region_scenarios(view: GridCase, region: str, dsa: DsaParams,
                     forecast: ForecastSpec | None = None,
                     ) -> tuple[ScenarioSet, list[int], ForecastSpec, int]:
    """Sample and reduce the forecast scenarios for one region's loads."""
    load_ids = region_load_bus_ids(view, region)
    if forecast is None:
        forecast = ForecastSpec(n_dims=len(load_ids), sigma=DEFAULT_FORECAST_SIGMA)
    if forecast.n_dims != len(load_ids):
        raise ManifestError(
            f"forecast spec has {forecast.n_dims} dims, region {region} has "
            f"{len(load_ids)} loads")
    seed = region_seed(dsa.seed, region)
    samples = draw_samples(forecast, dsa.n_raw, seed)
    sset = reduce_scenarios(samples, dsa.k, seed)
    return sset, load_ids, forecast, seed


def edge_scenarios_blob(view: GridCase, region: str, dsa: DsaParams,
                        forecast: ForecastSpec | None = None) -> bytes:
    sset, load_ids, spec, seed = region_scenarios(view, region, dsa, forecast)
    return canonical_json({
        "region": region,
        "load_bus_ids": load_ids,
        "scenario_set": sset.to_payload(),
        "forecast_spec": spec.to_dict(),
        "seed": seed,
    })


def parse_scenarios_blob(blob: bytes) -> dict:
    obj = json.loads(blob.decode())
    obj["scenario_set"] = ScenarioSet.from_payload(obj["scenario_set"])
    obj["load_bus_ids"] = [int(b) for b in obj["load_bus_ids"]]
    return obj


# ----------------------------------------------------------------------
# Cloud-side compute

def cloud_merge(base: GridCase, blobs: dict[str, bytes]) -> tuple[GridCase, YMatrix]:
    """Reassemble the full matrix and topology view from region uploads."""
    parts = []
    merged_deltas: dict[int, str] = {}
    for region in sorted(blobs):
        partial, deltas = parse_topology_blob(blobs[region])
        parts.append(partial)
        for bid, status in deltas.items():
            if merged_deltas.get(bid, status) != status:
                raise ManifestError(f"regions disagree on branch {bid} status")
            merged_deltas[bid] = status
    view = base.with_branch_status(merged_deltas)
    y = merge_partials(parts, view.closed_branch_ids())
    return view, y


def topology_compute(view: GridCase, y: YMatrix, fault: FaultSpec,
                     cfg: SimulationConfig) -> SimulationResult:
    """Power flow, machine initialization, reduction and simulation over one matrix."""
    sol = solve_power_flow(view, y=y)
    mcase = initialize_machines(view, sol, y=y)
    net = reduce_network(mcase, sol, fault, y)
    return simulate_dynamics(mcase, net, fault, cfg)


def topology_result_blob(result: SimulationResult) -> bytes:
    return canonical_json({"mode": MODE_TOPOLOGY, "result": result.to_payload()})


def parse_topology_result(blob: bytes) -> SimulationResult:
    return SimulationResult.from_payload(json.loads(blob.decode())["result"])


def simulate_scenario(view: GridCase, y: YMatrix, scenario: Scenario,
                      fault: FaultSpec, cfg: SimulationConfig) -> SimulationResult:
    scase = apply_scenario(view, scenario)
    sol = solve_power_flow(scase, y=y)
    mcase = initialize_machines(scase, sol, y=y)
    net = reduce_network(mcase, sol, fault, y)
    return simulate_dynamics(mcase, net, fault, cfg)


def dsa_compute(view: GridCase, y: YMatrix,
                region_sets: dict[str, tuple[ScenarioSet, list[int]]],
                fault: FaultSpec, cfg: SimulationConfig) -> SecurityReport:
    """Simulate every joint representative scenario, in scenario order, and aggregate."""
    combined, bus_ids = combine_region_sets(region_sets)
    if bus_ids != view.load_bus_ids():
        raise ManifestError(
            f"scenario load buses {bus_ids} do not match case loads {view.load_bus_ids()}")
    reps = combined.representatives
    sims = [simulate_scenario(view, y, s, fault, cfg) for s in reps]
    weighted = list(zip(combined.weights, sims))
    return assess_run(weighted, scenario_ids=[s.id for s in reps])


def dsa_result_blob(report: SecurityReport) -> bytes:
    return canonical_json({"mode": MODE_DSA, "report": report.to_payload()})


def parse_dsa_result(blob: bytes) -> SecurityReport:
    return SecurityReport.from_payload(json.loads(blob.decode())["report"])


def dsa_bruteforce_probability(view: GridCase, y: YMatrix, samples: list[Scenario],
                               fault: FaultSpec, cfg: SimulationConfig) -> float:
    """Equal-weight insecurity probability over every raw scenario (the oracle path)."""
    sims = [simulate_scenario(view, y, s, fault, cfg) for s in samples]
    report = assess_run([(1.0, r) for r in sims])
    return report.insecurity_probability


# ----------------------------------------------------------------------
# Monolithic oracle: the same pipeline with no network in the way

def monolithic_topology(base: GridCase, deltas: dict[int, str], fault: FaultSpec,
                        cfg: SimulationConfig) -> tuple[SimulationResult, bytes]:
    view = base.with_branch_status(deltas)
    y = build_ybus(view)
    result = topology_compute(view, y, fault, cfg)
    return result, topology_result_blob(result)


def monolithic_dsa(base: GridCase, deltas: dict[int, str], dsa: DsaParams,
                   fault: FaultSpec, cfg: SimulationConfig,
                   regions: list[str] | None = None,
                   forecast: ForecastSpec | None = None) -> tuple[SecurityReport, bytes]:
    view = base.with_branch_status(deltas)
    y = build_ybus(view)
    if regions is None:
        regions = [r for r in view.regions() if region_load_bus_ids(view, r)]
    region_sets = {}
    for r in regions:
        sset, load_ids, _, _ = region_scenarios(view, r, dsa, forecast)
        region_sets[r] = (sset, load_ids)
    report = dsa_compute(view, y, region_sets, fault, cfg)
    return report, dsa_result_blob(report)
