"""Run manifests, the run artifacts and the compute pipeline shared by
distributed nodes and oracles.

Only this module builds or parses a region's upload or a run's result, in
either mode: an edge calls ``edge_upload`` and the cloud ``cloud_result``.
An upload states the region's network only as its partial's stamps; the
cloud reads each branch's status from them (``ybus.merge_partials``).
Everything here is pure: the socket nodes, the virtual-time demo and the
monolithic single-process oracle all call the same functions, which is what
makes distributed results comparable bit-for-bit with in-process ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import (SecurityReport, SimulationConfig, SimulationResult, assess_run,
                       prepare_batch, reduce_network, simulate_batch, simulate_dynamics)
from .model import FaultSpec, GridCase, fault_from_dict, fault_to_dict, validate_fault
from .powerflow import initialize_machines, solve_power_flow
# apply_scenario is not called here, but the benchmark's tracer wraps it by this name
from .sampling import (ForecastSpec, ScenarioSet, apply_scenario,
                       combine_region_sets, draw_samples, reduce_scenarios, scenario_loads)
from .wire import canonical_json
from .ybus import PartialAdmittance, YMatrix, build_partial, build_ybus, merge_partials

MODE_TOPOLOGY = "Topology"
MODE_DSA = "DSA"

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
        if not (isinstance(self.run_id, str) and len(self.run_id) == 32
                and all(c in "0123456789abcdef" for c in self.run_id)):
            raise ManifestError(f"run_id must be 32 lowercase hex chars, got {self.run_id!r}")
        regions = self.expected_regions
        if not (isinstance(regions, (list, tuple)) and regions
                and all(isinstance(r, str) and r for r in regions)
                and len(set(regions)) == len(regions)):
            raise ManifestError(f"expected_regions must list distinct region ids, got {regions!r}")
        object.__setattr__(self, "expected_regions", tuple(sorted(regions)))
        if self.mode not in (MODE_TOPOLOGY, MODE_DSA):
            raise ManifestError(f"mode must be Topology or DSA, got {self.mode!r}")
        if not (math.isfinite(self.deadline_s) and self.deadline_s > 0):
            raise ManifestError(f"deadline_s must be finite and > 0, got {self.deadline_s}")
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
        """A missing key, a section of the wrong JSON type or an unparsable
        number raises ManifestError naming the field; ``dsa`` may be absent."""
        if not isinstance(d, dict):
            raise ManifestError(f"manifest must be a JSON object, got {type(d).__name__}")
        d = {"dsa": None, **d}

        def field(name, parse=lambda v: v):
            try:
                return parse(d[name])
            except (KeyError, TypeError, ValueError) as exc:
                raise ManifestError(f"manifest field {name!r}: {exc!r}") from None

        return cls(run_id=field("run_id"), expected_regions=field("expected_regions"),
                   mode=field("mode"), fault=field("fault", fault_from_dict),
                   sim_cfg=field("sim_cfg", SimulationConfig.from_dict),
                   deadline_s=field("deadline_s", float),
                   dsa=field("dsa", lambda v: DsaParams.from_dict(v) if v else None))

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
    owner = case.bus_owner()
    return [b for b in case.load_bus_ids() if owner[b] == region]


# ----------------------------------------------------------------------
# Edge-side uploads: one per region per run

def _topology_upload(view: GridCase, region: str) -> dict:
    return {"partial": build_partial(view, region).to_payload()}


def edge_topology_blob(view: GridCase, region: str) -> bytes:
    """A Topology run's upload: the region partial of the edge's view."""
    return canonical_json(_topology_upload(view, region))


def region_samples(view: GridCase, region: str, dsa: DsaParams,
                   forecast: ForecastSpec | None = None,
                   ) -> tuple[np.ndarray, list[int], ForecastSpec, int]:
    """Draw the raw forecast scenarios for one region's loads, with its edge's seed."""
    load_ids = region_load_bus_ids(view, region)
    if forecast is None:
        forecast = ForecastSpec(n_dims=len(load_ids))
    if forecast.n_dims != len(load_ids):
        raise ManifestError(
            f"forecast spec has {forecast.n_dims} dims, region {region} has "
            f"{len(load_ids)} loads")
    seed = region_seed(dsa.seed, region)
    return draw_samples(forecast, dsa.n_raw, seed), load_ids, forecast, seed


def region_scenarios(view: GridCase, region: str, dsa: DsaParams,
                     forecast: ForecastSpec | None = None,
                     ) -> tuple[ScenarioSet, list[int], ForecastSpec, int]:
    """Sample and reduce the forecast scenarios for one region's loads."""
    samples, load_ids, forecast, seed = region_samples(view, region, dsa, forecast)
    return reduce_scenarios(samples, dsa.k, seed), load_ids, forecast, seed


def edge_scenarios_blob(view: GridCase, region: str, dsa: DsaParams,
                        forecast: ForecastSpec | None = None) -> bytes:
    """A DSA run's upload: the Topology upload's fields plus the region's
    reduced scenario set and what it was drawn with."""
    sset, load_ids, spec, seed = region_scenarios(view, region, dsa, forecast)
    return canonical_json({
        **_topology_upload(view, region),
        "load_bus_ids": load_ids,
        "scenario_set": sset.to_payload(),
        "forecast_spec": spec.to_dict(),
        "seed": seed,
    })


def edge_upload(view: GridCase, region: str, manifest: RunManifest,
                forecast: ForecastSpec | None = None) -> bytes:
    """The region's one upload for the run, in the manifest's mode."""
    if manifest.mode == MODE_TOPOLOGY:
        return edge_topology_blob(view, region)
    return edge_scenarios_blob(view, region, manifest.dsa, forecast)


def parse_upload(blob: bytes) -> dict:
    """Either mode's upload with its partial parsed, and in DSA its scenario
    set and load bus ids too."""
    obj = json.loads(blob.decode())
    obj["partial"] = PartialAdmittance.from_payload(obj["partial"])
    if "scenario_set" in obj:
        obj["scenario_set"] = ScenarioSet.from_payload(obj["scenario_set"])
        obj["load_bus_ids"] = [int(b) for b in obj["load_bus_ids"]]
    return obj


# ----------------------------------------------------------------------
# Cloud-side compute

def cloud_result(base: GridCase, manifest: RunManifest,
                 blobs: dict[str, bytes]) -> tuple[bytes, str]:
    """The run's result blob and its one-line summary, computed in the
    manifest's mode from each region's upload, parsed once."""
    uploads = {r: parse_upload(blob) for r, blob in blobs.items()}
    y = cloud_merge(base, uploads)
    fault, cfg = manifest.fault, manifest.sim_cfg
    if manifest.mode == MODE_TOPOLOGY:
        result = topology_compute(y, fault, cfg)
        return topology_result_blob(result), result.verdict
    region_sets = {r: (u["scenario_set"], u["load_bus_ids"]) for r, u in uploads.items()}
    report = dsa_compute(y, region_sets, fault, cfg)
    return (dsa_result_blob(report),
            f"insecurity_probability={report.insecurity_probability!r}")


def cloud_merge(base: GridCase, uploads: dict[str, dict]) -> YMatrix:
    """The full matrix that the parsed region uploads state, of their view."""
    return merge_partials(base, {r: u["partial"] for r, u in uploads.items()})


def topology_compute(y: YMatrix, fault: FaultSpec, cfg: SimulationConfig) -> SimulationResult:
    """Power flow, machine initialization, reduction and simulation over one
    matrix, each a batch of one, after the fault is checked against ``y.case``."""
    validate_fault(y.case, fault)
    # each stage is its own call, looked up by name, because the benchmark's
    # tracer times solve_power_flow, initialize_machines and simulate_dynamics
    # here, and reduce_network's fault_variants and kron_reduce in dynamics
    sol = solve_power_flow(y)
    machines = initialize_machines(y.case, sol)
    net = reduce_network(y, sol, fault)
    return simulate_dynamics(machines, net, fault, cfg)


def topology_result_blob(result: SimulationResult) -> bytes:
    return canonical_json({"mode": MODE_TOPOLOGY, "result": result.to_payload()})


def simulate_scenarios(y: YMatrix, multipliers: np.ndarray, fault: FaultSpec,
                       cfg: SimulationConfig) -> list[SimulationResult]:
    """Every multiplier row's operating point and reduced network, prepared in
    one batch over the run's one matrix, then one batched integration of them all."""
    machines, net = prepare_batch(y, scenario_loads(y.case, multipliers), fault)
    return simulate_batch(machines, net, fault, cfg)


def dsa_compute(y: YMatrix, region_sets: dict[str, tuple[ScenarioSet, list[int]]],
                fault: FaultSpec, cfg: SimulationConfig) -> SecurityReport:
    """Simulate every joint representative scenario in one batch and aggregate."""
    multipliers, weights, bus_ids = combine_region_sets(region_sets)
    if bus_ids != y.case.load_bus_ids():
        raise ManifestError(
            f"scenario load buses {bus_ids} do not match case loads {y.case.load_bus_ids()}")
    sims = simulate_scenarios(y, multipliers, fault, cfg)
    return assess_run(list(zip(weights.tolist(), sims)))


def dsa_result_blob(report: SecurityReport) -> bytes:
    return canonical_json({"mode": MODE_DSA, "report": report.to_payload()})


def parse_dsa_result(blob: bytes) -> SecurityReport:
    return SecurityReport.from_payload(json.loads(blob.decode())["report"])


def result_summary(blob: bytes) -> str:
    """A stored result's summary line for ``gridmesh report``."""
    obj = json.loads(blob.decode())
    if obj.get("mode") == MODE_DSA:
        rep = obj["report"]
        unstable = sum(1 for row in rep["rows"] if row["verdict"] == "Unstable")
        return (f"weighted insecurity probability: {rep['insecurity_probability']!r} "
                f"({unstable}/{len(rep['rows'])} representative scenarios unstable)")
    if obj.get("mode") == MODE_TOPOLOGY:
        res = obj["result"]
        if res["t_unstable"] is not None:
            return f"verdict: {res['verdict']} at t={res['t_unstable']}s"
        return f"verdict: {res['verdict']}"
    return ""


# ----------------------------------------------------------------------
# Monolithic oracle: the same pipeline with no network in the way

def monolithic_topology(base: GridCase, deltas: dict[int, str], fault: FaultSpec,
                        cfg: SimulationConfig) -> tuple[SimulationResult, bytes]:
    result = topology_compute(build_ybus(base.with_branch_status(deltas)), fault, cfg)
    return result, topology_result_blob(result)


def monolithic_dsa(base: GridCase, deltas: dict[int, str], dsa: DsaParams,
                   fault: FaultSpec, cfg: SimulationConfig,
                   forecasts: dict[str, ForecastSpec] | None = None,
                   ) -> tuple[SecurityReport, bytes]:
    """``forecasts`` holds the spec each region's edge was given; a region
    that is missing samples with its default spec. Every region samples, as
    every edge does, so a spec that does not fit its region raises."""
    forecasts = forecasts or {}
    y = build_ybus(base.with_branch_status(deltas))
    region_sets = {r: region_scenarios(y.case, r, dsa, forecasts.get(r))[:2]
                   for r in y.case.regions()}
    report = dsa_compute(y, region_sets, fault, cfg)
    return report, dsa_result_blob(report)


def dsa_bruteforce_probability(base: GridCase, deltas: dict[int, str], dsa: DsaParams,
                               fault: FaultSpec, cfg: SimulationConfig,
                               forecasts: dict[str, ForecastSpec] | None = None) -> float:
    """Equal-weight insecurity probability over the raw draws the representatives
    stand for: joint scenario i takes raw draw i of every region, drawn with
    that region's spec from ``forecasts`` (its default when missing)."""
    forecasts = forecasts or {}
    view = base.with_branch_status(deltas)
    col = {b: j for j, b in enumerate(view.load_bus_ids())}
    joint = np.empty((dsa.n_raw, len(col)))
    for r in view.regions():
        draws, ids = region_samples(view, r, dsa, forecasts.get(r))[:2]
        joint[:, [col[b] for b in ids]] = draws
    sims = simulate_scenarios(build_ybus(view), joint, fault, cfg)
    return assess_run([(1.0, r) for r in sims]).insecurity_probability
