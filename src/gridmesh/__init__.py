"""gridmesh: desk-scale distributed grid co-simulation.

UE agents report topology and forecasts, edge servers build region-local
admittance partials and reduced scenario sets, and a cloud coordinator merges,
simulates transient dynamics and assesses security, all over an emulated
cellular transport. See README.md for the tour.
"""

from .model import (Branch, Bus, CaseError, FaultSpec, Generator, GridCase,
                    load_bundled_case, load_case, parse_case)
from .powerflow import PowerFlowSolution, initialize_machines, solve_power_flow
from .ybus import (PartialAdmittance, YMatrix, build_partial, build_partials,
                   build_ybus, fault_variants, merge_partials)
from .dynamics import (ReducedNetwork, SecurityReport, SimulationConfig,
                       SimulationResult, assess_run, kron_eliminate, kron_reduce,
                       reduce_network, simulate_batch, simulate_dynamics)
from .sampling import (ForecastSpec, Scenario, ScenarioSet, apply_scenario,
                       combine_region_sets, draw_samples, reduce_scenarios)
from .wire import Envelope, MessageKind, StreamDecoder, decode, encode
from .linkem import (LinkEmulator, LinkProfile, default_5g_sa_profile,
                     zero_impairment_profile)
from .store import FileStore, Receipt, WaitResult
from .pipeline import DsaParams, RunManifest

__version__ = "0.1.0"

__all__ = [
    "Branch", "Bus", "CaseError", "FaultSpec", "Generator", "GridCase",
    "load_bundled_case", "load_case", "parse_case",
    "PowerFlowSolution", "initialize_machines", "solve_power_flow",
    "PartialAdmittance", "YMatrix", "build_partial", "build_partials",
    "build_ybus", "fault_variants", "merge_partials",
    "ReducedNetwork", "SecurityReport", "SimulationConfig", "SimulationResult",
    "assess_run", "kron_eliminate", "kron_reduce", "reduce_network",
    "simulate_batch", "simulate_dynamics",
    "ForecastSpec", "Scenario", "ScenarioSet", "apply_scenario",
    "combine_region_sets", "draw_samples", "reduce_scenarios",
    "Envelope", "MessageKind", "StreamDecoder", "decode", "encode",
    "LinkEmulator", "LinkProfile", "default_5g_sa_profile",
    "zero_impairment_profile",
    "FileStore", "Receipt", "WaitResult",
    "DsaParams", "RunManifest",
    "__version__",
]
