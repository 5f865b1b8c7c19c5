"""Forecast-error scenario sampling and reduction.

Raw scenarios come from Latin-hypercube stratification mapped through the
truncated inverse CDF of the per-load relative-error model; the raw set is
then reduced to a small weighted representative set with seeded k-means
(greedy farthest-point init, representatives snapped to the nearest actual
sample, weights proportional to cluster population).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .model import GridCase
from .powerflow import Loads

GAUSSIAN = "gaussian"
UNIFORM = "uniform"

MIN_MULTIPLIER = 0.01
KMEANS_MAX_ITER = 100

_STD_NORMAL = NormalDist()


class SamplingError(ValueError):
    pass


@dataclass(frozen=True)
class ForecastSpec:
    """Independent per-load relative error model (one distribution, all dims)."""

    n_dims: int
    dist: str = GAUSSIAN
    sigma: float = 0.05          # gaussian std of relative error
    half_width: float = 0.0      # uniform half-range
    trunc_sigmas: float = 3.0    # gaussian truncation at +-trunc_sigmas * sigma

    def __post_init__(self):
        if self.n_dims < 0:
            raise SamplingError("n_dims must be >= 0")
        if not (math.isfinite(self.sigma) and math.isfinite(self.half_width)):
            raise SamplingError("sigma and half_width must be finite")
        if self.dist == GAUSSIAN:
            if self.sigma <= 0:
                raise SamplingError("gaussian spec needs sigma > 0")
            if not math.isfinite(self.trunc_sigmas) or self.trunc_sigmas <= 0:
                raise SamplingError("truncation bound must be finite and > 0")
        elif self.dist == UNIFORM:
            if self.half_width < 0:
                raise SamplingError("uniform spec needs half_width >= 0")
        else:
            raise SamplingError(f"unknown distribution {self.dist!r}")

    def to_dict(self) -> dict:
        return {"n_dims": self.n_dims, "dist": self.dist, "sigma": self.sigma,
                "half_width": self.half_width, "trunc_sigmas": self.trunc_sigmas}

    @classmethod
    def from_dict(cls, d: dict) -> "ForecastSpec":
        return cls(n_dims=int(d["n_dims"]), dist=d["dist"], sigma=float(d["sigma"]),
                   half_width=float(d["half_width"]),
                   trunc_sigmas=float(d["trunc_sigmas"]))


@dataclass(frozen=True)
class Scenario:
    id: int
    multipliers: tuple[float, ...]
    seed_lineage: tuple[int, ...]

    def __post_init__(self):
        if any(m <= 0 for m in self.multipliers):
            raise SamplingError("scenario multipliers must be > 0")


@dataclass(frozen=True)
class ScenarioSet:
    representatives: tuple[Scenario, ...]
    weights: tuple[float, ...]
    n_raw: int

    def __post_init__(self):
        if len(self.representatives) != len(self.weights):
            raise SamplingError("representatives and weights differ in length")
        if any(w < 0 for w in self.weights):
            raise SamplingError("weights must be >= 0")
        if self.weights and abs(sum(self.weights) - 1.0) > 1e-9:
            raise SamplingError("weights must sum to 1")

    def to_payload(self) -> dict:
        return {
            "n_raw": self.n_raw,
            "weights": list(self.weights),
            "representatives": [
                {"id": s.id, "multipliers": list(s.multipliers),
                 "seed_lineage": list(s.seed_lineage)}
                for s in self.representatives
            ],
        }

    @classmethod
    def from_payload(cls, d: dict) -> "ScenarioSet":
        reps = tuple(
            Scenario(id=int(r["id"]), multipliers=tuple(float(x) for x in r["multipliers"]),
                     seed_lineage=tuple(int(x) for x in r["seed_lineage"]))
            for r in d["representatives"]
        )
        return cls(representatives=reps, weights=tuple(float(w) for w in d["weights"]),
                   n_raw=int(d["n_raw"]))


def _inverse_cdf(spec: ForecastSpec, u: float) -> float:
    """Map a uniform(0,1) stratum coordinate to a truncated relative error."""
    if spec.dist == UNIFORM:
        return -spec.half_width + u * (2.0 * spec.half_width)
    z = spec.trunc_sigmas
    lo, hi = _STD_NORMAL.cdf(-z), _STD_NORMAL.cdf(z)
    return spec.sigma * _STD_NORMAL.inv_cdf(lo + u * (hi - lo))


def draw_samples(spec: ForecastSpec, n_raw: int, seed: int) -> list[Scenario]:
    """Latin-hypercube draw: one stratified coordinate per (sample, dimension).

    Per dimension the strata order is a seeded permutation and each stratum is
    jittered uniformly, so the empirical marginals match the error model with
    LHS variance reduction. Deterministic given (spec, n_raw, seed).
    """
    if n_raw < 1:
        raise SamplingError("n_raw must be >= 1")
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(spec.n_dims):
        perm = rng.permutation(n_raw)
        jitter = rng.random(n_raw)
        u = (perm + jitter) / n_raw
        cols.append([max(1.0 + _inverse_cdf(spec, ui), MIN_MULTIPLIER) for ui in u])
    return [
        Scenario(id=i, multipliers=tuple(col[i] for col in cols),
                 seed_lineage=(int(seed), i))
        for i in range(n_raw)
    ]


def _farthest_point_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    first = int(rng.integers(n))
    centers = [x[first]]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(d2))     # argmax takes the lowest index on ties
        centers.append(x[nxt])
        d2 = np.minimum(d2, np.sum((x - centers[-1]) ** 2, axis=1))
    return np.array(centers)


def reduce_scenarios(samples: list[Scenario], k: int, seed: int) -> ScenarioSet:
    """Seeded k-means reduction to at most ``k`` weighted representatives.

    Each representative is the sample nearest its cluster centroid; empty
    clusters are dropped. Assignment ties break toward the lowest index.
    """
    n = len(samples)
    if not (1 <= k <= n):
        raise SamplingError(f"need 1 <= k <= n_raw, got k={k}, n_raw={n}")
    x = np.array([s.multipliers for s in samples], dtype=float).reshape(n, -1)
    rng = np.random.default_rng(seed)
    centers = _farthest_point_init(x, k, rng)

    assign = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
        d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(d2, axis=1)      # lowest cluster index on ties
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = x[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)

    reps: list[Scenario] = []
    weights: list[float] = []
    for c in range(k):
        member_idx = np.nonzero(assign == c)[0]
        if member_idx.size == 0:
            continue
        d2 = np.sum((x[member_idx] - centers[c]) ** 2, axis=1)
        reps.append(samples[int(member_idx[int(np.argmin(d2))])])
        weights.append(member_idx.size / n)
    return ScenarioSet(representatives=tuple(reps), weights=tuple(weights), n_raw=n)


def scenario_loads(case: GridCase, scenarios: list[Scenario]) -> Loads:
    """Every scenario's loads and rebalanced generation, as arrays with one row
    per scenario.

    Multipliers align with the case's load buses in ascending bus-id order;
    every p_mech is scaled by the total-load ratio so the subsequent power
    flow starts near balance. Totals are summed bus by bus in id order, as
    Python's ``sum`` over the buses does.
    """
    load_ids = case.load_bus_ids()
    for s in scenarios:
        if len(s.multipliers) != len(load_ids):
            raise SamplingError(f"scenario has {len(s.multipliers)} multipliers, "
                                f"case has {len(load_ids)} loads")
    base = Loads.of_case(case)
    size = len(scenarios)
    p_load = np.repeat(base.p_load, size, axis=0)
    q_load = np.repeat(base.q_load, size, axis=0)
    idx = case.bus_index()
    cols = [idx[b] for b in load_ids]
    mult = np.array([s.multipliers for s in scenarios], dtype=float).reshape(size, len(cols))
    p_load[:, cols] *= mult
    q_load[:, cols] *= mult
    p_mech = np.repeat(base.p_mech, size, axis=0)
    old_total = sum(b.p_load for b in case.buses)
    if old_total != 0.0:
        new_total = np.zeros(size)
        for col in range(case.n):
            new_total += p_load[:, col]
        p_mech *= (new_total / old_total)[:, None]
    return Loads(p_load=p_load, q_load=q_load, p_mech=p_mech)


def apply_scenario(case: GridCase, s: Scenario) -> GridCase:
    """The case with one scenario's loads and generation (``scenario_loads``
    for a batch of one)."""
    loads = scenario_loads(case, [s])
    scaled = case.with_bus_loads({b.id: (float(loads.p_load[0, k]), float(loads.q_load[0, k]))
                                  for k, b in enumerate(case.buses)})
    gens = tuple(replace(g, p_mech=float(loads.p_mech[0, k]))
                 for k, g in enumerate(scaled.generators))
    return replace(scaled, generators=gens)


def combine_region_sets(region_sets: dict[str, tuple[ScenarioSet, list[int]]],
                        ) -> tuple[ScenarioSet, list[int]]:
    """Cross-region product of independently sampled scenario sets.

    Regions combine in ascending region-id order; joint multipliers are
    re-ordered to ascending bus id, joint weights are products, and the joint
    raw count is the product of the per-region raw counts.
    """
    if not region_sets:
        raise SamplingError("no region scenario sets to combine")
    regions = sorted(region_sets)
    all_bus_ids: list[int] = []
    for r in regions:
        all_bus_ids.extend(region_sets[r][1])
    if len(set(all_bus_ids)) != len(all_bus_ids):
        raise SamplingError("regions share load buses")
    order = np.argsort(all_bus_ids, kind="stable")
    sorted_bus_ids = [all_bus_ids[i] for i in order]

    combos: list[tuple[tuple[float, ...], float, tuple[int, ...]]] = [((), 1.0, ())]
    for r in regions:
        sset, _ = region_sets[r]
        combos = [
            (mult + s.multipliers, w * sw, lineage + s.seed_lineage)
            for mult, w, lineage in combos
            for s, sw in zip(sset.representatives, sset.weights)
        ]
    reps = []
    weights = []
    for i, (mult, w, lineage) in enumerate(combos):
        joint = tuple(mult[j] for j in order)
        reps.append(Scenario(id=i, multipliers=joint, seed_lineage=lineage))
        weights.append(w)
    total = sum(weights)
    weights = [w / total for w in weights]
    n_raw = 1
    for r in regions:
        n_raw *= region_sets[r][0].n_raw
    return ScenarioSet(representatives=tuple(reps), weights=tuple(weights),
                       n_raw=n_raw), sorted_bus_ids
