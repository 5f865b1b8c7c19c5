"""Forecast-error scenario sampling and reduction.

A scenario is a row of load multipliers, one column per load, and a set of
scenarios is an array of such rows from the raw draw to the simulation. Raw
draws come from Latin-hypercube stratification mapped through the truncated
inverse CDF of the per-load relative-error model; the raw array is then
reduced to a small weighted ``ScenarioSet`` with seeded k-means (greedy
farthest-point init, representatives snapped to the nearest actual draw,
whose row index is the representative's id, and weights proportional to
cluster population). The cloud combines the regions' sets into one joint
array whose columns are the case's load buses in ascending id order.
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
class ScenarioSet:
    """A reduced set: row i of ``multipliers`` is raw draw ``ids[i]`` of the
    ``n_raw`` drawn, standing for the share ``weights[i]`` of them."""

    multipliers: np.ndarray      # (k, dims)
    weights: np.ndarray          # (k,)
    ids: np.ndarray              # (k,) raw-draw indices
    n_raw: int

    def __post_init__(self):
        k = len(self.weights)
        if (k == 0 or self.multipliers.ndim != 2 or len(self.multipliers) != k
                or self.weights.shape != (k,) or self.ids.shape != (k,)):
            raise SamplingError("a scenario set needs one or more scenarios, each with "
                                "one multiplier row, weight and id")
        if not (np.isfinite(self.multipliers).all() and np.isfinite(self.weights).all()):
            raise SamplingError("multipliers and weights must be finite")
        if (self.multipliers <= 0).any():
            raise SamplingError("scenario multipliers must be > 0")
        if (self.weights < 0).any():
            raise SamplingError("weights must be >= 0")
        if abs(sum(self.weights.tolist()) - 1.0) > 1e-9:
            raise SamplingError("weights must sum to 1")
        if len(set(self.ids.tolist())) != k or ((self.ids < 0) | (self.ids >= self.n_raw)).any():
            raise SamplingError("ids must be distinct raw-draw indices in [0, n_raw)")

    def to_payload(self) -> dict:
        return {"n_raw": self.n_raw, "ids": self.ids.tolist(),
                "weights": self.weights.tolist(), "multipliers": self.multipliers.tolist()}

    @classmethod
    def from_payload(cls, d: dict) -> "ScenarioSet":
        return cls(multipliers=np.array(d["multipliers"], dtype=float),
                   weights=np.array(d["weights"], dtype=float),
                   ids=np.array(d["ids"], dtype=int), n_raw=int(d["n_raw"]))


def _inverse_cdf(spec: ForecastSpec, u: float) -> float:
    """Map a uniform(0,1) stratum coordinate to a truncated relative error."""
    if spec.dist == UNIFORM:
        return -spec.half_width + u * (2.0 * spec.half_width)
    z = spec.trunc_sigmas
    lo, hi = _STD_NORMAL.cdf(-z), _STD_NORMAL.cdf(z)
    return spec.sigma * _STD_NORMAL.inv_cdf(lo + u * (hi - lo))


def draw_samples(spec: ForecastSpec, n_raw: int, seed: int) -> np.ndarray:
    """Latin-hypercube draw of an ``(n_raw, n_dims)`` multiplier array: one
    stratified coordinate per (sample, dimension).

    Per dimension the strata order is a seeded permutation and each stratum is
    jittered uniformly, so the empirical marginals match the error model with
    LHS variance reduction. Deterministic given (spec, n_raw, seed).
    """
    if n_raw < 1:
        raise SamplingError("n_raw must be >= 1")
    rng = np.random.default_rng(seed)
    x = np.empty((n_raw, spec.n_dims))
    for d in range(spec.n_dims):
        perm = rng.permutation(n_raw)
        jitter = rng.random(n_raw)
        u = (perm + jitter) / n_raw
        x[:, d] = [max(1.0 + _inverse_cdf(spec, ui), MIN_MULTIPLIER) for ui in u]
    return x


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


def reduce_scenarios(x: np.ndarray, k: int, seed: int) -> ScenarioSet:
    """Seeded k-means reduction of the raw draws ``x`` (one per row) to at
    most ``k`` weighted representatives.

    Each representative is the sample nearest its cluster centroid; empty
    clusters are dropped. Assignment ties break toward the lowest index.
    """
    n = len(x)
    if not (1 <= k <= n):
        raise SamplingError(f"need 1 <= k <= n_raw, got k={k}, n_raw={n}")
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

    ids: list[int] = []
    weights: list[float] = []
    for c in range(k):
        member_idx = np.nonzero(assign == c)[0]
        if member_idx.size == 0:
            continue
        d2 = np.sum((x[member_idx] - centers[c]) ** 2, axis=1)
        ids.append(int(member_idx[int(np.argmin(d2))]))
        weights.append(member_idx.size / n)
    return ScenarioSet(multipliers=x[ids], weights=np.array(weights), ids=np.array(ids),
                       n_raw=n)


def scenario_loads(case: GridCase, multipliers: np.ndarray) -> Loads:
    """Every scenario's loads and rebalanced generation, as arrays with one row
    per row of ``multipliers``.

    Multiplier columns align with the case's load buses in ascending bus-id order;
    every p_mech is scaled by the total-load ratio so the subsequent power
    flow starts near balance. Totals are summed bus by bus in id order, as
    Python's ``sum`` over the buses does.
    """
    load_ids = case.load_bus_ids()
    if multipliers.shape[1] != len(load_ids):
        raise SamplingError(f"scenarios have {multipliers.shape[1]} multipliers, "
                            f"case has {len(load_ids)} loads")
    base = Loads.of_case(case)
    size = len(multipliers)
    p_load = np.repeat(base.p_load, size, axis=0)
    q_load = np.repeat(base.q_load, size, axis=0)
    idx = case.bus_index()
    cols = [idx[b] for b in load_ids]
    p_load[:, cols] *= multipliers
    q_load[:, cols] *= multipliers
    p_mech = np.repeat(base.p_mech, size, axis=0)
    old_total = sum(b.p_load for b in case.buses)
    if old_total != 0.0:
        new_total = np.zeros(size)
        for col in range(case.n):
            new_total += p_load[:, col]
        p_mech *= (new_total / old_total)[:, None]
    return Loads(p_load=p_load, q_load=q_load, p_mech=p_mech)


def apply_scenario(case: GridCase, row: np.ndarray) -> GridCase:
    """The case with one multiplier row's loads and generation
    (``scenario_loads`` for a batch of one)."""
    loads = scenario_loads(case, np.reshape(row, (1, -1)))
    scaled = case.with_bus_loads({b.id: (float(loads.p_load[0, k]), float(loads.q_load[0, k]))
                                  for k, b in enumerate(case.buses)})
    gens = tuple(replace(g, p_mech=float(loads.p_mech[0, k]))
                 for k, g in enumerate(scaled.generators))
    return replace(scaled, generators=gens)


def combine_region_sets(region_sets: dict[str, tuple[ScenarioSet, list[int]]],
                        ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Cross-region product of independently sampled scenario sets: the joint
    multipliers, their weights and the load bus id of each column.

    Regions combine in ascending region-id order, the last varying fastest.
    Each region's rows go into its load buses' columns, in ascending bus-id
    order; joint weights are products, normalized by their sequential sum.
    """
    if not region_sets:
        raise SamplingError("no region scenario sets to combine")
    regions = sorted(region_sets)
    all_bus_ids = [b for r in regions for b in region_sets[r][1]]
    if len(set(all_bus_ids)) != len(all_bus_ids):
        raise SamplingError("regions share load buses")
    bus_ids = sorted(all_bus_ids)
    col = {b: j for j, b in enumerate(bus_ids)}
    mult = np.empty((1, len(bus_ids)))
    weights = np.ones(1)
    for r in regions:
        sset, ids = region_sets[r]
        if sset.multipliers.shape[1] != len(ids):
            raise SamplingError(f"region {r} has {sset.multipliers.shape[1]} multipliers "
                                f"per scenario for {len(ids)} load buses")
        mult = np.repeat(mult, len(sset.weights), axis=0)
        mult[:, [col[b] for b in ids]] = np.tile(sset.multipliers, (len(weights), 1))
        weights = np.outer(weights, sset.weights).ravel()
    return mult, weights / sum(weights.tolist()), bus_ids
