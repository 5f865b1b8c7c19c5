import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmesh.model import load_bundled_case
from gridmesh.powerflow import solve_power_flow
from gridmesh.sampling import (ForecastSpec, SamplingError, ScenarioSet, apply_scenario,
                               combine_region_sets, draw_samples, reduce_scenarios)
from gridmesh.ybus import build_ybus

from helpers import reference_combine


def gaussian_spec(dims=3, sigma=0.05):
    return ForecastSpec(n_dims=dims, dist="gaussian", sigma=sigma)


class TestForecastSpec:
    def test_gaussian_needs_positive_sigma(self):
        with pytest.raises(SamplingError):
            ForecastSpec(n_dims=1, dist="gaussian", sigma=0.0)

    def test_uniform_allows_zero_width(self):
        ForecastSpec(n_dims=1, dist="uniform", half_width=0.0)

    def test_unknown_distribution(self):
        with pytest.raises(SamplingError):
            ForecastSpec(n_dims=1, dist="cauchy")

    def test_dict_roundtrip(self):
        spec = gaussian_spec()
        assert ForecastSpec.from_dict(spec.to_dict()) == spec


class TestDrawSamples:
    def test_zero_variance_gives_exact_unity(self):
        spec = ForecastSpec(n_dims=4, dist="uniform", half_width=0.0)
        for row in draw_samples(spec, 50, seed=3).tolist():
            assert row == [1.0, 1.0, 1.0, 1.0]

    def test_same_seed_identical(self):
        a = draw_samples(gaussian_spec(), 100, seed=42)
        b = draw_samples(gaussian_spec(), 100, seed=42)
        assert a.tobytes() == b.tobytes()

    def test_different_seed_differs(self):
        a = draw_samples(gaussian_spec(), 100, seed=42)
        b = draw_samples(gaussian_spec(), 100, seed=43)
        assert a.tobytes() != b.tobytes()

    def test_large_sample_marginal_statistics(self):
        # law of large numbers with LHS variance reduction; truncation at 3 sigma
        # shrinks the std slightly (factor ~0.9733)
        spec = gaussian_spec(dims=3, sigma=0.05)
        x = draw_samples(spec, 10_000, seed=7)
        for d in range(3):
            assert abs(x[:, d].mean() - 1.0) < 0.002
            assert abs(x[:, d].std() - 0.05) < 0.003

    def test_truncation_bounds_respected(self):
        spec = gaussian_spec(dims=2, sigma=0.1)
        x = draw_samples(spec, 2000, seed=1)
        assert np.all(x >= 1.0 - 0.3 - 1e-12) and np.all(x <= 1.0 + 0.3 + 1e-12)

    def test_uniform_bounds(self):
        spec = ForecastSpec(n_dims=1, dist="uniform", half_width=0.2)
        x = draw_samples(spec, 2000, seed=1)
        assert np.all(x >= 0.8 - 1e-12) and np.all(x <= 1.2 + 1e-12)

    def test_lineage_and_ids(self):
        # a representative's id is its row in the raw draw
        samples = draw_samples(gaussian_spec(), 10, seed=5)
        sset = reduce_scenarios(samples, 10, seed=5)
        assert sorted(sset.ids.tolist()) == list(range(10))
        assert sset.multipliers.tobytes() == samples[sset.ids].tobytes()

    def test_stratification_one_sample_per_stratum(self):
        # LHS property: per dimension, exactly one sample in each 1/n quantile bin
        spec = ForecastSpec(n_dims=2, dist="uniform", half_width=0.5)
        n = 64
        x = draw_samples(spec, n, seed=9)
        for d in range(2):
            u = (x[:, d] - 0.5)  # back to [0,1)
            bins = np.floor(u * n).astype(int)
            assert sorted(bins.tolist()) == list(range(n))

    def test_n_raw_must_be_positive(self):
        with pytest.raises(SamplingError):
            draw_samples(gaussian_spec(), 0, seed=1)


def brute_force_two_clusters(points):
    """Optimal 2-clustering by exhaustive bipartition (k-means objective).

    Point 0 stays in cluster A; bit i - 1 of each mask in [1, 2^(n-1)) puts
    point i in cluster B, for i = 1..n-1. A cluster's sum of squared distances to its mean is
    sum |x|^2 - |sum x|^2 / size, and sum |x|^2 over both clusters is the same
    for every bipartition, so the masks are ranked by the other terms alone.
    """
    x = np.array(points)
    n = len(x)
    masks = np.arange(1, 2 ** (n - 1))
    in_b = np.zeros((len(masks), n), dtype=bool)
    in_b[:, 1:] = (masks[:, None] >> np.arange(n - 1)) & 1 == 1
    size_b = in_b.sum(axis=1)
    sum_b = in_b @ x
    sum_a = x.sum(axis=0) - sum_b
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = -(sum_a ** 2).sum(axis=1) / (n - size_b) - (sum_b ** 2).sum(axis=1) / size_b
    cost[size_b == 0] = math.inf
    b = in_b[np.argmin(cost)]
    return frozenset(np.flatnonzero(~b).tolist()), frozenset(np.flatnonzero(b).tolist())


class TestReduceScenarios:
    def test_k_equals_n_returns_samples(self):
        samples = draw_samples(gaussian_spec(dims=2), 12, seed=2)
        sset = reduce_scenarios(samples, 12, seed=2)
        assert sorted(sset.ids.tolist()) == list(range(12))
        assert all(w == pytest.approx(1 / 12) for w in sset.weights)

    def test_identical_samples_collapse(self):
        samples = np.array([(1.1, 0.9)] * 20)
        sset = reduce_scenarios(samples, 5, seed=0)
        assert len(sset.multipliers) == 1
        assert sset.multipliers[0].tolist() == [1.1, 0.9]
        assert sum(sset.weights) == pytest.approx(1.0)

    def test_two_blobs_against_bruteforce_oracle(self):
        rng = np.random.default_rng(21)
        blob_a = rng.normal(0.9, 0.005, size=(12, 2))
        blob_b = rng.normal(1.15, 0.005, size=(6, 2))
        pts = np.vstack([blob_a, blob_b])
        order = rng.permutation(len(pts))
        pts = pts[order]
        oracle_a, oracle_b = brute_force_two_clusters([tuple(p) for p in pts])

        sset = reduce_scenarios(pts, 2, seed=4)
        assert len(sset.multipliers) == 2
        got = []
        x = pts
        for c, w in enumerate(sset.weights):
            members = frozenset(
                i for i in range(len(x))
                if np.argmin([np.sum((x[i] - r) ** 2 * [1, 1]) for r in sset.multipliers])
                == c)
            got.append((members, w))
        assert {members for members, _ in got} == {oracle_a, oracle_b}
        assert all(w == pytest.approx(len(members) / len(pts)) for members, w in got)
        # each representative is an actual sample
        pts_set = {tuple(p) for p in pts.tolist()}
        assert all(tuple(r) in pts_set for r in sset.multipliers.tolist())

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(SamplingError):
            reduce_scenarios(np.ones((3, 1)), 4, seed=0)

    def test_weights_sum_to_one(self):
        samples = draw_samples(gaussian_spec(), 200, seed=11)
        sset = reduce_scenarios(samples, 10, seed=11)
        assert abs(sum(sset.weights) - 1.0) <= 1e-9
        assert all(w > 0 for w in sset.weights)
        assert len(sset.multipliers) <= 10

    def test_deterministic(self):
        samples = draw_samples(gaussian_spec(), 200, seed=11)
        a = reduce_scenarios(samples, 10, seed=11)
        b = reduce_scenarios(samples, 10, seed=11)
        assert a.to_payload() == b.to_payload()

    def test_representative_mean_tracks_raw_mean(self):
        spec = gaussian_spec(dims=3, sigma=0.05)
        n = 400
        samples = draw_samples(spec, n, seed=13)
        sset = reduce_scenarios(samples, 12, seed=13)
        raw, reps, w = samples, sset.multipliers, sset.weights
        for d in range(3):
            tol = 2 * 0.05 / math.sqrt(n)
            assert abs((reps[:, d] * w).sum() - raw[:, d].mean()) < tol

    def test_payload_roundtrip(self):
        samples = draw_samples(gaussian_spec(), 50, seed=3)
        sset = reduce_scenarios(samples, 5, seed=3)
        again = ScenarioSet.from_payload(sset.to_payload())
        assert again.to_payload() == sset.to_payload()
        assert again.n_raw == sset.n_raw
        for name in ("multipliers", "weights", "ids"):
            assert getattr(again, name).tobytes() == getattr(sset, name).tobytes(), name


class TestApplyScenario:
    def test_identity_multipliers(self):
        case = load_bundled_case("case9")
        assert apply_scenario(case, np.array([1.0, 1.0, 1.0])) == case

    def test_single_load_scaling(self):
        case = load_bundled_case("case9")
        out = apply_scenario(case, np.array([1.1, 1.0, 1.0]))
        assert out.bus(5).p_load == pytest.approx(1.25 * 1.1)
        assert out.bus(5).q_load == pytest.approx(0.5 * 1.1)
        old_total = 1.25 + 0.9 + 1.0
        new_total = 1.25 * 1.1 + 0.9 + 1.0
        for g_old, g_new in zip(case.generators, out.generators):
            assert g_new.p_mech == pytest.approx(g_old.p_mech * new_total / old_total)

    def test_dimension_mismatch_rejected(self):
        case = load_bundled_case("case9")
        with pytest.raises(SamplingError, match="multipliers"):
            apply_scenario(case, np.array([1.0]))

    def test_scenarios_within_15pct_solve(self):
        # empirical: the bundled nine-bus case tolerates +-15% load scenarios
        case = load_bundled_case("case9")
        rng = np.random.default_rng(17)
        for _ in range(20):
            mult = np.array([1.0 + rng.uniform(-0.15, 0.15) for _ in range(3)])
            sol = solve_power_flow(build_ybus(apply_scenario(case, mult)))
            assert sol.max_mismatch < 1e-8


class TestCombineRegionSets:
    def _set(self, reps, weights, n_raw):
        return ScenarioSet(multipliers=np.array(reps, dtype=float),
                           weights=np.array(weights, dtype=float),
                           ids=np.arange(len(weights)), n_raw=n_raw)

    def test_single_region_passthrough(self):
        sset = self._set([(1.1,), (0.9,)], [0.5, 0.5], 10)
        mult, weights, bus_ids = combine_region_sets({"R1": (sset, [5])})
        assert bus_ids == [5]
        assert mult.tolist() == [[1.1], [0.9]]
        assert weights.tolist() == [0.5, 0.5]

    def test_cartesian_product_weights_multiply(self):
        a = self._set([(1.1,), (0.9,)], [0.25, 0.75], 4)
        b = self._set([(1.2,)], [1.0], 3)
        mult, weights, bus_ids = combine_region_sets({"R2": (b, [8]), "R1": (a, [5])})
        assert bus_ids == [5, 8]
        assert len(mult) == 2
        assert weights.tolist() == [0.25, 0.75]
        assert mult[0].tolist() == [1.1, 1.2]

    def test_multiplier_order_follows_bus_ids(self):
        a = self._set([(1.5,)], [1.0], 1)          # region owning bus 8
        b = self._set([(0.5,)], [1.0], 1)          # region owning bus 5
        mult, _, bus_ids = combine_region_sets({"R1": (a, [8]), "R2": (b, [5])})
        assert bus_ids == [5, 8]
        assert mult[0].tolist() == [0.5, 1.5]

    def test_shared_bus_rejected(self):
        a = self._set([(1.0,)], [1.0], 1)
        with pytest.raises(SamplingError, match="share"):
            combine_region_sets({"R1": (a, [5]), "R2": (a, [5])})

    @given(data=st.data(),
           shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 3)),
                           min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_array_product_equals_tuple_product(self, data, shapes):
        # (k, dims) per region; the regions' load buses interleave in a drawn order
        bus_ids = data.draw(st.permutations(range(sum(d for _, d in shapes))))
        region_sets, start = {}, 0
        for r, (k, dims) in enumerate(shapes):
            seed = data.draw(st.integers(0, 2**32 - 1))
            n_raw = data.draw(st.integers(k, 12))
            sset = reduce_scenarios(draw_samples(gaussian_spec(dims=dims, sigma=0.1),
                                                 n_raw, seed), k, seed)
            region_sets[f"R{r}"] = (sset, list(bus_ids[start:start + dims]))
            start += dims
        mult, weights, got_ids = combine_region_sets(region_sets)
        want_mult, want_weights, want_ids = reference_combine(region_sets)
        assert got_ids == want_ids
        assert mult.tobytes() == np.array(want_mult).tobytes()
        assert weights.tobytes() == np.array(want_weights).tobytes()
