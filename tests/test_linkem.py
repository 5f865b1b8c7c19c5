from dataclasses import replace

import numpy as np
import pytest

from gridmesh.config import ConfigError
from gridmesh.linkem import (DOWN, DROPPED, FrameSchedule, LinkEmulator, LinkError,
                             LinkProfile, UP, default_5g_sa_profile,
                             profile_from_config, zero_impairment_profile)


class TestDefaultProfile:
    def test_uplink_bandwidth_is_measured_figure(self):
        assert default_5g_sa_profile().bw_up_bps == 52.43e6

    def test_downlink_bandwidth_is_measured_figure(self):
        assert default_5g_sa_profile().bw_down_bps == 306.01e6

    def test_delay_support_is_half_roundtrip_range(self):
        p = default_5g_sa_profile()
        assert (p.delay_min_ms, p.delay_max_ms) == (7.5, 18.5)

    def test_jitter_model(self):
        p = default_5g_sa_profile()
        assert p.jitter_mean_ms == 5.0 and p.jitter_cap_ms == 18.31

    def test_no_loss_by_default(self):
        assert default_5g_sa_profile().loss_rate == 0.0


class TestProfileValidation:
    def test_negative_delay_rejected(self):
        with pytest.raises(LinkError):
            LinkProfile(-1, 2, 0, 0, 1e6, 1e6)

    def test_inverted_range_rejected(self):
        with pytest.raises(LinkError):
            LinkProfile(5, 2, 0, 0, 1e6, 1e6)

    def test_loss_range(self):
        with pytest.raises(LinkError):
            LinkProfile(0, 0, 0, 0, 1e6, 1e6, loss_rate=1.0)

    def test_bandwidth_positive(self):
        with pytest.raises(LinkError):
            LinkProfile(0, 0, 0, 0, 0.0, 1e6)

    def test_config_keys(self):
        cfg = {"link.delay_min_ms": "1", "link.delay_max_ms": "2",
               "link.jitter_mean_ms": "0", "link.jitter_cap_ms": "0",
               "link.bw_up_mbps": "10", "link.bw_down_mbps": "100",
               "link.loss": "0.05", "link.seed": "9"}
        p = profile_from_config(cfg)
        assert p.bw_up_bps == 10e6 and p.bw_down_bps == 100e6
        assert p.loss_rate == 0.05 and p.seed == 9

    def test_config_defaults_to_stock_profile(self):
        assert profile_from_config({}) == default_5g_sa_profile()

    @pytest.mark.parametrize("field", ["delay_min_ms", "delay_max_ms", "jitter_mean_ms",
                                       "jitter_cap_ms", "bw_up_bps", "bw_down_bps",
                                       "loss_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_names_its_field(self, field, value):
        with pytest.raises(LinkError, match=f"^{field} must be finite"):
            replace(default_5g_sa_profile(), **{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(LinkError, match="^seed must be >= 0"):
            default_5g_sa_profile(seed=-1)

    @pytest.mark.parametrize("key, field", [("link.delay_max_ms", "delay_max_ms"),
                                            ("link.bw_up_mbps", "bw_up_bps"),
                                            ("link.jitter_mean_ms", "jitter_mean_ms")])
    def test_nan_config_value_names_its_field(self, key, field):
        with pytest.raises(LinkError, match=f"^{field} must be finite"):
            profile_from_config({key: "nan"})

    def test_infinite_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="link.seed"):
            profile_from_config({"link.seed": "inf"})

    @pytest.mark.parametrize("key", ["link.delay_max_ms", "link.bw_up_mbps", "link.seed"])
    def test_bad_config_value_names_its_key(self, key):
        with pytest.raises(ConfigError, match=key):
            profile_from_config({key: "fast"})


class TestScheduling:
    def test_zero_impairment_is_pure_serialization(self):
        em = LinkEmulator(zero_impairment_profile())
        t = em.schedule_frame_ex(1000, UP, now=5.0).delivery
        assert t == pytest.approx(5.0 + 8 * 1000 / 1e12, abs=1e-15)

    def test_uplink_serialization_of_one_mebibyte(self):
        # 8 * 1048576 / 52.43e6 ~ 0.15999 s on the measured uplink rate
        profile = LinkProfile(0, 0, 0, 0, bw_up_bps=52.43e6, bw_down_bps=306.01e6)
        em = LinkEmulator(profile)
        sched = em.schedule_frame_ex(1 << 20, UP, now=0.0)
        assert sched.serialization_s == pytest.approx(8 * 1048576 / 52.43e6, rel=1e-12)
        assert sched.serialization_s == pytest.approx(0.15999, abs=5e-4)

    def test_fifo_same_submission_instant(self):
        em = LinkEmulator(default_5g_sa_profile(seed=3))
        t1 = em.schedule_frame_ex(500, UP, now=0.0).delivery
        t2 = em.schedule_frame_ex(500, UP, now=0.0).delivery
        assert t2 >= t1

    def test_fifo_even_with_adverse_jitter(self):
        em = LinkEmulator(default_5g_sa_profile(seed=1))
        last = 0.0
        for k in range(500):
            t = em.schedule_frame_ex(100, DOWN, now=k * 1e-4).delivery
            assert t >= last
            last = t

    def test_directions_queue_independently(self):
        em = LinkEmulator(zero_impairment_profile())
        big = em.schedule_frame_ex(10**9, UP, now=0.0).delivery
        small = em.schedule_frame_ex(100, DOWN, now=0.0).delivery
        assert small < big

    def test_deterministic_given_seed(self):
        trace = [(100, UP, 0.0), (5000, DOWN, 0.001), (777, UP, 0.002),
                 (1, DOWN, 0.5), (12345, UP, 0.5)]
        a = LinkEmulator(default_5g_sa_profile(seed=11))
        b = LinkEmulator(default_5g_sa_profile(seed=11))
        for ln, d, now in trace:
            assert (a.schedule_frame_ex(ln, d, now).delivery
                    == b.schedule_frame_ex(ln, d, now).delivery)

    def test_loss_is_seeded_and_reported(self):
        profile = LinkProfile(0, 0, 0, 0, 1e9, 1e9, loss_rate=0.5, seed=2)
        a = [LinkEmulator(profile).schedule_frame_ex(10, UP, 0.0) for _ in range(1)]
        em1, em2 = LinkEmulator(profile), LinkEmulator(profile)
        seq1 = [em1.schedule_frame_ex(10, UP, i * 0.01) is DROPPED for i in range(200)]
        seq2 = [em2.schedule_frame_ex(10, UP, i * 0.01) is DROPPED for i in range(200)]
        assert seq1 == seq2
        assert 40 < sum(seq1) < 160

    def test_bad_frame_len(self):
        em = LinkEmulator(zero_impairment_profile())
        with pytest.raises(LinkError):
            em.schedule_frame_ex(0, UP, 0.0)

    def test_bad_direction(self):
        em = LinkEmulator(zero_impairment_profile())
        with pytest.raises(LinkError):
            em.schedule_frame_ex(10, "sideways", 0.0)


class TestCalibration:
    def test_ten_thousand_frames_within_envelope(self):
        # pre-jitter one-way delays stay inside the configured support; the
        # mean including jitter sits in the documented window
        em = LinkEmulator(default_5g_sa_profile(seed=42))
        delays, jitters = [], []
        for i in range(10_000):
            sched = em.schedule_frame_ex(1, UP, now=float(i))   # negligible size
            assert isinstance(sched, FrameSchedule)
            delays.append(sched.delay_ms)
            jitters.append(sched.jitter_ms)
        delays = np.array(delays)
        jitters = np.array(jitters)
        assert delays.min() >= 7.5 and delays.max() <= 18.5
        assert np.all(jitters >= 0) and jitters.max() <= 18.31
        mean_total = (delays + jitters).mean()
        mj = jitters.mean()
        assert 7.5 + mj - 1 <= mean_total <= 18.5 + mj + 1
