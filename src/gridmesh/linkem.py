"""Link impairment emulator: per-frame delay, jitter and serialization.

Reproduces measured cellular transport characteristics without radio
hardware. The stock profile models a standalone 5G link: one-way delay
uniform on [7.5, 18.5] ms (half the measured round-trip span), jitter
exponential with 5 ms mean capped at 18.31 ms, 306.01 Mbps down / 52.43 Mbps
up. Latencies were measured as round trips; the one-way figures assume a
symmetric split.

Frames on one direction share a single serialization queue, FIFO and lossless
like the TCP stream they model; jitter is additive and never reorders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .config import ConfigError, get_float, get_int

UP = "up"
DOWN = "down"


class _Dropped:
    __slots__ = ()

    def __repr__(self) -> str:
        return "Dropped"


# returned by nothing, since no frame is lost; bench/tracing.py still counts it
DROPPED = _Dropped()

# every link.* key a profile accepts; link.profile names the base profile
CONFIG_KEYS = ("link.profile", "link.delay_min_ms", "link.delay_max_ms", "link.jitter_mean_ms",
               "link.jitter_cap_ms", "link.bw_up_mbps", "link.bw_down_mbps", "link.seed")


class LinkError(ValueError):
    pass


@dataclass(frozen=True)
class LinkProfile:
    delay_min_ms: float
    delay_max_ms: float
    jitter_mean_ms: float
    jitter_cap_ms: float
    bw_up_bps: float
    bw_down_bps: float
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise LinkError(f"{f.name} must be finite, got {value}")
        if self.seed < 0:
            raise LinkError(f"seed must be >= 0, got {self.seed}")
        if self.delay_min_ms < 0 or self.delay_max_ms < self.delay_min_ms:
            raise LinkError("need 0 <= delay_min_ms <= delay_max_ms")
        if self.jitter_mean_ms < 0 or self.jitter_cap_ms < 0:
            raise LinkError("jitter parameters must be >= 0")
        if self.bw_up_bps <= 0 or self.bw_down_bps <= 0:
            raise LinkError("bandwidths must be > 0")

    def bandwidth(self, direction: str) -> float:
        if direction == UP:
            return self.bw_up_bps
        if direction == DOWN:
            return self.bw_down_bps
        raise LinkError(f"direction must be 'up' or 'down', got {direction!r}")


def default_5g_sa_profile(seed: int = 0) -> LinkProfile:
    return LinkProfile(delay_min_ms=7.5, delay_max_ms=18.5,
                       jitter_mean_ms=5.0, jitter_cap_ms=18.31,
                       bw_up_bps=52.43e6, bw_down_bps=306.01e6, seed=seed)


def zero_impairment_profile(seed: int = 0) -> LinkProfile:
    """Loopback baseline: no delay, no jitter, effectively unlimited bandwidth."""
    return LinkProfile(delay_min_ms=0.0, delay_max_ms=0.0,
                       jitter_mean_ms=0.0, jitter_cap_ms=0.0,
                       bw_up_bps=1e12, bw_down_bps=1e12, seed=seed)


def profile_from_config(cfg: dict, base: LinkProfile | None = None) -> LinkProfile:
    """Build a profile from flat config keys ``link.*``; a key that is absent
    keeps its value in ``base`` (default: stock 5G SA). A ``link.*`` key not
    in ``CONFIG_KEYS`` is a ConfigError naming it."""
    unknown = sorted(k for k in cfg if k.startswith("link.") and k not in CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown key {', '.join(unknown)}; "
                          f"expected one of: {', '.join(CONFIG_KEYS)}")
    base = base or default_5g_sa_profile()
    return LinkProfile(
        delay_min_ms=get_float(cfg, "link.delay_min_ms", base.delay_min_ms),
        delay_max_ms=get_float(cfg, "link.delay_max_ms", base.delay_max_ms),
        jitter_mean_ms=get_float(cfg, "link.jitter_mean_ms", base.jitter_mean_ms),
        jitter_cap_ms=get_float(cfg, "link.jitter_cap_ms", base.jitter_cap_ms),
        bw_up_bps=get_float(cfg, "link.bw_up_mbps", base.bw_up_bps / 1e6) * 1e6,
        bw_down_bps=get_float(cfg, "link.bw_down_mbps", base.bw_down_bps / 1e6) * 1e6,
        seed=get_int(cfg, "link.seed", base.seed),
    )


@dataclass(frozen=True)
class FrameSchedule:
    delivery: float          # absolute seconds
    serialization_s: float
    delay_ms: float          # sampled one-way delay, pre-jitter
    jitter_ms: float
    queued_s: float          # wait behind earlier frames in this direction


class LinkEmulator:
    """Stateful frame scheduler, one per node: all of a node's links share its
    per-direction queue and FIFO order. Deterministic given the profile seed
    and the submission trace. Draw order per frame: delay, then jitter. Not
    thread-safe: each node calls its emulator from its one event loop.
    """

    def __init__(self, profile: LinkProfile):
        self.profile = profile
        self._rng = np.random.default_rng(profile.seed)
        self._busy_until = {UP: 0.0, DOWN: 0.0}
        self._last_delivery = {UP: 0.0, DOWN: 0.0}

    def schedule_frame_ex(self, frame_len: int, direction: str, now: float):
        """Full schedule record for one frame."""
        if frame_len <= 0:
            raise LinkError("frame_len must be > 0")
        bw = self.profile.bandwidth(direction)
        delay_ms = float(self._rng.uniform(self.profile.delay_min_ms,
                                           self.profile.delay_max_ms))
        jitter_ms = 0.0
        if self.profile.jitter_mean_ms > 0:
            jitter_ms = min(float(self._rng.exponential(self.profile.jitter_mean_ms)),
                            self.profile.jitter_cap_ms)
        serialization = 8.0 * frame_len / bw
        start = max(now, self._busy_until[direction])
        self._busy_until[direction] = start + serialization
        delivery = start + serialization + (delay_ms + jitter_ms) / 1e3
        # TCP in-order delivery: jitter may never reorder frames
        delivery = max(delivery, self._last_delivery[direction])
        self._last_delivery[direction] = delivery
        return FrameSchedule(delivery=delivery, serialization_s=serialization,
                             delay_ms=delay_ms, jitter_ms=jitter_ms,
                             queued_s=start - now)
