"""Randomized MW-scale fleet instances with certified-feasible demands."""

from __future__ import annotations

import numpy as np

from shipems.coordinator import Fleet, PcmNodeState, PgmNodeState
from shipems.plant import BusSpec, PcmSpec, PgmSpec


def fleet_reach_intervals(fleet: Fleet, h: int):
    """Per-step sum of reachable power intervals across the fleet.

    Necessary condition for balance feasibility: the demand profile must lie
    inside the summed intervals (not sufficient, since step choices couple
    through each device's ramp chain).
    """
    lo_sum, hi_sum = np.zeros(h), np.zeros(h)
    for node in fleet.pgms + fleet.pcms:
        spec = node.spec
        lo_k = max(spec.p_min_w, node.prev_power_w - spec.ramp_limit_w_per_step)
        hi_k = min(spec.p_max_w, node.prev_power_w + spec.ramp_limit_w_per_step)
        for k in range(h):
            if k:
                lo_k = max(spec.p_min_w, lo_k - spec.ramp_limit_w_per_step)
                hi_k = min(spec.p_max_w, hi_k + spec.ramp_limit_w_per_step)
            lo_sum[k] += lo_k
            hi_sum[k] += hi_k
    return lo_sum, hi_sum


def random_fleet(rng: np.random.Generator, n_g=None, n_b=None) -> Fleet:
    n_g = int(rng.integers(1, 4)) if n_g is None else n_g
    n_b = int(rng.integers(0, 4)) if n_b is None else n_b
    pgms = []
    for _ in range(n_g):
        rated = rng.uniform(20e6, 40e6)
        p_max = rated * rng.uniform(1.05, 1.3)
        spec = PgmSpec(
            rated_power_w=rated,
            p_min_w=0.0,
            p_max_w=p_max,
            ramp_limit_w_per_step=rng.uniform(1e6, 5e6),
            weight_beta=rng.uniform(0.3, 3.0),
        )
        prev = float(np.clip(rated + rng.uniform(-2e6, 2e6), 0.0, p_max))
        pgms.append(PgmNodeState(spec, prev))
    pcms = []
    for _ in range(n_b):
        p_max = rng.uniform(5e6, 25e6)
        spec = PcmSpec(
            p_min_w=-p_max,
            p_max_w=p_max,
            ramp_limit_w_per_step=rng.uniform(10e6, 40e6),
            capacity_ah=rng.uniform(2000.0, 20000.0),
            weight_gamma=rng.uniform(0.3, 3.0),
        )
        prev = float(rng.uniform(-0.2, 0.2) * p_max)
        pcms.append(PcmNodeState(spec, rng.uniform(0.3, 0.7), prev))
    return Fleet(bus=BusSpec(), pgms=pgms, pcms=pcms)


def feasible_demand(rng: np.random.Generator, fleet: Fleet, h: int) -> np.ndarray:
    """Constant demand profile strictly inside every step's summed reachable
    interval; such a level is jointly reachable (hit it at step one, hold)."""
    lo, hi = fleet_reach_intervals(fleet, h)
    floor_w, ceil_w = float(np.max(lo)), float(np.min(hi))
    width = ceil_w - floor_w
    assert width > 0.0
    level = floor_w + rng.uniform(0.05, 0.95) * width
    return np.full(h, level)
