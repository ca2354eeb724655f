"""Per-device horizon problems of the distributed scheme.

Each device minimizes its private quadratic cost plus the price term
lambda'p over its own constraint set: generators track a rated point under
box and ramp limits; batteries minimize power magnitude (a throughput
proxy) under box, ramp, and state-of-charge limits with the SoC dynamics
eliminated into cumulative-sum constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qp as qpmod
from .plant import AH_TO_AS, BusSpec, PcmSpec, PgmSpec

# quadratic weights of exactly zero would break strict convexity; callers
# get this floor injected instead (documented wherever zero weights are
# accepted, e.g. weight sweeps)
WEIGHT_FLOOR = 1e-9


@dataclass
class NodeResult:
    """Outcome of one device-level horizon solve.

    ``local_objective`` is the device's private cost (price term excluded),
    evaluated with the same floored weight the solver minimized.
    ``soc_trajectory`` (batteries only) has length h+1 with entry 0 equal to
    the measured state of charge.
    """

    profile: np.ndarray
    local_objective: float
    qp_status: str
    iterations: int
    soc_trajectory: np.ndarray | None = None


def soc_coeff(spec: PcmSpec, bus: BusSpec, td_s: float) -> float:
    """Per-step SoC sensitivity to power: SoC_{k+1} = SoC_k - coeff*p_k.

    The power-to-current linearization i_b = p_b/v_bus gives
    coeff = td_s / (capacity_as * v_bus).
    """
    if not td_s > 0.0:
        raise ValueError(f"td_s must be > 0, got {td_s}")
    return td_s / (spec.capacity_ah * AH_TO_AS * bus.v_bus_volt)


def pgm_qp(spec: PgmSpec, prev_power_w: float, h: int) -> qpmod.HorizonQp:
    """Generator horizon QP at one state: (beta/2)||p - rated||^2 over
    box∩ramp; `pgm_solve` adds the price term."""
    return qpmod.HorizonQp(
        h=h,
        quad_diag=max(spec.weight_beta, WEIGHT_FLOOR),
        lower=spec.p_min_w,
        upper=spec.p_max_w,
        ramp_limit=spec.ramp_limit_w_per_step,
        prev_value=prev_power_w,
    )


def pcm_qp(spec: PcmSpec, bus: BusSpec, soc0: float, prev_power_w: float,
           td_s: float, h: int) -> qpmod.HorizonQp:
    """Battery horizon QP at one state: (gamma/2)||p||^2 over
    box∩ramp∩SoC; `pcm_solve` adds the price term."""
    if not (spec.soc_min <= soc0 <= spec.soc_max):
        raise ValueError(
            f"soc0={soc0} outside [{spec.soc_min}, {spec.soc_max}]"
        )
    return qpmod.HorizonQp(
        h=h,
        quad_diag=max(spec.weight_gamma, WEIGHT_FLOOR),
        lower=spec.p_min_w,
        upper=spec.p_max_w,
        ramp_limit=spec.ramp_limit_w_per_step,
        prev_value=prev_power_w,
        cumsum_coeff=soc_coeff(spec, bus, td_s),
        cumsum_init=soc0,
        cumsum_lower=spec.soc_min,
        cumsum_upper=spec.soc_max,
    )


def pgm_solve(problem: qpmod.HorizonQp, lam: np.ndarray, spec: PgmSpec,
              tol: float = 1e-8, max_iter: int = 100_000) -> NodeResult:
    """Solve the generator's `pgm_qp` at the price profile ``lam``."""
    sol = qpmod.solve(problem, lam - problem.quad_diag * spec.rated_power_w,
                      tol=tol, max_iter=max_iter)
    beta = max(spec.weight_beta, WEIGHT_FLOOR)
    dev = sol.profile - spec.rated_power_w
    local = 0.5 * beta * float(dev @ dev)
    return NodeResult(sol.profile, local, sol.status, sol.iterations)


def pcm_solve(problem: qpmod.HorizonQp, lam: np.ndarray, spec: PcmSpec,
              tol: float = 1e-8, max_iter: int = 100_000) -> NodeResult:
    """Solve the battery's `pcm_qp` at the price profile ``lam``; returns
    the eliminated-state SoC path."""
    sol = qpmod.solve(problem, lam, tol=tol, max_iter=max_iter)
    gamma = max(spec.weight_gamma, WEIGHT_FLOOR)
    local = 0.5 * gamma * float(sol.profile @ sol.profile)
    kappa = problem.cumsum_coeff
    soc = np.empty(sol.profile.size + 1)
    soc[0] = problem.cumsum_init
    for k in range(sol.profile.size):
        soc[k + 1] = soc[k] - kappa * sol.profile[k]
    return NodeResult(sol.profile, local, sol.status, sol.iterations,
                      soc_trajectory=soc)
