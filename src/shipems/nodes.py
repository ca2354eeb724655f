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


@dataclass(slots=True)
class NodeResult:
    """Outcome of one device-level horizon solve.

    A dual iteration needs only the profile; the report-only values are
    evaluated when read, from the profile and the node's scalars: the
    floored ``weight``, the ``target`` its cost pulls toward (rated power,
    0 for batteries) and, for batteries, the SoC coefficient ``kappa`` and
    the measured ``soc0``.

    ``local_objective`` is the device's private cost (price term excluded),
    evaluated with the same floored weight the solver minimized.
    ``soc_trajectory`` (batteries only, None for generators) has length
    h+1 with entry 0 equal to the measured state of charge.
    """

    profile: np.ndarray
    qp_status: str
    iterations: int
    weight: float
    target: float
    kappa: float | None = None
    soc0: float | None = None

    @property
    def local_objective(self) -> float:
        dev = self.profile - self.target
        return 0.5 * self.weight * float(dev @ dev)

    @property
    def soc_trajectory(self) -> np.ndarray | None:
        if self.kappa is None:
            return None
        p = self.profile
        soc = np.empty(p.size + 1)
        soc[0] = self.soc0
        for k in range(p.size):
            soc[k + 1] = soc[k] - self.kappa * p[k]
        return soc


def floored_weight(spec: PgmSpec | PcmSpec) -> float:
    """Beta of a generator or gamma of a battery, floored at WEIGHT_FLOOR."""
    w = spec.weight_beta if isinstance(spec, PgmSpec) else spec.weight_gamma
    return max(w, WEIGHT_FLOOR)


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
    # positional: keywords cost a node about 0.2 us to bind (2 CPUs, x86-64)
    return qpmod.HorizonQp(h, floored_weight(spec), spec.p_min_w,
                           spec.p_max_w, spec.ramp_limit_w_per_step,
                           prev_power_w)


def pcm_qp(spec: PcmSpec, bus: BusSpec, soc0: float, prev_power_w: float,
           td_s: float, h: int) -> qpmod.HorizonQp:
    """Battery horizon QP at one state: (gamma/2)||p||^2 over
    box∩ramp∩SoC; `pcm_solve` adds the price term."""
    if not (spec.soc_min <= soc0 <= spec.soc_max):
        raise ValueError(
            f"soc0={soc0} outside [{spec.soc_min}, {spec.soc_max}]"
        )
    return qpmod.HorizonQp(h, floored_weight(spec), spec.p_min_w,
                           spec.p_max_w, spec.ramp_limit_w_per_step,
                           prev_power_w, soc_coeff(spec, bus, td_s), soc0,
                           spec.soc_min, spec.soc_max)


def pgm_solve(problem: qpmod.HorizonQp, lam: np.ndarray,
              spec: PgmSpec) -> NodeResult:
    """Solve the generator's `pgm_qp` at the price profile ``lam``; the
    problem holds ``spec``'s floored weight."""
    weight, rated = problem.weight, spec.rated_power_w
    sol = qpmod.solve(problem, lam - weight * rated)
    return NodeResult(sol.profile, sol.status, sol.iterations, weight, rated)


def pcm_solve(problem: qpmod.HorizonQp, lam: np.ndarray,
              spec: PcmSpec) -> NodeResult:
    """Solve the battery's `pcm_qp` at the price profile ``lam``; the
    result carries the eliminated-state SoC path and the floored weight
    that the problem holds."""
    sol = qpmod.solve(problem, lam)
    return NodeResult(sol.profile, sol.status, sol.iterations,
                      problem.weight, 0.0,
                      problem.cumsum_coeff, problem.cumsum_init)
