"""Price coordination of the device fleet.

A coordinator node broadcasts a price profile lambda, every device answers
with the minimizer of its private cost plus lambda'p, and the coordinator
moves the price along the power-balance violation (dual gradient ascent):

    lambda' = lambda + alpha * (sum of device powers - demanded power).

Every node problem is solved exactly by the LDP kernel of `qp`. Its
problem is built once per MPC step, and the kernel's rows once per device
and run (`qp` keeps them in a memo). `centralized_solve` solves the
same allocation monolithically (one stacked QP with the balance as an
equality, solved by the same kernel) and serves as the verification oracle
for the distributed loop.

When the demand lies beyond what the fleet can deliver, the dual is
unbounded and the ascent never balances. The loop then stops on a proof
that no allocation does better than the iterate it returns:

- the fleet's reach envelope (boxes and ramps, no solve) bounds the
  worst-step deficit and excess of every allocation from below; once that
  bound exceeds the tolerance, an iterate whose worst-step residual and
  worst-step deficit attain it ends the step;
- a step still running at `LP_BOUND_ITERATION` asks a HiGHS LP over every
  node's rows for the least worst-step residual; once that exceeds the
  tolerance and the best iterate attains it, the step ends.

A step that no bound proves unbalanceable runs to its iteration budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from . import qp as qpmod
from .nodes import (
    NodeResult,
    floored_weight,
    pcm_qp,
    pcm_solve,
    pgm_qp,
    pgm_solve,
)
from .plant import BusSpec, PcmSpec, PgmSpec

INFEASIBLE = qpmod.INFEASIBLE

# a step that has neither balanced nor reached the fleet's limits by this
# iteration asks the exact LP for its least worst-step residual
LP_BOUND_ITERATION = 100
# a residual attains a lower bound within this fraction of the demand
BOUND_ATTAINED_RTOL = 1e-7
# the residual LP is solved in MW
LP_UNIT_W = 1e6


@dataclass
class PgmNodeState:
    """Generator spec plus the receding-horizon memory it anchors ramps to."""

    spec: PgmSpec
    prev_power_w: float


@dataclass
class PcmNodeState:
    spec: PcmSpec
    soc: float
    prev_power_w: float


@dataclass
class Fleet:
    """All devices participating in one coordination problem."""

    bus: BusSpec
    pgms: list[PgmNodeState]
    pcms: list[PcmNodeState]
    td_s: float = 1.0

    def __post_init__(self):
        if not self.pgms and not self.pcms:
            raise ValueError("fleet needs at least one device")
        if not self.td_s > 0.0:
            raise ValueError(f"td_s must be > 0, got {self.td_s}")

    def weights(self) -> list[float]:
        return [floored_weight(d.spec) for d in self.pgms + self.pcms]


@dataclass
class CoordinationReport:
    """Outcome of one coordination run (one MPC step)."""

    gen: list[NodeResult]
    batt: list[NodeResult]
    lambda_final: np.ndarray
    converged: bool
    iterations_used: int
    final_residual_w: float
    shortfall_w: float  # worst per-step unmet demand, 0 when converged
    residual_history: list[float]

    def total_power(self) -> np.ndarray:
        h = self.lambda_final.size
        total = np.zeros(h)
        for r in self.gen + self.batt:
            total += r.profile
        return total

    def objective(self) -> float:
        return float(sum(r.local_objective for r in self.gen + self.batt))


def dual_update(lam: np.ndarray, sum_primal: np.ndarray, p_f: np.ndarray,
                alpha: float) -> np.ndarray:
    """One ascent step on the power-balance dual."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    lam = np.asarray(lam, dtype=float)
    return lam + alpha * (np.asarray(sum_primal, dtype=float)
                          - np.asarray(p_f, dtype=float))


def default_alpha(fleet: Fleet) -> float:
    """Safe ascent step: the dual gradient is Lipschitz with constant at
    most sum(1/w) over unconstrained nodes, and constraints only shrink it."""
    return 0.9 / sum(1.0 / w for w in fleet.weights())


def default_balance_tol_w(p_f: np.ndarray) -> float:
    return 1e-4 * max(float(np.max(np.abs(p_f))), 1.0)


def _node_problems(fleet: Fleet, h: int):
    """Every node's horizon QP at the fleet's state, built once per MPC
    step; across dual iterations only the price changes."""
    gen = [pgm_qp(g.spec, g.prev_power_w, h) for g in fleet.pgms]
    batt = [pcm_qp(b.spec, fleet.bus, b.soc, b.prev_power_w, fleet.td_s, h)
            for b in fleet.pcms]
    return gen, batt


def _reach_bounds(qps, p_f: np.ndarray):
    """Lower bounds on every allocation's worst-step deficit and worst-step
    excess over the demand.

    A node's step-k power lies below hi_k = min over j <= k of
    (hi_j + (k-j)*ramp) for its effective box [lo, hi] (held by its
    kernel), and above lo_k likewise, so every step-k total lies in
    [sum lo_k, sum hi_k].
    """
    steps = np.outer([p.ramp_limit for p in qps], np.arange(p_f.size))
    hi = np.minimum.accumulate([p.ldp.hi for p in qps] - steps, axis=1) + steps
    lo = np.maximum.accumulate([p.ldp.lo for p in qps] + steps, axis=1) - steps
    return (max(0.0, float((p_f - hi.sum(axis=0)).max())),
            max(0.0, float((lo.sum(axis=0) - p_f).max())))


def _stacked_rows(qps):
    """Every node's constraint rows as one block-diagonal A x <= b over the
    stacked profiles; SoC rows stay in power units."""
    rows = [p.constraint_rows() for p in qps]
    return (scipy.linalg.block_diag(*[a for a, _ in rows]),
            np.concatenate([b for _, b in rows]))


def _min_residual_lp(qps, p_f: np.ndarray) -> float | None:
    """HiGHS: the least worst-step balance residual t over allocations that
    keep every node within its rows, min t s.t. |sum_i x_ik - p_f,k| <= t.
    None when the LP does not solve."""
    h = p_f.size
    a, b = _stacked_rows(qps)
    balance = np.tile(np.eye(h), len(qps))
    t = np.ones((h, 1))
    a_ub = np.vstack([np.hstack([a, np.zeros((a.shape[0], 1))]),
                      np.hstack([balance, -t]), np.hstack([-balance, -t])])
    c = np.zeros(a_ub.shape[1])
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.concatenate([b, p_f, -p_f]) / LP_UNIT_W,
                  bounds=(None, None), method="highs")
    return float(res.x[-1]) * LP_UNIT_W if res.status == 0 else None


def _solve_all(fleet: Fleet, lam: np.ndarray, problems):
    gen_qps, batt_qps = problems
    gen = [pgm_solve(p, lam, g.spec) for g, p in zip(fleet.pgms, gen_qps)]
    batt = [pcm_solve(p, lam, b.spec) for b, p in zip(fleet.pcms, batt_qps)]
    for r, state in zip(gen + batt, fleet.pgms + fleet.pcms):
        if r.qp_status == INFEASIBLE:
            raise RuntimeError(f"node problem infeasible at {state}")
    return gen, batt


def coordinate(fleet: Fleet, p_f: np.ndarray, alpha: float | None = None,
               bal_tol_w: float | None = None, max_iter: int = 500,
               lambda_warm: np.ndarray | None = None) -> CoordinationReport:
    """Run dual ascent until the fleet balances the demand profile.

    Stops converged once the worst-step residual is within ``bal_tol_w``.
    Stops unconverged only on a proof that the demand cannot be balanced:
    - the fleet's reach envelope (`_reach_bounds`) bounds every
      allocation's worst-step residual by L > ``bal_tol_w`` and its
      worst-step deficit by S, and an iterate attains both: residual at
      most L, deficit at most max(S, ``bal_tol_w``). That iterate is
      returned.
    - From iteration `LP_BOUND_ITERATION` on, the exact least worst-step
      residual L of `_min_residual_lp` exceeds ``bal_tol_w`` and the best
      iterate attains it.
    "Attains" allows `BOUND_ATTAINED_RTOL` of the demand. Otherwise the
    ascent runs to ``max_iter``, so a step that can be balanced is never cut
    short, and returns its best-residual iterate. ``shortfall_w`` is the
    returned iterate's worst per-step deficit (0 when converged). Node
    solves are exact, so the reported allocation is the one computed at the
    reported price.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if alpha is not None and not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be > 0 and finite, got {alpha}")
    if bal_tol_w is not None and not bal_tol_w > 0.0:
        raise ValueError(f"bal_tol_w must be > 0, got {bal_tol_w}")
    p_f = np.asarray(p_f, dtype=float)
    if p_f.ndim != 1 or not p_f.size or not np.isfinite(p_f).all():
        raise ValueError("p_f must be a finite, non-empty 1-D profile")
    h = p_f.size
    if lambda_warm is None:
        lam = np.zeros(h)
    else:
        lam = np.array(lambda_warm, dtype=float)
        if lam.shape != (h,) or not np.isfinite(lam).all():
            raise ValueError(f"lambda_warm must be finite and of p_f's "
                             f"length {h}, got shape {lam.shape}")
    if alpha is None:
        alpha = default_alpha(fleet)
    if bal_tol_w is None:
        bal_tol_w = default_balance_tol_w(p_f)
    history = []  # worst-step residual of every iterate
    problems = _node_problems(fleet, h)
    qps = problems[0] + problems[1]
    short_w, over_w = _reach_bounds(qps, p_f)
    reach_w = max(short_w, over_w)
    attained_w = BOUND_ATTAINED_RTOL * float(abs(p_f).max())
    least = None  # least worst-step residual, from the LP
    best = None  # (residual, price, gen, batt, total)
    converged = False
    for _ in range(max_iter):
        gen, batt = _solve_all(fleet, lam, problems)
        total = np.zeros(h)
        for r in gen + batt:
            total += r.profile
        residual = total - p_f
        res_inf = float(abs(residual).max())
        history.append(res_inf)
        at_reach = (reach_w > bal_tol_w and res_inf <= reach_w + attained_w
                    and -float(residual.min())
                    <= max(short_w + attained_w, bal_tol_w))
        if best is None or res_inf < best[0] or at_reach:
            best = (res_inf, lam, gen, batt, total)
        if res_inf <= bal_tol_w:
            converged = True
            break
        if at_reach:
            break
        if len(history) == LP_BOUND_ITERATION:
            least = _min_residual_lp(qps, p_f)
        if least is not None and least > bal_tol_w \
                and best[0] <= least + attained_w:
            break
        lam = dual_update(lam, total, p_f, alpha)
    # a converged or at-reach iterate is the best one
    final_res, lam_final, gen, batt, total = best
    shortfall = 0.0 if converged else max(0.0, float((p_f - total).max()))
    return CoordinationReport(
        gen=gen,
        batt=batt,
        lambda_final=lam_final,
        converged=converged,
        iterations_used=len(history),
        final_residual_w=final_res,
        shortfall_w=shortfall,
        residual_history=history,
    )


@dataclass
class CentralizedResult:
    gen_profiles: list[np.ndarray]
    batt_profiles: list[np.ndarray]
    objective: float
    balance_residual_w: float
    status: str

    def total_power(self) -> np.ndarray:
        total = None
        for p in self.gen_profiles + self.batt_profiles:
            total = p.copy() if total is None else total + p
        return total


def centralized_solve(fleet: Fleet, p_f: np.ndarray,
                      tol: float = 1e-6) -> CentralizedResult:
    """Monolithic allocation with balance as an explicit equality.

    One stacked QP over every node's profile: each node's own rows plus the
    h balance equalities, solved exactly by the same LDP kernel as the node
    problems. ``tol`` is the accepted constraint violation relative to
    max(1, ||x||inf); the status is "infeasible" only on a verified
    certificate that no allocation meets the demand.
    """
    p_f = np.asarray(p_f, dtype=float)
    h = p_f.size
    gen_qps, batt_qps = _node_problems(fleet, h)
    problems = gen_qps + batt_qps
    n = len(problems)
    a, b = _stacked_rows(problems)
    balance = np.tile(np.eye(h), n)
    a = np.vstack([a, balance, -balance])
    b = np.concatenate([b, p_f, -p_f])
    boxes = [p.effective_box() for p in problems]
    rows = qpmod.LdpRows(np.concatenate([p.quad_diag for p in problems]), a)
    kernel = qpmod.Ldp(rows, b, np.concatenate([lo for lo, _ in boxes]),
                       np.concatenate([hi for _, hi in boxes]))
    n_g = len(gen_qps)
    targets = [g.spec.rated_power_w for g in fleet.pgms] + [0.0] * (n - n_g)
    # generators pull toward their rated point, batteries toward zero
    lin = np.concatenate([-p.quad_diag * t for p, t in zip(problems, targets)])
    x, status, _, _ = kernel.solve(lin, tol)
    if status == INFEASIBLE:
        return CentralizedResult([], [], np.inf, np.inf, INFEASIBLE)
    profiles = list(x.reshape(n, h))
    dev = [x_i - t for x_i, t in zip(profiles, targets)]
    return CentralizedResult(
        gen_profiles=profiles[:n_g],
        batt_profiles=profiles[n_g:],
        objective=sum(0.5 * w * float(v @ v)
                      for w, v in zip(fleet.weights(), dev)),
        balance_residual_w=float(np.max(np.abs(np.sum(profiles, axis=0)
                                                - p_f))),
        status=status,
    )
