"""Price coordination of the device fleet.

A coordinator node broadcasts a price profile lambda, every device answers
with the minimizer of its private cost plus lambda'p, and the coordinator
moves the price along the power-balance violation (dual gradient ascent):

    lambda' = lambda + alpha * (sum of device powers - demanded power).

The ascent starts at the fleet's envelope price (`_envelope_price`): per
step, the price at which every node's unconstrained response, clipped to
its reach envelope (box and ramp, no solve), sums to the demand. That is
the lambda-iteration of classical economic dispatch with unit limits,
solved exactly. Where each node's optimum at that price is its clipped
response, no ramp or SoC row binding between steps, the first iterate
balances; it does on 199 of criterion 1's 200 fleets. A warm price from
the previous MPC step is tried first; when it misses, the envelope price
comes next, then plain ascent.

Every node problem is solved exactly by the LDP kernel of `qp`. Its
problem is built once per MPC step, and the kernel's rows once per device
and run (`qp` keeps them in a memo). `centralized_solve` solves the
same allocation monolithically (one stacked QP with the balance as
equality rows, solved by the same kernel over stacked rows memoized per
fleet shape) and serves as the verification oracle for the distributed
loop.

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

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import sub

import numpy as np
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

    def targets(self) -> list[float]:
        """The power each node's cost pulls toward: rated for generators,
        0 for batteries."""
        return ([g.spec.rated_power_w for g in self.pgms]
                + [0.0] * len(self.pcms))


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


def _envelope(qp):
    """A node's reach envelope: per step k, the bounds lo_k <= power <=
    hi_k that its effective box [lo, hi] (`HorizonQp.effective_bounds`)
    and its ramp put on its step-k power, hi_k = min over j <= k of
    (hi_j + (k-j)*ramp) and lo_k likewise; as two lists (los, his).

    The running minimum of hi_j - j*ramp, with k*ramp added back, is taken
    on Python floats.
    """
    ramp = qp.ramp_limit
    his, los = [], []
    box_lo, box_hi = qp.effective_bounds()
    for k, (u, l) in enumerate(zip(box_hi, box_lo)):
        s = ramp * k
        # min and max as numpy's accumulate runs them, NaN included; a
        # comparison is cheaper than the built-ins
        if not k or u - s < hi:
            hi = u - s
        if not k or l + s > lo:
            lo = l + s
        his.append(hi + s)
        los.append(lo - s)
    return los, his


def _reach_bounds(envelopes, demand: list[float]):
    """Lower bounds on every allocation's worst-step deficit and worst-step
    excess over the demand.

    Every step-k total lies within the sum of the nodes' `_envelope`
    bounds at step k; the sums over nodes are taken on Python floats, in
    the nodes' order.
    """
    lo_sum = [sum(v) for v in zip(*(los for los, _ in envelopes))]
    hi_sum = [sum(v) for v in zip(*(his for _, his in envelopes))]
    return (max(0.0, max(map(sub, demand, hi_sum))),
            max(0.0, max(map(sub, lo_sum, demand))))


def _envelope_price(fleet: Fleet, envelopes,
                    demand: list[float]) -> np.ndarray:
    """The price profile at which the nodes' unconstrained responses,
    clipped to their ``envelopes`` (one per node, generators first), meet
    the demand: per step k, the lambda_k with
    sum_i clip(t_i - lambda_k/w_i, lo_ik, hi_ik) = p_f,k for the fleet's
    targets t_i and floored weights w_i. This is the lambda-iteration of
    economic dispatch with unit limits, solved exactly.

    The sum is piecewise linear and nonincreasing in lambda, with
    breakpoints w_i(t_i - hi_ik) and w_i(t_i - lo_ik). A sweep up the
    breakpoints finds the segment that holds the demand; there every node
    is at a bound or free, and lambda follows from the free ones, summed
    afresh so that no rounding of the sweep remains. Past the outermost
    breakpoint the segment goes on while some node is unbounded on that
    side; otherwise the price stops at the breakpoint. On Python floats.
    """
    targets, weights = fleet.targets(), fleet.weights()
    price = []
    for k, d in enumerate(demand):
        nodes = [(t, w, los[k], his[k])
                 for t, w, (los, his) in zip(targets, weights, envelopes)]
        # below every breakpoint each node is at its upper bound, or free
        # when it has none; on each segment the sum is level - lam * slope,
        # and each breakpoint moves one node to or from the free ones
        level = slope = 0.0
        points = []
        for t, w, lo, hi in nodes:
            if hi < math.inf:
                level += hi
                points.append((w * (t - hi), t - hi, 1.0 / w))
            else:
                level += t
                slope += 1.0 / w
            if lo > -math.inf:
                points.append((w * (t - lo), lo - t, -1.0 / w))
        points.sort()
        a, b = -math.inf, math.inf
        for point, step, change in points:
            if level - point * slope <= d:
                b = point
                break
            a = point
            level += step
            slope += change
        held = free = slope = 0.0
        for t, w, lo, hi in nodes:
            if w * (t - hi) >= b:
                held += hi
            elif w * (t - lo) <= a:
                held += lo
            else:
                free += t
                slope += 1.0 / w
        if slope:
            price.append((held + free - d) / slope)
        else:
            price.append(b if a == -math.inf else a)
    return np.array(price)


def _block_diagonal(blocks) -> np.ndarray:
    """Every node's rows as one block-diagonal matrix over the stacked
    profiles."""
    a = np.zeros((sum(r.shape[0] for r in blocks),
                  sum(r.shape[1] for r in blocks)))
    i = j = 0
    for r in blocks:
        a[i:i + r.shape[0], j:j + r.shape[1]] = r
        i, j = i + r.shape[0], j + r.shape[1]
    return a


def _min_residual_lp(qps, p_f: np.ndarray) -> float | None:
    """HiGHS: the least worst-step balance residual t over allocations that
    keep every node within its rows, min t s.t. |sum_i x_ik - p_f,k| <= t.
    SoC rows stay in power units. None when the LP does not solve."""
    h = p_f.size
    rows = [p.constraint_rows() for p in qps]
    a = _block_diagonal([r for r, _ in rows])
    b = np.concatenate([b for _, b in rows])
    balance = np.tile(np.eye(h), len(qps))
    t = np.ones((h, 1))
    a_ub = np.vstack([np.hstack([a, np.zeros((a.shape[0], 1))]),
                      np.hstack([balance, -t]), np.hstack([-balance, -t])])
    c = np.zeros(a_ub.shape[1])
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.concatenate([b, p_f, -p_f]) / LP_UNIT_W,
                  bounds=(None, None), method="highs")
    return float(res.x[-1]) * LP_UNIT_W if res.status == 0 else None


def _demand(p_f):
    """``p_f`` as a float array and as a list, once it is checked to be a
    finite, non-empty 1-D profile."""
    p_f = np.asarray(p_f, dtype=float)
    demand = p_f.tolist() if p_f.ndim == 1 else []
    if not demand or not qpmod.all_finite(demand):
        raise ValueError("p_f must be a finite, non-empty 1-D profile")
    return p_f, demand


def _solve_all(nodes, lam: np.ndarray, h: int):
    """Every node's solve at the price ``lam``, generators first, and the
    sum of their profiles. ``nodes`` holds (is a generator, problem, spec,
    state) per node; `pgm_solve` and `pcm_solve` are looked up by their
    module names at every call."""
    gen, batt = [], []
    total = np.zeros(h)
    for is_gen, problem, spec, state in nodes:
        if is_gen:
            r = pgm_solve(problem, lam, spec)
            gen.append(r)
        else:
            r = pcm_solve(problem, lam, spec)
            batt.append(r)
        if r.qp_status == INFEASIBLE:
            raise RuntimeError(f"node problem infeasible at {state}")
        total += r.profile
    return gen, batt, total


def coordinate(fleet: Fleet, p_f: np.ndarray, alpha: float | None = None,
               bal_tol_w: float | None = None, max_iter: int = 500,
               lambda_warm: np.ndarray | None = None) -> CoordinationReport:
    """Run dual ascent until the fleet balances the demand profile.

    The first price is ``lambda_warm`` when given, else the fleet's
    envelope price (`_envelope_price`). A warm price whose iterate misses
    the tolerance, with no exit below firing, is followed by the envelope
    price; every later price is one `dual_update` step with ``alpha``.

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
    p_f, demand = _demand(p_f)
    h = p_f.size
    if lambda_warm is not None:
        lam = np.array(lambda_warm, dtype=float)
        if lam.shape != (h,) or not qpmod.all_finite(lam.tolist()):
            raise ValueError(f"lambda_warm must be finite and of p_f's "
                             f"length {h}, got shape {lam.shape}")
    if alpha is None:
        alpha = default_alpha(fleet)
    if bal_tol_w is None:
        bal_tol_w = default_balance_tol_w(p_f)
    history = []  # worst-step residual of every iterate
    gen_qps, batt_qps = _node_problems(fleet, h)
    qps = gen_qps + batt_qps
    nodes = [(True, p, g.spec, g) for p, g in zip(gen_qps, fleet.pgms)] \
        + [(False, p, b.spec, b) for p, b in zip(batt_qps, fleet.pcms)]
    # every node's reach envelope, built at most once: for the start
    # price, or once the warm price misses the tolerance. A step whose
    # warm price balances, as most do, never reads it.
    envelopes = None
    if lambda_warm is None:
        envelopes = [_envelope(p) for p in qps]
        lam = _envelope_price(fleet, envelopes, demand)
    reach_w = None
    attained_w = BOUND_ATTAINED_RTOL * max(map(abs, demand))
    least = None  # least worst-step residual, from the LP
    best = None  # (residual, price, gen, batt, total)
    converged = False
    for _ in range(max_iter):
        gen, batt, total = _solve_all(nodes, lam, h)
        residual = (total - p_f).tolist()
        res_inf = max(map(abs, residual))
        # numpy's max propagates a NaN, which the built-in skips when not
        # first
        if math.isnan(sum(residual)) and any(map(math.isnan, residual)):
            res_inf = math.nan
        history.append(res_inf)
        if res_inf <= bal_tol_w:
            # every earlier iterate missed the tolerance: this is the best
            best = (res_inf, lam, gen, batt, total)
            converged = True
            break
        if reach_w is None:
            if envelopes is None:
                envelopes = [_envelope(p) for p in qps]
            short_w, over_w = _reach_bounds(envelopes, demand)
            reach_w = max(short_w, over_w)
        at_reach = (reach_w > bal_tol_w and res_inf <= reach_w + attained_w
                    and -min(residual) <= max(short_w + attained_w,
                                              bal_tol_w))
        if best is None or res_inf < best[0] or at_reach:
            best = (res_inf, lam, gen, batt, total)
        if at_reach:
            break
        if len(history) == LP_BOUND_ITERATION:
            least = _min_residual_lp(qps, p_f)
        if least is not None and least > bal_tol_w \
                and best[0] <= least + attained_w:
            break
        if lambda_warm is not None and len(history) == 1:
            # the warm price missed: go on from the envelope price
            lam = _envelope_price(fleet, envelopes, demand)
        else:
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


@lru_cache(maxsize=qpmod.LDP_ROWS_MEMO_SIZE)
def _fleet_rows(h: int, nodes: tuple) -> qpmod.LdpRows:
    """`LdpRows` of the stacked fleet problem: each node's rows, as
    `qp._ldp_rows` builds them from the node's key in ``nodes``, block
    diagonal over the stacked profiles, then the h balance rows
    sum_i x_ik = p_f,k and their negations as equalities."""
    a = _block_diagonal([qpmod._kept_rows(h, prefix, keep)
                         for _, prefix, keep in nodes])
    balance = np.tile(np.eye(h), len(nodes))
    d = np.concatenate([np.frombuffer(d) for d, _, _ in nodes])
    return qpmod.LdpRows(d, np.vstack([a, balance, -balance]), n_eq=h)


def centralized_solve(fleet: Fleet, p_f: np.ndarray,
                      tol: float = 1e-6) -> CentralizedResult:
    """Monolithic allocation with balance as an explicit equality.

    One stacked QP over every node's profile: each node's own rows plus the
    h balance equalities, solved exactly by the same LDP kernel as the node
    problems. ``tol`` is the accepted constraint violation relative to
    max(1, ||x||inf); the status is "infeasible" only on a verified
    certificate that no allocation meets the demand.

    The stacked rows depend only on the fleet's shape (each node's Hessian
    and row pattern, and h), so they come from the bounded memo of
    `_fleet_rows`, and with them the active-set maps that certified
    earlier solves of that shape: a call fills only the right-hand side,
    the box and the linear term, and a fleet solved again, or at a nearby
    state, mostly exits through a kept map instead of `nnls`.
    """
    p_f, demand = _demand(p_f)
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    h = p_f.size
    gen_qps, batt_qps = _node_problems(fleet, h)
    problems = gen_qps + batt_qps
    n = len(problems)
    # every node's parts are lists of floats, stacked before one array each
    parts = [p.ldp_parts() for p in problems]
    rows = _fleet_rows(h, tuple(key for _, _, _, key in parts))
    b = [v for _, _, node_b, _ in parts for v in node_b]
    b += demand
    b += [-v for v in demand]
    kernel = qpmod.Ldp(rows, b, [v for lo, _, _, _ in parts for v in lo],
                       [v for _, hi, _, _ in parts for v in hi])
    n_g = len(gen_qps)
    targets = fleet.targets()
    # generators pull toward their rated point, batteries toward zero
    lin = np.array([-d * t for p, t in zip(problems, targets)
                    for d in p.quad_diag.tolist()])
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
