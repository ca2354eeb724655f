"""Price coordination of the device fleet.

A coordinator node broadcasts a price profile lambda, every device answers
with the minimizer of its private cost plus lambda'p, and the coordinator
moves the price along the power-balance violation (dual gradient ascent):

    lambda' = lambda + alpha * (sum of device powers - demanded power).

The ascent starts at the fleet's envelope price (`_envelope_price`): per
step, the price at which every node's unconstrained response, clipped to
its reach envelope (box and ramp, no solve), sums to the demand. That is
the lambda-iteration of classical economic dispatch with unit limits,
solved exactly. Most steps need no sweep of the breakpoints (577 of
criterion 1's 1000): their price is the all-free one, at which no node's
response is clipped, and a margin over the rounding proves it the
sweep's. Where each node's optimum at the envelope price is its clipped
response, no ramp or SoC row binding between steps, the first iterate
balances; it does on 199 of criterion 1's 200 fleets. The kernel then
returns each such node's answer in closed form, as the clip of its
unconstrained response to its reach envelope (`qp`). A warm price from
the previous MPC step is tried first; when it misses, the envelope price
comes next, then plain ascent.

Every node problem is solved exactly by the LDP kernel of `qp`. A
device has one kernel, whose rows its fixed part holds; each MPC step
builds its problem, reach envelope and kernel right-hand side in one
pass. `centralized_solve` solves the same allocation monolithically (one
stacked QP of its nodes' kernels with the balance as equality rows,
solved by the same kernel over stacked rows memoized per fleet shape)
and serves as the verification oracle for the distributed loop.

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
A cold call whose demand is at or above the fleet's reach at every step
(a saturated call, as under a sustained shortfall) is priced by one pass
over the envelopes: each step's least upper breakpoint, which is the
sweep's own answer there, and the per-step sums of the envelope bounds,
which give the reach bound that ends such a call at its first iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add, le, sub

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
# a step's all-free price is taken when it clears the extreme breakpoints
# by this fraction of its scale: the sum of the targets, twice the finite
# upper bounds and the demand, over sum(1/w), plus the price and the
# breakpoints. That exceeds the rounding of the sweep's sums, about
# (2n + 5) * 2**-53 of the same scale for n nodes, for any fleet of fewer
# than a million nodes.
ENVELOPE_EXIT_RTOL = 1e-9


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
    # where the loop stopped: "balanced", "reach" (the reach envelope's
    # bound), "lp" (the residual LP's) or "max_iter"
    exit: str

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


def default_balance_tol_w(p_f) -> float:
    """1e-4 of the demand profile's largest magnitude, and at least 1e-4 W.
    ``p_f`` is a 1-D array or a list of floats."""
    return 1e-4 * float(max(max(map(abs, p_f)), 1.0))


def _node_problems(fleet: Fleet, h: int):
    """Every node's horizon QP at the fleet's state, built once per MPC
    step; across dual iterations only the price changes."""
    gen = [pgm_qp(g.spec, g.prev_power_w, h) for g in fleet.pgms]
    batt = [pcm_qp(b.spec, fleet.bus, b.soc, b.prev_power_w, fleet.td_s, h)
            for b in fleet.pcms]
    return gen, batt


def _envelope_sums(envelopes, h: int):
    """Per step, the sums over nodes of the lower and of the upper bounds
    of the length-``h`` reach ``envelopes``, as two lists: on Python
    floats, in the nodes' order from 0.0, as the sweep of `_swept_price`
    adds its upper bounds."""
    lo_sum = hi_sum = [0.0] * h
    for los, his in envelopes:
        lo_sum = list(map(add, lo_sum, los))
        hi_sum = list(map(add, hi_sum, his))
    return lo_sum, hi_sum


def _reach_gaps(lo_sum: list, hi_sum: list, demand: list[float]):
    """The bounds of `_reach_bounds` from the sums of `_envelope_sums`."""
    return (max(0.0, max(map(sub, demand, hi_sum))),
            max(0.0, max(map(sub, lo_sum, demand))))


def _reach_bounds(envelopes, demand: list[float]):
    """Lower bounds on every allocation's worst-step deficit and worst-step
    excess over the demand.

    Every step-k total lies within the sum of the nodes' reach envelope
    bounds (`HorizonQp.envelope`) at step k (`_envelope_sums`).
    """
    return _reach_gaps(*_envelope_sums(envelopes, len(demand)), demand)


def _saturated_pass(targets: list, weights: list, envelopes,
                    demand: list[float]):
    """One pass over the nodes' reach ``envelopes`` (generators first):
    per step, the sums of the upper and of the lower bounds
    (`_envelope_sums`) and the least upper breakpoint w_i(t_i - hi_ik).
    Returns (price, bounds): ``bounds`` is the pair of `_reach_bounds`, and
    ``price`` lists each step's least upper breakpoint when every step is
    saturated, else None.

    A step is saturated when none of its upper bounds is unbounded above
    (an infinite one makes the sum so) and their sum is at most its
    demand: the test and the value of the sweep's saturated branch
    (`_swept_price`), so the price is the sweep's bit for bit; the least
    breakpoint keeps the first of equal ones, as the sweep does."""
    lo_sum, hi_sum = _envelope_sums(envelopes, len(demand))
    bounds = _reach_gaps(lo_sum, hi_sum, demand)
    if not all(map(le, hi_sum, demand)):
        return None, bounds
    least = [math.inf] * len(demand)
    for t, w, (_, his) in zip(targets, weights, envelopes):
        least = list(map(min, least, [w * (t - hi) for hi in his]))
    return least, bounds


def _envelope_price(targets: list, weights: list, qps,
                    demand: list[float]):
    """The price profile at which the nodes' unconstrained responses,
    clipped to their reach envelopes (`HorizonQp.envelope` of each of
    ``qps``, generators first), meet the demand: per step k, the lambda_k
    with sum_i clip(t_i - lambda_k/w_i, lo_ik, hi_ik) = p_f,k for the
    nodes' ``targets`` t_i and floored ``weights`` w_i. This is the
    lambda-iteration of economic dispatch with unit limits, solved
    exactly. Returns (price, bounds): the price as an array, and the
    bounds of `_reach_bounds` when the call has taken them on the way,
    else None.

    A demand at or above the fleet's reach at step 0 (the sum of the
    nodes' step-0 upper bounds, which needs no envelope) is met by one
    pass over the envelopes (`_saturated_pass`), which also takes the
    bounds. When every step is saturated, its least upper breakpoints are
    the price; otherwise the steps are priced as below.

    The sum is piecewise linear and nonincreasing in lambda, with
    breakpoints w_i(t_i - hi_ik) and w_i(t_i - lo_ik). Most steps meet the
    demand with every node free: the all-free price
    (sum_i t_i - p_f,k) / sum_i 1/w_i then lies above every upper
    breakpoint of the step and below every lower one, and the sweep of
    `_swept_price` would stop on that segment and return it. A step takes
    the all-free price when it clears, by `ENVELOPE_EXIT_RTOL` of its
    scale, the extreme breakpoints of step 0 (at step 0) or those over
    steps 1 to h-1 (at a later step); its sums are the sweep's, in the
    nodes' order, so the price is the sweep's bit for bit. The extremes
    come from each node's step-0 bounds and its envelope's step-1 bounds.
    On Python floats.
    """
    bounds = None
    # the fleet's reach at step 0: the sum of the step-0 upper bounds, in
    # the nodes' order from 0.0, as the pass adds them
    reach0 = 0.0
    for p in qps:
        reach0 += p._hi0
    if reach0 <= demand[0]:
        price, bounds = _saturated_pass(targets, weights,
                                        [p.envelope for p in qps], demand)
        if price is not None:
            return np.array(price), bounds
    free = slope = size = 0.0
    # extreme upper and lower breakpoints at step 0, and over steps >= 1;
    # rounding is monotone, so these are the breakpoints of the extreme
    # bounds
    upper0 = upper = -math.inf
    lower0 = lower = math.inf
    for t, w, p in zip(targets, weights, qps):
        # the sums of the sweep's free branch
        free += t
        slope += 1.0 / w
        hi, lo = p._hi0, p._lo0
        u, v = w * (t - hi), w * (t - lo)
        if u > upper0:
            upper0 = u
        if v < lower0:
            lower0 = v
        size += abs(t) + abs(hi)
        steps = p._fixed.steps
        if steps:
            # over steps >= 1 the envelope is narrowest at step 1 and the
            # anchor's reach greatest at step h-1
            los, his = p.envelope
            u, v = w * (t - his[1]), w * (t - los[1])
            if u > upper:
                upper = u
            if v < lower:
                lower = v
            size += abs(his[1]) + abs(hi + steps[-1])
    # the rounding of the sweep's sums, in price units: its level adds the
    # targets and the finite upper bounds (size bounds each of their sums
    # by half), its slope weighs the breakpoints it passes; the demand and
    # the price add theirs per step
    base = 2.0 * size / slope if slope else math.nan
    # per tier: the extreme breakpoints and the scale with theirs
    tiers = [(u, v, base + (abs(u) if u > -math.inf else 0.0)
              + (abs(v) if v < math.inf else 0.0))
             for u, v in ((upper0, lower0), (upper, lower))]
    price = []
    for k, d in enumerate(demand):
        u, v, scale = tiers[min(k, 1)]
        if scale < math.inf:
            lam = (free - d) / slope
            margin = ENVELOPE_EXIT_RTOL * (scale + abs(d) / slope + abs(lam))
            if lam - u > margin and v - lam > margin:
                price.append(lam)
                continue
        price.append(_swept_price(
            [(t, w, p.envelope[0][k], p.envelope[1][k])
             for t, w, p in zip(targets, weights, qps)], d))
    return np.array(price), bounds


def _swept_price(nodes, d: float) -> float:
    """The step price of `_envelope_price` at demand ``d`` for ``nodes``,
    (t, w, lo, hi) per node: a sweep up the breakpoints finds the segment
    that holds the demand; there every node is at a bound or free, and
    lambda follows from the free ones, summed afresh so that no rounding
    of the sweep remains. Past the outermost breakpoint the segment goes
    on while some node is unbounded on that side; otherwise the price
    stops at the breakpoint.

    A saturated step, whose demand the nodes' upper bounds cannot exceed
    (none is unbounded above), stops at the least breakpoint, which is the
    least upper one: it returns that without the sort, bit for bit."""
    # below every breakpoint each node is at its upper bound, or free
    # when it has none; on each segment the sum is level - lam * slope,
    # and each breakpoint moves one node to or from the free ones
    level = slope = 0.0
    least = math.inf  # the least upper breakpoint
    points = []
    for t, w, lo, hi in nodes:
        if hi < math.inf:
            level += hi
            point = w * (t - hi)
            if point < least:
                least = point
            points.append((point, t - hi, 1.0 / w))
        else:
            level += t
            slope += 1.0 / w
        if lo > -math.inf:
            points.append((w * (t - lo), lo - t, -1.0 / w))
    if not slope and level <= d:
        return least
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
        return (held + free - d) / slope
    return b if a == -math.inf else a


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
    short, and returns its best-residual iterate. The report's ``exit``
    names the stop: "balanced", "reach", "lp" or "max_iter". A cold call
    whose envelope price took the reach bounds on the way (a demand at or
    above the fleet's reach at step 0) does not take them again.
    ``shortfall_w`` is the
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
    if bal_tol_w is None:
        bal_tol_w = default_balance_tol_w(demand)
    history = []  # worst-step residual of every iterate
    gen_qps, batt_qps = _node_problems(fleet, h)
    qps = gen_qps + batt_qps
    nodes = [(True, p, g.spec, g) for p, g in zip(gen_qps, fleet.pgms)] \
        + [(False, p, b.spec, b) for p, b in zip(batt_qps, fleet.pcms)]
    # the reach envelope's (deficit, excess) bounds, taken once an iterate
    # misses the tolerance unless the envelope price took them on the way;
    # most steps balance at their first price
    bounds = None
    if lambda_warm is None:
        lam, bounds = _envelope_price(fleet.targets(),
                                      [p.weight for p in qps], qps, demand)
    reach_w = None
    least = None  # least worst-step residual, from the LP
    best = None  # (worst-step residual, price, gen, batt, residuals)
    exit_ = "max_iter"
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
            best = (res_inf, lam, gen, batt, residual)
            exit_ = "balanced"
            break
        if reach_w is None:
            if bounds is None:
                bounds = _reach_bounds([p.envelope for p in qps], demand)
            short_w, over_w = bounds
            reach_w = max(short_w, over_w)
            attained_w = BOUND_ATTAINED_RTOL * max(map(abs, demand))
        at_reach = (reach_w > bal_tol_w and res_inf <= reach_w + attained_w
                    and -min(residual) <= max(short_w + attained_w,
                                              bal_tol_w))
        if best is None or res_inf < best[0] or at_reach:
            best = (res_inf, lam, gen, batt, residual)
        if at_reach:
            exit_ = "reach"
            break
        if len(history) == LP_BOUND_ITERATION:
            least = _min_residual_lp(qps, p_f)
        if least is not None and least > bal_tol_w \
                and best[0] <= least + attained_w:
            exit_ = "lp"
            break
        if lambda_warm is not None and len(history) == 1:
            # the warm price missed: go on from the envelope price
            lam, _ = _envelope_price(fleet.targets(),
                                     [p.weight for p in qps], qps, demand)
        else:
            if alpha is None:
                alpha = default_alpha(fleet)
            lam = dual_update(lam, total, p_f, alpha)
    # a converged or at-reach iterate is the best one
    final_res, lam_final, gen, batt, residual = best
    converged = exit_ == "balanced"
    # its worst deficit; a NaN residual, which the built-in min may skip,
    # gives none
    shortfall = 0.0 if converged or final_res != final_res \
        else max(0.0, -min(residual))
    return CoordinationReport(
        gen=gen,
        batt=batt,
        lambda_final=lam_final,
        converged=converged,
        iterations_used=len(history),
        final_residual_w=final_res,
        shortfall_w=shortfall,
        residual_history=history,
        exit=exit_,
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
    `qp._ldp_rows` builds them from the node's row key in ``nodes``
    (`qp._FixedPart.key`), block
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
    `_fleet_rows`, keyed on the nodes' row keys, and with them the
    active-set maps that certified earlier solves of that shape. A call
    stacks its nodes' kernels' right-hand sides with the balance rows' and
    fills the box and the linear term, and a fleet solved again, or at a
    nearby state, mostly exits through a kept map instead of `nnls`.
    """
    p_f, _ = _demand(p_f)
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    h = p_f.size
    gen_qps, batt_qps = _node_problems(fleet, h)
    problems = gen_qps + batt_qps
    n = len(problems)
    rows = _fleet_rows(h, tuple(p._fixed.key for p in problems))
    # the nodes' kernels' right-hand sides, then the balance rows', each
    # divided by its row's norm
    b = np.concatenate([p.ldp.b for p in problems] + [p_f, -p_f])
    balance = b[-2 * h:]
    balance /= rows.norms[-2 * h:]
    bounds = [p.effective_bounds() for p in problems]
    kernel = qpmod.Ldp(rows, b, [v for lo, _ in bounds for v in lo],
                       [v for _, hi in bounds for v in hi])
    n_g = len(gen_qps)
    targets = fleet.targets()
    # generators pull toward their rated point, batteries toward zero
    lin = np.array([-d * t for p, t in zip(problems, targets)
                    for d in p.quad_diag.tolist()])
    x, status, _, _ = kernel.solve(lin, tol)
    if status == INFEASIBLE:
        return CentralizedResult([], [], np.inf, np.inf, INFEASIBLE)
    x = x.reshape(n, h)
    profiles = list(x)
    dev = [x_i - t for x_i, t in zip(profiles, targets)]
    return CentralizedResult(
        gen_profiles=profiles[:n_g],
        batt_profiles=profiles[n_g:],
        objective=sum(0.5 * p.weight * float(v @ v)
                      for p, v in zip(problems, dev)),
        balance_residual_w=float(abs(x.sum(axis=0) - p_f).max()),
        status=status,
    )
