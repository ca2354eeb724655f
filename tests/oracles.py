"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (dense
linear algebra, brute-force enumeration, fine-step integration) so that
agreement with the production code is meaningful.
"""

from __future__ import annotations

import itertools

import numpy as np


def euler_rl_current(i0: float, dv: float, r: float, l: float, dt: float,
                     n_sub: int = 50_000) -> float:
    """Forward-Euler integration of l*di/dt = -r*i + dv over one step."""
    h = dt / n_sub
    i = i0
    for _ in range(n_sub):
        i = i + h * (-r * i + dv) / l
    return i


def enumerate_qp(quad_diag, lin, a_ub, b_ub, tol: float = 1e-9):
    """Globally solve min 0.5 x'diag(d)x + q'x s.t. A x <= b by active sets.

    Tries every subset of constraints of size <= n as an equality system,
    solves the KKT equations, keeps candidates that are primal feasible,
    and returns the feasible candidate with the lowest objective. Only
    usable for small n and modest constraint counts. Returns (x, obj) or
    (None, None) when no candidate subset yields a feasible point.

    The KKT systems of one subset size are solved in one stacked call.
    Subsets whose rows are linearly dependent are skipped: the optimum of a
    strictly convex QP is always the KKT point of a subset whose rows are
    linearly independent. Subsets holding both sides of one bound (rows a
    and -a) are the commonest such case and are dropped first, before any
    rank is computed.
    """
    d = np.asarray(quad_diag, dtype=float)
    q = np.asarray(lin, dtype=float)
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    n = d.size
    m = a.shape[0]
    opposite = np.all(a[:, None, :] == -a[None, :, :], axis=2)

    def objective(x):
        return 0.5 * float(x @ (d * x)) + float(q @ x)

    best_x, best_obj = None, np.inf
    for k in range(0, n + 1):
        combos = list(itertools.combinations(range(m), k))
        idx = np.array(combos, dtype=int).reshape(len(combos), k)
        idx = idx[~opposite[idx[:, :, None], idx[:, None, :]].any(axis=(1, 2))]
        if k and len(idx):
            idx = idx[np.linalg.matrix_rank(a[idx]) == k]
        count = idx.shape[0]
        if not count:
            continue
        a_s = a[idx]  # (subsets, k, n)
        # KKT: diag(d) x + A_S' mu = -q ; A_S x = b_S
        kkt = np.zeros((count, n + k, n + k))
        kkt[:, :n, :n] = np.diag(d)
        kkt[:, :n, n:] = a_s.transpose(0, 2, 1)
        kkt[:, n:, :n] = a_s
        rhs = np.concatenate([np.broadcast_to(-q, (count, n)), b[idx]], axis=1)
        x_all = np.linalg.solve(kkt, rhs[..., None])[:, :n, 0]
        ok = np.all(np.isfinite(x_all), axis=1)
        ok[ok] = np.all(x_all[ok] @ a.T <= b + tol, axis=1)
        for x in x_all[ok]:
            obj = objective(x)
            if obj < best_obj - 1e-15:
                best_obj, best_x = obj, x.copy()
    if best_x is None:
        return None, None
    return best_x, best_obj


def horizon_qp_matrices(h, p_min, p_max, ramp, anchor, kappa=None, soc0=None,
                        soc_min=None, soc_max=None):
    """Stack a horizon QP's constraints into a single (A, b) inequality pair.

    Box bounds, step-to-step ramp slabs anchored at ``anchor``, and (when
    kappa is given) state-of-charge prefix-sum slabs
    soc_min <= soc0 - kappa*cumsum(p) <= soc_max.
    """
    rows, rhs = [], []
    eye = np.eye(h)
    for k in range(h):
        rows.append(eye[k]); rhs.append(p_max)
        rows.append(-eye[k]); rhs.append(-p_min)
    # |p_0 - anchor| <= ramp
    rows.append(eye[0]); rhs.append(anchor + ramp)
    rows.append(-eye[0]); rhs.append(-(anchor - ramp))
    for k in range(1, h):
        row = eye[k] - eye[k - 1]
        rows.append(row); rhs.append(ramp)
        rows.append(-row); rhs.append(ramp)
    if kappa is not None:
        for k in range(h):
            pref = np.zeros(h)
            pref[: k + 1] = 1.0
            # soc0 - kappa * sum <= soc_max  ->  -kappa*sum <= soc_max - soc0
            rows.append(-kappa * pref); rhs.append(soc_max - soc0)
            rows.append(kappa * pref); rhs.append(soc0 - soc_min)
    return np.array(rows), np.array(rhs)


def unit_rows(a_ub, b_ub):
    """Rows of A x <= b scaled to unit norm.

    Applied to `horizon_qp_matrices` this puts the state-of-charge rows in
    power units (bounds on prefix sums of power), whatever kappa is.
    """
    a = np.asarray(a_ub, dtype=float)
    norms = np.linalg.norm(a, axis=1)
    return a / norms[:, None], np.asarray(b_ub, dtype=float) / norms


def min_max_violation(a_ub, b_ub, unit: float = 1e6) -> float:
    """HiGHS LP: the least t such that some x violates no unit-norm row of
    A x <= b by more than t. The polytope is nonempty exactly when t <= 0.

    The LP is solved in units of ``unit`` (MW for powers in W).
    """
    from scipy.optimize import linprog

    a, b = unit_rows(a_ub, b_ub)
    n = a.shape[1]
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.hstack([a, -np.ones((a.shape[0], 1))]),
                  b_ub=b / unit, bounds=[(None, None)] * (n + 1),
                  method="highs")
    assert res.status == 0, res.message
    return float(res.x[-1]) * unit


def device_rows(fleet, h):
    """Each device's constraints of a coordinator Fleet as unit-norm (A, b),
    rebuilt from the specs: generators first, then batteries."""
    out = []
    for g in fleet.pgms:
        s = g.spec
        out.append(unit_rows(*horizon_qp_matrices(
            h, s.p_min_w, s.p_max_w, s.ramp_limit_w_per_step, g.prev_power_w)))
    for b in fleet.pcms:
        s = b.spec
        kappa = fleet.td_s / (s.capacity_ah * 3600.0 * fleet.bus.v_bus_volt)
        out.append(unit_rows(*horizon_qp_matrices(
            h, s.p_min_w, s.p_max_w, s.ramp_limit_w_per_step, b.prev_power_w,
            kappa=kappa, soc0=b.soc, soc_min=s.soc_min, soc_max=s.soc_max)))
    return out


def _stacked_device_rows(fleet, h):
    """Every device's unit-norm rows over the stacked profiles, with one
    spare column (zero) for the LP's objective variable."""
    devices = device_rows(fleet, h)
    n = len(devices)
    blocks = np.zeros((sum(a.shape[0] for a, _ in devices), n * h + 1))
    r = 0
    for i, (a, _) in enumerate(devices):
        blocks[r:r + a.shape[0], i * h:(i + 1) * h] = a
        r += a.shape[0]
    return n, blocks, np.concatenate([b for _, b in devices])


def min_shortfall_w(fleet, p_f, unit: float = 1e6) -> float:
    """HiGHS LP: the least worst-step unmet demand max_k (p_f,k - sum_i x_ik)
    over every allocation that keeps each device within its limits."""
    from scipy.optimize import linprog

    p_f = np.asarray(p_f, dtype=float)
    h = p_f.size
    n, blocks, rhs = _stacked_device_rows(fleet, h)
    # sum_i x_ik + s >= p_f,k
    balance = np.hstack([-np.tile(np.eye(h), n), -np.ones((h, 1))])
    c = np.zeros(n * h + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.vstack([blocks, balance]),
                  b_ub=np.concatenate([rhs, -p_f]) / unit,
                  bounds=[(None, None)] * (n * h) + [(0.0, None)],
                  method="highs")
    assert res.status == 0, res.message
    return float(res.x[-1]) * unit


def min_max_residual_w(fleet, p_f, unit: float = 1e6) -> float:
    """HiGHS LP: the least worst-step balance residual
    max_k |sum_i x_ik - p_f,k| over every allocation that keeps each device
    within its limits."""
    from scipy.optimize import linprog

    p_f = np.asarray(p_f, dtype=float)
    h = p_f.size
    n, blocks, rhs = _stacked_device_rows(fleet, h)
    # -t <= sum_i x_ik - p_f,k <= t
    total = np.tile(np.eye(h), n)
    t = -np.ones((h, 1))
    c = np.zeros(n * h + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.vstack([blocks, np.hstack([total, t]),
                                     np.hstack([-total, t])]),
                  b_ub=np.concatenate([rhs, p_f, -p_f]) / unit,
                  bounds=[(None, None)] * (n * h) + [(0.0, None)],
                  method="highs")
    assert res.status == 0, res.message
    return float(res.x[-1]) * unit


def horizon_rhs(h, lower, upper, ramp_limit, prev_value, cumsum_coeff=0.0,
                cumsum_init=0.0, cumsum_lower=0.0, cumsum_upper=1.0, **_):
    """A `HorizonQp`'s row bounds built array by array from its arguments:
    (b, lo, hi) with b every right-hand side in `qp._row_matrix` order
    (box upper and lower with the ramp anchor folded into step 0, ramp up
    and down, then the upper and lower prefix-sum bounds), infinite ones
    included, and [lo, hi] the effective box."""
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), (h,)).copy()
              for v in (lower, upper))
    lo[0] = max(lo[0], prev_value - ramp_limit)
    hi[0] = min(hi[0], prev_value + ramp_limit)
    ramp = np.full(h - 1, ramp_limit)
    rhs = [hi, -lo, ramp, ramp]
    c = cumsum_coeff
    if c != 0.0:
        a = (cumsum_init - cumsum_upper) / c
        b = (cumsum_init - cumsum_lower) / c
        plo, phi = (a, b) if c > 0.0 else (b, a)
        rhs += [np.full(h, phi), -np.full(h, plo)]
    return np.concatenate(rhs), lo, hi


def reach_bounds(qps, p_f):
    """Lower bounds (deficit, excess) on every allocation's worst-step
    imbalance from the nodes' effective boxes and ramps alone, on arrays:
    a node's step-k power lies within [max_j (lo_j - (k-j) ramp),
    min_j (hi_j + (k-j) ramp)] over j <= k (`envelope_arrays`)."""
    steps = np.outer([p.ramp_limit for p in qps], np.arange(p_f.size))
    lo, hi = (np.array(v) for v in zip(*(p.effective_bounds() for p in qps)))
    lo, hi = envelope_arrays(lo, hi, steps)
    return (max(0.0, float((p_f - hi.sum(axis=0)).max())),
            max(0.0, float((lo.sum(axis=0) - p_f).max())))


def envelope_arrays(lo, hi, steps):
    """The reach envelope (los, his) of effective boxes [lo, hi] along
    their last axis, on arrays, by its definition: hi_k is the least of
    hi_j + (k-j)*ramp over j <= k (``steps`` holds k*ramp), and lo_k the
    greatest of lo_j - (k-j)*ramp. Step 0 is hi_0 + 0*ramp and
    lo_0 + 0*ramp, which take -0.0 to +0.0; a later step's own bound is
    taken as it is, and beats the earlier steps' only when strictly inside
    them."""
    his, los = [hi[..., 0] + steps[..., 0]], [lo[..., 0] + steps[..., 0]]
    for k in range(1, hi.shape[-1]):
        up = np.min([hi[..., j] + steps[..., k - j] for j in range(k)], axis=0)
        down = np.max([lo[..., j] - steps[..., k - j] for j in range(k)],
                      axis=0)
        his.append(np.where(hi[..., k] < up, hi[..., k], up))
        los.append(np.where(lo[..., k] > down, lo[..., k], down))
    return np.stack(los, axis=-1), np.stack(his, axis=-1)


def reach_envelope(qp):
    """A node's reach envelope (los, his) by its definition, step by step
    on Python floats, as `envelope_arrays` states it for the effective
    box: hi_k is the least of hi_j + (k-j)*ramp over j <= k, with j = k
    written hi_k for k >= 1 and tried last; lo_k likewise, with the
    greatest. For one box [lo, hi] after step 0 that is
    min(hi, hi_0 + k*ramp)."""
    lo, hi = qp.effective_bounds()
    ramp = qp.ramp_limit
    los, his = [lo[0] + ramp * 0], [hi[0] + ramp * 0]
    for k in range(1, qp.h):
        up = min(hi[j] + ramp * (k - j) for j in range(k))
        down = max(lo[j] - ramp * (k - j) for j in range(k))
        his.append(hi[k] if hi[k] < up else up)
        los.append(lo[k] if lo[k] > down else down)
    return los, his


def envelope_price(targets, weights, los, his, demand, steps: int = 200):
    """Per step, by bisection on the price: where the nodes' responses
    t_i - lambda/w_i, each clipped to its step's [lo_i, hi_i], sum to the
    demand. A demand beyond what the clipped sum can reach (when every
    node is bounded on that side) is moved to that limit, and the price is
    the one at which the sum leaves it.

    ``los``/``his`` hold one row per node and one column per step; entries
    may be infinite."""
    t, w = np.asarray(targets, dtype=float), np.asarray(weights, dtype=float)
    los, his = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
    price = []
    for k, d in enumerate(np.asarray(demand, dtype=float)):
        lo, hi = los[:, k], his[:, k]

        def clipped_sum(lam):
            return float(np.sum(np.clip(t - lam / w, lo, hi)))

        top, bottom = float(np.sum(hi)), float(np.sum(lo))
        # the demand at the top is met up to the largest such price, and
        # at the bottom from the least one on
        at_top, d = d >= top, min(max(d, bottom), top)
        left, right = -1.0, 1.0
        while clipped_sum(left) < d:
            left *= 2.0
        while clipped_sum(right) > d:
            right *= 2.0
        for _ in range(steps):
            mid = 0.5 * (left + right)
            if clipped_sum(mid) > d or (at_top and clipped_sum(mid) >= d):
                left = mid
            else:
                right = mid
        price.append(left if at_top else right)
    return np.array(price)


def centralized_policy(fleet, p_f, **_):
    """A stand-in for `shipems.sim.coordinate` that allocates by
    `centralized_solve` and reports it as a converged `CoordinationReport`
    (its price all zeros); battery results carry the SoC coefficient and
    the planned-from SoC, so their SoC trajectories can be read."""
    from shipems.coordinator import CoordinationReport, centralized_solve
    from shipems.nodes import NodeResult, soc_coeff
    from shipems.qp import OPTIMAL

    cen = centralized_solve(fleet, p_f)
    if cen.status != OPTIMAL:
        raise RuntimeError(f"centralized solve is {cen.status}")
    weights = fleet.weights()
    gen = [NodeResult(p, OPTIMAL, 1, w, g.spec.rated_power_w)
           for p, w, g in zip(cen.gen_profiles, weights, fleet.pgms)]
    batt = [NodeResult(p, OPTIMAL, 1, w, 0.0,
                       soc_coeff(b.spec, fleet.bus, fleet.td_s), b.soc)
            for p, w, b in zip(cen.batt_profiles, weights[len(gen):],
                               fleet.pcms)]
    return CoordinationReport(
        gen=gen, batt=batt, lambda_final=np.zeros(np.size(p_f)),
        converged=True, iterations_used=1,
        final_residual_w=cen.balance_residual_w, shortfall_w=0.0,
        residual_history=[cen.balance_residual_w], exit="balanced")
