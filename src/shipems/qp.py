"""Exact solver for diagonal-quadratic QPs over horizon polytopes.

Every device problem, and the monolithic fleet problem of the oracle, reads

    min 0.5 x'Dx + q'x   s.t.   A x <= b

with D diagonal and positive. Substituting x = x_u + D^(-1/2) z, where
x_u = -q/D is the unconstrained minimizer, turns it into a least-distance
program (LDP), min ||z|| s.t. G z >= h. Lawson & Hanson (Solving Least
Squares Problems, 1974, ch. 23) reduce an LDP to one nonnegative least
squares problem, min ||E u - e|| over u >= 0 with E = [G'; h'] and e the
last unit vector: the residual r = E u - e gives z = -r[:-1]/r[-1] when the
polytope is nonempty, and when the residual vanishes u is a Farkas
certificate that it is empty. One compiled `scipy.optimize.nnls` call
therefore solves the QP exactly or proves it infeasible, and both answers
are checked before they are returned.

Only h, the last row of E, depends on q: `Ldp` builds the scaled rows once
per constraint set and reuses them for every price. Rows are scaled to unit
norm; state-of-charge limits stay in power units (bounds on prefix sums of
power), never scaled by the tiny per-step SoC coefficient.

The unit rows, the first n rows of E and their scales depend only on the
Hessian and the row pattern of a horizon problem (h, which bounds are
finite, whether SoC rows exist), not on the bounds' values, the ramp anchor
or the state of charge. `HorizonQp.ldp` takes them from a bounded memo, so
a receding-horizon run builds them once per device and each MPC step only
computes its right-hand side.

Successive prices of a dual ascent mostly leave a node's active set S
unchanged. The solution on S is affine in the slack r = a_S x_u - b_S of
the unconstrained minimizer: multipliers mu = K_S r and x = x_u - P_S r,
with K_S = (a_S D^-1 a_S')^-1 and P_S = D^-1 a_S' K_S. The map depends
only on the rows and S, so `LdpRows` keeps the map of the last certified
solve over those rows, across prices and MPC steps. A solve first tries
that active set, as an online active-set method would (Ferreau, Bock &
Diehl, 2008), and calls `nnls` only when a KKT certificate with margins
rejects it. A solve through `nnls` takes the map of its active set,
unless a row outside that set is active at its point, where the map
could not pass; when the map passes, the solve returns the map's point,
so an answer depends only on the problem and the price, not on what was
solved before. `LdpRows` keeps the maps it has built in a small memo,
so an active set met again (the two levels of a pulsed load, the first
steps of every run) costs a lookup, not a new factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.optimize import nnls

OPTIMAL = "optimal"
MAX_ITER = "max_iter"
INFEASIBLE = "infeasible"
FEASIBLE = "feasible"

# (Hessian, row pattern) pairs whose `LdpRows` are kept; a fleet needs one
# per device, and criterion 1's 40 cross-check fleets about 140
LDP_ROWS_MEMO_SIZE = 256
# iteration cap of one `nnls` call; a solve that hits it is MAX_ITER
NNLS_MAX_ITER = 100_000
FLOAT_MAX = float(np.finfo(float).max)
# an active set whose KKT matrix a_S D^-1 a_S' is conditioned worse than
# this gets no map; its solves take the `nnls` point
ACTIVE_MAP_COND_MAX = 1e8
# active-set maps kept per `LdpRows`, oldest dropped first
ACTIVE_MAP_MEMO_SIZE = 16


class LdpRows:
    """The part of an LDP fixed by its rows ``a`` and Hessian diagonal ``d``:
    unit-norm rows, the scaling w = d^(-1/2), the row scales rho and the
    first n rows of E. Those arrays are read-only, so that LDPs may share
    them. ``hint`` is the active-set map (`active_map`) of the last certified
    solve over these rows, which the next solve tries first; ``maps`` keeps
    the maps built so far, so that an active set seen again costs no new
    factorization. Neither changes an answer. Devices that share rows but
    not an active set take turns replacing the hint, and their solves go
    to `nnls`."""

    def __init__(self, d, a):
        self.norms = np.linalg.norm(a, axis=1)
        self.d = np.array(d, dtype=float)
        self.neg_d = -self.d
        self.a = a / self.norms[:, None]
        self.w = 1.0 / np.sqrt(self.d)
        g = self.a * self.w  # the rows in z, where x = x_u + w*z
        self.rho = np.linalg.norm(g, axis=1)
        self.rho_max = float(self.rho.max(initial=0.0))
        n = self.d.size
        self.e = np.zeros((n + 1, self.a.shape[0]))
        self.e[:n] = -(g / self.rho[:, None]).T
        self.unit = np.zeros(n + 1)
        self.unit[n] = 1.0
        for arr in (self.norms, self.d, self.neg_d, self.a, self.w, self.rho,
                    self.e, self.unit):
            arr.flags.writeable = False
        self.hint = None
        self.maps = {}  # active-row flags (bytes) -> map, oldest first

    def active_map(self, active):
        """The affine solution map of the active row set flagged in
        ``active``: (S, the other rows, [K_S; P_S]) with
        K_S = (a_S D^-1 a_S')^-1 and P_S = D^-1 a_S' K_S, so that
        mu = K_S r and x = x_u - P_S r for the slack r = a_S x_u - b_S.
        None when S is empty or its KKT matrix is singular or conditioned
        worse than `ACTIVE_MAP_COND_MAX`. Built once per S while S stays
        among the last `ACTIVE_MAP_MEMO_SIZE` sets built."""
        key = active.tobytes()
        if key not in self.maps:
            if len(self.maps) >= ACTIVE_MAP_MEMO_SIZE:
                del self.maps[next(iter(self.maps))]
            self.maps[key] = self._factor(active)
        return self.maps[key]

    def _factor(self, active):
        rows = np.flatnonzero(active)
        if not rows.size:
            return None
        a_s = self.a[rows]
        ad = a_s / self.d  # a_S D^-1
        eig, vec = np.linalg.eigh(ad @ a_s.T)
        if not eig[0] > eig[-1] / ACTIVE_MAP_COND_MAX:
            return None
        k = (vec / eig) @ vec.T
        return rows, np.flatnonzero(~active), np.vstack([k, ad.T @ k])


class Ldp:
    """min 0.5 x'diag(d)x + q'x s.t. a x <= b over a fixed polytope, any q.

    ``rows`` holds ``a`` and ``d``; ``b`` is in the units of the rows it was
    built from. ``lo``/``hi`` bound every point of the polytope componentwise
    (entries may be infinite); an infeasibility certificate is checked over
    that box.
    """

    def __init__(self, rows: LdpRows, b, lo, hi):
        self.rows = rows
        self.d, self.a, self.w, self.rho = rows.d, rows.a, rows.w, rows.rho
        self.rho_max = rows.rho_max
        self.neg_d, self.unit = rows.neg_d, rows.unit
        self.b = b / rows.norms
        self.lo, self.hi = lo, hi
        self.e = rows.e.copy()  # its last row is rewritten by every solve

    def violation(self, x) -> float:
        """Largest violation of a unit-norm row at x (0 when feasible)."""
        return float((self.a @ x - self.b).max(initial=0.0))

    def solve(self, q, tol: float):
        """Returns (x, status, iterations, violation); x is None when
        infeasible.

        The point is accepted when every row holds to tol*max(1, ||x||inf);
        infeasibility only when the certificate shows that every point of
        the box violates some row by more than tol*max(1, ||box||inf).
        Anything else is MAX_ITER with the candidate point.

        Before `nnls`, the active set of the rows' last certified solve is
        tried (`_certified`); a solve whose `nnls` active set passes the
        same certificate returns that map's point, so the answer does not
        depend on which path found it.
        """
        xu = q / self.neg_d
        slack = self.a @ xu - self.b  # > 0 on the rows x_u violates
        top = slack.max(initial=0.0)
        if top <= 0.0:
            return xu, OPTIMAL, 0, 0.0
        # top > max(rho) makes s > 1 below, where the overflow guard
        # cannot fire
        if self.rows.hint is not None and top > self.rho_max:
            hit = self._certified(self.rows.hint, xu, slack, tol)
            if hit is not None:
                return hit[0], OPTIMAL, 1, hit[1]
        h = slack / self.rho
        s = float(h.max())  # scaled so the LDP solution has ||z|| >= 1
        # h/s overflows when x_u misses by a subnormal; never for s > 1,
        # where s * FLOAT_MAX is inf
        if s <= 1.0 and -float(h.min()) > s * FLOAT_MAX:
            return xu, OPTIMAL, 0, self.violation(xu)
        self.e[-1] = h / s
        try:
            u, _ = nnls(self.e, self.unit, maxiter=NNLS_MAX_ITER)
        except RuntimeError:  # iteration cap
            x = np.clip(xu, self.lo, self.hi)
            return x, MAX_ITER, NNLS_MAX_ITER, self.violation(x)
        r = self.e @ u - self.unit
        if r[-1] < 0.0:
            x = xu - (s / r[-1]) * self.w * r[:-1]
            v = self.a @ x - self.b
            t = tol * max(1.0, float(abs(x).max()))
            active = u > 0.0
            # a row outside the passive set within t/2 of active at x is
            # not slack beyond t at the map's point (x up to rounding), so
            # the map would fail its certificate: build none. The fleet
            # oracle's twin balance rows always take this exit.
            if not (v[~active] > -0.5 * t).any():
                amap = self.rows.active_map(active)
                hit = None if amap is None else self._certified(amap, xu,
                                                                slack, tol)
                if hit is not None:
                    self.rows.hint = amap
                    return hit[0], OPTIMAL, 1, hit[1]
            viol = float(v.max(initial=0.0))
            if viol <= t:
                return x, OPTIMAL, 1, viol
        else:
            x = np.clip(xu, self.lo, self.hi)
            viol = self.violation(x)
        if self._certifies_empty(u / self.rho, tol):
            return None, INFEASIBLE, 1, np.inf
        return x, MAX_ITER, 1, viol

    def _certified(self, amap, xu, slack, tol: float):
        """(x, violation) of the active set S of ``amap`` when a KKT
        certificate with margins proves x optimal, else None. With
        t = tol*max(1, ||x||inf): every row of S holds as an equality to t,
        every other row holds with slack beyond t, and every multiplier
        exceeds tol times the largest. Then S is the active set of the
        unique minimizer, well clear of any other set; a point with rows
        active to within t, whose active set is degenerate, fails for every
        S and is left to `nnls`."""
        rows, off, kp = amap
        y = kp @ slack[rows]  # mu, then P_S r
        mu = y[:rows.size]
        if not mu.min() > tol * mu.max():
            return None
        x = xu - y[rows.size:]
        v = self.a @ x - self.b
        t = tol * max(1.0, float(abs(x).max()))
        if off.size and not v[off].max() < -t:
            return None
        v_s = v[rows]
        top = float(v_s.max())
        if not (-t <= float(v_s.min()) and top <= t):
            return None
        return x, max(top, 0.0)  # the rows outside S hold

    def _certifies_empty(self, y, tol: float) -> bool:
        """Farkas test: y >= 0 weighs the unit rows so that y'(a x - b)
        exceeds tol*x_scale*sum(y) at every x of the box, where x_scale is
        the largest finite box bound (at least 1)."""
        c = self.a.T @ y
        with np.errstate(invalid="ignore"):
            low = np.where(c > 0.0, c * self.lo, np.where(c < 0.0, c * self.hi,
                                                         0.0))
        bounds = np.abs(np.concatenate([self.lo, self.hi]))
        x_scale = max(1.0, float(np.max(bounds[np.isfinite(bounds)],
                                        initial=0.0)))
        return float(np.sum(low) - self.b @ y) > tol * x_scale * float(np.sum(y))


@dataclass(eq=False)
class HorizonQp:
    """The Hessian and constraint set of one horizon QP at one state; the
    linear term is an argument of `solve`, so one instance serves every
    price.

    ``lower``/``upper``/``quad_diag`` accept scalars and are broadcast to
    length ``h``. ``cumsum_coeff`` = 0 disables the
    cumulative-sum constraints; otherwise they read
    cumsum_lower <= cumsum_init - cumsum_coeff * sum_{j<=k} x_j <= cumsum_upper
    for every k.
    """

    h: int
    quad_diag: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    ramp_limit: float
    prev_value: float
    cumsum_coeff: float = 0.0
    cumsum_init: float = 0.0
    cumsum_lower: float = 0.0
    cumsum_upper: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.h, (int, np.integer)) and self.h >= 1):
            raise ValueError(f"h must be a positive integer, got {self.h}")
        self.h = int(self.h)
        d, lo, hi = self.quad_diag, self.lower, self.upper
        # the node builders pass scalars: checked once, then expanded
        scalar = all(isinstance(v, float) for v in (d, lo, hi))
        if scalar:
            positive, finite, crossed = d > 0.0, math.isfinite(d), lo > hi
        else:
            d, lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), (self.h,))
                         for v in (d, lo, hi))
            positive, finite = np.all(d > 0.0), np.all(np.isfinite(d))
            crossed = np.any(lo > hi)
        if not positive:
            raise ValueError("quad_diag must be strictly positive componentwise")
        if not finite:
            raise ValueError("quad_diag must be finite")
        if crossed:
            raise ValueError("lower must be <= upper componentwise")
        self.quad_diag, self.lower, self.upper = (
            (np.full(self.h, v) if scalar else v.copy()) for v in (d, lo, hi))
        self.ramp_limit = float(self.ramp_limit)
        self.prev_value = float(self.prev_value)
        self.cumsum_coeff = float(self.cumsum_coeff)
        if not self.ramp_limit > 0.0:
            raise ValueError(f"ramp_limit must be > 0, got {self.ramp_limit}")
        if not math.isfinite(self.prev_value):
            raise ValueError("prev_value must be finite")
        if self.cumsum_coeff != 0.0:
            if not (self.cumsum_lower <= self.cumsum_init <= self.cumsum_upper):
                raise ValueError(
                    "require cumsum_lower <= cumsum_init <= cumsum_upper, got "
                    f"{self.cumsum_lower}, {self.cumsum_init}, {self.cumsum_upper}"
                )

    def effective_box(self):
        """Box bounds with the k=0 ramp anchor folded into the first step."""
        lo = self.lower.copy()
        hi = self.upper.copy()
        lo[0] = max(lo[0], self.prev_value - self.ramp_limit)
        hi[0] = min(hi[0], self.prev_value + self.ramp_limit)
        return lo, hi

    def prefix_bounds(self):
        """Bounds on prefix sums s_k = sum_{j<=k} x_j implied by the cumsum
        constraints, or (None, None) when disabled."""
        c = self.cumsum_coeff
        if c == 0.0:
            return None, None
        a = (self.cumsum_init - self.cumsum_upper) / c
        b = (self.cumsum_init - self.cumsum_lower) / c
        lo, hi = (a, b) if c > 0.0 else (b, a)
        return np.full(self.h, lo), np.full(self.h, hi)

    def objective(self, x: np.ndarray, lin: np.ndarray) -> float:
        """0.5 x'Dx + lin'x for a linear term ``lin`` of length h."""
        x = np.asarray(x, dtype=float)
        lin = np.asarray(lin, dtype=float)
        return 0.5 * float(x @ (self.quad_diag * x)) + float(lin @ x)

    def violation(self, x: np.ndarray) -> float:
        """Largest constraint violation of x (0 when feasible)."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.effective_box()
        v = max(float(np.max(lo - x, initial=0.0)), float(np.max(x - hi, initial=0.0)))
        d = np.diff(x)
        if d.size:
            v = max(v, float(np.max(np.abs(d))) - self.ramp_limit)
        plo, phi = self.prefix_bounds()
        if plo is not None:
            s = np.cumsum(x)
            v = max(v, float(np.max(plo - s)), float(np.max(s - phi)))
        return max(v, 0.0)

    def _rhs(self, lo, hi):
        """Right-hand sides of every row of `_row_matrix`, infinite ones
        included."""
        ramp = np.full(self.h - 1, self.ramp_limit)
        rhs = [hi, -lo, ramp, ramp]
        plo, phi = self.prefix_bounds()
        if plo is not None:
            rhs += [phi, -plo]
        return np.concatenate(rhs)

    def constraint_rows(self):
        """All inequalities as (A, b), A x <= b: box (anchor folded), ramp,
        and prefix-sum rows in power units; rows with an infinite bound are
        dropped."""
        b = self._rhs(*self.effective_box())
        keep = np.isfinite(b)
        return _row_matrix(self.h, self.cumsum_coeff != 0.0)[keep], b[keep]

    @cached_property
    def ldp(self) -> Ldp:
        """The LDP form of this constraint set and Hessian, built once; its
        rows come from the memo of `_ldp_rows`."""
        lo, hi = self.effective_box()
        b = self._rhs(lo, hi)
        keep = np.isfinite(b)
        rows = _ldp_rows(self.quad_diag.tobytes(), self.h,
                         self.cumsum_coeff != 0.0, keep.tobytes())
        return Ldp(rows, b[keep], lo, hi)


def _row_matrix(h: int, prefix: bool) -> np.ndarray:
    """Every row of a horizon problem, as `HorizonQp._rhs` orders them: box
    upper and lower, ramp up and down, then (with ``prefix``) the upper and
    lower prefix-sum rows."""
    eye = np.eye(h)
    diff = eye[1:] - eye[:-1]
    rows = [eye, -eye, diff, -diff]
    if prefix:
        tri = np.tril(np.ones((h, h)))
        rows += [tri, -tri]
    return np.vstack(rows)


@lru_cache(maxsize=LDP_ROWS_MEMO_SIZE)
def _ldp_rows(quad_diag: bytes, h: int, prefix: bool, keep: bytes) -> LdpRows:
    """`LdpRows` of a horizon problem with Hessian diagonal ``quad_diag``
    whose rows of `_row_matrix` are the ones flagged in ``keep``."""
    keep = np.frombuffer(keep, dtype=bool)
    return LdpRows(np.frombuffer(quad_diag), _row_matrix(h, prefix)[keep])


@dataclass(slots=True)
class QpSolution:
    """One solve's point and status. ``objective`` is evaluated when read,
    from ``problem`` and the linear term ``lin`` it was solved with (inf
    when infeasible), so a caller that needs only the point does not pay
    for it. ``lin`` is held, not copied."""

    profile: np.ndarray
    iterations: int  # 0 for the unconstrained shortcut, 1 for an LDP solve
    primal_residual: float  # max constraint violation of profile
    status: str
    fixed_point_residual: float
    problem: HorizonQp
    lin: np.ndarray

    @property
    def objective(self) -> float:
        if self.status == INFEASIBLE:
            return np.inf
        return self.problem.objective(self.profile, self.lin)


def feasibility_check(qp: HorizonQp) -> str:
    """Decide emptiness of the constraint polytope: FEASIBLE once a feasible
    point is found, INFEASIBLE on a verified certificate, MAX_ITER if
    neither came out of the solve."""
    status = solve(qp, 0.0).status
    return FEASIBLE if status == OPTIMAL else status


def solve(qp: HorizonQp, lin, tol: float = 1e-8) -> QpSolution:
    """Minimize 0.5 x'Dx + lin'x over the constraint set of ``qp`` exactly;
    see the module docstring for the method. ``lin`` may be a scalar.

    ``status`` is "infeasible" when the polytope is certified empty
    (profile all zeros, objective inf), "max_iter" when `nnls` hit
    `NNLS_MAX_ITER` or its point could not be verified (the best point is
    returned), "optimal" otherwise. ``tol`` is the accepted constraint
    violation relative to max(1, ||x||inf).
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    lin = np.asarray(lin, dtype=float)
    if lin.ndim == 0:
        lin = np.full(qp.h, lin)
    if not np.isfinite(lin).all():
        raise ValueError("lin must be finite")
    x, status, iters, viol = qp.ldp.solve(lin, tol)
    if status == INFEASIBLE:
        return QpSolution(np.zeros(qp.h), iters, viol, INFEASIBLE, np.nan,
                          qp, lin)
    return QpSolution(x, iters, viol, status,
                      0.0 if status == OPTIMAL else np.nan, qp, lin)
