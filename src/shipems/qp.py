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

A device has one power box [lo, hi] and one finite ramp limit, the same at
every step, and within a receding-horizon run they and its Hessian stay
fixed; only its ramp anchor (the last setpoint) and its state of charge
change. The QP's matrices are then fixed and the state moves only its
right-hand side, the parametric view of Ferreau, Bock & Diehl (2008). So
a device has one kernel: its `_FixedPart` (from `_fixed_part`, a bounded
memo keyed on h, the scalar weight and box, the ramp limit and which
prefix-sum rows are kept) fixes, once,
- which rows are kept: both step-0 box rows, the finite sides of the box
  after step 0, every ramp row, and each prefix-sum row whose SoC bound is
  finite (which bound that is follows from the sign of the SoC
  coefficient);
- the `LdpRows` of those rows (`_ldp_rows`, keyed on the Hessian and the
  kept rows; devices that share them share their active-set maps);
- the kept right-hand sides that no state moves, divided by the row
  norms, and the slots of the rows that the state sets: the step-0 upper
  and lower rows and the prefix-sum rows.
A state whose step-0 bound or kept SoC bound is not finite (an overflow)
is rejected. `HorizonQp` builds an MPC step's problem in one pass: the
step-0 bounds with the ramp anchor folded in, the two prefix-sum bounds,
the reach envelope, and the kernel `Ldp`, a copy of the fixed right-hand
side with the state rows written in, over the fixed part's rows. Its box
is the envelope, made into arrays when a solve first reads it, and its
copy of E is made when its `nnls` path first needs one.

The box of a node's kernel is its reach envelope (`HorizonQp.envelope`):
per step k, the bounds that the box and the ramp from the step-0 bounds
put on it together, hi_k = min(hi, hi_0 + k*ramp) and
lo_k = max(lo, lo_0 - k*ramp), which hold the polytope up to the rounding
of hi_0 + k*ramp, far inside the kernel's tolerance. The objective is
separable, so clip(x_u, lo, hi) minimizes it over that box; when that
point holds every row, it is the optimum over the polytope. A solve
tries it right after x_u itself, before any map (exit "clip"), so its
answer depends only on the problem, the price and the tolerance. At the
envelope price that `coordinate` starts from, most node solves end
there, among them a generator that ramps at its limit onto its box, an
optimum with more active rows than steps, whose K_S is singular, so
that no map certifies it. A clipped point that misses a row, as when a
ramp or SoC row binds between interior points, leaves the solve to the
maps and `nnls`.

Successive prices of a dual ascent mostly leave a node's active set S
unchanged. The solution on S is affine in the slack r = a_S x_u - b_S of
the unconstrained minimizer: multipliers mu = K_S r and x = x_u - P_S r,
with K_S = (a_S D^-1 a_S')^-1 and P_S = D^-1 a_S' K_S. The map depends
only on the rows and S, so `LdpRows.maps` keeps, across prices and MPC
steps, the maps whose sets have proven optimal over those rows, ordered by
when each last did; it is the kernel's one warm state. A solve tries them
newest first, as an online active-set method re-uses known active sets
(Ferreau, Bock & Diehl, 2008), and calls `nnls` only when a KKT
certificate with margins rejects them all. The certificate takes as S every row active
within a margin t at the map's point; a row of S may be weakly active,
with a zero multiplier, as when a generator ramps at its limit onto a box
bound. A solve through `nnls` factors the map of its passive set and the
rows within t/2 of active at its point, unless the memo holds that set
(which has then just failed at this price), and returns the map's point,
keeping the map, when it passes. At most one set passes for a problem, so
an answer depends only on the problem and the price, not on what was
solved before. An active set met again (the two levels of a pulsed load,
the first steps of every run) costs a lookup, not a new factorization.
`EXITS` counts how the solves ended.

The oracle's fleet problem stacks its nodes' kernels: their rows, their
right-hand sides, and the h balance equalities as trailing rows of its
`LdpRows` (``n_eq``): h rows, then their negations, which the
`nnls` reduction needs. Every active set holds the equality rows and none
of their negations, so K_S stays regular; the certificate holds both
sides to the margin and leaves the sign of an equality's multiplier free
(a demand above what the nodes want makes it negative). So the oracle's
solves certify and keep maps as node solves do, and a fleet of the same
shape (every case of `verify`, a fleet solved again) is answered from a
kept map. A balance that depends linearly on active bounds (demand at the
fleet's maximum) has a singular K_S and keeps no map; its solve returns
the `nnls` point. Node rows have no equality rows.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

import numpy as np
from scipy.optimize import nnls

OPTIMAL = "optimal"
MAX_ITER = "max_iter"
INFEASIBLE = "infeasible"
FEASIBLE = "feasible"

# (Hessian, row pattern) pairs whose `LdpRows` are kept; a fleet needs one
# per device, and criterion 1's 40 cross-check fleets about 140. The
# oracle's memo of stacked fleet rows (`coordinator._fleet_rows`) keeps as
# many fleet shapes.
LDP_ROWS_MEMO_SIZE = 256
# (h, weight, lower, upper, ramp limit, which prefix-sum rows are kept) of
# `HorizonQp`s with a scalar weight whose `_FixedPart` is kept; a fleet
# needs one per device
FIXED_PART_MEMO_SIZE = 256
# the types of the weight and box that `HorizonQp` takes without numpy
_SCALAR = (float, int)
# iteration cap of one `nnls` call; a solve that hits it is MAX_ITER
NNLS_MAX_ITER = 100_000
FLOAT_MAX = float(np.finfo(float).max)
# an active set whose KKT matrix a_S D^-1 a_S' is conditioned worse than
# this gets no map; its solves take the `nnls` point
ACTIVE_MAP_COND_MAX = 1e8
# active-set maps kept per `LdpRows`; the one that certified least
# recently is dropped first
ACTIVE_MAP_MEMO_SIZE = 16
# unit rows whose dot product is below this are a row and its negation; a
# set holding both (an equality written as two inequality rows rather than
# as `LdpRows.n_eq` equality rows) gets no map
TWIN_DOT = -1.0 + 1e-9
# `Ldp.solve` exits over the process: "shortcut" (x_u is the answer),
# "clip" (x_u clipped to the box is), "hint" (the newest map of the memo),
# "memo" (an older one), "nnls", "max_iter" and "infeasible"
EXITS = Counter()


class _once:
    """A method's value, computed on its first read and then stored on the
    instance, where later reads find it: `functools.cached_property`
    without the lock that it takes on Python 3.11, which cost a read about
    2 us (2 CPUs, x86-64)."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class LdpRows:
    """The part of an LDP fixed by its rows ``a`` and Hessian diagonal ``d``:
    unit-norm rows, the scaling w = d^(-1/2), the row scales rho and the
    first n rows of E. Those arrays are read-only, so that LDPs may share
    them. ``maps`` is the memo of active-set maps (`active_map`) that have
    certified a solve over these rows, keyed by their active-row flags and
    ordered by when each last certified, newest last. A solve tries them
    newest first, so that an active set seen again costs neither `nnls`
    nor a new factorization; the memo never changes an answer. Devices
    that share rows but not an active set find each other's maps in it.

    The last 2 ``n_eq`` rows are equalities, written as ``n_eq`` rows
    followed by their negations (the fleet's balance); node rows have
    none. Every active set holds the equality rows and none of their
    negations, and their multipliers take either sign."""

    def __init__(self, d, a, n_eq: int = 0):
        self.n_eq = n_eq
        # the row norms, as `np.linalg.norm(a, axis=1)` takes them
        norms = self.norms = np.sqrt(np.add.reduce(a * a, axis=1))
        d = self.d = np.array(d, dtype=float)
        self.neg_d = -d
        a = self.a = a / norms[:, None]
        self.w = 1.0 / np.sqrt(d)
        g = a * self.w  # the rows in z, where x = x_u + w*z
        rho = self.rho = np.sqrt(np.add.reduce(g * g, axis=1))
        self.rho_max = float(rho.max(initial=0.0))
        n = d.size
        e = self.e = np.zeros((n + 1, a.shape[0]))
        e[:n] = -(g / rho[:, None]).T
        self.unit = np.zeros(n + 1)
        self.unit[n] = 1.0
        for arr in (norms, d, self.neg_d, a, self.w, rho, e, self.unit):
            arr.flags.writeable = False
        self.maps = {}

    def keep(self, key, amap):
        """Make ``amap``, which has just certified a solve, the newest map
        of the memo under ``key``; a full memo drops its oldest."""
        maps = self.maps
        if maps.pop(key, None) is None and len(maps) >= ACTIVE_MAP_MEMO_SIZE:
            del maps[next(iter(maps))]
        maps[key] = amap

    def active_map(self, active):
        """The affine solution map of the active row set flagged in
        ``active``, which flags the equality rows and none of their
        negations: (S, the other rows but those negations, [K_S; P_S], the
        diagonal of K_S over the inequality rows of S as floats, the rows
        held to the margin: S and the negations) with
        K_S = (a_S D^-1 a_S')^-1 and P_S = D^-1 a_S' K_S, so that
        mu = K_S r and x = x_u - P_S r for the slack r = a_S x_u - b_S.
        None when S is empty or its KKT matrix is singular or conditioned
        worse than `ACTIVE_MAP_COND_MAX`."""
        rows = np.flatnonzero(active)
        if not rows.size:
            return None
        a_s = self.a[rows]
        ad = a_s / self.d  # a_S D^-1
        eig, vec = np.linalg.eigh(ad @ a_s.T)
        if not eig[0] > eig[-1] / ACTIVE_MAP_COND_MAX:
            return None
        k = (vec / eig) @ vec.T
        # the equality rows are the last of S, their negations the last rows
        n_eq, n_rows = self.n_eq, active.size - self.n_eq
        held = rows if not n_eq else np.concatenate(
            [rows, np.arange(n_rows, active.size)])
        return (rows, np.flatnonzero(~active[:n_rows]),
                np.vstack([k, ad.T @ k]),
                k.diagonal()[:rows.size - n_eq].tolist(), held)


class Ldp:
    """min 0.5 x'diag(d)x + q'x s.t. a x <= b over a fixed polytope, any q.

    ``rows`` holds ``a`` and ``d``; ``b`` is an array divided by
    ``rows.norms``, in the units of the unit rows. ``lo``/``hi`` bound
    every point of the polytope componentwise (entries may be infinite):
    the clip exit minimizes over that box, and an infeasibility
    certificate is checked over it. ``lo`` and ``hi`` may be arrays or
    lists of floats; the box becomes arrays (`box`) when first read, which
    a solve that x_u does not answer does.
    """

    def __init__(self, rows: LdpRows, b: np.ndarray, lo, hi):
        self.rows, self.a, self.neg_d = rows, rows.a, rows.neg_d
        self.b, self._lo, self._hi = b, lo, hi

    @_once
    def box(self):
        """The box (lo, hi) as two arrays, made when first read."""
        return (np.asarray(self._lo, dtype=float),
                np.asarray(self._hi, dtype=float))

    @_once
    def e(self) -> np.ndarray:
        """This LDP's own copy of E, made by its first `nnls` solve, which
        rewrites its last row at every call."""
        return self.rows.e.copy()

    def violation(self, x) -> float:
        """Largest violation of a unit-norm row at x (0 when feasible)."""
        v = self.a.dot(x)
        v -= self.b
        return float(np.maximum.reduce(v, initial=0.0))

    def solve(self, q, tol: float):
        """Returns (x, status, iterations, violation); x is None when
        infeasible.

        The point is accepted when every row holds to tol*max(1, ||x||inf);
        infeasibility only when the certificate shows that every point of
        the box violates some row by more than tol*max(1, ||box||inf).
        Anything else is MAX_ITER with the candidate point.

        After x_u itself, a kernel without equality rows tries the clip of
        x_u to the box (`_clipped`). Then, before `nnls`, the maps of the
        rows' memo are tried newest first (`_continued`); a solve whose
        `nnls` point has a set that passes the same certificate returns
        that map's point and keeps the map, so the answer does not depend
        on which path found it. Each exit is counted in `EXITS`.
        """
        xu = q / self.neg_d
        slack = self.a.dot(xu)
        slack -= self.b  # > 0 on the rows x_u violates
        values = slack.tolist()
        top = max(values, default=0.0)
        # the built-in max skips a NaN that is not first; numpy's, and so
        # this one, propagates it (a NaN sum also comes from +inf and -inf)
        total = sum(values)
        if total != total and any(map(math.isnan, values)):
            top = math.nan
        if top <= 0.0:
            EXITS["shortcut"] += 1
            return xu, OPTIMAL, 0, 0.0
        # top > max(rho) makes s > 1 below, where the overflow exit cannot
        # fire; otherwise that exit's own test comes first
        rows = self.rows
        far = top > rows.rho_max
        if far:
            hit = self._clipped(xu, tol) or self._continued(xu, slack, tol)
            if hit is not None:
                return hit
        h = slack / rows.rho
        s = float(h.max())  # scaled so the LDP solution has ||z|| >= 1
        # h/s overflows when x_u misses by a subnormal; never for s > 1,
        # where s * FLOAT_MAX is inf
        if s <= 1.0 and -float(h.min()) > s * FLOAT_MAX:
            EXITS["shortcut"] += 1
            return xu, OPTIMAL, 0, self.violation(xu)
        if not far:
            hit = self._clipped(xu, tol) or self._continued(xu, slack, tol)
            if hit is not None:
                return hit
        e = self.e
        e[-1] = h / s
        try:
            u, _ = nnls(e, rows.unit, maxiter=NNLS_MAX_ITER)
        except RuntimeError:  # iteration cap
            EXITS[MAX_ITER] += 1
            x = np.clip(xu, *self.box)
            return x, MAX_ITER, NNLS_MAX_ITER, self.violation(x)
        r = e.dot(u) - rows.unit
        if r[-1] < 0.0:
            x = xu - (s / r[-1]) * rows.w * r[:-1]
            v = self.a.dot(x)
            v -= self.b
            t = tol * max(1.0, float(abs(x).max()))
            # the passive set and the rows within t/2 of active at x: the
            # set that passes the certificate, if any does
            near = (u > 0.0) | (v > -0.5 * t)
            n_eq = rows.n_eq
            if n_eq:  # every set holds the equalities, not their negations
                near[-2 * n_eq:-n_eq] = True
                near[-n_eq:] = False
            key = near.tobytes()
            a_s = self.a[near]
            # a set in the memo has just failed at this price; a row and
            # its negation (an equality written as two inequality rows)
            # make K_S singular: no map
            if key not in rows.maps \
                    and (a_s @ a_s.T).min(initial=0.0) > TWIN_DOT:
                amap = rows.active_map(near)
                hit = None if amap is None else self._certified(amap, xu,
                                                                slack, tol)
                if hit is not None:
                    rows.keep(key, amap)
                    EXITS["nnls"] += 1
                    return hit[0], OPTIMAL, 1, hit[1]
            viol = float(v.max(initial=0.0))
            if viol <= t:
                EXITS["nnls"] += 1
                return x, OPTIMAL, 1, viol
        else:
            x = np.clip(xu, *self.box)
            viol = self.violation(x)
        if self._certifies_empty(u / rows.rho, tol):
            EXITS[INFEASIBLE] += 1
            return None, INFEASIBLE, 1, np.inf
        EXITS[MAX_ITER] += 1
        return x, MAX_ITER, 1, viol

    def _clipped(self, xu, tol: float):
        """The solve's return for x = clip(x_u, lo, hi) over the box when
        the rows hold no equality rows and x holds every row to
        t = tol*max(1, ||x||inf), else None; counted as "clip". The
        objective is separable, so x minimizes it over the box, which
        contains the polytope: when x holds every row, it is the optimum.
        The reductions run on Python floats; a NaN anywhere rejects."""
        if self.rows.n_eq:
            return None
        lo, hi = self.box
        x = np.minimum(np.maximum(xu, lo), hi)
        xl = x.tolist()
        v = self.a.dot(x)
        v -= self.b
        vl = v.tolist()
        top = max(vl)
        if not top <= tol * max(1.0, max(xl), -min(xl)):
            return None
        total = sum(xl) + sum(vl)
        # a NaN sum also comes from +inf and -inf without any NaN
        if total != total and any(map(math.isnan, xl + vl)):
            return None
        EXITS["clip"] += 1
        return x, OPTIMAL, 1, max(top, 0.0)

    def _continued(self, xu, slack, tol: float):
        """The solve's return when a map of the rows' memo, tried newest
        first, passes `_certified`, else None. A pass by the newest map
        counts as "hint"; an older map that passes counts as "memo" and
        becomes the newest."""
        for i, (key, amap) in enumerate(reversed(self.rows.maps.items())):
            hit = self._certified(amap, xu, slack, tol)
            if hit is not None:
                if i:
                    self.rows.keep(key, amap)
                EXITS["memo" if i else "hint"] += 1
                return hit[0], OPTIMAL, 1, hit[1]
        return None

    def _certified(self, amap, xu, slack, tol: float):
        """(x, violation) of the active set S of ``amap`` when a KKT
        certificate with margins proves x optimal, else None. With
        t = tol*max(1, ||x||inf): S is every row active within t at x (the
        rows of S and the negations of its equality rows hold as
        equalities to t, every other row holds with slack beyond t), and
        every multiplier of an inequality row is at least -tol times the
        largest; an equality row's multiplier takes either sign. An
        inequality row of S with a negative multiplier must moreover be
        within t/2 of active at the point of S without it, where its slack
        is mu_i/[K_S]_ii; otherwise a row whose slack at the optimum lies
        just beyond t could be forced active by a second set that passes
        too. So a weakly active row (active, with a zero multiplier, as
        when a generator ramps at its limit onto a box bound) certifies,
        and at most one S passes for a problem.

        The reductions run on Python floats; a NaN anywhere rejects, as it
        does in numpy's, whose min and max propagate it."""
        rows, off, kp, k_diag, held = amap
        m = rows.size
        y = kp.dot(slack[rows])  # mu, then P_S r
        # the inequality rows' multipliers (the equality rows come last),
        # or a zero when S holds none
        mu = y.tolist()[:len(k_diag)] or [0.0]
        mu_min = min(mu)
        if not mu_min >= -tol * max(mu):
            return None
        x = xu - y[m:]
        xl = x.tolist()
        t = tol * max(1.0, max(xl), -min(xl))
        v = self.a.dot(x)
        v -= self.b
        v_off = v[off].tolist()
        if v_off and not max(v_off) < -t:
            return None
        v_s = v[held].tolist()
        top = max(v_s)
        if not (-t <= min(v_s) and top <= t):
            return None
        if mu_min < 0.0 and not all(m >= -0.5 * t * k
                                    for m, k in zip(mu, k_diag)):
            return None
        total = sum(mu) + sum(xl) + sum(v_off) + sum(v_s)
        # a NaN sum also comes from +inf and -inf without any NaN
        if total != total and any(map(math.isnan, mu + xl + v_off + v_s)):
            return None
        return x, max(top, 0.0)  # the rows outside S hold

    def _certifies_empty(self, y, tol: float) -> bool:
        """Farkas test: y >= 0 weighs the unit rows so that y'(a x - b)
        exceeds tol*x_scale*sum(y) at every x of the box, where x_scale is
        the largest finite box bound (at least 1)."""
        c = self.a.T.dot(y)
        lo, hi = self.box
        with np.errstate(invalid="ignore"):
            low = np.where(c > 0.0, c * lo, np.where(c < 0.0, c * hi, 0.0))
        bounds = np.abs(np.concatenate([lo, hi]))
        x_scale = max(1.0, float(np.max(bounds[np.isfinite(bounds)],
                                        initial=0.0)))
        return float(np.sum(low) - self.b.dot(y)) > tol * x_scale * float(np.sum(y))


@dataclass(eq=False, init=False)
class HorizonQp:
    """The Hessian and constraint set of one horizon QP at one state; the
    linear term is an argument of `solve`, so one instance serves every
    price.

    ``lower`` and ``upper`` bound every step and are scalars, as is
    ``ramp_limit``, which must be finite and > 0: a device has one box and
    one ramp limit. ``quad_diag`` is a scalar or one entry per step, and is
    held as a read-only length-``h`` array, which problems with the same
    scalar weight share. ``cumsum_coeff`` = 0 disables the cumulative-sum
    constraints; otherwise they read
    cumsum_lower <= cumsum_init - cumsum_coeff * sum_{j<=k} x_j <= cumsum_upper
    for every k.

    Which rows are kept is the device's (`_FixedPart`). The state
    (``prev_value``, ``cumsum_init``) sets the right-hand sides of the
    step-0 box rows, with the ramp anchor folded in, and of the prefix-sum
    rows; each of those that is kept must be finite. Construction builds,
    in one pass, the reach ``envelope`` and the kernel ``ldp``. The fields
    are not to be changed afterwards.
    """

    h: int
    quad_diag: np.ndarray
    lower: float
    upper: float
    ramp_limit: float
    prev_value: float
    cumsum_coeff: float = 0.0
    cumsum_init: float = 0.0
    cumsum_lower: float = 0.0
    cumsum_upper: float = 1.0

    def __init__(self, h, quad_diag, lower, upper, ramp_limit, prev_value,
                 cumsum_coeff=0.0, cumsum_init=0.0, cumsum_lower=0.0,
                 cumsum_upper=1.0):
        if not (isinstance(h, (int, np.integer)) and h >= 1):
            raise ValueError(f"h must be a positive integer, got {h}")
        h = self.h = int(h)
        ramp = self.ramp_limit = float(ramp_limit)
        prev = self.prev_value = float(prev_value)
        c = self.cumsum_coeff = float(cumsum_coeff)
        self.cumsum_init, self.cumsum_lower, self.cumsum_upper = (
            cumsum_init, cumsum_lower, cumsum_upper)
        prefix = None
        if c != 0.0:
            # s_k lies between (cumsum_init - cumsum_upper)/c and
            # (cumsum_init - cumsum_lower)/c, the upper bound by the latter
            # when c > 0; a prefix-sum row is kept where its SoC bound is
            # finite
            low, up = math.isfinite(cumsum_lower), math.isfinite(cumsum_upper)
            prefix = (low, up) if c > 0.0 else (up, low)
        d, lo, hi = quad_diag, lower, upper
        # the node builders pass scalars (ints too, as a config file may
        # hold them): their fixed part is checked and built once per
        # device; anything else is checked and converted every time
        if isinstance(d, _SCALAR) and isinstance(lo, _SCALAR) \
                and isinstance(hi, _SCALAR):
            # the sign bits keep 0.0 and -0.0 apart, which compare equal
            fixed = _fixed_part(h, d, lo, hi, ramp, prefix,
                                math.copysign(1.0, lo), math.copysign(1.0, hi))
        else:
            for name, v in (("lower", lo), ("upper", hi)):
                if np.ndim(v):
                    raise ValueError(f"{name} must be a scalar, the bound of "
                                     f"every step; got shape {np.shape(v)}")
            d = np.broadcast_to(np.asarray(d, dtype=float), (h,)).tolist()
            fixed = _FixedPart(h, d, float(lo), float(hi), ramp, prefix)
        self._fixed = fixed
        self.quad_diag, self.lower, self.upper = (fixed.quad_diag, fixed.lower,
                                                  fixed.upper)
        if not math.isfinite(prev):
            raise ValueError("prev_value must be finite")
        if not math.isfinite(c):
            raise ValueError("cumsum_coeff must be finite")
        hi0 = self._hi0 = min(fixed.upper, prev + ramp)
        lo0 = self._lo0 = max(fixed.lower, prev - ramp)
        if not (math.isfinite(hi0) and math.isfinite(lo0)):
            raise ValueError(
                "prev_value: the step-0 bounds max(lower, prev_value - "
                "ramp_limit) and min(upper, prev_value + ramp_limit) must "
                f"be finite, got {lo0} and {hi0}")
        b = fixed.base.copy()
        b[0] = hi0 / fixed.norm0
        b[fixed.lower_at] = -lo0 / fixed.lower_norm
        self._prefix = None
        if prefix is not None:
            if not (cumsum_lower <= cumsum_init <= cumsum_upper):
                raise ValueError(
                    "require cumsum_lower <= cumsum_init <= cumsum_upper, got "
                    f"{cumsum_lower}, {cumsum_init}, {cumsum_upper}"
                )
            # which end is the upper one depends on the sign of c
            ends = ((cumsum_init - cumsum_upper) / c,
                    (cumsum_init - cumsum_lower) / c)
            upper, neg_lower = self._prefix = (max(ends), -min(ends))
            up, down = prefix
            if up and not math.isfinite(upper) \
                    or down and not math.isfinite(neg_lower):
                raise ValueError(
                    "cumsum_init: the prefix-sum bounds (cumsum_init - "
                    "cumsum_upper)/cumsum_coeff and (cumsum_init - "
                    "cumsum_lower)/cumsum_coeff must be finite where the "
                    f"SoC bound is, got {ends[0]} and {ends[1]}")
            if up or down:
                np.divide(([upper] * h if up else [])
                          + ([neg_lower] * h if down else []),
                          fixed.prefix_norms, out=b[fixed.prefix_at:])
        # the kernel reads the envelope lists, not this problem, which
        # holds the kernel: a step's problems are then no cyclic garbage
        envelope = self.envelope = fixed.envelope(lo0, hi0)
        self.ldp = Ldp(fixed.rows, b, *envelope)

    @property
    def weight(self) -> float:
        """The Hessian's first diagonal entry, as a float: the weight of a
        device, whose diagonal is that weight at every step."""
        return self._fixed.weight

    def effective_bounds(self):
        """Box bounds with the k=0 ramp anchor folded into the first step,
        as two lists of floats (lo, hi)."""
        fixed, tail = self._fixed, self.h - 1
        return ([self._lo0] + [fixed.lower] * tail,
                [self._hi0] + [fixed.upper] * tail)

    def objective(self, x: np.ndarray, lin: np.ndarray) -> float:
        """0.5 x'Dx + lin'x for a linear term ``lin`` of length h."""
        x = np.asarray(x, dtype=float)
        lin = np.asarray(lin, dtype=float)
        return 0.5 * float(x @ (self.quad_diag * x)) + float(lin @ x)

    def violation(self, x: np.ndarray) -> float:
        """Largest violation of a row of `constraint_rows` at x (0 when
        feasible)."""
        a, b = self.constraint_rows()
        return float((a @ np.asarray(x, dtype=float) - b).max(initial=0.0))

    def constraint_rows(self):
        """The kept inequalities as (A, b), A x <= b, in `_row_matrix`'s
        order: the box with the ramp anchor folded into step 0, the ramp
        rows, then the bounds that the cumsum constraints put on every
        prefix sum s_k = sum_{j<=k} x_j, in power units."""
        fixed, h = self._fixed, self.h
        tail = h - 1
        rhs = [self._hi0, *[fixed.upper] * tail, -self._lo0,
               *[-fixed.lower] * tail, *[fixed.ramp] * (2 * tail)]
        if self._prefix is not None:
            upper, neg_lower = self._prefix
            rhs += [upper] * h + [neg_lower] * h
        _, prefix, keep = fixed.key
        return (_kept_rows(h, prefix, keep),
                np.array(list(compress(rhs, fixed.keep)), dtype=float))


class _FixedPart:
    """What the horizon problems of one device share across its states: h,
    the Hessian diagonal as a read-only array, the box [lower, upper] and
    the ramp limit as floats, the ramp's reach ``steps`` (k*ramp for
    k = 1..h-1) that the reach envelope adds, and the device's rows.

    Which rows are kept depends on the fixed part alone: both step-0 box
    rows, a box row after step 0 where that side of the box is finite,
    every ramp row, and the prefix-sum rows that ``prefix`` flags (upper,
    then lower; None without SoC rows). Built once: the kept-row flags
    ``keep``; their `_ldp_rows` key ``key`` (the Hessian diagonal as
    bytes, whether prefix-sum rows exist, ``keep`` as bytes) and `LdpRows`
    ``rows``, shared with every device of the same key; the kept
    right-hand sides divided by the row norms (``base``, read-only, with
    0.0 in the rows the state sets); and the slots of those rows, the
    step-0 upper row first, the step-0 lower row at ``lower_at``, and the
    prefix-sum rows last, from ``prefix_at``, with their norms ``norm0``,
    ``lower_norm`` and ``prefix_norms``. Construction takes ``d`` as a
    length-``h`` list of floats and ``lo``, ``hi`` and ``ramp`` as floats,
    and runs every check on them."""

    def __init__(self, h: int, d: list, lo: float, hi: float, ramp: float,
                 prefix):
        # NaN fails every comparison, so each test is written to pass
        if not all(v > 0.0 for v in d):
            raise ValueError(
                "quad_diag must be strictly positive componentwise")
        if not all(map(math.isfinite, d)):
            raise ValueError("quad_diag must be finite")
        if not lo <= hi:
            raise ValueError("lower must be <= upper, neither NaN")
        if not 0.0 < ramp < math.inf:
            raise ValueError(f"ramp_limit must be finite and > 0, got {ramp}")
        self.h, self.weight = h, d[0]
        self.quad_diag = np.array(d)
        self.quad_diag.flags.writeable = False
        self.lower, self.upper, self.ramp = lo, hi, ramp
        self.steps = [ramp * k for k in range(1, h)]
        tail = h - 1
        keep = [True, *[math.isfinite(hi)] * tail,
                True, *[math.isfinite(lo)] * tail, *[True] * (2 * tail)]
        rhs = [0.0, *[hi] * tail, 0.0, *[-lo] * tail, *[ramp] * (2 * tail)]
        self.lower_at = 1 + sum(keep[1:h])
        self.prefix_at = sum(keep)
        if prefix is not None:
            keep += [prefix[0]] * h + [prefix[1]] * h
            rhs += [0.0] * (2 * h)
        self.keep = keep
        self.key = (self.quad_diag.tobytes(), prefix is not None, bytes(keep))
        rows = self.rows = _ldp_rows(h, self.key)
        base = self.base = np.array(list(compress(rhs, keep)), dtype=float)
        base /= rows.norms
        base.flags.writeable = False
        self.norm0, self.lower_norm = (float(rows.norms[0]),
                                       float(rows.norms[self.lower_at]))
        self.prefix_norms = rows.norms[self.prefix_at:]

    def envelope(self, lo0: float, hi0: float):
        """The reach envelope (los, his) at the step-0 bounds ``lo0`` and
        ``hi0``, as two lists of floats: per step k, the bounds
        lo_k <= x_k <= hi_k that the box and the ramp put on x_k together,
        hi0 + 0.0 at step 0, which is hi0 but for -0.0, taken to +0.0, and
        min(upper, hi0 + k*ramp) at step k >= 1, the box's bound on a tie;
        the lower bounds likewise. A point on hi0 + k*ramp has x_0 = hi0,
        so that the rounding of that sum, at most an ulp of k*ramp and one
        of the sum, is within two ulps of the point's largest entry: the
        envelope holds the polytope far inside the kernel's tolerance."""
        lo, hi = self.lower, self.upper
        his, los = [hi0 + 0.0], [lo0 + 0.0]
        for s in self.steps:
            x, y = hi0 + s, lo0 - s
            his.append(hi if hi < x else x)
            los.append(lo if lo > y else y)
        return los, his


def _row_matrix(h: int, prefix: bool) -> np.ndarray:
    """Every row of a horizon problem: box upper and lower, ramp up and
    down, then (with ``prefix``) the upper and lower prefix-sum rows."""
    eye = np.eye(h)
    diff = eye[1:] - eye[:-1]
    rows = [eye, -eye, diff, -diff]
    if prefix:
        tri = np.tri(h)
        rows += [tri, -tri]
    return np.concatenate(rows)


@lru_cache(maxsize=FIXED_PART_MEMO_SIZE)
def _fixed_part(h: int, d: float, lo: float, hi: float, ramp: float,
                prefix, lo_sign: float, hi_sign: float) -> _FixedPart:
    """The `_FixedPart` of the scalars ``d``, ``lo`` and ``hi``, shared by
    every `HorizonQp` built from them; the sign bits are part of the key
    only."""
    return _FixedPart(h, [float(d)] * h, float(lo), float(hi), ramp, prefix)


@lru_cache(maxsize=LDP_ROWS_MEMO_SIZE)
def _kept_rows(h: int, prefix: bool, keep: bytes) -> np.ndarray:
    """The rows of `_row_matrix` flagged in ``keep``, read-only: a row
    pattern's, which its devices' `LdpRows` and the oracle's fleet rows
    are built from."""
    rows = _row_matrix(h, prefix)[np.frombuffer(keep, dtype=bool)]
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=LDP_ROWS_MEMO_SIZE)
def _ldp_rows(h: int, key: tuple) -> LdpRows:
    """`LdpRows` of a horizon problem whose `_FixedPart.key` is ``key``:
    Hessian diagonal ``quad_diag``, and the rows of `_row_matrix` flagged
    in ``keep``."""
    quad_diag, prefix, keep = key
    return LdpRows(np.frombuffer(quad_diag), _kept_rows(h, prefix, keep))


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


def all_finite(values: list) -> bool:
    """Whether every float in ``values`` is finite. A finite sum has only
    finite terms; a sum that is not (which an overflow can make) is
    decided term by term."""
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


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
    if not all_finite(lin.ravel().tolist()):
        raise ValueError("lin must be finite")
    x, status, iters, viol = qp.ldp.solve(lin, tol)
    if x is None:  # infeasible
        x = np.zeros(qp.h)
    return QpSolution(x, iters, viol, status,
                      0.0 if status == OPTIMAL else np.nan, qp, lin)
