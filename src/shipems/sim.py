"""Closed-loop co-simulation of the plant under receding-horizon dispatch.

The plant advances at a fixed millisecond-scale step: generator currents
follow their RL dynamics under a PI tracking controller, batteries apply
commanded powers through the static algebraic model, and degradation
accumulates from battery current. Every MPC period the engine snapshots
measurements, runs the price coordination, and applies the resulting
first-step setpoints after a communication delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .coordinator import Fleet, PcmNodeState, PgmNodeState, coordinate
from .nodes import soc_coeff
from .plant import AH_TO_AS, BusSpec, PcmSpec, PgmSpec

if TYPE_CHECKING:  # pragma: no cover
    from .config import ScenarioConfig

try:
    from numba import njit
except ImportError:  # pragma: no cover - exercised only without numba
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(f):
            return f

        return wrap


LOAD_KINDS = ("constant", "step", "ramp", "pulse_train")
# resolution of pulse edges, as a share of the period
PHASE_EPS = 1e-9
# a state of charge further than this outside its limits is a violation
SOC_TOL = 1e-9


@dataclass(frozen=True)
class LoadProfileSpec:
    """Deterministic demand profile.

    kinds: constant (base only); step (base plus amplitude from start_s on);
    ramp (base plus slope*(t-start_s) from start_s on); pulse_train (base
    plus amplitude whenever the fractional position of (t-start_s) inside
    each period is below duty_fraction, base before start_s).
    """

    kind: str = "constant"
    base_w: float = 10e6
    amplitude_w: float = 0.0
    period_s: float = 10.0
    duty_fraction: float = 0.2
    start_s: float = 0.0
    slope_w_per_s: float = 0.0

    def __post_init__(self):
        if self.kind not in LOAD_KINDS:
            raise ValueError(f"kind must be one of {LOAD_KINDS}, got {self.kind!r}")
        if self.kind == "pulse_train":
            if not 0.0 < self.duty_fraction < 1.0:
                raise ValueError(
                    f"duty_fraction must be in (0,1), got {self.duty_fraction}"
                )
            if not self.period_s > 0.0:
                raise ValueError(f"period_s must be > 0, got {self.period_s}")
        if self.start_s < 0.0:
            raise ValueError(f"start_s must be >= 0, got {self.start_s}")


def load_at(t, spec: LoadProfileSpec):
    """Demand power at time(s) t; accepts a scalar or an array."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be >= 0")
    if spec.kind == "constant":
        out = np.full_like(t, spec.base_w)
    elif spec.kind == "step":
        out = spec.base_w + np.where(t >= spec.start_s, spec.amplitude_w, 0.0)
    elif spec.kind == "ramp":
        out = spec.base_w + np.where(
            t >= spec.start_s, spec.slope_w_per_s * (t - spec.start_s), 0.0
        )
    else:  # pulse_train
        # edges are placed to PHASE_EPS of a period, so a time that rounds
        # to just below an edge (a plant step times dt, say) sits on it
        rel = (t - spec.start_s) / spec.period_s
        frac = rel - np.floor(rel + PHASE_EPS)
        on = (t >= spec.start_s) & (frac < spec.duty_fraction - PHASE_EPS)
        out = spec.base_w + np.where(on, spec.amplitude_w, 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DlcGains:
    """PI gains of the generator current tracker.

    The closed loop of the RL stage under this controller has characteristic
    polynomial l*s^2 + (r + kp)*s + ki; `assert_stable_for` rejects gain
    pairs whose roots are not strictly in the left half plane for a given
    generator. The defaults put the controller zero ki/kp on the plant pole
    r/l, leaving a monotone first-order response with pole kp/l (no
    overshoot, so measured power ramps stay within the dispatched ramp).
    """

    kp: float = 0.2
    ki: float = 2.0
    integrator_limit: float = 1e5  # anti-windup clamp on the error integral

    def __post_init__(self):
        if self.kp < 0.0 or self.ki < 0.0:
            raise ValueError(f"gains must be >= 0, got kp={self.kp}, ki={self.ki}")
        if not self.integrator_limit > 0.0:
            raise ValueError(
                f"integrator_limit must be > 0, got {self.integrator_limit}"
            )

    def assert_stable_for(self, spec: PgmSpec):
        poly = [spec.inductance_henry, spec.resistance_ohm + self.kp, self.ki]
        roots = np.roots(poly)
        if np.any(roots.real >= 0.0):
            raise ValueError(
                f"gains kp={self.kp}, ki={self.ki} leave the current loop "
                f"unstable for r={spec.resistance_ohm}, "
                f"l={spec.inductance_henry} (roots {roots})"
            )


def dlc_pgm_step(i_ref: float, i_g: float, integrator: float, gains: DlcGains,
                 dt: float, v_bus: float) -> tuple[float, float]:
    """One controller update: returns (v_g, new_integrator).

    The commanded source voltage realizes dv = kp*e + ki*integral(e) through
    v_g = v_bus - dv; the error integral is clamped for anti-windup.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    e = i_ref - i_g
    integ = integrator + e * dt
    lim = gains.integrator_limit
    integ = min(max(integ, -lim), lim)
    dv = gains.kp * e + gains.ki * integ
    return v_bus - dv, integ


@njit(cache=True)
def _advance_window(
    n_steps, step0, dt, vbus, p_l_arr,
    # generator states and parameters, one entry per device
    ig, integ, rg, lg, kp, ki, int_lim, pref_g,
    # battery states and parameters
    soc, thr_as, ql_ah, qah, pref_b,
    z1, z2, temp, rgas, factor_const, use_const_cr,
    # accumulators
    gen_e_j, bat_dis_j, bat_chg_j, bat_abs_j, load_e_j, clamp_count,
    # thinned time-series output
    log_every, log_t, log_pg, log_ig, log_pb, log_ib, log_soc, log_thr,
    log_ql, log_pl, log_res,
):
    """Advance all devices n_steps plant steps under held setpoints.

    States and accumulators are mutated in place; rows of the log arrays
    are written for every global step divisible by log_every, sampling the
    state at the step start.
    """
    n_g = ig.shape[0]
    n_b = soc.shape[0]
    for k in range(n_steps):
        gstep = step0 + k
        p_l = p_l_arr[k]
        do_log = (gstep % log_every) == 0
        row = gstep // log_every
        if do_log:
            log_t[row] = gstep * dt
            log_pl[row] = p_l
        res = -p_l
        # generators: PI voltage command, exact RL step over dt
        for i in range(n_g):
            p_g = vbus * ig[i]
            res += p_g
            gen_e_j[i] += p_g * dt
            if do_log:
                log_pg[row, i] = p_g
                log_ig[row, i] = ig[i]
            e = pref_g[i] / vbus - ig[i]
            z = integ[i] + e * dt
            if z > int_lim[i]:
                z = int_lim[i]
            elif z < -int_lim[i]:
                z = -int_lim[i]
            integ[i] = z
            dv = kp[i] * e + ki[i] * z
            decay = math.exp(-rg[i] * dt / lg[i])
            ig[i] = ig[i] * decay + (dv / rg[i]) * (1.0 - decay)
        # batteries: static algebra, coulomb counting, capacity fade
        for j in range(n_b):
            p_b = pref_b[j]
            i_b = p_b / vbus
            res += p_b
            if p_b >= 0.0:
                bat_dis_j[j] += p_b * dt
            else:
                bat_chg_j[j] -= p_b * dt
            bat_abs_j[j] += abs(p_b) * dt
            if do_log:
                log_pb[row, j] = p_b
                log_ib[row, j] = i_b
                log_soc[row, j] = soc[j]
                log_thr[row, j] = thr_as[j] / 3600.0
                log_ql[row, j] = ql_ah[j]
            raw = soc[j] - (dt / 3600.0) * i_b / qah[j]
            if raw < 0.0:
                soc[j] = 0.0
                clamp_count[0] += 1
            elif raw > 1.0:
                soc[j] = 1.0
                clamp_count[0] += 1
            else:
                soc[j] = raw
            abs_ib = abs(i_b)
            thr_as[j] += abs_ib * dt
            if use_const_cr[j]:
                f = factor_const[j]
            else:
                cr = abs_ib / qah[j]
                f = z1[j] * math.exp((-z2[j] + temp[j] * cr) / (rgas[j] * temp[j]))
            ql_ah[j] += f * abs_ib * dt / 3600.0
        load_e_j[0] += p_l * dt
        if do_log:
            log_res[row] = res


@dataclass
class SimLog:
    """Complete record of one scenario run.

    Time-series arrays are thinned by cfg.log_every and sample state at the
    step start; energy totals and violation counters accumulate at full
    plant resolution. Applied-setpoint records and MPC diagnostics have one
    row per event regardless of thinning.
    """

    time_s: np.ndarray
    gen_power_w: np.ndarray  # (rows, n_g), electrical power v_bus*i_g
    gen_current_a: np.ndarray
    batt_power_w: np.ndarray  # (rows, n_b), commanded power in force
    batt_current_a: np.ndarray
    soc: np.ndarray
    throughput_ah: np.ndarray
    capacity_loss_ah: np.ndarray
    load_w: np.ndarray
    balance_residual_w: np.ndarray
    # one row per MPC solve
    mpc_time_s: np.ndarray
    mpc_iterations: np.ndarray
    mpc_residual_w: np.ndarray
    mpc_lambda0: np.ndarray
    mpc_converged: np.ndarray
    mpc_shortfall_w: np.ndarray
    # one row per setpoint application
    applied_time_s: np.ndarray
    applied_gen_w: np.ndarray
    applied_batt_w: np.ndarray
    # violation counters over applied setpoints and measured SoC (README)
    box_violations: int
    ramp_violations: int
    soc_violations: int
    soc_clamp_events: int
    shortfall_events: int
    # full-resolution totals
    gen_energy_wh: np.ndarray  # (n_g,)
    batt_discharge_wh: np.ndarray  # (n_b,)
    batt_charge_wh: np.ndarray
    batt_abs_energy_wh: np.ndarray
    load_energy_wh: float
    final_soc: np.ndarray
    final_throughput_ah: np.ndarray
    final_capacity_loss_ah: np.ndarray


def _check_tol(bound: float) -> float:
    return 1e-8 * max(1.0, abs(bound))


def _can_rest(spec: PcmSpec, bus: BusSpec, soc0: float, prev_power_w: float,
              td_s: float, h: int) -> bool:
    """Whether ramping toward zero power as fast as allowed keeps the
    battery within its SoC limits; its node problem is empty otherwise."""
    k = np.arange(1, h + 1)
    path = np.sign(prev_power_w) * np.maximum(
        abs(prev_power_w) - k * spec.ramp_limit_w_per_step, 0.0)
    soc = soc0 - soc_coeff(spec, bus, td_s) * np.cumsum(path)
    return bool(np.all((soc >= spec.soc_min) & (soc <= spec.soc_max)))


def run_scenario(cfg: "ScenarioConfig") -> SimLog:
    """Run the closed loop described by cfg and return the full log.

    Raises RuntimeError with diagnostics if any state goes non-finite.
    Balance shortfalls (demand beyond fleet capability) are logged per MPC
    step, never raised; so are SoC and ramp violations (see the README).
    """
    cfg.validate()
    dt = cfg.plant_dt_s
    vbus = cfg.bus.v_bus_volt
    n_g, n_b = len(cfg.pgms), len(cfg.pcms)
    n_total = int(round(cfg.duration_s / dt))
    period_steps = int(round(cfg.mpc_period_s / dt))
    delay_steps = int(round(cfg.comm_delay_s / dt))
    h = cfg.horizon_steps
    td = cfg.mpc_period_s

    # generator arrays; the plant starts at the held initial equilibrium
    pref_g = np.array([g.rated_power_w for g in cfg.pgms])
    ig = pref_g / vbus
    rg = np.array([g.resistance_ohm for g in cfg.pgms])
    lg = np.array([g.inductance_henry for g in cfg.pgms])
    kp = np.full(n_g, cfg.dlc.kp)
    ki = np.full(n_g, cfg.dlc.ki)
    int_lim = np.full(n_g, cfg.dlc.integrator_limit)
    integ = np.where(ki > 0.0, rg * ig / np.maximum(ki, 1e-300), 0.0)

    # battery arrays
    pref_b = np.zeros(n_b)
    soc = np.array(cfg.initial_soc, dtype=float)
    thr_as = np.zeros(n_b)
    ql_ah = np.zeros(n_b)
    qah = np.array([b.capacity_ah for b in cfg.pcms])
    z1 = np.array([b.degradation.zeta1 for b in cfg.pcms])
    z2 = np.array([b.degradation.zeta2 for b in cfg.pcms])
    temp = np.array([b.degradation.temperature_k for b in cfg.pcms])
    rgas = np.array([b.degradation.gas_constant for b in cfg.pcms])
    factor_const = np.array([b.degradation.factor() for b in cfg.pcms])
    use_const_cr = np.full(n_b, 1 if cfg.constant_c_rate else 0, dtype=np.uint8)

    # accumulators
    gen_e_j = np.zeros(n_g)
    bat_dis_j = np.zeros(n_b)
    bat_chg_j = np.zeros(n_b)
    bat_abs_j = np.zeros(n_b)
    load_e_j = np.zeros(1)
    clamp_count = np.zeros(1, dtype=np.int64)

    # thinned time-series storage
    le = cfg.log_every
    rows = (n_total + le - 1) // le
    log_t = np.zeros(rows)
    log_pg = np.zeros((rows, n_g))
    log_ig = np.zeros((rows, n_g))
    log_pb = np.zeros((rows, n_b))
    log_ib = np.zeros((rows, n_b))
    log_soc = np.zeros((rows, n_b))
    log_thr = np.zeros((rows, n_b))
    log_ql = np.zeros((rows, n_b))
    log_pl = np.zeros(rows)
    log_res = np.zeros(rows)

    # MPC bookkeeping
    mpc_t, mpc_it, mpc_res, mpc_lam0 = [], [], [], []
    mpc_conv, mpc_short = [], []
    app_t, app_g, app_b = [], [], []
    box_v = ramp_v = soc_v = 0
    shortfall_events = 0
    lam_warm = None
    # plans awaiting application: (apply_step, gen_refs, batt_refs, plan_meta)
    pending = []

    def snapshot_and_solve(step):
        nonlocal lam_warm, shortfall_events, soc_v
        t = step * dt
        if cfg.solver.load_preview:
            times = t + cfg.comm_delay_s + td * np.arange(h)
            p_f = load_at(times, cfg.load)
        else:
            p_f = np.full(h, load_at(t, cfg.load))
        pcms = []
        for spec, s, pref in zip(cfg.pcms, soc, pref_b):
            # a plan in flight during the delay, or rounding, can carry the
            # plant past a SoC limit; plan from the nearest limit instead
            s = min(max(float(s), spec.soc_min), spec.soc_max)
            # a battery that cannot come to rest within its SoC limits has
            # no plan from its setpoint; plan it from rest, and the jump
            # counts as a ramp violation when applied
            pref = float(pref) if _can_rest(spec, cfg.bus, s, pref, td, h) \
                else 0.0
            pcms.append(PcmNodeState(spec, s, pref))
        fleet = Fleet(
            bus=cfg.bus,
            pgms=[PgmNodeState(spec, float(pref))
                  for spec, pref in zip(cfg.pgms, pref_g)],
            pcms=pcms,
            td_s=td,
        )
        if any(not spec.soc_min - SOC_TOL <= s <= spec.soc_max + SOC_TOL
               for spec, s in zip(cfg.pcms, soc)):
            soc_v += 1
        rep = coordinate(
            fleet, p_f,
            alpha=cfg.solver.alpha,
            bal_tol_w=cfg.solver.bal_tol_w,
            max_iter=cfg.solver.max_iter,
            lambda_warm=lam_warm,
        )
        # receding-horizon warm start: the price shifted one step, its last
        # entry held
        lam_warm = np.append(rep.lambda_final[1:], rep.lambda_final[-1])
        mpc_t.append(t)
        mpc_it.append(rep.iterations_used)
        mpc_res.append(rep.final_residual_w)
        mpc_lam0.append(float(rep.lambda_final[0]))
        mpc_conv.append(rep.converged)
        mpc_short.append(rep.shortfall_w)
        if not rep.converged:
            shortfall_events += 1
        gen_refs = np.array([r.profile[0] for r in rep.gen])
        batt_refs = np.array([r.profile[0] for r in rep.batt])
        # feasibility of each battery plan against its own SoC model
        plan_soc_ok = all(
            bool(np.all(r.soc_trajectory >= spec.soc_min - SOC_TOL)
                 and np.all(r.soc_trajectory <= spec.soc_max + SOC_TOL))
            for r, spec in zip(rep.batt, cfg.pcms)
        )
        return gen_refs, batt_refs, plan_soc_ok

    def apply_plan(step, gen_refs, batt_refs, plan_soc_ok):
        nonlocal box_v, ramp_v, soc_v
        for i, spec in enumerate(cfg.pgms):
            tol = _check_tol(spec.p_max_w)
            if not (spec.p_min_w - tol <= gen_refs[i] <= spec.p_max_w + tol):
                box_v += 1
            if abs(gen_refs[i] - pref_g[i]) > spec.ramp_limit_w_per_step + tol:
                ramp_v += 1
        for j, spec in enumerate(cfg.pcms):
            tol = _check_tol(spec.p_max_w)
            if not (spec.p_min_w - tol <= batt_refs[j] <= spec.p_max_w + tol):
                box_v += 1
            if abs(batt_refs[j] - pref_b[j]) > spec.ramp_limit_w_per_step + tol:
                ramp_v += 1
        if not plan_soc_ok:
            soc_v += 1
        pref_g[:] = gen_refs
        pref_b[:] = batt_refs
        app_t.append(step * dt)
        app_g.append(gen_refs.copy())
        app_b.append(batt_refs.copy())

    # event-driven main loop
    events = {}
    for s in range(0, n_total, period_steps):
        events.setdefault(s, []).append("measure")
        a = s + delay_steps
        if a < n_total:
            events.setdefault(a, []).insert(0, "apply")  # apply before measure
    cur = 0
    for s in sorted(events):
        if s > cur:
            n = s - cur
            t_arr = (cur + np.arange(n)) * dt
            _advance_window(
                n, cur, dt, vbus, load_at(t_arr, cfg.load),
                ig, integ, rg, lg, kp, ki, int_lim, pref_g,
                soc, thr_as, ql_ah, qah, pref_b,
                z1, z2, temp, rgas, factor_const, use_const_cr,
                gen_e_j, bat_dis_j, bat_chg_j, bat_abs_j, load_e_j,
                clamp_count,
                le, log_t, log_pg, log_ig, log_pb, log_ib, log_soc, log_thr,
                log_ql, log_pl, log_res,
            )
            cur = s
            if not (np.all(np.isfinite(ig)) and np.all(np.isfinite(soc))
                    and np.all(np.isfinite(integ))):
                raise RuntimeError(f"non-finite plant state at t={cur * dt}")
        for action in events[s]:
            if action == "apply":
                due = [p for p in pending if p[0] == s]
                pending = [p for p in pending if p[0] != s]
                for _, gr, br, ok in due:
                    apply_plan(s, gr, br, ok)
            else:
                gr, br, ok = snapshot_and_solve(s)
                a = s + delay_steps
                if a >= n_total:
                    continue
                if delay_steps == 0:
                    apply_plan(s, gr, br, ok)
                else:
                    pending.append((a, gr, br, ok))
    if n_total > cur:
        n = n_total - cur
        t_arr = (cur + np.arange(n)) * dt
        _advance_window(
            n, cur, dt, vbus, load_at(t_arr, cfg.load),
            ig, integ, rg, lg, kp, ki, int_lim, pref_g,
            soc, thr_as, ql_ah, qah, pref_b,
            z1, z2, temp, rgas, factor_const, use_const_cr,
            gen_e_j, bat_dis_j, bat_chg_j, bat_abs_j, load_e_j, clamp_count,
            le, log_t, log_pg, log_ig, log_pb, log_ib, log_soc, log_thr,
            log_ql, log_pl, log_res,
        )
    if not (np.all(np.isfinite(ig)) and np.all(np.isfinite(soc))):
        raise RuntimeError("non-finite plant state at scenario end")

    return SimLog(
        time_s=log_t,
        gen_power_w=log_pg,
        gen_current_a=log_ig,
        batt_power_w=log_pb,
        batt_current_a=log_ib,
        soc=log_soc,
        throughput_ah=log_thr,
        capacity_loss_ah=log_ql,
        load_w=log_pl,
        balance_residual_w=log_res,
        mpc_time_s=np.array(mpc_t),
        mpc_iterations=np.array(mpc_it, dtype=int),
        mpc_residual_w=np.array(mpc_res),
        mpc_lambda0=np.array(mpc_lam0),
        mpc_converged=np.array(mpc_conv, dtype=bool),
        mpc_shortfall_w=np.array(mpc_short),
        applied_time_s=np.array(app_t),
        applied_gen_w=(np.array(app_g) if app_g
                       else np.zeros((0, n_g))),
        applied_batt_w=(np.array(app_b) if app_b
                        else np.zeros((0, n_b))),
        box_violations=box_v,
        ramp_violations=ramp_v,
        soc_violations=soc_v,
        soc_clamp_events=int(clamp_count[0]),
        shortfall_events=shortfall_events,
        gen_energy_wh=gen_e_j / 3600.0,
        batt_discharge_wh=bat_dis_j / 3600.0,
        batt_charge_wh=bat_chg_j / 3600.0,
        batt_abs_energy_wh=bat_abs_j / 3600.0,
        load_energy_wh=float(load_e_j[0]) / 3600.0,
        final_soc=soc.copy(),
        final_throughput_ah=thr_as / AH_TO_AS,
        final_capacity_loss_ah=ql_ah.copy(),
    )
