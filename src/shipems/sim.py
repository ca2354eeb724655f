"""Load profiles and the closed loop of the plant under receding-horizon
dispatch.

The plant (`plant.Plant`) advances at a fixed millisecond-scale step:
generator currents follow their RL dynamics under a PI tracking
controller, batteries apply commanded powers through the static algebraic
model, and degradation accumulates from battery current. Every MPC period
the engine snapshots measurements, runs the price coordination, and
applies the resulting first-step setpoints after a communication delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .coordinator import (
    Fleet,
    PcmNodeState,
    PgmNodeState,
    coordinate,
    default_balance_tol_w,
)
from .nodes import soc_coeff
from .plant import AH_TO_AS, BusSpec, PcmSpec, Plant

if TYPE_CHECKING:  # pragma: no cover
    from .config import ScenarioConfig

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


@dataclass
class SimLog:
    """Complete record of one scenario run.

    Time-series arrays are thinned by cfg.log_every and sample state at the
    step start; energy totals and violation counters accumulate at full
    plant resolution. MPC diagnostics have one row per MPC step and
    applied-setpoint records one per applied plan, regardless of thinning.
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


def _warm_price(prev, p_f: np.ndarray, bal_tol_w: float | None):
    """The receding-horizon warm start of a step after the report
    ``prev``: its price shifted one step, the last entry held. None (start
    cold, at the envelope price) unless ``prev`` converged and its plan's
    total, shifted the same way, is within the step's balance tolerance of
    the demand ``p_f`` (``bal_tol_w``, or `default_balance_tol_w`). A plan
    that misses the new demand, as at a demand change, marks a warm price
    whose first iterate misses it too, and `coordinate` would go on from
    the envelope price after that iterate."""
    if prev is None or not prev.converged:
        return None
    if bal_tol_w is None:
        bal_tol_w = default_balance_tol_w(p_f)
    total = prev.total_power()
    if float(np.max(np.abs(np.append(total[1:], total[-1]) - p_f))) \
            > bal_tol_w:
        return None
    return np.append(prev.lambda_final[1:], prev.lambda_final[-1])


def run_scenario(cfg: "ScenarioConfig") -> SimLog:
    """Run the closed loop described by cfg and return the full log.

    Raises RuntimeError with diagnostics if any state goes non-finite.
    Balance shortfalls (demand beyond fleet capability) are logged per MPC
    step, never raised; so are SoC and ramp violations (see the README).
    """
    cfg.validate()
    dt = cfg.plant_dt_s
    n_g, n_b = len(cfg.pgms), len(cfg.pcms)
    n_total = int(round(cfg.duration_s / dt))
    period_steps = int(round(cfg.mpc_period_s / dt))
    delay_steps = int(round(cfg.comm_delay_s / dt))
    h = cfg.horizon_steps
    td = cfg.mpc_period_s
    plant = Plant(cfg.bus, cfg.pgms, cfg.pcms, cfg.dlc, dt, cfg.initial_soc,
                  n_total, cfg.log_every, cfg.constant_c_rate)
    pref_g, pref_b, soc = plant.pref_g, plant.pref_b, plant.soc

    def advance(start, stop):
        """Run the plant from step start to step stop; returns stop."""
        if stop > start:
            plant.advance(stop - start, start,
                          load_at((start + np.arange(stop - start)) * dt,
                                  cfg.load))
        return stop

    # MPC bookkeeping: one report per MPC step, one record per applied plan
    reports = []
    app_t, app_g, app_b = [], [], []
    box_v = ramp_v = soc_v = 0
    cur = 0
    # one iteration per MPC period: measure and coordinate at step, apply
    # the first-step setpoints delay_steps later. The delay never exceeds
    # the period, so a plan lands no later than the next measurement, and
    # at a delay of one period it is applied first.
    mpc_steps = range(0, n_total, period_steps)
    for step in mpc_steps:
        cur = advance(cur, step)
        t = step * dt
        if cfg.solver.load_preview:
            times = t + cfg.comm_delay_s + td * np.arange(h)
            p_f = load_at(times, cfg.load)
        else:
            p_f = np.full(h, load_at(t, cfg.load))
        pcms = []
        for spec, s, pref in zip(cfg.pcms, soc, pref_b):
            # the setpoint in force holds until the plan applies, and SoC
            # is linear in it (i_b = p_b/v_bus): plan from the SoC at
            # application time, and from the nearest limit where rounding
            # carries it past one
            s = float(s - cfg.comm_delay_s * pref / (
                AH_TO_AS * cfg.bus.v_bus_volt * spec.capacity_ah))
            s = min(max(s, spec.soc_min), spec.soc_max)
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
            lambda_warm=_warm_price(reports[-1] if reports else None, p_f,
                                    cfg.solver.bal_tol_w),
        )
        reports.append(rep)

        if step + delay_steps >= n_total:
            continue  # the plan would land after the end
        cur = advance(cur, step + delay_steps)
        gen_refs = np.array([r.profile[0] for r in rep.gen])
        batt_refs = np.array([r.profile[0] for r in rep.batt])
        for specs, refs, prev in ((cfg.pgms, gen_refs, pref_g),
                                  (cfg.pcms, batt_refs, pref_b)):
            for spec, ref, p in zip(specs, refs, prev):
                tol = _check_tol(spec.p_max_w)
                if not spec.p_min_w - tol <= ref <= spec.p_max_w + tol:
                    box_v += 1
                if abs(ref - p) > spec.ramp_limit_w_per_step + tol:
                    ramp_v += 1
        # feasibility of each battery plan against its own SoC model
        if not all(np.all(r.soc_trajectory >= spec.soc_min - SOC_TOL)
                   and np.all(r.soc_trajectory <= spec.soc_max + SOC_TOL)
                   for r, spec in zip(rep.batt, cfg.pcms)):
            soc_v += 1
        pref_g[:] = gen_refs
        pref_b[:] = batt_refs
        app_t.append(cur * dt)
        app_g.append(gen_refs)
        app_b.append(batt_refs)
    advance(cur, n_total)

    return SimLog(
        time_s=plant.log_t,
        gen_power_w=plant.log_pg,
        gen_current_a=plant.log_ig,
        batt_power_w=plant.log_pb,
        batt_current_a=plant.log_ib,
        soc=plant.log_soc,
        throughput_ah=plant.log_thr,
        capacity_loss_ah=plant.log_ql,
        load_w=plant.log_pl,
        balance_residual_w=plant.log_res,
        mpc_time_s=np.array(mpc_steps) * dt,
        mpc_iterations=np.array([r.iterations_used for r in reports],
                                dtype=int),
        mpc_residual_w=np.array([r.final_residual_w for r in reports]),
        mpc_lambda0=np.array([float(r.lambda_final[0]) for r in reports]),
        mpc_converged=np.array([r.converged for r in reports], dtype=bool),
        mpc_shortfall_w=np.array([r.shortfall_w for r in reports]),
        applied_time_s=np.array(app_t),
        applied_gen_w=np.reshape(app_g, (len(app_g), n_g)),
        applied_batt_w=np.reshape(app_b, (len(app_b), n_b)),
        box_violations=box_v,
        ramp_violations=ramp_v,
        soc_violations=soc_v,
        soc_clamp_events=plant.clamp_count,
        shortfall_events=sum(not r.converged for r in reports),
        gen_energy_wh=plant.gen_e_j / 3600.0,
        batt_discharge_wh=plant.bat_dis_j / 3600.0,
        batt_charge_wh=plant.bat_chg_j / 3600.0,
        batt_abs_energy_wh=plant.bat_abs_j / 3600.0,
        load_energy_wh=float(plant.load_e_j) / 3600.0,
        final_soc=soc.copy(),
        final_throughput_ah=plant.thr_as / AH_TO_AS,
        final_capacity_loss_ah=plant.ql_ah.copy(),
    )
