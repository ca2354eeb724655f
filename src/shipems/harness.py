"""Experiment harness: scenario runs, weight sweeps, and solver cross-checks.

All artifacts are plain CSV with '.' decimal separators and repr-style float
formatting, so identical runs produce bit-identical files. Sweep cells run
serially in a fixed order for the same reason.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .coordinator import (
    Fleet,
    PcmNodeState,
    PgmNodeState,
    centralized_solve,
    coordinate,
)
from .plant import capacity_percent, loss_percent
from .qp import INFEASIBLE
from .sim import SimLog, load_at, run_scenario


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        if any(c in x for c in ',"\n'):
            return '"' + x.replace('"', '""') + '"'
        return x
    return repr(float(x))


def _csv_line(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(_csv_line(row) + "\n")


def write_timeseries_csv(log: SimLog, path: str) -> None:
    """One line per logged plant step: t, per-device p/i/SoC/Q_L, load, residual."""
    n_g = log.gen_power_w.shape[1]
    n_b = log.batt_power_w.shape[1]
    header = ["t_s"]
    columns = [log.time_s]
    for i in range(n_g):
        header += [f"p_g{i}_w", f"i_g{i}_a"]
        columns += [log.gen_power_w[:, i], log.gen_current_a[:, i]]
    for j in range(n_b):
        header += [f"p_b{j}_w", f"i_b{j}_a", f"soc{j}", f"q_loss{j}_ah"]
        columns += [log.batt_power_w[:, j], log.batt_current_a[:, j],
                    log.soc[:, j], log.capacity_loss_ah[:, j]]
    header += ["p_load_w", "residual_w"]
    columns += [log.load_w, log.balance_residual_w]
    _write_csv(path, header, np.column_stack(columns).tolist())


def write_mpc_diag_csv(log: SimLog, path: str) -> None:
    """One line per MPC solve: iterations, residual, first price component."""
    header = ["t_s", "iterations", "residual_w", "lambda0",
              "converged", "shortfall_w"]
    _write_csv(path, header, zip(
        log.mpc_time_s, log.mpc_iterations, log.mpc_residual_w,
        log.mpc_lambda0, log.mpc_converged, log.mpc_shortfall_w))


@dataclass(frozen=True)
class SweepResultRow:
    """One sweep cell; energies are fleet totals over the cell's run."""

    beta: float
    gamma: float
    battery_energy_wh: float  # total energy through the batteries, |p_b|
    generator_energy_wh: float
    battery_discharge_wh: float
    battery_charge_wh: float
    capacity_loss_percent: float  # fleet loss reading, 100*sum(Q_L)/sum(Q)
    capacity_remaining_percent: float
    shortfall_events: int
    status: str = "ok"


# summary.csv has one column per field, in field order
SUMMARY_HEADER = [f.name for f in dataclasses.fields(SweepResultRow)]


def summarize(cfg: ScenarioConfig, log: SimLog) -> SweepResultRow:
    q_total = sum(b.capacity_ah for b in cfg.pcms)
    ql_total = float(log.final_capacity_loss_ah.sum())
    if q_total > 0.0:
        loss = loss_percent(q_total, ql_total)
        remain = capacity_percent(q_total, ql_total)
    else:
        loss, remain = 0.0, 100.0
    beta = cfg.pgms[0].weight_beta
    gamma = cfg.pcms[0].weight_gamma if cfg.pcms else 0.0
    return SweepResultRow(
        beta=beta,
        gamma=gamma,
        battery_energy_wh=float(log.batt_abs_energy_wh.sum()),
        generator_energy_wh=float(log.gen_energy_wh.sum()),
        battery_discharge_wh=float(log.batt_discharge_wh.sum()),
        battery_charge_wh=float(log.batt_charge_wh.sum()),
        capacity_loss_percent=loss,
        capacity_remaining_percent=remain,
        shortfall_events=log.shortfall_events,
    )


def summary_line(row: SweepResultRow) -> str:
    """The summary.csv line of one sweep cell, without its newline."""
    return _csv_line(dataclasses.astuple(row))


def write_summary_csv(rows: list[SweepResultRow], path: str) -> None:
    _write_csv(path, SUMMARY_HEADER, map(dataclasses.astuple, rows))


def run_to_artifacts(cfg: ScenarioConfig, out_dir: str) -> SimLog:
    """Run one scenario and write timeseries.csv, mpc_diag.csv, summary.csv."""
    os.makedirs(out_dir, exist_ok=True)
    log = run_scenario(cfg)
    write_timeseries_csv(log, os.path.join(out_dir, "timeseries.csv"))
    write_mpc_diag_csv(log, os.path.join(out_dir, "mpc_diag.csv"))
    write_summary_csv([summarize(cfg, log)],
                      os.path.join(out_dir, "summary.csv"))
    return log


def _with_weights(cfg: ScenarioConfig, beta: float, gamma: float) -> ScenarioConfig:
    return dataclasses.replace(
        cfg,
        pgms=[dataclasses.replace(g, weight_beta=beta) for g in cfg.pgms],
        pcms=[dataclasses.replace(b, weight_gamma=gamma) for b in cfg.pcms],
    )


def sweep(cfg: ScenarioConfig, betas: list[float], gammas: list[float],
          out_dir: str | None = None) -> list[SweepResultRow]:
    """Run the scenario for every (beta, gamma) pair, in grid order.

    Failed cells are recorded with status set to the error and zeroed
    metrics; the sweep continues.
    """
    if not betas or not gammas:
        raise ValueError("beta and gamma value lists must be nonempty")
    rows = []
    for beta in betas:
        for gamma in gammas:
            try:
                cell_cfg = _with_weights(cfg, beta, gamma)
                log = run_scenario(cell_cfg)
                rows.append(summarize(cell_cfg, log))
            except Exception as exc:  # per-cell isolation
                rows.append(SweepResultRow(
                    beta=beta, gamma=gamma, battery_energy_wh=0.0,
                    generator_energy_wh=0.0, battery_discharge_wh=0.0,
                    battery_charge_wh=0.0, capacity_loss_percent=0.0,
                    capacity_remaining_percent=100.0, shortfall_events=0,
                    status=f"error: {exc}",
                ))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_summary_csv(rows, os.path.join(out_dir, "summary.csv"))
    return rows


@dataclass(frozen=True)
class VerifyCase:
    name: str
    max_power_gap_w: float
    objective_rel_gap: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    cases: list[VerifyCase]
    max_power_gap_w: float
    max_objective_rel_gap: float
    passed: bool


# agreement thresholds between the price coordination and the monolithic
# solver: relative objective and absolute per-step power
VERIFY_OBJ_RTOL = 1e-4
VERIFY_POWER_TOL_W = 1e3

# tight solve settings so the comparison is not dominated by loose
# balance tolerances (the objective gap scales with the residual price)
_BAL_TOL_REL = 1e-7
_CEN_TOL = 1e-9


def _first_step_fleet(cfg: ScenarioConfig) -> Fleet:
    return Fleet(
        bus=cfg.bus,
        pgms=[PgmNodeState(g, g.rated_power_w) for g in cfg.pgms],
        pcms=[PcmNodeState(b, s, 0.0)
              for b, s in zip(cfg.pcms, cfg.initial_soc)],
        td_s=cfg.mpc_period_s,
    )


def _compare(fleet: Fleet, p_f: np.ndarray, name: str) -> VerifyCase:
    scale = max(float(np.max(np.abs(p_f))), 1.0)
    cen = centralized_solve(fleet, p_f, tol=_CEN_TOL)
    rep = coordinate(fleet, p_f, bal_tol_w=_BAL_TOL_REL * scale,
                     max_iter=5000)
    if cen.status == INFEASIBLE:
        ok = not rep.converged
        return VerifyCase(name, 0.0, 0.0, ok,
                          "infeasible demand: "
                          + ("consistent" if ok else "coordination converged"))
    dist = np.vstack([r.profile for r in rep.gen]
                     + [r.profile for r in rep.batt])
    cenp = np.vstack(list(cen.gen_profiles) + list(cen.batt_profiles))
    power_gap = float(np.max(np.abs(dist - cenp))) if dist.size else 0.0
    obj_d = rep.objective()
    obj_c = cen.objective
    # gap relative to the problem's natural objective scale; the floor at
    # scale^2 keeps demands near the fleet's preferred point (true optimum
    # close to zero) from inflating an allocation agreement of a few watts
    obj_gap = abs(obj_d - obj_c) / max(abs(obj_c), scale * scale)
    ok = power_gap <= VERIFY_POWER_TOL_W and obj_gap <= VERIFY_OBJ_RTOL
    return VerifyCase(name, power_gap, obj_gap, ok)


def verify(cfg: ScenarioConfig, n_perturbations: int = 100) -> VerifyReport:
    """Cross-check coordinate against centralized_solve.

    Compares the config's first MPC step, then n_perturbations randomized
    variants (demand level, initial SoC, previous setpoints) drawn from
    cfg.seed, over the config's full fleet and horizon.
    """
    h = cfg.horizon_steps
    cases = []

    base_fleet = _first_step_fleet(cfg)
    p_f0 = np.full(h, float(load_at(0.0, cfg.load)))
    cases.append(_compare(base_fleet, p_f0, "first_mpc_step"))

    rng = np.random.default_rng(cfg.seed)
    for k in range(n_perturbations):
        pgms = []
        for g in cfg.pgms:
            prev = float(np.clip(
                g.rated_power_w
                + rng.uniform(-0.5, 0.5) * g.ramp_limit_w_per_step,
                g.p_min_w, g.p_max_w))
            pgms.append(PgmNodeState(g, prev))
        pcms = []
        for b in cfg.pcms:
            lo, hi = b.soc_min, b.soc_max
            s = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
            prev = rng.uniform(-0.1, 0.1) * b.p_max_w
            pcms.append(PcmNodeState(b, float(s), float(prev)))
        fleet = Fleet(bus=cfg.bus, pgms=pgms, pcms=pcms, td_s=cfg.mpc_period_s)
        p_f = p_f0 * rng.uniform(0.7, 1.3)
        cases.append(_compare(fleet, p_f, f"perturbation_{k}"))

    max_p = max(c.max_power_gap_w for c in cases)
    max_o = max(c.objective_rel_gap for c in cases)
    return VerifyReport(
        cases=cases,
        max_power_gap_w=max_p,
        max_objective_rel_gap=max_o,
        passed=all(c.passed for c in cases),
    )


def write_verify_csv(report: VerifyReport, path: str) -> None:
    _write_csv(
        path,
        ["case", "max_power_gap_w", "objective_rel_gap", "passed", "note"],
        ([c.name, c.max_power_gap_w, c.objective_rel_gap, c.passed, c.note]
         for c in report.cases),
    )
