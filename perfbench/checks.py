"""Independent output checks for the benchmark workloads.

Nothing here reuses the package's own constraint builders or solvers: the
device constraints are rebuilt from the specs, the optimality certificate is
a nonnegative least-squares fit on the active constraint normals, the
shortfall reference is an LP solved by scipy HiGHS, and the battery and load
energies are recounted in closed form from the applied setpoints. Every
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.optimize import linprog, nnls

# The package floors zero cost weights at this value (README, "Configuration").
WEIGHT_FLOOR = 1e-9
AH_TO_AS = 3600.0

# Allowed slack of a constraint, as a share of the device's power scale.
FEAS_RTOL = 1e-6
# A constraint counts as active in the certificate within this share.
ACTIVE_RTOL = 1e-6
# Stationarity residual allowed, as a share of the gradient's scale.
KKT_RTOL = 1e-6
# Criterion 1's agreement thresholds between coordinate and the oracle.
AGREE_POWER_W = 1e3
AGREE_OBJ_RTOL = 1e-4
# Reported shortfall against the LP minimum, as a share of the demand
# (1e-5 of 65 MW is 650 W, so a shortfall 1 kW off fails).
SHORTFALL_RTOL = 1e-5
# Recounted energies against the plant's step-by-step sums.
RECOUNT_RTOL = 1e-9
SOC_ATOL = 1e-9


class Device:
    """One device's horizon constraints rebuilt from its spec and state.

    All rows are in power units, ``rows @ x <= rhs``. The state-of-charge
    limits become bounds on the prefix sums of power; they are not scaled
    by the tiny per-step SoC coefficient.
    """

    def __init__(self, spec, prev_w, h, weight, target_w, soc=None,
                 kappa=0.0):
        self.weight, self.target_w = max(weight, WEIGHT_FLOOR), target_w
        self.power_scale = max(1.0, abs(spec.p_min_w), abs(spec.p_max_w))
        eye = np.eye(h)
        ramp = spec.ramp_limit_w_per_step
        rows = [eye, -eye, eye[:1], -eye[:1]]
        rhs = [np.full(h, spec.p_max_w), np.full(h, -spec.p_min_w),
               [prev_w + ramp], [ramp - prev_w]]
        if h > 1:
            diff = eye[1:] - eye[:-1]
            rows += [diff, -diff]
            rhs += [np.full(h - 1, ramp)] * 2
        if kappa:
            prefix = np.tril(np.ones((h, h)))
            rows += [prefix, -prefix]
            rhs += [np.full(h, (soc - spec.soc_min) / kappa),
                    np.full(h, (spec.soc_max - soc) / kappa)]
        self.rows = np.vstack(rows)
        self.rhs = np.concatenate([np.asarray(r, dtype=float) for r in rhs])
        self.norms = np.linalg.norm(self.rows, axis=1)

    def objective(self, x):
        dev = np.asarray(x) - self.target_w
        return 0.5 * self.weight * float(dev @ dev)

    def violation(self, x):
        """Largest constraint violation per unit row norm, in W."""
        return float(np.max((self.rows @ x - self.rhs) / self.norms))

    def kkt_residual(self, x, lam):
        """Relative stationarity residual of min cost + lam'x at x.

        Fits nonnegative multipliers on the normals of the rows active at
        x; the residual of the fit, relative to the gradient's scale, is 0
        exactly when x is optimal for the price lam.
        """
        grad = self.weight * (x - self.target_w) + lam
        slack = (self.rhs - self.rows @ x) / self.norms
        active = slack <= ACTIVE_RTOL * self.power_scale
        scale = max(1.0, float(np.max(np.abs(lam))),
                    self.weight * float(np.max(np.abs(x - self.target_w))))
        if not np.any(active):
            return float(np.max(np.abs(grad))) / scale
        normals = self.rows[active] / self.norms[active, None]
        _, resid = nnls(normals.T, -grad)
        return resid / scale


def fleet_devices(fleet, h):
    """Devices of a fleet: generators first, then batteries."""
    devices = [Device(g.spec, g.prev_power_w, h, g.spec.weight_beta,
                      g.spec.rated_power_w) for g in fleet.pgms]
    for b in fleet.pcms:
        kappa = fleet.td_s / (b.spec.capacity_ah * AH_TO_AS
                              * fleet.bus.v_bus_volt)
        devices.append(Device(b.spec, b.prev_power_w, h, b.spec.weight_gamma,
                              0.0, soc=b.soc, kappa=kappa))
    return devices


def report_profiles(rep):
    return [r.profile for r in rep.gen] + [r.profile for r in rep.batt]


def check_feasible(devices, profiles, what):
    out = []
    for i, (dev, x) in enumerate(zip(devices, profiles)):
        v = dev.violation(x)
        if v > FEAS_RTOL * dev.power_scale:
            out.append(f"{what} device {i} violates a limit by {v:.6g} W")
    return out


def check_kkt(devices, profiles, lam):
    out = []
    for i, (dev, x) in enumerate(zip(devices, profiles)):
        r = dev.kkt_residual(x, lam)
        if r > KKT_RTOL:
            out.append(f"device {i} fails the KKT certificate "
                       f"(residual {r:.3g})")
    return out


def check_balance(profiles, p_f, tol_w):
    gap = float(np.max(np.abs(np.sum(profiles, axis=0) - p_f)))
    if gap > tol_w:
        return [f"power balance off by {gap:.6g} W > {tol_w:.6g} W"]
    return []


def check_agreement(devices, dist, oracle, p_f):
    """Coordinate against the oracle, with criterion 1's thresholds."""
    scale = max(float(np.max(np.abs(p_f))), 1.0)
    gap = max(float(np.max(np.abs(a - b))) for a, b in zip(dist, oracle))
    obj_d = sum(d.objective(x) for d, x in zip(devices, dist))
    obj_c = sum(d.objective(x) for d, x in zip(devices, oracle))
    obj_gap = abs(obj_d - obj_c) / max(abs(obj_c), scale * scale)
    out = []
    if gap > AGREE_POWER_W:
        out.append(f"allocations differ by {gap:.6g} W")
    if obj_gap > AGREE_OBJ_RTOL:
        out.append(f"objectives differ by {obj_gap:.3g} (relative)")
    return out


def min_shortfall_w(devices, p_f):
    """Least worst-step unmet demand over every feasible fleet allocation.

    LP in MW: variables are each device's horizon profile and the
    shortfall s >= 0, with sum_i x_ik + s >= p_f,k at every step.
    """
    h = len(p_f)
    n = len(devices)
    mw = 1e-6
    blocks = np.zeros((0, n * h + 1))
    rhs = []
    for i, dev in enumerate(devices):
        a = np.zeros((dev.rows.shape[0], n * h + 1))
        a[:, i * h:(i + 1) * h] = dev.rows
        blocks = np.vstack([blocks, a])
        rhs.append(dev.rhs * mw)
    bal = np.zeros((h, n * h + 1))
    for i in range(n):
        bal[:, i * h:(i + 1) * h] = -np.eye(h)
    bal[:, -1] = -1.0
    a_ub = np.vstack([blocks, bal])
    b_ub = np.concatenate(rhs + [-np.asarray(p_f) * mw])
    c = np.zeros(n * h + 1)
    c[-1] = 1.0
    bounds = [(None, None)] * (n * h) + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"shortfall LP failed: {res.message}")
    return float(res.x[-1]) / mw


def check_shortfall(reported_w, converged, lp_w, p_f):
    tol = SHORTFALL_RTOL * max(float(np.max(np.abs(p_f))), 1.0)
    out = []
    if abs(reported_w - lp_w) > tol:
        out.append(f"shortfall {reported_w:.6g} W, LP minimum {lp_w:.6g} W")
    if converged != (lp_w <= tol):
        out.append(f"converged={converged} but LP minimum is {lp_w:.6g} W")
    return out


def check_setpoints(specs, initial, applied):
    """Applied setpoints within each device's box and ramp limits.

    ``applied`` has one row per application and one column per device;
    ``initial`` holds the setpoints in force before the first one.
    Returns one list of failure messages per row.
    """
    out = [[] for _ in range(applied.shape[0])]
    prev = np.asarray(initial, dtype=float)
    for k, row in enumerate(applied):
        for i, spec in enumerate(specs):
            tol = FEAS_RTOL * max(1.0, abs(spec.p_min_w), abs(spec.p_max_w))
            if not spec.p_min_w - tol <= row[i] <= spec.p_max_w + tol:
                out[k].append(f"setpoint {row[i]:.6g} W outside the box")
            if abs(row[i] - prev[i]) > spec.ramp_limit_w_per_step + tol:
                out[k].append(f"setpoint step {row[i] - prev[i]:.6g} W "
                              "exceeds the ramp limit")
        prev = row
    return out


def load_energy_wh(load, duration_s):
    """Closed-form integral of a constant or pulse-train load."""
    if load.kind == "constant":
        return load.base_w * duration_s / AH_TO_AS
    if load.kind != "pulse_train":
        raise ValueError(f"no closed form for a {load.kind!r} load")
    on = 0.0
    if duration_s > load.start_s:
        width = load.duty_fraction * load.period_s
        n = math.ceil((duration_s - load.start_s) / load.period_s)
        for k in range(n):
            a = load.start_s + k * load.period_s
            on += max(0.0, min(a + width, duration_s) - a)
    return (load.base_w * duration_s + load.amplitude_w * on) / AH_TO_AS


def recount_batteries(cfg, applied_time_s, applied_batt_w):
    """Battery totals recounted from the piecewise-constant setpoints.

    Between applications each battery holds its power p, so its current
    p/v_bus, its C-rate and its fade factor are constant over the window
    and every total grows linearly with the window's length.
    """
    dt = cfg.plant_dt_s
    n_total = int(round(cfg.duration_s / dt))
    starts = [0] + [int(round(t / dt)) for t in applied_time_s]
    ends = starts[1:] + [n_total]
    powers = np.vstack([np.zeros((1, len(cfg.pcms))), applied_batt_w])
    v = cfg.bus.v_bus_volt
    out = {k: np.zeros(len(cfg.pcms)) for k in
           ("discharge_wh", "charge_wh", "abs_wh", "throughput_ah",
            "loss_ah")}
    soc = np.array(cfg.initial_soc, dtype=float)
    for a, b, p in zip(starts, ends, powers):
        secs = (b - a) * dt
        for j, spec in enumerate(cfg.pcms):
            i_b = p[j] / v
            out["discharge_wh"][j] += max(p[j], 0.0) * secs / AH_TO_AS
            out["charge_wh"][j] += max(-p[j], 0.0) * secs / AH_TO_AS
            out["abs_wh"][j] += abs(p[j]) * secs / AH_TO_AS
            soc[j] -= secs / AH_TO_AS * i_b / spec.capacity_ah
            ah = abs(i_b) * secs / AH_TO_AS
            out["throughput_ah"][j] += ah
            d = spec.degradation
            c_rate = d.c_rate if cfg.constant_c_rate \
                else abs(i_b) / spec.capacity_ah
            fade = d.zeta1 * math.exp(
                (-d.zeta2 + d.temperature_k * c_rate)
                / (d.gas_constant * d.temperature_k))
            out["loss_ah"][j] += fade * ah
    out["final_soc"] = soc
    return out


def _close(a, b, rtol, atol=0.0):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= atol + rtol * np.maximum(
        np.abs(a), np.abs(b))))


def check_load_energy(cfg, log):
    """The plant's load energy against the profile's closed-form integral."""
    want = load_energy_wh(cfg.load, cfg.duration_s)
    if _close(log.load_energy_wh, want, RECOUNT_RTOL):
        return []
    return [f"load energy {log.load_energy_wh!r} Wh, closed form {want!r} Wh"]


def check_battery_recount(cfg, log, rc):
    """Battery totals and final SoC against ``recount_batteries``."""
    out = []
    scale = float(np.max(rc["abs_wh"], initial=0.0))
    for key, got in (("discharge_wh", log.batt_discharge_wh),
                     ("charge_wh", log.batt_charge_wh),
                     ("abs_wh", log.batt_abs_energy_wh),
                     ("throughput_ah", log.final_throughput_ah),
                     ("loss_ah", log.final_capacity_loss_ah)):
        ref_scale = scale if key.endswith("wh") else float(
            np.max(rc[key], initial=0.0))
        if not _close(got, rc[key], RECOUNT_RTOL, RECOUNT_RTOL * ref_scale):
            out.append(f"battery {key} {np.asarray(got).tolist()} differs "
                       f"from recount {rc[key].tolist()}")
    if not _close(log.final_soc, rc["final_soc"], 0.0, SOC_ATOL):
        out.append(f"final SoC {log.final_soc.tolist()} differs from "
                   f"recount {rc['final_soc'].tolist()}")
    if log.soc_clamp_events:
        out.append(f"{log.soc_clamp_events} SoC clamp events")
    return out


def check_summary_csv(text, rc):
    """The written summary: readings sum to 100, energy matches recount."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        return [f"summary.csv has {len(rows)} rows"]
    row = rows[0]
    out = []
    total = float(row["capacity_loss_percent"]) \
        + float(row["capacity_remaining_percent"])
    if abs(total - 100.0) > 1e-9:
        out.append(f"capacity readings sum to {total!r}, not 100")
    want = float(rc["abs_wh"].sum())
    if not _close(float(row["battery_energy_wh"]), want, RECOUNT_RTOL):
        out.append(f"summary battery energy {row['battery_energy_wh']} Wh, "
                   f"recount {want!r} Wh")
    return out
