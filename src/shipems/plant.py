"""Physical component models of the DC shipboard microgrid.

Generators (PGMs) are current-controlled voltage sources behind a series
RL impedance under a PI current tracker; batteries (PCMs) are static
algebraic sources with an open circuit voltage and series resistance, and
lose capacity with Ah-throughput; the single load draws its demanded
power. The bus voltage is assumed regulated to a constant. `Plant` is the
one implementation of these dynamics that the closed loop runs. All
quantities are SI internally (W, V, A, s); ampere-hour values are
converted at the boundaries (1 Ah = 3600 A*s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

AH_TO_AS = 3600.0  # ampere-hours to ampere-seconds


@dataclass(frozen=True)
class BusSpec:
    """DC bus held at a regulated constant voltage, with a resistive load."""

    v_bus_volt: float = 1000.0
    load_resistance_ohm: float = 0.01

    def __post_init__(self):
        if not self.v_bus_volt > 0.0:
            raise ValueError(f"v_bus_volt must be > 0, got {self.v_bus_volt}")
        if not self.load_resistance_ohm > 0.0:
            raise ValueError(
                f"load_resistance_ohm must be > 0, got {self.load_resistance_ohm}"
            )


@dataclass(frozen=True)
class DegradationParams:
    """Arrhenius-style capacity fade driven by Ah-throughput.

    The fade factor is zeta1 * exp((-zeta2 + T*C_r) / (R*T)); zeta2 and the
    T*C_r product are treated as J/mol so the exponent is dimensionless.
    ``c_rate`` is used when the factor is evaluated in constant-C-rate mode;
    the plant can instead recompute the instantaneous C-rate |i_b|/Q each
    step (see ScenarioConfig.constant_c_rate).
    """

    zeta1: float = 3.06e4
    zeta2: float = 3.10e4  # J/mol
    temperature_k: float = 298.15
    c_rate: float = 1.0
    gas_constant: float = 8.314  # J/(mol*K)

    def __post_init__(self):
        for name in ("zeta1", "zeta2", "temperature_k", "c_rate", "gas_constant"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        f = self.factor()
        if not (math.isfinite(f) and f > 0.0):
            raise ValueError(f"degradation factor is not finite/positive: {f}")

    def factor(self, c_rate: float | None = None) -> float:
        """Dimensionless multiplier on Ah-throughput giving capacity loss."""
        cr = self.c_rate if c_rate is None else c_rate
        rt = self.gas_constant * self.temperature_k
        return self.zeta1 * math.exp((-self.zeta2 + self.temperature_k * cr) / rt)


@dataclass(frozen=True)
class PgmSpec:
    """Static parameters of one generator module.

    ``ramp_limit_w_per_step`` bounds the setpoint change between consecutive
    horizon steps (distinct from the electrical resistance, which shares the
    same letter in most shorthand notations).
    """

    resistance_ohm: float = 0.01
    inductance_henry: float = 1e-3
    rated_power_w: float = 36e6
    p_min_w: float = 0.0
    p_max_w: float = 40e6
    ramp_limit_w_per_step: float = 2e6
    weight_beta: float = 1.0

    def __post_init__(self):
        if not self.resistance_ohm > 0.0:
            raise ValueError(f"resistance_ohm must be > 0, got {self.resistance_ohm}")
        if not self.inductance_henry > 0.0:
            raise ValueError(
                f"inductance_henry must be > 0, got {self.inductance_henry}"
            )
        if not self.ramp_limit_w_per_step > 0.0:
            raise ValueError(
                f"ramp_limit_w_per_step must be > 0, got {self.ramp_limit_w_per_step}"
            )
        if not (self.p_min_w <= self.rated_power_w <= self.p_max_w):
            raise ValueError(
                "require p_min_w <= rated_power_w <= p_max_w, got "
                f"{self.p_min_w}, {self.rated_power_w}, {self.p_max_w}"
            )
        if self.weight_beta < 0.0:
            raise ValueError(f"weight_beta must be >= 0, got {self.weight_beta}")


@dataclass(frozen=True)
class PcmSpec:
    """Static parameters of one battery module.

    Sign convention: power and current are positive while discharging.
    ``p_min_w`` <= 0 is the charge limit, ``p_max_w`` >= 0 the discharge
    limit.
    """

    resistance_ohm: float = 0.01
    v_oc_volt: float = 950.0
    capacity_ah: float = 10_000.0  # 10 MWh at a 1000 V bus
    p_min_w: float = -20e6
    p_max_w: float = 20e6
    ramp_limit_w_per_step: float = 20e6
    soc_min: float = 0.1
    soc_max: float = 0.9
    weight_gamma: float = 1.0
    degradation: DegradationParams = field(default_factory=DegradationParams)

    def __post_init__(self):
        if not self.resistance_ohm > 0.0:
            raise ValueError(f"resistance_ohm must be > 0, got {self.resistance_ohm}")
        if not self.v_oc_volt > 0.0:
            raise ValueError(f"v_oc_volt must be > 0, got {self.v_oc_volt}")
        if not self.capacity_ah > 0.0:
            raise ValueError(f"capacity_ah must be > 0, got {self.capacity_ah}")
        if not (self.p_min_w <= 0.0 <= self.p_max_w):
            raise ValueError(
                f"require p_min_w <= 0 <= p_max_w, got [{self.p_min_w}, {self.p_max_w}]"
            )
        if not self.ramp_limit_w_per_step > 0.0:
            raise ValueError(
                f"ramp_limit_w_per_step must be > 0, got {self.ramp_limit_w_per_step}"
            )
        if not (0.0 <= self.soc_min < self.soc_max <= 1.0):
            raise ValueError(
                f"require 0 <= soc_min < soc_max <= 1, got [{self.soc_min}, {self.soc_max}]"
            )
        if self.weight_gamma < 0.0:
            raise ValueError(f"weight_gamma must be >= 0, got {self.weight_gamma}")


def capacity_percent(q: float, q_l: float) -> float:
    """Remaining-capacity reading (q - q_l)/q * 100.

    This is the printed formula of the fade model; the complementary
    ``loss_percent`` reading is 100 minus this value.
    """
    if not q > 0.0:
        raise ValueError(f"q must be > 0, got {q}")
    if q_l < 0.0:
        raise ValueError(f"q_l must be >= 0, got {q_l}")
    return (q - q_l) / q * 100.0


def loss_percent(q: float, q_l: float) -> float:
    """Capacity-loss reading, the complement of :func:`capacity_percent`."""
    return 100.0 - capacity_percent(q, q_l)


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


class Plant:
    """Every device of the grid, advanced plant step by plant step under the
    setpoints in force (``pref_g``, ``pref_b``, in W).

    Generators: a PI tracker on the current error commands the source
    voltage, v_g = v_bus - (kp*e + ki*integral(e)) with the integral clamped
    for anti-windup, and the RL stage l*di/dt = -r*i + (v_bus - v_g) takes
    its exact step over dt under that held voltage. Batteries: the static
    terminal model gives i_b = p_b/v_bus exactly; SoC is coulomb counted and
    clamped to [0, 1] (each clamp counted); capacity fade adds
    factor(C-rate) * |i_b|*dt of Ah-throughput, at the configured C-rate
    when ``constant_c_rate`` and at |i_b|/Q otherwise.

    The state (``ig``, ``integ``, ``soc``, ``thr_as``, ``ql_ah``), the
    energy accumulators and the thinned log are numpy arrays with one entry
    per device, which `advance` updates in place. Generators start at the
    held equilibrium of their rated power, batteries at rest.
    """

    def __init__(self, bus: BusSpec, pgms, pcms, gains: DlcGains, dt: float,
                 soc0, n_steps: int, log_every: int = 1,
                 constant_c_rate: bool = False):
        n_g, n_b = len(pgms), len(pcms)
        self.dt = dt
        self.vbus = bus.v_bus_volt
        self.log_every = log_every
        self.constant_c_rate = constant_c_rate

        # generator parameters and state
        self.pref_g = np.array([g.rated_power_w for g in pgms])
        self.ig = self.pref_g / self.vbus
        self.rg = np.array([g.resistance_ohm for g in pgms])
        self.lg = np.array([g.inductance_henry for g in pgms])
        self.kp = np.full(n_g, gains.kp)
        self.ki = np.full(n_g, gains.ki)
        self.int_lim = np.full(n_g, gains.integrator_limit)
        self.integ = np.where(self.ki > 0.0, self.rg * self.ig
                              / np.maximum(self.ki, 1e-300), 0.0)

        # battery parameters and state
        self.pref_b = np.zeros(n_b)
        self.soc = np.array(soc0, dtype=float)
        self.thr_as = np.zeros(n_b)
        self.ql_ah = np.zeros(n_b)
        self.qah = np.array([b.capacity_ah for b in pcms])
        self.degradation = [b.degradation for b in pcms]
        self.factor_const = np.array([d.factor() for d in self.degradation])

        # full-resolution accumulators (J)
        self.gen_e_j = np.zeros(n_g)
        self.bat_dis_j = np.zeros(n_b)
        self.bat_chg_j = np.zeros(n_b)
        self.bat_abs_j = np.zeros(n_b)
        self.load_e_j = 0.0
        self.clamp_count = 0

        # the log, one row per log_every plant steps
        rows = (n_steps + log_every - 1) // log_every
        self.log_t = np.zeros(rows)
        self.log_pg = np.zeros((rows, n_g))
        self.log_ig = np.zeros((rows, n_g))
        self.log_pb = np.zeros((rows, n_b))
        self.log_ib = np.zeros((rows, n_b))
        self.log_soc = np.zeros((rows, n_b))
        self.log_thr = np.zeros((rows, n_b))
        self.log_ql = np.zeros((rows, n_b))
        self.log_pl = np.zeros(rows)
        self.log_res = np.zeros(rows)

    def advance(self, n: int, step0: int, p_l):
        """Advance every device n plant steps from global step step0; p_l
        holds the demand (W) of each of those steps.

        A log row is written for every global step divisible by log_every,
        sampling the state at the step start; the balance residual logged is
        sum(p_g) + sum(p_b) - p_l. Raises RuntimeError if a state goes
        non-finite.
        """
        dt, vbus, log_every = self.dt, self.vbus, self.log_every
        ig, integ, rg, lg = self.ig, self.integ, self.rg, self.lg
        kp, ki, int_lim, pref_g = self.kp, self.ki, self.int_lim, self.pref_g
        soc, thr_as, ql_ah, qah = self.soc, self.thr_as, self.ql_ah, self.qah
        pref_b, degradation = self.pref_b, self.degradation
        factor_const, const_cr = self.factor_const, self.constant_c_rate
        gen_e_j, bat_dis_j = self.gen_e_j, self.bat_dis_j
        bat_chg_j, bat_abs_j = self.bat_chg_j, self.bat_abs_j
        load_e_j, clamp_count = self.load_e_j, self.clamp_count
        log_t, log_pg, log_ig = self.log_t, self.log_pg, self.log_ig
        log_pb, log_ib, log_soc = self.log_pb, self.log_ib, self.log_soc
        log_thr, log_ql = self.log_thr, self.log_ql
        log_pl, log_res = self.log_pl, self.log_res
        n_g = ig.shape[0]
        n_b = soc.shape[0]
        for k in range(n):
            gstep = step0 + k
            p_l_k = p_l[k]
            do_log = (gstep % log_every) == 0
            row = gstep // log_every
            if do_log:
                log_t[row] = gstep * dt
                log_pl[row] = p_l_k
            res = -p_l_k
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
                    clamp_count += 1
                elif raw > 1.0:
                    soc[j] = 1.0
                    clamp_count += 1
                else:
                    soc[j] = raw
                abs_ib = abs(i_b)
                thr_as[j] += abs_ib * dt
                if const_cr:
                    f = factor_const[j]
                else:
                    f = degradation[j].factor(abs_ib / qah[j])
                ql_ah[j] += f * abs_ib * dt / 3600.0
            load_e_j += p_l_k * dt
            if do_log:
                log_res[row] = res
        self.load_e_j, self.clamp_count = load_e_j, clamp_count
        if not (np.all(np.isfinite(ig)) and np.all(np.isfinite(integ))
                and np.all(np.isfinite(soc))):
            raise RuntimeError(
                f"non-finite plant state at t={(step0 + n) * dt}")
