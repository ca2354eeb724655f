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

    The state (``ig``, ``integ``, ``soc``, ``thr_as``, ``ql_ah``) and the
    energy accumulators are numpy arrays with one entry per device, which
    `advance` updates in place. The thinned log holds the state and the
    held inputs; ``log_pg``, ``log_ib`` and ``log_res`` are computed from
    it when read. Generators start at the held equilibrium of their rated
    power, batteries at rest.
    """

    def __init__(self, bus: BusSpec, pgms, pcms, gains: DlcGains, dt: float,
                 soc0, n_steps: int, log_every: int = 1,
                 constant_c_rate: bool = False):
        n_g, n_b = len(pgms), len(pcms)
        self.dt = dt
        self.vbus = bus.v_bus_volt
        self.gains = gains
        self.pcms = list(pcms)
        self.log_every = log_every
        self.constant_c_rate = constant_c_rate

        # generator state; the decay of the exact RL step is fixed
        self.pref_g = np.array([g.rated_power_w for g in pgms], dtype=float)
        self.ig = self.pref_g / self.vbus
        self.rg = np.array([g.resistance_ohm for g in pgms])
        self.decay = [math.exp(-g.resistance_ohm * dt / g.inductance_henry)
                      for g in pgms]
        self.integ = (self.rg * self.ig / gains.ki if gains.ki > 0.0
                      else np.zeros(n_g))

        # battery state
        self.pref_b = np.zeros(n_b)
        self.soc = np.array(soc0, dtype=float)
        self.thr_as = np.zeros(n_b)
        self.ql_ah = np.zeros(n_b)

        # full-resolution accumulators (J)
        self.gen_e_j = np.zeros(n_g)
        self.bat_dis_j = np.zeros(n_b)
        self.bat_chg_j = np.zeros(n_b)
        self.bat_abs_j = np.zeros(n_b)
        self.load_e_j = 0.0
        self.clamp_count = 0

        # the log, one row per log_every plant steps
        rows = (n_steps + log_every - 1) // log_every
        self.log_t = np.arange(rows) * log_every * dt
        self.log_ig = np.zeros((rows, n_g))
        self.log_pb = np.zeros((rows, n_b))
        self.log_soc = np.zeros((rows, n_b))
        self.log_thr = np.zeros((rows, n_b))
        self.log_ql = np.zeros((rows, n_b))
        self.log_pl = np.zeros(rows)

    @property
    def log_pg(self):
        """Generator power v_bus*i_g at each logged step start."""
        return self.vbus * self.log_ig

    @property
    def log_ib(self):
        """Battery current p_b/v_bus at each logged step."""
        return self.log_pb / self.vbus

    @property
    def log_res(self):
        """sum(p_g) + sum(p_b) - p_l of each logged step, added left to
        right from -p_l as the steps add it."""
        terms = np.column_stack((-self.log_pl, self.log_pg, self.log_pb))
        # the last running sum, copied so that it holds no other column
        return terms.cumsum(axis=1)[:, -1].copy()

    def advance(self, n: int, step0: int, p_l):
        """Advance every device n plant steps from global step step0; p_l
        holds the demand (W) of each of those steps.

        A log row is written for every global step divisible by log_every,
        sampling the state at the step start. Raises RuntimeError if a
        state goes non-finite.
        """
        dt, vbus, every = self.dt, self.vbus, self.log_every
        kp, ki = self.gains.kp, self.gains.ki
        lim = self.gains.integrator_limit
        ig, integ, rg = self.ig, self.integ, self.rg
        soc, thr_as, ql_ah = self.soc, self.thr_as, self.ql_ah
        gen_e_j, bat_abs_j = self.gen_e_j, self.bat_abs_j
        load_e_j, clamp_count = self.load_e_j, self.clamp_count
        # the setpoints are held over the window, and so is all that
        # follows from them: the current reference of each generator; the
        # current, energy account and per-step increments of each battery
        gens = [(i, p_ref / vbus, d, 1.0 - d)
                for i, (p_ref, d) in enumerate(zip(self.pref_g, self.decay))]
        batts = []
        for j, (p_b, spec) in enumerate(zip(self.pref_b, self.pcms)):
            i_b = p_b / vbus
            f = spec.degradation.factor(
                None if self.constant_c_rate else abs(i_b) / spec.capacity_ah)
            batts.append((j, self.bat_dis_j if p_b >= 0.0 else self.bat_chg_j,
                          abs(p_b) * dt, (dt / 3600.0) * i_b / spec.capacity_ah,
                          abs(i_b) * dt, f * abs(i_b) * dt / 3600.0))
        # the window logs rows row..stop-1, which sample the global steps
        # row*every, ...: the window's steps k_log, k_log + every, ...
        row = -(-step0 // every)
        stop = -(-(step0 + n) // every)
        k_log = row * every - step0
        self.log_pb[row:stop] = self.pref_b
        self.log_pl[row:stop] = p_l[k_log:n:every]
        for k in range(n):
            if k == k_log:
                self.log_ig[row] = ig
                self.log_soc[row] = soc
                self.log_thr[row] = thr_as / 3600.0
                self.log_ql[row] = ql_ah
                row += 1
                k_log += every
            # generators: PI voltage command, exact RL step over dt
            for i, i_ref, decay, rise in gens:
                x = ig[i]
                gen_e_j[i] += vbus * x * dt
                e = i_ref - x
                z = integ[i] + e * dt
                if z > lim:
                    z = lim
                elif z < -lim:
                    z = -lim
                integ[i] = z
                ig[i] = x * decay + ((kp * e + ki * z) / rg[i]) * rise
            # batteries: energy accounts, coulomb counting, capacity fade
            for j, account, e_j, d_soc, d_thr, d_ql in batts:
                account[j] += e_j
                bat_abs_j[j] += e_j
                raw = soc[j] - d_soc
                if raw < 0.0:
                    soc[j] = 0.0
                    clamp_count += 1
                elif raw > 1.0:
                    soc[j] = 1.0
                    clamp_count += 1
                else:
                    soc[j] = raw
                thr_as[j] += d_thr
                ql_ah[j] += d_ql
            load_e_j += p_l[k] * dt
        self.load_e_j, self.clamp_count = load_e_j, clamp_count
        if not all(np.isfinite(a).all()
                   for a in (ig, integ, soc, thr_as, ql_ah)):
            raise RuntimeError(f"non-finite plant state at t={(step0 + n) * dt}")
