"""Physical component models of the DC shipboard microgrid.

Generators (PGMs) are current-controlled voltage sources behind a series
RL impedance; batteries (PCMs) are static algebraic sources with an open
circuit voltage and series resistance; the single load is resistive with
a variable terminal voltage. The bus voltage is assumed regulated to a
constant. All quantities are SI internally (W, V, A, s); ampere-hour
values are converted at the boundaries (1 Ah = 3600 A*s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def pgm_current_step(i_g: float, v_g: float, bus: BusSpec, spec: PgmSpec,
                     dt: float) -> float:
    """Advance the generator current one step under a held source voltage.

    Exact solution of l*di/dt = -r*i + (v_bus - v_g) over dt with constant
    input: i' = i*exp(-r*dt/l) + (dv/r)*(1 - exp(-r*dt/l)).
    """
    dv = bus.v_bus_volt - v_g
    decay = math.exp(-spec.resistance_ohm * dt / spec.inductance_henry)
    return i_g * decay + (dv / spec.resistance_ohm) * (1.0 - decay)


def battery_algebra(p_b: float, bus: BusSpec, spec: PcmSpec) -> tuple[float, float]:
    """Terminal voltage and current for a commanded battery power.

    v_b = (v_bus^2 - p_b*r_b - v_bus*v_oc)/v_bus and
    i_b = (v_bus - v_b - v_oc)/r_b, which reduce to i_b = p_b/v_bus exactly.
    Current is positive while discharging.
    """
    v = bus.v_bus_volt
    if v == 0.0:
        raise ValueError("bus voltage must be nonzero")
    v_b = (v * v - p_b * spec.resistance_ohm - v * spec.v_oc_volt) / v
    i_b = (v - v_b - spec.v_oc_volt) / spec.resistance_ohm
    return v_b, i_b


def soc_step(soc: float, i_b: float, capacity_ah: float,
             dt_s: float) -> tuple[float, bool]:
    """One SoC update: soc - (dt_s/3600)*i_b/capacity_ah, clamped to [0, 1].

    Returns (new_soc, saturated); ``saturated`` flags that the unclamped
    value left [0, 1].
    """
    if not dt_s > 0.0:
        raise ValueError(f"dt_s must be > 0, got {dt_s}")
    if not capacity_ah > 0.0:
        raise ValueError(f"capacity_ah must be > 0, got {capacity_ah}")
    raw = soc - (dt_s / AH_TO_AS) * i_b / capacity_ah
    if raw < 0.0:
        return 0.0, True
    if raw > 1.0:
        return 1.0, True
    return raw, False


def capacity_loss(ah_throughput: float, d: DegradationParams) -> float:
    """Capacity permanently lost (Ah) for a given Ah-throughput.

    Linear in throughput with the Arrhenius factor of ``d`` evaluated at its
    configured C-rate.
    """
    if ah_throughput < 0.0:
        raise ValueError(f"ah_throughput must be >= 0, got {ah_throughput}")
    return d.factor() * ah_throughput


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


def load_algebra(p_l: float, bus: BusSpec) -> tuple[float, float]:
    """Load terminal voltage and current for a demanded power.

    v_l = (v_bus^2 - p_l*r_L)/v_bus, i_l = (v_bus - v_l)/r_L; satisfies
    i_l * v_bus = p_l exactly.
    """
    v = bus.v_bus_volt
    if v == 0.0:
        raise ValueError("bus voltage must be nonzero")
    v_l = (v * v - p_l * bus.load_resistance_ohm) / v
    i_l = (v - v_l) / bus.load_resistance_ohm
    return v_l, i_l


def power_balance_residual(p_g, p_b, p_l: float) -> float:
    """Signed bus power mismatch: sum(p_g) + sum(p_b) - p_l."""
    return float(sum(p_g) + sum(p_b) - p_l)
