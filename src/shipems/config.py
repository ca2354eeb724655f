"""Scenario configuration: typed dataclasses with strict JSON round-trip.

The loader reads each field by its annotation: a dataclass field is built
from a JSON object, a ``list[X]`` field element by element, and a scalar
must be of its field's kind. A number must be finite, and true or false is
no number. Unknown keys and mistyped values are rejected by their path
(``pgms[0].weight_beta``, ``pcms[0].degradation.c_rate``), so config
files fail loudly at load instead of mid-run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
import typing
from dataclasses import dataclass, field

from .plant import (AH_TO_AS, LOG_VALUES_MAX, BusSpec, DlcGains, PcmSpec,
                    PgmSpec, log_values)
from .sim import LoadProfileSpec


@dataclass(frozen=True)
class SolverConfig:
    """Coordination parameters; None picks the safe defaults at runtime."""

    alpha: float | None = None
    bal_tol_w: float | None = None
    max_iter: int = 500
    load_preview: bool = False

    def __post_init__(self):
        if self.alpha is not None and not self.alpha > 0.0:
            raise ValueError(f"alpha must be > 0 when given, got {self.alpha}")
        if self.bal_tol_w is not None and not self.bal_tol_w > 0.0:
            raise ValueError(
                f"bal_tol_w must be > 0 when given, got {self.bal_tol_w}"
            )
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one closed-loop run."""

    bus: BusSpec = field(default_factory=BusSpec)
    pgms: list[PgmSpec] = field(default_factory=lambda: [PgmSpec()])
    pcms: list[PcmSpec] = field(default_factory=lambda: [PcmSpec()])
    initial_soc: list[float] = field(default_factory=lambda: [0.6])
    load: LoadProfileSpec = field(default_factory=LoadProfileSpec)
    horizon_steps: int = 5
    mpc_period_s: float = 1.0
    plant_dt_s: float = 1e-3
    comm_delay_s: float = 1.0
    duration_s: float = 3600.0
    solver: SolverConfig = field(default_factory=SolverConfig)
    dlc: DlcGains = field(default_factory=DlcGains)
    constant_c_rate: bool = False
    log_every: int = 100
    seed: int = 0

    def validate(self):
        # every value, nested ones too, must pass the checks that the
        # loader makes on this config's JSON form
        _build(ScenarioConfig, self.to_json_dict(), "")
        if self.horizon_steps < 1:
            raise ValueError(
                f"horizon_steps must be >= 1, got {self.horizon_steps}"
            )
        if not self.plant_dt_s > 0.0:
            raise ValueError(f"plant_dt_s must be > 0, got {self.plant_dt_s}")
        if not self.plant_dt_s < self.mpc_period_s:
            raise ValueError(
                f"plant_dt_s ({self.plant_dt_s}) must be smaller than "
                f"mpc_period_s ({self.mpc_period_s})"
            )
        if not self.duration_s > self.mpc_period_s:
            raise ValueError(
                f"duration_s ({self.duration_s}) must exceed mpc_period_s "
                f"({self.mpc_period_s})"
            )
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")
        # the plant log is allocated whole when the run starts
        steps = self.duration_s / self.plant_dt_s
        if not (math.isfinite(steps)
                and log_values(round(steps), self.log_every, len(self.pgms),
                               len(self.pcms)) <= LOG_VALUES_MAX):
            raise ValueError(
                f"duration_s ({self.duration_s}) at log_every "
                f"({self.log_every}) makes a plant log of more than "
                f"{LOG_VALUES_MAX} values: shorten duration_s or raise "
                f"log_every"
            )
        if self.comm_delay_s < 0.0:
            raise ValueError(
                f"comm_delay_s must be >= 0, got {self.comm_delay_s}"
            )
        if self.comm_delay_s > self.mpc_period_s:
            raise ValueError(
                f"comm_delay_s ({self.comm_delay_s}) must not exceed "
                f"mpc_period_s ({self.mpc_period_s}): at most one plan may "
                f"be in flight"
            )
        for name, value in (("mpc_period_s", self.mpc_period_s),
                            ("comm_delay_s", self.comm_delay_s),
                            ("duration_s", self.duration_s)):
            k = round(value / self.plant_dt_s)
            if abs(value - k * self.plant_dt_s) > 1e-9 * max(1.0, value):
                raise ValueError(
                    f"{name} ({value}) must be an integer multiple of "
                    f"plant_dt_s ({self.plant_dt_s})"
                )
        if not self.pgms:
            raise ValueError("at least one generator is required")
        if len(self.initial_soc) != len(self.pcms):
            raise ValueError(
                f"initial_soc has {len(self.initial_soc)} entries for "
                f"{len(self.pcms)} batteries"
            )
        for j, (s, spec) in enumerate(zip(self.initial_soc, self.pcms)):
            if not spec.soc_min <= s <= spec.soc_max:
                raise ValueError(
                    f"initial_soc[{j}]={s} outside "
                    f"[{spec.soc_min}, {spec.soc_max}]"
                )
            # a battery's horizon QP bounds its prefix sums by SoC
            # differences over kappa, the SoC that 1 W moves over a period
            # (`nodes.soc_coeff`); kappa and those bounds must be finite
            scale = spec.capacity_ah * AH_TO_AS * self.bus.v_bus_volt
            kappa = self.mpc_period_s / scale if scale > 0.0 else math.inf
            if not (0.0 < kappa < math.inf and math.isfinite(
                    (spec.soc_max - spec.soc_min) / kappa)):
                raise ValueError(
                    f"pcms[{j}]: (soc_max - soc_min)/kappa is not finite "
                    f"at kappa = mpc_period_s/(3600 * capacity_ah * "
                    f"v_bus_volt) = {kappa:.6g}; lower capacity_ah or "
                    f"raise mpc_period_s")
        if not self.constant_c_rate:
            for j, spec in enumerate(self.pcms):
                # each plant step adds factor(c) * c * Q * dt / 3600 Ah of
                # fade at the C-rate c = |i_b|/Q, which the box bounds by
                # c_max; the run's loss, in percent of Q as the summary
                # reports it, must stay finite
                c_max = max(-spec.p_min_w, spec.p_max_w) \
                    / (self.bus.v_bus_volt * spec.capacity_ah)
                worst = (100.0 * spec.degradation.factor(c_max) * c_max
                         * self.duration_s / 3600.0)
                if not math.isfinite(worst):
                    raise ValueError(
                        f"pcms[{j}]: capacity fade over the run overflows "
                        f"at the battery's largest C-rate, {c_max:.6g} C; "
                        f"lower its power limits, raise capacity_ah or set "
                        f"constant_c_rate"
                    )
        for g in self.pgms:
            self.dlc.assert_stable_for(g)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_json_dict(), **kwargs)


def _check_value(kind, value, path: str) -> None:
    """Reject a scalar that is not of its field's kind: bool is a subclass
    of int, but true is no count and no number, and a number is finite."""
    if value is None and type(None) in typing.get_args(kind):
        return
    if kind is bool:
        ok, want = isinstance(value, bool), "true or false"
    elif kind is str:
        ok, want = isinstance(value, str), "a string"
    elif kind is int:
        ok, want = (isinstance(value, numbers.Integral)
                    and not isinstance(value, bool)), "an integer"
    else:
        ok, want = (isinstance(value, numbers.Real)
                    and not isinstance(value, bool)
                    and abs(value) <= sys.float_info.max), "a finite number"
    if not ok:
        raise ValueError(f"{path} must be {want}, got {value!r}")


def _read(kind, value, path: str):
    """The value of a field of the given kind from its JSON form."""
    if dataclasses.is_dataclass(kind):
        return _build(kind, value, path)
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ValueError(
                f"{path} must be a list, got {type(value).__name__}")
        (item,) = typing.get_args(kind)
        return [_read(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    _check_value(kind, value, path)
    return value


def _build(cls, d, path: str):
    """Construct dataclass cls from the JSON object d found at path,
    rejecting unknown keys; an error names the path."""
    if not isinstance(d, dict):
        raise ValueError(
            f"{path or 'config root'} must be an object, got "
            f"{type(d).__name__}")
    kinds = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in d.items():
        at = f"{path}.{key}" if path else key
        if key not in kinds:
            raise ValueError(f"unknown key {at}")
        kwargs[key] = _read(kinds[key], value, at)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path or 'config'}: {exc}") from exc


def from_json_dict(d: dict) -> ScenarioConfig:
    cfg = _build(ScenarioConfig, d, "")
    cfg.validate()
    return cfg


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def default_config() -> ScenarioConfig:
    """Reference scenario: one generator, one battery, pulsed demand."""
    return ScenarioConfig(
        load=LoadProfileSpec(
            kind="pulse_train",
            base_w=30e6,
            amplitude_w=10e6,
            period_s=10.0,
            duty_fraction=0.2,
            start_s=5.0,
        ),
    )
