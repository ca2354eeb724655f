"""Scenario configuration: typed dataclasses with strict JSON round-trip.

Unknown JSON keys are rejected with the offending field named, so config
files fail loudly instead of silently ignoring typos.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass, field, fields

from .plant import BusSpec, DegradationParams, DlcGains, PcmSpec, PgmSpec
from .sim import LoadProfileSpec


def _check_types(obj) -> None:
    """Reject a value of another type in a field annotated int or bool;
    bool is a subclass of int, but true is no count."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int" and (isinstance(value, bool)
                                or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "bool" and not isinstance(value, bool):
            raise ValueError(f"{f.name} must be true or false, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Coordination parameters; None picks the safe defaults at runtime."""

    alpha: float | None = None
    bal_tol_w: float | None = None
    max_iter: int = 500
    load_preview: bool = False

    def __post_init__(self):
        _check_types(self)
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
        _check_types(self)
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
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")
        for g in self.pgms:
            self.dlc.assert_stable_for(g)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_json_dict(), **kwargs)


_FLAT_TYPES = {
    "bus": BusSpec,
    "load": LoadProfileSpec,
    "solver": SolverConfig,
    "dlc": DlcGains,
}


def _build(cls, d: dict, path: str):
    """Construct dataclass cls from d, rejecting unknown keys."""
    if not isinstance(d, dict):
        raise ValueError(f"{path} must be an object, got {type(d).__name__}")
    known = {f.name: f for f in fields(cls)}
    for key in d:
        if key not in known:
            raise ValueError(f"unknown key {path}.{key}")
    kwargs = {}
    for key, value in d.items():
        if cls is PcmSpec and key == "degradation":
            value = _build(DegradationParams, value, f"{path}.{key}")
        kwargs[key] = value
    return cls(**kwargs)


def from_json_dict(d: dict) -> ScenarioConfig:
    if not isinstance(d, dict):
        raise ValueError(f"config root must be an object, got {type(d).__name__}")
    known = {f.name for f in fields(ScenarioConfig)}
    for key in d:
        if key not in known:
            raise ValueError(f"unknown key {key}")
    kwargs: dict = {}
    for key, value in d.items():
        if key in _FLAT_TYPES:
            kwargs[key] = _build(_FLAT_TYPES[key], value, key)
        elif key == "pgms":
            kwargs[key] = [_build(PgmSpec, v, f"pgms[{i}]")
                           for i, v in enumerate(value)]
        elif key == "pcms":
            kwargs[key] = [_build(PcmSpec, v, f"pcms[{i}]")
                           for i, v in enumerate(value)]
        elif key == "initial_soc":
            kwargs[key] = [float(v) for v in value]
        else:
            kwargs[key] = value
    cfg = ScenarioConfig(**kwargs)
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
