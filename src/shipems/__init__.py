"""Distributed MPC energy management for a DC shipboard power system.

Per-device horizon QPs (generators tracking rated power, batteries
penalized for use) are coordinated by dual gradient ascent on the bus
power balance, then exercised in closed loop against a millisecond-step
plant with battery degradation accounting.
"""

from .config import ScenarioConfig, SolverConfig, default_config, load_config
from .coordinator import (
    CoordinationReport,
    Fleet,
    PcmNodeState,
    PgmNodeState,
    centralized_solve,
    coordinate,
)
from .nodes import NodeResult, pcm_qp, pcm_solve, pgm_qp, pgm_solve
from .plant import BusSpec, DegradationParams, DlcGains, PcmSpec, PgmSpec
from .qp import HorizonQp, QpSolution, feasibility_check, solve
from .sim import LoadProfileSpec, SimLog, load_at, run_scenario

__version__ = "0.1.0"

__all__ = [
    "BusSpec",
    "CoordinationReport",
    "DegradationParams",
    "DlcGains",
    "Fleet",
    "HorizonQp",
    "LoadProfileSpec",
    "NodeResult",
    "PcmNodeState",
    "PcmSpec",
    "PgmNodeState",
    "PgmSpec",
    "QpSolution",
    "ScenarioConfig",
    "SimLog",
    "SolverConfig",
    "centralized_solve",
    "coordinate",
    "default_config",
    "feasibility_check",
    "load_at",
    "load_config",
    "pcm_qp",
    "pcm_solve",
    "pgm_qp",
    "pgm_solve",
    "run_scenario",
    "solve",
    "__version__",
]
