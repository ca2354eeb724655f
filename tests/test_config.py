"""Config serialization, validation, and the shipped default scenario."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from shipems.cli import main
from shipems.config import (
    ScenarioConfig,
    SolverConfig,
    default_config,
    from_json_dict,
    load_config,
)
from shipems.plant import PcmSpec, PgmSpec
from shipems.sim import DlcGains, LoadProfileSpec, run_scenario

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestRoundTrip:
    def test_default_round_trips_through_dict(self):
        cfg = default_config()
        assert from_json_dict(cfg.to_json_dict()) == cfg

    def test_default_round_trips_through_text(self):
        cfg = default_config()
        assert from_json_dict(json.loads(cfg.to_json())) == cfg

    def test_modified_config_round_trips(self):
        cfg = dataclasses.replace(
            default_config(),
            pgms=[PgmSpec(), PgmSpec(rated_power_w=20e6, weight_beta=2.5)],
            pcms=[PcmSpec(capacity_ah=5000.0)],
            initial_soc=[0.42],
            solver=SolverConfig(alpha=1e-7, bal_tol_w=12.0, max_iter=99,
                                load_preview=True),
            load=LoadProfileSpec(kind="ramp", base_w=1e6,
                                 slope_w_per_s=2e5, start_s=3.0),
            comm_delay_s=0.5,
            duration_s=120.0,
        )
        assert from_json_dict(cfg.to_json_dict()) == cfg

    def test_shipped_default_file_matches_builtin(self):
        path = os.path.join(REPO_ROOT, "configs", "default.json")
        with open(path, "r", encoding="utf-8") as fh:
            on_disk = json.load(fh)
        assert on_disk == default_config().to_json_dict()
        assert load_config(path) == default_config()

    def test_load_config_from_temp_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(default_config().to_json(), encoding="utf-8")
        assert load_config(str(p)) == default_config()


class TestStrictParsing:
    def test_unknown_root_key_named(self):
        d = default_config().to_json_dict()
        d["mystery"] = 1
        with pytest.raises(ValueError, match="mystery"):
            from_json_dict(d)

    def test_unknown_nested_key_named_with_path(self):
        d = default_config().to_json_dict()
        d["pgms"][0]["resistance"] = 0.02
        with pytest.raises(ValueError, match=r"pgms\[0\]\.resistance"):
            from_json_dict(d)

    def test_unknown_degradation_key_named(self):
        d = default_config().to_json_dict()
        d["pcms"][0]["degradation"]["zeta3"] = 1.0
        with pytest.raises(ValueError, match=r"pcms\[0\]\.degradation\.zeta3"):
            from_json_dict(d)

    def test_non_object_root_rejected(self):
        with pytest.raises(ValueError, match="object"):
            from_json_dict([1, 2, 3])

    def test_partial_config_fills_defaults(self):
        cfg = from_json_dict({"duration_s": 10.0})
        assert cfg.duration_s == 10.0
        assert cfg.pgms == [PgmSpec()]


class TestValidation:
    def check(self, match, **overrides):
        cfg = dataclasses.replace(default_config(), **overrides)
        with pytest.raises(ValueError, match=match):
            cfg.validate()

    def test_field_errors_name_the_field(self):
        self.check("horizon_steps", horizon_steps=0)
        self.check("plant_dt_s", plant_dt_s=0.0)
        self.check("plant_dt_s", plant_dt_s=2.0)  # must undercut the period
        self.check("duration_s", duration_s=0.5)
        self.check("comm_delay_s", comm_delay_s=-0.1)
        self.check("comm_delay_s", comm_delay_s=1.5)  # one plan in flight
        self.check("log_every", log_every=0)
        self.check("initial_soc", initial_soc=[0.6, 0.6])
        self.check("initial_soc", initial_soc=[0.05])

    def test_periods_must_align_with_plant_step(self):
        self.check("mpc_period_s", mpc_period_s=1.0005, comm_delay_s=0.5)
        self.check("duration_s", duration_s=10.0105)

    def test_generators_required(self):
        self.check("generator", pgms=[])

    def test_unstable_dlc_rejected_at_load(self):
        self.check("unstable", dlc=DlcGains(kp=0.2, ki=0.0))

    def test_solver_config_bounds(self):
        with pytest.raises(ValueError, match="alpha"):
            SolverConfig(alpha=0.0)
        with pytest.raises(ValueError, match="bal_tol_w"):
            SolverConfig(bal_tol_w=-1.0)
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=0)

    @pytest.mark.parametrize("path, value", [
        ("horizon_steps", 2.5),
        ("horizon_steps", True),
        ("log_every", 2.5),
        ("seed", "x"),
        ("seed", 1.0),
        ("solver.max_iter", 2.5),
        ("solver.load_preview", "false"),
        ("constant_c_rate", "no"),
        ("constant_c_rate", 0),
    ])
    def test_mistyped_values_rejected_at_load(self, path, value):
        # a count that is not an integer, or a flag that is not a bool,
        # names its field instead of failing later or reading as truthy
        d = default_config().to_json_dict()
        *parents, key = path.split(".")
        node = d
        for p in parents:
            node = node[p]
        node[key] = value
        with pytest.raises(ValueError, match=key):
            from_json_dict(d)

    def test_numpy_integers_accepted(self):
        cfg = dataclasses.replace(
            default_config(), horizon_steps=np.int64(3), log_every=np.int32(7),
            seed=np.uint8(1), solver=SolverConfig(max_iter=np.int64(50)))
        cfg.validate()

    @pytest.mark.parametrize("kw", [
        dict(duration_s=10.0),
        dict(duration_s=10.0, mpc_period_s=0.1, comm_delay_s=0.1),
    ])
    def test_fade_factor_overflow_rejected_by_battery(self, kw):
        # a 0.1 Ah battery at its 20 MW limit runs at 200000 C, where the
        # fade factor overflows: once a run reported a loss of 5e148 Ah,
        # and with a 0.1 s period the plant raised OverflowError mid-run
        cfg = dataclasses.replace(
            default_config(), pcms=[PcmSpec(), PcmSpec(capacity_ah=0.1)],
            initial_soc=[0.6, 0.6], **kw)
        with pytest.raises(ValueError, match=r"pcms\[1\].*C-rate"):
            run_scenario(cfg)
        # the factor is evaluated at the configured C-rate instead
        dataclasses.replace(cfg, constant_c_rate=True).validate()

    def test_fade_account_overflow_rejected(self):
        # at 5900 C the factor itself is finite (1.8e307), but 100 s at
        # that rate would report a loss beyond the largest float
        pcm = PcmSpec(capacity_ah=0.1, p_min_w=-590e3, p_max_w=590e3)
        assert math.isfinite(pcm.degradation.factor(5900.0))
        cfg = dataclasses.replace(default_config(), duration_s=100.0,
                                  pcms=[pcm])
        with pytest.raises(ValueError, match=r"pcms\[0\].*5900 C"):
            cfg.validate()

    def test_fade_factor_overflow_is_a_cli_config_error(self, tmp_path,
                                                        capsys):
        d = default_config().to_json_dict()
        d["pcms"][0]["capacity_ah"] = 0.1
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d), encoding="utf-8")
        assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "pcms[0]" in err

    def test_default_config_is_valid(self):
        default_config().validate()

    def test_batteryless_config_is_valid(self):
        cfg = dataclasses.replace(default_config(), pcms=[], initial_soc=[])
        cfg.validate()
