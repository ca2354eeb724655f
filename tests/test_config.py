"""Config serialization, validation, and the shipped default scenario."""

import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings

from shipems.cli import main
from shipems.config import (
    ScenarioConfig,
    SolverConfig,
    default_config,
    from_json_dict,
    load_config,
)
from shipems.plant import LOG_VALUES_MAX, DlcGains, PcmSpec, PgmSpec
from shipems.sim import LoadProfileSpec, run_scenario
from test_sim import closed_loop_configs

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def set_at(d, path, value):
    """Set the value at a config path such as ``pcms[0].degradation.c_rate``."""
    *parents, last = [int(k) if k.isdigit() else k
                      for k in re.findall(r"\w+", path)]
    for k in parents:
        d = d[k]
    d[last] = value


def assert_config_error(d, text, tmp_path, capsys):
    """The config d fails to load with text in the message, and `shipems
    run` reports it as a config error with exit code 2."""
    with pytest.raises(ValueError, match=re.escape(text)):
        from_json_dict(d)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d), encoding="utf-8")
    assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and text in err


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

    @given(cfg=closed_loop_configs())
    @settings(max_examples=50, deadline=None)
    def test_drawn_configs_round_trip_through_text(self, cfg):
        try:
            cfg.validate()
        except ValueError:
            return
        assert from_json_dict(json.loads(cfg.to_json())) == cfg


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

    @pytest.mark.parametrize("path", [
        "bus.load_resistance_ohm",
        "pcms[0].v_oc_volt",
        "pcms[0].resistance_ohm",
    ])
    def test_removed_electrical_keys_are_unknown(self, path, tmp_path,
                                                 capsys):
        # the battery current is p_b/v_bus, so these reached no output
        d = default_config().to_json_dict()
        set_at(d, path, 0.01)
        assert_config_error(d, f"unknown key {path}", tmp_path, capsys)

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
        self.check("comm_delay_s", comm_delay_s=True)
        self.check(r"pgms\[0\]\.weight_beta",
                   pgms=[PgmSpec(weight_beta=math.nan)])

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
        # a number must be finite: these once validated and then failed
        # mid-run or raised an unnamed error
        ("pgms[0].weight_beta", math.nan),
        ("load.base_w", math.nan),
        ("duration_s", math.inf),
        pytest.param("duration_s", 10 ** 400, id="duration_s-10**400"),
        ("dlc.kp", math.nan),
        # true is no number: these once ran as a 1 s delay and a weight 1
        ("comm_delay_s", True),
        ("pcms[0].weight_gamma", True),
        ("initial_soc[0]", True),
        ("pgms", 5),
        ("pgms", {"a": {}}),
        ("bus.v_bus_volt", "1000"),
    ])
    def test_mistyped_values_rejected_at_load(self, path, value, tmp_path,
                                              capsys):
        # a value not of its field's kind names its path instead of failing
        # later or reading as truthy
        d = default_config().to_json_dict()
        set_at(d, path, value)
        assert_config_error(d, path, tmp_path, capsys)

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
        assert_config_error(d, "pcms[0]", tmp_path, capsys)

    def test_degradation_factor_overflow_is_a_config_error(self, tmp_path,
                                                           capsys):
        # exp of the fade exponent at 1e10 C once raised OverflowError
        d = default_config().to_json_dict()
        d["pcms"][0]["degradation"]["c_rate"] = 1e10
        assert_config_error(d, "pcms[0].degradation", tmp_path, capsys)

    @pytest.mark.parametrize("device, side, value", [
        ("pgms[0]", "p_max_w", 1.7e308), ("pcms[0]", "p_min_w", -1.7e308)])
    def test_ramp_reach_overflow_is_a_config_error(self, device, side, value,
                                                   tmp_path, capsys):
        # a horizon QP's step-0 bound is the last setpoint plus or minus
        # the ramp, which must not overflow past the box
        d = default_config().to_json_dict()
        set_at(d, f"{device}.{side}", value)
        set_at(d, f"{device}.ramp_limit_w_per_step", 1e308)
        assert_config_error(
            d, f"{device}: p_max_w + ramp_limit_w_per_step", tmp_path, capsys)

    def test_soc_bound_overflow_is_a_config_error(self, tmp_path, capsys):
        # at a 0.1 s period the SoC coefficient of a 4e301 Ah battery is
        # subnormal and the SoC span over it overflows: the battery's SoC
        # rows were once dropped as if it had no SoC limits
        d = default_config().to_json_dict()
        d["pcms"][0]["capacity_ah"] = 4e301
        d["mpc_period_s"] = d["comm_delay_s"] = 0.1
        assert_config_error(d, "pcms[0]: (soc_max - soc_min)/kappa",
                            tmp_path, capsys)
        # at a 1 s period the span is finite
        d["mpc_period_s"] = d["comm_delay_s"] = 1.0
        from_json_dict(d)

    # the default log has 2 + 1 + 4 columns and a row per 100 plant steps
    # of 1 ms; 1e300 s once failed in np.arange inside Plant, exit code 1
    @pytest.mark.parametrize("duration_s, log_every", [
        (1e300, 100), ((LOG_VALUES_MAX // 7 + 1) * 100 * 1e-3, 100),
        (1e305, 1),  # more values than the largest float
    ], ids=["1e300", "one-row-over", "1e305-every-step"])
    def test_plant_log_size_is_bounded(self, duration_s, log_every,
                                       tmp_path, capsys):
        d = default_config().to_json_dict()
        d["duration_s"], d["log_every"] = duration_s, log_every
        assert_config_error(
            d, f"duration_s ({duration_s}) at log_every ({log_every})",
            tmp_path, capsys)

    def test_plant_log_at_its_bound_is_valid(self):
        dataclasses.replace(default_config(),
                            duration_s=LOG_VALUES_MAX // 7 * 100 * 1e-3
                            ).validate()

    def test_default_config_is_valid(self):
        default_config().validate()

    def test_batteryless_config_is_valid(self):
        cfg = dataclasses.replace(default_config(), pcms=[], initial_soc=[])
        cfg.validate()
