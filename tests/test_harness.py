"""Artifact writing, sweep bookkeeping, solver cross-checks, and the CLI."""

import dataclasses
import json
import os

import numpy as np
import pytest

from shipems import harness
from shipems.cli import main
from shipems.config import ScenarioConfig, default_config
from shipems.plant import PcmSpec, PgmSpec
from shipems.sim import LoadProfileSpec, run_scenario


def short_cfg(**overrides) -> ScenarioConfig:
    base = dict(duration_s=8.0, log_every=1)
    base.update(overrides)
    return dataclasses.replace(default_config(), **base)


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(cfg.to_json(), encoding="utf-8")
    return str(p)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


class TestArtifacts:
    def test_run_to_artifacts_writes_all_files(self, tmp_path):
        cfg = short_cfg()
        log = harness.run_to_artifacts(cfg, str(tmp_path))
        for name in ("timeseries.csv", "mpc_diag.csv", "summary.csv"):
            assert (tmp_path / name).is_file()
        header, rows = read_csv(tmp_path / "timeseries.csv")
        assert header == ["t_s", "p_g0_w", "i_g0_a", "p_b0_w", "i_b0_a",
                          "soc0", "q_loss0_ah", "p_load_w", "residual_w"]
        assert len(rows) == log.time_s.shape[0]

    def test_timeseries_round_trips_exactly(self, tmp_path):
        cfg = short_cfg(log_every=100)
        log = harness.run_to_artifacts(cfg, str(tmp_path))
        _, rows = read_csv(tmp_path / "timeseries.csv")
        data = np.array([[float(v) for v in row] for row in rows])
        assert np.array_equal(data[:, 0], log.time_s)
        assert np.array_equal(data[:, 1], log.gen_power_w[:, 0])
        assert np.array_equal(data[:, 5], log.soc[:, 0])
        assert np.array_equal(data[:, 8], log.balance_residual_w)

    def test_mpc_diag_contents(self, tmp_path):
        cfg = short_cfg()
        log = harness.run_to_artifacts(cfg, str(tmp_path))
        header, rows = read_csv(tmp_path / "mpc_diag.csv")
        assert header[:4] == ["t_s", "iterations", "residual_w", "lambda0"]
        assert len(rows) == len(log.mpc_time_s)
        assert [int(r[1]) for r in rows] == list(log.mpc_iterations)
        assert all(r[4] == "true" for r in rows)

    def test_identical_runs_write_identical_bytes(self, tmp_path):
        cfg = short_cfg()
        harness.run_to_artifacts(cfg, str(tmp_path / "a"))
        harness.run_to_artifacts(cfg, str(tmp_path / "b"))
        for name in ("timeseries.csv", "mpc_diag.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_summary_matches_log_recomputation(self, tmp_path):
        cfg = short_cfg()
        log = run_scenario(cfg)
        row = harness.summarize(cfg, log)
        dt = cfg.plant_dt_s
        batt = np.abs(log.batt_power_w[:, 0]).sum() * dt / 3600.0
        gen = log.gen_power_w[:, 0].sum() * dt / 3600.0
        assert row.battery_energy_wh == pytest.approx(batt, rel=1e-9)
        assert row.generator_energy_wh == pytest.approx(gen, rel=1e-9)
        assert row.capacity_loss_percent + row.capacity_remaining_percent \
            == pytest.approx(100.0, abs=1e-9)
        assert row.status == "ok"

    def test_string_fields_with_commas_are_quoted(self, tmp_path):
        rows = [harness.SweepResultRow(
            beta=1.0, gamma=1.0, battery_energy_wh=0.0,
            generator_energy_wh=0.0, battery_discharge_wh=0.0,
            battery_charge_wh=0.0, capacity_loss_percent=0.0,
            capacity_remaining_percent=100.0, shortfall_events=0,
            status='error: bad, "worse"')]
        path = str(tmp_path / "s.csv")
        harness.write_summary_csv(rows, path)
        text = open(path, encoding="utf-8").read()
        assert '"error: bad, ""worse"""' in text


class TestSweep:
    def test_grid_order_and_values(self, tmp_path):
        cfg = short_cfg(duration_s=6.0)
        rows = harness.sweep(cfg, [1.0, 2.0], [0.5, 1.5],
                             out_dir=str(tmp_path))
        assert [(r.beta, r.gamma) for r in rows] == \
            [(1.0, 0.5), (1.0, 1.5), (2.0, 0.5), (2.0, 1.5)]
        assert all(r.status == "ok" for r in rows)
        header, csv_rows = read_csv(tmp_path / "summary.csv")
        assert header == harness.SUMMARY_HEADER
        assert len(csv_rows) == 4

    def test_cell_failure_recorded_and_sweep_continues(self):
        cfg = short_cfg(duration_s=6.0)
        rows = harness.sweep(cfg, [1.0], [1.0, -3.0])
        assert rows[0].status == "ok"
        assert rows[1].status.startswith("error:")
        assert rows[1].battery_energy_wh == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            harness.sweep(short_cfg(), [], [1.0])

    def test_battery_use_falls_with_its_weight(self):
        cfg = short_cfg(duration_s=20.0, log_every=100)
        rows = harness.sweep(cfg, [1.0], [0.0, 2.0, 8.0])
        energies = [r.battery_energy_wh for r in rows]
        assert energies[0] > energies[1] > energies[2]


class TestVerify:
    def test_default_instance_agrees(self):
        report = harness.verify(short_cfg(), n_perturbations=10)
        assert report.passed
        assert len(report.cases) == 11
        assert report.max_power_gap_w <= harness.VERIFY_POWER_TOL_W
        assert report.max_objective_rel_gap <= harness.VERIFY_OBJ_RTOL

    def test_perturbations_follow_seed(self):
        a = harness.verify(short_cfg(seed=7), n_perturbations=5)
        b = harness.verify(short_cfg(seed=7), n_perturbations=5)
        assert [c.max_power_gap_w for c in a.cases] == \
            [c.max_power_gap_w for c in b.cases]

    def test_infeasible_demand_reported_consistently(self):
        cfg = short_cfg(
            load=LoadProfileSpec(kind="constant", base_w=500e6))
        report = harness.verify(cfg, n_perturbations=3)
        assert report.passed
        assert all("infeasible demand: consistent" in c.note
                   for c in report.cases)

    def test_oracle_calls_after_the_first_reuse_kept_maps(self,
                                                          monkeypatch):
        # every case of `verify` has the config's fleet shape, so the
        # oracle's stacked rows and the active-set maps that certified
        # earlier cases are kept: 4 of the 100 later calls reach `nnls`
        from shipems import coordinator, qp

        oracle, exits = harness.centralized_solve, []

        def counted(*args, **kwargs):
            before = qp.EXITS.copy()
            out = oracle(*args, **kwargs)
            exits.append(qp.EXITS - before)
            return out

        monkeypatch.setattr(harness, "centralized_solve", counted)
        coordinator._fleet_rows.cache_clear()
        assert harness.verify(default_config()).passed
        assert len(exits) == 101
        assert all(sum(e.values()) == 1 for e in exits)
        assert exits[0] == {"nnls": 1}
        reused = sum(e["hint"] + e["memo"] for e in exits[1:])
        assert reused >= 90, exits

    def test_large_fleet_long_horizon(self):
        # six generators and six batteries over ten steps: 120 variables
        # in each monolithic solve
        cfg = short_cfg(pgms=[PgmSpec()] * 6, pcms=[PcmSpec()] * 6,
                        initial_soc=[0.3, 0.4, 0.5, 0.6, 0.7, 0.5],
                        horizon_steps=10,
                        load=LoadProfileSpec(kind="constant", base_w=220e6))
        report = harness.verify(cfg, n_perturbations=20)
        assert report.passed
        assert len(report.cases) == 21
        assert not any(c.note for c in report.cases)  # all feasible
        assert report.max_power_gap_w <= harness.VERIFY_POWER_TOL_W

    def test_batteryless_instance(self):
        cfg = short_cfg(
            pcms=[], initial_soc=[],
            load=LoadProfileSpec(kind="constant", base_w=35e6))
        report = harness.verify(cfg, n_perturbations=5)
        assert report.passed

    def test_report_csv(self, tmp_path):
        report = harness.verify(short_cfg(), n_perturbations=2)
        path = str(tmp_path / "verify_report.csv")
        harness.write_verify_csv(report, path)
        header, rows = read_csv(path)
        assert header[0] == "case"
        assert len(rows) == 3
        assert rows[0][0] == "first_mpc_step"


class TestCli:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, short_cfg())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        assert (out / "timeseries.csv").is_file()
        assert "violations: box=0" in capsys.readouterr().out

    def test_log_every_flag_thins_timeseries(self, tmp_path):
        cfg_path = write_cfg(tmp_path, short_cfg())
        out_full = tmp_path / "full"
        out_thin = tmp_path / "thin"
        main(["run", "--config", cfg_path, "--out", str(out_full)])
        main(["run", "--config", cfg_path, "--out", str(out_thin),
              "--log-every", "1000"])
        _, full_rows = read_csv(out_full / "timeseries.csv")
        _, thin_rows = read_csv(out_thin / "timeseries.csv")
        assert len(full_rows) == 1000 * len(thin_rows)

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        d = default_config().to_json_dict()
        d["horizon_steps"] = 0
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d), encoding="utf-8")
        assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "horizon_steps" in capsys.readouterr().err

    def test_mistyped_config_exits_2(self, tmp_path, capsys):
        d = default_config().to_json_dict()
        d["log_every"] = 2.5
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d), encoding="utf-8")
        assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "log_every" in err

    def test_sweep_csv_and_exit(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, short_cfg(duration_s=6.0))
        out = tmp_path / "sw"
        code = main(["sweep", "--config", cfg_path, "--out", str(out),
                     "--beta", "1", "--gamma", "0,2"])
        assert code == 0
        _, rows = read_csv(out / "summary.csv")
        assert len(rows) == 2
        assert "beta,gamma" in capsys.readouterr().out

    def test_sweep_stdout_rows_are_the_summary_lines(self, tmp_path, capsys):
        # the failed cell's status is an error message, quoted in the CSV
        cfg_path = write_cfg(tmp_path, short_cfg(duration_s=6.0))
        out = tmp_path / "sw"
        code = main(["sweep", "--config", cfg_path, "--out", str(out),
                     "--beta", "1", "--gamma", "0.5,-1"])
        assert code == 1
        with open(out / "summary.csv", "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert capsys.readouterr().out.splitlines() == lines
        assert len(lines) == 3

    def test_sweep_bad_list_exits_2(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, short_cfg())
        code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--beta", "1", "--gamma", "x,y"])
        assert code == 2
        assert "--gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,values", [
        ("--beta", "nan"), ("--beta", "1,inf"), ("--gamma", "1,-inf"),
    ])
    def test_sweep_non_finite_value_exits_2_before_any_cell(
            self, tmp_path, capsys, monkeypatch, flag, values):
        # the config loader rejects such a weight: a config error naming
        # the flag, not a sweep of failed cells
        def no_work(*args, **kwargs):
            raise AssertionError("ran a sweep cell")

        monkeypatch.setattr(harness, "sweep", no_work)
        cfg_path = write_cfg(tmp_path, short_cfg())
        grid = {"--beta": "1", "--gamma": "1", flag: values}
        code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--beta", grid["--beta"], "--gamma", grid["--gamma"]])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "finite" in err

    def test_sweep_failed_cell_exits_1(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, short_cfg(duration_s=6.0))
        code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--beta", "1", "--gamma", "-1"])
        assert code == 1
        assert "failed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run"],
        ["sweep", "--beta", "1", "--gamma", "1"],
        ["verify"],
    ])
    def test_out_that_is_a_file_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, command):
        # exit 2 is an I/O error; 1 would read as a failed verification
        def no_work(*args, **kwargs):
            raise AssertionError("ran before the output directory existed")

        for name in ("run_to_artifacts", "sweep", "verify"):
            monkeypatch.setattr(harness, name, no_work)
        cfg_path = write_cfg(tmp_path, short_cfg())
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        code = main([command[0], "--config", cfg_path, "--out", str(taken),
                     *command[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert "I/O error" in err and "Traceback" not in err

    def test_verify_passes_on_default(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, short_cfg())
        out = tmp_path / "ver"
        code = main(["verify", "--config", cfg_path, "--out", str(out)])
        assert code == 0
        assert (out / "verify_report.csv").is_file()
        assert "PASS" in capsys.readouterr().out


class TestBatterylessRun:
    def test_scenario_without_batteries(self):
        cfg = short_cfg(
            pcms=[], initial_soc=[],
            load=LoadProfileSpec(kind="constant", base_w=35e6))
        log = run_scenario(cfg)
        assert log.batt_power_w.shape == (8000, 0)
        assert log.box_violations == 0
        row = harness.summarize(cfg, log)
        assert row.battery_energy_wh == 0.0
        assert row.capacity_remaining_percent == 100.0
