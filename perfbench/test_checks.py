"""Each benchmark check passes on correct output and fails on wrong output.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import shipems  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from shipems import (  # noqa: E402
    BusSpec, Fleet, LoadProfileSpec, PcmNodeState, PcmSpec, PgmNodeState,
    PgmSpec, default_config, run_scenario)


def two_device_fleet(demand_w=50e6, soc=0.6):
    fleet = Fleet(bus=BusSpec(),
                  pgms=[PgmNodeState(PgmSpec(), 40e6)],
                  pcms=[PcmNodeState(PcmSpec(), soc, 20e6)])
    return fleet, np.full(5, demand_w)


@pytest.fixture(scope="module")
def crosscheck_case():
    # a fleet with two generators and a battery, from criterion 1
    fleet, p_f = next((f, p) for f, p in workloads.criterion1_fleets(
        shipems, 12) if len(f.pgms) == 2 and len(f.pcms) >= 1)
    tol = workloads.XC_BAL_TOL_REL * float(np.max(p_f))
    rep = shipems.coordinate(fleet, p_f, bal_tol_w=tol,
                             max_iter=workloads.XC_MAX_ITER)
    cen = shipems.centralized_solve(fleet, p_f,
                                    tol=workloads.XC_ORACLE_TOL)
    return fleet, p_f, tol, rep, cen


def test_crosscheck_passes_on_solver_output(crosscheck_case):
    assert workloads.FleetCrosscheck.fleet_checks(*crosscheck_case) == []


def test_perturbed_allocation_fails_kkt_and_agreement(crosscheck_case):
    fleet, p_f, tol, rep, cen = crosscheck_case
    devices = checks.fleet_devices(fleet, p_f.size)
    profiles = [p.copy() for p in checks.report_profiles(rep)]
    # move 100 kW from the first generator to the second at every step
    profiles[0] -= 1e5
    profiles[1] += 1e5
    assert checks.check_balance(profiles, p_f, tol) == []
    assert checks.check_kkt(devices, profiles, rep.lambda_final)
    oracle = list(cen.gen_profiles) + list(cen.batt_profiles)
    assert checks.check_agreement(devices, profiles, oracle, p_f)


def test_kkt_fails_at_a_wrong_price(crosscheck_case):
    fleet, p_f, _, rep, _ = crosscheck_case
    devices = checks.fleet_devices(fleet, p_f.size)
    profiles = checks.report_profiles(rep)
    assert checks.check_kkt(devices, profiles, rep.lambda_final) == []
    assert checks.check_kkt(devices, profiles, rep.lambda_final * 1.01)


def test_feasibility_flags_a_ramp_violation():
    fleet, _ = two_device_fleet()
    devices = checks.fleet_devices(fleet, 5)
    ok = np.full(5, 39e6)
    assert checks.check_feasible(devices[:1], [ok], "x") == []
    jump = np.array([39e6, 39e6, 36.9e6, 36.9e6, 36.9e6])  # 2.1 MW > 2 MW
    assert checks.check_feasible(devices[:1], [jump], "x")


def test_shortfall_hand_case_65_against_60_mw():
    fleet, p_f = two_device_fleet(65e6)
    devices = checks.fleet_devices(fleet, 5)
    lp = checks.min_shortfall_w(devices, p_f)
    assert lp == pytest.approx(5e6, abs=1.0)
    assert checks.check_shortfall(5e6, False, lp, p_f) == []
    assert checks.check_shortfall(5e6 + 1e3, False, lp, p_f)
    assert checks.check_shortfall(5e6 - 1e3, False, lp, p_f)
    assert checks.check_shortfall(5e6, True, lp, p_f)


def test_shortfall_lp_holds_the_soc_floor():
    # 0.002 of SoC above the floor is 72 MJ: the battery can add 14.4 MW
    # on average over five 1 s steps, so 10.6 MW of 65 MW stays unmet
    fleet, p_f = two_device_fleet(65e6, soc=0.102)
    lp = checks.min_shortfall_w(checks.fleet_devices(fleet, 5), p_f)
    assert lp == pytest.approx(10.6e6, abs=1.0)


def test_shortfall_matches_coordinate_when_demand_is_met():
    fleet, p_f = two_device_fleet(50e6)
    devices = checks.fleet_devices(fleet, 5)
    lp = checks.min_shortfall_w(devices, p_f)
    rep = shipems.coordinate(fleet, p_f)
    assert lp == pytest.approx(0.0, abs=1.0)
    assert checks.check_shortfall(rep.shortfall_w, rep.converged, lp,
                                  p_f) == []


@pytest.fixture(scope="module")
def short_run():
    cfg = dataclasses.replace(default_config(), duration_s=30.0)
    return cfg, run_scenario(cfg)


def test_battery_recount_passes_and_catches_a_wrong_soc(short_run):
    cfg, log = short_run
    rc = checks.recount_batteries(cfg, log.applied_time_s,
                                  log.applied_batt_w)
    assert log.batt_abs_energy_wh[0] > 0.0
    assert checks.check_battery_recount(cfg, log, rc) == []
    wrong = dataclasses.replace(log, final_soc=log.final_soc + 1e-6)
    assert checks.check_battery_recount(cfg, wrong, rc)
    wrong = dataclasses.replace(
        log, final_capacity_loss_ah=log.final_capacity_loss_ah * 1.001)
    assert checks.check_battery_recount(cfg, wrong, rc)


def test_load_energy_closed_form():
    pulse = LoadProfileSpec(kind="pulse_train", base_w=30e6,
                            amplitude_w=10e6, period_s=10.0,
                            duty_fraction=0.2, start_s=5.0)
    # 30 MW for 30 s, plus 10 MW during [5, 7), [15, 17) and [25, 27)
    assert checks.load_energy_wh(pulse, 30.0) == pytest.approx(
        (30e6 * 30 + 10e6 * 6) / 3600, rel=1e-15)
    # a pulse cut by the end of the run counts only up to the end
    assert checks.load_energy_wh(pulse, 26.0) == pytest.approx(
        (30e6 * 26 + 10e6 * 5) / 3600, rel=1e-15)


def test_load_energy_check_catches_one_extra_step(short_run):
    cfg, log = short_run
    const = dataclasses.replace(
        cfg, load=LoadProfileSpec(kind="constant", base_w=30e6))
    exact = dataclasses.replace(log, load_energy_wh=30e6 * 30 / 3600)
    assert checks.check_load_energy(const, exact) == []
    # one extra 1 ms step of a 10 MW pulse
    off = dataclasses.replace(
        exact, load_energy_wh=exact.load_energy_wh + 10e6 * 1e-3 / 3600)
    assert checks.check_load_energy(const, off)


def test_setpoint_check_flags_box_and_ramp():
    spec = PgmSpec()
    ok = np.array([[37e6], [39e6], [40e6]])
    assert checks.check_setpoints([spec], [36e6], ok) == [[], [], []]
    bad = np.array([[38.5e6], [40.1e6]])
    out = checks.check_setpoints([spec], [36e6], bad)
    assert "ramp" in out[0][0] and "box" in out[1][0]


def test_summary_check_reads_the_capacity_readings(short_run):
    cfg, log = short_run
    rc = checks.recount_batteries(cfg, log.applied_time_s,
                                  log.applied_batt_w)
    energy = repr(float(rc["abs_wh"].sum()))
    head = "battery_energy_wh,capacity_loss_percent," \
           "capacity_remaining_percent\n"
    good = head + f"{energy},0.25,99.75\n"
    assert checks.check_summary_csv(good, rc) == []
    assert checks.check_summary_csv(head + f"{energy},0.25,99.8\n", rc)
    assert checks.check_summary_csv(head + "1.0,0.25,99.75\n", rc)


def test_missing_entry_point_is_absent_not_zero():
    mod = types.ModuleType("fake")
    mod.solve = lambda x: x
    points = [("qp", mod, "solve", "qp.solve", None),
              ("oracle", mod, "centralized_solve", "centralized_solve", None)]
    tracer = tracing.Tracer(points)
    tracer.install()
    try:
        with tracer.span("round"):
            mod.solve(1)
    finally:
        tracer.uninstall()
    assert tracer.absent == {"oracle": ["fake.centralized_solve"]}
    metrics, problems = tracing.layer_metrics(tracer, ["qp", "oracle"],
                                              1.0, 1.0)
    assert not any(k.startswith("oracle.") for k in metrics)
    assert any("oracle" in p for p in problems)


def test_used_layer_without_spans_fails_the_trace():
    mod = types.ModuleType("fake")
    mod.run = lambda: None
    tracer = tracing.Tracer([("plant", mod, "run", "run_scenario", None)])
    tracer.install()
    tracer.uninstall()
    _, problems = tracing.layer_metrics(tracer, ["plant"], 1.0, 1.0)
    assert problems == ["layer plant is used but recorded no span"]


def test_self_times_add_up_to_the_round():
    mod = types.ModuleType("fake")
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: [mod.inner() for _ in range(3)]
    tracer = tracing.Tracer([
        ("nodes", mod, "inner", "pgm_solve", None),
        ("coord", mod, "outer", "coordinate", None)])
    tracer.install()
    try:
        with tracer.span("round"):
            mod.outer()
    finally:
        tracer.uninstall()
    m, _ = tracing.layer_metrics(tracer, [], 1.0, 1.0)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    parts = m["coord.self_s"]["value"] + m["nodes.self_s"]["value"] \
        + m["trace.glue_s"]["value"]
    assert parts == pytest.approx(total, rel=1e-9)
    assert m["nodes.calls"]["value"] == 3
