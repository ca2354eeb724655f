"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion alongside the pytest verdicts.
"""

import dataclasses
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fleets import feasible_demand, random_fleet
from shipems import harness
from shipems.config import default_config
from shipems.coordinator import (
    Fleet,
    PcmNodeState,
    PgmNodeState,
    centralized_solve,
    coordinate,
)
from shipems.plant import (
    BusSpec,
    DlcGains,
    PcmSpec,
    PgmSpec,
    Plant,
    capacity_percent,
    loss_percent,
)
from shipems.qp import OPTIMAL, solve
from shipems.sim import LoadProfileSpec, run_scenario
from test_qp import random_instance
from oracles import enumerate_qp


@contextmanager
def report(label):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] FAIL {label}")
        raise
    print(f"\n[ACCEPTANCE] PASS {label}")


def cfg_with(**overrides):
    return dataclasses.replace(default_config(), **overrides)


class TestAcceptance:
    def test_criterion_1_distributed_matches_centralized(self):
        with report("1 distributed vs centralized on 200 random fleets"):
            rng = np.random.default_rng(2024)
            h = 5
            t0 = time.perf_counter()
            worst_power, worst_obj = 0.0, 0.0
            iterations = 0
            for _ in range(200):
                fleet = random_fleet(rng)
                p_f = feasible_demand(rng, fleet, h)
                scale = max(float(np.max(np.abs(p_f))), 1.0)
                cen = centralized_solve(fleet, p_f, tol=1e-9)
                rep = coordinate(fleet, p_f, bal_tol_w=1e-6 * scale,
                                 max_iter=5000)
                assert cen.status == OPTIMAL
                assert rep.converged
                iterations += rep.iterations_used
                dist = np.vstack([r.profile for r in rep.gen]
                                 + [r.profile for r in rep.batt])
                cenp = np.vstack(list(cen.gen_profiles)
                                 + list(cen.batt_profiles))
                power_gap = float(np.max(np.abs(dist - cenp)))
                # relative to the objective's natural scale so demands near
                # the fleet's preferred point cannot divide by almost zero
                obj_gap = abs(rep.objective() - cen.objective) \
                    / max(abs(cen.objective), scale * scale)
                worst_power = max(worst_power, power_gap)
                worst_obj = max(worst_obj, obj_gap)
            elapsed = time.perf_counter() - t0
            assert worst_obj <= 1e-4, f"objective gap {worst_obj}"
            assert worst_power <= 1e-3 * 1e6, f"power gap {worst_power} W"
            # each call starts at the fleet's envelope price
            assert iterations <= 400, f"{iterations} dual iterations"
            assert elapsed < 60.0, f"took {elapsed:.1f}s"

    def test_criterion_2_analytic_two_node_split(self):
        with report("2 analytic two-node KKT point"):
            gen = PgmSpec(rated_power_w=6e6, p_min_w=-1e12, p_max_w=1e12,
                          ramp_limit_w_per_step=1e12, weight_beta=1.0)
            batt = PcmSpec(p_min_w=-1e12, p_max_w=1e12,
                           ramp_limit_w_per_step=1e12, capacity_ah=1e9,
                           soc_min=0.0, soc_max=1.0, weight_gamma=1.0)
            fleet = Fleet(bus=BusSpec(), pgms=[PgmNodeState(gen, 6e6)],
                          pcms=[PcmNodeState(batt, 0.5, 0.0)], td_s=1.0)
            p_f = np.full(5, 10e6)
            rep = coordinate(fleet, p_f, bal_tol_w=0.5, max_iter=5000)
            assert rep.converged
            p_g = rep.gen[0].profile
            p_b = rep.batt[0].profile
            lam = rep.lambda_final
            np.testing.assert_allclose(p_g, 8e6, atol=1.0)  # 1e-6 MW
            np.testing.assert_allclose(p_b, 2e6, atol=1.0)
            # stationarity of both node problems at the returned price
            g_stat = np.abs(1.0 * (p_g - 6e6) + lam).max()
            b_stat = np.abs(1.0 * p_b + lam).max()
            tol = 1e-6 * max(1.0, float(np.abs(lam).max()))
            assert g_stat <= tol
            assert b_stat <= tol

    def test_criterion_3_qp_kernel_vs_enumeration(self):
        with report("3 QP kernel vs active-set enumeration on 500 QPs"):
            rng = np.random.default_rng(77)
            worst_obj, worst_feas = 0.0, 0.0
            for k in range(500):
                qp, q, a, b = random_instance(rng, with_cumsum=(k % 2 == 1))
                sol = solve(qp, q)
                x_ref, obj_ref = enumerate_qp(qp.quad_diag, q, a, b)
                if x_ref is None:
                    assert sol.status != OPTIMAL
                    continue
                assert sol.status == OPTIMAL
                scale = max(1.0, abs(obj_ref))
                worst_obj = max(worst_obj,
                                abs(sol.objective - obj_ref) / scale)
                worst_feas = max(worst_feas, qp.violation(sol.profile))
            assert worst_obj <= 1e-8, f"objective gap {worst_obj}"
            assert worst_feas <= 1e-8, f"feasibility {worst_feas}"

    def test_criterion_4_full_hour_zero_violations(self):
        with report("4 one-hour default run, zero constraint violations"):
            log = run_scenario(default_config())
            assert log.box_violations == 0
            assert log.ramp_violations == 0
            assert log.soc_violations == 0
            assert log.soc_clamp_events == 0
            assert bool(log.mpc_converged.all())

    def test_criterion_5_weight_sweep_trends(self):
        with report("5 sweep trends: battery use, generator energy, fade"):
            cfg = cfg_with(duration_s=60.0)
            grid = [float(v) for v in range(11)]
            slack = 1e-9

            t0 = time.perf_counter()
            rows_g = harness.sweep(cfg, [1.0], grid)
            t_gamma = time.perf_counter() - t0
            batt_g = np.array([r.battery_energy_wh for r in rows_g])
            fade_g = np.array([r.capacity_loss_percent for r in rows_g])
            assert all(r.status == "ok" for r in rows_g)
            assert all(r.shortfall_events == 0 for r in rows_g)
            assert np.all(np.diff(batt_g) <= slack * batt_g[0])
            assert np.all(np.diff(fade_g) <= slack * fade_g[0])
            assert t_gamma < 600.0

            t0 = time.perf_counter()
            rows_b = harness.sweep(cfg, grid, [1.0])
            t_beta = time.perf_counter() - t0
            batt_b = np.array([r.battery_energy_wh for r in rows_b])
            gen_b = np.array([r.generator_energy_wh for r in rows_b])
            assert all(r.status == "ok" for r in rows_b)
            assert all(r.shortfall_events == 0 for r in rows_b)
            assert np.all(np.diff(batt_b) >= -slack * max(batt_b[-1], 1.0))
            # the complementary reading: with the tracking weight dominant
            # the generator pins to rated above the average demand, so its
            # delivered energy grows alongside battery utilization
            assert np.all(np.diff(gen_b) >= -slack * gen_b[0])
            assert t_beta < 600.0

    def test_criterion_6_degradation_properties(self):
        with report("6 degradation: zero use, homogeneity, paired readings"):
            idle = run_scenario(cfg_with(
                duration_s=20.0,
                load=LoadProfileSpec(kind="constant", base_w=36e6)))
            assert idle.final_capacity_loss_ah[0] == 0.0

            steady = dict(
                constant_c_rate=True,
                load=LoadProfileSpec(kind="constant", base_w=41e6))
            short = run_scenario(cfg_with(duration_s=20.0, **steady))
            long = run_scenario(cfg_with(duration_s=40.0, **steady))
            ql_ratio = long.final_capacity_loss_ah[0] \
                / short.final_capacity_loss_ah[0]
            thr_ratio = long.final_throughput_ah[0] \
                / short.final_throughput_ah[0]
            assert thr_ratio > 1.5  # battery actually ran longer
            assert ql_ratio == pytest.approx(thr_ratio, rel=1e-10)

            def capacity_loss(ah):
                # ah amperes for one hour-long plant step: ah Ah through
                # the default battery at its configured C-rate
                cfg = default_config()
                plant = Plant(cfg.bus, cfg.pgms, cfg.pcms, cfg.dlc, 3600.0,
                              cfg.initial_soc, 1, constant_c_rate=True)
                plant.pref_b[0] = ah * cfg.bus.v_bus_volt
                plant.advance(1, 0, np.zeros(1))
                return plant.ql_ah[0]

            assert capacity_loss(2 * 123.4) \
                == pytest.approx(2 * capacity_loss(123.4), rel=1e-12)

            q = default_config().pcms[0].capacity_ah
            ql = float(long.final_capacity_loss_ah[0])
            assert capacity_percent(q, ql) + loss_percent(q, ql) \
                == pytest.approx(100.0, abs=1e-9)

    def test_criterion_7_dlc_settles_within_200ms(self):
        with report("7 current tracking settles within 2% in 0.2 s"):
            bus, spec, gains = BusSpec(), PgmSpec(), DlcGains()
            gains.assert_stable_for(spec)
            dt, i0, i_ref = 1e-3, 36000.0, 38000.0
            plant = Plant(bus, [spec], [], gains, dt, [], 500)
            plant.ig[0] = i0
            plant.integ[0] = spec.resistance_ohm * i0 / gains.ki
            plant.pref_g[0] = i_ref * bus.v_bus_volt
            plant.advance(500, 0, np.zeros(500))
            # the current after each step; the log samples step starts
            traj = np.append(plant.log_ig[1:, 0], plant.ig[0])
            err = np.abs(traj - i_ref)
            outside = np.nonzero(err > 0.02 * abs(i_ref - i0))[0]
            settle_s = (outside[-1] + 2) * dt if outside.size else dt
            assert settle_s <= 0.2, f"settled in {settle_s:.3f}s"

    def test_criterion_8_bit_identical_artifacts(self, tmp_path):
        with report("8 repeated runs write bit-identical CSV artifacts"):
            cfg = cfg_with(duration_s=60.0)
            harness.run_to_artifacts(cfg, str(tmp_path / "a"))
            harness.run_to_artifacts(cfg, str(tmp_path / "b"))
            for name in ("timeseries.csv", "mpc_diag.csv", "summary.csv"):
                a = (tmp_path / "a" / name).read_bytes()
                b = (tmp_path / "b" / name).read_bytes()
                assert a == b, f"{name} differs between runs"

    def test_criterion_9_pulse_covered_by_storage(self):
        with report("9 pulse: ramp-capped generator, battery covers, SoC dips"):
            cfg = cfg_with(duration_s=30.0, log_every=10)
            log = run_scenario(cfg)
            gen = cfg.pgms[0]

            # dispatched steps stay within the ramp, and so does the
            # realized electrical power across any one dispatch period
            applied = np.concatenate(([gen.rated_power_w],
                                      log.applied_gen_w[:, 0]))
            assert np.abs(np.diff(applied)).max() \
                <= gen.ramp_limit_w_per_step + 1e-6
            rows = int(round(cfg.mpc_period_s
                             / (cfg.plant_dt_s * cfg.log_every)))
            p = log.gen_power_w[:, 0]
            slope = np.abs(p[rows:] - p[:-rows])
            assert slope.max() <= gen.ramp_limit_w_per_step + 1e4

            # the pulse at [15, 17) exceeds what the generator can ramp;
            # once the plan lands the battery carries the difference
            t = log.time_s
            covered = (t >= 16.2) & (t < 17.0)
            assert np.all(log.batt_power_w[covered, 0] > 1e6)
            gap = (log.gen_power_w[covered, 0]
                   + log.batt_power_w[covered, 0]
                   - log.load_w[covered])
            assert np.abs(gap).max() < 5e4
            i15 = int(np.argmin(np.abs(t - 15.0)))
            i17 = int(np.argmin(np.abs(t - 17.0)))
            assert log.soc[i17, 0] < log.soc[i15, 0]
