"""Closed-loop engine tests: load profiles, current tracking, scenario runs."""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shipems.sim
from oracles import centralized_policy, min_shortfall_w
from shipems.config import (
    ScenarioConfig,
    SolverConfig,
    default_config,
    from_json_dict,
    load_config,
)
from shipems.coordinator import default_balance_tol_w
from shipems.plant import BusSpec, DlcGains, PcmSpec, PgmSpec, Plant
from shipems.sim import LoadProfileSpec, load_at, run_scenario


DEFAULT_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                            "default.json")


def short_cfg(**overrides) -> ScenarioConfig:
    base = dict(duration_s=10.0, log_every=1)
    base.update(overrides)
    return dataclasses.replace(default_config(), **base)


class TestLoadProfiles:
    def test_constant(self):
        spec = LoadProfileSpec(kind="constant", base_w=10e6)
        assert load_at(0.0, spec) == 10e6
        assert load_at(1234.5, spec) == 10e6

    def test_pulse_train_values(self):
        spec = LoadProfileSpec(kind="pulse_train", base_w=5e6,
                               amplitude_w=20e6, period_s=10.0,
                               duty_fraction=0.2, start_s=0.0)
        assert load_at(1.0, spec) == 25e6
        assert load_at(3.0, spec) == 5e6

    def test_pulse_train_boundaries(self):
        spec = LoadProfileSpec(kind="pulse_train", base_w=5e6,
                               amplitude_w=20e6, period_s=10.0,
                               duty_fraction=0.2, start_s=0.0)
        assert load_at(0.0, spec) == 25e6  # fractional position 0 is on
        assert load_at(2.0, spec) == 5e6  # exactly at duty edge is off
        assert load_at(10.0, spec) == 25e6  # next period restarts

    def test_pulse_train_before_start(self):
        spec = LoadProfileSpec(kind="pulse_train", base_w=5e6,
                               amplitude_w=20e6, period_s=10.0,
                               duty_fraction=0.2, start_s=5.0)
        assert load_at(4.999, spec) == 5e6
        assert load_at(5.0, spec) == 25e6

    def test_ramp(self):
        spec = LoadProfileSpec(kind="ramp", base_w=2e6, slope_w_per_s=1e6,
                               start_s=0.0)
        assert load_at(7.0, spec) == 2e6 + 7e6
        spec2 = LoadProfileSpec(kind="ramp", base_w=2e6, slope_w_per_s=1e6,
                                start_s=3.0)
        assert load_at(2.0, spec2) == 2e6
        assert load_at(5.0, spec2) == 4e6

    def test_step(self):
        spec = LoadProfileSpec(kind="step", base_w=1e6, amplitude_w=2e6,
                               start_s=4.0)
        assert load_at(3.999, spec) == 1e6
        assert load_at(4.0, spec) == 3e6

    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1,
                    max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_vectorized_matches_scalar(self, times):
        spec = LoadProfileSpec(kind="pulse_train", base_w=3e6,
                               amplitude_w=7e6, period_s=12.5,
                               duty_fraction=0.37, start_s=2.0)
        vec = load_at(np.array(times), spec)
        for t, v in zip(times, vec):
            assert v == load_at(t, spec)

    def test_pulse_edges_on_the_plant_grid(self):
        # 300 s of the shipped config: 30 pulses of 2 s, sampled at 1 ms
        cfg = dataclasses.replace(load_config(DEFAULT_JSON), duration_s=300.0)
        n = int(round(cfg.duration_s / cfg.plant_dt_s))
        t = np.arange(n) * cfg.plant_dt_s
        on = load_at(t, cfg.load) > cfg.load.base_w
        assert np.count_nonzero(on) == 60000
        log = run_scenario(cfg)
        spec = cfg.load
        width = spec.duty_fraction * spec.period_s
        pulses = math.ceil((cfg.duration_s - spec.start_s) / spec.period_s)
        on_s = sum(min(width, cfg.duration_s - spec.start_s - k * spec.period_s)
                   for k in range(pulses))
        want = (spec.base_w * cfg.duration_s + spec.amplitude_w * on_s) / 3600.0
        assert log.load_energy_wh == pytest.approx(want, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadProfileSpec(kind="sawtooth")
        with pytest.raises(ValueError):
            LoadProfileSpec(kind="pulse_train", duty_fraction=0.0)
        with pytest.raises(ValueError):
            LoadProfileSpec(kind="pulse_train", duty_fraction=1.0)
        with pytest.raises(ValueError):
            LoadProfileSpec(kind="pulse_train", period_s=0.0)
        with pytest.raises(ValueError):
            LoadProfileSpec(kind="constant", start_s=-1.0)
        with pytest.raises(ValueError):
            load_at(-0.5, LoadProfileSpec())


class TestDlcGains:
    def test_default_gains_stable_for_default_generator(self):
        DlcGains().assert_stable_for(PgmSpec())

    def test_zero_integral_gain_rejected_as_marginal(self):
        # ki=0 leaves a closed-loop root at the origin
        with pytest.raises(ValueError):
            DlcGains(kp=0.13, ki=0.0).assert_stable_for(PgmSpec())

    def test_negative_gains_rejected(self):
        with pytest.raises(ValueError):
            DlcGains(kp=-0.1, ki=1.0)
        with pytest.raises(ValueError):
            DlcGains(kp=0.1, ki=-1.0)
        with pytest.raises(ValueError):
            DlcGains(integrator_limit=0.0)

    @staticmethod
    def _generator(gains, i0, i_ref, dt=1e-3, n=1, integ=0.0):
        """A default generator at current i0 and integrator state integ,
        tracking i_ref for n plant steps; returns the plant."""
        bus = BusSpec()
        plant = Plant(bus, [PgmSpec()], [], gains, dt, [], n)
        plant.ig[0], plant.integ[0] = i0, integ
        plant.pref_g[0] = i_ref * bus.v_bus_volt
        plant.advance(n, 0, np.zeros(n))
        return plant

    def test_tracked_zero_state_commands_bus_voltage(self):
        # v_g = v_bus drives no current, so the zero state stays put
        plant = self._generator(DlcGains(), 0.0, 0.0)
        assert plant.ig[0] == 0.0
        assert plant.integ[0] == 0.0

    def test_proportional_only_voltage(self):
        gains = DlcGains(kp=0.5, ki=0.0)
        e = 120.0
        plant = self._generator(gains, 30.0, 150.0)
        spec = PgmSpec()
        # v_g = 1000 - kp*e, held over the exact RL step
        dv = gains.kp * e
        decay = math.exp(-spec.resistance_ohm * 1e-3 / spec.inductance_henry)
        assert plant.ig[0] \
            == 30.0 * decay + (dv / spec.resistance_ohm) * (1.0 - decay)

    def test_integrator_accumulates_and_clamps(self):
        gains = DlcGains(kp=0.0, ki=1.0, integrator_limit=5.0)
        z = self._generator(gains, 0.0, 10.0, dt=0.5).integ[0]
        assert z == 5.0  # raw update 10*0.5 exceeds the clamp
        z = self._generator(gains, 0.0, -10.0, dt=0.1).integ[0]
        assert z == -1.0

    def test_bad_dt_rejected(self):
        # a zero plant step never reaches the tracker
        with pytest.raises(ValueError):
            dataclasses.replace(default_config(), plant_dt_s=0.0).validate()

    def _track_step(self, gains, i0, i_ref, dt=1e-3, t_end=0.5):
        n = int(round(t_end / dt))
        plant = self._generator(gains, i0, i_ref, dt, n,
                                integ=PgmSpec().resistance_ohm * i0 / gains.ki)
        # the log holds the current at each step start: after 0..n-1 steps
        return np.append(plant.log_ig[1:, 0], plant.ig[0])

    def test_step_settles_within_two_percent_by_200ms(self):
        gains = DlcGains()
        i0, i_ref = 36000.0, 38000.0
        traj = self._track_step(gains, i0, i_ref)
        band = 0.02 * abs(i_ref - i0)
        outside = np.nonzero(np.abs(traj - i_ref) > band)[0]
        settle_s = (outside[-1] + 2) * 1e-3 if outside.size else 1e-3
        assert settle_s <= 0.2

    def test_tracking_is_symmetric_for_downward_steps(self):
        gains = DlcGains()
        traj = self._track_step(gains, 38000.0, 36000.0)
        band = 0.02 * 2000.0
        assert np.abs(traj[200:] - 36000.0).max() <= band


class TestRunScenarioSteadyState:
    def test_demand_at_rated_keeps_battery_at_rest(self):
        cfg = short_cfg(load=LoadProfileSpec(kind="constant", base_w=36e6))
        log = run_scenario(cfg)
        assert np.allclose(log.applied_gen_w, 36e6, atol=1e-6)
        assert np.allclose(log.applied_batt_w, 0.0, atol=1e-6)
        # plant starts at the tracked equilibrium, so the bus stays balanced
        assert np.abs(log.balance_residual_w).max() < 1.0
        assert log.final_capacity_loss_ah[0] == 0.0
        assert np.all(log.soc == cfg.initial_soc[0])

    def test_zero_load_zero_rated_stays_at_zero(self):
        gen = PgmSpec(rated_power_w=0.0, p_min_w=0.0)
        cfg = short_cfg(
            pgms=[gen],
            load=LoadProfileSpec(kind="constant", base_w=0.0),
        )
        log = run_scenario(cfg)
        assert np.all(log.applied_gen_w == 0.0)
        assert np.all(log.applied_batt_w == 0.0)
        assert np.all(log.gen_power_w == 0.0)
        assert np.all(log.balance_residual_w == 0.0)

    def test_initial_hold_until_first_application(self):
        cfg = short_cfg()
        log = run_scenario(cfg)
        assert log.applied_time_s[0] == cfg.comm_delay_s
        first = log.time_s < cfg.comm_delay_s
        assert np.allclose(log.gen_power_w[first, 0], 36e6, rtol=1e-9)
        assert np.all(log.batt_power_w[first, 0] == 0.0)

    def test_integer_rated_power_runs_as_float(self):
        # a JSON integer must not make the setpoints an integer array,
        # which would truncate every applied plan to whole watts
        d = short_cfg(duration_s=5.0).to_json_dict()
        d["pgms"][0]["rated_power_w"] = 36_000_000
        as_int = run_scenario(from_json_dict(d))
        d["pgms"][0]["rated_power_w"] = 36_000_000.0
        as_float = run_scenario(from_json_dict(d))
        assert as_int.gen_power_w.tobytes() == as_float.gen_power_w.tobytes()
        assert as_int.gen_energy_wh.tobytes() \
            == as_float.gen_energy_wh.tobytes()

    def test_zero_comm_delay_applies_immediately(self):
        cfg = short_cfg(comm_delay_s=0.0,
                        load=LoadProfileSpec(kind="constant", base_w=30e6))
        log = run_scenario(cfg)
        assert log.applied_time_s[0] == 0.0
        assert len(log.applied_time_s) == len(log.mpc_time_s)
        # past the ramp-down transitions the bus stays balanced
        settled = log.time_s > 2.5
        assert np.abs(log.balance_residual_w[settled]).max() < 5e3


class TestSocFloor:
    def test_demand_above_fleet_near_soc_floor(self, monkeypatch):
        # 65 MW against a 60 MW fleet with the battery 0.002 above its SoC
        # floor: every step falls short, by exactly the least shortfall any
        # allocation within the limits leaves
        steps = []
        coordinate = shipems.sim.coordinate

        def recorded(fleet, p_f, **kwargs):
            rep = coordinate(fleet, p_f, **kwargs)
            steps.append((fleet, np.array(p_f), rep))
            return rep

        monkeypatch.setattr(shipems.sim, "coordinate", recorded)
        cfg = short_cfg(duration_s=30.0, initial_soc=[0.102], log_every=100,
                        load=LoadProfileSpec(kind="constant", base_w=65e6))
        log = run_scenario(cfg)
        assert log.shortfall_events == 30
        assert log.soc_violations == 0
        assert len(steps) == 30
        for k, (fleet, p_f, rep) in enumerate(steps):
            lp = min_shortfall_w(fleet, p_f)
            assert log.mpc_shortfall_w[k] == rep.shortfall_w
            assert abs(rep.shortfall_w - lp) <= 1e-5 * 65e6, (k, lp)


class TestSocLimits:
    def test_plan_in_flight_past_the_soc_ceiling(self, monkeypatch):
        # the battery charges 0.5e-3 below its ceiling; each step plans
        # from the SoC the plan in flight leaves when the new plan applies
        # 1 s later, so the plant never passes the ceiling
        socs = []
        coordinate = shipems.sim.coordinate

        def recorded(fleet, p_f, **kwargs):
            socs.append([b.soc for b in fleet.pcms])
            return coordinate(fleet, p_f, **kwargs)

        monkeypatch.setattr(shipems.sim, "coordinate", recorded)
        cfg = dataclasses.replace(
            default_config(), duration_s=30.0, initial_soc=[0.8995],
            load=LoadProfileSpec(kind="constant", base_w=20e6))
        log = run_scenario(cfg)
        assert len(log.mpc_time_s) == 30
        assert log.soc_violations == 0
        planned = np.array(socs)
        assert np.all(planned >= cfg.pcms[0].soc_min)
        assert np.all(planned <= cfg.pcms[0].soc_max)

    def test_battery_that_cannot_come_to_rest(self):
        # with a one-step horizon each plan drains the battery to its floor
        # at a power its ramp cannot shed in one step, so the next step has
        # no plan from its setpoint: it plans from rest, and the jump from
        # 9 MW counts as a ramp violation
        cfg = dataclasses.replace(
            default_config(), duration_s=10.0, horizon_steps=1,
            comm_delay_s=0.0, initial_soc=[0.3],
            pcms=[PcmSpec(capacity_ah=100.0, p_min_w=-10e6, p_max_w=10e6,
                          ramp_limit_w_per_step=3e6, soc_min=0.24)],
            load=LoadProfileSpec(kind="constant", base_w=50e6))
        log = run_scenario(cfg)
        assert len(log.mpc_time_s) == 10
        assert log.ramp_violations == 1
        assert log.soc_violations == 0
        assert np.all(log.soc[:, 0] >= 0.24 - 1e-9)


@st.composite
def closed_loop_configs(draw):
    """Small random fleets, loads and delays at a coarse plant step; the
    config may be invalid. The dual iteration budget is drawn too, so that
    steps which spend all of it stay cheap."""
    u = lambda lo, hi: draw(st.floats(lo, hi))  # noqa: E731
    weight = st.one_of(st.just(0.0), st.floats(0.1, 10.0))
    pgms = []
    for _ in range(draw(st.integers(1, 2))):
        p_max = u(5e6, 40e6)
        p_min = p_max * u(0.0, 0.5)
        pgms.append(PgmSpec(
            rated_power_w=u(p_min, p_max),
            p_min_w=p_min, p_max_w=p_max,
            ramp_limit_w_per_step=(p_max - p_min) * u(0.05, 1.0),
            weight_beta=draw(weight)))
    pcms, soc0 = [], []
    for _ in range(draw(st.integers(0, 2))):
        p_max = u(1e6, 20e6)
        p_min = -p_max * u(0.2, 1.0)
        soc_min, soc_max = u(0.05, 0.3), u(0.7, 0.95)
        pcms.append(PcmSpec(
            capacity_ah=u(20.0, 500.0), p_min_w=p_min, p_max_w=p_max,
            ramp_limit_w_per_step=(p_max - p_min) * u(0.05, 1.0),
            soc_min=soc_min, soc_max=soc_max, weight_gamma=draw(weight)))
        soc0.append(draw(st.one_of(st.just(soc_min), st.just(soc_max),
                                   st.floats(soc_min, soc_max))))
    load = LoadProfileSpec(
        kind=draw(st.sampled_from(shipems.sim.LOAD_KINDS)),
        base_w=u(0.0, 80e6), amplitude_w=u(-20e6, 40e6),
        period_s=u(1.0, 8.0), duty_fraction=u(0.1, 0.9),
        start_s=u(0.0, 5.0), slope_w_per_s=u(-5e6, 5e6))
    return ScenarioConfig(
        pgms=pgms, pcms=pcms, initial_soc=soc0, load=load,
        horizon_steps=draw(st.integers(1, 5)), plant_dt_s=0.01,
        comm_delay_s=draw(st.sampled_from([0.0, 0.3, 1.0])),
        duration_s=float(draw(st.integers(10, 20))), log_every=100,
        solver=SolverConfig(max_iter=draw(st.integers(1, 150)),
                            load_preview=draw(st.booleans())))


class TestClosedLoopProperty:
    @given(cfg=closed_loop_configs())
    @settings(max_examples=30, deadline=None)
    def test_valid_configs_run_to_completion(self, cfg):
        try:
            cfg.validate()
        except ValueError:
            return
        log = run_scenario(cfg)
        steps = int(round(cfg.duration_s / cfg.mpc_period_s))
        assert len(log.mpc_time_s) == steps
        assert len(log.mpc_converged) == len(log.mpc_shortfall_w) == steps
        assert log.shortfall_events == int(np.sum(~log.mpc_converged))


class TestSustainedShortfall:
    def test_steps_end_at_the_least_shortfall(self, monkeypatch):
        # 65 MW against a 60 MW fleet with the battery far from its SoC
        # floor: each step ends once its best iterate attains the fleet's
        # reach bound, long before the 100th dual iteration
        steps = []
        coordinate = shipems.sim.coordinate

        def recorded(fleet, p_f, **kwargs):
            rep = coordinate(fleet, p_f, **kwargs)
            steps.append((fleet, np.array(p_f)))
            return rep

        monkeypatch.setattr(shipems.sim, "coordinate", recorded)
        cfg = short_cfg(duration_s=30.0, initial_soc=[0.6], log_every=100,
                        load=LoadProfileSpec(kind="constant", base_w=65e6))
        log = run_scenario(cfg)
        assert log.shortfall_events == 30
        assert len(steps) == 30
        assert log.mpc_iterations.max() < 100
        for k, (fleet, p_f) in enumerate(steps):
            lp = min_shortfall_w(fleet, p_f)
            assert abs(log.mpc_shortfall_w[k] - lp) <= 1e-5 * 65e6, (k, lp)

    @pytest.mark.parametrize("short_w, soc", [(2e6, 0.5), (5e6, 0.6),
                                              (8e6, 0.7)])
    def test_every_step_exits_on_the_reach_bound_at_once(self, short_w, soc,
                                                         monkeypatch):
        # a constant demand 2-8 MW above the fleet's maximum, the battery
        # far from its floor (the benchmark's shortfall scenario): every
        # step starts cold, at the saturating price, and its first iterate
        # attains the reach bound
        reports = []
        coordinate = shipems.sim.coordinate

        def recorded(fleet, p_f, **kwargs):
            reports.append(coordinate(fleet, p_f, **kwargs))
            return reports[-1]

        monkeypatch.setattr(shipems.sim, "coordinate", recorded)
        base = default_config()
        p_max = sum(s.p_max_w for s in base.pgms + base.pcms)
        cfg = short_cfg(duration_s=30.0, initial_soc=[soc], log_every=100,
                        load=LoadProfileSpec(kind="constant",
                                             base_w=p_max + short_w))
        run_scenario(cfg)
        assert len(reports) == 30
        assert {(r.exit, r.iterations_used) for r in reports} == {("reach", 1)}


class TestWarmStart:
    def test_each_step_starts_from_the_shifted_price(self, monkeypatch):
        # a step starts from the previous price shifted one step when the
        # previous plan, shifted the same way, balances the new demand;
        # otherwise it starts cold, and the shifted price would have cost
        # one more iteration for bitwise the same answer
        calls = []
        coordinate = shipems.sim.coordinate

        def recorded(fleet, p_f, lambda_warm=None, **kwargs):
            rep = coordinate(fleet, p_f, lambda_warm=lambda_warm, **kwargs)
            calls.append((fleet, p_f, lambda_warm, kwargs, rep))
            return rep

        monkeypatch.setattr(shipems.sim, "coordinate", recorded)
        run_scenario(short_cfg(duration_s=20.0, log_every=100))
        assert len(calls) == 20
        assert calls[0][2] is None
        cold = 0
        for prev, (fleet, p_f, warm, kwargs, rep) in zip(
                [c[4] for c in calls], calls[1:]):
            assert prev.converged
            shifted = np.append(prev.lambda_final[1:], prev.lambda_final[-1])
            total = prev.total_power()
            miss = np.max(np.abs(np.append(total[1:], total[-1]) - p_f))
            if miss <= default_balance_tol_w(p_f):
                assert warm.tobytes() == shifted.tobytes()
                continue
            cold += 1
            assert warm is None
            again = coordinate(fleet, p_f, lambda_warm=shifted, **kwargs)
            assert again.iterations_used == 2
            assert [r.profile.tobytes() for r in again.gen + again.batt] \
                == [r.profile.tobytes() for r in rep.gen + rep.batt]
        assert cold > 0  # the pulse edges

    def test_default_run_dual_iterations(self):
        # 300 dual iterations over the 300 steps: a step whose shifted
        # plan misses the new demand starts at the envelope price (360
        # when every step tried the shifted price first, 1092 when a miss
        # went on by ascent, 1785 with the price reused unshifted)
        log = run_scenario(short_cfg(duration_s=300.0, log_every=1000))
        assert log.mpc_converged.all()
        assert int(log.mpc_iterations.sum()) <= 330


class TestCentralizedLoop:
    def test_default_run_follows_the_centralized_policy(self, monkeypatch):
        # the same closed loop with every step allocated by the monolithic
        # solve instead: each applied setpoint within its step's balance
        # tolerance, and the same final SoC and fade
        cfg = short_cfg(duration_s=300.0, log_every=1000)
        demands = []
        coordinate = shipems.sim.coordinate

        def recorded(fleet, p_f, **kwargs):
            demands.append(p_f)
            return coordinate(fleet, p_f, **kwargs)

        monkeypatch.setattr(shipems.sim, "coordinate", recorded)
        dist = run_scenario(cfg)
        monkeypatch.setattr(shipems.sim, "coordinate", centralized_policy)
        cen = run_scenario(cfg)
        tol = np.array([default_balance_tol_w(p_f) for p_f in demands])
        applied = len(dist.applied_time_s)
        assert applied == len(cen.applied_time_s) == len(demands) - 1
        for a, b in ((dist.applied_gen_w, cen.applied_gen_w),
                     (dist.applied_batt_w, cen.applied_batt_w)):
            assert np.all(np.abs(a - b) <= tol[:applied, None])
        np.testing.assert_allclose(dist.final_soc, cen.final_soc, rtol=1e-6,
                                   atol=0.0)
        np.testing.assert_allclose(dist.final_capacity_loss_ah,
                                   cen.final_capacity_loss_ah, rtol=1e-6,
                                   atol=0.0)


class TestRunScenarioBookkeeping:
    def test_event_counts(self):
        cfg = short_cfg(duration_s=12.0)
        log = run_scenario(cfg)
        assert len(log.mpc_time_s) == 12
        assert len(log.applied_time_s) == 11  # last plan lands past the end
        assert log.time_s.shape[0] == 12000
        assert np.all(np.diff(log.mpc_time_s) == cfg.mpc_period_s)

    @pytest.mark.parametrize("delay_s", [0.0, 0.3, 1.0])
    def test_plans_land_one_delay_after_their_measurement(self, delay_s,
                                                           monkeypatch):
        # 12.5 s is not a whole number of 1 s periods: 13 measurements, and
        # only the plans that land before the end are applied
        steps = []
        coordinate = shipems.sim.coordinate

        def recorded(fleet, p_f, **kwargs):
            rep = coordinate(fleet, p_f, **kwargs)
            steps.append((fleet, rep))
            return rep

        monkeypatch.setattr(shipems.sim, "coordinate", recorded)
        cfg = short_cfg(duration_s=12.5, comm_delay_s=delay_s, log_every=500)
        log = run_scenario(cfg)
        assert len(steps) == len(log.mpc_time_s) == 13
        landed = log.mpc_time_s + delay_s < cfg.duration_s
        n_applied = int(landed.sum())
        assert n_applied == (12 if delay_s == cfg.mpc_period_s else 13)
        np.testing.assert_allclose(log.applied_time_s,
                                   log.mpc_time_s[landed] + delay_s,
                                   rtol=0.0, atol=1e-9)
        for k in range(n_applied):
            assert log.applied_gen_w[k, 0] == steps[k][1].gen[0].profile[0]
            assert log.applied_batt_w[k, 0] == steps[k][1].batt[0].profile[0]
        # each measurement sees the previous plan in force; at a delay of
        # one period the plan lands on the next measurement's step and
        # must be applied before it
        for k in range(min(n_applied, len(steps) - 1)):
            assert steps[k + 1][0].pgms[0].prev_power_w \
                == log.applied_gen_w[k, 0]

    def test_log_thinning_keeps_events_full_rate(self):
        cfg = short_cfg(duration_s=12.0, log_every=250)
        log = run_scenario(cfg)
        assert log.time_s.shape[0] == 48
        assert len(log.mpc_time_s) == 12
        assert log.time_s[1] - log.time_s[0] == 0.25

    def test_no_violations_on_default_pulse(self):
        log = run_scenario(short_cfg(duration_s=30.0))
        assert log.box_violations == 0
        assert log.ramp_violations == 0
        assert log.soc_violations == 0
        assert log.soc_clamp_events == 0

    def test_applied_setpoints_respect_box_and_ramp(self):
        cfg = short_cfg(duration_s=30.0)
        log = run_scenario(cfg)
        gen = cfg.pgms[0]
        g = log.applied_gen_w[:, 0]
        assert np.all(g >= gen.p_min_w - 1e-6)
        assert np.all(g <= gen.p_max_w + 1e-6)
        steps = np.diff(np.concatenate(([gen.rated_power_w], g)))
        assert np.abs(steps).max() <= gen.ramp_limit_w_per_step + 1e-6

    def test_determinism_same_config_same_log(self):
        a = run_scenario(short_cfg())
        b = run_scenario(short_cfg())
        assert np.array_equal(a.gen_power_w, b.gen_power_w)
        assert np.array_equal(a.soc, b.soc)
        assert np.array_equal(a.mpc_lambda0, b.mpc_lambda0)
        assert np.array_equal(a.balance_residual_w, b.balance_residual_w)
        assert a.final_capacity_loss_ah == b.final_capacity_loss_ah

    def test_battery_energy_account_matches_current_account(self):
        cfg = short_cfg()
        log = run_scenario(cfg)
        dt = cfg.plant_dt_s
        p_int = log.batt_power_w[:, 0].sum() * dt
        i_int = cfg.bus.v_bus_volt * log.batt_current_a[:, 0].sum() * dt
        assert p_int == pytest.approx(i_int, rel=1e-6)
        net_acc = (log.batt_discharge_wh[0] - log.batt_charge_wh[0]) * 3600.0
        assert net_acc == pytest.approx(p_int, rel=1e-9, abs=1e-6)
        abs_acc = log.batt_abs_energy_wh[0] * 3600.0
        assert abs_acc == pytest.approx(
            np.abs(log.batt_power_w[:, 0]).sum() * dt, rel=1e-9)

    def test_soc_log_matches_coulomb_count(self):
        cfg = short_cfg()
        log = run_scenario(cfg)
        dt = cfg.plant_dt_s
        q = cfg.pcms[0].capacity_ah
        drained = np.cumsum(log.batt_current_a[:, 0]) * dt / 3600.0 / q
        recon = cfg.initial_soc[0] - np.concatenate(([0.0], drained[:-1]))
        assert np.abs(recon - log.soc[:, 0]).max() <= 1e-9

    def test_capacity_loss_monotone_and_tied_to_current(self):
        cfg = short_cfg()
        log = run_scenario(cfg)
        dq = np.diff(log.capacity_loss_ah[:, 0])
        active = log.batt_current_a[:-1, 0] != 0.0
        assert np.all(dq >= 0.0)
        assert np.all(dq[active] > 0.0)
        assert np.all(dq[~active] == 0.0)

    def test_final_counters_extend_log(self):
        cfg = short_cfg()
        log = run_scenario(cfg)
        dt = cfg.plant_dt_s
        thr = np.abs(log.batt_current_a[:, 0]).sum() * dt / 3600.0
        assert log.final_throughput_ah[0] == pytest.approx(thr, rel=1e-9)
        assert log.final_soc[0] == pytest.approx(
            log.soc[-1, 0]
            - dt / 3600.0 * log.batt_current_a[-1, 0] / cfg.pcms[0].capacity_ah,
            abs=1e-12,
        )


class TestPulseResponse:
    def test_battery_covers_pulse_and_soc_dips(self):
        cfg = short_cfg(duration_s=20.0)
        log = run_scenario(cfg)
        t = log.time_s
        # second pulse occupies [15, 17); the plan lands one period late,
        # so the battery carries the covered sub-window [16, 17)
        covered = (t >= 16.0) & (t < 17.0)
        assert np.all(log.batt_power_w[covered, 0] > 1e6)
        assert np.abs(log.balance_residual_w[covered & (t >= 16.2)]).max() < 5e4
        i15 = int(np.argmin(np.abs(t - 15.0)))
        i17 = int(np.argmin(np.abs(t - 17.0)))
        assert log.soc[i17, 0] < log.soc[i15, 0]

    def test_generator_power_slope_capped_by_ramp(self):
        cfg = short_cfg(duration_s=30.0, log_every=10)
        log = run_scenario(cfg)
        rows_per_period = int(round(cfg.mpc_period_s
                                    / (cfg.plant_dt_s * cfg.log_every)))
        p = log.gen_power_w[:, 0]
        per_period = np.abs(p[rows_per_period:] - p[:-rows_per_period])
        limit = cfg.pgms[0].ramp_limit_w_per_step
        assert per_period.max() <= limit + 1e4  # small tracking overshoot

    def test_load_preview_removes_reaction_lag(self):
        reactive = run_scenario(short_cfg(duration_s=10.0))
        preview = run_scenario(short_cfg(
            duration_s=10.0, solver=SolverConfig(load_preview=True)))
        window = (reactive.time_s >= 5.2) & (reactive.time_s < 6.0)
        lag_err = np.abs(reactive.balance_residual_w[window]).max()
        pre_err = np.abs(preview.balance_residual_w[window]).max()
        assert lag_err > 5e6  # plans trail the pulse by the comm delay
        assert pre_err < 5e5

    def test_unreachable_demand_reports_shortfall(self):
        cfg = short_cfg(
            duration_s=8.0,
            load=LoadProfileSpec(kind="constant", base_w=200e6),
        )
        log = run_scenario(cfg)
        assert log.shortfall_events > 0
        assert log.mpc_shortfall_w.max() > 1e6
