import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shipems.config import default_config
from shipems.plant import (
    BusSpec,
    DegradationParams,
    DlcGains,
    PcmSpec,
    PgmSpec,
    Plant,
    capacity_percent,
    loss_percent,
)
from oracles import euler_rl_current

BUS = BusSpec()


def one_pair(n, pgm=PgmSpec(), pcm=PcmSpec(), gains=DlcGains(), dt=1e-3,
             soc0=0.5, constant_c_rate=False):
    """A 1-generator/1-battery plant that logs every one of its n steps."""
    return Plant(BUS, [pgm], [pcm], gains, dt, [soc0], n, log_every=1,
                 constant_c_rate=constant_c_rate)


def advance(plant, n, p_l=0.0):
    plant.advance(n, 0, np.broadcast_to(np.asarray(p_l, dtype=float), (n,)))


def driven(spec, i0, dv, dt, n):
    """The generator current after n steps from i0 with the source voltage
    held at v_bus - dv: the integrator sits at its clamp (the error keeps
    the sign of dv), so the command is ki * limit = dv throughout."""
    gains = DlcGains(kp=0.0, ki=abs(dv), integrator_limit=1.0)
    plant = one_pair(n, pgm=spec, gains=gains, dt=dt)
    plant.ig[0] = i0
    plant.integ[0] = math.copysign(1.0, dv)
    plant.pref_g[0] = math.copysign(1e10, dv)
    advance(plant, n)
    return plant.ig[0]


def proportional(spec, dv, dt):
    """The generator current after one step from rest under a proportional
    command kp*e = dv (v_g = v_bus - dv)."""
    plant = one_pair(1, pgm=spec, gains=DlcGains(kp=1.0, ki=0.0), dt=dt)
    plant.ig[0] = 0.0
    plant.pref_g[0] = dv * BUS.v_bus_volt  # an error of dv amperes
    advance(plant, 1)
    return plant.ig[0]


def battery(p_b, n=1, pcm=PcmSpec(), dt=1e-3, soc0=0.5,
            constant_c_rate=False):
    """A plant whose battery held p_b for n steps."""
    plant = one_pair(n, pcm=pcm, dt=dt, soc0=soc0,
                     constant_c_rate=constant_c_rate)
    plant.pref_b[0] = p_b
    advance(plant, n)
    return plant


class TestPgmCurrentStep:
    def test_matches_fine_euler(self):
        # i0=0, v_g=900 on a 1000 V bus, r=0.1, l=0.01, dt=1 ms.
        # Exact exponential step, frozen: 9.950166250831893 A.
        spec = PgmSpec(resistance_ohm=0.1, inductance_henry=0.01)
        got = proportional(spec, 100.0, 1e-3)
        assert got == pytest.approx(9.950166250831893, rel=1e-12)
        ref = euler_rl_current(0.0, 100.0, 0.1, 0.01, 1e-3)
        assert got == pytest.approx(ref, rel=1e-6)

    def test_decay_with_zero_drive(self):
        # v_g = v_bus (kp = ki = 0) leaves pure exponential decay of the
        # initial current, row by row
        spec = PgmSpec(resistance_ohm=0.05, inductance_henry=0.002)
        plant = one_pair(100, pgm=spec, gains=DlcGains(kp=0.0, ki=0.0),
                         dt=4e-3)
        plant.ig[0] = 120.0
        advance(plant, 100)
        i1 = plant.log_ig[1, 0]
        assert i1 == pytest.approx(120.0 * math.exp(-0.05 * 4e-3 / 0.002), rel=1e-12)
        want = 120.0 * np.exp(-0.05 * np.arange(100) * 4e-3 / 0.002)
        np.testing.assert_allclose(plant.log_ig[:, 0], want, rtol=1e-12)
        np.testing.assert_allclose(plant.log_pg[:, 0],
                                   BUS.v_bus_volt * want, rtol=1e-12)

    @given(
        i0=st.floats(-1e5, 1e5),
        v_g=st.floats(0.0, 2000.0),
        dt=st.floats(1e-5, 1e-2),
    )
    @settings(max_examples=200, deadline=None)
    def test_semigroup_property(self, i0, v_g, dt):
        # two half steps equal one full step only for the exact discretization
        spec = PgmSpec(resistance_ohm=0.02, inductance_henry=1e-3)
        dv = BUS.v_bus_volt - v_g
        twice = driven(spec, i0, dv, dt / 2, 2)
        full = driven(spec, i0, dv, dt, 1)
        assert twice == pytest.approx(full, rel=1e-9, abs=1e-9)

    def test_long_step_reaches_steady_state(self):
        spec = PgmSpec(resistance_ohm=0.1, inductance_henry=1e-3)
        i = proportional(spec, 100.0, 10.0)
        assert i == pytest.approx(100.0 / 0.1, rel=1e-9)


class TestBatteryAlgebra:
    @given(p_b=st.floats(-20e6, 20e6))
    @settings(max_examples=200, deadline=None)
    def test_current_times_bus_voltage_is_power(self, p_b):
        i_b = battery(p_b).log_ib[0, 0]
        assert i_b * BUS.v_bus_volt == pytest.approx(p_b, rel=1e-9, abs=1e-6)

    def test_discharge_current_positive(self):
        assert battery(5e6).log_ib[0, 0] == pytest.approx(5000.0)
        assert battery(-5e6).log_ib[0, 0] == pytest.approx(-5000.0)
        # every logged row holds the setpoint and p_b / v_bus
        plant = battery(-7.3e6, n=10)
        assert np.all(plant.log_pb[:, 0] == -7.3e6)
        assert np.all(plant.log_ib[:, 0] == -7.3e6 / BUS.v_bus_volt)


class TestSocStep:
    @given(
        soc=st.floats(0.0, 1.0),
        i_b=st.floats(-5e4, 5e4),
        q=st.floats(100.0, 5e4),
        dt=st.floats(1e-4, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_affine_until_clamped(self, soc, i_b, q, dt):
        p_b = i_b * BUS.v_bus_volt
        plant = battery(p_b, pcm=PcmSpec(capacity_ah=q), dt=dt, soc0=soc)
        new, clamped = plant.soc[0], plant.clamp_count == 1
        raw = soc - (dt / 3600.0) * (p_b / BUS.v_bus_volt) / q
        if 0.0 <= raw <= 1.0:
            assert not clamped
            assert new == raw
        else:
            assert clamped
            assert new == (0.0 if raw < 0.0 else 1.0)

    def test_discharge_lowers_soc(self):
        # 3600 A for 1 s from 10 Ah removes 1 Ah / 10 Ah = 0.1
        plant = battery(3600.0 * BUS.v_bus_volt, pcm=PcmSpec(capacity_ah=10.0),
                        dt=1.0)
        assert plant.soc[0] == pytest.approx(0.4)
        assert plant.clamp_count == 0

    def test_clamps_at_empty(self):
        plant = battery(36000.0 * BUS.v_bus_volt,
                        pcm=PcmSpec(capacity_ah=10.0), dt=1.0, soc0=0.05)
        assert plant.soc[0] == 0.0
        assert plant.clamp_count == 1

    def test_rejects_bad_inputs(self):
        # a zero plant step or capacity never reaches the coulomb count
        with pytest.raises(ValueError):
            dataclasses.replace(default_config(), plant_dt_s=0.0).validate()
        with pytest.raises(ValueError):
            PcmSpec(capacity_ah=0.0)


class TestDegradation:
    def test_zero_throughput_zero_loss(self):
        assert battery(0.0, n=100).ql_ah[0] == 0.0

    def test_unit_factor_case(self):
        # zeta1=1 and zeta2 = T*c_rate make the exponent exactly zero,
        # so loss equals throughput
        d = DegradationParams(zeta1=1.0, zeta2=8.314 * 298.15, c_rate=8.314)
        assert d.factor() == pytest.approx(1.0, rel=1e-12)
        # 123.456 A for one hour: 123.456 Ah through the battery
        plant = battery(123.456 * BUS.v_bus_volt, pcm=PcmSpec(degradation=d),
                        dt=3600.0, constant_c_rate=True)
        assert plant.ql_ah[0] == pytest.approx(123.456, rel=1e-12)

    def test_default_factor_frozen(self):
        # zeta1*exp((-zeta2 + T*c_rate)/(R*T)) at the default parameters
        assert DegradationParams().factor() == pytest.approx(
            0.12784705437939234, rel=1e-12
        )

    @given(scale=st.floats(0.0, 1e6), th=st.floats(0.0, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_homogeneous_in_throughput(self, scale, th):
        # th Ah through the battery in one hour-long step at constant C-rate
        def loss(ah):
            return battery(ah * BUS.v_bus_volt, dt=3600.0,
                           constant_c_rate=True).ql_ah[0]

        assert loss(scale * th) == pytest.approx(
            scale * loss(th), rel=1e-12, abs=1e-12
        )

    def test_factor_override_c_rate(self):
        d = DegradationParams()
        assert d.factor(2.0) > d.factor(1.0) > d.factor(0.5)

    @given(q=st.floats(1.0, 1e6), frac=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_percent_readings_complementary(self, q, frac):
        q_l = frac * q
        assert capacity_percent(q, q_l) + loss_percent(q, q_l) == pytest.approx(
            100.0, abs=1e-9
        )

    def test_percent_fresh_cell(self):
        assert capacity_percent(5000.0, 0.0) == 100.0
        assert loss_percent(5000.0, 0.0) == 0.0


class TestPowerBalance:
    def test_residual(self):
        def residual(rated_g, p_b, p_l):
            pgms = [PgmSpec(rated_power_w=p) for p in rated_g]
            plant = Plant(BUS, pgms, [PcmSpec()] * len(p_b), DlcGains(), 1e-3,
                          [0.5] * len(p_b), 1)
            plant.pref_b[:] = p_b
            advance(plant, 1, p_l)
            return plant.log_res[0]

        assert residual([8e6], [2e6], 10e6) == 0.0
        assert residual([8e6, 1e6], [2e6], 10e6) == pytest.approx(1e6)
        assert residual([], [], 3.0) == pytest.approx(-3.0)

    def test_logged_residual(self):
        # sum(p_g) + sum(p_b) - p_l on every row, with the generator moving
        # and the demand varying
        plant = one_pair(300)
        plant.pref_g[0] = 30e6
        plant.pref_b[0] = 4e6
        p_l = np.linspace(20e6, 45e6, 300)
        advance(plant, 300, p_l)
        assert np.all(plant.log_pl == p_l)
        assert np.ptp(plant.log_pg[:, 0]) > 1e6
        want = plant.log_pg.sum(axis=1) + plant.log_pb.sum(axis=1) - p_l
        np.testing.assert_allclose(plant.log_res, want, rtol=0.0, atol=1e-6)


class TestClosedForms:
    """The plant under held setpoints against closed forms, row by row."""

    def test_soc_affine_in_step_index(self):
        pcm = PcmSpec(capacity_ah=100.0)
        plant = battery(5e6, n=1000, pcm=pcm)
        step = 1e-3 / 3600.0 * (5e6 / BUS.v_bus_volt) / 100.0
        want = 0.5 - step * np.arange(1000)
        np.testing.assert_allclose(plant.log_soc[:, 0], want, rtol=1e-12)
        assert plant.soc[0] == pytest.approx(0.5 - 1000 * step, rel=1e-12)
        assert plant.clamp_count == 0

    def test_clamp_events_counted_at_both_limits(self):
        # 20 kA for 1 s moves a 10 Ah battery by 0.56: every step clamps
        pcm = PcmSpec(capacity_ah=10.0)
        empty = battery(20e6, n=5, pcm=pcm, dt=1.0, soc0=0.1)
        assert np.all(empty.log_soc[1:, 0] == 0.0) and empty.soc[0] == 0.0
        assert empty.clamp_count == 5
        full = battery(-20e6, n=5, pcm=pcm, dt=1.0, soc0=0.9)
        assert np.all(full.log_soc[1:, 0] == 1.0) and full.soc[0] == 1.0
        assert full.clamp_count == 5
        assert battery(20e6, n=5, pcm=pcm, soc0=0.5).clamp_count == 0

    @pytest.mark.parametrize("constant_c_rate", [True, False])
    def test_fade_is_factor_times_throughput(self, constant_c_rate):
        # |i_b| is held, so the C-rate and the fade factor are constant
        pcm = PcmSpec(capacity_ah=100.0)
        plant = battery(-3e6, n=1000, pcm=pcm,
                        constant_c_rate=constant_c_rate)
        d = pcm.degradation
        factor = d.factor() if constant_c_rate else d.factor(3000.0 / 100.0)
        thr_ah = plant.thr_as[0] / 3600.0
        assert thr_ah == pytest.approx(3000.0 / 3600.0, rel=1e-12)  # 3 kA, 1 s
        assert plant.ql_ah[0] == pytest.approx(factor * thr_ah, rel=1e-12)
        np.testing.assert_allclose(plant.log_ql[1:, 0],
                                   factor * plant.log_thr[1:, 0], rtol=1e-12)


class TestWindowBoundaries:
    """Held setpoints advanced in one call or in two give the same plant."""

    STATE = ("ig", "integ", "soc", "thr_as", "ql_ah", "gen_e_j", "bat_dis_j",
             "bat_chg_j", "bat_abs_j", "load_e_j", "clamp_count")
    LOG = ("log_t", "log_pg", "log_ig", "log_pb", "log_ib", "log_soc",
           "log_thr", "log_ql", "log_pl", "log_res")

    @staticmethod
    def plant(n, constant_c_rate):
        pgms = [PgmSpec(), PgmSpec(rated_power_w=5e6, resistance_ohm=0.03)]
        # the first battery discharges 10 C from 1e-4 above empty, so it
        # reaches the SoC clamp within the first call and stays there
        pcms = [PcmSpec(capacity_ah=100.0), PcmSpec(),
                PcmSpec(capacity_ah=500.0)]
        plant = Plant(BUS, pgms, pcms, DlcGains(), 1e-3, [1e-4, 0.5, 0.7], n,
                      log_every=7, constant_c_rate=constant_c_rate)
        plant.pref_g[:] = [30e6, 2e6]
        plant.pref_b[:] = [1e6, -3e6, 0.5e6]
        return plant

    @pytest.mark.parametrize("constant_c_rate", [True, False])
    def test_split_window_is_bitwise_one_window(self, constant_c_rate):
        n, split = 200, 45  # 45 is no multiple of log_every
        p_l = np.linspace(20e6, 45e6, n)
        one = self.plant(n, constant_c_rate)
        one.advance(n, 0, p_l)
        two = self.plant(n, constant_c_rate)
        two.advance(split, 0, p_l[:split])
        two.advance(n - split, split, p_l[split:])
        assert 0 < one.clamp_count < n
        for name in self.STATE + self.LOG:
            a, b = np.asarray(getattr(one, name)), np.asarray(getattr(two, name))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestSpecValidation:
    def test_pgm_bounds(self):
        with pytest.raises(ValueError):
            PgmSpec(rated_power_w=50e6)  # above p_max
        with pytest.raises(ValueError):
            PgmSpec(resistance_ohm=0.0)
        with pytest.raises(ValueError):
            PgmSpec(ramp_limit_w_per_step=-1.0)

    def test_pcm_bounds(self):
        with pytest.raises(ValueError):
            PcmSpec(p_min_w=1e6)  # charge limit must be <= 0
        with pytest.raises(ValueError):
            PcmSpec(soc_min=0.9, soc_max=0.1)
        with pytest.raises(ValueError):
            PcmSpec(capacity_ah=0.0)
        with pytest.raises(ValueError):
            PcmSpec(weight_gamma=-1.0)

    def test_bus(self):
        with pytest.raises(ValueError):
            BusSpec(v_bus_volt=0.0)

    def test_degradation_positivity(self):
        with pytest.raises(ValueError):
            DegradationParams(zeta1=-1.0)
        with pytest.raises(ValueError):
            DegradationParams(temperature_k=0.0)
