import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shipems.nodes import WEIGHT_FLOOR, pcm_qp, pcm_solve, pgm_qp, pgm_solve, soc_coeff
from shipems.plant import BusSpec, PcmSpec, PgmSpec
from oracles import horizon_qp_matrices

BUS = BusSpec()

# small-scale specs keep closed-form arithmetic readable; power in plain watts
GEN = PgmSpec(rated_power_w=6.0, p_min_w=-1e9, p_max_w=1e9,
              ramp_limit_w_per_step=1e9, weight_beta=1.0)
BATT = PcmSpec(p_min_w=-1e9, p_max_w=1e9, ramp_limit_w_per_step=1e9,
               capacity_ah=10_000.0, weight_gamma=1.0)


class TestPgmSolve:
    def test_zero_price_tracks_rated(self):
        r = pgm_solve(pgm_qp(GEN, 6.0, 5), np.zeros(5), GEN)
        np.testing.assert_allclose(r.profile, 6.0, rtol=1e-12)
        assert r.local_objective == pytest.approx(0.0, abs=1e-18)
        assert r.qp_status == "optimal"

    @given(lam=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_unconstrained_stationarity(self, lam):
        # beta*(p - rated) + lambda = 0  =>  p_k = rated - lambda_k/beta
        lam = np.array(lam)
        r = pgm_solve(pgm_qp(GEN, 6.0, lam.size), lam, GEN)
        np.testing.assert_allclose(r.profile, 6.0 - lam, atol=1e-8)

    def test_stationary_point_clipped_by_box(self):
        spec = PgmSpec(rated_power_w=6.0, p_min_w=0.0, p_max_w=7.0,
                       ramp_limit_w_per_step=1e9, weight_beta=1.0)
        r = pgm_solve(pgm_qp(spec, 6.0, 4), -2.0 * np.ones(4), spec)
        # stationary point 8 clipped to the box top
        np.testing.assert_allclose(r.profile, 7.0, atol=1e-9)

    def test_ramp_anchor_respected(self):
        spec = PgmSpec(rated_power_w=6.0, p_min_w=0.0, p_max_w=40.0,
                       ramp_limit_w_per_step=1.0, weight_beta=1.0)
        r = pgm_solve(pgm_qp(spec, 0.0, 3), np.zeros(3), spec)
        assert abs(r.profile[0] - 0.0) <= 1.0 + 1e-9
        assert np.all(np.abs(np.diff(r.profile)) <= 1.0 + 1e-9)

    def test_infeasible_anchor_propagates(self):
        spec = PgmSpec(rated_power_w=6.0, p_min_w=5.0, p_max_w=6.0,
                       ramp_limit_w_per_step=1.0, weight_beta=1.0)
        r = pgm_solve(pgm_qp(spec, 0.0, 3), np.zeros(3), spec)
        assert r.qp_status == "infeasible"

    def test_zero_weight_gets_floor(self):
        problem = pgm_qp(PgmSpec(weight_beta=0.0), 36e6, 3)
        assert np.all(problem.quad_diag == WEIGHT_FLOOR)


class TestPcmSolve:
    def test_rests_when_unpriced(self):
        r = pcm_solve(pcm_qp(BATT, BUS, soc0=0.5, prev_power_w=0.0,
                             td_s=1.0, h=5), np.zeros(5), BATT)
        np.testing.assert_allclose(r.profile, 0.0, atol=1e-9)
        assert r.qp_status == "optimal"

    def test_unconstrained_stationarity_charges(self):
        # gamma*p + lambda = 0 with lambda = gamma*ones -> p = -ones
        r = pcm_solve(pcm_qp(BATT, BUS, soc0=0.5, prev_power_w=0.0,
                             td_s=1.0, h=4), np.ones(4), BATT)
        np.testing.assert_allclose(r.profile, -1.0, atol=1e-8)

    def test_soc_floor_blocks_net_discharge(self):
        spec = PcmSpec(p_min_w=-5e6, p_max_w=5e6, ramp_limit_w_per_step=1e7,
                       capacity_ah=100.0, soc_min=0.4, soc_max=0.9)
        # discharge is priced attractive, but soc0 sits on the floor
        r = pcm_solve(pcm_qp(spec, BUS, soc0=0.4, prev_power_w=0.0,
                             td_s=1.0, h=5), -np.ones(5), spec)
        # soc0 == soc_min means every prefix sum of discharge power <= 0
        prefix = np.cumsum(r.profile)
        assert np.all(prefix <= 1e-3)
        assert np.all(r.soc_trajectory >= 0.4 - 1e-9)

    def test_soc_trajectory_identity(self):
        r = pcm_solve(pcm_qp(BATT, BUS, soc0=0.6, prev_power_w=0.0,
                             td_s=1.0, h=3), np.array([1.0, -2.0, 0.5]), BATT)
        kappa = soc_coeff(BATT, BUS, 1.0)
        traj = r.soc_trajectory
        assert traj[0] == 0.6
        for k in range(3):
            assert traj[k + 1] - traj[k] + kappa * r.profile[k] == pytest.approx(
                0.0, abs=1e-12
            )

    def test_rejects_soc_outside_limits(self):
        with pytest.raises(ValueError):
            pcm_qp(BATT, BUS, soc0=0.05, prev_power_w=0.0, td_s=1.0, h=3)

    def test_zero_weight_gets_floor(self):
        problem = pcm_qp(PcmSpec(weight_gamma=0.0), BUS, 0.5, 0.0, 1.0, 3)
        assert np.all(problem.quad_diag == WEIGHT_FLOOR)


class TestSocCoeff:
    def test_si_value(self):
        # 10000 Ah at 1000 V: kappa = 1 / (10000*3600*1000) per watt-step
        assert soc_coeff(PcmSpec(), BUS, 1.0) == pytest.approx(
            1.0 / (10_000.0 * 3600.0 * 1000.0), rel=1e-12
        )

    def test_scales_with_period(self):
        assert soc_coeff(PcmSpec(), BUS, 5.0) == pytest.approx(
            5.0 * soc_coeff(PcmSpec(), BUS, 1.0), rel=1e-12
        )

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            soc_coeff(PcmSpec(), BUS, 0.0)


class TestOptimalityProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_lagrangian_consistency_pgm(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-3, 3, 4)
        spec = PgmSpec(rated_power_w=2.0, p_min_w=0.0, p_max_w=4.0,
                       ramp_limit_w_per_step=1.5, weight_beta=1.0)
        r = pgm_solve(pgm_qp(spec, 2.0, 4), lam, spec)
        total = r.local_objective + float(lam @ r.profile)
        a, b = horizon_qp_matrices(4, 0.0, 4.0, 1.5, 2.0)
        cand = rng.uniform(0.0, 4.0, size=(400, 4))
        ok = cand[np.all(a @ cand.T <= b[:, None], axis=0)][:100]
        for z in ok:
            other = 0.5 * float((z - 2.0) @ (z - 2.0)) + float(lam @ z)
            assert other >= total - 1e-9

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_lagrangian_consistency_pcm(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-3, 3, 4)
        spec = PcmSpec(p_min_w=-3.0, p_max_w=3.0, ramp_limit_w_per_step=2.0,
                       capacity_ah=1.0, weight_gamma=1.0,
                       soc_min=0.2, soc_max=0.8)
        bus = BusSpec(v_bus_volt=1.0)
        td = 360.0  # kappa = 0.1 per unit power
        r = pcm_solve(pcm_qp(spec, bus, 0.5, 0.0, td, 4), lam, spec)
        kappa = soc_coeff(spec, bus, td)
        total = r.local_objective + float(lam @ r.profile)
        a, b = horizon_qp_matrices(4, -3.0, 3.0, 2.0, 0.0, kappa=kappa,
                                   soc0=0.5, soc_min=0.2, soc_max=0.8)
        cand = rng.uniform(-3.0, 3.0, size=(600, 4))
        ok = cand[np.all(a @ cand.T <= b[:, None], axis=0)][:100]
        for z in ok:
            other = 0.5 * float(z @ z) + float(lam @ z)
            assert other >= total - 1e-9

    @given(c=st.floats(1e-3, 1e3), seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_price_and_weight_scaling_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-3, 3, 4)
        s1 = PgmSpec(rated_power_w=2.0, p_min_w=0.0, p_max_w=4.0,
                     ramp_limit_w_per_step=1.5, weight_beta=1.0)
        s2 = PgmSpec(rated_power_w=2.0, p_min_w=0.0, p_max_w=4.0,
                     ramp_limit_w_per_step=1.5, weight_beta=c)
        r1 = pgm_solve(pgm_qp(s1, 2.0, 4), lam, s1)
        r2 = pgm_solve(pgm_qp(s2, 2.0, 4), c * lam, s2)
        np.testing.assert_allclose(r1.profile, r2.profile, atol=1e-7)

    def test_profiles_stay_in_constraint_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            lam = rng.uniform(-4, 4, 5)
            spec = PcmSpec(p_min_w=-2.0, p_max_w=2.0, ramp_limit_w_per_step=1.0,
                           capacity_ah=1.0, soc_min=0.2, soc_max=0.8)
            bus = BusSpec(v_bus_volt=1.0)
            problem = pcm_qp(spec, bus, soc0=rng.uniform(0.25, 0.75),
                             prev_power_w=rng.uniform(-1, 1), td_s=360.0, h=5)
            r = pcm_solve(problem, lam, spec)
            assert r.qp_status == "optimal"
            assert np.all(r.profile >= -2.0 - 1e-8)
            assert np.all(r.profile <= 2.0 + 1e-8)
            assert np.all(np.abs(np.diff(r.profile)) <= 1.0 + 1e-8)
            assert np.all(r.soc_trajectory[1:] >= 0.2 - 1e-8)
            assert np.all(r.soc_trajectory[1:] <= 0.8 + 1e-8)
