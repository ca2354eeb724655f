import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import shipems.qp as qpmod
from shipems.config import default_config
from shipems.coordinator import Fleet, PcmNodeState, PgmNodeState, coordinate
from shipems.plant import BusSpec, PcmSpec, PgmSpec
from shipems.qp import (
    FEASIBLE,
    INFEASIBLE,
    MAX_ITER,
    OPTIMAL,
    HorizonQp,
    feasibility_check,
    solve,
)
from shipems.nodes import WEIGHT_FLOOR, pcm_qp, pgm_qp
from shipems.sim import run_scenario
from fleets import random_fleet
from oracles import (
    enumerate_qp,
    horizon_qp_matrices,
    horizon_rhs,
    min_max_violation,
    unit_rows,
)


def random_instance(rng, h=3, with_cumsum=False):
    d = rng.uniform(0.2, 3.0, h)
    q = rng.uniform(-2.0, 2.0, h)
    lo = rng.uniform(-2.0, 0.0)
    hi = lo + rng.uniform(0.5, 3.0)
    ramp = rng.uniform(0.3, 2.0)
    prev = rng.uniform(lo, hi)
    kw = {}
    oracle_kw = {}
    if with_cumsum:
        kappa = rng.uniform(0.05, 0.5)
        soc0 = rng.uniform(0.3, 0.7)
        kw = dict(cumsum_coeff=kappa, cumsum_init=soc0,
                  cumsum_lower=0.1, cumsum_upper=0.9)
        oracle_kw = dict(kappa=kappa, soc0=soc0, soc_min=0.1, soc_max=0.9)
    qp = HorizonQp(h=h, quad_diag=d, lower=lo, upper=hi,
                   ramp_limit=ramp, prev_value=prev, **kw)
    a, b = horizon_qp_matrices(h, lo, hi, ramp, prev, **oracle_kw)
    return qp, q, a, b


class TestSolveExamples:
    def test_unconstrained_returns_tracking_point(self):
        # d = w*ones, q = -w*target*ones with infinite bounds
        qp = HorizonQp(h=5, quad_diag=2.0, lower=-np.inf,
                       upper=np.inf, ramp_limit=1e12, prev_value=6.0)
        s = solve(qp, -2.0 * 6.0)
        assert s.status == OPTIMAL
        np.testing.assert_allclose(s.profile, 6.0, rtol=1e-12)

    def test_projection_onto_box_corner(self):
        qp = HorizonQp(h=2, quad_diag=1.0, lower=1.0, upper=2.0,
                       ramp_limit=10.0, prev_value=1.0)
        s = solve(qp, 0.0)
        assert s.status == OPTIMAL
        np.testing.assert_allclose(s.profile, [1.0, 1.0], atol=1e-10)

    @pytest.mark.parametrize("with_cumsum", [False, True])
    def test_matches_enumeration_oracle(self, with_cumsum):
        rng = np.random.default_rng(7 if with_cumsum else 3)
        for _ in range(60):
            qp, q, a, b = random_instance(rng, with_cumsum=with_cumsum)
            xo, fo = enumerate_qp(qp.quad_diag, q, a, b)
            s = solve(qp, q)
            if xo is None:
                assert s.status == INFEASIBLE
                continue
            assert s.status == OPTIMAL
            assert s.objective == pytest.approx(fo, abs=1e-8)
            assert s.primal_residual <= 1e-8

    def test_negative_cumsum_coeff(self):
        # negative coefficient flips the prefix-sum slab orientation
        rng = np.random.default_rng(11)
        for _ in range(20):
            qp, q, _, _ = random_instance(rng)
            qp2 = HorizonQp(h=3, quad_diag=qp.quad_diag,
                            lower=qp.lower, upper=qp.upper,
                            ramp_limit=qp.ramp_limit, prev_value=qp.prev_value,
                            cumsum_coeff=-0.2, cumsum_init=0.5,
                            cumsum_lower=0.1, cumsum_upper=0.9)
            a, b = horizon_qp_matrices(3, qp.lower[0], qp.upper[0],
                                       qp.ramp_limit, qp.prev_value,
                                       kappa=-0.2, soc0=0.5,
                                       soc_min=0.1, soc_max=0.9)
            xo, fo = enumerate_qp(qp2.quad_diag, q, a, b)
            s = solve(qp2, q)
            if xo is None:
                assert s.status == INFEASIBLE
            else:
                assert s.objective == pytest.approx(fo, abs=1e-8)


class TestSolveProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_returned_profile_feasible(self, seed):
        rng = np.random.default_rng(seed)
        qp, q, _, _ = random_instance(rng, with_cumsum=bool(seed % 2))
        s = solve(qp, q)
        if s.status == INFEASIBLE:
            return
        scale = max(1.0, float(np.abs(s.profile).max()))
        assert qp.violation(s.profile) <= 1e-7 * scale

    @given(seed=st.integers(0, 10_000), c=st.floats(1e-3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_uniform_cost_scaling_preserves_argmin(self, seed, c):
        rng = np.random.default_rng(seed)
        qp, q, _, _ = random_instance(rng)
        scaled = HorizonQp(h=qp.h, quad_diag=c * qp.quad_diag,
                           lower=qp.lower, upper=qp.upper,
                           ramp_limit=qp.ramp_limit, prev_value=qp.prev_value)
        s1, s2 = solve(qp, q), solve(scaled, c * q)
        if INFEASIBLE in (s1.status, s2.status):
            assert s1.status == s2.status
            return
        np.testing.assert_allclose(s1.profile, s2.profile, atol=1e-7)

    def test_beats_rejection_sampling(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            qp, q, a, b = random_instance(rng, with_cumsum=bool(trial % 2))
            s = solve(qp, q)
            if s.status != OPTIMAL:
                continue
            lo, hi = qp.effective_box()
            pts = rng.uniform(lo, hi, size=(1000, qp.h))
            ok = np.all(a @ pts.T <= b[:, None], axis=0)
            for x in pts[ok]:
                assert s.objective <= qp.objective(x, q) + 1e-9

    def test_strictly_better_than_samples_when_interior(self):
        qp = HorizonQp(h=3, quad_diag=1.0, lower=0.0, upper=1.0,
                       ramp_limit=1.0, prev_value=0.5)
        s = solve(qp, -0.5)
        np.testing.assert_allclose(s.profile, 0.5, atol=1e-10)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.0, 1.0, size=(1000, 3))
        for x in pts:
            if np.abs(x - s.profile).max() > 1e-3:
                assert s.objective < qp.objective(x, np.full(3, -0.5))


def mw_instance(rng, h=3):
    """A device QP at MW scale, in watts: weights at WEIGHT_FLOOR or O(1),
    SoC rows with kappa ~ 1e-11 per W, some SoC limits nearly binding, and
    some anchors a ramp chain cannot leave."""
    p_max = rng.uniform(5e6, 40e6)
    lo = p_max * rng.uniform(-1.0, 0.5)
    ramp = rng.uniform(1e6, 40e6)
    prev = rng.uniform(lo - 1.5 * ramp, p_max)
    weight = WEIGHT_FLOOR if rng.uniform() < 0.5 else rng.uniform(0.3, 3.0)
    lin = -weight * p_max * rng.uniform(-2.0, 2.0, h)
    kw, oracle_kw = {}, {}
    if rng.uniform() < 0.7:
        kappa = 1.0 / (rng.uniform(2000.0, 20000.0) * 3600.0 * 1000.0)
        soc0 = 0.1 + 10.0 ** rng.uniform(-5.0, -0.5)
        kw = dict(cumsum_coeff=kappa, cumsum_init=soc0, cumsum_lower=0.1,
                  cumsum_upper=0.9)
        oracle_kw = dict(kappa=kappa, soc0=soc0, soc_min=0.1, soc_max=0.9)
    qp = HorizonQp(h=h, quad_diag=weight, lower=lo, upper=p_max,
                   ramp_limit=ramp, prev_value=prev, **kw)
    a, b = unit_rows(*horizon_qp_matrices(h, lo, p_max, ramp, prev,
                                          **oracle_kw))
    return qp, lin, a, b


class TestMwScale:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_statuses_are_certified(self, seed):
        qp, lin, a, b = mw_instance(np.random.default_rng(seed))
        tol = 1e-8
        s = solve(qp, lin, tol=tol)
        # least worst violation of any point, in W (HiGHS, SoC rows in W)
        t_star = min_max_violation(a, b)
        scale = float(np.max(np.abs(b)))
        if s.status == INFEASIBLE:
            assert t_star > 0.0
            return
        if t_star > 1e-6 * scale:
            pytest.fail(f"{s.status} on an empty polytope (t* = {t_star} W)")
        if t_star < -1e-6 * scale:
            assert s.status == OPTIMAL
        if s.status != OPTIMAL:
            return
        x = s.profile
        assert float(np.max(a @ x - b)) <= tol * max(1.0, np.abs(x).max())
        # the same optimum as active-set enumeration, run in units of
        # 1/sqrt(weight) W so that its KKT systems are well scaled
        unit = 1.0 / np.sqrt(qp.quad_diag[0])
        y_ref, _ = enumerate_qp(np.ones(qp.h), lin * unit, a, b / unit,
                                tol=1e-9 * scale / unit)
        assert y_ref is not None
        x_ref = y_ref * unit
        gap = qp.objective(x, lin) - qp.objective(x_ref, lin)
        curvature = float(qp.quad_diag[0]) * scale * scale
        assert abs(gap) <= 1e-11 * max(curvature, 1.0), gap


class TestStatuses:
    def test_infeasible_chain(self):
        # box [5,6] unreachable from 0 with ramp 1 at h=1
        qp = HorizonQp(h=1, quad_diag=1.0, lower=5.0, upper=6.0,
                       ramp_limit=1.0, prev_value=0.0)
        s = solve(qp, 0.0)
        assert s.status == INFEASIBLE
        assert s.objective == np.inf

    def test_infeasible_cumsum_vs_box(self):
        # box forces sum(x) = 5 but the cumsum slab caps it at 4
        qp = HorizonQp(h=5, quad_diag=1.0, lower=1.0, upper=1.0,
                       ramp_limit=10.0, prev_value=1.0, cumsum_coeff=0.1,
                       cumsum_init=0.5, cumsum_lower=0.1, cumsum_upper=0.9)
        assert feasibility_check(qp) == INFEASIBLE
        assert solve(qp, 0.0).status == INFEASIBLE

    def test_subnormal_violation_of_the_unconstrained_point(self):
        # x_u = 0 misses the lower bound by a subnormal while the upper row
        # has 5e6 of slack: scaling the LDP by the largest violation would
        # overflow, and x_u is the answer to any tolerance
        qp = HorizonQp(h=1, quad_diag=1.0, lower=2.5e-317, upper=5e6,
                       ramp_limit=5e6, prev_value=2.5e-317)
        s = solve(qp, 0.0)
        assert s.status == OPTIMAL
        assert s.profile[0] == 0.0
        assert s.primal_residual <= 1e-300

    def test_nnls_iteration_cap_is_max_iter(self, monkeypatch):
        qp = HorizonQp(h=3, quad_diag=[1.0, 2.0, 3.0],
                       lower=-1.0, upper=1.0, ramp_limit=0.4, prev_value=0.0)

        def capped(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(qpmod, "nnls", capped)
        s = solve(qp, [5.0, -4.0, 1.0])
        assert s.status == MAX_ITER
        assert np.all(np.isfinite(s.profile))
        # a coordination whose node solves hit the cap still returns
        fleet = Fleet(bus=BusSpec(), pgms=[PgmNodeState(PgmSpec(), 30e6)],
                      pcms=[PcmNodeState(PcmSpec(), 0.5, 0.0)])
        rep = coordinate(fleet, np.full(5, 60e6), max_iter=3)
        assert not rep.converged
        assert rep.gen[0].qp_status == MAX_ITER


class TestFeasibilityCheck:
    def test_plain_box(self):
        qp = HorizonQp(h=4, quad_diag=1.0, lower=0.0, upper=1.0,
                       ramp_limit=10.0, prev_value=0.5)
        assert feasibility_check(qp) == FEASIBLE

    def test_unreachable_box(self):
        qp = HorizonQp(h=1, quad_diag=1.0, lower=5.0, upper=6.0,
                       ramp_limit=1.0, prev_value=0.0)
        assert feasibility_check(qp) == INFEASIBLE

    def test_chain_needs_multiple_steps(self):
        # prev=0, ramp 1: step k reaches at most k+1, so lower=3 at h=3 is
        # reachable only at the last step
        qp = HorizonQp(h=3, quad_diag=1.0, lower=[0.0, 0.0, 3.0],
                       upper=3.0, ramp_limit=1.0, prev_value=0.0)
        assert feasibility_check(qp) == FEASIBLE
        qp = HorizonQp(h=3, quad_diag=1.0, lower=[0.0, 0.0, 3.5],
                       upper=4.0, ramp_limit=1.0, prev_value=0.0)
        assert feasibility_check(qp) == INFEASIBLE

    def test_cumsum_feasible_interior(self):
        qp = HorizonQp(h=5, quad_diag=1.0, lower=-1.0, upper=1.0,
                       ramp_limit=2.0, prev_value=0.0, cumsum_coeff=0.01,
                       cumsum_init=0.5, cumsum_lower=0.1, cumsum_upper=0.9)
        assert feasibility_check(qp) == FEASIBLE

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_oracle_existence(self, seed):
        rng = np.random.default_rng(seed)
        qp, q, a, b = random_instance(rng, with_cumsum=True)
        xo, _ = enumerate_qp(qp.quad_diag, q, a, b)
        verdict = feasibility_check(qp)
        assert verdict == (FEASIBLE if xo is not None else INFEASIBLE)


class TestValidation:
    def test_rejects_nonpositive_quad(self):
        with pytest.raises(ValueError):
            HorizonQp(h=2, quad_diag=0.0, lower=0.0, upper=1.0,
                      ramp_limit=1.0, prev_value=0.0)

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            HorizonQp(h=2, quad_diag=1.0, lower=2.0, upper=1.0,
                      ramp_limit=1.0, prev_value=0.0)

    @pytest.mark.parametrize("lower, upper", [
        (np.nan, 1.0), (0.0, np.nan),
        (np.array([0.0, np.nan]), 1.0), (0.0, np.array([1.0, np.nan]))])
    def test_rejects_nan_bounds(self, lower, upper):
        # a NaN bound compares false both ways; it used to be read as no
        # bound, and at lin (5, 5) the solve returned (-5, -5), 5 beyond
        # the ramp from 0
        with pytest.raises(ValueError, match="lower must be <= upper"):
            HorizonQp(h=2, quad_diag=1.0, lower=lower, upper=upper,
                      ramp_limit=1.0, prev_value=0.0)

    @pytest.mark.parametrize("coeff", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_cumsum_coeff(self, coeff):
        # a NaN coefficient used to drop every SoC row
        with pytest.raises(ValueError, match="cumsum_coeff must be finite"):
            HorizonQp(h=3, quad_diag=1.0, lower=-5.0, upper=5.0,
                      ramp_limit=10.0, prev_value=0.0, cumsum_coeff=coeff,
                      cumsum_init=0.5, cumsum_lower=0.1, cumsum_upper=0.9)

    def test_rejects_cumsum_init_outside_bounds(self):
        with pytest.raises(ValueError):
            HorizonQp(h=2, quad_diag=1.0, lower=0.0, upper=1.0,
                      ramp_limit=1.0, prev_value=0.0, cumsum_coeff=0.1,
                      cumsum_init=0.95, cumsum_lower=0.1, cumsum_upper=0.9)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            HorizonQp(h=0, quad_diag=1.0, lower=0.0, upper=1.0,
                      ramp_limit=1.0, prev_value=0.0)

    def test_rejects_bad_tol(self):
        qp = HorizonQp(h=1, quad_diag=1.0, lower=0.0, upper=1.0,
                       ramp_limit=1.0, prev_value=0.0)
        with pytest.raises(ValueError):
            solve(qp, 0.0, tol=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 2])
    def test_rejects_nonfinite_lin(self, value, where):
        qp = HorizonQp(h=3, quad_diag=1.0, lower=0.0, upper=1.0,
                       ramp_limit=1.0, prev_value=0.5)
        lin = np.zeros(3)
        lin[where] = value
        with pytest.raises(ValueError, match="lin must be finite"):
            solve(qp, lin)
        with pytest.raises(ValueError, match="lin must be finite"):
            solve(qp, value)

    def test_accepts_finite_lin_whose_sum_overflows(self):
        # no finite row: x_u is the answer
        qp = HorizonQp(h=2, quad_diag=1.0, lower=-np.inf, upper=np.inf,
                       ramp_limit=np.inf, prev_value=0.0)
        s = solve(qp, np.array([1e308, 1e308]))
        assert s.status == OPTIMAL
        np.testing.assert_array_equal(s.profile, [-1e308, -1e308])

    def test_h_one_minimal_problem(self):
        qp = HorizonQp(h=1, quad_diag=2.0, lower=0.0, upper=10.0,
                       ramp_limit=0.3, prev_value=0.5)
        s = solve(qp, -2.0)
        # unconstrained min at 1.0, ramp allows [0.2, 0.8]
        assert s.profile[0] == pytest.approx(0.8, abs=1e-9)


def fresh_ldp(qp):
    """The kernel of ``qp`` built without the rows memo."""
    a, b = qp.constraint_rows()
    return qpmod.Ldp(qpmod.LdpRows(qp.quad_diag, a), b, *qp.effective_box())


def assert_same_solve(got, want):
    x, status, iters, viol = got
    x_ref, status_ref, iters_ref, viol_ref = want
    assert (status, iters, viol) == (status_ref, iters_ref, viol_ref)
    if x_ref is None:
        assert x is None
    else:
        assert x.tobytes() == x_ref.tobytes()


# one horizon row pattern: boxes with infinite sides, SoC rows, weights at
# the floor
row_patterns = dict(
    h=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
    lower_inf=st.booleans(), upper_inf=st.booleans(), with_soc=st.booleans(),
    weight=st.one_of(st.just(WEIGHT_FLOOR), st.floats(WEIGHT_FLOOR, 10.0)))


def pattern_problems(h, seed, lower_inf, upper_inf, with_soc, weight):
    """The random generator of a row pattern and a function that draws a
    (problem, linear term) pair of that pattern at a random state."""
    rng = np.random.default_rng(seed)
    p_max = rng.uniform(1e6, 4e7)
    lower = -np.inf if lower_inf else -rng.uniform(0.0, 1.0) * p_max
    upper = np.inf if upper_inf else p_max
    kw = {}
    if with_soc:
        kw = dict(cumsum_coeff=1.0 / (rng.uniform(2e3, 2e4) * 3.6e6),
                  cumsum_init=rng.uniform(0.1, 0.9), cumsum_lower=0.1,
                  cumsum_upper=0.9)
    ramp = rng.uniform(0.05, 1.0) * p_max

    def problem():
        lin = weight * p_max * rng.uniform(-2.0, 2.0, h)
        return HorizonQp(h=h, quad_diag=weight,
                         lower=lower, upper=upper, ramp_limit=ramp,
                         prev_value=rng.uniform(-1.0, 1.0) * p_max,
                         **kw), lin

    return rng, problem


class TestRowsMemo:
    """`HorizonQp.ldp` takes its rows from a memo keyed on the Hessian and
    the row pattern; it must solve exactly as a kernel built afresh."""

    @given(**row_patterns)
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_fresh_kernel(self, **pattern):
        _, problem = pattern_problems(**pattern)
        # the rows were memoized by an earlier problem at another state
        (earlier, _), (qp, lin) = problem(), problem()
        assert qp.ldp.a is earlier.ldp.a
        fresh = fresh_ldp(qp)
        for tol in (1e-8, 1e-6):
            assert_same_solve(qp.ldp.solve(lin, tol),
                              fresh.solve(lin, tol))

    def test_interleaved_solves_on_shared_rows(self):
        # two batteries at different states share one row structure; each
        # kernel writes only its own copy of E
        def battery(prev, soc):
            return HorizonQp(h=5, quad_diag=1.0, lower=-2e7,
                             upper=2e7, ramp_limit=2e7, prev_value=prev,
                             cumsum_coeff=2.8e-11, cumsum_init=soc,
                             cumsum_lower=0.1, cumsum_upper=0.9)

        a, b = battery(5e6, 0.6), battery(-3e6, 0.1000001)
        assert a.ldp.a is b.ldp.a and a.ldp.e is not b.ldp.e
        rng = np.random.default_rng(5)
        prices = [rng.uniform(-4e7, 4e7, 5) for _ in range(6)]
        want = [fresh_ldp(p).solve(q, 1e-8)
                for q in prices for p in (a, b)]
        got = [p.ldp.solve(q, 1e-8) for q in prices for p in (a, b)]
        for g, w in zip(got, want):
            assert_same_solve(g, w)

    def test_memo_stays_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            fleet = random_fleet(rng)
            for g in fleet.pgms:
                pgm_qp(g.spec, g.prev_power_w, 5).ldp
            for b in fleet.pcms:
                pcm_qp(b.spec, fleet.bus, b.soc, b.prev_power_w,
                       fleet.td_s, 5).ldp
        info = qpmod._ldp_rows.cache_info()
        assert info.maxsize == qpmod.LDP_ROWS_MEMO_SIZE
        assert info.currsize <= qpmod.LDP_ROWS_MEMO_SIZE
        assert info.misses > qpmod.LDP_ROWS_MEMO_SIZE  # entries were evicted


class TestRightHandSide:
    """A step builds its right-hand side, effective box and rows key from
    Python floats over the device's shared fixed part; the kernel, the LP
    rows, the effective box and the key must equal the reference built
    array by array."""

    @given(h=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           lower=st.sampled_from(["inf", "zero", "negative zero", "finite"]),
           upper_inf=st.booleans(), ramp_inf=st.booleans(),
           soc_sign=st.sampled_from([0.0, 1.0, -1.0]),
           soc_lower_inf=st.booleans(), soc_upper_inf=st.booleans(),
           weight=st.one_of(st.just(WEIGHT_FLOOR),
                            st.floats(WEIGHT_FLOOR, 10.0)),
           arrays=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equal_to_the_reference(self, h, seed, lower, upper_inf, ramp_inf,
                                    soc_sign, soc_lower_inf, soc_upper_inf,
                                    weight, arrays):
        rng = np.random.default_rng(seed)
        p_max = rng.uniform(1e6, 4e7)
        lower = {"inf": -np.inf, "zero": 0.0, "negative zero": -0.0,
                 "finite": -rng.uniform(0.0, 1.0) * p_max}[lower]
        upper = np.inf if upper_inf else p_max
        # with an infinite ramp, a step-0 row is infinite where its box
        # side is
        kw = dict(h=h, quad_diag=weight, lower=lower, upper=upper,
                  ramp_limit=np.inf if ramp_inf
                  else rng.uniform(0.05, 1.0) * p_max,
                  prev_value=rng.uniform(-1.0, 1.0) * p_max)
        if soc_sign:
            kw.update(cumsum_coeff=soc_sign / (rng.uniform(2e3, 2e4) * 3.6e6),
                      cumsum_init=rng.uniform(0.1, 0.9),
                      cumsum_lower=-np.inf if soc_lower_inf else 0.1,
                      cumsum_upper=np.inf if soc_upper_inf else 0.9)
        if arrays:
            kw.update({k: np.full(h, kw[k])
                       for k in ("quad_diag", "lower", "upper")})
        qp = HorizonQp(**kw)
        b, lo, hi = horizon_rhs(**kw)
        keep = np.isfinite(b)
        a_rows, b_rows = qp.constraint_rows()
        assert a_rows.shape == (keep.sum(), h)
        pairs = [(qp.quad_diag, np.full(h, weight)),
                 (qp.lower, np.full(h, lower)), (qp.upper, np.full(h, upper)),
                 *zip(qp.effective_box(), (lo, hi)),
                 (qp.ldp.lo, lo), (qp.ldp.hi, hi), (b_rows, b[keep]),
                 (qp.ldp.b, b[keep] / qp.ldp.rows.norms)]
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()
        # the kept-row flags and the rows key come from the fixed part's
        # memo, not from the right-hand side
        key = qp.ldp_parts()[3]
        assert key == (np.full(h, weight).tobytes(), bool(soc_sign),
                       keep.tobytes())
        assert qp.ldp.rows is qpmod._ldp_rows(h, key)

    def test_expanded_arrays_are_shared_read_only_and_bounded(self):
        rng = np.random.default_rng(2)
        g = random_fleet(rng).pgms[0]
        first = pgm_qp(g.spec, g.prev_power_w, 5)
        again = pgm_qp(g.spec, 0.5 * g.prev_power_w, 5)
        for name in ("quad_diag", "lower", "upper"):
            shared = getattr(first, name)
            assert shared is getattr(again, name)
            with pytest.raises(ValueError):
                shared[0] = 0.0
        for _ in range(300):
            fleet = random_fleet(rng)
            for g in fleet.pgms:
                pgm_qp(g.spec, g.prev_power_w, 5)
            for b in fleet.pcms:
                pcm_qp(b.spec, fleet.bus, b.soc, b.prev_power_w,
                       fleet.td_s, 5)
        info = qpmod._fixed_part.cache_info()
        assert info.maxsize == qpmod.FIXED_PART_MEMO_SIZE
        assert info.currsize <= qpmod.FIXED_PART_MEMO_SIZE
        assert info.misses > qpmod.FIXED_PART_MEMO_SIZE  # entries were evicted


def counted_nnls(monkeypatch):
    """Counts the kernel's `nnls` calls from here on."""
    calls = []
    nnls = qpmod.nnls

    def counted(*args, **kwargs):
        calls.append(1)
        return nnls(*args, **kwargs)

    monkeypatch.setattr(qpmod, "nnls", counted)
    return calls


class TestActiveSetContinuation:
    """`Ldp.solve` first tries the active set of its last certified solve;
    an answer must not depend on whether that shortcut was taken."""

    @given(**row_patterns, steps=st.integers(2, 30),
           jump=st.floats(0.0, 1.0))
    @settings(max_examples=120, deadline=None)
    def test_price_walk_equals_cold_solves(self, steps, jump, **pattern):
        rng, problem = pattern_problems(**pattern)
        qp, lin = problem()
        warm = qp.ldp
        scale = float(np.abs(lin).max())
        for _ in range(steps):
            for tol in (1e-8, 1e-6):
                assert_same_solve(warm.solve(lin, tol),
                                  fresh_ldp(qp).solve(lin, tol))
            # small moves keep the active set, a jump changes it
            size = 1.0 if rng.uniform() < jump else 1e-3
            lin = lin + size * scale * rng.uniform(-1.0, 1.0, qp.h)

    def test_walk_in_one_region_calls_nnls_once(self, monkeypatch):
        qp = HorizonQp(h=3, quad_diag=1.0, lower=-1.0, upper=1.0,
                       ramp_limit=10.0, prev_value=0.0)
        ldp = fresh_ldp(qp)
        calls = counted_nnls(monkeypatch)
        # x_u = (2 + t, -0.5, 0.3): only the upper bound of step 0 binds
        for t in np.linspace(0.0, 1.0, 8):
            x, status, iters, _ = ldp.solve(np.array([-2.0 - t, 0.5, -0.3]),
                                            1e-8)
            assert status == OPTIMAL and iters == 1
            np.testing.assert_allclose(x, [1.0, -0.5, 0.3], atol=1e-12)
        assert len(calls) == 1
        # a jump to x_u = (-2, -3, 0.3) binds two lower bounds instead
        for t in np.linspace(0.0, 1.0, 8):
            x, status, _, _ = ldp.solve(np.array([2.0, 3.0 + t, -0.3]), 1e-8)
            np.testing.assert_allclose(x, [-1.0, -1.0, 0.3], atol=1e-12)
        assert len(calls) == 2
        # a new kernel over the same rows starts from their last active set
        _, b = qp.constraint_rows()
        other = qpmod.Ldp(ldp.rows, b, *qp.effective_box())
        other.solve(np.array([2.5, 3.5, 0.1]), 1e-8)
        assert len(calls) == 2

    def test_equality_rows_build_no_map(self, monkeypatch):
        # x1 + x2 = 1 written as two inequality rows, not as an equality
        # (`LdpRows.n_eq`): the twin of the active row is active too, so
        # no map can pass the certificate and none is built
        a = np.array([[1.0, 1.0], [-1.0, -1.0]])
        rows = qpmod.LdpRows(np.ones(2), a)
        ldp = qpmod.Ldp(rows, np.array([1.0, -1.0]), np.full(2, -np.inf),
                        np.full(2, np.inf))

        def no_map(self, active):
            raise AssertionError("built an active-set map")

        monkeypatch.setattr(qpmod.LdpRows, "active_map", no_map)
        # x_u = (2, 3) projects onto (0, 1)
        x, status, iters, _ = ldp.solve(np.array([-2.0, -3.0]), 1e-8)
        assert (status, iters) == (OPTIMAL, 1)
        np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-12)
        assert not rows.maps

    def test_each_active_set_is_factored_once(self, monkeypatch):
        # prices alternating between two regions take turns as the newest
        # map; each region's map is factored once and then reused
        qp = HorizonQp(h=3, quad_diag=1.0, lower=-1.0, upper=1.0,
                       ramp_limit=10.0, prev_value=0.0)
        ldp = fresh_ldp(qp)
        factored = []
        eigh = np.linalg.eigh

        def counted(m):
            factored.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        calls = counted_nnls(monkeypatch)
        for _ in range(5):
            # x_u = (2, -0.5, 0.3), then (-2, -3, 0.3): one upper bound,
            # then two lower bounds bind
            ldp.solve(np.array([-2.0, 0.5, -0.3]), 1e-8)
            ldp.solve(np.array([2.0, 3.0, -0.3]), 1e-8)
        assert factored == [(1, 1), (2, 2)]
        # x_u misses the first region by 1 = max(rho), where the
        # subnormal-overflow exit is tested first and does not fire: each
        # region calls `nnls` once, and later solves take its map from the
        # memo
        assert len(calls) == 2

    def test_memo_holds_only_maps_that_certified(self, monkeypatch):
        passed = []
        certified = qpmod.Ldp._certified

        def recorded(self, amap, xu, slack, tol):
            hit = certified(self, amap, xu, slack, tol)
            if hit is not None:
                passed.append(amap)
            return hit

        monkeypatch.setattr(qpmod.Ldp, "_certified", recorded)
        for seed in range(12):
            rng, problem = pattern_problems(
                h=1 + seed % 6, seed=seed, lower_inf=seed % 4 == 1,
                upper_inf=seed % 4 == 2, with_soc=seed % 2 == 1,
                weight=WEIGHT_FLOOR if seed % 3 else 1.0)
            qp, lin = problem()
            ldp = fresh_ldp(qp)
            scale = float(np.abs(lin).max())
            for _ in range(30):
                ldp.solve(lin, 1e-8)
                assert all(any(m is p for p in passed)
                           for m in ldp.rows.maps.values())
                size = 1.0 if rng.uniform() < 0.3 else 1e-3
                lin = lin + size * scale * rng.uniform(-1.0, 1.0, qp.h)

    def test_a_map_that_fails_at_its_own_nnls_point_is_not_kept(
            self, monkeypatch):
        # x_u = (1 + 1e-3, 1 - 4e-9) misses x0 <= 1 and clears x1 <= 1 by
        # less than t/2 = 5e-9, so the set of the `nnls` point is both
        # upper bounds; forcing x1 gives it the multiplier -4e-9, below
        # -tol times the largest (1e-3), so that map does not certify
        built = []
        active_map = qpmod.LdpRows.active_map

        def recorded(self, active):
            built.append(np.flatnonzero(active).tolist())
            return active_map(self, active)

        monkeypatch.setattr(qpmod.LdpRows, "active_map", recorded)
        a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        rows = qpmod.LdpRows(np.ones(2), a)
        ldp = qpmod.Ldp(rows, np.array([1.0, 1.0, 10.0, 10.0]),
                        np.full(2, -10.0), np.full(2, 1.0))
        (x, status, _, _), exit_ = solve_exit(
            ldp, -np.array([1.0 + 1e-3, 1.0 - 4e-9]), 1e-8)
        assert (status, exit_) == (OPTIMAL, "nnls") and x[1] < 1.0
        assert built == [[0, 1]] and not rows.maps
        # at x_u = (2, 2) the same set certifies, through `nnls`, and is
        # kept from then on
        _, exit_ = solve_exit(ldp, np.array([-2.0, -2.0]), 1e-8)
        assert exit_ == "nnls" and built == [[0, 1]] * 2
        assert [m[0].tolist() for m in rows.maps.values()] == [[0, 1]]
        _, exit_ = solve_exit(ldp, np.array([-3.0, -3.0]), 1e-8)
        assert exit_ == "hint"

    def test_map_memo_stays_bounded(self):
        qp = HorizonQp(h=8, quad_diag=1.0, lower=-1.0, upper=1.0,
                       ramp_limit=0.5, prev_value=0.0)
        ldp = fresh_ldp(qp)
        rng = np.random.default_rng(4)
        for _ in range(200):
            ldp.solve(rng.uniform(-3.0, 3.0, qp.h), 1e-8)
        assert len(ldp.rows.maps) == qpmod.ACTIVE_MAP_MEMO_SIZE


def newest_map(rows):
    """The map of the rows' last certified solve, None before any."""
    return next(reversed(rows.maps.values()), None)


def solve_exit(ldp, lin, tol):
    """`ldp.solve(lin, tol)` and the exit it counted in `qp.EXITS`."""
    before = qpmod.EXITS.copy()
    out = ldp.solve(lin, tol)
    (exit_,) = (qpmod.EXITS - before).keys()
    return out, exit_


class TestWeaklyActiveRows:
    """A row active at the optimum with a zero multiplier certifies, on the
    newest map, an older one and the `nnls` path alike."""

    @given(h=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           weight=st.floats(1e-6, 10.0), ulps=st.integers(-4, 4))
    @settings(max_examples=100, deadline=None)
    def test_ramp_at_its_limit_for_two_steps(self, h, seed, weight, ulps):
        rng = np.random.default_rng(seed)
        p_max = rng.uniform(1e6, 4e7)
        ramp = rng.uniform(0.05, 0.3) * p_max
        prev = rng.uniform(0.7, 1.0) * p_max
        qp = HorizonQp(h=h, quad_diag=weight,
                       lower=rng.uniform(0.0, 0.05) * p_max, upper=p_max,
                       ramp_limit=ramp, prev_value=prev)
        # step 0 wants below its ramp anchor prev - ramp; from step 1 on,
        # x_u sits on (or within rounding of) the row ramping down from
        # step 0 to step 1, which is then active with a zero multiplier
        below = prev - ramp - rng.uniform(0.1, 0.5) * ramp
        on_row = prev - 2.0 * ramp
        for _ in range(abs(ulps)):
            on_row = np.nextafter(on_row, ulps * np.inf)
        weak = -weight * np.array([below] + [on_row] * (h - 1))
        # only the anchored bound of step 0 binds
        flat = -weight * np.full(h, below)
        for tol in (1e-8, 1e-6):
            cold, exit_ = solve_exit(fresh_ldp(qp), weak, tol)
            assert exit_ == "nnls" and cold[1] == OPTIMAL
            warm = fresh_ldp(qp)
            first, exit_ = solve_exit(warm, weak, tol)
            assert exit_ == "nnls"
            again, exit_ = solve_exit(warm, weak, tol)
            assert exit_ == "hint"
            solve_exit(warm, flat, tol)  # another set becomes the newest
            memo, exit_ = solve_exit(warm, weak, tol)
            assert exit_ == "memo"
            for got in (first, again, memo):
                assert_same_solve(got, cold)

    def test_row_just_beyond_the_margin_is_not_forced(self):
        # x_u = (5, 1 - 1.5e-8) misses x0 <= 1 and clears x1 <= 1 by
        # 1.5 t: the set {x0 <= 1} certifies. The newest map, of
        # {x0 <= 1, x1 <= 1}, left by x_u = (5, 2) has multipliers
        # (4, -1.5e-8), within -tol times the largest, but would force x1
        # by more than t/2
        a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        b = np.array([1.0, 1.0, 10.0, 10.0])

        def kernel():
            return qpmod.Ldp(qpmod.LdpRows(np.ones(2), a), b,
                             np.full(2, -10.0), np.full(2, 1.0))

        warm = kernel()
        _, exit_ = solve_exit(warm, np.array([-5.0, -2.0]), 1e-8)
        assert exit_ == "nnls" and newest_map(warm.rows)[0].size == 2
        q = np.array([-5.0, -1.0 + 1.5e-8])
        got = warm.solve(q, 1e-8)
        assert got[0][1] < 1.0
        assert_same_solve(got, kernel().solve(q, 1e-8))


def stacked_kernel(qps, p_f):
    """The fleet problem over the node problems ``qps`` with the balance
    sum_i x_i = ``p_f`` as equality rows, built without any memo, and its
    rows (A, b) with the balance as two inequality rows each."""
    blocks = [qp.constraint_rows() for qp in qps]
    balance = np.tile(np.eye(p_f.size), len(qps))
    a = np.vstack([block_diag(*[r for r, _ in blocks]), balance, -balance])
    b = np.concatenate([b for _, b in blocks] + [p_f, -p_f])
    boxes = [qp.effective_box() for qp in qps]
    rows = qpmod.LdpRows(np.concatenate([qp.quad_diag for qp in qps]), a,
                         n_eq=p_f.size)
    kernel = qpmod.Ldp(rows, b, np.concatenate([lo for lo, _ in boxes]),
                       np.concatenate([hi for _, hi in boxes]))
    return kernel, a, b


def map_multipliers(ldp, amap, lin):
    """The multipliers of the active rows of ``amap`` at the linear term
    ``lin``, equality rows last."""
    rows, _, kp, _, _ = amap
    slack = ldp.a @ (lin / ldp.neg_d) - ldp.b
    return kp[:rows.size] @ slack[rows]


class TestEqualityRows:
    """Balance rows written as equalities (`LdpRows.n_eq`): their
    multipliers take either sign, and a map holds them and not their
    negations."""

    @staticmethod
    def node(d, upper, prev=0.0):
        return HorizonQp(h=2, quad_diag=d, lower=-1.0, upper=upper,
                         ramp_limit=10.0, prev_value=prev)

    def test_negative_balance_multiplier_certifies(self):
        # x_u = (0.8, 0.2) and (0.5, -0.1): node 1 is held at its upper
        # bound 0.5 at step 0, and both steps' demand lies above what the
        # nodes want there, so both balance multipliers are negative
        qps = [self.node(1.0, 0.5), self.node(2.0, 1.0)]
        d = np.concatenate([qp.quad_diag for qp in qps])
        lin = -d * np.array([0.8, 0.2, 0.5, -0.1])
        p_f = np.array([1.1, 0.5])
        kernel, a, b = stacked_kernel(qps, p_f)
        (x, status, _, _), exit_ = solve_exit(kernel, lin, 1e-9)
        assert (status, exit_) == (OPTIMAL, "nnls")
        amap = newest_map(kernel.rows)
        assert amap is not None and len(kernel.rows.maps) == 1
        mu = map_multipliers(kernel, amap, lin)
        assert len(amap[3]) == 1 and mu[0] > 0.0  # node 1's upper bound
        assert np.all(mu[-2:] < 0.0)
        np.testing.assert_allclose(x, [0.5, 0.4667, 0.6, 0.0333],
                                   atol=1e-4)
        xo, fo = enumerate_qp(d, lin, a, b)
        assert 0.5 * x @ (d * x) + lin @ x == pytest.approx(fo, abs=1e-9)
        got, exit_ = solve_exit(kernel, lin, 1e-9)
        assert exit_ == "hint"
        assert got[0].tobytes() == x.tobytes()

    def test_balance_dependent_on_active_bounds_keeps_no_map(self):
        # demand at the fleet's maximum: every upper bound is active and
        # the balance rows are their sum, so K_S is singular
        qps = [self.node(1.0, 1.0), self.node(2.0, 1.0)]
        d = np.concatenate([qp.quad_diag for qp in qps])
        lin = -d * 2.0
        kernel, a, b = stacked_kernel(qps, np.full(2, 2.0))
        for _ in range(2):
            (x, status, _, _), exit_ = solve_exit(kernel, lin, 1e-9)
            assert (status, exit_) == (OPTIMAL, "nnls")
            np.testing.assert_allclose(x, 1.0, atol=1e-9)
            assert not kernel.rows.maps
        xo, _ = enumerate_qp(d, lin, a, b)
        np.testing.assert_allclose(x, xo, atol=1e-9)

    @given(seed=st.integers(0, 2**32 - 1), soc=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_enumeration(self, seed, soc):
        # two nodes over two steps, one with SoC rows; the demand is the
        # sum of a feasible point of each, so the fleet problem is feasible
        rng = np.random.default_rng(seed)
        qps = [random_instance(rng, h=2)[0],
               random_instance(rng, h=2, with_cumsum=soc)[0]]
        points = [solve(qp, rng.uniform(-2.0, 2.0, 2)) for qp in qps]
        assume(all(s.status == OPTIMAL for s in points))
        p_f = sum(s.profile for s in points)
        d = np.concatenate([qp.quad_diag for qp in qps])
        kernel, a, b = stacked_kernel(qps, p_f)
        for _ in range(3):
            lin = rng.uniform(-3.0, 3.0, 4)
            first = kernel.solve(lin, 1e-9)
            x, status, _, viol = first
            assert status == OPTIMAL
            assert viol <= 1e-9 * max(1.0, float(np.abs(x).max()))
            _, fo = enumerate_qp(d, lin, a, b)
            assert 0.5 * x @ (d * x) + lin @ x == pytest.approx(fo, abs=1e-7)
            # a kept map gives the answer of a cold kernel, bitwise
            assert_same_solve(kernel.solve(lin, 1e-9), first)
            assert_same_solve(stacked_kernel(qps, p_f)[0].solve(lin, 1e-9),
                              first)


def numpy_certified(ldp, amap, xu, slack, tol):
    """`Ldp._certified` with numpy's reductions, which propagate NaN."""
    rows, off, kp, k_diag, held = amap
    y = kp @ slack[rows]
    mu = y[:len(k_diag)]
    if mu.size and not mu.min() >= -tol * mu.max():
        return None
    x = xu - y[rows.size:]
    t = tol * max(1.0, float(np.abs(x).max()))
    v = ldp.a @ x - ldp.b
    if off.size and not v[off].max() < -t:
        return None
    top = float(v[held].max())
    if not (-t <= v[held].min() and top <= t):
        return None
    if not np.all(mu >= -0.5 * t * np.array(k_diag)):
        return None
    return x, max(top, 0.0)


class TestCertificateReductions:
    @given(**row_patterns, where=st.lists(st.tuples(
        st.booleans(), st.integers(0, 200),
        st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308])),
        max_size=3), tol=st.sampled_from([1e-8, 1e-4, 1e-2, 0.3]))
    @settings(max_examples=200, deadline=None)
    def test_python_floats_decide_as_numpy(self, where, tol, **pattern):
        # the map of a certified solve, tried at a nearby price and a
        # tolerance that may be coarse, with non-finite or huge values put
        # into x_u or the slack
        rng, problem = pattern_problems(**pattern)
        qp, lin = problem()
        ldp = fresh_ldp(qp)
        ldp.solve(lin, 1e-8)
        amap = newest_map(ldp.rows)
        if amap is None:
            return
        lin = lin * rng.uniform(0.9, 1.1, qp.h)
        xu = lin / ldp.neg_d
        slack = ldp.a @ xu - ldp.b
        for in_slack, i, value in where:
            target = slack if in_slack else xu
            target[i % target.size] = value
        with np.errstate(all="ignore"):
            got = ldp._certified(amap, xu, slack, tol)
            want = numpy_certified(ldp, amap, xu, slack, tol)
        if want is None:
            assert got is None
        else:
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1]


    def test_a_nan_after_the_first_multiplier_rejects(self):
        # numpy's min and max propagate a NaN; Python's skip one that is
        # not first, which must not let the map pass
        rows = qpmod.LdpRows(np.ones(2), np.vstack([np.eye(2), -np.eye(2)]))
        ldp = qpmod.Ldp(rows, np.array([1.0, 1.0, 10.0, 10.0]),
                        np.full(2, -10.0), np.full(2, 1.0))
        # S is both upper bounds: K_S = I, here with a NaN below its
        # diagonal, and P_S = I
        kp = np.array([[1.0, 0.0], [np.nan, 1.0], [1.0, 0.0], [0.0, 1.0]])
        amap = (np.array([0, 1]), np.array([2, 3]), kp, [1.0, 1.0],
                np.array([0, 1]))
        xu = np.array([2.0, 2.0])
        slack = ldp.a @ xu - ldp.b
        assert numpy_certified(ldp, amap, xu, slack, 1e-8) is None
        assert ldp._certified(amap, xu, slack, 1e-8) is None
        kp[1, 0] = 0.0
        x, _ = ldp._certified(amap, xu, slack, 1e-8)
        np.testing.assert_array_equal(x, [1.0, 1.0])


class TestNanInputs:
    """`qp.solve` rejects a non-finite linear term, but `Ldp.solve` takes
    one as it comes. A NaN in it, or in a right-hand side, must not reach
    an exit that returns x_u or a map's point. numpy's reductions
    propagate a NaN; Python's max and min skip one that is not first, so a
    reduction moved onto Python floats must check for it."""

    def warm_kernel(self):
        """A kernel whose memo holds two maps, and linear terms whose x_u
        is inside the box, above it at step 0 (the older map's set) and
        below it at steps 0 and 1 (the newest map's)."""
        qp = HorizonQp(h=5, quad_diag=1.0, lower=-1.0, upper=1.0,
                       ramp_limit=10.0, prev_value=0.0)
        ldp = fresh_ldp(qp)
        inside = -np.array([0.1, 0.5, 0.3, -0.2, 0.1])
        above = -np.array([2.0, 0.5, 0.3, -0.2, 0.1])
        below = -np.array([-2.0, -3.0, 0.3, 0.2, 0.1])
        assert solve_exit(ldp, inside, 1e-8)[1] == "shortcut"
        for lin in (above, below):
            assert solve_exit(ldp, lin, 1e-8)[1] == "nnls"
            assert solve_exit(ldp, lin, 1e-8)[1] == "hint"
        return qp, ldp, (inside, above, below)

    @staticmethod
    def exits(ldp, lin):
        before = qpmod.EXITS.copy()
        try:
            ldp.solve(lin, 1e-8)
        except ValueError:  # `nnls` rejects a NaN
            pass
        return set(qpmod.EXITS - before)

    def test_nan_in_the_linear_term(self):
        # the products with the rows spread the NaN to every row
        qp, ldp, lins = self.warm_kernel()
        for i in range(qp.h):
            for lin in lins:
                q = lin.copy()
                q[i] = np.nan
                exits = self.exits(ldp, q)
                assert not exits & {"shortcut", "hint", "memo"}, (i, exits)

    def test_nan_in_one_right_hand_side(self):
        # only that row's slack is NaN, wherever it sits
        qp, ldp, lins = self.warm_kernel()
        _, b = qp.constraint_rows()
        for k in range(b.size):
            b_nan = b.copy()
            b_nan[k] = np.nan
            kernel = qpmod.Ldp(ldp.rows, b_nan, *qp.effective_box())
            for lin in lins:
                exits = self.exits(kernel, lin)
                assert not exits & {"shortcut", "hint", "memo"}, (k, exits)


class TestExitCounters:
    def test_default_run_keeps_nnls_off_the_dual_iteration(self,
                                                           monkeypatch):
        # the 300 s default run takes 823 LDP solves; before weakly active
        # rows certified and the memo was tried, 272 of them called `nnls`
        solves = []
        solve = qpmod.Ldp.solve

        def counted(self, q, tol):
            solves.append(1)
            return solve(self, q, tol)

        monkeypatch.setattr(qpmod.Ldp, "solve", counted)
        qpmod.EXITS.clear()
        run_scenario(dataclasses.replace(default_config(), duration_s=300.0))
        assert set(qpmod.EXITS) <= {"shortcut", "hint", "memo", "nnls",
                                    MAX_ITER, INFEASIBLE}
        assert sum(qpmod.EXITS.values()) == len(solves)
        assert qpmod.EXITS["nnls"] <= 40
