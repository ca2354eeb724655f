import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shipems.qp as qpmod
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
from fleets import random_fleet
from oracles import (
    enumerate_qp,
    horizon_qp_matrices,
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
        # x1 + x2 = 1 written as two rows, as the fleet oracle writes
        # balance: the twin of the active row is active too, so no map can
        # pass the certificate and none is built
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
        assert rows.hint is None

    def test_each_active_set_is_factored_once(self, monkeypatch):
        # prices alternating between two regions move the hint back and
        # forth; each region's map is factored once and then reused
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
        assert len(calls) == 10  # the hint is always the other region's

    def test_map_memo_stays_bounded(self):
        qp = HorizonQp(h=8, quad_diag=1.0, lower=-1.0, upper=1.0,
                       ramp_limit=0.5, prev_value=0.0)
        ldp = fresh_ldp(qp)
        rng = np.random.default_rng(4)
        for _ in range(200):
            ldp.solve(rng.uniform(-3.0, 3.0, qp.h), 1e-8)
        assert len(ldp.rows.maps) == qpmod.ACTIVE_MAP_MEMO_SIZE
