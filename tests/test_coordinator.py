import ast
import dataclasses
import gc
import importlib
import math
import os
import pkgutil
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shipems.coordinator import (
    LP_BOUND_ITERATION,
    _envelope_price,
    _node_problems,
    _reach_bounds,
    _saturated_pass,
    _swept_price,
    CentralizedResult,
    Fleet,
    PcmNodeState,
    PgmNodeState,
    centralized_solve,
    coordinate,
    default_alpha,
    default_balance_tol_w,
    dual_update,
)
import shipems
from shipems import coordinator
from shipems.config import default_config
from shipems import qp as qpmod
from shipems.nodes import WEIGHT_FLOOR, pcm_qp, pcm_solve, pgm_qp, pgm_solve
from shipems.plant import BusSpec, PcmSpec, PgmSpec
from fleets import feasible_demand, fleet_reach_intervals, random_fleet
from oracles import (effective_box, envelope_price, min_max_residual_w,
                     min_shortfall_w, reach_bounds, reach_envelope)

BUS = BusSpec()


def wide_gen(beta=1.0, rated=6e6):
    return PgmSpec(rated_power_w=rated, p_min_w=-1e12, p_max_w=1e12,
                   ramp_limit_w_per_step=1e12, weight_beta=beta)


def wide_batt(gamma=1.0):
    return PcmSpec(p_min_w=-1e12, p_max_w=1e12, ramp_limit_w_per_step=1e12,
                   capacity_ah=1e9, weight_gamma=gamma)


def two_node_fleet(beta=1.0, gamma=1.0, rated=6e6):
    return Fleet(bus=BUS, pgms=[PgmNodeState(wide_gen(beta, rated), rated)],
                 pcms=[PcmNodeState(wide_batt(gamma), 0.5, 0.0)])


class TestDualUpdate:
    def test_balanced_fixed_point(self):
        lam = np.array([1.0, -2.0, 3.0])
        out = dual_update(lam, np.array([4.0, 5.0, 6.0]),
                          np.array([4.0, 5.0, 6.0]), 0.7)
        np.testing.assert_array_equal(out, lam)

    def test_arithmetic(self):
        out = dual_update(np.zeros(3), 2.0 * np.ones(3), np.zeros(3), 0.5)
        np.testing.assert_allclose(out, 1.0)

    def test_two_constant_steps(self):
        lam = np.array([0.5, 0.5])
        g = np.array([3.0, -1.0])
        once = dual_update(lam, g, np.zeros(2), 0.2)
        twice = dual_update(once, g, np.zeros(2), 0.2)
        np.testing.assert_allclose(twice, lam + 2 * 0.2 * g)

    @given(
        lam=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        a=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        b=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        alpha=st.floats(0.01, 2.0),
        c=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_superposition(self, lam, a, b, alpha, c):
        lam, a, b = map(np.array, (lam, a, b))
        zero = np.zeros(3)
        left = dual_update(lam, a + c * b, zero, alpha)
        right = (dual_update(lam, a, zero, alpha)
                 + c * (dual_update(zero, b, zero, alpha)))
        np.testing.assert_allclose(left, right, atol=1e-9)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            dual_update(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)


class TestDefaults:
    def test_alpha_from_weights(self):
        fleet = two_node_fleet(beta=2.0, gamma=0.5)
        assert default_alpha(fleet) == pytest.approx(0.9 / (0.5 + 2.0))

    def test_balance_tol_scales_with_demand(self):
        assert default_balance_tol_w(np.full(5, 10e6)) == pytest.approx(1e3)
        assert default_balance_tol_w(np.zeros(3)) == pytest.approx(1e-4)


class TestCoordinateAnalytic:
    def test_single_generator_meets_demand(self):
        spec = PgmSpec(rated_power_w=6e6, p_min_w=0.0, p_max_w=40e6,
                       ramp_limit_w_per_step=1e9, weight_beta=2.0)
        fleet = Fleet(bus=BUS, pgms=[PgmNodeState(spec, 6e6)], pcms=[])
        p_f = np.full(5, 9e6)
        rep = coordinate(fleet, p_f, bal_tol_w=1.0)
        assert rep.converged
        np.testing.assert_allclose(rep.gen[0].profile, 9e6, atol=1.0)
        # stationarity beta*(p - rated) + lambda = 0 at the optimum
        np.testing.assert_allclose(rep.lambda_final, -2.0 * (9e6 - 6e6),
                                   atol=2.0)

    def test_two_node_split(self):
        rep = coordinate(two_node_fleet(), np.full(5, 10e6), bal_tol_w=1.0)
        assert rep.converged
        np.testing.assert_allclose(rep.gen[0].profile, 8e6, atol=1.0)
        np.testing.assert_allclose(rep.batt[0].profile, 2e6, atol=1.0)

    def test_weighted_split_per_step(self):
        # p_g = (beta*rated + gamma*p_f)/(beta+gamma) componentwise
        beta, gamma, rated = 2.0, 0.5, 5e6
        p_f = np.array([6e6, 7e6, 8e6, 7e6, 6e6])
        rep = coordinate(two_node_fleet(beta, gamma, rated), p_f, bal_tol_w=1.0)
        expect_g = (beta * rated + gamma * p_f) / (beta + gamma)
        np.testing.assert_allclose(rep.gen[0].profile, expect_g, atol=5.0)
        np.testing.assert_allclose(rep.batt[0].profile, p_f - expect_g, atol=5.0)

    def test_zero_demand_zero_rated(self):
        rep = coordinate(two_node_fleet(rated=0.0), np.zeros(5))
        assert rep.converged
        assert rep.iterations_used == 1
        np.testing.assert_allclose(rep.gen[0].profile, 0.0, atol=1e-9)
        np.testing.assert_allclose(rep.lambda_final, 0.0)

    def test_floored_zero_gamma_battery_absorbs_deviation(self):
        fleet = Fleet(bus=BUS, pgms=[PgmNodeState(wide_gen(1.0, 6e6), 6e6)],
                      pcms=[PcmNodeState(wide_batt(0.0), 0.5, 0.0)])
        rep = coordinate(fleet, np.full(5, 10e6), bal_tol_w=1.0)
        assert rep.converged
        np.testing.assert_allclose(rep.batt[0].profile, 4e6, atol=2.0)
        np.testing.assert_allclose(rep.gen[0].profile, 6e6, atol=2.0)


class TestCoordinateBehavior:
    def test_report_bookkeeping(self):
        rep = coordinate(two_node_fleet(), np.full(5, 10e6))
        assert rep.iterations_used == len(rep.residual_history)
        assert rep.final_residual_w <= default_balance_tol_w(np.full(5, 10e6))
        assert rep.shortfall_w == 0.0
        np.testing.assert_allclose(rep.total_power(), 10e6, atol=1e3)

    def test_monotone_residual_after_burn_in(self):
        # a constant demand balances at the envelope price; one that steps
        # within every step's reach often binds a ramp between steps, and
        # plain ascent goes on from there
        rng = np.random.default_rng(3)
        for _ in range(15):
            fleet = random_fleet(rng)
            lo, hi = fleet_reach_intervals(fleet, 5)
            p_f = lo + rng.uniform(0.3, 0.7, 5) * (hi - lo)
            rep = coordinate(fleet, p_f, max_iter=200)
            hist = rep.residual_history[10:]
            for a, b in zip(hist, hist[1:]):
                assert b <= a * (1.0 + 1e-9)

    def test_warm_start_not_slower_on_static_demand(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            fleet = random_fleet(rng)
            p_f = feasible_demand(rng, fleet, 5)
            cold = coordinate(fleet, p_f)
            warm = coordinate(fleet, p_f, lambda_warm=cold.lambda_final)
            assert warm.iterations_used <= cold.iterations_used

    def test_shortfall_reported_when_demand_unreachable(self):
        spec = PgmSpec(rated_power_w=30e6, p_min_w=0.0, p_max_w=40e6,
                       ramp_limit_w_per_step=2e6, weight_beta=1.0)
        fleet = Fleet(bus=BUS, pgms=[PgmNodeState(spec, 30e6)], pcms=[])
        p_f = np.full(5, 50e6)  # beyond the box forever
        rep = coordinate(fleet, p_f, max_iter=400)
        assert not rep.converged
        assert rep.shortfall_w > 0.0
        # best effort pushes to the reachable ceiling 32, 34, ... capped at 40
        expect = np.minimum(30e6 + 2e6 * np.arange(1, 6), 40e6)
        np.testing.assert_allclose(rep.gen[0].profile, expect, atol=1e3)

    def test_broken_node_state_raises(self):
        spec = PgmSpec(rated_power_w=30e6, p_min_w=20e6, p_max_w=40e6,
                       ramp_limit_w_per_step=1e6, weight_beta=1.0)
        fleet = Fleet(bus=BUS, pgms=[PgmNodeState(spec, 0.0)], pcms=[])
        with pytest.raises(RuntimeError):
            coordinate(fleet, np.full(5, 30e6))

    @pytest.mark.parametrize("kwargs, name", [
        ({"alpha": -1.0}, "alpha"),
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": np.nan}, "alpha"),
        ({"alpha": np.inf}, "alpha"),
        ({"bal_tol_w": -1.0}, "bal_tol_w"),
        ({"bal_tol_w": 0.0}, "bal_tol_w"),
        ({"bal_tol_w": np.nan}, "bal_tol_w"),
        ({"lambda_warm": np.zeros(4)}, "lambda_warm"),
        ({"lambda_warm": np.array([0.0, np.nan, 0.0, 0.0, 0.0])},
         "lambda_warm"),
        ({"lambda_warm": np.full(5, np.inf)}, "lambda_warm"),
    ])
    def test_rejects_bad_arguments_at_entry(self, kwargs, name):
        # the first iterate of this fleet balances, so an argument that is
        # only used from the second iteration on must still be rejected
        fleet = two_node_fleet(rated=0.0)
        assert coordinate(fleet, np.zeros(5)).iterations_used == 1
        with pytest.raises(ValueError, match=name):
            coordinate(fleet, np.zeros(5), **kwargs)

    @pytest.mark.parametrize("p_f", [
        np.array([10e6, np.nan, 10e6, 10e6, 10e6]),
        np.array([10e6, 10e6, np.inf, 10e6, 10e6]),
        np.zeros(0),
        np.zeros((2, 5)),
    ])
    def test_rejects_bad_demand_at_entry(self, p_f):
        with pytest.raises(ValueError, match="p_f"):
            coordinate(two_node_fleet(), p_f)

    def test_fleet_validation(self):
        with pytest.raises(ValueError):
            Fleet(bus=BUS, pgms=[], pcms=[])
        with pytest.raises(ValueError):
            Fleet(bus=BUS, pgms=[PgmNodeState(wide_gen(), 0.0)], pcms=[],
                  td_s=0.0)


class TestExitContract:
    @given(seed=st.integers(0, 2**32 - 1),
           demand=st.sampled_from(["inside", "above", "below", "per_step"]),
           near_floor=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_converged_budget_spent_or_least_residual(self, seed, demand,
                                                      near_floor):
        # a call that neither balances nor spends its budget must stop at
        # the least worst-step residual any allocation within the limits
        # has; before the LP it stops only at the least shortfall too
        rng = np.random.default_rng(seed)
        fleet = random_fleet(rng)
        h = 5
        if near_floor:
            for b in fleet.pcms:
                b.soc = b.spec.soc_min + rng.uniform(0.0, 0.003)
        lo, hi = fleet_reach_intervals(fleet, h)
        if demand == "inside":
            p_f = feasible_demand(rng, fleet, h)
        elif demand == "above":
            p_f = np.full(h, hi.max() + rng.uniform(0.5e6, 10e6))
        elif demand == "below":
            p_f = np.full(h, lo.min() - rng.uniform(0.5e6, 10e6))
        else:
            p_f = rng.uniform(lo - 5e6, hi + 5e6)
        max_iter = 200
        rep = coordinate(fleet, p_f, max_iter=max_iter)
        # the report names the stop
        assert rep.converged == (rep.exit == "balanced")
        assert rep.exit in ("balanced", "reach", "lp", "max_iter")
        if rep.exit == "max_iter":
            assert rep.iterations_used == max_iter
        if rep.exit == "lp":
            assert rep.iterations_used >= LP_BOUND_ITERATION
        if rep.converged or rep.iterations_used == max_iter:
            return
        tol = 1e-5 * np.max(np.abs(p_f))
        assert abs(rep.final_residual_w - min_max_residual_w(fleet, p_f)) <= tol
        if rep.iterations_used < LP_BOUND_ITERATION:
            least = min_shortfall_w(fleet, p_f)
            assert least - tol <= rep.shortfall_w \
                <= max(least + tol, default_balance_tol_w(p_f))


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def fresh_node_problems(fleet, h):
    gen = [pgm_qp(g.spec, g.prev_power_w, h) for g in fleet.pgms]
    batt = [pcm_qp(b.spec, fleet.bus, b.soc, b.prev_power_w, fleet.td_s, h)
            for b in fleet.pcms]
    return gen, batt


def report_at_feasible_demand(seed):
    rng = np.random.default_rng(seed)
    fleet = random_fleet(rng)
    p_f = feasible_demand(rng, fleet, 5)
    return fleet, coordinate(fleet, p_f)


class TestReportContract:
    """The report's node results hold values that are evaluated when read;
    they must be what a solve at the reported price gives."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nodes_are_fresh_solves_at_the_final_price(self, seed):
        fleet, rep = report_at_feasible_demand(seed)
        lam = rep.lambda_final
        gen_qps, batt_qps = fresh_node_problems(fleet, lam.size)
        fresh = [pgm_solve(p, lam, g.spec)
                 for p, g in zip(gen_qps, fleet.pgms)]
        fresh += [pcm_solve(p, lam, b.spec)
                  for p, b in zip(batt_qps, fleet.pcms)]
        for r, f in zip(rep.gen + rep.batt, fresh, strict=True):
            assert bits(r.profile) == bits(f.profile)
            assert r.qp_status == f.qp_status
            assert bits(r.local_objective) == bits(f.local_objective)
            if f.soc_trajectory is None:
                assert r.soc_trajectory is None
            else:
                assert bits(r.soc_trajectory) == bits(f.soc_trajectory)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_report_values_match_closed_forms(self, seed):
        fleet, rep = report_at_feasible_demand(seed)
        for g, r in zip(fleet.pgms, rep.gen, strict=True):
            w = max(g.spec.weight_beta, WEIGHT_FLOOR)
            dev = r.profile - g.spec.rated_power_w
            assert r.local_objective == pytest.approx(
                0.5 * w * np.sum(dev ** 2), rel=1e-12)
            assert r.soc_trajectory is None
        for b, r in zip(fleet.pcms, rep.batt, strict=True):
            w = max(b.spec.weight_gamma, WEIGHT_FLOOR)
            assert r.local_objective == pytest.approx(
                0.5 * w * np.sum(r.profile ** 2), rel=1e-12)
            # SoC_k = SoC_0 - td/(3600*Q_Ah*v_bus) * sum_{j<k} p_j
            kappa = fleet.td_s / (b.spec.capacity_ah * 3600.0
                                  * fleet.bus.v_bus_volt)
            soc = np.concatenate([[b.soc], b.soc - kappa * np.cumsum(r.profile)])
            np.testing.assert_allclose(r.soc_trajectory, soc, rtol=0.0,
                                       atol=1e-12)
        assert rep.objective() == sum(r.local_objective
                                      for r in rep.gen + rep.batt)


def criterion_1_fleets(n):
    """The first ``n`` fleets, demands and balance tolerances of acceptance
    criterion 1."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(n):
        fleet = random_fleet(rng)
        p_f = feasible_demand(rng, fleet, 5)
        out.append((fleet, p_f, 1e-6 * max(float(np.max(np.abs(p_f))), 1.0)))
    return out


def clear_memos():
    """Empty every memo that holds `LdpRows`, and with them active-set
    maps: the fixed parts, which own their devices' rows, and the oracle's
    fleet rows."""
    qpmod._fixed_part.cache_clear()
    coordinator._fleet_rows.cache_clear()


def package_memos():
    """Every `functools.lru_cache` memo defined in a `shipems` module, as
    {(module name, attribute name): memo}."""
    memos = {}
    names = ["shipems"] + [m.name for m in pkgutil.iter_modules(
        shipems.__path__, "shipems.")]
    for module in map(importlib.import_module, names):
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and hasattr(value, "cache_clear") \
                    and getattr(value, "__module__", None) == module.__name__:
                memos[module.__name__, name] = value
    return memos


def ab_memos():
    """The memos that `scripts/ab_coordinate.py` clears before its cold
    calls (its `MEMOS`), read from its source."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scripts", "ab_coordinate.py")
    with open(path) as f:
        for node in ast.parse(f.read()).body:
            if isinstance(node, ast.Assign) \
                    and [getattr(t, "id", None) for t in node.targets] \
                    == ["MEMOS"]:
                return set(ast.literal_eval(node.value))
    raise AssertionError(f"no MEMOS in {path}")


class TestMemos:
    def test_every_memo_is_cleared_for_a_cold_call(self):
        # a memo that the A/B script does not clear makes its cold
        # sections warm, and one that `clear_memos` misses makes the
        # path-independence tests below compare warm answers
        memos = package_memos()
        assert {("shipems.qp", "_fixed_part"),
                ("shipems.coordinator", "_fleet_rows")} <= set(memos)
        assert set(memos) <= ab_memos()
        fleet, p_f, _ = criterion_1_fleets(1)[0]
        centralized_solve(fleet, p_f)
        assert all(m.cache_info().currsize for m in memos.values())
        clear_memos()
        assert not any(m.cache_info().currsize for m in memos.values())


    def test_fleet_rows_outlive_their_fixed_parts(self):
        # the problems of 300 other fleets evict a fleet's fixed parts from
        # their memo; its stacked rows, keyed on the parts' values, hold
        # none of them, and are found again with the map that its first
        # solve kept
        clear_memos()
        fleet, p_f, _ = criterion_1_fleets(1)[0]
        first = centralized_solve(fleet, p_f)
        gen, batt = _node_problems(fleet, p_f.size)
        parts = [weakref.ref(p.rows) for p in gen + batt]
        del gen, batt
        rng = np.random.default_rng(3)
        for _ in range(300):
            _node_problems(random_fleet(rng), p_f.size)
        assert not any(ref() for ref in parts)
        before = coordinator._fleet_rows.cache_info()
        exits = qpmod.EXITS.copy()
        again = centralized_solve(fleet, p_f)
        after = coordinator._fleet_rows.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) \
            == (1, 0)
        assert qpmod.EXITS - exits == Counter(hint=1)
        assert [bits(p) for p in again.gen_profiles + again.batt_profiles] \
            == [bits(p) for p in first.gen_profiles + first.batt_profiles]


class TestPathIndependence:
    """The kernel's memos of rows and active-set maps must not change an
    answer, whatever was solved before; a cold answer is taken with every
    memo that can hold them emptied."""

    def test_fleet_answers_do_not_depend_on_the_memos(self):
        cases = criterion_1_fleets(40)

        def answers(order):
            out = {}
            for i in order:
                fleet, p_f, tol = cases[i]
                rep = coordinate(fleet, p_f, bal_tol_w=tol, max_iter=5000)
                out[i] = ([bits(r.profile) for r in rep.gen + rep.batt],
                          bits(rep.lambda_final), rep.iterations_used)
            return out

        cold = {}
        for i in range(len(cases)):
            clear_memos()
            cold.update(answers([i]))
        answers(reversed(range(len(cases))))  # a warm pass, other order
        assert answers(range(len(cases))) == cold

    def test_oracle_answers_do_not_depend_on_the_memos(self):
        cases = criterion_1_fleets(40)

        def answers(order):
            out = {}
            for i in order:
                fleet, p_f, _ = cases[i]
                cen = centralized_solve(fleet, p_f, tol=1e-9)
                out[i] = ([bits(p) for p in cen.gen_profiles
                           + cen.batt_profiles], bits(cen.objective),
                          cen.status)
            return out

        cold = {}
        for i in range(len(cases)):
            clear_memos()
            cold.update(answers([i]))
        assert answers(reversed(range(len(cases)))) == cold  # warm
        assert answers(range(len(cases))) == cold

    def test_the_oracle_builds_no_rows_beyond_its_nodes(self, monkeypatch):
        # it keys the fleet rows on the nodes' fixed parts and stacks their
        # right-hand sides: the only rows built are each device's
        # own, once per fixed part, and one fleet entry per fleet
        built = []
        init = qpmod.LdpRows.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(qpmod.LdpRows, "__init__", counted)
        clear_memos()
        parts = set()
        for fleet, p_f, _ in criterion_1_fleets(5):
            centralized_solve(fleet, p_f, tol=1e-9)
            gen, batt = _node_problems(fleet, p_f.size)
            parts.update(p.rows for p in gen + batt)
        assert qpmod._fixed_part.cache_info().misses == len(parts)
        assert coordinator._fleet_rows.cache_info().currsize == 5
        assert len(built) == len(parts) + 5


class TestGarbage:
    def test_a_step_leaves_no_cyclic_garbage(self, monkeypatch):
        # with the collector off, reference counting alone must free a
        # step's node problems once `coordinate` returns: nothing that
        # they hold, their kernels' boxes included, refers back to them.
        # Cycles there would leave every step's problems to the
        # collector, whose passes lengthen the closed loop's tail
        refs = []
        build = coordinator._node_problems

        def recorded(fleet, h):
            gen, batt = build(fleet, h)
            refs.extend(weakref.ref(p) for p in gen + batt)
            return gen, batt

        monkeypatch.setattr(coordinator, "_node_problems", recorded)
        rng = np.random.default_rng(41)
        cases = [(fleet, p_f, {"bal_tol_w": tol, "max_iter": 5000})
                 for fleet, p_f, tol in criterion_1_fleets(3)]
        for _ in range(3):  # demand beyond the fleet: the reach exit
            fleet = random_fleet(rng)
            _, hi = fleet_reach_intervals(fleet, 5)
            cases.append((fleet, hi + rng.uniform(1e6, 5e6, 5), {}))
        exits = qpmod.EXITS.copy()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for fleet, p_f, kwargs in cases:
                for warm in (None, np.zeros(5)):
                    coordinate(fleet, p_f, lambda_warm=warm, **kwargs)
                    assert refs and all(r() is None for r in refs)
                    refs.clear()
        finally:
            if enabled:
                gc.enable()
        # the steps read their kernels' boxes
        assert (qpmod.EXITS - exits)["clip"] > 0


class TestTracerContract:
    """`perfbench/tracing.py` times the node and QP layers by replacing
    `coordinator.pgm_solve`, `coordinator.pcm_solve` and `qp.solve` under
    those names, and its `_qp_info` reads the problem passed to `qp.solve`
    and the `status`, `iterations` and `fixed_point_residual` of its
    `QpSolution`. ROADMAP item 9, which folds these layers into one kernel
    call per node, changes this test together with the tracer."""

    def test_each_node_solve_goes_through_the_module_names(self,
                                                           monkeypatch):
        calls, solutions = Counter(), []

        def spy(module, name):
            fn = getattr(module, name)

            def spied(*args, **kwargs):
                calls[name] += 1
                out = fn(*args, **kwargs)
                if name == "solve":
                    solutions.append((args, kwargs, out))
                return out

            monkeypatch.setattr(module, name, spied)

        spy(coordinator, "pgm_solve")
        spy(coordinator, "pcm_solve")
        spy(qpmod, "solve")
        for fleet, p_f, tol in criterion_1_fleets(8):
            calls.clear()
            solutions.clear()
            rep = coordinate(fleet, p_f, bal_tol_w=tol, max_iter=5000)
            n_g, n_b = len(fleet.pgms), len(fleet.pcms)
            assert calls["pgm_solve"] == rep.iterations_used * n_g
            assert calls["pcm_solve"] == rep.iterations_used * n_b
            assert calls["solve"] == rep.iterations_used * (n_g + n_b)
            for args, kwargs, sol in solutions:
                problem = args[0] if args else kwargs["qp"]
                assert isinstance(problem.cumsum_coeff, float)
                assert sol.status == qpmod.OPTIMAL
                assert sol.iterations in (0, 1)
                assert sol.fixed_point_residual == 0.0


class TestCentralizedSolve:
    def test_matches_two_node_closed_form(self):
        cen = centralized_solve(two_node_fleet(), np.full(5, 10e6), tol=1e-8)
        assert cen.status == "optimal"
        np.testing.assert_allclose(cen.gen_profiles[0], 8e6, rtol=1e-6)
        np.testing.assert_allclose(cen.batt_profiles[0], 2e6, rtol=1e-6)

    def test_single_generator_demand_outside_box(self):
        spec = PgmSpec(rated_power_w=30e6, p_min_w=0.0, p_max_w=40e6,
                       ramp_limit_w_per_step=1e9, weight_beta=1.0)
        fleet = Fleet(bus=BUS, pgms=[PgmNodeState(spec, 30e6)], pcms=[])
        cen = centralized_solve(fleet, np.full(5, 50e6))
        assert cen.status == "infeasible"

    def test_floored_gamma_limit(self):
        fleet = Fleet(bus=BUS, pgms=[PgmNodeState(wide_gen(1.0, 6e6), 6e6)],
                      pcms=[PcmNodeState(wide_batt(0.0), 0.5, 0.0)])
        cen = centralized_solve(fleet, np.full(5, 10e6), tol=1e-9)
        np.testing.assert_allclose(cen.batt_profiles[0], 4e6, atol=10.0)

    def test_cross_validation_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            fleet = random_fleet(rng)
            p_f = feasible_demand(rng, fleet, 5)
            scale = float(np.max(np.abs(p_f)))
            rep = coordinate(fleet, p_f, bal_tol_w=1e-6 * scale,
                             max_iter=3000)
            cen = centralized_solve(fleet, p_f, tol=1e-9)
            assert rep.converged, rep.final_residual_w
            assert cen.status == "optimal"
            dist = [r.profile for r in rep.gen + rep.batt]
            cent = cen.gen_profiles + cen.batt_profiles
            for a, b in zip(dist, cent):
                np.testing.assert_allclose(a, b, atol=1e-3 * scale)
            assert rep.objective() == pytest.approx(cen.objective,
                                                    rel=1e-4, abs=1e-6)

    def test_agreement_on_infeasible_demand(self):
        spec = PgmSpec(rated_power_w=30e6, p_min_w=0.0, p_max_w=40e6,
                       ramp_limit_w_per_step=2e6, weight_beta=1.0)
        fleet = Fleet(bus=BUS, pgms=[PgmNodeState(spec, 30e6)], pcms=[])
        p_f = np.full(5, 50e6)
        rep = coordinate(fleet, p_f, max_iter=400)
        cen = centralized_solve(fleet, p_f)
        assert not rep.converged and rep.shortfall_w > 0.0
        assert cen.status == "infeasible"

    @pytest.mark.parametrize("p_f, tol, name", [
        (np.array([10e6, np.nan, 10e6, 10e6, 10e6]), 1e-6, "p_f"),
        (np.array([10e6, 10e6, np.inf, 10e6, 10e6]), 1e-6, "p_f"),
        (np.zeros((2, 5)), 1e-6, "p_f"),
        (10e6, 1e-6, "p_f"),
        (np.zeros(0), 1e-6, "p_f"),
        (np.full(5, 10e6), 0.0, "tol"),
        (np.full(5, 10e6), np.nan, "tol"),
    ])
    def test_rejects_bad_arguments_before_any_solve(self, p_f, tol, name,
                                                    monkeypatch):
        # with `coordinate`'s messages, and without a RuntimeWarning first
        def no_solve(*args):
            raise AssertionError("reached the kernel")

        monkeypatch.setattr(qpmod.Ldp, "solve", no_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=name):
                centralized_solve(two_node_fleet(), p_f, tol=tol)

    def test_total_power_helper(self):
        cen = CentralizedResult([np.ones(3)], [2.0 * np.ones(3)], 0.0, 0.0,
                                "optimal")
        np.testing.assert_allclose(cen.total_power(), 3.0)


# a box side: unbounded, either zero, or a finite bound of that side's sign
SIDES = ("inf", "zero", "negative zero", "finite")


def box_side(kind, sign, scale):
    return {"inf": sign * math.inf, "zero": 0.0, "negative zero": -0.0,
            "finite": sign * scale}[kind]


class TestReachEnvelope:
    """`HorizonQp.envelope` is the closed form min(hi, hi_0 + k*ramp) over
    the device's one box; it must equal the envelope's definition, the
    least of hi_j + (k-j)*ramp over j <= k (`reach_envelope`), bit for
    bit, for infinite and signed-zero bounds and ramps far above the box,
    where it must hold each finite bound of the effective box as it is;
    also at a ramp whose k*ramp overflows from k = 2 on, where a running
    minimum of hi - j*ramp met inf - inf. An infinite ramp, whose reach
    0*ramp is NaN, is rejected."""

    @given(h=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           lower=st.sampled_from(SIDES), upper=st.sampled_from(SIDES),
           ramp=st.sampled_from(("inf", "finite", 1e15, 1e20, 1e24, 1e308)),
           soc=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equal_to_the_definition(self, h, seed, lower, upper, ramp, soc):
        rng = np.random.default_rng(seed)
        p_max = rng.uniform(1e6, 4e7)
        lo = box_side(lower, -1.0, rng.uniform(0.0, p_max))
        hi = box_side(upper, 1.0, rng.uniform(0.0, p_max))
        kw = {}
        if soc:
            kw = dict(cumsum_coeff=1.0 / (rng.uniform(2e3, 2e4) * 3.6e6),
                      cumsum_init=0.5, cumsum_lower=0.1, cumsum_upper=0.9)
        prev = rng.choice([0.0, -0.0, rng.uniform(-p_max, p_max)])
        kw.update(h=h, quad_diag=1.0, lower=lo, upper=hi, prev_value=prev)
        if ramp == "inf":
            with pytest.raises(ValueError, match="ramp_limit must be finite"):
                qpmod.HorizonQp(ramp_limit=math.inf, **kw)
            return
        if ramp == "finite":
            ramp = rng.uniform(0.05, 1.0) * p_max
        qp = qpmod.HorizonQp(ramp_limit=ramp, **kw)
        got, want = qp.envelope, reach_envelope(qp)
        for g, w in zip(got, want):
            assert np.array(g).tobytes() == np.array(w).tobytes()
        if ramp >= 1e15:
            # a ramp this far above the box moves no finite bound of the
            # effective box (hi_k - k*ramp + k*ramp would round some to 0)
            for g, w in zip(got, effective_box(qp)):
                g, w = np.array(g), np.array(w)
                finite = np.isfinite(w)
                np.testing.assert_array_equal(g[finite], w[finite])


class TestReachBounds:
    """`_reach_bounds` runs on Python floats; it must equal the array form
    of the same recurrences bitwise."""

    def test_equal_to_the_array_reference(self):
        rng = np.random.default_rng(13)
        for i in range(240):
            fleet = random_fleet(rng)
            h = 1 + i % 10
            gen, batt = _node_problems(fleet, h)
            lo, hi = fleet_reach_intervals(fleet, h)
            # about at the fleet's limits, so that both bounds are met as
            # 0 and as positive deficits and excesses
            for p_f in (np.full(h, rng.uniform(lo.min(), hi.max())
                                + rng.uniform(-5e6, 5e6)),
                        rng.uniform(lo - 5e6, hi + 5e6)):
                got = _reach_bounds([p.envelope for p in gen + batt],
                                    p_f.tolist())
                want = reach_bounds(gen + batt, p_f)
                assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_specs_reject_an_infinite_ramp(self):
        # ramp * 0 is NaN at step 0, which would take every step's bound
        # to 0: no device may reach the envelope with an infinite ramp
        with pytest.raises(ValueError, match="ramp_limit_w_per_step"):
            PgmSpec(rated_power_w=6e6, p_min_w=0.0, p_max_w=7e6,
                    ramp_limit_w_per_step=np.inf, weight_beta=1.0)
        with pytest.raises(ValueError, match="ramp_limit_w_per_step"):
            PcmSpec(ramp_limit_w_per_step=np.inf)


def swept(targets, weights, envelopes, demand):
    """Every step's price by the sweep of `_swept_price`."""
    return np.array([_swept_price([(t, w, los[k], his[k]) for t, w, (los, his)
                                   in zip(targets, weights, envelopes)], d)
                     for k, d in enumerate(demand)])


def spy_sweep(monkeypatch):
    """Records the (demand, nodes) of every step that `_envelope_price`
    decides from here on, as their repr: every
    `_swept_price` call, and every step of a `_saturated_pass` that prices
    its call, since the pass applies the sweep's own saturated test."""
    calls = []

    def recorded(nodes, d):
        calls.append(repr((d, nodes)))
        return _swept_price(nodes, d)

    def saturated(targets, weights, envelopes, demand):
        price, bounds = _saturated_pass(targets, weights, envelopes, demand)
        if price is not None:
            calls.extend(repr((d, [(t, w, los[k], his[k]) for t, w, (los, his)
                                   in zip(targets, weights, envelopes)]))
                         for k, d in enumerate(demand))
        return price, bounds

    monkeypatch.setattr(coordinator, "_swept_price", recorded)
    monkeypatch.setattr(coordinator, "_saturated_pass", saturated)
    return calls


class TestEnvelopePrice:
    """The sweep of `_swept_price` against the bisection oracle, on the
    envelopes of random fleets, some with floored weights (beta = 0 or
    gamma = 0) and some with infinite bounds, at demands inside, above and
    below what the clipped responses can sum to; and `_envelope_price`,
    whose early exit takes the all-free price, against the sweep, bit for
    bit."""

    def test_early_exit_is_the_sweep_bit_for_bit(self, monkeypatch):
        calls = spy_sweep(monkeypatch)
        steps = 0
        for fleet, p_f, _ in criterion_1_fleets(200):
            gen, batt = _node_problems(fleet, p_f.size)
            envelopes = [p.envelope for p in gen + batt]
            t, w = fleet.targets(), fleet.weights()
            demand = p_f.tolist()
            got, _ = _envelope_price(t, w, gen + batt, demand)
            assert got.tobytes() == swept(t, w, envelopes, demand).tobytes()
            steps += len(demand)
        # most steps take the early exit (577 of the 1000)
        assert len(calls) < 0.5 * steps

    def test_a_demand_on_a_breakpoint_takes_the_sweep(self, monkeypatch):
        # the demand that the clipped responses sum to at one node's
        # breakpoint: the all-free price, if it is the step's, lies on the
        # edge of the all-free segment, and the sweep must decide
        calls = spy_sweep(monkeypatch)
        rng = np.random.default_rng(31)
        tried = Counter()
        for i in range(48):
            fleet = random_fleet(rng)
            if i % 3 == 1:  # floored weights
                for g in fleet.pgms:
                    g.spec = dataclasses.replace(g.spec, weight_beta=0.0)
            elif i % 3 == 2:  # two generators that share every breakpoint
                fleet.pgms.append(dataclasses.replace(fleet.pgms[0]))
            h = 1 + i % 6
            gen, batt = _node_problems(fleet, h)
            qps, t, w = gen + batt, fleet.targets(), fleet.weights()
            extra = "none"
            if i % 4 == 0:
                # a floored node with an infinite box, whose envelope its
                # ramp bounds
                extra = "infinite box"
                qps.append(qpmod.HorizonQp(
                    h=h, quad_diag=WEIGHT_FLOOR, lower=-np.inf, upper=np.inf,
                    ramp_limit=rng.uniform(1e6, 2e7),
                    prev_value=rng.uniform(-1e7, 1e7)))
                t, w = t + [0.0], w + [WEIGHT_FLOOR]
            envelopes = [p.envelope for p in qps]
            for k in range(h):
                nodes = [(ti, wi, los[k], his[k])
                         for ti, wi, (los, his) in zip(t, w, envelopes)]
                for ti, wi, lo, hi in nodes:
                    for bound in (lo, hi):
                        if not math.isfinite(bound):
                            continue
                        lam = wi * (ti - bound)
                        d = 0.0
                        for tj, wj, lo_j, hi_j in nodes:
                            d += min(max(tj - lam / wj, lo_j), hi_j)
                        demand = rng.uniform(d - 1e6, d + 1e6, h).tolist()
                        demand[k] = d
                        calls.clear()
                        got, _ = _envelope_price(t, w, qps, demand)
                        assert repr((d, nodes)) in calls
                        assert got.tobytes() == swept(t, w, envelopes,
                                                      demand).tobytes()
                        tried[i % 3, extra] += 1
        # floored, shared and plain breakpoints, each with and without a
        # node of infinite bounds
        assert set(tried) == {(kind, extra) for kind in range(3)
                              for extra in ("none", "infinite box")}

    def test_a_saturated_step_stops_at_the_least_breakpoint(self):
        # a demand that the nodes' upper bounds, none of them infinite,
        # cannot exceed: the sweep stops at its first breakpoint, which
        # is the least upper one, and returns it without the sort
        rng = np.random.default_rng(37)
        for i in range(60):
            fleet = random_fleet(rng)
            h = 1 + i % 6
            gen, batt = _node_problems(fleet, h)
            t, w = fleet.targets(), fleet.weights()
            envelopes = [p.envelope for p in gen + batt]
            for k in range(h):
                nodes = [(ti, wi, los[k], his[k])
                         for ti, wi, (los, his) in zip(t, w, envelopes)]
                top = sum(hi for _, _, _, hi in nodes)
                points = [wi * (ti - b) for ti, wi, lo, hi in nodes
                          for b in (lo, hi)]
                for d in (top, top + rng.uniform(0.0, 1e7)):
                    assert _swept_price(nodes, d).hex() == min(points).hex()

    @pytest.mark.parametrize("extra", ["none", "infinite upper bound",
                                       "huge ramp"])
    @pytest.mark.parametrize("kind", ["at the sum", "above the sum",
                                      "saturated at step 0 only",
                                      "saturated later only"])
    def test_the_saturated_pass_is_the_sweep_bit_for_bit(self, kind, extra,
                                                         monkeypatch):
        # demands about the per-step sum of the upper envelope bounds, taken
        # in the nodes' order from 0.0: a call saturated at every step is
        # priced by the pass alone, any other by the sweep; the price is the
        # sweep's, and the bounds that the pass takes are `_reach_bounds`',
        # bit for bit
        sweeps = []

        def recorded(nodes, d):
            sweeps.append(d)
            return _swept_price(nodes, d)

        monkeypatch.setattr(coordinator, "_swept_price", recorded)
        rng = np.random.default_rng(43)
        for i in range(40):
            fleet = random_fleet(rng)
            h = 2 + i % 5
            gen, batt = _node_problems(fleet, h)
            qps, t, w = gen + batt, fleet.targets(), fleet.weights()
            if extra != "none":
                # an unbounded box, whose envelope its ramp bounds, or a
                # ramp far above the box, whose envelope is the box after
                # step 0
                qps.append(qpmod.HorizonQp(
                    h=h, quad_diag=1.0, lower=-1e7,
                    upper=np.inf if extra == "infinite upper bound" else 2e7,
                    ramp_limit=(1e24 if extra == "huge ramp"
                                else rng.uniform(1e6, 2e7)),
                    prev_value=rng.uniform(-1e7, 1e7)))
                t, w = t + [0.0], w + [1.0]
            envelopes = [p.envelope for p in qps]
            top = [0.0] * h
            for _, his in envelopes:
                top = [v + b for v, b in zip(top, his)]
            gap = rng.uniform(1e5, 1e7, h).tolist()
            if kind == "at the sum":
                demand = top
            elif kind == "above the sum":
                demand = [v + g for v, g in zip(top, gap)]
            else:
                sign = [1.0] + [-1.0] * (h - 1)
                if kind == "saturated later only":
                    sign = [-v for v in sign]
                demand = [v + s * g for v, s, g in zip(top, sign, gap)]
            sweeps.clear()
            got, bounds = _envelope_price(t, w, qps, demand)
            assert got.tobytes() == swept(t, w, envelopes, demand).tobytes()
            if kind == "saturated later only":
                assert bounds is None  # step 0 is below the gate
            else:
                want = _reach_bounds(envelopes, demand)
                assert [v.hex() for v in bounds] == [v.hex() for v in want]
            if kind in ("at the sum", "above the sum"):
                assert sweeps == []  # the pass priced every step
            else:
                assert sweeps  # every saturated step sweeps
            if extra == "infinite upper bound":
                # an upper bound of inf at one step: no step-sum reaches
                # the demand there, so the pass prices nothing
                his = list(envelopes[-1][1])
                his[rng.integers(h)] = math.inf
                unbounded = envelopes[:-1] + [(envelopes[-1][0], his)]
                price, bounds = _saturated_pass(t, w, unbounded, demand)
                want = _reach_bounds(unbounded, demand)
                assert price is None
                assert [v.hex() for v in bounds] == [v.hex() for v in want]

    def test_a_shortfall_step_builds_each_envelope_once(self, monkeypatch):
        # the default fleet 5 MW short of a constant demand, as in the
        # benchmark's shortfall scenario: the envelope price's pass and the
        # kernels' boxes share one envelope per node, and the step ends at
        # its first iterate on the reach bound that the pass took
        calls = []
        build = qpmod._FixedPart.envelope

        def recorded(fixed, lo0, hi0):
            calls.append(fixed)
            return build(fixed, lo0, hi0)

        monkeypatch.setattr(qpmod._FixedPart, "envelope", recorded)
        cfg = default_config()
        fleet = Fleet(bus=cfg.bus,
                      pgms=[PgmNodeState(s, s.rated_power_w)
                            for s in cfg.pgms],
                      pcms=[PcmNodeState(s, 0.6, 0.0) for s in cfg.pcms])
        p_max = sum(s.p_max_w for s in cfg.pgms + cfg.pcms)
        rep = coordinate(fleet, np.full(5, p_max + 5e6))
        assert (rep.exit, rep.iterations_used) == ("reach", 1)
        assert len(calls) == len(cfg.pgms) + len(cfg.pcms)

    def test_matches_the_bisection_oracle(self):
        rng = np.random.default_rng(29)
        seen = Counter()
        for i in range(120):
            fleet = random_fleet(rng)
            if i % 4 == 1:
                for g in fleet.pgms:
                    g.spec = dataclasses.replace(g.spec, weight_beta=0.0)
            elif i % 4 == 2:
                for b in fleet.pcms:
                    b.spec = dataclasses.replace(b.spec, weight_gamma=0.0)
            h = 1 + i % 6
            gen, batt = _node_problems(fleet, h)
            los, his = (np.array(v)
                        for v in zip(*(p.envelope for p in gen + batt)))
            n = los.shape[0]
            if i % 4 == 0:
                his[rng.integers(n)] = np.inf
            if i % 5 == 0:
                los[rng.integers(n)] = -np.inf
            top, bottom = his.sum(axis=0), los.sum(axis=0)
            # a finite stand-in for an unbounded side
            ceil = np.where(np.isfinite(top), top,
                            np.where(np.isfinite(bottom), bottom + 5e7, 3e7))
            floor = np.where(np.isfinite(bottom), bottom, ceil - 5e7)
            kind = ("inside", "above", "below")[i % 3]
            if kind == "inside":
                p_f = rng.uniform(floor, ceil)
            elif kind == "above":
                p_f = ceil + rng.uniform(1e5, 1e7, h)
            else:
                p_f = floor - rng.uniform(1e5, 1e7, h)
            t, w = fleet.targets(), fleet.weights()
            got = swept(t, w, [(list(lo), list(hi))
                               for lo, hi in zip(los, his)], p_f.tolist())
            want = envelope_price(t, w, los, his, p_f)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
            if i % 4 and i % 5:  # the nodes' own envelopes
                assert _envelope_price(t, w, gen + batt, p_f.tolist()
                                       )[0].tobytes() == got.tobytes()
            for k, d in enumerate(p_f):
                x = np.clip(np.array(t) - got[k] / np.array(w), los[:, k],
                            his[:, k])
                inside = bottom[k] <= d <= top[k]
                seen[kind, bool(inside)] += 1
                if inside:
                    assert abs(x.sum() - d) <= 1e-12 * max(abs(d),
                                                          np.abs(x).max())
        # every kind of demand, and demands beyond a bounded and an
        # unbounded side
        assert set(seen) == {(kind, inside) for kind in ("above", "below")
                             for inside in (False, True)} | {("inside", True)}
