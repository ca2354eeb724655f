"""The benchmark's workloads: inputs made from the seed, rounds, checks.

Each workload is driven as a single closed-loop caller: one call is issued
when the previous one returns. A run repeats whole rounds until its time is
up; every round attempts the same operations. An operation is one MPC step
on the closed-loop workloads and one fleet on ``fleet_crosscheck``; it
fails only when one of its output checks fails.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np

import checks

HORIZON = 5
PULSE_DURATION_S = 300.0
SHORTFALL_DURATION_S = 30.0
# The fleets of acceptance criterion 1: its seed, and how many of them.
CORPUS_SEED = 2024
CORPUS_SIZE = 40
# harness.verify's tight settings for the cross-check.
XC_BAL_TOL_REL = 1e-7
XC_MAX_ITER = 5000
XC_ORACLE_TOL = 1e-9
# Passes of cold coordinate calls over the fleets per round. A fleet's
# step time is the median of its passes: the host's speed changes over
# tenths of a second, so calls made back to back share its state, while
# calls a whole pass apart do not.
XC_COORD_PASSES = 5
# The package's default balance tolerance, 1e-4 of the demand (README).
DEFAULT_BAL_TOL_REL = 1e-4


# Checks that fail on every run because of a fault in the package. Their
# operations count as failed, but they leave ``correct`` true.
KNOWN_FAULTS = {
    ("pulse_default", "load energy"):
        "load_at samples most falling pulse edges one plant step late",
}


@dataclass
class Timing:
    """Host seconds of one run's timed calls."""

    step_s: list = field(default_factory=list)  # one MPC step each
    sim_wall_s: float = 0.0  # of the simulated seconds
    xc_wall_s: float = 0.0  # of the problems solved and checked


@dataclass
class Outcome:
    """What the checked rounds of one run add up to.

    Every time is kept twice: as measured, and scaled to the reference
    host by the calibrator's factor for the interval it was measured in.
    """

    cal: object  # the run's calibrate.Calibrator
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0  # failures not explained by KNOWN_FAULTS
    messages: list = field(default_factory=list)
    sim_s: float = 0.0  # simulated (dispatched) seconds
    xc_ops: int = 0  # problems solved and checked
    measured: Timing = field(default_factory=Timing)
    scaled: Timing = field(default_factory=Timing)

    def times(self, t0, t1, seconds=None):
        """The measured and scaled seconds of what ran from t0 to t1.

        ``seconds`` is the measured time when it is not all of t1 - t0.
        """
        seconds = t1 - t0 if seconds is None else seconds
        return seconds, seconds * self.cal.factor(t0, t1)

    def op(self, msgs, where, known_fault=None):
        self.attempted += 1
        if msgs:
            self.failed += 1
            if known_fault is None:
                self.unexpected += 1
            note = f" (known fault: {known_fault})" if known_fault else ""
            self.messages += [f"{where}: {m}{note}" for m in msgs]


class StepRecorder:
    """Stands in for ``shipems.sim.coordinate`` and times every MPC step.

    It keeps each step's fleet, demand and report for the checks, and
    lets the calibrator sample in between steps.
    """

    def __init__(self, sim, cal):
        self.orig = sim.coordinate
        self.cal = cal
        self.steps = []
        sim.coordinate = self

    def __call__(self, fleet, p_f, *args, **kwargs):
        t0 = time.perf_counter()
        rep = self.orig(fleet, p_f, *args, **kwargs)
        self.steps.append(((t0, time.perf_counter()), fleet,
                           np.array(p_f, dtype=float), rep))
        self.cal.tick()
        return rep

    def take(self):
        steps, self.steps = self.steps, []
        return steps


class ClosedLoop:
    """A scenario run in closed loop; each round runs it once.

    Operations per round: every MPC step, plus the round's load-energy
    total and its battery recount.
    """

    layers = ("config", "plant", "coord", "nodes", "qp")

    def __init__(self, pkg, root, seed, workdir, cal):
        self.pkg, self.workdir, self.cal = pkg, workdir, cal
        base = pkg.load_config(os.path.join(root, "configs", "default.json"))
        self.cfg = self.scenario(base, np.random.default_rng(seed))
        self.recorder = StepRecorder(pkg.sim, cal)

    def round(self):
        spent = self.cal.spent_s
        t0 = time.perf_counter()
        log = self.execute()
        t1 = time.perf_counter()
        # the calibrator's samples in between steps are not the package's
        wall = (t0, t1, t1 - t0 - (self.cal.spent_s - spent))
        return wall, log, self.recorder.take(), self.artifacts()

    def artifacts(self):
        return None

    def step_checks(self, devices, profiles, p_f, rep):
        return checks.check_kkt(devices, profiles, rep.lambda_final)

    def round_checks(self, log, rc, artifacts):
        return [("load energy", checks.check_load_energy(self.cfg, log)),
                ("battery recount", checks.check_battery_recount(
                    self.cfg, log, rc))]

    def check(self, rounds, out):
        cfg = self.cfg
        for r, (wall, log, steps, artifacts) in enumerate(rounds):
            out.sim_s += cfg.duration_s
            for timing, t in zip((out.measured, out.scaled),
                                 out.times(*wall)):
                timing.sim_wall_s += t
            setpoints = [a + b for a, b in zip(
                checks.check_setpoints(
                    cfg.pgms, [g.rated_power_w for g in cfg.pgms],
                    log.applied_gen_w),
                checks.check_setpoints(
                    cfg.pcms, np.zeros(len(cfg.pcms)), log.applied_batt_w))]
            for k, (span, fleet, p_f, rep) in enumerate(steps):
                t0 = time.perf_counter()
                devices = checks.fleet_devices(fleet, p_f.size)
                profiles = checks.report_profiles(rep)
                msgs = checks.check_feasible(devices, profiles, "coordinate")
                msgs += self.step_checks(devices, profiles, p_f, rep)
                # step k's plan is the k-th one applied (the last may fall
                # after the end of the run)
                if k < len(setpoints):
                    msgs += setpoints[k]
                check = out.times(t0, time.perf_counter())
                for timing, step_s, check_s in zip(
                        (out.measured, out.scaled), out.times(*span), check):
                    timing.step_s.append(step_s)
                    timing.xc_wall_s += step_s + check_s
                out.xc_ops += 1
                out.op(msgs, f"round {r} step {k}")
                self.cal.tick()
            rc = checks.recount_batteries(cfg, log.applied_time_s,
                                          log.applied_batt_w)
            for what, msgs in self.round_checks(log, rc, artifacts):
                out.op(msgs, f"round {r} {what}",
                       KNOWN_FAULTS.get((self.name, what)))


class PulseDefault(ClosedLoop):
    """configs/default.json through harness.run_to_artifacts.

    The seed sets the battery's initial SoC; the load is the config's.
    """

    name = "pulse_default"
    tail_pct = 99.0
    layers = ClosedLoop.layers + ("csv",)

    @staticmethod
    def scenario(base, rng):
        return dataclasses.replace(
            base, duration_s=PULSE_DURATION_S,
            initial_soc=[round(float(rng.uniform(0.5, 0.7)), 3)
                         for _ in base.pcms])

    def execute(self):
        return self.pkg.harness.run_to_artifacts(self.cfg, self.workdir)

    def artifacts(self):
        # read now: the next round overwrites it
        path = os.path.join(self.workdir, "summary.csv")
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    def step_checks(self, devices, profiles, p_f, rep):
        msgs = super().step_checks(devices, profiles, p_f, rep)
        if not rep.converged:
            msgs.append("MPC step did not converge")
        tol = DEFAULT_BAL_TOL_REL * max(float(np.max(np.abs(p_f))), 1.0)
        return msgs + checks.check_balance(profiles, p_f, tol)

    def round_checks(self, log, rc, artifacts):
        return super().round_checks(log, rc, artifacts) + [
            ("summary.csv", checks.check_summary_csv(artifacts, rc))]


class Shortfall(ClosedLoop):
    """Constant demand above the fleet's combined maximum power.

    The seed sets the demand, 2-8 MW above that maximum, and the battery's
    initial SoC, far enough above its floor that the run never nears it.
    """

    name = "shortfall"
    tail_pct = 95.0

    @staticmethod
    def scenario(base, rng):
        p_max = sum(g.p_max_w for g in base.pgms) \
            + sum(b.p_max_w for b in base.pcms)
        demand = p_max + round(float(rng.uniform(2e6, 8e6)), -3)
        load = dataclasses.replace(base.load, kind="constant", base_w=demand,
                                   amplitude_w=0.0)
        return dataclasses.replace(
            base, duration_s=SHORTFALL_DURATION_S, load=load,
            initial_soc=[round(float(rng.uniform(0.5, 0.7)), 3)
                         for _ in base.pcms])

    def execute(self):
        return self.pkg.run_scenario(self.cfg)

    def step_checks(self, devices, profiles, p_f, rep):
        msgs = super().step_checks(devices, profiles, p_f, rep)
        lp = checks.min_shortfall_w(devices, p_f)
        return msgs + checks.check_shortfall(rep.shortfall_w, rep.converged,
                                             lp, p_f)


def reach_intervals(fleet, h):
    """Per-step sums of the powers each device can reach from its state."""
    lo, hi = np.zeros(h), np.zeros(h)
    for node in fleet.pgms + fleet.pcms:
        s = node.spec
        a = b = node.prev_power_w
        for k in range(h):
            a = max(s.p_min_w, a - s.ramp_limit_w_per_step)
            b = min(s.p_max_w, b + s.ramp_limit_w_per_step)
            lo[k] += a
            hi[k] += b
    return lo, hi


def criterion1_fleets(pkg, n):
    """The first n fleets and demands of acceptance criterion 1.

    Same distribution and draw order: 1-3 generators and 0-3 batteries at
    MW scale, and a constant demand inside every step's reachable range,
    which one setpoint change reaches and then holds.
    """
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    for _ in range(n):
        n_g, n_b = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        pgms = []
        for _ in range(n_g):
            rated = rng.uniform(20e6, 40e6)
            p_max = rated * rng.uniform(1.05, 1.3)
            spec = pkg.PgmSpec(rated_power_w=rated, p_min_w=0.0,
                               p_max_w=p_max,
                               ramp_limit_w_per_step=rng.uniform(1e6, 5e6),
                               weight_beta=rng.uniform(0.3, 3.0))
            prev = float(np.clip(rated + rng.uniform(-2e6, 2e6), 0.0, p_max))
            pgms.append(pkg.PgmNodeState(spec, prev))
        pcms = []
        for _ in range(n_b):
            p_max = rng.uniform(5e6, 25e6)
            spec = pkg.PcmSpec(p_min_w=-p_max, p_max_w=p_max,
                               ramp_limit_w_per_step=rng.uniform(10e6, 40e6),
                               capacity_ah=rng.uniform(2000.0, 20000.0),
                               weight_gamma=rng.uniform(0.3, 3.0))
            prev = float(rng.uniform(-0.2, 0.2) * p_max)
            pcms.append(pkg.PcmNodeState(spec, rng.uniform(0.3, 0.7), prev))
        fleet = pkg.Fleet(bus=pkg.BusSpec(), pgms=pgms, pcms=pcms)
        lo, hi = reach_intervals(fleet, HORIZON)
        floor_w, ceil_w = float(np.max(lo)), float(np.min(hi))
        level = floor_w + rng.uniform(0.05, 0.95) * (ceil_w - floor_w)
        out.append((fleet, np.full(HORIZON, level)))
    return out


class FleetCrosscheck:
    """Criterion 1's fleets, each solved by coordinate and by the oracle.

    A round makes ``XC_COORD_PASSES`` passes of coordinate over all fleets,
    then solves each by the oracle and checks it.

    The fleets are fixed and the seed only sets the order they are solved
    in: the oracle's cost per fleet changes chaotically with its inputs
    (see README), so fleets drawn afresh from each seed would make the
    run's cost a property of the seed rather than of the program.
    """

    name = "fleet_crosscheck"
    tail_pct = 75.0
    layers = ("coord", "nodes", "qp", "oracle")

    def __init__(self, pkg, root, seed, workdir, cal):
        self.pkg, self.cal = pkg, cal
        corpus = criterion1_fleets(pkg, CORPUS_SIZE)
        order = np.random.default_rng(seed).permutation(len(corpus))
        self.corpus = [corpus[i] for i in order]

    @staticmethod
    def tolerance(p_f):
        return XC_BAL_TOL_REL * max(float(np.max(np.abs(p_f))), 1.0)

    def round(self):
        n = len(self.corpus)
        spans = [[] for _ in range(n)]  # (start, end) of each pass's call
        reps = [[] for _ in range(n)]
        for _ in range(XC_COORD_PASSES):
            for k, (fleet, p_f) in enumerate(self.corpus):
                tol = self.tolerance(p_f)
                t0 = time.perf_counter()
                reps[k].append(self.pkg.coordinate(
                    fleet, p_f, bal_tol_w=tol, max_iter=XC_MAX_ITER))
                spans[k].append((t0, time.perf_counter()))
                self.cal.tick()
        done = []
        for k, (fleet, p_f) in enumerate(self.corpus):
            t0 = time.perf_counter()
            cen = self.pkg.centralized_solve(fleet, p_f, tol=XC_ORACLE_TOL)
            rep = reps[k][-1]
            msgs = self.fleet_checks(fleet, p_f, self.tolerance(p_f), rep,
                                     cen)
            if any(not np.array_equal(r.lambda_final, rep.lambda_final)
                   for r in reps[k]):
                msgs.append("coordinate gave different prices on its passes")
            done.append((spans[k], (t0, time.perf_counter()), msgs))
            self.cal.tick()
        return done

    @staticmethod
    def fleet_checks(fleet, p_f, tol, rep, cen):
        devices = checks.fleet_devices(fleet, p_f.size)
        dist = checks.report_profiles(rep)
        msgs = [] if rep.converged else ["coordinate did not converge"]
        msgs += checks.check_feasible(devices, dist, "coordinate")
        msgs += checks.check_balance(dist, p_f, tol)
        msgs += checks.check_kkt(devices, dist, rep.lambda_final)
        if cen.status == "optimal":
            oracle = list(cen.gen_profiles) + list(cen.batt_profiles)
            msgs += checks.check_feasible(devices, oracle, "oracle")
            msgs += checks.check_agreement(devices, dist, oracle, p_f)
        else:
            msgs.append(f"oracle status {cen.status}")
        return msgs

    def check(self, rounds, out):
        for r, done in enumerate(rounds):
            for k, (spans, oracle_span, msgs) in enumerate(done):
                calls = np.array([out.times(*span) for span in spans])
                for timing, call_s, oracle_s in zip(
                        (out.measured, out.scaled), calls.T,
                        out.times(*oracle_span)):
                    step_s = float(np.median(call_s))
                    timing.step_s.append(step_s)
                    timing.sim_wall_s += float(np.sum(call_s))
                    timing.xc_wall_s += step_s + oracle_s
                # each coordinate call is one MPC step: one dispatch period
                # decided
                out.sim_s += len(spans) * self.corpus[k][0].td_s
                out.xc_ops += 1
                out.op(msgs, f"round {r} fleet {k}")


WORKLOADS = {w.name: w for w in (PulseDefault, FleetCrosscheck, Shortfall)}
