#!/usr/bin/env python3
"""Time `coordinate` in two source trees in one process, interleaved.

The host's speed drifts by up to 2x between processes, so two runs of the
benchmark cannot size a change of 10 %. This script loads the package from
both trees into one process and alternates between them call by call:

- criterion 1's first 40 fleets and demands, solved cold (no warm price)
  at `verify`'s tight settings, as `perfbench`'s `fleet_crosscheck` solves
  them. In each pass, every fleet is solved once by each tree, the order
  alternating from fleet to fleet and from pass to pass.
- the first 300 s of the default run: each tree runs the scenario once,
  untimed, and the `coordinate` calls of the change tree's run are
  recorded. Each pass replays every recorded call through both trees,
  the tree that goes first alternating from call to call and from pass
  to pass, so that the host's drift between whole runs stays out of the
  per-step ratios.
- `perfbench`'s `shortfall` scenario at seed `SHORTFALL_SEED` (30 s of
  constant demand above the fleet's maximum), recorded and replayed the
  same way.

For each side it prints the p50, p90, p95 and p99 over fleets (steps) of
each fleet's (step's) median time over the passes and the total dual
iterations of one pass (for a closed-loop run, of the tree's own run),
then the median over fleets (steps) of the per-fleet (per-step) ratio
change/parent. The iterations tell a change in how often the loop runs
from a change in what one iteration costs.

The oracle, `centralized_solve`, is timed the same way on the same 40
fleets at the benchmark's oracle tolerance:

- warm: after one untimed call per fleet, so that each tree's memos hold
  what the benchmark's later rounds find there;
- cold: each tree's memos (those of `MEMOS` that the tree has) cleared
  before every call, as for a fleet met once.

`harness.verify(default_config())` runs once in the change tree, untimed,
and the `centralized_solve` and `coordinate` calls of each of its cases
are recorded. Each pass clears both trees' memos, as in a fresh process,
then replays every case (both its calls) through both trees, the tree
that goes first alternating from case to case and from pass to pass.

For the fleets it prints each side's `qp.EXITS` counts of the last pass
in place of dual iterations.

    python scripts/ab_coordinate.py --parent ../parent --change . --passes 10

Each tree's modules are put back into `sys.modules` while that tree runs:
`config` resolves its dataclass annotations through it.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the benchmark's fleets, tolerances and run length
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import (CORPUS_SEED, CORPUS_SIZE, HORIZON,  # noqa: E402
                       PULSE_DURATION_S, SHORTFALL_DURATION_S,
                       XC_BAL_TOL_REL, XC_MAX_ITER, XC_ORACLE_TOL, Shortfall)

# the seed of the replayed `shortfall` scenario: it sets the demand and
# the battery's initial SoC
SHORTFALL_SEED = 701
# the package's memos; a tree that lacks one is cleared of the others
MEMOS = (("shipems.qp", "_ldp_rows"), ("shipems.qp", "_fixed_part"),
         ("shipems.qp", "_kept_rows"),
         ("shipems.coordinator", "_fleet_rows"))


def _own(name: str) -> bool:
    return name in ("shipems", "fleets") or name.startswith("shipems.")


def load(tree: str) -> dict:
    """The package's modules (and the tests' `fleets`) of ``tree``, taken
    out of `sys.modules` again."""
    for name in [n for n in sys.modules if _own(n)]:
        del sys.modules[name]
    paths = [os.path.join(tree, "src"), os.path.join(tree, "tests")]
    sys.path[:0] = paths
    try:
        for name in ("shipems", "shipems.sim", "shipems.harness", "fleets"):
            importlib.import_module(name)
    finally:
        del sys.path[:len(paths)]
    mods = {n: m for n, m in sys.modules.items() if _own(n)}
    for name in mods:
        del sys.modules[name]
    src = os.path.join(os.path.abspath(tree), "src", "")
    if not os.path.abspath(mods["shipems"].__file__).startswith(src):
        raise SystemExit(f"shipems came from {mods['shipems'].__file__}, "
                         f"not from {src}")
    return mods


@contextmanager
def active(mods: dict):
    """Run with ``mods`` as the package in `sys.modules`."""
    sys.modules.update(mods)
    try:
        yield
    finally:
        for name in mods:
            sys.modules.pop(name, None)


def port(value, mods: dict):
    """``value`` with every dataclass rebuilt from ``mods``' classes of the
    same name, so that the other tree's `isinstance` checks accept it."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = getattr(mods[type(value).__module__], type(value).__qualname__)
        return cls(**{f.name: port(getattr(value, f.name), mods)
                      for f in dataclasses.fields(value) if f.init})
    if isinstance(value, list):
        return [port(v, mods) for v in value]
    return value


def corpus(mods: dict):
    """Criterion 1's first fleets and demands, built by ``mods``."""
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    with active(mods):
        fleets = mods["fleets"]
        for _ in range(CORPUS_SIZE):
            fleet = fleets.random_fleet(rng)
            out.append((fleet, fleets.feasible_demand(rng, fleet, HORIZON)))
    return out


def time_fleets(sides, passes: int):
    """Each side's per-fleet call times (s), one list per fleet, and its
    dual iterations over one pass."""
    cases = corpus(sides[1][1])
    ported = [[(port(f, mods), p_f) for f, p_f in cases] for _, mods in sides]
    times = [[[] for _ in cases] for _ in sides]
    iterations = [0, 0]
    for n in range(passes):
        for k, (_, p_f) in enumerate(cases):
            tol = XC_BAL_TOL_REL * max(float(np.max(np.abs(p_f))), 1.0)
            for s in ((0, 1) if (n + k) % 2 == 0 else (1, 0)):
                mods = sides[s][1]
                coordinate = mods["shipems.coordinator"].coordinate
                with active(mods):
                    t0 = time.perf_counter()
                    rep = coordinate(ported[s][k][0], p_f, bal_tol_w=tol,
                                     max_iter=XC_MAX_ITER)
                    times[s][k].append(time.perf_counter() - t0)
                if n == 0:
                    iterations[s] += rep.iterations_used
    return times, [f"{n} dual iterations" for n in iterations]


def clear_memos(mods: dict) -> None:
    """Empty every memo of `MEMOS` that the tree of ``mods`` has; a name
    that is no memo there is skipped."""
    for module, name in MEMOS:
        clear = getattr(getattr(mods[module], name, None), "cache_clear",
                        None)
        if clear is not None:
            clear()


def time_oracle(sides, passes: int, cold: bool):
    """Each side's per-fleet `centralized_solve` times (s), one list per
    fleet, and its `qp.EXITS` counts over the last pass, as text."""
    cases = corpus(sides[1][1])
    ported = [[(port(f, mods), p_f) for f, p_f in cases] for _, mods in sides]
    times = [[[] for _ in cases] for _ in sides]
    exits = [None, None]
    for n in range(passes + (not cold)):
        for s in range(2):
            sides[s][1]["shipems.qp"].EXITS.clear()
        for k in range(len(cases)):
            for s in ((0, 1) if (n + k) % 2 == 0 else (1, 0)):
                mods = sides[s][1]
                solve = mods["shipems.coordinator"].centralized_solve
                with active(mods):
                    if cold:
                        clear_memos(mods)
                    t0 = time.perf_counter()
                    solve(*ported[s][k], tol=XC_ORACLE_TOL)
                    elapsed = time.perf_counter() - t0
                if cold or n:  # the warm section's first pass fills memos
                    times[s][k].append(elapsed)
        for s in range(2):
            exits[s] = " ".join(
                f"{k}={v}"
                for k, v in sorted(sides[s][1]["shipems.qp"].EXITS.items()))
    return times, exits


def record_verify(mods: dict):
    """The calls of each case of `harness.verify(default_config())` run in
    the tree of ``mods``: per case, its `centralized_solve` and its
    `coordinate` call, each as (name, args, kwargs)."""
    harness, calls = mods["shipems.harness"], []
    names = ("centralized_solve", "coordinate")
    funcs = [getattr(harness, name) for name in names]

    def recorder(name, func):
        def recorded(*args, **kwargs):
            calls.append((name, args, kwargs))
            return func(*args, **kwargs)
        return recorded

    with active(mods):
        for name, func in zip(names, funcs):
            setattr(harness, name, recorder(name, func))
        try:
            harness.verify(mods["shipems.config"].default_config())
        finally:
            for name, func in zip(names, funcs):
                setattr(harness, name, func)
    return [calls[i:i + 2] for i in range(0, len(calls), 2)]


def time_verify(sides, passes: int):
    """Each side's per-case times (s) of the recorded `verify` cases (as
    in `record_verify`), one list per case, both calls of a case timed
    together, and the number of cases, as text."""
    cases = record_verify(sides[1][1])
    ported = [[[(name, tuple(port(a, mods) for a in args), kwargs)
                for name, args, kwargs in case] for case in cases]
              for _, mods in sides]
    times = [[[] for _ in cases] for _ in sides]
    for n in range(passes):
        for _, mods in sides:
            clear_memos(mods)
        for k in range(len(cases)):
            for s in ((0, 1) if (n + k) % 2 == 0 else (1, 0)):
                mods = sides[s][1]
                coordinator = mods["shipems.coordinator"]
                with active(mods):
                    t0 = time.perf_counter()
                    for name, args, kwargs in ported[s][k]:
                        getattr(coordinator, name)(*args, **kwargs)
                    times[s][k].append(time.perf_counter() - t0)
    return times, [f"{len(cases)} cases"] * 2


def default_run(base):
    """The default run's first `PULSE_DURATION_S`."""
    return dataclasses.replace(base, duration_s=PULSE_DURATION_S)


def shortfall_run(base):
    """`perfbench`'s `shortfall` scenario at `SHORTFALL_SEED`."""
    return Shortfall.scenario(base, np.random.default_rng(SHORTFALL_SEED))


def record_run(mods: dict, scenario):
    """The `coordinate` calls, as (args, kwargs), of ``scenario`` (a
    function of the default config) run in the tree of ``mods``, and its
    dual iterations."""
    sim = mods["shipems.sim"]
    coordinate, calls, reps = sim.coordinate, [], []

    def recorded(*args, **kwargs):
        rep = coordinate(*args, **kwargs)
        calls.append((args, kwargs))
        reps.append(rep)
        return rep

    with active(mods):
        cfg = scenario(mods["shipems.config"].default_config())
        sim.coordinate = recorded
        try:
            sim.run_scenario(cfg)
        finally:
            sim.coordinate = coordinate
    return calls, sum(r.iterations_used for r in reps)


def time_run(sides, passes: int, scenario):
    """Each side's per-step `coordinate` times (s) over the change tree's
    run of ``scenario`` (as in `record_run`), one list per MPC step,
    replayed call by call, and the dual iterations of each tree's own
    run."""
    runs = [record_run(mods, scenario) for _, mods in sides]
    calls = runs[1][0]
    ported = [[(tuple(port(a, mods) for a in args), kwargs)
               for args, kwargs in calls] for _, mods in sides]
    times = [[[] for _ in calls] for _ in sides]
    for n in range(passes):
        for k in range(len(calls)):
            for s in ((0, 1) if (n + k) % 2 == 0 else (1, 0)):
                mods = sides[s][1]
                coordinate = mods["shipems.coordinator"].coordinate
                args, kwargs = ported[s][k]
                with active(mods):
                    t0 = time.perf_counter()
                    coordinate(*args, **kwargs)
                    times[s][k].append(time.perf_counter() - t0)
    return times, [f"{n} dual iterations in its own run"
                   for _, n in runs]


def report(label: str, sides, timed) -> None:
    times, notes = timed
    medians = [[statistics.median(per) for per in side] for side in times]
    ratios = [c / p for p, c in zip(*medians)]
    line = ", ".join(f"{name} p50 {statistics.median(m) * 1e3:.4f} ms "
                     + "".join(f"p{q} {float(np.percentile(m, q)) * 1e3:.4f}"
                               " ms " for q in (90, 95, 99))
                     + f"({note})"
                     for (name, _), m, note in zip(sides, medians, notes))
    print(f"{label}: {line}; median ratio change/parent "
          f"{statistics.median(ratios):.4f} over {len(ratios)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="source tree A")
    parser.add_argument("--change", required=True, help="source tree B")
    parser.add_argument("--passes", type=int, default=10,
                        help="calls per fleet, and replays of each "
                             "closed-loop run and of verify's cases, per "
                             "tree")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    sides = [("parent", load(args.parent)), ("change", load(args.change))]
    report(f"criterion 1, first {CORPUS_SIZE} fleets", sides,
           time_fleets(sides, args.passes))
    report(f"default run, {PULSE_DURATION_S:g} s", sides,
           time_run(sides, args.passes, default_run))
    report(f"shortfall, {SHORTFALL_DURATION_S:g} s, seed {SHORTFALL_SEED}",
           sides, time_run(sides, args.passes, shortfall_run))
    for cold in (False, True):
        report(f"oracle, first {CORPUS_SIZE} fleets, "
               + ("cold" if cold else "warm"), sides,
               time_oracle(sides, args.passes, cold))
    report("verify, default config, replayed", sides,
           time_verify(sides, args.passes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
