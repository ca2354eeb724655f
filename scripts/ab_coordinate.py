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

For each side it prints the p50 and p90 over fleets (steps) of each
fleet's (step's) median time over the passes and the total dual
iterations of one pass (for the default run, of the tree's own run), then
the median over fleets (steps) of the per-fleet (per-step) ratio
change/parent. The iterations tell a change in how often the loop runs
from a change in what one iteration costs.

The oracle, `centralized_solve`, is timed the same way on the same 40
fleets at the benchmark's oracle tolerance, and on `harness.verify`:

- warm: after one untimed call per fleet, so that each tree's memos hold
  what the benchmark's later rounds find there;
- cold: each tree's memos (those of `MEMOS` that the tree has) cleared
  before every call, as for a fleet met once;
- `verify`: one `harness.verify(default_config())` per side in each pass,
  the memos cleared before it, as in a fresh process.

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
                       PULSE_DURATION_S, XC_BAL_TOL_REL, XC_MAX_ITER,
                       XC_ORACLE_TOL)

# the package's memos; a tree that lacks one is cleared of the others
MEMOS = (("shipems.qp", "_ldp_rows"), ("shipems.qp", "_expanded"),
         ("shipems.qp", "_fixed_part"),
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
    """Empty every memo of `MEMOS` that the tree of ``mods`` has."""
    for module, name in MEMOS:
        memo = getattr(mods[module], name, None)
        if memo is not None:
            memo.cache_clear()


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


def time_verify(sides, passes: int):
    """Each side's `harness.verify(default_config())` times (s), as the
    one list of a single item, and the number of its cases, as text."""
    times, cases = [[[]], [[]]], [None, None]
    for n in range(passes):
        for s in ((0, 1) if n % 2 == 0 else (1, 0)):
            mods = sides[s][1]
            with active(mods):
                cfg = mods["shipems.config"].default_config()
                clear_memos(mods)
                t0 = time.perf_counter()
                rep = mods["shipems.harness"].verify(cfg)
                times[s][0].append(time.perf_counter() - t0)
            cases[s] = f"{len(rep.cases)} cases"
    return times, cases


def record_default_run(mods: dict):
    """The `coordinate` calls, as (args, kwargs), of the default run's
    first `PULSE_DURATION_S` in the tree of ``mods``, and its dual
    iterations."""
    sim = mods["shipems.sim"]
    coordinate, calls, reps = sim.coordinate, [], []

    def recorded(*args, **kwargs):
        rep = coordinate(*args, **kwargs)
        calls.append((args, kwargs))
        reps.append(rep)
        return rep

    with active(mods):
        cfg = dataclasses.replace(mods["shipems.config"].default_config(),
                                  duration_s=PULSE_DURATION_S)
        sim.coordinate = recorded
        try:
            sim.run_scenario(cfg)
        finally:
            sim.coordinate = coordinate
    return calls, sum(r.iterations_used for r in reps)


def time_default_run(sides, passes: int):
    """Each side's per-step `coordinate` times (s) over the change tree's
    default run, one list per MPC step, replayed call by call, and the
    dual iterations of each tree's own run."""
    runs = [record_default_run(mods) for _, mods in sides]
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
                     f"p90 {float(np.percentile(m, 90)) * 1e3:.4f} ms "
                     f"({note})"
                     for (name, _), m, note in zip(sides, medians, notes))
    print(f"{label}: {line}; median ratio change/parent "
          f"{statistics.median(ratios):.4f} over {len(ratios)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="source tree A")
    parser.add_argument("--change", required=True, help="source tree B")
    parser.add_argument("--passes", type=int, default=10,
                        help="calls per fleet, runs of the default "
                             "scenario and of verify, per tree")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    sides = [("parent", load(args.parent)), ("change", load(args.change))]
    report(f"criterion 1, first {CORPUS_SIZE} fleets", sides,
           time_fleets(sides, args.passes))
    report(f"default run, {PULSE_DURATION_S:g} s", sides,
           time_default_run(sides, args.passes))
    for cold in (False, True):
        report(f"oracle, first {CORPUS_SIZE} fleets, "
               + ("cold" if cold else "warm"), sides,
               time_oracle(sides, args.passes, cold))
    report("verify, default config", sides, time_verify(sides, args.passes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
