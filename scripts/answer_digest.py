#!/usr/bin/env python3
"""Print sha256 digests of the package's answers, to compare two versions.

Digests:
- the three CSVs of the default config run for 300 s;
- every `SimLog` field of that run, and its dual iterations and
  `qp.EXITS` counts;
- the same of `perfbench`'s `shortfall` scenario (30 s of constant demand
  above the fleet's maximum) at `ab_coordinate.SHORTFALL_SEED`, where
  every MPC step is a shortfall step;
- criterion 1's 200 random fleets, as `coordinate` and
  `centralized_solve` answer them, and the `qp.EXITS` counts of each;
- `harness.verify(default_config())`: every case's power and objective
  gap;
- every node problem of criterion 1's fleets: its reach envelope
  (`HorizonQp.envelope`) and its kernel's box (`HorizonQp.ldp.box`).

Two versions that print the same lines give bitwise the same answers on
these runs. The digests may differ between platforms (BLAS, libm), so
compare outputs taken on one machine.

    python scripts/answer_digest.py > digests.txt
"""

import dataclasses
import hashlib
import os
import sys
import tempfile
from collections import Counter

import numpy as np

from shipems import harness, qp, sim
from shipems.config import default_config
from shipems.coordinator import centralized_solve, coordinate
from shipems.nodes import pcm_qp, pgm_qp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))
from fleets import feasible_demand, random_fleet  # noqa: E402
# the replayed shortfall scenario, from this script's directory
from ab_coordinate import SHORTFALL_SEED, shortfall_run  # noqa: E402

DURATION_S = 300.0
FLEETS = 200


def digest(*values) -> str:
    """sha256 of arrays (dtype, shape and bytes) and other values (repr)."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()


def print_log(log, prefix: str = "") -> None:
    """Every `SimLog` field of ``log``, its dual iterations and the
    `qp.EXITS` counts, each line led by ``prefix``."""
    for f in dataclasses.fields(log):
        print(f"{prefix}simlog.{f.name} {digest(getattr(log, f.name))}")
    print(f"{prefix}dual_iterations {int(log.mpc_iterations.sum())}")
    print(f"{prefix}exits "
          + " ".join(f"{k}={v}" for k, v in sorted(qp.EXITS.items())))


def default_run():
    cfg = dataclasses.replace(default_config(), duration_s=DURATION_S)
    qp.EXITS.clear()
    with tempfile.TemporaryDirectory() as out:
        log = harness.run_to_artifacts(cfg, out)
        for name in ("timeseries.csv", "mpc_diag.csv", "summary.csv"):
            with open(os.path.join(out, name), "rb") as fh:
                print(f"{name} {hashlib.sha256(fh.read()).hexdigest()}")
    print_log(log)


def shortfall():
    qp.EXITS.clear()
    print_log(sim.run_scenario(shortfall_run(default_config())),
              "shortfall.")


def criterion_1():
    """The fleets, demands and tolerances of acceptance criterion 1."""
    rng = np.random.default_rng(2024)
    h = 5
    dist, cen = hashlib.sha256(), hashlib.sha256()
    exits = {"coordinate": Counter(), "centralized_solve": Counter()}
    for _ in range(FLEETS):
        fleet = random_fleet(rng)
        p_f = feasible_demand(rng, fleet, h)
        scale = max(float(np.max(np.abs(p_f))), 1.0)
        qp.EXITS.clear()
        c = centralized_solve(fleet, p_f, tol=1e-9)
        exits["centralized_solve"] += qp.EXITS
        qp.EXITS.clear()
        rep = coordinate(fleet, p_f, bal_tol_w=1e-6 * scale, max_iter=5000)
        exits["coordinate"] += qp.EXITS
        dist.update(digest(*[r.profile for r in rep.gen + rep.batt],
                           rep.lambda_final, rep.iterations_used,
                           rep.final_residual_w, rep.shortfall_w).encode())
        cen.update(digest(*c.gen_profiles, *c.batt_profiles, c.objective,
                          c.status).encode())
    print(f"criterion1.coordinate {dist.hexdigest()}")
    print(f"criterion1.centralized_solve {cen.hexdigest()}")
    for name, counts in exits.items():
        print(f"criterion1.exits.{name} "
              + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))


def criterion_1_envelopes():
    """Criterion 1's node problems, each built afresh at the fleet's state;
    run last, so that the memos it fills move no other line."""
    rng = np.random.default_rng(2024)
    h = 5
    env = hashlib.sha256()
    for _ in range(FLEETS):
        fleet = random_fleet(rng)
        feasible_demand(rng, fleet, h)  # keeps the draws of `criterion_1`
        qps = [pgm_qp(g.spec, g.prev_power_w, h) for g in fleet.pgms]
        qps += [pcm_qp(b.spec, fleet.bus, b.soc, b.prev_power_w, fleet.td_s, h)
                for b in fleet.pcms]
        for p in qps:
            env.update(digest(*p.envelope, *p.ldp.box).encode())
    print(f"criterion1.envelopes {env.hexdigest()}")


def verify():
    rep = harness.verify(default_config())
    print("verify " + digest(*[(c.max_power_gap_w, c.objective_rel_gap)
                              for c in rep.cases]))


if __name__ == "__main__":
    default_run()
    shortfall()
    criterion_1()
    verify()
    criterion_1_envelopes()
