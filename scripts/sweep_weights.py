#!/usr/bin/env python3
"""Reproduce the generator/battery trade-off trends.

Sweeps gamma 0..10 at beta=1 and beta 0..10 at gamma=1 over a 60 s
scaled duration, writing one summary per sweep under out/.
"""

import dataclasses
import os
import sys

from shipems.config import load_config
from shipems.harness import SUMMARY_HEADER, summary_line, sweep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRID = [float(v) for v in range(11)]


def main() -> int:
    cfg = load_config(os.path.join(ROOT, "configs", "default.json"))
    cfg = dataclasses.replace(cfg, duration_s=60.0)
    for name, betas, gammas in (
        ("sweep_gamma", [1.0], GRID),
        ("sweep_beta", GRID, [1.0]),
    ):
        rows = sweep(cfg, betas, gammas,
                     out_dir=os.path.join(ROOT, "out", name))
        print(f"{name}: {len(rows)} cells")
        print("  " + ",".join(SUMMARY_HEADER))
        for r in rows:
            print("  " + summary_line(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
