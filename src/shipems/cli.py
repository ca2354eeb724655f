"""Command line entry point: run, sweep, and verify subcommands.

Exit codes: 0 success, 1 verification failure, 2 config or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import harness
from .config import load_config


def _parse_values(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} expects a comma list of numbers: {exc}")
    if not values:
        raise ValueError(f"{flag} list must be nonempty")
    # a weight the config loader rejects; a negative one fails its own cell
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise ValueError(f"{flag} values must be finite numbers, got {bad[0]}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shipems",
        description="Distributed MPC energy management for a DC shipboard "
                    "power system: closed-loop runs, weight sweeps, and "
                    "solver cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write CSV logs")
    sweep_p = sub.add_parser(
        "sweep", help="run the scenario over a (beta, gamma) grid")
    verify_p = sub.add_parser(
        "verify", help="cross-check the coordinator against the "
                       "monolithic solver")
    for p in (run_p, sweep_p, verify_p):
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", default=".", help="output directory")
    for p in (run_p, sweep_p):
        p.add_argument("--log-every", type=int, default=None,
                       help="log every Nth plant step")
    sweep_p.add_argument("--beta", required=True,
                         help="comma list of generator weights")
    sweep_p.add_argument("--gamma", required=True,
                         help="comma list of battery weights")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if getattr(args, "log_every", None) is not None:
            cfg = dataclasses.replace(cfg, log_every=args.log_every)
            cfg.validate()
        grid = ((_parse_values(args.beta, "--beta"),
                 _parse_values(args.gamma, "--gamma"))
                if args.command == "sweep" else None)
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        # before any work, so that a bad --out fails at once
        os.makedirs(args.out, exist_ok=True)
        return _run(args, cfg, grid)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace, cfg, grid) -> int:
    """The subcommand's work and output, into the existing ``args.out``;
    ``grid`` holds a sweep's (betas, gammas)."""
    if args.command == "run":
        log = harness.run_to_artifacts(cfg, args.out)
        print(f"wrote {os.path.join(args.out, 'timeseries.csv')}, "
              f"mpc_diag.csv, summary.csv")
        print(f"violations: box={log.box_violations} "
              f"ramp={log.ramp_violations} soc={log.soc_violations} "
              f"shortfall_events={log.shortfall_events}")
        return 0

    if args.command == "sweep":
        rows = harness.sweep(cfg, *grid, out_dir=args.out)
        print(",".join(harness.SUMMARY_HEADER))
        for r in rows:
            print(harness.summary_line(r))
        failed = [r for r in rows if r.status != "ok"]
        if failed:
            print(f"{len(failed)} cell(s) failed", file=sys.stderr)
            return 1
        return 0

    # verify
    try:
        report = harness.verify(cfg)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    harness.write_verify_csv(
        report, os.path.join(args.out, "verify_report.csv"))
    print(f"cases: {len(report.cases)}")
    print(f"max power gap: {report.max_power_gap_w:.6g} W "
          f"(threshold {harness.VERIFY_POWER_TOL_W:g} W)")
    print(f"max objective gap: {report.max_objective_rel_gap:.6g} relative "
          f"(threshold {harness.VERIFY_OBJ_RTOL:g})")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
