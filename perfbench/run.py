"""Benchmark of shipems, end to end and per layer.

    python3 perfbench/run.py --workload pulse_default --seed 1 --seconds 25 --trace 0

Runs one workload (see workloads.py and README.md) as a single caller in
one process and one thread, checks every output, prints each metric with
its unit, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` each round runs once untraced and once
traced and the metrics are the per-layer ones. End-to-end times are
scaled by the speed of the host while they were measured (calibrate.py).
Exits 1 when any output check fails and 2 when the package cannot be
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402  (it imports numpy, so after the pins)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 5
SETUP_KERNEL_SAMPLES = 3
SETUP_TIMEOUT_S = 60

WORKLOAD_NAMES = ("pulse_default", "fleet_crosscheck", "shortfall")


def import_package():
    """Import shipems from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import shipems
        import shipems.harness  # noqa: F401  (entry points the trace wraps)
    except ImportError as exc:
        print(f"cannot import shipems from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if os.path.dirname(os.path.abspath(shipems.__file__)) \
            != os.path.join(SRC, "shipems"):
        print(f"shipems was imported from {shipems.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return shipems


def clock():
    # CLOCK_MONOTONIC is shared by every process, so a child's reading can
    # be compared with the parent's; time.perf_counter reads it too.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(args):
    """Median time from launching a fresh interpreter to its inputs built,
    as measured and scaled by kernel samples the interpreter takes next."""
    spans = []
    for _ in range(SETUP_SAMPLES):
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            cwd=ROOT, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(proc.returncode or 1)
        t1, factor = (float(x) for x in proc.stdout.split()[-2:])
        spans.append((t1 - t0, factor))
    return (statistics.median(t for t, _ in spans),
            statistics.median(t * f for t, f in spans))


def end_to_end_metrics(wl, out, setup_s, cal):
    """The end-to-end metrics, scaled; the measured ones are printed."""
    import numpy as np
    from scipy.stats.mstats import hdquantiles

    print(f"reference kernel: {len(cal.samples)} samples, median "
          f"{cal.median_s() * 1e3:.3f} ms; times are scaled to "
          f"{calibrate.REF_S * 1e3:g} ms")
    figures = {}
    for which, timing in (("measured", out.measured), ("scaled", out.scaled)):
        steps = np.array(timing.step_s)
        # Harrell-Davis estimates weigh every order statistic near the
        # quantile, so one noisy call next to a gap between fleets' step
        # times cannot move them far.
        p50, tail = (float(q) for q in
                     hdquantiles(steps, [0.5, wl.tail_pct / 100.0]))
        figures[which] = {
            "setup_s": (setup_s[which == "scaled"], "s"),
            "sim_rate": (out.sim_s / timing.sim_wall_s, "s/s"),
            "mpc_step_p50_ms": (p50 * 1e3, "ms"),
            "mpc_step_tail_ms": (tail * 1e3, "ms"),
            "crosscheck_rate": (out.xc_ops / timing.xc_wall_s, "1/s"),
        }
    beyond = int(np.sum(steps > tail))
    print(f"mpc steps timed: {steps.size}; tail is p{wl.tail_pct:g} "
          f"with {beyond} samples beyond it")
    if beyond < 10:
        print(f"warning: fewer than ten samples beyond p{wl.tail_pct:g}")
    print("as measured: " + ", ".join(
        f"{k} {v:.6g} {u}" for k, (v, u) in figures["measured"].items()))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {**figures["scaled"], "peak_rss_mb": (rss_mb, "MB")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",),
                    help="one workload, or all of them, each in its own "
                    "process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the inputs, print the clock and exit")
    args = ap.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, check=False).returncode
            for name in WORKLOAD_NAMES]
        return 1 if any(codes) else 0

    pkg = import_package()
    import scipy.optimize

    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        cal = calibrate.Calibrator(None)
        cls(pkg, ROOT, args.seed, None, cal)
        done = clock()
        # The interpreter may run on another core than its parent, so it
        # measures the host's speed itself, right after its set-up.
        for _ in range(SETUP_KERNEL_SAMPLES):
            cal.sample()
        print(repr(done), repr(cal.factor(done, done)))
        return 0

    # Traced runs sample the kernel only in between rounds, so that its
    # samples stay out of the traced wall time.
    cal = calibrate.Calibrator(None if args.trace else calibrate.EVERY_S)
    setup_s = None if args.trace else measure_setup(args)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = os.path.join(HERE, "out", f"{args.workload}-{os.getpid()}")
    tracer = tracing.Tracer(tracing.entry_points(pkg, scipy.optimize))
    try:
        if args.trace:
            tracer.install(("config",))  # it runs while inputs are built
        wl = cls(pkg, ROOT, args.seed, workdir, cal)
        tracer.uninstall()
        rounds = []
        wall_plain = wall_traced = 0.0
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rounds.append(wl.round())
            wall_plain += time.perf_counter() - t0
            if args.trace:
                tracer.install()
                t0 = time.perf_counter()
                with tracer.span("round"):
                    rounds.append(wl.round())
                wall_traced += time.perf_counter() - t0
                tracer.uninstall()
                for _ in range(3):
                    cal.sample()
            if time.perf_counter() - start >= args.seconds:
                break
        out = workloads.Outcome(cal)
        wl.check(rounds, out)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{out.attempted} operations attempted, {out.failed} failed")
    for msg in out.messages[:20]:
        print("check failed:", msg)
    correct = out.unexpected == 0
    if args.trace:
        metrics, problems = tracing.layer_metrics(
            tracer, wl.layers, wall_traced, wall_plain)
        tracer.dump(os.path.join(HERE, "out", f"spans-{args.workload}.jsonl"))
        for lay, names in sorted(tracer.absent.items()):
            print(f"layer {lay} absent: {', '.join(names)} not found")
        for p in problems:
            print("trace failed:", p)
        correct = correct and not problems
        metrics["host.calib_ms"] = {"value": cal.median_s() * 1e3,
                                    "unit": "ms"}
        print(f"traced rounds {wall_traced:.3f} s, untraced {wall_plain:.3f} s; "
              f"{len(tracer.spans)} spans")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   end_to_end_metrics(wl, out, setup_s, cal).items()}
    for name, m in metrics.items():
        print(f"{name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
