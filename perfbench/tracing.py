"""Spans around the package's entry points, and the per-layer metrics.

The tracer replaces each entry point under the name its caller looks up
(``shipems.sim.coordinate`` is what ``run_scenario`` calls, for example)
with a wrapper that records a span: name, start, end, parent span and a
few facts taken from the arguments and the result. Spans stay in memory
until the run ends. A layer's self time is the duration of its spans minus
the time covered by their child spans in other layers.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

import numpy as np

# Span name -> layer. Benchmark spans ("round", "check") are glue.
LAYER_OF = {
    "run_scenario": "plant",
    "coordinate": "coord",
    "pgm_solve": "nodes",
    "pcm_solve": "nodes",
    "qp.solve": "qp",
    "qp.feasibility_check": "qp",
    "qp.linprog": "qp",
    "centralized_solve": "oracle",
    "csv": "csv",
    "load_config": "config",
}

# Per-layer metrics and their units, in report order.
LAYER_METRICS = {
    "qp": [("qp.calls", "count"), ("qp.time_s", "s"),
           ("qp.call_us_p50", "us"), ("qp.pg_iters", "count")]
    + [(f"qp.{e}.{m}", u) for e in ("shortcut", "pg", "polished",
                                    "fallback", "infeasible")
       for m, u in (("calls", "count"), ("time_s", "s"))]
    + [("qp.gen.time_s", "s"), ("qp.batt.time_s", "s"),
       ("qp.feas_lp.calls", "count"), ("qp.feas_lp.time_s", "s")],
    "coord": [("coord.calls", "count"), ("coord.self_s", "s"),
              ("coord.dual_iters", "count"),
              ("coord.dual_iters_max", "count"),
              ("coord.ms_per_iter", "ms"), ("coord.nonconverged", "count")],
    "nodes": [("nodes.calls", "count"), ("nodes.self_s", "s")],
    "oracle": [("oracle.calls", "count"), ("oracle.time_s", "s"),
               ("oracle.self_s", "s"), ("oracle.qp_calls", "count")],
    "plant": [("plant.time_s", "s"), ("plant.ns_per_step", "ns")],
    "csv": [("csv.time_s", "s"), ("csv.bytes", "B"), ("csv.mb_per_s", "MB/s")],
    "config": [("config.load_s", "s")],
    "trace": [("trace.wall_s", "s"), ("trace.glue_s", "s"),
              ("trace.overhead_pct", "%")],
}


def _qp_info(args, kwargs, sol):
    problem = args[0] if args else kwargs["qp"]
    polish = kwargs.get("polish", args[4] if len(args) > 4 else True)
    return (problem.cumsum_coeff != 0.0, sol.status, sol.iterations,
            sol.fixed_point_residual, polish)


def _feas_info(args, kwargs, status):
    problem = args[0] if args else kwargs["qp"]
    return (problem.cumsum_coeff != 0.0,)


def _coord_info(args, kwargs, rep):
    return (rep.iterations_used, rep.converged)


def _plant_info(args, kwargs, log):
    cfg = args[0] if args else kwargs["cfg"]
    return (int(round(cfg.duration_s / cfg.plant_dt_s)),)


def _csv_info(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return (os.path.getsize(path),)


def entry_points(shipems, scipy_optimize):
    """(layer, module, attribute, span name, info) for every wrapped call.

    The benchmark itself calls ``shipems.<name>``; the package's modules
    call each other through the module-level names listed here.
    """
    return [
        ("config", shipems, "load_config", "load_config", None),
        ("plant", shipems, "run_scenario", "run_scenario", _plant_info),
        ("plant", shipems.harness, "run_scenario", "run_scenario",
         _plant_info),
        ("coord", shipems, "coordinate", "coordinate", _coord_info),
        ("coord", shipems.sim, "coordinate", "coordinate", _coord_info),
        ("nodes", shipems.coordinator, "pgm_solve", "pgm_solve", None),
        ("nodes", shipems.coordinator, "pcm_solve", "pcm_solve", None),
        ("qp", shipems.qp, "solve", "qp.solve", _qp_info),
        ("qp", shipems.qp, "feasibility_check", "qp.feasibility_check",
         _feas_info),
        ("qp", scipy_optimize, "linprog", "qp.linprog", None),
        ("oracle", shipems, "centralized_solve", "centralized_solve", None),
        ("csv", shipems.harness, "write_timeseries_csv", "csv", _csv_info),
        ("csv", shipems.harness, "write_mpc_diag_csv", "csv", _csv_info),
        ("csv", shipems.harness, "write_summary_csv", "csv", _csv_info),
    ]


class Tracer:
    """Records spans while installed; ``absent`` lists missing entry points."""

    def __init__(self, points):
        self.points = points
        self.spans = []  # (name, start, end, parent index, info)
        self.absent = {}  # layer -> missing "module.attribute" names
        self._stack = []
        self._saved = []

    def install(self, layers=None):
        """Wrap every entry point, or those of the given layers."""
        self.absent = {}
        for layer, module, attr, name, info in self.points:
            if layers is not None and layer not in layers:
                continue
            orig = getattr(module, attr, None)
            if not callable(orig):
                self.absent.setdefault(layer, []).append(
                    f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name, info))

    def uninstall(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, t0, clock(), parent, None)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            facts = info(args, kwargs, result) if info is not None else None
            spans[idx] = (name, t0, t1, parent, facts)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, None)

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, facts in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


def _classify(facts):
    is_batt, status, iters, fpr, polish = facts
    if status == "infeasible":
        return "infeasible"
    if iters == 0:
        return "shortcut"
    if not polish:
        return "pg"
    # a certified polish reports a fixed-point residual of exactly 0
    return "polished" if fpr == 0.0 else "fallback"


def layer_metrics(tracer, used_layers, wall_traced, wall_untraced):
    """Per-layer metrics from the recorded spans.

    Returns (metrics, problems): ``problems`` names each layer the workload
    uses that recorded no span, and each entry point found missing.
    """
    spans = tracer.spans
    dur = np.array([s[2] - s[1] for s in spans]) if spans else np.zeros(0)
    layer = [LAYER_OF.get(s[0], "glue") for s in spans]
    child_other = np.zeros(len(spans))  # time in children of other layers
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0 and layer[parent] != layer[i]:
            child_other[parent] += dur[i]
    # a layer's own time: spans not nested in the same layer, minus the
    # time of their children in other layers
    top = [i for i, s in enumerate(spans)
           if s[3] < 0 or layer[s[3]] != layer[i]]
    self_s = {}
    for i in top:
        self_s[layer[i]] = self_s.get(layer[i], 0.0) + dur[i] - child_other[i]

    def spans_named(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    m = {}
    qp_top = [i for i in top if layer[i] == "qp"]
    qp_solves = spans_named("qp.solve")
    m["qp.calls"] = len(qp_top)
    m["qp.time_s"] = self_s.get("qp", 0.0)
    m["qp.call_us_p50"] = float(np.median(dur[qp_solves]) * 1e6) \
        if qp_solves else 0.0
    m["qp.pg_iters"] = sum(spans[i][4][2] for i in qp_solves
                           if spans[i][4] is not None)
    for e in ("shortcut", "pg", "polished", "fallback", "infeasible"):
        hit = [i for i in qp_solves if spans[i][4] is not None
               and _classify(spans[i][4]) == e]
        m[f"qp.{e}.calls"] = len(hit)
        m[f"qp.{e}.time_s"] = float(dur[hit].sum())
    for kind, want in (("gen", False), ("batt", True)):
        m[f"qp.{kind}.time_s"] = float(sum(
            dur[i] for i in qp_top
            if spans[i][4] is not None and spans[i][4][0] == want))
    lp = [i for i in spans_named("qp.linprog")
          if spans[i][3] >= 0 and spans[spans[i][3]][0]
          == "qp.feasibility_check"]
    m["qp.feas_lp.calls"] = len(lp)
    m["qp.feas_lp.time_s"] = float(dur[lp].sum())

    coords = [i for i in spans_named("coordinate") if spans[i][4] is not None]
    iters = [spans[i][4][0] for i in coords]
    m["coord.calls"] = len(coords)
    m["coord.self_s"] = self_s.get("coord", 0.0)
    m["coord.dual_iters"] = int(sum(iters))
    m["coord.dual_iters_max"] = int(max(iters, default=0))
    m["coord.ms_per_iter"] = float(dur[coords].sum() * 1e3 / sum(iters)) \
        if iters else 0.0
    m["coord.nonconverged"] = sum(1 for i in coords if not spans[i][4][1])

    m["nodes.calls"] = len(spans_named("pgm_solve", "pcm_solve"))
    m["nodes.self_s"] = self_s.get("nodes", 0.0)

    oracle = spans_named("centralized_solve")
    m["oracle.calls"] = len(oracle)
    m["oracle.time_s"] = float(dur[oracle].sum())
    m["oracle.self_s"] = self_s.get("oracle", 0.0)
    oracle_ids = set(oracle)
    m["oracle.qp_calls"] = sum(1 for i in qp_top if spans[i][3] in oracle_ids)

    plant = [i for i in spans_named("run_scenario") if spans[i][4] is not None]
    steps = sum(spans[i][4][0] for i in plant)
    m["plant.time_s"] = self_s.get("plant", 0.0)
    m["plant.ns_per_step"] = m["plant.time_s"] * 1e9 / steps if steps else 0.0

    csv_spans = [i for i in spans_named("csv") if spans[i][4] is not None]
    m["csv.time_s"] = self_s.get("csv", 0.0)
    m["csv.bytes"] = int(sum(spans[i][4][0] for i in csv_spans))
    m["csv.mb_per_s"] = m["csv.bytes"] / 1e6 / m["csv.time_s"] \
        if m["csv.time_s"] else 0.0

    m["config.load_s"] = float(dur[spans_named("load_config")].sum())

    m["trace.wall_s"] = wall_traced
    m["trace.glue_s"] = self_s.get("glue", 0.0)
    m["trace.overhead_pct"] = 100.0 * (wall_traced / wall_untraced - 1.0)

    problems = []
    for lay in used_layers:
        if lay in tracer.absent:
            problems.append(f"layer {lay}: entry point missing: "
                            + ", ".join(tracer.absent[lay]))
        elif not any(layer[i] == lay for i in range(len(spans))):
            problems.append(f"layer {lay} is used but recorded no span")
    units = {}
    for lay, items in LAYER_METRICS.items():
        for name, unit in items:
            if lay in tracer.absent:
                continue  # reported as absent, never as zero
            units[name] = unit
    return {k: {"value": m[k], "unit": u} for k, u in units.items()}, problems
