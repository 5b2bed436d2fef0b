"""Run one distagm CLI command in this process and write its timings as JSON.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py RESULT.json coarse|full -- CLI ARGS... [-- CLI ARGS...]

Each ``--`` starts one CLI command; the commands run one after another.

``coarse`` wraps only the harness set-up calls and the algorithm calls, a
handful of timer reads per command, so the run costs what the plain CLI
costs. ``full`` wraps the public entry points of every module under the
name its caller looks up, keeps one span per call in memory (name, start,
end, parent) and derives the per-layer metrics from the spans after the
command returns. The program itself is not changed.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """In-memory span recorder. Span ``i`` is the ``i``-th call entered, so
    a span's descendants always have larger indices than the span."""

    def __init__(self):
        self.ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.kept = {}  # span name -> [(args, kwargs, result)] when keep=True
        self._stack = [-1]
        self._patched = []

    def patch(self, owner, attr, name, keep=False):
        """Replace ``owner.attr`` (a module function or a method defined on
        that class) with a wrapper that records one span per call."""
        fn = vars(owner)[attr]
        nid = self.ids.setdefault(name, len(self.ids))
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack, kept, clock = self._stack, self.kept, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if keep:
                kept.setdefault(name, []).append((args, kwargs, out))
            return out

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def install(tracer, full):
    from distagm import agm, baselines, data_io, flow, harness
    from distagm.objectives import (LogisticObjective, QuadraticObjective,
                                    SeparableObjective)
    from distagm.trace import RunTrace

    for attr in ("build_graph", "build_problem", "initial_state",
                 "run_algorithm"):
        tracer.patch(harness, attr, f"harness.{attr}")
    tracer.patch(flow, "integrate", "flow.integrate", keep=full)
    if not full:
        return
    for attr in ("cmd_run", "cmd_compare", "cmd_energy_check"):
        tracer.patch(harness, attr, "harness.cmd")
    tracer.patch(harness, "solve_consensus_optimum",
                 "objectives.solve_consensus_optimum")
    for cls in (SeparableObjective, QuadraticObjective, LogisticObjective):
        for attr in ("value", "grad", "local_grad", "central_value",
                     "central_grad"):
            if attr in vars(cls):
                tracer.patch(cls, attr, f"objectives.{attr}")
    for module in (agm, flow, baselines):
        tracer.patch(module, "apply_lifted_laplacian",
                     "graphs.apply_lifted_laplacian")
    for attr in ("adaptive_run", "fixed_step_run"):
        tracer.patch(agm, attr, f"agm.{attr}", keep=True)
    for attr in ("step", "compute_step_diagnostics", "bootstrap_diagnostics",
                 "select_stepsize", "lyapunov"):
        tracer.patch(agm, attr, f"agm.{attr}")
    tracer.patch(flow, "energy_at", "flow.energy_at")
    for attr in ("dgd_run", "diging_run", "pi_consensus_run"):
        tracer.patch(baselines, attr, f"baselines.{attr}")
    tracer.patch(RunTrace, "append", "trace.append")
    tracer.patch(RunTrace, "column", "trace.column")
    tracer.patch(RunTrace, "write_csv", "trace.write_csv", keep=True)
    for attr in ("shard", "write_summary"):
        tracer.patch(data_io, attr, f"data_io.{attr}")


# Spans that open a context: calls nested in them are attributed to it.
_CONTEXTS = {"agm.adaptive_run": "agm", "agm.fixed_step_run": "agm",
             "flow.integrate": "flow",
             "objectives.solve_consensus_optimum": "solver"}
# Controller case labels as written in the trace, and their metric names.
CASES = {"bootstrap": "bootstrap", "w<=0,r>=0": "wle0_rge0",
         "w<=0,r<0": "wle0_rlt0", "w>0,r>=0": "wgt0_rge0",
         "w>0,r<0": "wgt0_rlt0"}


class Spans:
    """Read-only view of a finished tracer's spans."""

    def __init__(self, tracer):
        self.ids = tracer.ids
        self.name = np.frombuffer(tracer.name, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.dur = (np.frombuffer(tracer.end, dtype=float)
                    - np.frombuffer(tracer.start, dtype=float))
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent],
                              weights=self.dur[has_parent],
                              minlength=len(self.dur))
        self.self_time = self.dur - covered
        ctx_of = {self.ids[n]: c for n, c in _CONTEXTS.items() if n in self.ids}
        ctx, parents = [], tracer.parent.tolist()
        for nid, par in zip(tracer.name.tolist(), parents):
            ctx.append(ctx_of.get(nid) or (ctx[par] if par >= 0 else None))
        self.ctx = np.array(ctx, dtype=object)

    def mask(self, *names):
        return np.isin(self.name, [self.ids.get(n, -1) for n in names])

    def count(self, name, ctx=None):
        m = self.mask(name)
        if ctx is not None:
            m &= self.ctx == ctx
        return int(m.sum())

    def total(self, *names):
        return float(self.dur[self.mask(*names)].sum())


def flow_steps(params, startup_dt_fraction):
    """Accepted RK4 steps of the fixed-step schedule in ``flow.integrate``.

    The step loop is inline in ``integrate``, so no wrapper sees it; the
    count is recomputed from the same schedule and float arithmetic.
    """
    t, n = params.t0, 0
    while t < params.horizon - 1e-15:
        t = t + min(params.dt, startup_dt_fraction * t, params.horizon - t)
        n += 1
    return n


def csv_shape(path):
    """(bytes, rows whose field count differs from the header's)."""
    header, ragged = None, 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("# "):
                continue
            fields = line.rstrip("\n").count(",") + 1
            if header is None:
                header = fields
            elif fields != header:
                ragged += 1
    return os.path.getsize(path), ragged


def layer_metrics(sp, kept):
    """Per-layer metrics of one full traced command from its spans and the
    results the tracer kept. The tracer must have been restored first, so
    that reading the kept traces records no further spans."""
    obj_ids = [i for n, i in sp.ids.items() if n.startswith("objectives.")]
    parent_name = np.where(sp.parent >= 0, sp.name[sp.parent], -1)
    local_grad_top = sp.mask("objectives.local_grad") & ~np.isin(parent_name,
                                                                 obj_ids)
    iters = sp.count("agm.step", "agm")

    def per_iter(name):
        return sp.count(name, "agm") // iters if iters else 0

    m = {
        "harness.build_problem_s": sp.total("harness.build_problem"),
        "harness.cmd_self_s": float(sp.self_time[sp.mask("harness.cmd")].sum()),
        "objectives.grad_calls": sp.count("objectives.grad"),
        "objectives.grad_s": sp.total("objectives.grad"),
        "objectives.value_calls": sp.count("objectives.value"),
        "objectives.value_s": sp.total("objectives.value"),
        "objectives.local_grad_calls": int(local_grad_top.sum()),
        "objectives.grad_calls_per_iter": per_iter("objectives.grad"),
        "objectives.value_calls_per_iter": per_iter("objectives.value"),
        "objectives.solver_s": sp.total("objectives.solve_consensus_optimum"),
        # the restarted AGD loop takes two centralized gradients per iteration
        "objectives.solver_iters":
            sp.count("objectives.central_grad", "solver") // 2,
        "graphs.laplacian_calls": sp.count("graphs.apply_lifted_laplacian"),
        "graphs.laplacian_s": sp.total("graphs.apply_lifted_laplacian"),
        "graphs.laplacian_calls_per_iter":
            per_iter("graphs.apply_lifted_laplacian"),
        "agm.step_s": sp.total("agm.step"),
        "agm.diagnostics_s": sp.total("agm.compute_step_diagnostics",
                                      "agm.bootstrap_diagnostics"),
        "agm.select_s": sp.total("agm.select_stepsize"),
        "agm.lyapunov_s": sp.total("agm.lyapunov"),
        "agm.iters": iters,
        "flow.integrate_s": sp.total("flow.integrate"),
        "flow.energy_at_calls": sp.count("flow.energy_at"),
        "baselines.dgd_s": sp.total("baselines.dgd_run"),
        "baselines.diging_s": sp.total("baselines.diging_run"),
        "trace.append_calls": sp.count("trace.append"),
        "trace.append_s": sp.total("trace.append"),
        "trace.column_calls": sp.count("trace.column"),
        "trace.column_s": sp.total("trace.column"),
        "trace.write_csv_s": sp.total("trace.write_csv"),
        "data_io.shard_s": sp.total("data_io.shard"),
        "data_io.write_summary_s": sp.total("data_io.write_summary"),
    }

    # Controller statistics from the in-memory traces: the CSV copy of a
    # controller trace is ragged (case labels contain commas).
    cases, fallbacks, misses, increases = Counter(), 0, 0, 0
    for name in ("agm.adaptive_run", "agm.fixed_step_run"):
        for _args, _kwargs, trace in kept.get(name, []):
            fallbacks += int(trace.column("fallback_flag").sum())
            misses += int((trace.column("monotonicity_ok") == 0).sum())
            ks, vs = trace.column("k"), trace.column("V_k")
            vs = vs[ks >= 1]
            increases += int(np.sum(vs[1:] > vs[:-1] * (1.0 + 1e-9)))
            cases.update(trace.column("case").tolist())
    m.update({"agm.fallbacks": fallbacks, "agm.monotonicity_misses": misses,
              "agm.v_increases": increases})
    for label, key in CASES.items():
        m[f"agm.case.{key}"] = cases.get(label, 0)

    from distagm import flow

    steps, drift = 0, 0.0
    default_frac = inspect.signature(flow.integrate).parameters[
        "startup_dt_fraction"].default
    for args, kwargs, trace in kept.get("flow.integrate", []):
        steps += flow_steps(args[0], kwargs.get("startup_dt_fraction",
                                                default_frac))
        totals = trace.column("E_total")
        ref = max(abs(totals[0]), 1e-12)
        drift = max(drift, float(np.max(np.abs(totals - totals[0])) / ref))
    m["flow.steps"] = steps
    for kind in ("grad", "value"):
        m[f"flow.{kind}_calls_per_step"] = (
            sp.count(f"objectives.{kind}", "flow") // steps if steps else 0)
    m["flow.max_drift"] = drift

    written, ragged = 0, 0
    for args, _kwargs, _ in kept.get("trace.write_csv", []):
        size, bad = csv_shape(args[1])
        written += size
        ragged += bad
    m["trace.bytes_written"] = written
    m["trace.ragged_rows"] = ragged
    return m


def main(argv):
    if len(argv) < 4 or argv[2] != "--" or argv[1] not in ("coarse", "full"):
        sys.exit(__doc__)
    result_path, full = argv[0], argv[1] == "full"
    commands = [[]]
    for arg in argv[3:]:
        if arg == "--":
            commands.append([])
        else:
            commands[-1].append(arg)
    from distagm import cli

    tracer = Tracer()
    install(tracer, full)
    start = time.perf_counter()
    codes = [cli.main(cli_args) for cli_args in commands]
    cmd_s = time.perf_counter() - start
    tracer.restore()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    sp = Spans(tracer)
    result = {
        "cmd_s": cmd_s,
        "setup_s": sp.total("harness.build_graph", "harness.build_problem",
                            "harness.initial_state"),
        "solve_s": sp.total("harness.run_algorithm", "flow.integrate"),
        "maxrss_kb": usage.ru_maxrss,
    }
    if full:
        result["metrics"] = layer_metrics(sp, tracer.kept)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
