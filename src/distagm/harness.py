"""Experiment orchestration: config loading, problem building, run/compare
commands, rate and energy checks.

Configs are YAML mappings. Every stochastic choice is seeded, so identical
config plus seed yields byte-identical trace files. Every trace,
comparison.csv and summary.csv carry one stamp: config hash, seed, problem.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
import typing

import numpy as np
import yaml

from . import agm, baselines, data_io, flow
from .graphs import build_topology
from .objectives import (LogisticObjective, QuadraticObjective,
                         make_quadratic, solve_consensus_optimum)
from .trace import DivergenceError, RunTrace

__all__ = [
    "ConfigError",
    "load_config",
    "check_config",
    "config_hash",
    "build_graph",
    "build_problem",
    "initial_state",
    "run_algorithm",
    "cmd_run",
    "cmd_compare",
    "cmd_rate_check",
    "cmd_energy_check",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_SOLVER = 4


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as err:
        raise ConfigError(f"cannot load config {path}: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _fields(cls) -> dict:
    """The keys of a parameter dataclass, each with the cast its type gives
    a config value (None keeps a str or optional value as written)."""
    return {name: hint if hint in (int, float, bool) else None
            for name, hint in typing.get_type_hints(cls).items()}


_LOGISTIC = {"type": None, "n": int, "p": int, "seed": int, "l2": float,
             "solver_tol": float, "solver_max_iter": int}
# The keys each config section may set, with the cast each value gets (None
# keeps it as written). A problem's keys depend on its type; the flow's are
# FlowParams's fields. A key left out is not passed on, so it takes the
# default of the function or dataclass that reads it; the harness sets only
# the arguments those do not default.
_KEYS = {
    "top level": {"seed": int, "iters": int, "gap_threshold": float,
                  "drift_tolerance": float, "graph": None, "problem": None,
                  "init": None, "flow": None, "algorithms": None},
    "graph": {"kind": None, "m": int, "p": float, "seed": int},
    "problem": {
        "quadratic": {"type": None, "d": int, "cond": float, "seed": int,
                      "scale": float, "offset_scale": float,
                      "common_offset": None},
        "logistic-synthetic": _LOGISTIC,
        # n and p shape the synthetic data used when the files are absent
        "logistic-mnist": {**_LOGISTIC, "dataset_root": None, "images": None,
                           "labels": None, "positive_digit": int,
                           "negative_digit": int, "cap": int}},
    "init": {"seed": int, "scale": float, "consensus": bool},
    "flow": _fields(flow.FlowParams),
}
# The parameter dataclass each algorithm entry builds: its fields are the
# keys the entry may set, and it holds their defaults and checks their
# ranges. dist_agm's mode picks agm.adaptive_run or agm.fixed_step_run.
_PARAMS = {"dist_agm": {"adaptive": agm.AdaptiveParams,
                        "fixed": agm.FixedParams},
           "dgd": baselines.StepParams, "diging": baselines.StepParams,
           "pi_consensus": baselines.PIParams}


def _settings(where: str, spec: dict, keys: dict, **required) -> dict:
    """``required`` updated with the keys ``spec`` sets, each cast as
    ``keys`` says. A key ``keys`` does not list, or a value its cast
    refuses, raises ConfigError naming ``where`` and the key. The int cast
    refuses a fractional number rather than truncate it; the bool cast
    takes only true or false, which the number casts refuse."""
    for key, value in spec.items():
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key}")
        cast = keys[key]
        try:
            if cast is not None and isinstance(value, bool) != (cast is bool):
                raise TypeError(f"must be {cast.__name__}, got {value!r}")
            if cast is int and isinstance(value, float) and value % 1:
                raise ValueError(f"must be a whole number, got {value}")
            required[key] = value if cast is None else cast(value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{where}: {key}: {err}") from err
    return required


def _keys(table: dict, choice, what: str) -> dict:
    """The entry of ``table`` that ``choice``, a string, names."""
    if isinstance(choice, str) and choice in table:
        return table[choice]
    raise ConfigError(f"unknown {what} {choice!r}")


def _parsed(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, where a ValueError or TypeError is a bad
    value in the config: it becomes a ConfigError naming ``section``. A
    ConfigError passes through unchanged."""
    try:
        return build(*args, **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{section}: {err}") from err


def check_config(cfg: dict, seed) -> dict:
    """Every setting of ``cfg``, read before anything is built or written:
    each section and algorithm entry checked against ``_KEYS``, cast, and
    laid over the arguments the harness sets, with ``seed``, unless None,
    in place of every seed. The flow's and each algorithm's parameter
    dataclass is built here, so every range they check is checked before
    anything runs. A bad section, key or value raises ConfigError naming
    it. Returns the top-level settings with each section replaced by its
    settings (``flow`` by its FlowParams, ``algorithms`` by {name:
    parameter dataclass}) and the reseeded config's hash."""
    for name in ("graph", "problem", "init", "flow"):
        if not isinstance(cfg.get(name, {}), dict):
            raise ConfigError(f"{name}: must be a mapping, got {cfg[name]!r}")
    if seed is not None:  # the config as reseeded, which the hash reads
        cfg = {**cfg, "seed": seed, **{
            name: {**cfg.get(name, {}), "seed": seed}
            for name in ("graph", "problem", "init")}}
    top = _settings("top level", cfg, _KEYS["top level"], seed=0,
                    iters=1000, gap_threshold=1e-3, drift_tolerance=1e-3)
    if top["iters"] < 0:
        raise ConfigError(f"iters: must be >= 0, got {top['iters']}")
    for key in ("gap_threshold", "drift_tolerance"):
        if not 0.0 < top[key] < math.inf:
            raise ConfigError(f"{key}: must be finite and positive, got "
                              f"{top[key]}")
    top["graph"] = _settings("graph", cfg.get("graph", {}), _KEYS["graph"],
                             kind="ring", m=5)
    kind = cfg.get("problem", {}).get("type", "quadratic")
    top["problem"] = _settings(
        "problem", cfg.get("problem", {}),
        _keys(_KEYS["problem"], kind, "problem type"), type=kind)
    top["init"] = _settings("init", cfg.get("init", {}), _KEYS["init"],
                            seed=top["seed"], scale=0.1, consensus=False)
    top["flow"] = _parsed("flow", flow.FlowParams, **_settings(
        "flow", cfg.get("flow", {}), _KEYS["flow"]))
    algos = cfg.get("algorithms") or []
    if not isinstance(algos, list):
        raise ConfigError(f"algorithms: must be a list, got {algos!r}")
    top["algorithms"] = {}
    for entry in algos:
        params = {"name": entry} if isinstance(entry, str) else entry
        if not isinstance(params, dict) or "name" not in params:
            raise ConfigError(f"algorithms: entry {entry!r} has no name")
        params = dict(params)
        name = params.pop("name")
        cls = _keys(_PARAMS, name, "algorithm")
        if name == "dist_agm":
            cls = _keys(cls, params.pop("mode", "adaptive"), "dist_agm mode")
        if name in top["algorithms"]:
            raise ConfigError(f"algorithms: {name} listed more than once; "
                              "each run writes <name>_trace.csv")
        where = f"algorithm {name}"
        top["algorithms"][name] = _parsed(
            where, cls, **_settings(where, params, _fields(cls)))
    top["config_hash"] = config_hash(cfg)
    return top


def build_graph(settings: dict):
    return build_topology(**settings["graph"])


def build_problem(settings: dict, graph):
    """Returns (objective, consensus optimum, problem label). Each key of
    the problem settings goes to the function that reads it."""
    spec = dict(settings["problem"])
    kind = spec.pop("type")
    if kind == "quadratic":
        common = spec.pop("common_offset", None)
        obj = make_quadratic(graph.m, spec.pop("d", 2), **spec)
        if common is not None:
            # identical local minimizers: F >= F* along any trajectory
            bs = np.tile(np.asarray(common, dtype=float), (graph.m, 1))
            if bs.shape[1] != obj.d or not np.isfinite(bs).all():
                raise ConfigError(f"problem: common_offset must hold d = "
                                  f"{obj.d} finite numbers, got {common!r}")
            obj = QuadraticObjective(obj.Qs, bs)
        return obj, obj.closed_form_optimum(), "quadratic"
    solver = {key.removeprefix("solver_"): spec.pop(key) for key in (
        "solver_tol", "solver_max_iter") if key in spec}
    ridge = {"l2": spec.pop("l2")} if "l2" in spec else {}
    ds = data_io.mnist_dataset(spec) if kind == "logistic-mnist" else None
    if ds is None:
        ds = data_io.synthetic_gaussian_dataset(**spec)
    shards = data_io.shard(ds, graph.m)
    obj = LogisticObjective([s.features for s in shards],
                            [s.labels for s in shards], **ridge)
    try:
        opt = solve_consensus_optimum(obj, **solver)
    except ValueError as err:
        # the solver names its keyword; the config spells it solver_<keyword>
        raise ConfigError(f"problem: solver_{err}") from err
    return obj, opt, ds.source or kind


def initial_state(settings: dict, graph, obj):
    """Stacked X0; entries are N(0, 0.1) unless the config pins a consensus
    start or an explicit scale. The seed defaults to the top-level one."""
    init = settings["init"]
    if not math.isfinite(init["scale"]):
        raise ValueError(f"scale must be finite, got {init['scale']}")
    rng = np.random.default_rng(init["seed"])
    if init["consensus"]:
        return obj.stack(init["scale"] * rng.standard_normal(obj.d))
    return init["scale"] * rng.standard_normal(graph.m * obj.d)


def run_algorithm(name: str, params, obj, graph, X0, opt,
                  iters: int) -> RunTrace:
    """One algorithm entry, with the parameter dataclass ``check_config``
    built for it, on the problem. The run function is looked up on its
    module at each call."""
    if name == "dist_agm":
        run = (agm.adaptive_run if isinstance(params, agm.AdaptiveParams)
               else agm.fixed_step_run)
    else:
        run = getattr(baselines, f"{name}_run")
    return run(params, obj, graph, X0, iters, opt)


def _set_up(settings: dict, out_dir: str):
    """Builds the graph, the problem and the start, then makes the output
    directory; a value a builder refuses raises ConfigError naming its
    section, and no directory is made. Returns (stamp, graph, objective,
    optimum, x0); the stamp, config_hash, seed and problem, goes into every
    output."""
    graph = _parsed("graph", build_graph, settings)
    obj, opt, problem = _parsed("problem", build_problem, settings, graph)
    x0 = _parsed("init", initial_state, settings, graph, obj)
    os.makedirs(out_dir, exist_ok=True)
    stamp = {"config_hash": settings["config_hash"],
             "seed": settings["seed"], "problem": problem}
    return stamp, graph, obj, opt, x0


def _write(trace: RunTrace, stamp: dict, out_dir: str, name: str):
    """Stamp ``trace`` and write it to ``name`` in ``out_dir``."""
    trace.metadata.update(stamp)
    trace.write_csv(os.path.join(out_dir, name))


def _run_all(settings: dict, out_dir: str):
    """The output path of ``run`` and ``compare``: runs each algorithm from
    the same start and writes its stamped trace, then a stamped summary.csv
    with one row per run, read from its trace. A diverged run keeps its
    partial trace, stamped with ``diverged_at``, and sets the exit code.
    Returns (stamp, {name: trace}, exit code)."""
    stamp, graph, obj, opt, x0 = _set_up(settings, out_dir)
    traces, rows, code = {}, [], EXIT_OK
    for name, params in settings["algorithms"].items():
        start = time.perf_counter()
        try:
            trace = run_algorithm(name, params, obj, graph, x0, opt,
                                  settings["iters"])
        except DivergenceError as err:
            code, trace = EXIT_DIVERGENCE, err.trace
            trace.metadata["diverged_at"] = err.at
        wall_s = time.perf_counter() - start
        ks, gaps = trace.column("k"), trace.column("F_gap")
        try:  # blank when the fit flags a gap or has too few points
            slope, _, flagged = flow.rate_slope(ks[ks > 0], gaps[ks > 0])
        except ValueError:
            slope, flagged = "", True
        rows.append({"algorithm": name, "problem": stamp["problem"],
                     "final_gap": gaps[-1], "slope": "" if flagged else slope,
                     "iterations": int(ks[-1]), "wall_time_s": wall_s})
        _write(trace, stamp, out_dir, f"{name}_trace.csv")
        traces[name] = trace
    data_io.write_summary(os.path.join(out_dir, "summary.csv"), rows, stamp)
    return stamp, traces, code


def cmd_run(cfg: dict, out_dir: str, seed) -> int:
    """Execute every configured algorithm; write a trace per run and
    summary.csv. ``seed``, unless None, reseeds the run. Returns the process
    exit code."""
    settings = check_config(cfg, seed)
    if not settings["algorithms"]:
        raise ConfigError("config must list at least one algorithm")
    return _run_all(settings, out_dir)[2]


def iterations_to_threshold(trace: RunTrace, threshold: float):
    """First iteration index whose gap is at or below the threshold, or None."""
    gaps = trace.column("F_gap")
    ks = trace.column("k")
    hit = np.nonzero(gaps <= threshold)[0]
    return int(ks[hit[0]]) if hit.size else None


def cmd_compare(cfg: dict, out_dir: str, seed) -> int:
    """``run``'s output plus comparison.csv, the three plotted metrics of
    every run aligned on k, and threshold.csv, each run's iterations to the
    gap threshold, which also goes to stdout. ``seed`` is as for ``run``."""
    settings = check_config(cfg, seed)
    if len(settings["algorithms"]) < 2:
        raise ConfigError("compare needs at least 2 algorithms")
    stamp, traces, code = _run_all(settings, out_dir)
    # every run starts from x0, so each trace's first gap is F(x0) - F*
    first = next(iter(traces.values()))
    threshold = settings["gap_threshold"] * first.column("F_gap")[0]
    aligned = min(len(t) for t in traces.values())
    ks = first.column("k")[:aligned].astype(int)
    table = {f"{name}:{metric}": trace.column(metric)[:aligned]
             for name, trace in traces.items()
             for metric in ("laplacian_norm", "grad_norm", "F_gap")}
    comparison = RunTrace(["k", *table], {"gap_threshold": threshold})
    for row in zip(ks.tolist(), *table.values()):
        comparison.append(*row)
    _write(comparison, stamp, out_dir, "comparison.csv")
    short = [name for name, t in traces.items()
             if "diverged_at" in t.metadata]
    if short and aligned < max(len(t) for t in traces.values()):
        print(f"compare: {', '.join(short)} diverged; comparison.csv stops "
              f"at k={ks[-1]}", file=sys.stderr)
    hits = RunTrace(["algorithm", "iterations_to_threshold"])
    for name, trace in traces.items():
        hit = iterations_to_threshold(trace, threshold)
        hits.append(name, "" if hit is None else hit)
    path = os.path.join(out_dir, "threshold.csv")
    hits.write_csv(path)
    with open(path) as fh:
        sys.stdout.write(fh.read())
    return code


def cmd_rate_check(trace_path: str, beta: float, tolerance: float = 0.3,
                   **fit) -> int:
    """Fit the tail slope of a trace and compare against -(2 - beta).
    ``fit`` holds the keyword arguments of ``flow.rate_slope`` the caller
    sets (``window``, ``tail_fraction``). A ``beta`` outside (0, 2) or a
    non-finite ``tolerance`` raises ValueError."""
    if not 0.0 < beta < 2.0:
        raise ValueError(f"beta must lie in (0, 2), got {beta}")
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    trace = RunTrace.read_csv(trace_path)
    axis = "t" if "t" in trace.columns else "k"
    ts = trace.column(axis)
    gaps = trace.column("F_gap")
    mask = ts > 0
    slope, r2, flagged = flow.rate_slope(ts[mask], gaps[mask], **fit)
    target = -(2.0 - beta)
    ok = slope <= target + tolerance
    print(f"slope={slope:.4f} r2={r2:.4f} target={target:.4f} "
          f"tolerance={tolerance} truncated={flagged} "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else 1


def cmd_energy_check(cfg: dict, out_dir: str, seed) -> int:
    """Integrate the continuous flow and report conservation quality. A
    blow-up keeps its partial trace, stamped with ``diverged_at``, the last
    accepted t. ``seed``, unless None, reseeds the run."""
    settings = check_config(cfg, seed)
    stamp, graph, obj, opt, x0 = _set_up(settings, out_dir)
    try:
        trace = flow.integrate(settings["flow"], obj, graph, x0,
                               np.zeros_like(x0), opt)
    except DivergenceError as err:
        err.trace.metadata["diverged_at"] = err.at
        _write(err.trace, stamp, out_dir, "flow_trace.csv")
        print(f"FAIL blow-up at t={err.at}")
        return EXIT_DIVERGENCE
    _write(trace, stamp, out_dir, "flow_trace.csv")
    totals = trace.column("E_total")
    ref = max(abs(totals[0]), 1e-12)
    drift = float(np.max(np.abs(totals - totals[0])) / ref)
    comps = np.array([trace.column(c) for c in flow.LEDGER])
    worst = float(comps.min())
    violations = int(np.sum(comps < -1e-9 * (1.0 + np.abs(totals))))
    ok = drift <= settings["drift_tolerance"] and violations == 0
    print(f"max_relative_drift={drift:.3e} min_component={worst:.3e} "
          f"nonnegativity_violations={violations} {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else 1
