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

import numpy as np
import yaml

from . import agm, baselines, data_io, flow
from .graphs import build_topology
from .objectives import (LogisticObjective, QuadraticObjective,
                         make_quadratic, solve_consensus_optimum)
from .trace import RunTrace

__all__ = [
    "ConfigError",
    "load_config",
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

DATASET_ROOT_ENV = "DISTAGM_DATA"


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


_LOGISTIC = {"type": None, "n": int, "p": int, "seed": int, "l2": float,
             "solver_tol": float, "solver_max_iter": int}
# The keys each config section may set, with the cast each value gets (None
# keeps it as written). A problem's keys depend on its type and an entry's
# on its algorithm. A key left out is not passed on, so it takes the default
# of the function that reads it; the harness sets only the arguments that
# function does not default.
_KEYS = {
    "top level": {"seed": None, "iters": int, "gap_threshold": float,
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
    "init": {"seed": int, "scale": float, "consensus": None},
    "flow": {"beta": float, "k_gain": float, "t0": float, "dt": float,
             "horizon": float, "record_every": int},
    "algorithms": {
        "dist_agm": {"mode": None, "h": float, "beta": float, "s": None,
                     "oracle_mode": None, "s1_fraction": float},
        "dgd": {"alpha": float}, "diging": {"alpha": float},
        "pi_consensus": {"alpha": float, "beta_gain": float,
                         "h_step": float}},
}


def _settings(where: str, spec: dict, keys: dict, **required) -> dict:
    """``required`` updated with the keys ``spec`` sets, each cast as
    ``keys`` says. A key ``keys`` does not list, or a value its cast
    refuses, raises ConfigError naming ``where`` and the key."""
    for key, value in spec.items():
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key}")
        try:
            required[key] = value if keys[key] is None else keys[key](value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{where}: {key}: {err}") from err
    return required


def _pick(settings: dict, *keys) -> dict:
    """The entries of ``settings`` under ``keys`` that it holds."""
    return {key: settings[key] for key in keys if key in settings}


def _mapping(cfg: dict, name: str) -> dict:
    """The ``name`` mapping of the config, empty when absent. Anything else
    raises ConfigError naming the section."""
    spec = cfg.get(name, {})
    if not isinstance(spec, dict):
        raise ConfigError(f"{name}: must be a mapping, got {spec!r}")
    return spec


def _section(cfg: dict, name: str, **required) -> dict:
    """The settings of the ``name`` section over ``required``."""
    return _settings(name, _mapping(cfg, name), _KEYS[name], **required)


def _top_level(cfg: dict) -> dict:
    """The top-level settings over their defaults."""
    return _settings("top level", cfg, _KEYS["top level"], seed=0,
                     iters=1000, gap_threshold=1e-3, drift_tolerance=1e-3)


def build_graph(cfg: dict):
    return build_topology(**_section(cfg, "graph", kind="ring", m=5))


def _mnist_dataset(spec):
    root = spec.get("dataset_root") or os.environ.get(DATASET_ROOT_ENV, ".")
    img_path = os.path.join(root, spec.get("images", "train-images-idx3-ubyte"))
    lab_path = os.path.join(root, spec.get("labels", "train-labels-idx1-ubyte"))
    if not (os.path.exists(img_path) and os.path.exists(lab_path)):
        return None
    with open(img_path, "rb") as fh:
        images = data_io.parse_idx(fh.read())
    with open(lab_path, "rb") as fh:
        labels = data_io.parse_idx(fh.read())
    return data_io.build_binary_dataset(images, labels, source=img_path, **_pick(
        spec, "positive_digit", "negative_digit", "cap", "seed"))


def synthetic_gaussian_dataset(n=500, p=10, seed=0):
    """Two-class Gaussian fallback when MNIST files are not on disk."""
    rng = np.random.default_rng(seed)
    half = n // 2
    mu = 1.5 * rng.standard_normal(p) / np.sqrt(p)
    feats = np.vstack([rng.standard_normal((half, p)) + mu,
                       rng.standard_normal((n - half, p)) - mu])
    feats = (feats - feats.min()) / max(feats.max() - feats.min(), 1e-12)
    labels = np.concatenate([np.ones(half), np.zeros(n - half)])
    order = rng.permutation(n)
    feats = np.hstack([feats[order], np.ones((n, 1))])
    return data_io.LabeledDataset(features=feats, labels=labels[order],
                                  source=f"synthetic-gaussian(seed={seed})")


def build_problem(cfg: dict, graph):
    """Returns (objective, consensus optimum, problem label)."""
    spec = _mapping(cfg, "problem")
    kind = spec.get("type", "quadratic")
    if kind not in _KEYS["problem"]:
        raise ConfigError(f"unknown problem type {kind!r}")
    settings = _settings("problem", spec, _KEYS["problem"][kind])
    settings.pop("type", None)
    if kind == "quadratic":
        common = settings.pop("common_offset", None)
        obj = make_quadratic(graph.m, settings.pop("d", 2), **settings)
        if common is not None:
            # identical local minimizers: F >= F* along any trajectory
            bs = np.tile(np.asarray(common, dtype=float), (graph.m, 1))
            if bs.shape[1] != obj.d:
                raise ConfigError("common_offset length must equal d")
            obj = QuadraticObjective(obj.Qs, bs)
        return obj, obj.closed_form_optimum(), "quadratic"
    ds = _mnist_dataset(settings) if kind == "logistic-mnist" else None
    if ds is None:
        ds = synthetic_gaussian_dataset(**_pick(settings, "n", "p", "seed"))
    shards = data_io.shard(ds, graph.m)
    obj = LogisticObjective([s.features for s in shards],
                            [s.labels for s in shards],
                            **_pick(settings, "l2"))
    solver = _pick(settings, "solver_tol", "solver_max_iter")
    opt = solve_consensus_optimum(obj, **{
        key.removeprefix("solver_"): value for key, value in solver.items()})
    return obj, opt, ds.source or kind


def initial_state(cfg: dict, graph, obj):
    """Stacked X0; entries are N(0, 0.1) unless the config pins a consensus
    start or an explicit scale. The seed defaults to the top-level one."""
    init = _section(cfg, "init", seed=_top_level(cfg)["seed"], scale=0.1,
                    consensus=False)
    rng = np.random.default_rng(int(init["seed"]))
    if init["consensus"]:
        return obj.stack(init["scale"] * rng.standard_normal(obj.d))
    return init["scale"] * rng.standard_normal(graph.m * obj.d)


def run_algorithm(name: str, params: dict, obj, graph, X0, opt,
                  iters: int) -> RunTrace:
    """One configured algorithm on the problem; the harness sets the
    arguments the run functions do not default. An unknown key, or a
    parameter that does not parse or is out of range, raises ConfigError
    naming the algorithm."""
    if name not in _KEYS["algorithms"]:
        raise ConfigError(f"unknown algorithm {name!r}")
    required = {"dist_agm": {"mode": "adaptive", "h": 10.0, "beta": 0.1},
                "dgd": {"alpha": 0.001}, "diging": {"alpha": 0.001},
                "pi_consensus": {"alpha": 0.01, "beta_gain": 0.1}}[name]
    settings = _settings(f"algorithm {name}", params or {},
                         _KEYS["algorithms"][name], **required)
    try:
        run = getattr(baselines, f"{name}_run", None)
        if name == "dist_agm":
            # each mode reads h, beta and its own keys
            mode = settings.pop("mode")
            if mode == "adaptive":
                run, reads = agm.adaptive_run, ("oracle_mode", "s1_fraction")
            elif mode == "fixed":
                run, reads = agm.fixed_step_run, ("s",)
            else:
                raise ValueError(f"unknown mode {mode!r}")
            settings = _pick(settings, "h", "beta", *reads)
        return run(obj, graph, X0, iters=iters, opt=opt, **settings)
    except ValueError as err:
        # the runs raise ValueError only for a value they were given (h,
        # beta, alpha, oracle_mode, ...), which here comes from the config
        raise ConfigError(f"algorithm {name}: {err}") from err


def _algorithms(cfg):
    """(name, params) of each entry of the ``algorithms`` list. An entry is a
    name or a mapping with a ``name`` key. A missing or malformed list, or a
    name listed twice (its runs would write one trace file), raises
    ConfigError."""
    algos = cfg.get("algorithms")
    if not algos:
        raise ConfigError("config must list at least one algorithm")
    if not isinstance(algos, list):
        raise ConfigError(f"algorithms: must be a list, got {algos!r}")
    entries = []
    for entry in algos:
        if isinstance(entry, str):
            entries.append((entry, {}))
        elif isinstance(entry, dict) and "name" in entry:
            entries.append((entry["name"], {k: v for k, v in entry.items()
                                            if k != "name"}))
        else:
            raise ConfigError(f"algorithms: entry {entry!r} has no name")
    names = [name for name, _ in entries]
    twice = sorted({str(name) for name in names if names.count(name) > 1})
    if twice:
        raise ConfigError(f"algorithms: {', '.join(twice)} listed more than "
                          "once; each run writes <name>_trace.csv")
    return entries


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


def _set_up(cfg: dict, out_dir: str):
    """What every config command starts from: reads the top-level settings,
    makes the output directory and builds the graph, the problem and the
    start. A value that does not parse or is out of range raises ConfigError
    naming its section. Returns (stamp, top-level settings, graph,
    objective, optimum, x0); the stamp, config_hash, seed and problem, goes
    into every output."""
    numbers = _top_level(cfg)
    if numbers["iters"] < 0:
        raise ConfigError(f"iters: must be >= 0, got {numbers['iters']}")
    for key in ("gap_threshold", "drift_tolerance"):
        if not 0.0 < numbers[key] < math.inf:
            raise ConfigError(f"{key}: must be finite and positive, got "
                              f"{numbers[key]}")
    os.makedirs(out_dir, exist_ok=True)
    graph = _parsed("graph", build_graph, cfg)
    obj, opt, problem = _parsed("problem", build_problem, cfg, graph)
    x0 = _parsed("init", initial_state, cfg, graph, obj)
    stamp = {"config_hash": config_hash(cfg), "seed": numbers["seed"],
             "problem": problem}
    return stamp, numbers, graph, obj, opt, x0


def _write(trace: RunTrace, stamp: dict, out_dir: str, name: str):
    """Stamp ``trace`` and write it to ``name`` in ``out_dir``."""
    trace.metadata.update(stamp)
    trace.write_csv(os.path.join(out_dir, name))


def _run_all(cfg: dict, out_dir: str, algos):
    """The output path of ``run`` and ``compare``: runs each algorithm from
    the same start and writes its stamped trace, then a stamped summary.csv
    with one row per run, read from its trace. A diverged run keeps its
    partial trace, stamped with ``diverged_at``, and sets the exit code.
    Returns (stamp, numbers, {name: trace}, exit code)."""
    stamp, numbers, graph, obj, opt, x0 = _set_up(cfg, out_dir)
    traces, rows, code = {}, [], EXIT_OK
    for name, params in algos:
        start = time.perf_counter()
        try:
            trace = run_algorithm(name, params, obj, graph, x0, opt,
                                  numbers["iters"])
        except agm.DivergenceError as err:
            code, trace = EXIT_DIVERGENCE, err.trace
            trace.metadata["diverged_at"] = err.iteration
        wall_s = time.perf_counter() - start
        ks, gaps = trace.column("k"), trace.column("F_gap")
        try:  # blank when the fit flags a non-positive gap or too few points
            slope, _, flagged = flow.rate_slope(ks[ks > 0], gaps[ks > 0])
        except ValueError:
            slope, flagged = "", True
        rows.append({"algorithm": name, "problem": stamp["problem"],
                     "final_gap": gaps[-1], "slope": "" if flagged else slope,
                     "iterations": int(ks[-1]), "wall_time_s": wall_s})
        _write(trace, stamp, out_dir, f"{name}_trace.csv")
        traces[name] = trace
    data_io.write_summary(os.path.join(out_dir, "summary.csv"), rows, stamp)
    return stamp, numbers, traces, code


def cmd_run(cfg: dict, out_dir: str) -> int:
    """Execute every configured algorithm; write a trace per run and
    summary.csv. Returns the process exit code."""
    return _run_all(cfg, out_dir, _algorithms(cfg))[3]


def iterations_to_threshold(trace: RunTrace, threshold: float):
    """First iteration index whose gap is at or below the threshold, or None."""
    gaps = trace.column("F_gap")
    ks = trace.column("k")
    hit = np.nonzero(gaps <= threshold)[0]
    return int(ks[hit[0]]) if hit.size else None


def cmd_compare(cfg: dict, out_dir: str) -> int:
    """``run``'s output plus comparison.csv, the three plotted metrics of
    every run aligned on k, and threshold.csv, each run's iterations to the
    gap threshold, which also goes to stdout."""
    algos = _algorithms(cfg)
    if len(algos) < 2:
        raise ConfigError("compare needs at least 2 algorithms")
    stamp, numbers, traces, code = _run_all(cfg, out_dir, algos)
    # every run starts from x0, so each trace's first gap is F(x0) - F*
    first = next(iter(traces.values()))
    threshold = numbers["gap_threshold"] * first.column("F_gap")[0]
    aligned = min(len(t) for t in traces.values())
    ks = first.column("k")[:aligned].astype(int)
    table = {f"{name}:{metric}": trace.column(metric)[:aligned]
             for name, trace in traces.items()
             for metric in ("laplacian_norm", "grad_norm", "F_gap")}
    _write(RunTrace.from_columns({"k": ks, **table},
                                 {"gap_threshold": threshold}),
           stamp, out_dir, "comparison.csv")
    short = [name for name, t in traces.items()
             if "diverged_at" in t.metadata]
    if short and aligned < max(len(t) for t in traces.values()):
        print(f"compare: {', '.join(short)} diverged; comparison.csv stops "
              f"at k={ks[-1]}", file=sys.stderr)
    hits = [iterations_to_threshold(t, threshold) for t in traces.values()]
    path = os.path.join(out_dir, "threshold.csv")
    RunTrace.from_columns({
        "algorithm": list(traces),
        "iterations_to_threshold": ["" if k is None else k for k in hits],
    }).write_csv(path)
    with open(path) as fh:
        sys.stdout.write(fh.read())
    return code


def cmd_rate_check(trace_path: str, beta: float, tolerance: float = 0.3,
                   **fit) -> int:
    """Fit the tail slope of a trace and compare against -(2 - beta).
    ``fit`` holds the keyword arguments of ``flow.rate_slope`` the caller
    sets (``window``, ``tail_fraction``)."""
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


def cmd_energy_check(cfg: dict, out_dir: str) -> int:
    """Integrate the continuous flow and report conservation quality. Beta
    defaults to 0.1; the other keys of the ``flow`` section go to
    FlowParams, except ``record_every``, which goes to ``flow.integrate``."""
    settings = _section(cfg, "flow", beta=0.1)
    record = _pick(settings, "record_every")
    params = _parsed("flow", flow.FlowParams, **_pick(
        settings, "beta", "k_gain", "t0", "dt", "horizon"))
    stamp, numbers, graph, obj, opt, x0 = _set_up(cfg, out_dir)
    try:
        trace = _parsed("flow", flow.integrate, params, obj, graph, x0,
                        np.zeros_like(x0), opt, **record)
    except flow.BlowUpError as err:
        print(f"FAIL blow-up at t={err.last_t}")
        return EXIT_DIVERGENCE
    _write(trace, stamp, out_dir, "flow_trace.csv")
    totals = trace.column("E_total")
    ref = max(abs(totals[0]), 1e-12)
    drift = float(np.max(np.abs(totals - totals[0])) / ref)
    comps = np.array([trace.column(c) for c in (
        "E_kinetic", "E_laplacian", "E_potential", "E_int_laplacian",
        "E_int_bregman", "E_int_beta")])
    worst = float(comps.min())
    violations = int(np.sum(comps < -1e-9 * (1.0 + np.abs(totals))))
    ok = drift <= numbers["drift_tolerance"] and violations == 0
    print(f"max_relative_drift={drift:.3e} min_component={worst:.3e} "
          f"nonnegativity_violations={violations} {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else 1
