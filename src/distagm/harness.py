"""Experiment orchestration: config loading, problem building, run/compare
commands, rate and energy checks.

Configs are YAML mappings. Every stochastic choice is seeded, so identical
config plus seed yields byte-identical trace files. A config hash is stamped
into every output.
"""

from __future__ import annotations

import hashlib
import json
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


def build_graph(cfg: dict):
    spec = cfg.get("graph", {})
    kind = spec.get("kind", "ring")
    m = int(spec.get("m", 5))
    try:
        return build_topology(kind, m, p=float(spec.get("p", 0.5)),
                              seed=int(spec.get("seed", 0)))
    except ValueError as err:
        raise ConfigError(f"graph: {err}") from err


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
    return data_io.build_binary_dataset(
        images, labels,
        positive_digit=int(spec.get("positive_digit", 5)),
        negative_digit=int(spec.get("negative_digit", 1)),
        cap=int(spec.get("cap", 500)),
        seed=int(spec.get("seed", 0)),
        source=img_path)


def synthetic_gaussian_dataset(n=500, p=10, seed=0, separation=1.5):
    """Two-class Gaussian fallback when MNIST files are not on disk."""
    rng = np.random.default_rng(seed)
    half = n // 2
    mu = separation * rng.standard_normal(p) / np.sqrt(p)
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
    spec = cfg.get("problem", {})
    kind = spec.get("type", "quadratic")
    if kind == "quadratic":
        obj = make_quadratic(graph.m, int(spec.get("d", 2)),
                             cond=float(spec.get("cond", 10.0)),
                             seed=int(spec.get("seed", 0)),
                             scale=float(spec.get("scale", 1.0)),
                             offset_scale=float(spec.get("offset_scale", 1.0)))
        common = spec.get("common_offset")
        if common is not None:
            # identical local minimizers: F >= F* along any trajectory
            bs = np.tile(np.asarray(common, dtype=float), (graph.m, 1))
            if bs.shape[1] != obj.d:
                raise ConfigError("common_offset length must equal d")
            obj = QuadraticObjective(obj.Qs, bs)
        return obj, obj.closed_form_optimum(), "quadratic"
    if kind in ("logistic-synthetic", "logistic-mnist"):
        ds = None
        if kind == "logistic-mnist":
            ds = _mnist_dataset(spec)
        if ds is None:
            ds = synthetic_gaussian_dataset(
                n=int(spec.get("n", 500)), p=int(spec.get("p", 10)),
                seed=int(spec.get("seed", 0)))
        shards = data_io.shard(ds, graph.m).shards
        obj = LogisticObjective([s.features for s in shards],
                                [s.labels for s in shards],
                                l2=float(spec.get("l2", 1e-4)))
        opt = solve_consensus_optimum(
            obj, tol=float(spec.get("solver_tol", 1e-9)),
            max_iter=int(spec.get("solver_max_iter", 500_000)))
        return obj, opt, ds.source or kind
    raise ConfigError(f"unknown problem type {kind!r}")


def initial_state(cfg: dict, graph, obj):
    """Stacked X0; entries are N(0, 0.1) unless the config pins a consensus
    start or an explicit scale."""
    spec = cfg.get("init", {})
    rng = np.random.default_rng(int(spec.get("seed", cfg.get("seed", 0))))
    scale = float(spec.get("scale", 0.1))
    if spec.get("consensus", False):
        x = scale * rng.standard_normal(obj.d)
        return obj.stack(x)
    return scale * rng.standard_normal(graph.m * obj.d)


# The keys an algorithm entry may set besides its name.
_ALGORITHM_KEYS = {
    "dist_agm": {"mode", "h", "beta", "s", "oracle_mode", "s1_fraction"},
    "dgd": {"alpha"}, "diging": {"alpha"},
    "pi_consensus": {"alpha", "beta_gain", "h_step"}}


def run_algorithm(name: str, params: dict, obj, graph, X0, opt,
                  iters: int) -> RunTrace:
    """One configured algorithm on the problem. An unknown key, or a
    parameter that does not parse or is out of range, raises ConfigError
    naming the algorithm."""
    if name not in _ALGORITHM_KEYS:
        raise ConfigError(f"unknown algorithm {name!r}")
    params = dict(params or {})
    unknown = ", ".join(sorted(set(params) - _ALGORITHM_KEYS[name]))
    if unknown:
        raise ConfigError(f"algorithm {name}: unknown key {unknown}")
    try:
        if name == "dist_agm":
            h = float(params.get("h", 10.0))
            beta = float(params.get("beta", 0.1))
            if params.get("mode", "adaptive") == "fixed":
                return agm.fixed_step_run(obj, graph, X0, h, beta, iters, opt,
                                          s_override=params.get("s"))
            return agm.adaptive_run(
                obj, graph, X0, h, beta, iters, opt,
                oracle_mode=params.get("oracle_mode", "exact"),
                s1_fraction=float(params.get("s1_fraction", 1e-3)))
        if name in ("dgd", "diging"):
            run = baselines.dgd_run if name == "dgd" else baselines.diging_run
            return run(obj, graph, X0, float(params.get("alpha", 0.001)),
                       iters, opt)
        return baselines.pi_consensus_run(
            obj, graph, X0, float(params.get("alpha", 0.01)),
            float(params.get("beta_gain", 0.1)), iters, opt,
            h_step=float(params.get("h_step", 0.05)))
    except ValueError as err:
        # the runs raise ValueError only for a value they were given (h,
        # beta, alpha, oracle_mode, ...), which here comes from the config
        raise ConfigError(f"algorithm {name}: {err}") from err


def _algorithms(cfg):
    algos = cfg.get("algorithms")
    if not algos:
        raise ConfigError("config must list at least one algorithm")
    return [(entry, {}) if isinstance(entry, str) else
            (entry["name"], {k: v for k, v in entry.items() if k != "name"})
            for entry in algos]


def _set_up(cfg: dict, out_dir: str):
    """What every config command starts from: makes the output directory
    and returns (config hash, graph, objective, optimum, problem label, x0)."""
    os.makedirs(out_dir, exist_ok=True)
    graph = build_graph(cfg)
    obj, opt, problem = build_problem(cfg, graph)
    return (config_hash(cfg), graph, obj, opt, problem,
            initial_state(cfg, graph, obj))


def _run_all(algos, obj, graph, x0, opt, iters: int):
    """Run each algorithm from the same start. A diverged run keeps its
    partial trace, stamped with ``diverged_at``, and sets the exit code.
    Returns ([(name, trace, wall seconds)], exit code)."""
    runs, code = [], EXIT_OK
    for name, params in algos:
        start = time.perf_counter()
        try:
            trace = run_algorithm(name, params, obj, graph, x0, opt, iters)
        except agm.DivergenceError as err:
            code, trace = EXIT_DIVERGENCE, err.trace
            trace.metadata["diverged_at"] = err.iteration
        runs.append((name, trace, time.perf_counter() - start))
    return runs, code


def cmd_run(cfg: dict, out_dir: str) -> int:
    """Execute every configured algorithm; write traces and a summary row
    per run. Returns the process exit code."""
    chash, graph, obj, opt, problem, x0 = _set_up(cfg, out_dir)
    iters = int(cfg.get("iters", 1000))
    runs, code = _run_all(_algorithms(cfg), obj, graph, x0, opt, iters)
    rows = []
    for name, trace, elapsed in runs:
        trace.metadata["config_hash"] = chash
        trace.metadata["seed"] = cfg.get("seed", 0)
        trace.metadata["problem"] = problem
        trace.write_csv(os.path.join(out_dir, f"{name}_trace.csv"))
        gaps = trace.column("F_gap")
        slope = ""
        if len(gaps) >= 40 and np.all(gaps[len(gaps) // 2:] > 0):
            ks = trace.column("k")
            mask = ks > 0
            try:
                slope = flow.rate_slope(ks[mask], gaps[mask])[0]
            except ValueError:
                slope = ""
        rows.append({
            "algorithm": name, "problem": problem,
            "final_gap": gaps[-1],
            "slope": slope, "iterations": iters,
            "wall_time_s": round(elapsed, 3)})
    data_io.write_summary(os.path.join(out_dir, "summary.csv"), rows)
    return code


def iterations_to_threshold(trace: RunTrace, threshold: float):
    """First iteration index whose gap is at or below the threshold, or None."""
    gaps = trace.column("F_gap")
    ks = trace.column("k")
    hit = np.nonzero(gaps <= threshold)[0]
    return int(ks[hit[0]]) if hit.size else None


def cmd_compare(cfg: dict, out_dir: str) -> int:
    """Aligned comparison of the three plotted metrics across algorithms,
    plus an iterations-to-threshold column."""
    algos = _algorithms(cfg)
    if len(algos) < 2:
        raise ConfigError("compare needs at least 2 algorithms")
    chash, graph, obj, opt, problem, x0 = _set_up(cfg, out_dir)
    runs, code = _run_all(algos, obj, graph, x0, opt,
                          int(cfg.get("iters", 1000)))
    traces = {name: trace for name, trace, _ in runs}
    threshold = (float(cfg.get("gap_threshold", 1e-3))
                 * (obj.value(x0) - opt.f_star))
    metrics = ["laplacian_norm", "grad_norm", "F_gap"]
    with open(os.path.join(out_dir, "comparison.csv"), "w") as fh:
        fh.write(f"# config_hash={chash}\n# problem={problem}\n")
        fh.write(f"# gap_threshold={threshold!r}\n")
        header = ["k"] + [f"{n}:{m}" for n, _ in algos for m in metrics]
        fh.write(",".join(header) + "\n")
        ks = traces[algos[0][0]].column("k")
        cols = [traces[name].column(metric)
                for name, _ in algos for metric in metrics]
        aligned = min(len(t) for t in traces.values())
        for i in range(aligned):
            row = [str(int(ks[i]))] + [format(c[i], ".17g") for c in cols]
            fh.write(",".join(row) + "\n")
    short = [name for name, t in traces.items()
             if "diverged_at" in t.metadata]
    if short and aligned < max(len(t) for t in traces.values()):
        print(f"compare: {', '.join(short)} diverged; comparison.csv stops "
              f"at k={int(ks[aligned - 1])}", file=sys.stderr)
    lines = ["algorithm,iterations_to_threshold"]
    for name, trace in traces.items():
        hit = iterations_to_threshold(trace, threshold)
        lines.append(f"{name},{'' if hit is None else hit}")
        trace.metadata["config_hash"] = chash
        trace.write_csv(os.path.join(out_dir, f"{name}_trace.csv"))
    with open(os.path.join(out_dir, "threshold.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return code


def cmd_rate_check(trace_path: str, beta: float, window=None,
                   tail_fraction: float = 0.5, tolerance: float = 0.3) -> int:
    """Fit the tail slope of a trace and compare against -(2 - beta)."""
    trace = RunTrace.read_csv(trace_path)
    axis = "t" if "t" in trace.columns else "k"
    ts = trace.column(axis)
    gaps = trace.column("F_gap")
    mask = ts > 0
    slope, r2, flagged = flow.rate_slope(ts[mask], gaps[mask],
                                         tail_fraction=tail_fraction,
                                         window=window)
    target = -(2.0 - beta)
    ok = slope <= target + tolerance
    print(f"slope={slope:.4f} r2={r2:.4f} target={target:.4f} "
          f"tolerance={tolerance} truncated={flagged} "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else 1


def cmd_energy_check(cfg: dict, out_dir: str) -> int:
    """Integrate the continuous flow and report conservation quality."""
    fspec = cfg.get("flow", {})
    try:
        params = flow.FlowParams(
            beta=float(fspec.get("beta", 0.1)),
            k_gain=float(fspec.get("k_gain", 1.0)),
            t0=float(fspec.get("t0", 1.0)),
            dt=float(fspec.get("dt", 1e-3)),
            horizon=float(fspec.get("horizon", 50.0)))
        record_every = int(fspec.get("record_every", 10))
    except ValueError as err:
        raise ConfigError(f"flow: {err}") from err
    chash, graph, obj, opt, _problem, x0 = _set_up(cfg, out_dir)
    try:
        trace = flow.integrate(params, obj, graph, x0, np.zeros_like(x0), opt,
                               record_every=record_every)
    except flow.BlowUpError as err:
        print(f"FAIL blow-up at t={err.last_t}")
        return EXIT_DIVERGENCE
    trace.metadata["config_hash"] = chash
    trace.write_csv(os.path.join(out_dir, "flow_trace.csv"))
    totals = trace.column("E_total")
    ref = max(abs(totals[0]), 1e-12)
    drift = float(np.max(np.abs(totals - totals[0])) / ref)
    comp_cols = ["E_kinetic", "E_laplacian", "E_potential",
                 "E_int_laplacian", "E_int_bregman", "E_int_beta"]
    worst = min(float(trace.column(c).min()) for c in comp_cols)
    violations = sum(
        int(np.sum(trace.column(c) < -1e-9 * (1.0 + np.abs(totals))))
        for c in comp_cols)
    ok = drift <= float(cfg.get("drift_tolerance", 1e-3)) and violations == 0
    print(f"max_relative_drift={drift:.3e} min_component={worst:.3e} "
          f"nonnegativity_violations={violations} {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else 1
