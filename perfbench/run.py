"""distagm benchmark: shipped CLI commands timed end to end as subprocesses,
plus one traced run per workload that times and counts the calls into each
module.

Run from the root of a checkout (see perfbench/README.md):

    python3 perfbench/run.py --workload quadratic --seed 0 --seconds 55 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it print every metric measured by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPEATS = 3
# Every run, its traced command included, ends inside the 180 s it may take.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def check_drift(proc, out_dir, cfg, env, timeout):
    """energy-check: PASS, drift within the config tolerance, and 0
    nonnegativity violations."""
    m = re.search(r"max_relative_drift=(\S+) .*"
                  r"nonnegativity_violations=(\d+) PASS$", proc.stdout, re.M)
    return (m is not None and m[2] == "0"
            and float(m[1]) <= float(cfg["drift_tolerance"]))


def check_rate(proc, out_dir, cfg, env, timeout):
    """run: rate-check PASS on the written dist_agm trace."""
    rate = subprocess.run(
        [sys.executable, "-m", "distagm.cli", "rate-check",
         os.path.join(out_dir, "dist_agm_trace.csv"),
         "--beta", "0.1", "--window", "100", "10000"],
        env=env, capture_output=True, text=True, timeout=timeout)
    return rate.returncode == 0 and rate.stdout.rstrip().endswith("PASS")


def check_threshold(proc, out_dir, cfg, env, timeout):
    """compare: dist_agm reaches the gap threshold; dgd and diging do not,
    or reach it later."""
    hits = {name: int(k) if k else None for name, k in
            re.findall(r"^(\w+),(\d*)$", proc.stdout, re.M)}
    first = hits.get("dist_agm")
    return first is not None and all(
        name in hits and (hits[name] is None or hits[name] > first)
        for name in ("dgd", "diging"))


@dataclass(frozen=True)
class Step:
    """One shipped CLI command of a workload and its verdict."""
    command: str
    config: str
    # Whether --seed also reseeds the problem data (problem.seed).
    seeds_problem: bool
    check: Callable


@dataclass(frozen=True)
class Workload:
    # Run one after another in one child process: one sample.
    steps: tuple
    # Per-layer counts the traced run must read as 0.
    traced_zero: tuple = ()


WORKLOADS = {
    "quadratic": Workload(
        (Step("energy-check", "configs/energy_conservation.yaml", True,
              check_drift),
         Step("run", "configs/discrete_rate.yaml", True, check_rate)),
        ("agm.fallbacks", "agm.v_increases")),
    # The logistic data stay the shipped ones: see README.md, "Seeds".
    "logistic_compare": Workload(
        (Step("compare", "configs/logistic_compare.yaml", False,
              check_threshold),)),
}


def seeded_config(step, seed):
    """The shipped config for seed 0; otherwise a copy with the seed written
    into ``seed``, ``init.seed`` and, where the step allows, into
    ``problem.seed``."""
    with open(step.config) as fh:
        cfg = yaml.safe_load(fh)
    if seed != 0:
        cfg["seed"] = seed
        cfg.setdefault("init", {})["seed"] = seed
        if step.seeds_problem:
            cfg["problem"]["seed"] = seed
    return cfg


def run_once(steps, mode, work, env, deadline):
    """One sample: the workload's CLI commands in one perfbench/child.py
    process. ``steps`` holds (step, config, config path, output directory)
    tuples. Returns the sample's record."""
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    argv = [sys.executable, os.path.join(HERE, "child.py"), result_path, mode]
    for step, _cfg, cfg_path, out_dir in steps:
        argv += ["--", step.command, cfg_path, "--out", out_dir]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "why": "timed out"}
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"ok": False, "why": f"exit code {proc.returncode}: "
                                    f"{proc.stderr.strip()[-500:]}"}
    with open(result_path) as fh:
        rec = json.load(fh)
    rec["wall_s"] = wall
    rec["cpu_s"] = (after.ru_utime - before.ru_utime
                    + after.ru_stime - before.ru_stime)
    try:
        rec["ok"] = all(
            step.check(proc, out_dir, cfg, env,
                       max(deadline - time.perf_counter(), 1.0))
            for step, cfg, _cfg_path, out_dir in steps)
    except subprocess.TimeoutExpired:
        rec["ok"] = False
    if not rec["ok"]:
        rec["why"] = f"verdict failed: {proc.stdout.strip()[-500:]}"
    return rec


def versions():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return (f"nproc={len(os.sched_getaffinity(0))} "
            f"python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"blas={openblas}")


def median(recs, key):
    return statistics.median(r[key] for r in recs)


def upper_quartile(recs, key):
    """The run's timing statistic: the third quartile of the samples.

    The host's clock moves between a sustained speed and bursts up to about
    1.5 times faster, for seconds to minutes at a time (README.md,
    "Statistic"). The upper quartile reads the sustained speed unless the
    bursts fill three quarters of the run; the median flips between the two
    speeds as soon as they fill half of it.
    """
    values = [r[key] for r in recs]
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def measure(wl, seed, seconds, trace, work):
    deadline = time.perf_counter() + DEADLINE_S
    steps = []
    for i, step in enumerate(wl.steps):
        cfg = seeded_config(step, seed)
        cfg_path = os.path.join(work, f"config{i}.yaml")
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        steps.append((step, cfg, cfg_path, os.path.join(work, f"out{i}")))
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
               PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})

    runs, start = [], time.perf_counter()
    while True:
        runs.append(run_once(steps, "coarse", work, env, deadline))
        elapsed = time.perf_counter() - start
        per_run = elapsed / len(runs)
        if "timed out" in runs[-1].get("why", ""):
            break
        if len(runs) >= MIN_REPEATS and elapsed + per_run > seconds:
            break
    good = [r for r in runs if r["ok"]]
    for i, r in enumerate(runs):
        if not r["ok"]:
            print(f"run {i} failed: {r['why']}", file=sys.stderr)
    if not good:
        sys.exit("perfbench: no run of the workload succeeded")
    e2e = {
        "wall_s": upper_quartile(good, "wall_s"),
        "setup_s": upper_quartile(good, "setup_s"),
        "solve_s": upper_quartile(good, "solve_s"),
        "peak_rss_mb": median(good, "maxrss_kb") / 1024.0,
    }
    layers = {}
    if trace:
        traced = run_once(steps, "full", work, env, deadline)
        if "metrics" not in traced:
            sys.exit(f"perfbench: the traced run failed: {traced['why']}")
        runs.append(traced)
        layers = traced["metrics"]
        nonzero = [k for k in wl.traced_zero if layers[k]]
        if nonzero:
            traced["ok"] = False
            print(f"traced run: nonzero {', '.join(nonzero)}", file=sys.stderr)
        elif not traced["ok"]:
            print(f"traced run {traced['why']}", file=sys.stderr)
        layers.update({
            "cli.startup_s": statistics.median(r["wall_s"] - r["cmd_s"]
                                               for r in good),
            "cli.cpu_s": median(good, "cpu_s"),
            "bench.trace_overhead_s": traced["wall_s"] - e2e["wall_s"],
        })
    failed = sum(not r["ok"] for r in runs)
    if trace:
        layers["fail_rate"] = failed / len(runs)
    return e2e, layers, good, len(runs), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs the shipped config as it is")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="time spent on repeated untraced runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds one traced run and reports the "
                             "per-layer metrics")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    missing = [p for p in ("src/distagm/cli.py", "BENCHMARK.json",
                           *(step.config for step in wl.steps))
               if not os.path.isfile(p)]
    if missing:
        sys.exit(f"perfbench: {', '.join(missing)} not found; run from the "
                 "root of a distagm checkout")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}

    work = os.path.join(os.path.abspath(".perfbench_work"),
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        e2e, layers, good, attempted, failed = measure(
            wl, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    reported = layers if args.trace else e2e
    expected = {m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}
    if set(reported) != expected:
        sys.exit(f"perfbench: metrics {sorted(set(reported) ^ expected)} "
                 "differ from BENCHMARK.json")
    print(f"# workload={args.workload} seed={args.seed} "
          f"untraced_runs={len(good)} {versions()}")
    for name, value in e2e.items():
        stat = "median" if name == "peak_rss_mb" else "upper quartile"
        print(f"{name} {value:.6g} {units[name]} ({stat} of {len(good)})")
    for key in ("wall_s", "setup_s", "solve_s"):
        print(f"# {key} samples: " + " ".join(f"{r[key]:.4g}" for r in good))
    for name, value in sorted(layers.items()):
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name} {shown} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
