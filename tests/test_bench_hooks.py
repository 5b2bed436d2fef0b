"""The benchmark's hooks into the package stay valid.

``perfbench/child.py --trace 1`` patches the package's public names and
recomputes the flow's step count from its schedule. A refactor that drops a
patched name or changes the step schedule fails here instead of in the
benchmark.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from distagm import agm, baselines, flow, harness
from distagm.objectives import QuadraticObjective
from distagm.trace import RunTrace

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_trace_install_and_restore(child):
    owners = (harness, flow, agm, baselines, RunTrace, QuadraticObjective)
    before = [dict(vars(owner)) for owner in owners]
    tracer = child.Tracer()
    try:
        child.install(tracer, full=True)
    finally:
        tracer.restore()
    assert "flow.energy_at" in tracer.ids
    assert "graphs.apply_lifted_laplacian" in tracer.ids
    assert [dict(vars(owner)) for owner in owners] == before


@pytest.mark.parametrize("t0,dt,horizon,fraction", [
    (1e-3, 5e-3, 0.5, 0.05),  # geometric start-up ramp from a tiny t0
    (1.0, 1e-2, 1.5, 0.05),  # plain fixed step
])
def test_flow_steps_matches_integrate(child, ring5, flow_quadratic, x0_ring5,
                                      t0, dt, horizon, fraction):
    obj, opt = flow_quadratic
    params = flow.FlowParams(beta=0.1, t0=t0, dt=dt, horizon=horizon,
                             record_every=1)
    trace = flow.integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt,
                           startup_dt_fraction=fraction)
    assert child.flow_steps(params, fraction) == len(trace) - 1


def test_coarse_spans_time_set_up_and_solve(child, tmp_path, monkeypatch):
    """The coarse child, which the end-to-end benchmark runs, times the
    set-up and solve calls the harness looks up by module attribute. A
    harness that bound one of them to a local name would read 0 here."""
    spans = []

    class Kept(child.Spans):
        def __init__(self, tracer):
            super().__init__(tracer)
            spans.append(self)

    monkeypatch.setattr(child, "Spans", Kept)
    cfg = {"problem": {"common_offset": [0.3, -0.2]}, "iters": 5,
           "algorithms": ["dist_agm"], "flow": {"horizon": 1.2}}
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(cfg))
    result = tmp_path / "result.json"
    assert child.main([str(result), "coarse",
                       "--", "run", str(path), "--out", str(tmp_path / "r"),
                       "--", "energy-check", str(path),
                       "--out", str(tmp_path / "e")]) == 0
    counts = {name: spans[0].count(name) for name in spans[0].ids}
    assert counts == {"harness.build_graph": 2, "harness.build_problem": 2,
                      "harness.initial_state": 2, "harness.run_algorithm": 1,
                      "flow.integrate": 1}
    timings = json.loads(result.read_text())
    assert timings["setup_s"] > 0.0 and timings["solve_s"] > 0.0


def test_full_spans_time_each_run(child, tmp_path, monkeypatch):
    """The full child wraps the run functions on their modules. The harness
    looks each one up when it runs it, so a compare of dist_agm and dgd
    records one span of each; a run bound at import would record none."""
    spans = []

    class Kept(child.Spans):
        def __init__(self, tracer):
            super().__init__(tracer)
            spans.append(self)

    monkeypatch.setattr(child, "Spans", Kept)
    cfg = {"problem": {"common_offset": [0.3, -0.2]}, "iters": 5,
           "algorithms": ["dist_agm", "dgd"]}
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert child.main([str(tmp_path / "result.json"), "full", "--",
                       "compare", str(path), "--out", str(tmp_path / "c")]) == 0
    assert spans[0].count("agm.adaptive_run") == 1
    assert spans[0].count("baselines.dgd_run") == 1
    assert spans[0].count("harness.run_algorithm") == 2


def test_full_trace_counts_the_discrete_loop(child, tmp_path):
    """The full child counts the adaptive run's iterations by its calls to
    ``agm.step`` and the oracle calls inside the run per iteration. The run
    looks ``step``, ``apply_lifted_laplacian`` and the objective's methods
    up where the child patches them, so a loop that bound one of them to
    a local name would read 0 here: 1 Laplacian apply and 1 ``value``
    call, the cost at the plus-iterate, per iteration."""
    cfg = {"problem": {"common_offset": [0.3, -0.2]}, "iters": 7,
           "algorithms": ["dist_agm"]}
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(cfg))
    result = tmp_path / "result.json"
    assert child.main([str(result), "full", "--", "run", str(path),
                       "--out", str(tmp_path / "r")]) == 0
    metrics = json.loads(result.read_text())["metrics"]
    assert metrics["agm.iters"] == 7
    assert metrics["graphs.laplacian_calls_per_iter"] == 1
    assert metrics["objectives.value_calls_per_iter"] == 1


def test_full_trace_of_a_fixed_step_run(child, tmp_path):
    """The full child reads the controller columns (``fallback_flag``,
    ``monotonicity_ok``, ``V_k``, ``case``) of every dist_agm trace, the
    fixed-step run's included, whose controller cells are constant."""
    cfg = {"problem": {"common_offset": [0.3, -0.2]}, "iters": 7,
           "algorithms": [{"name": "dist_agm", "mode": "fixed", "h": 0.3}]}
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(cfg))
    result = tmp_path / "result.json"
    assert child.main([str(result), "full", "--", "run", str(path),
                       "--out", str(tmp_path / "r")]) == 0
    metrics = json.loads(result.read_text())["metrics"]
    assert metrics["agm.iters"] == 7
    assert metrics["agm.fallbacks"] == 0


def test_full_trace_of_a_controlled_flow(child, tmp_path):
    """A full traced energy-check under the error-controlled step, as the
    traced ``quadratic`` workload runs it, exits 0 with a finite drift.
    The step count the child derives replicates the fixed schedule, so it
    is not asserted here."""
    cfg = {"problem": {"common_offset": [0.3, -0.2]},
           "init": {"scale": 1.5},
           "flow": {"horizon": 3.0, "record_every": 1, "rtol": 1e-8}}
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(cfg))
    result = tmp_path / "result.json"
    assert child.main([str(result), "full", "--", "energy-check", str(path),
                       "--out", str(tmp_path / "e")]) == 0
    drift = json.loads(result.read_text())["metrics"]["flow.max_drift"]
    assert np.isfinite(drift) and 0.0 < drift <= 1e-3
