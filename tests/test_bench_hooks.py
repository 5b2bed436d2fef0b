"""The benchmark's hooks into the package stay valid.

``perfbench/child.py --trace 1`` patches the package's public names and
recomputes the flow's step count from its schedule. A refactor that drops a
patched name or changes the step schedule fails here instead of in the
benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

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
    params = flow.FlowParams(beta=0.1, t0=t0, dt=dt, horizon=horizon)
    trace = flow.integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt,
                           record_every=1, startup_dt_fraction=fraction)
    assert child.flow_steps(params, fraction) == len(trace) - 1
