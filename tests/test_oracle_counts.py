"""Oracle calls per iteration of the discrete method, the baselines and the
flow integrator.

Each adaptive or fixed-step iteration evaluates the new iterate once
(stacked gradient, lifted Laplacian, cumulative cost) plus the cost at the
plus-iterate. DGD and DIGing take the gradient of their update from 1
stacked gradient call and make no per-agent call. Each RK4 step of the
flow evaluates its accepted point once; that gradient and Laplacian apply
are the next step's first stage.
"""

from collections import Counter

import pytest

from distagm import agm, baselines, flow
from distagm.graphs import apply_lifted_laplacian

ITERS = 20


@pytest.fixture
def counts(monkeypatch, controller_quadratic):
    """Counters of the stacked oracle calls on the controller quadratic."""
    obj, _ = controller_quadratic
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    cls = type(obj)
    for name in ("grad", "value", "local_grad"):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    for module in (agm, baselines, flow):
        monkeypatch.setattr(module, "apply_lifted_laplacian",
                            counted("laplacian", apply_lifted_laplacian))
    return calls


def per_iteration(calls, run):
    """Calls per iteration, from the difference of an ITERS and a 2*ITERS
    run so that set-up calls cancel."""
    calls.clear()
    run(ITERS)
    short = Counter(calls)
    calls.clear()
    run(2 * ITERS)
    return {name: (calls[name] - short[name]) / ITERS
            for name in ("grad", "value", "laplacian", "local_grad")}


@pytest.mark.parametrize("mode", ["adaptive", "fixed"])
def test_agm_evaluates_each_iterate_once(mode, counts, ring5,
                                         controller_quadratic, x0_ring5):
    obj, opt = controller_quadratic
    if mode == "adaptive":
        def run(iters):
            agm.adaptive_run(
                agm.AdaptiveParams(h=1.0, beta=0.1, oracle_mode="practical"),
                obj, ring5, x0_ring5, iters=iters, opt=opt)
    else:
        def run(iters):
            agm.fixed_step_run(agm.FixedParams(h=0.3, beta=0.1), obj, ring5,
                               x0_ring5, iters=iters, opt=opt)
    got = per_iteration(counts, run)
    assert got["grad"] == 1
    assert got["value"] <= 2
    assert got["laplacian"] == 1


@pytest.mark.parametrize("run_fn", [baselines.dgd_run, baselines.diging_run])
def test_gradient_baselines_reuse_the_update_sweep(run_fn, counts, ring5,
                                                   controller_quadratic,
                                                   x0_ring5):
    obj, opt = controller_quadratic
    got = per_iteration(
        counts, lambda iters: run_fn(baselines.StepParams(alpha=1e-3), obj,
                                     ring5, x0_ring5, iters=iters, opt=opt))
    assert got["grad"] == 1
    assert got["local_grad"] == 0
    assert got["laplacian"] == 1


def test_pi_consensus_reuses_update_oracles(counts, ring5,
                                            controller_quadratic, x0_ring5):
    obj, opt = controller_quadratic
    got = per_iteration(
        counts, lambda iters: baselines.pi_consensus_run(
            baselines.PIParams(alpha=0.1, beta_gain=0.1), obj, ring5,
            x0_ring5, iters=iters, opt=opt))
    assert got["grad"] == 1
    assert got["value"] == 1
    assert got["laplacian"] == 1


@pytest.mark.parametrize("record_every", [1, 20])
def test_flow_step_evaluates_each_point_once(record_every, counts, ring5,
                                             flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic

    def run(steps):
        # dt = 1/8 keeps t on a binary grid: exactly ``steps`` RK4 steps
        params = flow.FlowParams(beta=0.1, t0=1.0, dt=0.125,
                                 horizon=1.0 + 0.125 * steps,
                                 record_every=record_every)
        flow.integrate(params, obj, ring5, x0_ring5, x0_ring5 * 0.0, opt,
                       startup_dt_fraction=1.0)
    got = per_iteration(counts, run)
    assert got["grad"] == 4
    assert got["value"] == 1
    # one apply per RK stage; the accepted point's apply serves the ledger,
    # the recorded row and the next step's first stage
    assert got["laplacian"] == 4
