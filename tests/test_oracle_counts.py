"""Oracle calls per iteration of the discrete method, the baselines and the
flow integrator.

Each adaptive or fixed-step iteration evaluates the new iterate once
(stacked gradient, lifted Laplacian, cumulative cost) plus the cost at the
plus-iterate. DGD and DIGing take the gradient of their update from 1
stacked gradient call. Each stage of the flow's Runge-Kutta step makes one
fused evaluation and one Laplacian apply, the accepted point's once; that
evaluation is the next step's first stage.

The runs take the gradient, with the cost at the same point, from one
``value_grad`` call, the objectives' one gradient oracle. Both families
answer it in one evaluation (on the quadratic family one matrix-vector
product), so the counts show ``value_grad`` itself and no ``value`` call
beside it.
"""

from collections import Counter
from pathlib import Path

import pytest

from distagm import agm, baselines, flow, harness
from distagm.graphs import apply_lifted_laplacian
from distagm.objectives import LogisticObjective

ITERS = 20
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def counted(calls, name, fn):
    """``fn``, counting each call in ``calls[name]``."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.fixture
def counts(monkeypatch, controller_quadratic):
    """Counters of the stacked oracle calls on the controller quadratic."""
    obj, _ = controller_quadratic
    calls = Counter()
    cls = type(obj)
    for name in ("value_grad", "value"):
        monkeypatch.setattr(cls, name, counted(calls, name,
                                               getattr(cls, name)))
    for module in (agm, baselines, flow):
        monkeypatch.setattr(module, "apply_lifted_laplacian",
                            counted(calls, "laplacian",
                                    apply_lifted_laplacian))
    return calls


@pytest.fixture
def logistic_counts(monkeypatch):
    """Counters of the logistic family's stacked oracle calls."""
    calls = Counter()
    for name in ("value_grad", "value"):
        monkeypatch.setattr(LogisticObjective, name, counted(
            calls, name, getattr(LogisticObjective, name)))
    return calls


def per_iteration(calls, run, names=("value_grad", "value", "laplacian")):
    """Calls per iteration, from the difference of an ITERS and a 2*ITERS
    run so that set-up calls cancel."""
    calls.clear()
    run(ITERS)
    short = Counter(calls)
    calls.clear()
    run(2 * ITERS)
    return {name: (calls[name] - short[name]) / ITERS for name in names}


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
    assert got["value_grad"] == 1
    assert got["value"] == 1  # the cost at the plus-iterate
    assert got["laplacian"] == 1


@pytest.mark.parametrize("run_fn", [baselines.dgd_run, baselines.diging_run])
def test_gradient_baselines_reuse_the_update_sweep(run_fn, counts, ring5,
                                                   controller_quadratic,
                                                   x0_ring5):
    obj, opt = controller_quadratic
    got = per_iteration(
        counts, lambda iters: run_fn(baselines.StepParams(alpha=1e-3), obj,
                                     ring5, x0_ring5, iters=iters, opt=opt))
    assert got["value_grad"] == 1
    assert got["value"] == 0
    assert got["laplacian"] == 1


def test_logistic_adaptive_iteration_fuses_its_evaluation(
        logistic_counts, ring5, ring5_logistic, x0_ring5):
    """An adaptive iteration evaluates the new iterate with 1 fused call
    and takes the cost at the plus-iterate with 1 ``value`` call."""
    obj, opt = ring5_logistic
    got = per_iteration(
        logistic_counts, lambda iters: agm.adaptive_run(
            agm.AdaptiveParams(h=1.0, beta=0.1, oracle_mode="practical"),
            obj, ring5, x0_ring5, iters=iters, opt=opt),
        names=("value_grad", "value"))
    assert got == {"value_grad": 1, "value": 1}


def test_solver_evaluates_each_newton_point_once(logistic_counts):
    """The reference solve of logistic_compare.yaml's problem takes 7 full
    Newton steps: one fused evaluation at the start and at each trial
    point, whose gradient the next step reuses, and one at the returned
    optimum, with no ``value`` call."""
    settings = harness.check_config(
        harness.load_config(CONFIGS / "logistic_compare.yaml"), None)
    harness.build_problem(settings, harness.build_graph(settings))
    assert dict(logistic_counts) == {"value_grad": 9}


@pytest.mark.parametrize("run_fn", [baselines.dgd_run, baselines.diging_run])
def test_logistic_gradient_baselines_fuse_their_evaluation(
        run_fn, logistic_counts, ring5, ring5_logistic, x0_ring5):
    obj, opt = ring5_logistic
    got = per_iteration(
        logistic_counts, lambda iters: run_fn(
            baselines.StepParams(alpha=1e-3), obj, ring5, x0_ring5,
            iters=iters, opt=opt),
        names=("value_grad", "value"))
    assert got == {"value_grad": 1, "value": 0}


def test_pi_consensus_reuses_update_oracles(counts, ring5,
                                            controller_quadratic, x0_ring5):
    obj, opt = controller_quadratic
    got = per_iteration(
        counts, lambda iters: baselines.pi_consensus_run(
            baselines.PIParams(alpha=0.1, beta_gain=0.1), obj, ring5,
            x0_ring5, iters=iters, opt=opt))
    assert got["value_grad"] == 1
    assert got["value"] == 0
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
    # one fused evaluation and one apply per RK stage: the ledger's rates
    # need the cost at every stage. The accepted point's evaluation is
    # stage 4's successor and serves the recorded row and the next step's
    # first stage.
    assert got["value_grad"] == 4
    assert got["value"] == 0
    assert got["laplacian"] == 4


def test_controlled_flow_takes_few_evaluations(counts, ring5, flow_quadratic,
                                               x0_ring5):
    """energy_conservation.yaml's run at rtol 1e-8: 172 accepted and 2
    rejected DOP853 steps, 12 evaluations per attempt and 1 at the start,
    2089 in all against 196k for the fixed RK4 step at dt = 1e-3."""
    obj, opt = flow_quadratic
    params = flow.FlowParams(beta=0.1, t0=1.0, dt=1e-3, horizon=50.0,
                             record_every=1, rtol=1e-8)
    trace = flow.integrate(params, obj, ring5, x0_ring5, x0_ring5 * 0.0, opt)
    attempts = trace.metadata["steps"] + trace.metadata["rejected"]
    assert counts["value_grad"] == counts["laplacian"]
    assert counts["value_grad"] == 12 * attempts + 1
    assert counts["value_grad"] < 2200
    assert counts["value"] == 0
