"""Reference optimizers: fixed points, tracking identities, convergence."""

import numpy as np
import pytest

from distagm.agm import DivergenceError
from distagm.baselines import (PIParams, StepParams, dgd_run, diging_run,
                               pi_consensus_run)
from distagm.objectives import make_quadratic


@pytest.fixture(scope="module")
def hetero_quadratic():
    obj = make_quadratic(5, 2, cond=10.0, seed=7)
    return obj, obj.closed_form_optimum()


def test_param_validation():
    with pytest.raises(ValueError):
        StepParams(alpha=0.0)
    with pytest.raises(ValueError):
        StepParams(alpha=-1.0)
    with pytest.raises(ValueError):
        PIParams(alpha=0.1, beta_gain=0.0)


def test_stationary_at_symmetric_optimum(ring5, flow_quadratic):
    obj, opt = flow_quadratic
    x_star = opt.x_star_stacked.copy()
    for run in (
        lambda: dgd_run(StepParams(alpha=0.05), obj, ring5, x_star,
                        iters=30, opt=opt),
        lambda: diging_run(StepParams(alpha=0.05), obj, ring5, x_star,
                           iters=30, opt=opt),
        lambda: pi_consensus_run(PIParams(alpha=0.1, beta_gain=0.1), obj,
                                 ring5, x_star, iters=30, opt=opt),
    ):
        trace = run()
        assert np.max(np.abs(trace.column("F_gap"))) <= 1e-20


def test_dgd_plateaus_above_optimum(ring5, hetero_quadratic):
    obj, opt = hetero_quadratic
    x0 = 0.1 * np.random.default_rng(0).standard_normal(10)
    trace = dgd_run(StepParams(alpha=0.02), obj, ring5, x0, iters=4000,
                    opt=opt)
    gaps = trace.column("F_gap")
    # constant-step DGD is inexact: |F - F*| settles well above zero
    tail = np.abs(gaps[-500:])
    assert tail.min() > 1e-6
    assert tail.max() - tail.min() <= 1e-8 * max(tail.max(), 1.0)


def test_diging_beats_dgd_plateau(ring5, hetero_quadratic):
    obj, opt = hetero_quadratic
    x0 = 0.1 * np.random.default_rng(0).standard_normal(10)
    step = StepParams(alpha=0.02)
    dgd = dgd_run(step, obj, ring5, x0, iters=4000, opt=opt)
    dig = diging_run(step, obj, ring5, x0, iters=4000, opt=opt)
    assert abs(dig.column("F_gap")[-1]) < abs(dgd.column("F_gap")[-1])
    assert dig.metadata["max_tracking_residual"] <= 1e-10


def test_diging_tracking_identity(ring5, hetero_quadratic):
    obj, opt = hetero_quadratic
    x0 = np.random.default_rng(5).standard_normal(10)
    trace = diging_run(StepParams(alpha=0.01), obj, ring5, x0, iters=500,
                       opt=opt)
    assert trace.metadata["max_tracking_residual"] <= 1e-10


def test_pi_consensus_converges(ring5, hetero_quadratic):
    obj, opt = hetero_quadratic
    x0 = 0.1 * np.random.default_rng(0).standard_normal(10)
    trace = pi_consensus_run(PIParams(alpha=0.5, beta_gain=0.5, h_step=0.05),
                             obj, ring5, x0, iters=20000, opt=opt)
    assert trace.column("F_gap")[-1] <= 1e-6
    assert trace.metadata["max_integral_sum"] <= 1e-12


def test_divergence_guard(ring5, hetero_quadratic):
    obj, opt = hetero_quadratic
    x0 = np.random.default_rng(1).standard_normal(10)
    with pytest.raises(DivergenceError):
        dgd_run(StepParams(alpha=50.0), obj, ring5, x0, iters=200, opt=opt)


def test_deterministic_traces(ring5, hetero_quadratic, tmp_path):
    obj, opt = hetero_quadratic
    x0 = np.random.default_rng(2).standard_normal(10)
    paths = []
    for name in ("one.csv", "two.csv"):
        trace = diging_run(StepParams(alpha=0.01), obj, ring5, x0, iters=40,
                           opt=opt)
        path = tmp_path / name
        trace.write_csv(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_schema(ring5, hetero_quadratic):
    obj, opt = hetero_quadratic
    x0 = np.zeros(10)
    trace = dgd_run(StepParams(alpha=0.01), obj, ring5, x0, iters=3, opt=opt)
    assert trace.columns == ["k", "F_gap", "grad_norm", "laplacian_norm"]
    assert trace.metadata["alpha"] == 0.01
    assert len(trace) == 4


@pytest.mark.parametrize("run,params", [
    (dgd_run, StepParams(alpha=1e308)),
    (diging_run, StepParams(alpha=1e308)),
    (pi_consensus_run, PIParams(alpha=1e308, beta_gain=0.1)),
], ids=["dgd", "diging", "pi_consensus"])
def test_huge_step_diverges_at_first_iteration(ring5, hetero_quadratic, run,
                                               params):
    """A gap that overflows or turns NaN counts as divergence: the run stops
    at k = 1 and hands over the rows it recorded."""
    obj, opt = hetero_quadratic
    x0 = np.random.default_rng(1).standard_normal(10)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        run(params, obj, ring5, x0, iters=50, opt=opt)
    assert err.value.at == 1
    trace = err.value.trace
    np.testing.assert_array_equal(trace.column("k"), [0, 1])
    assert np.isfinite(trace.column("F_gap")[0])
