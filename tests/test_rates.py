"""Two-sided rate checks on a problem on which the rate is attained.

The shipped rate checks are one-sided: a strongly convex problem converges
faster than O(1/t^(2-beta)), so a slope at or below the target passes
however steep it is. On a spectrum that reaches toward zero the worst case
is attained (Nesterov, Introductory Lectures on Convex Optimization, 2004,
2.1.2; Su, Boyd & Candes, JMLR 2016), and the fitted slope of log F_gap
against log t (log k for the discrete runs) sits on -(2 - beta) from both
sides.

The problem: agent i of the ring of five holds diag(lambda * u_i) in
R^40, with lambda log-spaced from 1 down to 1e-12 and u_i drawn from
U(0.2, 1.8) and scaled to sum to 5 in each coordinate. The costs differ,
but their minimizers are all 0, so F* = 0 exactly. The start is all ones
plus 0.1 N(0, 1) per entry.

Measured over eight draws (seeds 0-7), each slope lay within 0.036 of
-(2 - beta) at beta 0.1 and 0.5, every R^2 was at least 0.9993, and the
adaptive runs never fell back. The flow runs DOP853 at rtol 1e-6, not
1e-9: at seed 0 its slopes move by less than 0.003, in under half the
steps.
"""

import numpy as np
import pytest

from distagm.agm import (AdaptiveParams, FixedParams, adaptive_run,
                         fixed_step_run)
from distagm.flow import FlowParams, integrate, rate_slope
from distagm.objectives import QuadraticObjective

# |slope + (2 - beta)| within this; the largest measured was 0.036
SLOPE_BOUND = 0.05


@pytest.fixture(scope="module")
def attained():
    """The problem above at seed 0: objective, optimum and start."""
    m, d = 5, 40
    rng = np.random.default_rng(0)
    lam = np.geomspace(1.0, 1e-12, d)
    u = rng.uniform(0.2, 1.8, (m, d))
    u *= m / u.sum(axis=0)
    obj = QuadraticObjective(np.array([np.diag(lam * row) for row in u]),
                             np.zeros((m, d)))
    x0 = 1.0 + 0.1 * rng.standard_normal(m * d)
    return obj, obj.closed_form_optimum(), x0


def flow_fit(beta, obj, graph, opt, x0):
    params = FlowParams(beta=beta, t0=1.0, dt=1e-2, horizon=1e3, rtol=1e-6)
    trace = integrate(params, obj, graph, x0, np.zeros_like(x0), opt)
    return rate_slope(trace.column("t"), trace.column("F_gap"),
                      window=(10.0, 1e3))


def discrete_fit(run, params, obj, graph, opt, x0):
    trace = run(params, obj, graph, x0, 2000, opt)
    if run is adaptive_run:
        assert not trace.column("fallback_flag").any()
    return rate_slope(trace.column("k"), trace.column("F_gap"),
                      window=(20.0, 2000.0))


FITS = {
    "flow": flow_fit,
    "adaptive": lambda beta, *problem: discrete_fit(
        adaptive_run, AdaptiveParams(h=0.5, beta=beta), *problem),
    "fixed": lambda beta, *problem: discrete_fit(
        fixed_step_run, FixedParams(h=0.5, beta=beta), *problem),
}


@pytest.mark.parametrize("beta", [0.1, 0.5])
@pytest.mark.parametrize("method", FITS)
def test_rate_is_attained(method, beta, attained, ring5):
    """The flow over t in [10, 1e3] and the discrete runs at h = 0.5 over
    k in [20, 2000] decay at the rate -(2 - beta), from both sides."""
    obj, opt, x0 = attained
    assert opt.f_star == 0.0
    slope, r2, flagged = FITS[method](beta, obj, ring5, opt, x0)
    assert not flagged
    assert abs(slope + (2.0 - beta)) <= SLOPE_BOUND, slope
    assert r2 >= 0.999
