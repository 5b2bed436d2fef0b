"""Continuous flow: dynamics, energy ledger, integrator order, slope fits."""

import numpy as np
import pytest

from distagm.flow import (BlowUpError, FlowParams, energy_at, flow_rhs,
                          flow_rhs_per_agent, integrate, rate_slope)
from distagm.graphs import build_topology
from distagm.objectives import QuadraticObjective
from distagm.trace import RunTrace


def test_params_validation():
    with pytest.raises(ValueError):
        FlowParams(beta=2.5)
    with pytest.raises(ValueError):
        FlowParams(beta=0.1, dt=-1.0)
    with pytest.raises(ValueError):
        FlowParams(beta=0.1, t0=60.0, horizon=50.0)


def test_rhs_singularity():
    g = build_topology("complete", 2)
    obj = QuadraticObjective(np.array([np.eye(1), np.eye(1)]),
                             np.zeros((2, 1)))
    with pytest.raises(ValueError):
        flow_rhs(0.0, np.zeros(4), FlowParams(beta=0.1), obj, g)


def test_rhs_pure_laplacian_term():
    # gradient vanishes at X=(1,0) when the offsets sit there, leaving -Llift X
    g = build_topology("complete", 2)
    obj = QuadraticObjective(np.array([np.eye(1), np.eye(1)]),
                             np.array([[1.0], [0.0]]))
    dx, dv = np.split(flow_rhs(1.0, np.array([1.0, 0.0, 0.0, 0.0]),
                               FlowParams(beta=0.1, k_gain=1.0), obj, g), 2)
    np.testing.assert_allclose(dx, 0.0)
    np.testing.assert_allclose(dv, [-1.0, 1.0])


def test_rhs_equilibrium(ring5, flow_quadratic):
    obj, opt = flow_quadratic
    _, dv = np.split(flow_rhs(2.0, np.concatenate((opt.x_star_stacked,
                                                   np.zeros(10))),
                              FlowParams(beta=0.1), obj, ring5), 2)
    np.testing.assert_allclose(dv, 0.0, atol=1e-12)


def test_rhs_per_agent_matches_stacked(ring5, flow_quadratic):
    obj, _ = flow_quadratic
    rng = np.random.default_rng(0)
    params = FlowParams(beta=0.3, k_gain=1.7)
    for _ in range(10):
        state = (float(rng.uniform(0.1, 5.0)), rng.standard_normal(20))
        dy1 = flow_rhs(*state, params, obj, ring5)
        dy2 = flow_rhs_per_agent(*state, params, obj, ring5)
        np.testing.assert_allclose(dy2, dy1, atol=1e-12)


def test_energy_reference_small_t0(ring5, flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.1, t0=1e-3, dt=1e-3, horizon=1.0)
    ledger = energy_at(params.t0, x0_ring5, np.zeros(10), (0.0, 0.0, 0.0),
                       obj, ring5, opt, params)
    ref = 2.0 * float(np.sum((x0_ring5 - opt.x_star_stacked) ** 2))
    assert ledger.total == pytest.approx(ref, rel=1e-2)


def test_energy_zero_at_equilibrium(ring5, flow_quadratic):
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.1, t0=1.0, dt=1e-3, horizon=2.0)
    ledger = energy_at(1.0, opt.x_star_stacked.copy(), np.zeros(10),
                       (0.0, 0.0, 0.0), obj, ring5, opt, params)
    assert ledger.total == pytest.approx(0.0, abs=1e-12)


def test_integrate_stays_at_equilibrium(ring5, flow_quadratic):
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.1, t0=1.0, dt=1e-2, horizon=3.0)
    trace = integrate(params, obj, ring5, opt.x_star_stacked.copy(),
                      np.zeros(10), opt, record_every=10)
    assert np.max(np.abs(trace.column("F_gap"))) <= 1e-20
    assert np.max(np.abs(trace.column("E_total"))) <= 1e-20


def test_short_run_conservation(ring5, flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.1, t0=1.0, dt=1e-3, horizon=5.0)
    trace = integrate(params, obj, ring5, x0_ring5, np.zeros(10),
                      record_every=50, opt=opt)
    totals = trace.column("E_total")
    drift = np.max(np.abs(totals - totals[0])) / abs(totals[0])
    assert drift <= 1e-4
    for col in ("E_kinetic", "E_laplacian", "E_potential",
                "E_int_laplacian", "E_int_bregman", "E_int_beta"):
        assert trace.column(col).min() >= -1e-9 * (1.0 + abs(totals[0]))


def test_rk4_convergence_order(ring5, flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic

    def final_gap(dt):
        params = FlowParams(beta=0.1, t0=1.0, dt=dt, horizon=3.0)
        trace = integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt,
                          record_every=10 ** 9, startup_dt_fraction=1.0)
        return trace.column("F_gap")[-1]

    ref = final_gap(0.00625)
    err_coarse = abs(final_gap(0.05) - ref)
    err_fine = abs(final_gap(0.025) - ref)
    assert err_coarse / err_fine >= 8.0


def test_rate_bound_from_small_t0(ring5, flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.1, t0=1e-3, dt=5e-3, horizon=50.0)
    trace = integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt,
                      record_every=20)
    ts = trace.column("t")
    gaps = trace.column("F_gap")
    e0 = trace.column("E_total")[0]
    assert np.all(ts ** (2.0 - params.beta) * gaps <= e0 * 1.01)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_detected(ring5, flow_quadratic, x0_ring5, monkeypatch):
    obj, _ = flow_quadratic
    opt = obj.closed_form_optimum()
    params = FlowParams(beta=0.1, t0=1.0, dt=5.0, horizon=5000.0)
    recorded = []
    append = RunTrace.append

    def spy(self, **row):
        recorded.append(row["t"])
        append(self, **row)

    monkeypatch.setattr(RunTrace, "append", spy)
    with pytest.raises(BlowUpError) as err:
        integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt,
                  record_every=1, startup_dt_fraction=100.0)
    # every accepted point is recorded, so the last row is the last finite one
    assert len(recorded) > 1
    assert err.value.last_t == recorded[-1]


def test_rate_slope_exact_power_laws():
    ts = np.linspace(5.0, 100.0, 200)
    slope, r2, flagged = rate_slope(ts, 3.0 / ts ** 2)
    assert slope == pytest.approx(-2.0, abs=1e-6)
    assert r2 == pytest.approx(1.0, abs=1e-9)
    assert not flagged
    slope, _, _ = rate_slope(ts, 0.7 / ts ** 1.9)
    assert slope == pytest.approx(-1.9, abs=1e-6)


def test_rate_slope_window_and_flags():
    ts = np.linspace(1.0, 100.0, 300)
    gaps = 1.0 / ts ** 2
    slope, _, _ = rate_slope(ts, gaps, window=(10.0, 50.0))
    assert slope == pytest.approx(-2.0, abs=1e-6)
    gaps = gaps.copy()
    gaps[-1] = 0.0  # float-noise sample is dropped and flagged
    _, _, flagged = rate_slope(ts, gaps, tail_fraction=0.5)
    assert flagged
    with pytest.raises(ValueError):
        rate_slope(ts[:10], gaps[:10])
