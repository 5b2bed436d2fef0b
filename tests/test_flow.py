"""Continuous flow: dynamics, energy ledger, integrator order, slope fits."""

import numpy as np
import pytest

from distagm.flow import (LEDGER, BlowUpError, FlowParams, energy_at,
                          flow_rhs, flow_rhs_per_agent, integrate, rate_slope)
from distagm.graphs import apply_lifted_laplacian, build_topology
from distagm.objectives import QuadraticObjective
from distagm.trace import RunTrace


def test_params_validation():
    with pytest.raises(ValueError):
        FlowParams(beta=2.5)
    with pytest.raises(ValueError):
        FlowParams(beta=0.1, dt=-1.0)
    with pytest.raises(ValueError):
        FlowParams(beta=0.1, t0=60.0, horizon=50.0)
    with pytest.raises(ValueError, match="record_every"):
        FlowParams(record_every=0)


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
    row = energy_at(params.t0, x0_ring5, np.zeros(10), (0.0, 0.0, 0.0),
                    obj, ring5, opt, params)
    ref = 2.0 * float(np.sum((x0_ring5 - opt.x_star_stacked) ** 2))
    assert row["E_total"] == pytest.approx(ref, rel=1e-2)


def test_energy_zero_at_equilibrium(ring5, flow_quadratic):
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.1, t0=1.0, dt=1e-3, horizon=2.0)
    row = energy_at(1.0, opt.x_star_stacked.copy(), np.zeros(10),
                    (0.0, 0.0, 0.0), obj, ring5, opt, params)
    assert row["E_total"] == pytest.approx(0.0, abs=1e-12)


def test_integrate_stays_at_equilibrium(ring5, flow_quadratic):
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.1, t0=1.0, dt=1e-2, horizon=3.0)
    trace = integrate(params, obj, ring5, opt.x_star_stacked.copy(),
                      np.zeros(10), opt)
    assert np.max(np.abs(trace.column("F_gap"))) <= 1e-20
    assert np.max(np.abs(trace.column("E_total"))) <= 1e-20


def test_short_run_conservation(ring5, flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.1, t0=1.0, dt=1e-3, horizon=5.0,
                        record_every=50)
    trace = integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt=opt)
    totals = trace.column("E_total")
    drift = np.max(np.abs(totals - totals[0])) / abs(totals[0])
    assert drift <= 1e-4
    for col in LEDGER:
        assert trace.column(col).min() >= -1e-9 * (1.0 + abs(totals[0]))


def test_rk4_convergence_order(ring5, flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic

    def final_gap(dt):
        params = FlowParams(beta=0.1, t0=1.0, dt=dt, horizon=3.0,
                            record_every=10 ** 9)
        trace = integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt,
                          startup_dt_fraction=1.0)
        return trace.column("F_gap")[-1]

    ref = final_gap(0.00625)
    err_coarse = abs(final_gap(0.05) - ref)
    err_fine = abs(final_gap(0.025) - ref)
    assert err_coarse / err_fine >= 8.0


def test_rate_bound_from_small_t0(ring5, flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.1, t0=1e-3, dt=5e-3, horizon=50.0,
                        record_every=20)
    trace = integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt)
    ts = trace.column("t")
    gaps = trace.column("F_gap")
    e0 = trace.column("E_total")[0]
    assert np.all(ts ** (2.0 - params.beta) * gaps <= e0 * 1.01)


@pytest.mark.parametrize("fraction", [0.0, -0.05, float("nan")])
def test_integrate_rejects_bad_startup_fraction(ring5, flow_quadratic,
                                                x0_ring5, fraction):
    # 0 would never advance t; a negative fraction steps backwards into the
    # singular t <= 0 and a NaN one drops out of ``min`` unnoticed
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.1, t0=1.0, dt=1e-2, horizon=1.1)
    with pytest.raises(ValueError, match="startup_dt_fraction"):
        integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt,
                  startup_dt_fraction=fraction)


def test_one_step_matches_rk4_from_flow_rhs(ring5, flow_quadratic, x0_ring5):
    """One integrator step against classical RK4 assembled from four
    ``flow_rhs`` calls and the ledger written out from its definitions."""
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.3, k_gain=1.7, t0=1.25, dt=0.125, horizon=1.375,
                        record_every=1)
    V0 = 0.4 * np.random.default_rng(3).standard_normal(10)
    trace = integrate(params, obj, ring5, x0_ring5, V0, opt,
                      startup_dt_fraction=1.0)
    assert len(trace) == 2

    t0, dt = params.t0, params.dt
    Y0 = np.concatenate((x0_ring5, V0))
    k1 = flow_rhs(t0, Y0, params, obj, ring5)
    k2 = flow_rhs(t0 + dt / 2, Y0 + dt / 2 * k1, params, obj, ring5)
    k3 = flow_rhs(t0 + dt / 2, Y0 + dt / 2 * k2, params, obj, ring5)
    k4 = flow_rhs(t0 + dt, Y0 + dt * k3, params, obj, ring5)
    Y1 = Y0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    def point(t, Y):
        X, V = Y[:10], Y[10:]
        xbar = X - opt.x_star_stacked
        lx = apply_lifted_laplacian(ring5, obj.d, X)
        grad = obj.grad(X)
        gap = obj.value(X) - opt.f_star
        bregman = -gap - grad.dot(opt.x_star_stacked - X)
        w = t ** (1 - params.beta)
        integrands = np.array((params.k_gain * t * xbar.dot(lx),
                               2 * w * bregman, params.beta * w * gap))
        row = {"t": t, "F_gap": gap, "grad_norm": np.linalg.norm(grad),
               "laplacian_norm": np.linalg.norm(lx),
               "E_kinetic": 0.5 * np.sum((t * V + 2 * xbar) ** 2),
               "E_laplacian": 0.5 * params.k_gain * t ** 2 * xbar.dot(lx),
               "E_potential": t ** (2 - params.beta) * gap}
        return row, integrands

    rows = [point(t0, Y0), point(t0 + dt, Y1)]
    integrals = [np.zeros(3), dt / 2 * (rows[0][1] + rows[1][1])]
    for k, ((row, _), acc) in enumerate(zip(rows, integrals)):
        row.update(E_int_laplacian=acc[0], E_int_bregman=acc[1],
                   E_int_beta=acc[2])
        row["E_total"] = sum(v for name, v in row.items()
                             if name.startswith("E_"))
        for name, want in row.items():
            got = trace.column(name)[k]
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (k, name)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_detected(ring5, flow_quadratic, x0_ring5, monkeypatch):
    obj, _ = flow_quadratic
    opt = obj.closed_form_optimum()
    params = FlowParams(beta=0.1, t0=1.0, dt=5.0, horizon=5000.0,
                        record_every=1)
    recorded = []
    append = RunTrace.append

    def spy(self, **row):
        recorded.append(row["t"])
        append(self, **row)

    monkeypatch.setattr(RunTrace, "append", spy)
    with pytest.raises(BlowUpError) as err:
        integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt,
                  startup_dt_fraction=100.0)
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
