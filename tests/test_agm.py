"""Discrete algorithm: update algebra, controller quantities, certificates."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distagm import agm
from distagm.agm import (AdaptiveParams, AgmState, DivergenceError,
                         FixedParams, TraceRecorder, a_coeff, adaptive_run,
                         bootstrap_diagnostics, c_coeff, combined_field,
                         compute_step_diagnostics, fixed_step_run, init,
                         lyapunov, lyapunov_v0_prime, select_stepsize,
                         single_line_update, smoothness_cap, step, theta)
from distagm.graphs import build_topology, spectral_extremes
from distagm.objectives import QuadraticObjective, make_quadratic

PRACTICAL = AdaptiveParams(h=1.0, beta=0.1, oracle_mode="practical")


@given(k=st.integers(min_value=1, max_value=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_coefficient_identities(k):
    assert theta(k) == 0.5 * k
    assert c_coeff(k) == pytest.approx(2.0 * (k + 1) / (2.0 * k + 1), rel=1e-14)
    assert a_coeff(k) >= theta(k) ** 2
    assert a_coeff(k) - a_coeff(k + 1) + theta(k + 1) >= 0.0


def test_init_validation():
    for params in (AdaptiveParams, FixedParams):
        with pytest.raises(ValueError):
            params(h=1.0, beta=2.0)
        with pytest.raises(ValueError):
            params(h=0.0, beta=0.5)


def test_init_bootstrap_state():
    x0 = np.array([1.0, -2.0, 0.5, 0.0])
    state = init(x0, h=1.0, beta=0.1)
    assert state.k == 1 and state.s == 0.0
    np.testing.assert_array_equal(state.X, x0)
    np.testing.assert_array_equal(state.Z, x0)
    np.testing.assert_array_equal(state.X_plus, x0)


def test_zero_step_is_convex_combination(ring5, flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic
    for k in (1, 3, 10):
        rng = np.random.default_rng(k)
        state = AgmState(k=k, X=x0_ring5.copy(), X_plus=x0_ring5.copy(),
                         Z=rng.standard_normal(10), s=0.0, h=1.0, beta=0.1)
        nxt = step(state, obj, ring5, opt)
        ratio = k ** 2 / (k + 1) ** 2
        np.testing.assert_allclose(nxt.X_plus, state.X, atol=0)
        np.testing.assert_allclose(nxt.Z, state.Z, atol=0)
        np.testing.assert_allclose(
            nxt.X, ratio * state.X + (1.0 - ratio) * state.Z, rtol=1e-14)


def test_three_line_matches_single_line(ring5):
    obj = make_quadratic(5, 2, seed=21)
    opt = obj.closed_form_optimum()
    rng = np.random.default_rng(22)
    worst = 0.0
    for i in range(1000):
        k = int(rng.integers(1, 200))
        s = float(rng.uniform(0.0, 0.5))
        x = rng.standard_normal(10)
        z = rng.standard_normal(10)
        state = AgmState(k=k, X=x, X_plus=x.copy(), Z=z, s=s, h=1.0,
                         beta=0.1)
        nxt = step(state, obj, ring5, opt)
        g = combined_field(k, x, 1.0, 0.1, obj, ring5)
        oracle = single_line_update(k, x, z, s, g)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        worst = max(worst, float(np.max(np.abs(nxt.X - oracle))) / scale)
    assert worst <= 1e-14


def test_hand_rolled_first_iteration():
    g = build_topology("complete", 2)
    obj = QuadraticObjective(np.array([[[2.0]], [[1.0]]]),
                             np.array([[0.0], [1.0]]))
    x = np.array([1.0, -1.0])
    z = np.array([0.5, 0.5])
    s, h, beta = 0.1, 1.0, 0.5
    state = AgmState(k=1, X=x, X_plus=x.copy(), Z=z, s=s, h=h, beta=beta)
    nxt = step(state, obj, g, obj.closed_form_optimum(), s_next=0.2)
    # G_1 = (2*0.5*1)^{-0.5} * (2*1, 1*(-2)) + (x0-x1, x1-x0)
    gfield = np.array([2.0, -2.0]) + np.array([2.0, -2.0])
    x_plus = x - 0.05 * gfield
    z_new = z - 0.1 * 0.5 * gfield
    x_new = 0.25 * x_plus + 0.75 * z_new
    np.testing.assert_allclose(nxt.X_plus, x_plus, rtol=1e-15)
    np.testing.assert_allclose(nxt.Z, z_new, rtol=1e-15)
    np.testing.assert_allclose(nxt.X, x_new, rtol=1e-15)
    assert nxt.k == 2 and nxt.s == 0.2


def test_fixed_point_at_symmetric_optimum(ring5, flow_quadratic, exact_opt):
    # with the optimum written down exactly the update field vanishes
    obj, _ = flow_quadratic
    x_star = exact_opt.x_star_stacked.copy()
    trace = fixed_step_run(FixedParams(h=1.0, beta=0.1), obj, ring5, x_star,
                           iters=20, opt=exact_opt)
    assert np.max(np.abs(trace.column("F_gap"))) == 0.0
    trace = adaptive_run(PRACTICAL, obj, ring5, x_star, iters=20,
                         opt=exact_opt)
    assert np.max(np.abs(trace.column("F_gap"))) == 0.0


def test_diagnostics_vanish_at_optimum(ring5, flow_quadratic):
    obj, opt = flow_quadratic
    lam = spectral_extremes(ring5).lambda_max
    x = opt.x_star_stacked
    prev = AgmState(k=3, X=x.copy(), X_plus=x.copy(), Z=x.copy(), s=0.1,
                    h=1.0, beta=0.1)
    nxt = AgmState(k=4, X=x.copy(), X_plus=x.copy(), Z=x.copy(), s=0.1,
                   h=1.0, beta=0.1)
    diag = compute_step_diagnostics(prev, nxt, obj, ring5, opt, lam,
                                    oracle_mode="practical")
    for name in ("a", "b", "a_tilde", "b_tilde", "w", "r"):
        assert getattr(diag, name) == pytest.approx(0.0, abs=1e-18)


def test_b_tilde_dominates_w(ring5, flow_quadratic):
    obj, opt = flow_quadratic
    lam = spectral_extremes(ring5).lambda_max
    rng = np.random.default_rng(23)
    for _ in range(100):
        prev = AgmState(k=int(rng.integers(1, 50)),
                        X=rng.standard_normal(10),
                        X_plus=rng.standard_normal(10),
                        Z=rng.standard_normal(10),
                        s=float(rng.uniform(0, 0.3)), h=1.0, beta=0.1)
        nxt = AgmState(k=prev.k + 1, X=rng.standard_normal(10),
                       X_plus=prev.X_plus, Z=prev.Z, s=prev.s, h=1.0,
                       beta=0.1)
        diag = compute_step_diagnostics(prev, nxt, obj, ring5, opt, lam,
                                        "exact")
        assert diag.b_tilde >= abs(2.0 * diag.w) - 1e-12


def make_diag(**kw):
    from distagm.agm import StepDiagnostics
    base = dict(a=0.0, b=0.0, a_tilde=0.0, b_tilde=0.0, w=0.0, r=0.0,
                cap_smooth=10.0)
    base.update(kw)
    return StepDiagnostics(**base)


def test_select_case_bounds():
    diag = select_stepsize(make_diag(a=1.0, b=2.0, w=-1.0, r=1.0),
                           s_k=0.1, A_k=1.0, theta_next=1.0, k=5)
    assert diag.case == "w<=0,r>=0"
    assert diag.chosen == pytest.approx(2.0)
    diag = select_stepsize(make_diag(a=1.0, b=2.0, w=-1.0, r=-2.0),
                           s_k=0.1, A_k=1.0, theta_next=1.0, k=5)
    assert diag.case == "w<=0,r<0"
    assert diag.chosen == pytest.approx(1.0)
    diag = select_stepsize(make_diag(a_tilde=3.0, b_tilde=4.0, w=1.0, r=0.0),
                           s_k=0.1, A_k=1.0, theta_next=1.0, k=5)
    assert diag.case == "w>0,r>=0"
    assert diag.chosen == pytest.approx(3.0)
    diag = select_stepsize(make_diag(a_tilde=1.0, b_tilde=2.0, w=1.0, r=-2.0),
                           s_k=0.1, A_k=1.0, theta_next=1.0, k=5)
    assert diag.case == "w>0,r<0"
    assert diag.chosen == pytest.approx(1.0)


def test_select_cap_and_monotonicity():
    diag = select_stepsize(make_diag(a=1.0, b=2.0, w=-1.0, r=1.0,
                                     cap_smooth=0.5),
                           s_k=0.1, A_k=1.0, theta_next=1.0, k=5)
    assert diag.chosen == pytest.approx(0.5)  # cap binds below the bound
    diag = select_stepsize(make_diag(a=0.01, b=2.0, w=-1.0, r=1.0),
                           s_k=0.1, A_k=1.0, theta_next=1.0, k=5)
    assert not diag.monotonicity_ok  # chosen 0.02 < s_k with k+1 >= 3
    diag = select_stepsize(make_diag(a=-1.0, b=2.0, w=-1.0, r=1.0),
                           s_k=0.1, A_k=1.0, theta_next=1.0, k=5)
    assert np.isnan(diag.chosen)  # negative bound signals infeasibility


def test_select_leaves_diagnostics_untouched():
    diag = make_diag(a=1.0, b=2.0, w=-1.0, r=1.0)
    select_stepsize(diag, s_k=0.1, A_k=1.0, theta_next=1.0, k=5)
    assert diag == make_diag(a=1.0, b=2.0, w=-1.0, r=1.0)


def test_smoothness_cap_formula():
    # cap = 1/max{lam_max, (kh)^{-beta} L_f}
    assert smoothness_cap(4, 2.0, 0.5, 3.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert smoothness_cap(1, 0.01, 1.0, 0.5, 5.0) == pytest.approx(0.01 / 5.0)


def test_lyapunov_zero_at_optimum(ring5, flow_quadratic):
    obj, opt = flow_quadratic
    x = opt.x_star_stacked
    prev = AgmState(k=2, X=x.copy(), X_plus=x.copy(), Z=x.copy(), s=0.2,
                    h=1.0, beta=0.1)
    nxt = AgmState(k=3, X=x.copy(), X_plus=x.copy(), Z=x.copy(), s=0.2,
                   h=1.0, beta=0.1)
    v = lyapunov(prev, nxt, obj, ring5, opt)
    assert v == pytest.approx(0.0, abs=1e-20)


def test_lyapunov_undefined_at_zero_step(ring5, flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic
    prev = AgmState(k=1, X=x0_ring5.copy(), X_plus=x0_ring5.copy(),
                    Z=x0_ring5.copy(), s=0.0, h=1.0, beta=0.1)
    assert np.isnan(lyapunov(prev, prev, obj, ring5, opt))


def test_lyapunov_v0_prime(flow_quadratic, x0_ring5):
    _, opt = flow_quadratic
    r2 = float(np.sum((x0_ring5 - opt.x_star_stacked) ** 2))
    assert lyapunov_v0_prime(x0_ring5, opt, 0.25) == pytest.approx(4.0 * r2)
    with pytest.raises(ValueError):
        lyapunov_v0_prime(x0_ring5, opt, 0.0)


def test_bootstrap_diagnostics_specialization(ring5, flow_quadratic,
                                              x0_ring5):
    obj, opt = flow_quadratic
    lam = spectral_extremes(ring5).lambda_max
    state = init(x0_ring5, h=1.0, beta=0.1)
    boot = bootstrap_diagnostics(state, obj, ring5, opt, lam,
                                 oracle_mode="practical")
    g1 = combined_field(1, x0_ring5, 1.0, 0.1, obj, ring5)
    assert boot.a == 0.0
    assert boot.b == pytest.approx(2.0 * float(g1 @ g1), rel=1e-12)
    assert boot.r == 0.0  # practical mode zeroes the optimum gradient


def test_adaptive_run_bootstrap_row(ring5, controller_quadratic, x0_ring5):
    obj, opt = controller_quadratic
    trace = adaptive_run(PRACTICAL, obj, ring5, x0_ring5, iters=1,
                         opt=opt)
    assert len(trace) == 2
    assert trace.column("case")[0] == "bootstrap"
    lam = spectral_extremes(ring5).lambda_max
    cap1 = smoothness_cap(1, 1.0, 0.1, lam, obj.smoothness)
    assert trace.column("s_k")[1] == pytest.approx(1e-3 * cap1)
    assert float(trace.metadata["s_ref"]) == pytest.approx(1e-3 * cap1)
    # the trace stamps every knob of the run, s1_fraction included
    assert trace.metadata.items() >= asdict(PRACTICAL).items()


def test_cached_scalars_match_fresh_evaluation(ring5, controller_quadratic,
                                               x0_ring5, monkeypatch):
    """The controller and the certificate read each iterate's cost gap,
    Laplacian quadratic and |G|^2 from the evaluation the step stored.
    States rebuilt without it are evaluated afresh and must reproduce the
    trace's w, r, V_k and the chosen step bit for bit."""
    obj, opt = controller_quadratic
    pairs = []
    real_step = agm.step

    def spy(state, *args, **kwargs):
        nxt = real_step(state, *args, **kwargs)
        pairs.append((state, nxt))
        return nxt

    monkeypatch.setattr(agm, "step", spy)
    trace = adaptive_run(PRACTICAL, obj, ring5, x0_ring5, iters=12,
                         opt=opt)
    assert len(pairs) == 12
    lam = spectral_extremes(ring5).lambda_max

    def bare(st):
        return AgmState(k=st.k, X=st.X.copy(), X_plus=st.X_plus.copy(),
                        Z=st.Z.copy(), s=st.s, h=st.h, beta=st.beta)

    w, r, v = (trace.column(c) for c in ("w", "r", "V_k"))
    for prev, nxt in pairs:
        k = prev.k
        fresh_prev, fresh_nxt = bare(prev), bare(nxt)
        diag = compute_step_diagnostics(fresh_prev, fresh_nxt, obj, ring5,
                                        opt, lam, oracle_mode="practical")
        assert (diag.w, diag.r) == (w[k], r[k])
        assert lyapunov(fresh_prev, fresh_nxt, obj, ring5, opt) == v[k]
        chosen = select_stepsize(diag, prev.s, a_coeff(k), theta(k + 1),
                                 k).chosen
        assert chosen == nxt.s


def test_fixed_run_trace_shape(ring5, flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic
    trace = fixed_step_run(FixedParams(h=0.3, beta=0.1), obj, ring5,
                           x0_ring5, iters=0, opt=opt)
    assert len(trace) == 1
    trace = fixed_step_run(FixedParams(h=0.3, beta=0.1), obj, ring5,
                           x0_ring5, iters=25, opt=opt)
    assert len(trace) == 26
    np.testing.assert_array_equal(trace.column("k"), np.arange(26))


def test_divergence_raises_with_trace(ring5, flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic
    with pytest.raises(DivergenceError) as err:
        fixed_step_run(FixedParams(h=1.0, beta=0.1, s=50.0), obj, ring5,
                       x0_ring5, iters=500, opt=opt)
    assert err.value.trace is not None
    assert err.value.iteration >= 1


def test_trace_recorder_guard():
    """The first gap, floored at 1e-12 (1 + |F*|), is the reference; a gap
    above 1e6 times it, or a NaN gap, stops the run with the rows so far."""
    grad = lx = np.zeros(2)
    rec = TraceRecorder({"algorithm": "probe"}, f_star=-999.0)
    rec(0, 0.0, grad, lx, 0.1)  # exact-optimum start: the floor is 1e-9
    rec(1, 5e-4, grad, lx, 0.1)
    with pytest.raises(DivergenceError) as err:
        rec(2, 2e-3, grad, lx, 0.1)
    assert err.value.iteration == 2 and len(err.value.trace) == 3
    rec = TraceRecorder({}, f_star=0.0)
    rec(0, 1.0, grad, lx, 0.1)
    with pytest.raises(DivergenceError) as err:
        rec(1, np.nan, grad, lx, 0.1)
    assert err.value.trace is rec.trace


def test_trace_recorder_hands_over_trace():
    """A DivergenceError raised inside the block, as by step's non-finite
    check, leaves carrying the recorder's partial trace."""
    rec = TraceRecorder({}, f_star=0.0)
    with pytest.raises(DivergenceError) as err, rec:
        rec(0, 1.0, np.zeros(2), np.zeros(2), 0.1)
        raise DivergenceError("non-finite update field", iteration=1)
    assert err.value.trace is rec.trace and len(rec.trace) == 1


def test_unknown_oracle_mode():
    with pytest.raises(ValueError):
        AdaptiveParams(h=1.0, beta=0.1, oracle_mode="psychic")


def test_deterministic_runs(ring5, controller_quadratic, x0_ring5, tmp_path):
    obj, opt = controller_quadratic
    paths = []
    for name in ("a.csv", "b.csv"):
        trace = adaptive_run(PRACTICAL, obj, ring5, x0_ring5, iters=50,
                             opt=opt)
        path = tmp_path / name
        trace.write_csv(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
