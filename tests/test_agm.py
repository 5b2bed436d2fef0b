"""Discrete algorithm: update algebra, controller quantities, certificates."""

from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from distagm import agm, harness
from distagm.agm import (AdaptiveParams, AgmState, DivergenceError,
                         FixedParams, adaptive_run, bootstrap_diagnostics,
                         compute_step_diagnostics, fixed_step_run, init,
                         lyapunov, lyapunov_v0_prime, select_stepsize, step)
from distagm.flow import LEDGER, FlowParams, flow_rhs, integrate
from distagm.graphs import (AgentGraph, apply_lifted_laplacian,
                            build_topology, spectral_extremes)
from distagm.objectives import QuadraticObjective, make_quadratic
from distagm.trace import TraceRecorder
from oracles import (a_coeff, c_coeff, combined_field, exact_r,
                     single_line_update, smoothness_cap, theta)

PRACTICAL = AdaptiveParams(h=1.0, beta=0.1, oracle_mode="practical")
NORMS = TraceRecorder.BASELINE_COLUMNS  # the recorder's vector-form rows
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped_problem(name, edit=lambda cfg: None):
    """The graph, objective, optimum, start, dist_agm parameters and
    iteration budget of a shipped config, after ``edit`` has changed the
    loaded config in place, built as the harness builds them."""
    cfg = harness.load_config(CONFIGS / name)
    edit(cfg)
    settings_ = harness.check_config(cfg, None)
    graph = harness.build_graph(settings_)
    obj, opt, _ = harness.build_problem(settings_, graph)
    x0 = harness.initial_state(settings_, graph, obj)
    return (graph, obj, opt, x0, settings_["algorithms"]["dist_agm"],
            settings_["iters"])


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


def test_step_and_lyapunov_refuse_a_k0_state(ring5, flow_quadratic,
                                              x0_ring5):
    """k = 0 is init's bootstrap: neither a step nor V_k is defined there."""
    obj, opt = flow_quadratic
    k0 = AgmState(0, x0_ring5, x0_ring5, x0_ring5, 0.1, 1.0, 0.1)
    with pytest.raises(ValueError, match="k >= 1"):
        step(k0, obj, ring5, opt)
    with pytest.raises(ValueError, match="k >= 1"):
        lyapunov(k0, init(x0_ring5, 1.0, 0.1), obj, ring5, opt)


def test_init_bootstrap_state():
    x0 = np.array([1.0, -2.0, 0.5, 0.0])
    state = init(x0, h=1.0, beta=0.1)
    assert state.k == 1 and state.s == 0.0
    np.testing.assert_array_equal(state.X, x0)
    np.testing.assert_array_equal(state.Z, x0)
    np.testing.assert_array_equal(state.X_plus, x0)


def test_hand_built_state_owns_its_rows():
    """A state copies X, X_plus and Z into the rows it owns when it is
    made, so that a run can write into it as ``step``'s spare and never
    writes into the caller's arrays."""
    x, x_plus, z = (np.arange(4.0) + i for i in range(3))
    state = AgmState(k=2, X=x, X_plus=x_plus, Z=z, s=0.1, h=1.0, beta=0.1)
    for got, given in ((state.X, x), (state.X_plus, x_plus), (state.Z, z)):
        np.testing.assert_array_equal(got, given)
        assert np.shares_memory(got, state.rows)
        assert not np.shares_memory(got, given)


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
    # w = 0 takes the w <= 0 cases, which read a and b, not a~ and b~
    for r, case, chosen in ((1.0, "w<=0,r>=0", 2.0), (0.0, "w<=0,r>=0", 2.0),
                            (-2.0, "w<=0,r<0", 1.0)):
        diag = select_stepsize(make_diag(a=1.0, b=2.0, a_tilde=3.0,
                                         b_tilde=4.0, w=0.0, r=r),
                               s_k=0.1, A_k=1.0, theta_next=1.0, k=5)
        assert diag.case == case
        assert diag.chosen == pytest.approx(chosen)
    # when r < 0, A_k weighs a and b beside theta_{k+1} (-r): 8 / (4 + 1)
    for w, case in ((-1.0, "w<=0,r<0"), (1.0, "w>0,r<0")):
        diag = select_stepsize(make_diag(a=1.0, b=2.0, a_tilde=1.0,
                                         b_tilde=2.0, w=w, r=-2.0),
                               s_k=0.1, A_k=2.0, theta_next=0.5, k=5)
        assert diag.case == case
        assert diag.chosen == pytest.approx(1.6)


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


def test_select_checks_monotonicity_from_k_2():
    """The chosen step must be at least s_k for k+1 >= 3: a step below s_k
    misses monotonicity at k = 2, the first checked transition, and passes
    at k = 1."""
    diag = make_diag(a=0.01, b=2.0, w=-1.0, r=1.0)  # chosen 0.02 < s_k
    for k, ok in ((1, True), (2, False)):
        choice = select_stepsize(diag, s_k=0.1, A_k=a_coeff(k),
                                 theta_next=theta(k + 1), k=k)
        assert choice.chosen == pytest.approx(0.02)
        assert choice.monotonicity_ok is ok


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


def bits(*values):
    """The bytes of floats, so that NaN equals NaN and 0.0 differs from
    -0.0."""
    return np.array(values, dtype=float).tobytes()


def replay_against_fresh_evaluation(obj, opt, mode, ring5, x0, monkeypatch):
    """Runs 40 adaptive iterations and checks every transition against the
    public functions on states rebuilt without their cached values: w, r,
    V_k, F_gap_plus and the installed step, bit for bit. Returns the
    trace's fallback flags.

    The run writes each new iterate into a state it reuses, so the spy
    copies k, X, X_plus, Z and s of both states when ``step`` is called;
    the step installed in a new state is read from the next call's
    ``state.s``, the last one from the state the last call returned."""
    pairs, last = [], []
    real_step = agm.step

    def bare(st):
        return AgmState(k=st.k, X=st.X.copy(), X_plus=st.X_plus.copy(),
                        Z=st.Z.copy(), s=st.s, h=st.h, beta=st.beta)

    def spy(state, *args, **kwargs):
        prev = bare(state)
        nxt = real_step(state, *args, **kwargs)
        pairs.append([prev, bare(nxt)])
        last[:] = [nxt]
        return nxt

    monkeypatch.setattr(agm, "step", spy)
    trace = adaptive_run(AdaptiveParams(h=1.0, beta=0.1, oracle_mode=mode),
                         obj, ring5, x0, iters=40, opt=opt)
    assert len(pairs) == 40
    for pair, following in zip(pairs, pairs[1:]):
        pair[1].s = following[0].s
    pairs[-1][1].s = last[0].s
    lam = spectral_extremes(ring5).lambda_max

    w, r, v, gap_plus, fallback = (trace.column(c) for c in (
        "w", "r", "V_k", "F_gap_plus", "fallback_flag"))
    for prev, nxt in pairs:
        k = prev.k
        diag = compute_step_diagnostics(bare(prev), bare(nxt), obj, ring5,
                                        opt, lam, oracle_mode=mode)
        assert bits(diag.w, diag.r) == bits(w[k], r[k])
        assert bits(lyapunov(bare(prev), bare(nxt), obj, ring5, opt)) == \
            bits(v[k])
        assert bits(obj.value(nxt.X_plus) - opt.f_star) == bits(gap_plus[k])
        chosen = select_stepsize(diag, prev.s, a_coeff(k), theta(k + 1),
                                 k).chosen
        if fallback[k]:
            assert np.isnan(chosen)
            chosen = min(prev.s, diag.cap_smooth)
        assert bits(chosen) == bits(nxt.s)
    return fallback


def test_cached_scalars_match_fresh_evaluation(ring5, controller_quadratic,
                                               x0_ring5, monkeypatch):
    """The run reads each iterate's oracle values and scalars from the
    state ``step`` evaluated, and each transition's quantities from one
    private call. States rebuilt without them are evaluated afresh by the
    public functions, which must reproduce the trace bit for bit."""
    obj, opt = controller_quadratic
    replay_against_fresh_evaluation(obj, opt, "practical", ring5, x0_ring5,
                                    monkeypatch)


@pytest.mark.parametrize("problem", ["quadratic", "logistic"])
def test_cached_scalars_match_fresh_evaluation_in_exact_mode(
        problem, request, ring5, x0_ring5, monkeypatch):
    """The same replay with the exact optimum gradient in r, and on a
    logistic problem whose optimum gradient is not 0, where the controller
    falls back."""
    obj, opt = request.getfixturevalue(
        "controller_quadratic" if problem == "quadratic" else "ring5_logistic")
    fallback = replay_against_fresh_evaluation(obj, opt, "exact", ring5,
                                               x0_ring5, monkeypatch)
    assert fallback.any() == (problem == "logistic")


def test_exact_mode_r_matches_its_formula(ring5, ring5_logistic, x0_ring5,
                                          monkeypatch):
    """Every row of an exact-mode run on a problem whose optimum gradient g*
    is not 0 reads the r that ``oracles.exact_r`` writes from the formula,
    with G_{k+1} evaluated afresh from the iterate ``step`` made."""
    obj, opt = ring5_logistic
    params = AdaptiveParams(h=1.0, beta=0.1, oracle_mode="exact")
    iterates = [x0_ring5.copy()]  # X_1 = X_0, then X_2, X_3, ...
    real_step = agm.step

    def spy(*args, **kwargs):
        nxt = real_step(*args, **kwargs)
        iterates.append(nxt.X.copy())
        return nxt

    monkeypatch.setattr(agm, "step", spy)
    r = adaptive_run(params, obj, ring5, x0_ring5, iters=40,
                     opt=opt).column("r")
    assert len(r) == len(iterates) == 41
    for k, X in enumerate(iterates):  # r reads 2 to 13 on these rows
        G = combined_field(k + 1, X, params.h, params.beta, obj, ring5)
        assert r[k] == pytest.approx(
            exact_r(k, params.h, params.beta, opt.grad_at_opt, G), rel=1e-12)


def test_transition_quantities_do_not_depend_on_call_order(
        ring5, controller_quadratic, x0_ring5):
    """A transition's quantities read the pair it is given, whatever was
    asked of either state before: the certificate of (X_2, X_3) taken
    first leaves the diagnostics of (X_1, X_2) as fresh states give them."""
    obj, opt = controller_quadratic
    lam = spectral_extremes(ring5).lambda_max
    states = [init(x0_ring5, 1.0, 0.1)]
    states[0].s = 0.01
    for _ in range(2):
        states.append(step(states[-1], obj, ring5, opt, s_next=0.01))

    def bare(st):
        return AgmState(k=st.k, X=st.X.copy(), X_plus=st.X_plus.copy(),
                        Z=st.Z.copy(), s=st.s, h=st.h, beta=st.beta)

    want = compute_step_diagnostics(bare(states[0]), bare(states[1]), obj,
                                    ring5, opt, lam, "practical")
    lyapunov(states[1], states[2], obj, ring5, opt)
    got = compute_step_diagnostics(states[0], states[1], obj, ring5, opt,
                                   lam, "practical")
    assert bits(*got) == bits(*want)


@pytest.mark.parametrize("mode", ["adaptive", "fixed"])
def test_runs_write_into_two_iterate_states(mode, ring5, controller_quadratic,
                                            x0_ring5, monkeypatch):
    """Each run alternates between two iterate states: over 50 iterations
    the states ``step`` returns hold at most 3 distinct row arrays, the
    bootstrap's and two buffers. The spy keeps every array alive, so no
    id is reused by a later allocation."""
    obj, opt = controller_quadratic
    kept = []
    real_step = agm.step

    def spy(*args, **kwargs):
        nxt = real_step(*args, **kwargs)
        kept.append(nxt.rows)
        return nxt

    monkeypatch.setattr(agm, "step", spy)
    if mode == "adaptive":
        adaptive_run(PRACTICAL, obj, ring5, x0_ring5, iters=50, opt=opt)
    else:
        fixed_step_run(FixedParams(h=0.3, beta=0.1), obj, ring5, x0_ring5,
                       iters=50, opt=opt)
    assert len(kept) == 50
    assert len({id(rows) for rows in kept}) <= 3


def test_a_stale_spare_gives_a_fresh_state_s_transitions(
        ring5, controller_quadratic, x0_ring5):
    """``step`` into a spare that still holds another iterate's cached
    ``gram``, ``gap``, ``probe`` and ``weight`` gives the transitions into
    and out of the new state that a fresh state gives, bit for bit. The
    transition out of it is taken first, while a stale ``gram`` would
    still be read."""
    obj, opt = controller_quadratic
    lam = spectral_extremes(ring5).lambda_max

    def second():
        state = init(x0_ring5, 1.0, 0.1)
        state.s = 0.01
        return step(state, obj, ring5, opt, s_next=0.02)

    spare = init(2.0 * x0_ring5, 1.0, 0.1)
    bootstrap_diagnostics(spare, obj, ring5, opt, lam, "exact")
    spare.gap, spare.probe, spare.weight = -1.0, np.nan, 7.0
    spare.gram = [np.nan] * len(spare.gram)
    prev, fresh_prev = second(), second()
    reused = step(prev, obj, ring5, opt, s_next=0.03, spare=spare)
    fresh = step(fresh_prev, obj, ring5, opt, s_next=0.03)
    assert reused is spare and reused.k == fresh.k and reused.s == fresh.s

    def transition(a, b):
        """_transition's floats as bytes, its case and monotonicity flag."""
        out = list(agm._transition(a, b, obj, ring5, opt, lam, "exact"))
        flags = (out.pop(9), out.pop(7))
        return bits(*out), flags

    assert transition(reused, step(reused, obj, ring5, opt, s_next=0.04)) \
        == transition(fresh, step(fresh, obj, ring5, opt, s_next=0.04))
    assert transition(prev, reused) == transition(fresh_prev, fresh)


@pytest.mark.parametrize("problem", ["quadratic", "logistic"])
def test_fixed_run_rows_replay_through_step(problem, request, ring5,
                                            x0_ring5):
    """Every row of a fixed-step run equals one recomputed from the public
    oracles at the iterates ``step`` produces from the same start."""
    obj, opt = request.getfixturevalue(
        "flow_quadratic" if problem == "quadratic" else "ring5_logistic")
    params = FixedParams(h=0.3, beta=0.1)
    trace = fixed_step_run(params, obj, ring5, x0_ring5, iters=25, opt=opt)
    state = init(x0_ring5, params.h, params.beta)
    state.s = params.step_size

    def row(k, X, gap_plus, s_k):
        gap = obj.value(X) - opt.f_star
        return bits(k, gap if gap_plus is None else gap_plus, gap,
                    np.linalg.norm(obj.grad(X)),
                    np.linalg.norm(apply_lifted_laplacian(ring5, obj.d, X)),
                    s_k)

    want = [row(0, state.X, None, 0.0)]
    for _ in range(25):
        nxt = step(state, obj, ring5, opt, s_next=params.step_size)
        want.append(row(state.k, state.X,
                        obj.value(nxt.X_plus) - opt.f_star, params.step_size))
        state = nxt
    cols = ("k", "F_gap_plus", "F_gap", "grad_norm", "laplacian_norm", "s_k")
    got = [bits(*vals) for vals in zip(*(trace.column(c) for c in cols))]
    assert got == want


def test_fixed_run_trace_shape(ring5, flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic
    trace = fixed_step_run(FixedParams(h=0.3, beta=0.1), obj, ring5,
                           x0_ring5, iters=0, opt=opt)
    assert len(trace) == 1
    trace = fixed_step_run(FixedParams(h=0.3, beta=0.1), obj, ring5,
                           x0_ring5, iters=25, opt=opt)
    assert len(trace) == 26
    np.testing.assert_array_equal(trace.column("k"), np.arange(26))


def test_fixed_params_copied_with_a_new_h_step_at_its_square(
        ring5, x0_ring5, tmp_path):
    """A copy of FixedParams with a new h, and s left None, steps at the new
    h^2 and stamps it as s: its trace is byte for byte that of the same
    parameters built fresh, on the dilated problem of the symmetry test
    below. An h whose square overflows is refused."""
    obj = make_quadratic(5, 2, cond=10.0, seed=3)
    obj = QuadraticObjective(obj.Qs / 2, obj.bs)
    opt = obj.closed_form_optimum()
    graph = AgentGraph(ring5.m, ring5.edges, ring5.laplacian / 4)
    copied = replace(FixedParams(h=0.4, beta=1.0), h=0.8)
    assert copied == FixedParams(h=0.8, beta=1.0)
    written = []
    for i, params in enumerate((copied, FixedParams(h=0.8, beta=1.0))):
        trace = fixed_step_run(params, obj, graph, x0_ring5, 50, opt)
        assert trace.metadata["s"] == 0.8 * 0.8
        trace.write_csv(tmp_path / f"{i}.csv")
        written.append((tmp_path / f"{i}.csv").read_bytes())
    assert written[0] == written[1]
    with pytest.raises(ValueError, match=r"step s .* h\^2 = inf"):
        FixedParams(h=1e200)


@pytest.mark.parametrize("common_offset", [True, False],
                         ids=["common_offset", "no_common_offset"])
def test_fixed_step_converges_to_the_flow(ring5, x0_ring5, common_offset):
    """The fixed-step method at s = h^2 discretizes the flow at t = k h,
    the time scaling of Su, Boyd & Candes (2016). On energy_conservation.
    yaml's problem, with beta = 0.1 and k_gain = 1, X_k at k = 4/h is
    compared with X(4) from RK4 through ``flow_rhs``, stepping min(1e-3,
    0.05 t) from t0 = 1e-4 with V0 = 0. The relative errors measured 0.140,
    0.082, 0.045 and 0.023 at h = 0.2, 0.1, 0.05 and 0.025 (0.105 to 0.017
    without the common minimizer): halving ratios of 1.72 to 1.91, order 1.
    Each ratio must be at least 1.6."""
    obj = make_quadratic(5, 2, cond=10.0, seed=7)
    if common_offset:
        obj = QuadraticObjective(obj.Qs, np.tile([0.3, -0.2], (5, 1)))
    opt = obj.closed_form_optimum()
    params = FlowParams(beta=0.1, k_gain=1.0, t0=1e-4, horizon=4.0)

    def rhs(t, Y):
        return flow_rhs(t, Y, params, obj, ring5)

    t, Y = params.t0, np.concatenate((x0_ring5, np.zeros(10)))
    while t < params.horizon:
        dt = min(1e-3, 0.05 * t, params.horizon - t)
        k1 = rhs(t, Y)
        k2 = rhs(t + dt / 2, Y + dt / 2 * k1)
        k3 = rhs(t + dt / 2, Y + dt / 2 * k2)
        k4 = rhs(t + dt, Y + dt * k3)
        Y = Y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    x_flow = Y[:10]
    errors = []
    for h in (0.2, 0.1, 0.05, 0.025):
        state = init(x0_ring5, h, params.beta)  # X_1 = X_0 sits at t = h
        state.s = h * h
        for _ in range(round(params.horizon / h) - 1):
            state = step(state, obj, ring5, opt, s_next=h * h)
        assert state.k * h == pytest.approx(params.horizon)
        errors.append(np.linalg.norm(state.X - x_flow)
                      / np.linalg.norm(x_flow))
    ratios = np.array(errors[:-1]) / errors[1:]
    assert np.all(ratios >= 1.6), (errors, ratios)


@pytest.mark.parametrize("common_offset,curvature",
                         [(True, 1.0), (False, 1.0), (False, 64.0)],
                         ids=["common_offset", "no_common_offset",
                              "curvature_x64"])
def test_discrete_dilation_symmetry(ring5, x0_ring5, common_offset,
                                    curvature):
    """At beta = 1, h -> 2h with F -> F/2 and L -> L/4 leaves the iterates
    unchanged: the field G = (k h)^-beta gradF + L X scales by 1/4 and the
    step s by 4, so every update s G, and with it X_k, keeps its bits (each
    factor is a power of two). So the scaled run's trace is the original's
    with F_gap, F_gap_plus and grad_norm times 1/2, s_k times 4, V_k and
    laplacian_norm times 1/4, r and w times 1/16, and the same case labels
    and flags: the adaptive run at h 1 -> 2 in both oracle modes, and the
    fixed run at h 0.4 -> 0.8 (at h = 1 it diverges at k = 10). The check
    pins the powers of k, h and s; a constant factor common to both runs is
    invisible to it. With the Hessians times 64 the smoothness term of the
    step cap, (k h)^-beta L_f, exceeds lambda_max on the first 17 of the
    500 steps, so the cap's power of the weight is pinned too; the
    adaptive runs alone are compared there."""
    obj = make_quadratic(5, 2, cond=10.0, seed=3)
    bs = np.tile(obj.bs[0], (5, 1)) if common_offset else obj.bs
    obj = QuadraticObjective(obj.Qs * curvature, bs)
    scaled = QuadraticObjective(obj.Qs / 2, bs)
    graph = AgentGraph(ring5.m, ring5.edges, ring5.laplacian / 4)
    runs = [(adaptive_run, AdaptiveParams(h=1.0, beta=1.0, oracle_mode=mode),
             AdaptiveParams(h=2.0, beta=1.0, oracle_mode=mode))
            for mode in ("exact", "practical")]
    if curvature == 1.0:
        runs.append((fixed_step_run, FixedParams(h=0.4, beta=1.0),
                     FixedParams(h=0.8, beta=1.0)))
    factors = {"F_gap": 0.5, "F_gap_plus": 0.5, "s_k": 4.0, "V_k": 0.25,
               "r": 1 / 16, "grad_norm": 0.5, "laplacian_norm": 0.25,
               "w": 1 / 16}
    for run, params, dilated_params in runs:
        base = run(params, obj, ring5, x0_ring5, 500,
                   obj.closed_form_optimum())
        dilated = run(dilated_params, scaled, graph, x0_ring5, 500,
                      scaled.closed_form_optimum())
        assert len(base) == len(dilated) == 501
        for name, factor in factors.items():
            assert np.array_equal(dilated.column(name),
                                  factor * base.column(name),
                                  equal_nan=True), (run.__name__, name)
        for name in ("case", "monotonicity_ok", "fallback_flag"):
            assert list(dilated.column(name)) == list(base.column(name))


def test_divergence_raises_with_trace(ring5, flow_quadratic, x0_ring5):
    obj, opt = flow_quadratic
    with pytest.raises(DivergenceError) as err:
        fixed_step_run(FixedParams(h=1.0, beta=0.1, s=50.0), obj, ring5,
                       x0_ring5, iters=500, opt=opt)
    assert err.value.trace is not None
    assert err.value.at >= 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_update_field_raises_with_trace(ring5, x0_ring5):
    """A step so large that the iterate overflows stops the run in ``step``,
    before it is applied, and the recorder hands the rows so far to the
    error: here the field at k = 2 is not finite, and rows k = 0 and 1 are
    kept."""
    obj = make_quadratic(5, 2, cond=10.0, seed=3)
    with pytest.raises(DivergenceError, match="non-finite update") as err:
        fixed_step_run(FixedParams(h=1.0, beta=0.1, s=1e308), obj, ring5,
                       x0_ring5, iters=20, opt=obj.closed_form_optimum())
    assert err.value.at == 2
    assert list(err.value.trace.column("k")) == [0, 1]


def test_trace_recorder_guard():
    """The first gap, floored at 1e-12 (1 + |F*|), is the reference; a gap
    above 1e6 times it, or a NaN gap, stops the run with the rows so far."""
    grad = lx = np.zeros(2)
    rec = TraceRecorder(NORMS, {"algorithm": "probe"}, f_star=-999.0)
    rec(0, 0.0, grad, lx)  # exact-optimum start: the floor is 1e-9
    rec(1, 5e-4, grad, lx)
    with pytest.raises(DivergenceError) as err:
        rec(2, 2e-3, grad, lx)
    assert err.value.at == 2 and len(err.value.trace) == 3
    rec = TraceRecorder(NORMS, {}, f_star=0.0)
    rec(0, 1.0, grad, lx)
    with pytest.raises(DivergenceError) as err:
        rec(1, np.nan, grad, lx)
    assert err.value.trace is rec.trace


def test_trace_recorder_refuses_an_infinite_first_gap():
    """A start whose cost overflows (gap inf) stops the run at k = 0: as the
    reference it would put every later gap, inf included, in bounds."""
    grad = lx = np.zeros(2)
    rec = TraceRecorder(NORMS, {}, f_star=0.0)
    with pytest.raises(DivergenceError) as err:
        rec(0, np.inf, grad, lx)
    assert err.value.at == 0 and len(err.value.trace) == 1
    # a finite first gap whose limit overflows still stops a later inf
    rec = TraceRecorder(NORMS, {}, f_star=0.0)
    rec(0, 1e303, grad, lx)
    with pytest.raises(DivergenceError):
        rec(1, np.inf, grad, lx)


def test_trace_recorder_norms_match_linalg_norm():
    """The recorded norms have the bits of ``np.linalg.norm``, for stacked
    vectors, strided vector views and agent blocks in either memory
    order."""
    rng = np.random.default_rng(5)
    for scale in 10.0 ** np.arange(-150, 151, 25):
        blocks = scale * rng.standard_normal((5, 2))
        for grad, lx in ((blocks.reshape(-1), blocks[::-1].reshape(-1)),
                         (blocks[:, 0], blocks[::-1, 1]),
                         (blocks, np.asfortranarray(blocks))):
            rec = TraceRecorder(NORMS, {}, f_star=0.0)
            rec(0, 1.0, grad, lx)
            assert rec.trace.column("grad_norm")[0] == np.linalg.norm(grad)
            assert rec.trace.column("laplacian_norm")[0] == np.linalg.norm(lx)


def test_trace_recorder_hands_over_trace():
    """A DivergenceError raised inside the block, as by step's non-finite
    check, leaves carrying the recorder's partial trace."""
    rec = TraceRecorder(NORMS, {}, f_star=0.0)
    with pytest.raises(DivergenceError) as err, rec:
        rec(0, 1.0, np.zeros(2), np.zeros(2))
        raise DivergenceError("non-finite update field", at=1)
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


# Random common-minimizer quadratics on four graph kinds: the draws of the
# family tests below, one fixed hypothesis seed for all of them.
common_minimizer_draws = given(
    kind=st.sampled_from(["ring", "path", "star", "complete"]),
    m=st.integers(3, 7), d=st.integers(1, 3),
    scale=st.floats(1e-2, 10.0), cond=st.floats(1.0, 100.0),
    h=st.floats(0.3, 10.0), beta=st.floats(0.05, 1.5),
    problem_seed=st.integers(0, 2 ** 16),
    start_seed=st.integers(0, 2 ** 16))


def common_minimizer_problem(kind, m, d, scale, cond, problem_seed,
                             start_seed):
    """The graph, objective, optimum and start of one family draw."""
    graph = build_topology(kind, m)
    rng = np.random.default_rng(start_seed)
    base = make_quadratic(m, d, cond=cond, seed=problem_seed, scale=scale)
    obj = QuadraticObjective(base.Qs,
                             np.tile(rng.standard_normal(d), (m, 1)))
    return graph, obj, obj.closed_form_optimum(), 1.5 * rng.standard_normal(
        m * d)


@seed(9)
@settings(max_examples=30, deadline=None, database=None)
@common_minimizer_draws
def test_certificate_holds_across_common_minimizer_quadratics(
        kind, m, d, scale, cond, h, beta, problem_seed, start_seed):
    """Criteria 4 and 5 as properties of a problem family: random
    common-minimizer quadratics on four graph kinds, 1000 practical-mode
    adaptive iterations each. Above the floor F_gap > 1e-20 F_gap_0, where
    the double-precision noise floor is still far, a run has no fallback,
    a V_k non-increasing within 1 + 1e-9, and the pointwise bound
    F_gap_plus <= 2 h^beta |X_0 - x*|^2 / (s_ref k^(2 - beta)). 30 draws
    measured 0 failures and a worst bound ratio of 6e-3, in 0.8 s."""
    graph, obj, opt, x0 = common_minimizer_problem(
        kind, m, d, scale, cond, problem_seed, start_seed)
    trace = adaptive_run(AdaptiveParams(h=h, beta=beta,
                                        oracle_mode="practical"),
                         obj, graph, x0, iters=1000, opt=opt)
    k, gap, gap_plus, v, fallback = (trace.column(c) for c in (
        "k", "F_gap", "F_gap_plus", "V_k", "fallback_flag"))
    above = (gap > 1e-20 * gap[0]) & (k >= 1)
    assert not fallback[above].any()
    rises = v[2:] > v[1:-1] * (1.0 + 1e-9)
    assert not (rises & above[2:]).any()
    r2 = float(np.sum((x0 - opt.x_star_stacked) ** 2))
    bound = 2.0 * h ** beta * r2 / (float(trace.metadata["s_ref"])
                                    * k[above] ** (2.0 - beta))
    assert np.all(gap_plus[above] <= bound * (1.0 + 1e-9))


@seed(9)
@settings(max_examples=30, deadline=None, database=None)
@common_minimizer_draws
def test_flow_conserves_energy_across_common_minimizer_quadratics(
        kind, m, d, scale, cond, h, beta, problem_seed, start_seed):
    """Criteria 1 and 2 on the same draws (h, the discrete step, is not
    read): the DOP853 flow from t0 = 1 to t = 10 at rtol 1e-8, every
    accepted point recorded, from V0 = 0. Its max relative drift of
    E_total is at most 5 rtol, and no ledger term falls below
    -1e-9 (1 + |E_total|), the bound ``energy-check`` uses. 30 draws
    measured a worst drift of 0.65 rtol and no negative term, in 0.4 s."""
    graph, obj, opt, x0 = common_minimizer_problem(
        kind, m, d, scale, cond, problem_seed, start_seed)
    params = FlowParams(beta=beta, t0=1.0, horizon=10.0, record_every=1,
                        rtol=1e-8)
    trace = integrate(params, obj, graph, x0, np.zeros_like(x0), opt)
    totals = trace.column("E_total")
    drift = np.max(np.abs(totals - totals[0])) / abs(totals[0])
    assert drift <= 5.0 * params.rtol
    terms = np.array([trace.column(c) for c in LEDGER])
    assert np.all(terms >= -1e-9 * (1.0 + np.abs(totals)))


def test_logistic_compare_fallbacks_come_from_a_negative_gap():
    """On logistic_compare.yaml's problem the agents' minimizers differ
    (g* != 0), the signed gap turns negative, and with it the controller's
    a: dist_agm falls back 1895 times, first at k = 106, and every fallback
    row has F_gap < 0."""
    graph, obj, opt, x0, params, iters = shipped_problem(
        "logistic_compare.yaml")
    trace = adaptive_run(params, obj, graph, x0, iters, opt)
    fallback = trace.column("fallback_flag").astype(bool)
    assert int(fallback.sum()) == 1895
    assert int(trace.column("k")[fallback][0]) == 106
    assert np.all(trace.column("F_gap")[fallback] < 0.0)


def test_discrete_rate_without_a_common_minimizer_falls_back():
    """discrete_rate.yaml's problem without ``common_offset`` (|g*| =
    0.0316), run for 2000 iterations: the signed gap turns negative on 1805
    rows, every fallback row among them. The controller falls back 1581
    times, first at k = 297, misses monotonicity 1606 times, and V_k is
    negative on 1316 rows with k >= 1."""
    def edit(cfg):
        del cfg["problem"]["common_offset"]
        cfg["iters"] = 2000

    graph, obj, opt, x0, params, iters = shipped_problem(
        "discrete_rate.yaml", edit)
    assert np.linalg.norm(opt.grad_at_opt) == pytest.approx(0.0316, rel=1e-3)
    trace = adaptive_run(params, obj, graph, x0, iters, opt)
    k, gap, v = (trace.column(c) for c in ("k", "F_gap", "V_k"))
    fallback = trace.column("fallback_flag").astype(bool)
    assert int(fallback.sum()) == 1581
    assert int(k[fallback][0]) == 297
    assert int((trace.column("monotonicity_ok") == 0).sum()) == 1606
    assert int((gap < 0.0).sum()) == 1805
    assert np.all(gap[fallback] < 0.0)
    assert int((v[k >= 1] < 0.0).sum()) == 1316


def test_step_choice_reads_f_star():
    """The controller's a holds the cost gaps F(X_k) - F*, so the adaptive
    step reads F*, in practical oracle mode too. On discrete_rate.yaml's
    problem, raising F* by 1e-6 leaves the bootstrap's s_1 and changes
    s_k from k = 2 on."""
    graph, obj, opt, x0, params, _ = shipped_problem("discrete_rate.yaml")
    assert params.oracle_mode == "practical"
    s_k = adaptive_run(params, obj, graph, x0, 200, opt).column("s_k")
    shifted = replace(opt, f_star=opt.f_star + 1e-6)
    s_shifted = adaptive_run(params, obj, graph, x0, 200,
                             shifted).column("s_k")
    assert np.array_equal(s_k[:2], s_shifted[:2])
    assert s_k[2] != s_shifted[2]
