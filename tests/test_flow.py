"""Continuous flow: dynamics, energy ledger, integrator order, slope fits."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distagm import flow
from distagm.flow import (_DOP853, _RK4, LEDGER, FlowParams, _evaluate,
                          _ledger_rates, energy_at, flow_rhs, integrate,
                          rate_slope)
from distagm.graphs import apply_lifted_laplacian, build_topology
from distagm.objectives import (LogisticObjective, QuadraticObjective,
                                make_quadratic, solve_consensus_optimum)
from distagm.trace import DivergenceError, RunTrace
from oracles import flow_rhs_per_agent, polyfit_line

# |closed-form fit - polyfit| on the slope, relative to max(|slope|, 1), and
# on R^2, which lies in [0, 1]. Over 2*10^4 random draws from the ranges of
# test_rate_slope_matches_polyfit the largest measured were 1.6e-14 and
# 2.6e-13 relative (2e-16 absolute).
FIT_BOUND = 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        FlowParams(beta=2.5)
    with pytest.raises(ValueError):
        FlowParams(beta=0.1, dt=-1.0)
    with pytest.raises(ValueError):
        FlowParams(beta=0.1, t0=60.0, horizon=50.0)
    with pytest.raises(ValueError, match="record_every"):
        FlowParams(record_every=0)
    for rtol in (0.0, -1e-8, float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match="rtol"):
            FlowParams(rtol=rtol)
    assert FlowParams(rtol="1e-8").rtol == 1e-8  # YAML reads 1e-8 as a str


@pytest.mark.parametrize("tableau", [_RK4, _DOP853], ids=["rk4", "dop853"])
def test_tableau_is_consistent(tableau):
    """Each stage time is its row sum, the step's weights sum to 1 and each
    error row's to 0, and DOP853's last stage is the step itself (FSAL), so
    its weight there is 0. Every coefficient is a float within an ulp of its
    exact value, so a sum holds within 2^-52 times the magnitudes it adds.
    RK4's are the floats nearest its exact fractions."""
    def exact(row):
        return [Fraction(x) for x in row]

    def sums_to(total, row):
        return (abs(total - sum(row, Fraction(0)))
                <= Fraction(1, 2 ** 52) * sum(map(abs, row)))

    c, b, e = exact(tableau.c), exact(tableau.b), [exact(r) for r in tableau.e]
    a = [exact(row) for row in tableau.a]
    assert len(c) == len(a) and [len(row) for row in a] == list(range(len(a)))
    assert all(sums_to(c_i, row) for c_i, row in zip(c, a))
    assert sums_to(1, b)
    if tableau is _RK4:
        want = ("0 1/2 1/2 1", "", "1/2", "0 1/2", "0 0 1", "1/6 1/3 1/3 1/6")
        for row, fractions in zip((tableau.c, *tableau.a, tableau.b), want,
                                  strict=True):
            for x, q in zip(row, map(Fraction, fractions.split()),
                            strict=True):
                assert abs(Fraction(x) - q) <= Fraction(math.ulp(x)) / 2
        assert e == [] and len(b) == 4
    else:
        assert len(b) == len(a) == 13 and len(e) == 2
        assert all(len(row) == 13 and sums_to(0, row) for row in e)
        assert a[-1] == b[:-1] and b[-1] == 0


def test_dop853_is_eighth_order():
    """DOP853's step, taken at a fixed step from its tableau alone, on
    y' = y cos t from y(0) = 1 to t = 2 (exactly exp(sin t)): halving 2/3
    twice cuts the error by 2^7.5 or more each time. The errors, about
    1.2e-7, 4.2e-10 and 1.6e-12, stay far above the rounding floor."""
    a = [[float(x) for x in row] for row in _DOP853.a]
    b = [float(x) for x in _DOP853.b]
    c = [float(x) for x in _DOP853.c]

    def error(steps):
        h, y = 2.0 / steps, 1.0
        for n in range(steps):
            t, K = n * h, []
            for c_i, row in zip(c[:-1], a[:-1]):
                K.append(math.cos(t + c_i * h)
                         * (y + h * sum(w * k for w, k in zip(row, K))))
            y += h * sum(w * k for w, k in zip(b, K))
        return abs(y - math.exp(math.sin(2.0)))

    errors = [error(steps) for steps in (3, 6, 12)]
    assert errors[-1] > 1e-14
    for coarse, fine in zip(errors, errors[1:]):
        assert math.log2(coarse / fine) >= 7.5


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


@pytest.fixture(scope="module")
def ring5_logistic():
    """A small ring-of-five logistic problem in R^2 with its optimum."""
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((40, 2))
    labels = (feats[:, 0] + 0.5 * rng.standard_normal(40) > 0).astype(float)
    obj = LogisticObjective(np.array_split(feats, 5),
                            np.array_split(labels, 5), l2=1e-2)
    return obj, solve_consensus_optimum(obj)


# (problem fixture, params.dt, startup_dt_fraction): one step of dt = 1/8
# from t0 = 1.25, either the configured dt or a ramp step below it
ONE_STEP_CASES = {
    "quadratic": ("flow_quadratic", 0.125, 1.0),
    "logistic": ("ring5_logistic", 0.125, 1.0),
    "ramp": ("flow_quadratic", 0.5, 0.1),
}


@pytest.mark.parametrize("problem,params_dt,fraction",
                         ONE_STEP_CASES.values(), ids=ONE_STEP_CASES)
def test_one_step_matches_rk4_from_flow_rhs(problem, params_dt, fraction,
                                            request, ring5, x0_ring5):
    """One integrator step against classical RK4 assembled from four
    ``flow_rhs`` calls and the ledger written out from its definitions; the
    three integrals take the same RK4 step over their integrands."""
    obj, opt = request.getfixturevalue(problem)
    params = FlowParams(beta=0.3, k_gain=1.7, t0=1.25, dt=params_dt,
                        horizon=1.375, record_every=1)
    V0 = 0.4 * np.random.default_rng(3).standard_normal(10)
    trace = integrate(params, obj, ring5, x0_ring5, V0, opt,
                      startup_dt_fraction=fraction)
    assert len(trace) == 2
    assert (trace.metadata["steps"], trace.metadata["rejected"]) == (1, 0)

    t0, dt = params.t0, 0.125
    assert dt == min(params.dt, fraction * t0)
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

    # the integrals are RK4's too, over the integrands at the four stages
    stages = [point(t0, Y0), point(t0 + dt / 2, Y0 + dt / 2 * k1),
              point(t0 + dt / 2, Y0 + dt / 2 * k2), point(t0 + dt, Y0 + dt * k3)]
    rates = [integrands for _, integrands in stages]
    rows = [stages[0], point(t0 + dt, Y1)]
    integrals = [np.zeros(3), dt / 6 * (rates[0] + 2 * rates[1] + 2 * rates[2]
                                        + rates[3])]
    for k, ((row, _), acc) in enumerate(zip(rows, integrals)):
        row.update(E_int_laplacian=acc[0], E_int_bregman=acc[1],
                   E_int_beta=acc[2])
        row["E_total"] = sum(v for name, v in row.items()
                             if name.startswith("E_"))
        for name, want in row.items():
            got = trace.column(name)[k]
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (k, name)


def heterogeneous_problem(family, seed):
    """A ring-of-five problem in R^2 whose agents' minimizers differ, so
    the optimum gradient g* is not zero, with its optimum."""
    if family == "quadratic":
        obj = make_quadratic(5, 2, seed=seed)
        opt = obj.closed_form_optimum()
    else:
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((40, 2))
        labels = (feats[:, 0] + 0.5 * rng.standard_normal(40) > 0)
        obj = LogisticObjective(np.array_split(feats, 5),
                                np.array_split(labels.astype(float), 5),
                                l2=1e-2)
        opt = solve_consensus_optimum(obj)
    assert np.abs(opt.grad_at_opt).max() > 1e-3
    return obj, opt


@given(family=st.sampled_from(["quadratic", "logistic"]),
       seed=st.integers(0, 2 ** 16), beta=st.floats(0.01, 1.99),
       k_gain=st.floats(0.1, 5.0), log_t=st.floats(-2.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_ledger_derivative_balances_integrands(ring5, family, seed, beta,
                                               k_gain, log_t):
    """The conservation law as a pointwise identity: along the dynamics,
    d/dt (E_kinetic + E_laplacian + E_potential) equals minus the sum of
    the three integrands, for any smooth F and with g* != 0. dV comes from
    ``flow_rhs``, the integrands from the integrator's ledger rates,
    and the derivatives are written from the terms' definitions. Over 400
    random states the worst residual measured 6.4e-15 of the sum of the six
    magnitudes."""
    obj, opt = heterogeneous_problem(family, seed)
    params = FlowParams(beta=beta, k_gain=k_gain)
    t = 10.0 ** log_t
    X, V = np.random.default_rng(seed + 1).standard_normal((2, 10))
    dV = flow_rhs(t, np.concatenate((X, V)), params, obj, ring5)[10:]
    xbar = X - opt.x_star_stacked
    grad = obj.grad(X)
    lx = apply_lifted_laplacian(ring5, obj.d, X)
    gap = obj.value(X) - opt.f_star
    # E_kinetic = |t V + 2 xbar|^2 / 2, E_laplacian = k t^2 xbar.L xbar / 2
    # and E_potential = t^{2-beta} gap, with dX = V and L x* = 0
    d_kinetic = (t * V + 2.0 * xbar).dot(3.0 * V + t * dV)
    d_laplacian = k_gain * t * xbar.dot(lx) + k_gain * t ** 2 * V.dot(lx)
    d_potential = ((2.0 - beta) * t ** (1.0 - beta) * gap
                   + t ** (2.0 - beta) * grad.dot(V))
    terms = (d_kinetic, d_laplacian, d_potential,
             *_ledger_rates(t, _evaluate(X, obj, ring5, opt), params,
                            t ** -params.beta))
    assert abs(sum(terms)) <= 1e-13 * sum(abs(term) for term in terms)


def test_controlled_step_conserves_energy(ring5, flow_quadratic, x0_ring5):
    """energy_conservation.yaml's problem under the DOP853 step at rtol
    1e-8, every accepted point recorded: 172 steps and 2 rejections
    measured, with a drift of 4.31e-9 against 1.94e-7 for the fixed RK4 step
    at dt = 1e-3. No ledger term is negative at any accepted point."""
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.1, t0=1.0, dt=1e-3, horizon=50.0,
                        record_every=1, rtol=1e-8)
    trace = integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt)
    totals = trace.column("E_total")
    assert np.max(np.abs(totals - totals[0])) / totals[0] <= 1e-8
    for col in LEDGER:
        assert trace.column(col).min() >= 0.0, col
    assert trace.metadata["steps"] == len(trace) - 1
    assert 0 < trace.metadata["rejected"] < trace.metadata["steps"] < 400
    assert trace.column("t")[-1] == params.horizon


@pytest.mark.parametrize("rtol", [None, 1e-8], ids=["rk4", "dop853"])
def test_last_row_at_a_long_horizon(ring5, flow_quadratic, x0_ring5, rtol):
    """The last accepted step is recorded when its count is no multiple of
    record_every, also at a horizon of 16 or more, where horizon - 1e-15
    rounds to the horizon itself (380 RK4 and 69 DOP853 steps measured)."""
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.1, t0=1.0, dt=0.05, horizon=20.0,
                        record_every=7, rtol=rtol)
    trace = integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt)
    assert trace.metadata["steps"] % params.record_every != 0
    assert trace.column("t")[-1] == params.horizon


@pytest.mark.parametrize("beta,c", [(1.0, 2.0), (0.5, 4.0)],
                         ids=["beta1-c2", "beta0.5-c4"])
def test_flow_dilation_symmetry(ring5, x0_ring5, beta, c):
    """Time t = c tau maps the flow to the one with cost c^(2-beta) F and
    gain c^2 k_gain, started at t0 / c with velocity c V0. With c and
    c^(2-beta) powers of two, RK4 at dt / c keeps every stage point's bits,
    so the dilated run's t is the original's over c, its F_gap and
    grad_norm are c^(2-beta) times the original's and its laplacian_norm is
    the same, bit for bit. The ledger is invariant: each term and E_total
    agree within 2 ulp, its products being rounded at other scales. The
    check pins the powers of t in the dynamics and the ledger; a constant
    factor common to both runs is invisible to it."""
    obj = make_quadratic(5, 2, cond=10.0, seed=3)  # g* is not 0
    gain = c ** (2.0 - beta)
    dilated_obj = QuadraticObjective(obj.Qs * gain, obj.bs)
    V0 = 0.5 * np.random.default_rng(4).standard_normal(10)
    params = FlowParams(beta=beta, t0=1.0, dt=1e-2, horizon=20.0)
    base = integrate(params, obj, ring5, x0_ring5, V0,
                     obj.closed_form_optimum())
    dilated = integrate(
        replace(params, k_gain=c * c, t0=1.0 / c, dt=1e-2 / c,
                horizon=20.0 / c),
        dilated_obj, ring5, x0_ring5, c * V0,
        dilated_obj.closed_form_optimum())
    assert dilated.metadata["steps"] == base.metadata["steps"] == 1900
    for name, factor in (("t", 1.0 / c), ("F_gap", gain),
                         ("grad_norm", gain), ("laplacian_norm", 1.0)):
        assert np.array_equal(dilated.column(name),
                              factor * base.column(name)), name
    for name in ("E_total", *LEDGER):
        got, want = dilated.column(name), base.column(name)
        ulp = np.spacing(np.maximum(np.abs(got), np.abs(want)))
        assert np.all(np.abs(got - want) <= 2 * ulp), name


def test_controlled_step_tightens_with_rtol(ring5, flow_quadratic, x0_ring5):
    """The drift is the integrator's error: rtol 10x tighter cuts it about
    10x (4.27e-8 and 4.31e-9 measured at 1e-7 and 1e-8) at more steps."""
    obj, opt = flow_quadratic

    def run(rtol):
        params = FlowParams(beta=0.1, t0=1.0, dt=1e-3, horizon=50.0,
                            record_every=1, rtol=rtol)
        trace = integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt)
        totals = trace.column("E_total")
        return (np.max(np.abs(totals - totals[0])) / totals[0],
                trace.metadata["steps"])

    (loose, loose_steps), (tight, tight_steps) = run(1e-7), run(1e-8)
    assert loose / tight >= 5.0
    assert tight_steps > loose_steps


def test_controlled_step_from_tiny_t0(ring5, flow_quadratic, x0_ring5):
    """From t0 = 1e-3 the error control shrinks the trial step dt = 5e-3
    where the 3/t damping needs it, with no start-up ramp, and the
    rate bound of the small-t0 start holds on every accepted point."""
    obj, opt = flow_quadratic
    params = FlowParams(beta=0.1, t0=1e-3, dt=5e-3, horizon=50.0,
                        record_every=1, rtol=1e-7)
    trace = integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt)
    ts, gaps = trace.column("t"), trace.column("F_gap")
    assert trace.metadata["rejected"] >= 1
    assert ts[1] - ts[0] < params.dt
    assert np.all(ts ** (2.0 - params.beta) * gaps
                  <= trace.column("E_total")[0] * 1.01)


def test_controlled_step_underflow_raises(ring5, flow_quadratic, x0_ring5,
                                          monkeypatch):
    """A controlled step whose stages stop being finite is retried smaller
    until it no longer moves t, then raises DivergenceError at the last
    accepted point, with the step counts so far in its trace's metadata."""
    obj, opt = flow_quadratic
    calls = []
    apply = flow.apply_lifted_laplacian

    def failing(graph, d, X, out=None):
        out = apply(graph, d, X, out)
        calls.append(None)
        if len(calls) > 30:
            out[0] = np.nan
        return out

    monkeypatch.setattr(flow, "apply_lifted_laplacian", failing)
    params = FlowParams(beta=0.1, t0=1.0, dt=1e-2, horizon=5.0,
                        record_every=1, rtol=1e-8)
    recorded = []
    append = RunTrace.append

    def spy(self, *row):
        recorded.append(row[0])  # t
        append(self, *row)

    monkeypatch.setattr(RunTrace, "append", spy)
    with pytest.raises(DivergenceError, match="underflow") as err:
        integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt)
    assert len(recorded) > 1
    assert err.value.at == recorded[-1]
    metadata = err.value.trace.metadata
    assert metadata["steps"] == len(recorded) - 1 and metadata["rejected"] > 0


def test_controlled_step_rejects_a_non_finite_new_point(
        ring5, flow_quadratic, x0_ring5, monkeypatch):
    """DOP853's error rows give the new point's slope the weight 0, and
    0 * NaN is NaN: a step whose new point alone evaluates to NaN is
    rejected and retried smaller, and no NaN reaches the trace."""
    obj, opt = flow_quadratic
    calls = []
    apply = flow.apply_lifted_laplacian

    def failing(graph, d, X, out=None):
        out = apply(graph, d, X, out)
        calls.append(None)
        if len(calls) == 1 + 2 * 12:  # the second attempt's new point
            out[0] = np.nan
        return out

    monkeypatch.setattr(flow, "apply_lifted_laplacian", failing)
    params = FlowParams(beta=0.1, t0=1.0, dt=1e-3, horizon=2.0,
                        record_every=1, rtol=1e-8)
    trace = integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt)
    assert len(calls) > 25 and trace.metadata["rejected"] >= 1
    assert all(np.isfinite(trace.column(name)).all()
               for name in trace.columns)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_detected(ring5, flow_quadratic, x0_ring5, monkeypatch):
    obj, _ = flow_quadratic
    opt = obj.closed_form_optimum()
    params = FlowParams(beta=0.1, t0=1.0, dt=5.0, horizon=5000.0,
                        record_every=1)
    recorded = []
    append = RunTrace.append

    def spy(self, *row):
        recorded.append(row[0])  # t
        append(self, *row)

    monkeypatch.setattr(RunTrace, "append", spy)
    with pytest.raises(DivergenceError) as err:
        integrate(params, obj, ring5, x0_ring5, np.zeros(10), opt,
                  startup_dt_fraction=100.0)
    # every accepted point is recorded, so the last row is the last finite one
    assert len(recorded) > 1
    assert err.value.at == recorded[-1]


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, 0.0])
def test_rate_slope_drops_and_flags_gaps_not_finite_and_positive(bad):
    """A gap in the window that is not finite and positive, such as the
    last row a diverged run records, is dropped and flagged; the fit of the
    other points is kept. Outside the window it is neither."""
    ks = np.arange(1.0, 201.0)
    gaps = 1.0 / ks ** 2
    gaps[-1] = bad
    slope, r2, flagged = rate_slope(ks, gaps)
    assert flagged
    assert slope == pytest.approx(-2.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    slope, _, flagged = rate_slope(ks, gaps, window=(10.0, 150.0))
    assert not flagged
    assert slope == pytest.approx(-2.0, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("last_t", [5.0, math.inf, math.nan])
def test_rate_slope_without_finite_spread_in_t_raises(last_t):
    """Equal t values have no slope, and a t that is not finite has no
    place on the log axis: both raise, with no warning."""
    ts = np.full(30, 5.0)
    ts[-1] = last_t
    gaps = np.geomspace(1.0, 1e-3, 30)
    with pytest.raises(ValueError, match="no finite spread in t"):
        rate_slope(ts, gaps, tail_fraction=1.0)


@settings(max_examples=200, deadline=None)
@given(t0=st.floats(1e-3, 1e3), ratio=st.floats(1.5, 1e6),
       n=st.integers(20, 500), power=st.floats(-3.0, -0.5),
       noise=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_rate_slope_matches_polyfit(t0, ratio, n, power, noise, seed):
    """The closed-form line on the centred logs gives polyfit's slope and
    R^2 over t ranges, power laws and log-normal noise."""
    ts = np.linspace(t0, t0 * ratio, n)
    gaps = 2.0 * ts ** power * np.exp(
        noise * np.random.default_rng(seed).standard_normal(n))
    slope, r2, flagged = rate_slope(ts, gaps, tail_fraction=1.0)
    ref_slope, ref_r2 = polyfit_line(np.log(ts), np.log(gaps))
    assert not flagged
    assert abs(slope - ref_slope) <= FIT_BOUND * max(abs(ref_slope), 1.0)
    assert abs(r2 - ref_r2) <= FIT_BOUND


def test_rate_slope_needs_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rate_slope called a LAPACK fit")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    ts = np.linspace(5.0, 100.0, 200)
    assert rate_slope(ts, 3.0 / ts ** 2)[0] == pytest.approx(-2.0, rel=1e-12)


def test_rate_slope_peak_memory():
    """A full-window fit over 10^4 points peaks at no more than 4 times the
    bytes of its t column (3.3 times measured; polyfit's Vandermonde solve
    read 8.1 times)."""
    ts = np.arange(1.0, 10_001.0)
    gaps = 3.0 / ts ** 1.9
    rate_slope(ts, gaps, tail_fraction=1.0)  # warm: first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        slope, _, _ = rate_slope(ts, gaps, tail_fraction=1.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert slope == pytest.approx(-1.9, rel=1e-12)
    assert peak <= 4 * ts.nbytes, peak / ts.nbytes
