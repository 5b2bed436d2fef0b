"""Acceptance suite: one test per top-level claim, one printed verdict each.

Claims 1-3 run the continuous flow on the unit-scale ring quadratic. Claims
4-5 run the adaptive discrete algorithm on the weak-curvature copy of the
same instance, which keeps all 10^4 iterations above the double-precision
noise floor so the controller diagnostics stay meaningful. Claims 8-9 cover
the comparative and sweep behavior, claim 10 the structural invariants.
"""

from pathlib import Path

import numpy as np
import pytest

from distagm import (agm, baselines, data_io, flow, graphs, harness,
                     objectives)
from distagm.cli import main
from oracles import (a_coeff, c_coeff, combined_field, single_line_update,
                     theta)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
H_DISCRETE = 1.0
BETA = 0.1


def report(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def run_flow(obj, opt, x0, dt, t0=1.0, horizon=50.0, record_every=20,
             rtol=None):
    params = flow.FlowParams(beta=BETA, k_gain=1.0, t0=t0, dt=dt,
                             horizon=horizon, record_every=record_every,
                             rtol=rtol)
    g = graphs.build_topology("ring", 5)
    return flow.integrate(params, obj, g, x0, np.zeros(10), opt)


def drift_of(trace):
    totals = trace.column("E_total")
    return float(np.max(np.abs(totals - totals[0])) / abs(totals[0]))


@pytest.fixture(scope="module")
def conservation_runs(flow_quadratic, x0_ring5):
    """The fixed RK4 flow at dt = 2e-3 and 1e-3. Halving dt once more, to
    5e-4, leaves a drift of about 600 ulps of E_total, so the halving ratio
    there reads rounding as much as the integrator's order."""
    obj, opt = flow_quadratic
    return (run_flow(obj, opt, x0_ring5, dt=2e-3),
            run_flow(obj, opt, x0_ring5, dt=1e-3))


@pytest.fixture(scope="module")
def adaptive_trace(ring5, controller_quadratic, x0_ring5):
    obj, opt = controller_quadratic
    params = agm.AdaptiveParams(h=H_DISCRETE, beta=BETA,
                                oracle_mode="practical")
    return agm.adaptive_run(params, obj, ring5, x0_ring5, iters=10_000,
                            opt=opt)


def test_criterion_1_energy_conservation(conservation_runs):
    full, half = conservation_runs
    drift, drift_half = drift_of(full), drift_of(half)
    ratio = drift / max(drift_half, 1e-300)
    ok = drift <= 1e-3 and ratio >= 3.0
    report(1, ok, f"max relative drift {drift:.3e} (<= 1e-3), "
                  f"halving dt reduces it {ratio:.1f}x (>= 3x)")


def test_criterion_2_component_nonnegativity(conservation_runs):
    trace = conservation_runs[1]  # dt = 1e-3
    tol = -1e-9 * (1.0 + np.abs(trace.column("E_total")))
    worst, worst_col = np.inf, ""
    ok = True
    for col in flow.LEDGER:
        vals = trace.column(col)
        ok = ok and bool(np.all(vals >= tol))
        if vals.min() < worst:
            worst, worst_col = float(vals.min()), col
    report(2, ok, f"all six ledger components >= -1e-9 relative at every "
                  f"sample; minimum {worst:.3e} ({worst_col})")


def test_criterion_3_continuous_rate(flow_quadratic, x0_ring5):
    """The flow from near t = 0 to t = 1000 under the error-controlled step
    at continuous_rate.yaml's rtol."""
    obj, opt = flow_quadratic
    rtol = harness.load_config(CONFIGS / "continuous_rate.yaml")["flow"][
        "rtol"]
    trace = run_flow(obj, opt, x0_ring5, dt=5e-3, t0=1e-3, horizon=1000.0,
                     record_every=50, rtol=rtol)
    slope, r2, flagged = flow.rate_slope(trace.column("t"),
                                         trace.column("F_gap"),
                                         window=(10.0, 1000.0))
    ok = slope <= -1.6 and r2 >= 0.95 and not flagged
    report(3, ok, f"tail slope {slope:.3f} (<= -1.6) with "
                  f"R^2 {r2:.3f} (>= 0.95) over t in [10, 1000]")


def test_criterion_4_discrete_rate(adaptive_trace, controller_quadratic,
                                   x0_ring5):
    _, opt = controller_quadratic
    ks = adaptive_trace.column("k")
    gaps = adaptive_trace.column("F_gap_plus")
    sel = (ks >= 100) & (ks <= 10_000)
    slope, r2, flagged = flow.rate_slope(ks[sel], gaps[sel],
                                         tail_fraction=1.0)
    s_ref = float(adaptive_trace.metadata["s_ref"])
    r2init = float(np.sum((x0_ring5 - opt.x_star_stacked) ** 2))
    bound = 2.0 * H_DISCRETE ** BETA * r2init / (s_ref * ks[ks >= 1]
                                                 ** (2.0 - BETA))
    bound_ok = bool(np.all(gaps[ks >= 1] <= bound * (1.0 + 1e-9)))
    fallbacks = int(adaptive_trace.column("fallback_flag").sum())
    misses = int((adaptive_trace.column("monotonicity_ok") == 0).sum())
    ok = (slope <= -1.7 and bound_ok and fallbacks == 0 and misses == 0
          and not flagged)
    report(4, ok, f"slope {slope:.3f} (<= -1.7) over k in [1e2, 1e4], "
                  f"pointwise rate bound holds: {bound_ok}, "
                  f"fallbacks: {fallbacks}, step-monotonicity misses: "
                  f"{misses} (both must be 0)")


def test_rate_check_line_on_the_discrete_rate_trace(adaptive_trace,
                                                   tmp_path, capsys):
    """Criterion 4's run writes the rows of discrete_rate.yaml's run: the
    line the README's rate-check command prints on that trace."""
    path = tmp_path / "dist_agm_trace.csv"
    adaptive_trace.write_csv(path)
    assert main(["rate-check", str(path), "--beta", "0.1",
                 "--window", "100", "10000"]) == 0
    assert capsys.readouterr().out == (
        "slope=-4.7467 r2=0.9188 target=-1.9000 tolerance=0.3 "
        "truncated=False PASS\n")


def test_case_column_holds_the_five_label_objects(adaptive_trace):
    """The controller takes each case label from one table, never building
    a str per row: the 10^4-row case column holds at most five distinct
    objects, the four labels and "bootstrap"."""
    cases = adaptive_trace.column("case")
    assert len({id(case) for case in cases}) <= 5
    assert set(cases) <= {"bootstrap", "w<=0,r>=0", "w<=0,r<0", "w>0,r>=0",
                          "w>0,r<0"}


def test_criterion_5_lyapunov_decrement(adaptive_trace):
    ks = adaptive_trace.column("k")
    vs = adaptive_trace.column("V_k")[ks >= 1]
    v0_prime = float(adaptive_trace.metadata["V0_prime"])
    violations = int(np.sum(vs[1:] > vs[:-1] * (1.0 + 1e-9)))
    first_ok = vs[0] <= v0_prime
    ok = violations == 0 and first_ok and bool(np.all(np.isfinite(vs)))
    report(5, ok, f"V_(k+1) <= V_k (1+1e-9) violations: {violations} "
                  f"(must be 0); V_1 = {vs[0]:.4g} <= V'_0 = "
                  f"{v0_prime:.4g}: {first_ok}")


def test_criterion_6_update_algebra(ring5):
    obj = objectives.make_quadratic(5, 2, seed=31)
    opt = obj.closed_form_optimum()
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 500))
        s = float(rng.uniform(0.0, 0.5))
        x, z = rng.standard_normal((2, 10))
        state = agm.AgmState(k=k, X=x, X_plus=x.copy(), Z=z, s=s, h=1.0,
                             beta=BETA)
        nxt = agm.step(state, obj, ring5, opt)
        g = combined_field(k, x, 1.0, BETA, obj, ring5)
        oracle = single_line_update(k, x, z, s, g)
        # relative to the term magnitudes of the collapsed sum, so large-k
        # cancellation does not inflate the reported deviation
        kk = float(k)
        denom = (kk ** 2 * np.abs(x) + (2.0 * kk + 1.0) * np.abs(z)
                 + 0.5 * s * kk * (3.0 * kk + 1.0) * np.abs(g)) \
            / (kk + 1.0) ** 2
        rel = np.abs(nxt.X - oracle) / np.maximum(denom, 1.0)
        worst = max(worst, float(rel.max()))
    ks = np.unique(np.geomspace(1, 10 ** 6, 5000).astype(int))
    coeff_ok = all(
        abs(c_coeff(k) - 2.0 * (k + 1) / (2.0 * k + 1)) <= 1e-12
        and a_coeff(k) >= theta(k) ** 2
        and a_coeff(k) - a_coeff(k + 1) + theta(k + 1) >= 0.0
        for k in ks)
    ok = worst <= 1e-14 and coeff_ok
    report(6, ok, f"three-line vs single-line update max deviation "
                  f"{worst:.2e} (<= 1e-14) on 1000 random states; "
                  f"coefficient identities up to k=1e6: {coeff_ok}")


def test_criterion_7_gradient_correctness():
    rng = np.random.default_rng(33)
    quad = objectives.make_quadratic(5, 2, seed=34)
    feats = rng.standard_normal((60, 3))
    labels = (rng.random(60) < 0.5).astype(float)
    logi = objectives.LogisticObjective(np.array_split(feats, 5),
                                        np.array_split(labels, 5), l2=1e-4)
    worst = 0.0
    for obj in (quad, logi):
        n = obj.m * obj.d
        for _ in range(50):
            X = rng.standard_normal(n)
            eps = 1e-6 * (1.0 + np.linalg.norm(X))
            fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = eps
                fd[i] = (obj.value(X + e) - obj.value(X - e)) / (2.0 * eps)
            denom = max(np.linalg.norm(fd), 1.0)
            worst = max(worst, float(np.linalg.norm(obj.grad(X) - fd))
                        / denom)
    ok = worst <= 1e-5
    report(7, ok, f"analytic vs central-difference gradients, worst "
                  f"relative deviation {worst:.2e} (<= 1e-5), 50 probes "
                  f"per objective family")


def test_criterion_8_comparative_behavior(ring5):
    ds = data_io.synthetic_gaussian_dataset(n=500, p=10, seed=0)
    shards = data_io.shard(ds, 5)
    obj = objectives.LogisticObjective([s.features for s in shards],
                                       [s.labels for s in shards], l2=1e-4)
    opt = objectives.solve_consensus_optimum(obj, tol=1e-10)
    x0 = 0.1 * np.random.default_rng(0).standard_normal(5 * obj.d)
    threshold = 1e-3 * (obj.value(x0) - opt.f_star)
    agm_trace = agm.adaptive_run(
        agm.AdaptiveParams(h=10.0, beta=BETA, oracle_mode="practical"), obj,
        ring5, x0, iters=500, opt=opt)
    budget = 5000
    step = baselines.StepParams(alpha=1e-3)
    dgd = baselines.dgd_run(step, obj, ring5, x0, iters=budget, opt=opt)
    dig = baselines.diging_run(step, obj, ring5, x0, iters=budget, opt=opt)
    hits = {name: harness.iterations_to_threshold(tr, threshold)
            for name, tr in (("dist_agm", agm_trace), ("dgd", dgd),
                             ("diging", dig))}
    agm_hit = hits["dist_agm"]
    ok = agm_hit is not None and all(
        hits[b] is None or agm_hit < hits[b] for b in ("dgd", "diging"))
    report(8, ok, f"iterations to 1e-3 relative gap: dist_agm={agm_hit}, "
                  f"dgd={hits['dgd']}, diging={hits['diging']} "
                  f"(None = not reached in {budget})")


def test_criterion_9_beta_sweep(ring5, controller_quadratic, x0_ring5):
    obj, opt = controller_quadratic
    finals = []
    for beta in (1.0, 0.5, 0.1, 0.01):
        params = agm.AdaptiveParams(h=H_DISCRETE, beta=beta,
                                    oracle_mode="practical")
        trace = agm.adaptive_run(params, obj, ring5, x0_ring5, iters=2000,
                                 opt=opt)
        finals.append(float(trace.column("F_gap_plus")[-1]))
    ok = all(finals[i + 1] <= finals[i] * (1.0 + 1e-9)
             for i in range(len(finals) - 1))
    pairs = ", ".join(f"beta={b}: {g:.3e}"
                      for b, g in zip((1.0, 0.5, 0.1, 0.01), finals))
    report(9, ok, f"final gap nonincreasing as beta decreases ({pairs})")


def test_criterion_10_structural_invariants(flow_quadratic, exact_opt):
    obj, _ = flow_quadratic
    rng = np.random.default_rng(35)
    lap_ok = True
    for kind, m in (("ring", 5), ("path", 4), ("star", 6), ("complete", 3)):
        g = graphs.build_topology(kind, m)
        lap_ok = lap_ok and bool(
            np.max(np.abs(g.laplacian.sum(axis=1))) <= 1e-12)
        for _ in range(20):
            x = rng.standard_normal(m)
            lap_ok = lap_ok and x @ g.laplacian @ x >= -1e-12 * (x @ x)
        w = graphs.metropolis_weights(g)
        lap_ok = lap_ok and bool(
            np.allclose(w, w.T)
            and np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
            and np.max(np.abs(w.sum(axis=0) - 1.0)) <= 1e-12
            and w.min() >= 0.0)

    ring = graphs.build_topology("ring", 5)
    hetero = objectives.make_quadratic(5, 2, cond=10.0, seed=7)
    hopt = hetero.closed_form_optimum()
    x0 = rng.standard_normal(10)
    dig = baselines.diging_run(baselines.StepParams(alpha=0.01), hetero, ring,
                               x0, iters=300, opt=hopt)
    tracking = float(dig.metadata["max_tracking_residual"])

    x_star = exact_opt.x_star_stacked.copy()
    stationary = True
    for run in (
        lambda: agm.fixed_step_run(agm.FixedParams(h=0.4, beta=BETA), obj,
                                   ring, x_star, iters=20, opt=exact_opt),
        lambda: agm.adaptive_run(
            agm.AdaptiveParams(h=0.4, beta=BETA, oracle_mode="practical"),
            obj, ring, x_star, iters=20, opt=exact_opt),
        lambda: baselines.dgd_run(baselines.StepParams(alpha=0.05), obj,
                                  ring, x_star, iters=20, opt=exact_opt),
        lambda: baselines.diging_run(baselines.StepParams(alpha=0.05), obj,
                                     ring, x_star, iters=20, opt=exact_opt),
        lambda: baselines.pi_consensus_run(
            baselines.PIParams(alpha=0.1, beta_gain=0.1), obj, ring, x_star,
            iters=20, opt=exact_opt),
    ):
        trace = run()
        stationary = stationary and bool(
            np.max(np.abs(trace.column("F_gap"))) <= 1e-20)

    ok = lap_ok and tracking <= 1e-10 and stationary
    report(10, ok, f"Laplacian/Metropolis structure: {lap_ok}; DIGing "
                   f"tracking residual {tracking:.2e} (<= 1e-10); "
                   f"consensus-optimum start stationary for all "
                   f"algorithms: {stationary}")
