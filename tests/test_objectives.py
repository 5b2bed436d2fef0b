"""Objective oracles: values, gradients, smoothness, and reference solvers."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distagm import data_io
from distagm.graphs import apply_lifted_laplacian, build_topology
from distagm.objectives import (LogisticObjective, QuadraticObjective,
                                SolverError, make_quadratic,
                                solve_consensus_optimum)


def central_fd(obj, X, eps=None):
    """Central finite-difference gradient of the cumulative cost."""
    X = np.asarray(X, dtype=float)
    eps = 1e-6 * (1.0 + np.linalg.norm(X)) if eps is None else eps
    g = np.empty_like(X)
    for i in range(X.size):
        e = np.zeros_like(X)
        e[i] = eps
        g[i] = (obj.value(X + e) - obj.value(X - e)) / (2.0 * eps)
    return g


def test_value_at_per_agent_minima():
    obj = QuadraticObjective(np.array([np.eye(1), np.eye(1)]),
                             np.array([[0.0], [1.0]]))
    assert obj.value(np.array([0.0, 1.0])) == 0.0


def test_quadratic_value_matches_dense_loop(ring5):
    obj = make_quadratic(5, 3, seed=4)
    rng = np.random.default_rng(0)
    X = rng.standard_normal(15)
    blocks = X.reshape(5, 3)
    want = sum(0.5 * (blocks[i] - obj.bs[i]) @ obj.Qs[i]
               @ (blocks[i] - obj.bs[i]) for i in range(5))
    assert obj.value(X) == pytest.approx(want, rel=1e-12)
    got = obj.grad(X)
    want_g = np.concatenate([obj.Qs[i] @ (blocks[i] - obj.bs[i])
                             for i in range(5)])
    np.testing.assert_allclose(got, want_g, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=2, max_value=8),
       d=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_quadratic_operator_matches_per_agent_sweep(m, d, seed):
    """The dense block-diagonal operator gives the per-agent oracles' values,
    and it and the offsets it was built from are read-only."""
    obj = make_quadratic(m, d, seed=seed)
    X = np.random.default_rng(seed).standard_normal(m * d)
    blocks = X.reshape(m, d)
    want_g = np.concatenate([obj.local_grad(i, blocks[i]) for i in range(m)])
    want_f = sum(obj.local_value(i, blocks[i]) for i in range(m))
    got_g = obj.grad(X)
    assert got_g.shape == (m * d,)
    assert np.linalg.norm(got_g - want_g) <= 1e-12 * np.linalg.norm(want_g)
    assert obj.value(X) == pytest.approx(want_f, rel=1e-12)
    assert obj.M.shape == (m * d, m * d)
    for arr in (obj.M, obj.b, obj.c, obj.Qs, obj.bs):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_dimension_mismatch():
    obj = make_quadratic(3, 2, seed=0)
    with pytest.raises(ValueError):
        obj.value(np.zeros(5))
    with pytest.raises(ValueError):
        obj.grad(np.zeros(7))


def test_two_scalar_average():
    obj = QuadraticObjective(np.array([np.eye(1), np.eye(1)]),
                             np.array([[0.0], [1.0]]))
    opt = obj.closed_form_optimum()
    assert opt.x_star[0] == pytest.approx(0.5)
    assert opt.f_star == pytest.approx(0.25)


def test_gradient_zero_at_stacked_minimizers():
    obj = make_quadratic(4, 2, seed=1)
    X = obj.bs.reshape(-1)
    np.testing.assert_allclose(obj.grad(X), 0.0, atol=1e-14)


def test_quadratic_gradient_finite_difference():
    obj = make_quadratic(5, 2, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        X = rng.standard_normal(10)
        fd = central_fd(obj, X)
        np.testing.assert_allclose(obj.grad(X), fd,
                                   rtol=1e-5, atol=1e-7)


def test_logistic_gradient_finite_difference():
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((40, 3))
    labels = (rng.random(40) < 0.5).astype(float)
    obj = LogisticObjective(np.array_split(feats, 4),
                            np.array_split(labels, 4), l2=1e-3)
    for _ in range(50):
        X = rng.standard_normal(12)
        fd = central_fd(obj, X)
        np.testing.assert_allclose(obj.grad(X), fd, rtol=1e-5, atol=1e-7)


def test_logistic_zero_weights_loss():
    obj = LogisticObjective([np.array([[1.0, 2.0]])], [np.array([1.0])],
                            l2=0.0)
    assert obj.value(np.zeros(2)) == pytest.approx(np.log(2.0))


def test_logistic_symmetric_zero_gradient():
    # mirrored features with equal labels: gradient vanishes at zero weights
    feats = np.array([[1.0, -2.0], [-1.0, 2.0]])
    labels = np.array([1.0, 1.0])
    obj = LogisticObjective([feats], [labels], l2=0.0)
    np.testing.assert_allclose(obj.grad(np.zeros(2)), 0.0, atol=1e-14)


def test_logistic_gradient_saturates_without_overflow_warning():
    # margin -1000: exp(1000) would overflow; the sigmoid saturates
    obj = LogisticObjective([np.array([[1.0, 0.0]])], [np.array([1.0])],
                            l2=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = obj.local_grad(0, np.array([-1000.0, 0.0]))
    np.testing.assert_array_equal(g, [-1.0, 0.0])


def test_logistic_label_validation():
    with pytest.raises(ValueError):
        LogisticObjective([np.ones((3, 2))], [np.array([0.0, 1.0, 2.0])])


def test_logistic_empty_shard_rejected():
    with pytest.raises(ValueError):
        LogisticObjective([np.ones((0, 2))], [np.ones(0)])


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=2, max_value=8),
       d=st.integers(min_value=1, max_value=5),
       extra=st.integers(min_value=0, max_value=7),
       big=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_logistic_batched_oracles_match_per_agent_sweep(m, d, extra, big,
                                                        seed):
    """Batched value/grad equal the per-agent sweep on equal and ragged
    shards, and stay finite with no warning at margins past +-709."""
    rng = np.random.default_rng(seed)
    n = 3 * m + extra
    feats = rng.standard_normal((n, d))
    labels = (rng.random(n) < 0.5).astype(float)
    obj = LogisticObjective(np.array_split(feats, m),
                            np.array_split(labels, m), l2=1e-3)
    X = rng.standard_normal(m * d) * (1e4 if big else 1.0)
    blocks = X.reshape(m, d)
    if big:
        margins = np.concatenate([z @ x for z, x in zip(obj.Zs, blocks)])
        assume(np.abs(margins).max() > 709.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_f, got_g = obj.value(X), obj.grad(X)
        want_f = sum(obj.local_value(i, blocks[i]) for i in range(m))
        want_g = np.concatenate([obj.local_grad(i, blocks[i])
                                 for i in range(m)])
    assert np.isfinite(got_f) and np.all(np.isfinite(got_g))
    assert got_g.shape == (m * d,)
    if extra % m == 0:
        # equal shards: the same products per agent, so the same bits
        assert got_f == want_f and np.array_equal(got_g, want_g)
    assert got_f == pytest.approx(want_f, rel=1e-12)
    # componentwise rtol 1e-12 of the sum of the terms' magnitudes, which
    # bounds |gradient| (|sigmoid - y| <= 1) and stays put under cancellation
    scale = np.concatenate([np.abs(z).sum(axis=0) for z in obj.Zs])
    assert np.all(np.abs(got_g - want_g) <= 1e-12 * (scale + np.abs(X)))


def test_logistic_shards_held_once_read_only():
    feats = np.random.default_rng(6).standard_normal((11, 3))
    labels = np.array([0.0, 1.0] * 5 + [1.0])
    obj = LogisticObjective(np.array_split(feats, 3),
                            np.array_split(labels, 3))
    assert obj.Z.shape == (3, 4, 3)
    np.testing.assert_array_equal(obj.mask.sum(axis=1), [4, 4, 3])
    np.testing.assert_array_equal(obj.Z[2, 3], 0.0)
    for i, (z, y) in enumerate(zip(obj.Zs, obj.ys)):
        assert np.shares_memory(z, obj.Z) and np.shares_memory(y, obj.Y)
        np.testing.assert_array_equal(z, np.array_split(feats, 3)[i])
    for arr in (obj.Z, obj.Y, obj.mask, obj.Zs[0], obj.ys[0]):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_logistic_column_labels_rejected():
    # (n, 1) labels would broadcast the loss to (n, n) and give a wrong cost
    feats = np.random.default_rng(5).standard_normal((6, 3))
    labels = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="shard 1"):
        LogisticObjective(np.array_split(feats, 2),
                          [labels[:3], labels[3:, None]])


def test_logistic_feature_count_mismatch_rejected():
    with pytest.raises(ValueError, match="shard 2"):
        LogisticObjective([np.ones((3, 4)), np.ones((3, 4)), np.ones((3, 3))],
                          [np.zeros(3)] * 3)


def test_convexity_inequality():
    obj = make_quadratic(3, 4, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(100):
        X, Y = rng.standard_normal((2, 12))
        assert obj.grad(X) @ (Y - X) <= obj.value(Y) - obj.value(X) + 1e-9


def test_midpoint_convexity():
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((30, 3))
    labels = (rng.random(30) < 0.5).astype(float)
    for obj in (make_quadratic(3, 3, seed=7),
                LogisticObjective(np.array_split(feats, 3),
                                  np.array_split(labels, 3))):
        for _ in range(100):
            X, Y = rng.standard_normal((2, 9))
            mid = obj.value(0.5 * (X + Y))
            assert mid <= 0.5 * (obj.value(X) + obj.value(Y)) + 1e-9


def central_hess_fd(obj, x, eps=1e-6):
    """Central finite differences of the centralized gradient."""
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = eps
        cols.append((obj.central_grad(x + e) - obj.central_grad(x - e))
                    / (2.0 * eps))
    return np.array(cols).T


def test_central_hess_finite_difference():
    rng = np.random.default_rng(16)
    feats = rng.standard_normal((40, 3))
    labels = (rng.random(40) < 0.5).astype(float)
    for obj in (make_quadratic(4, 3, cond=50.0, seed=7),
                LogisticObjective(np.array_split(feats, 4),
                                  np.array_split(labels, 4), l2=1e-3)):
        for _ in range(10):
            x = rng.standard_normal(3)
            np.testing.assert_allclose(obj.central_hess(x),
                                       central_hess_fd(obj, x),
                                       rtol=1e-6, atol=1e-7)


def test_smoothness_bound():
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((30, 3))
    labels = (rng.random(30) < 0.5).astype(float)
    for obj in (make_quadratic(3, 3, seed=7),
                LogisticObjective(np.array_split(feats, 3),
                                  np.array_split(labels, 3), l2=1e-4)):
        n = obj.m * obj.d
        for _ in range(100):
            X, Y = rng.standard_normal((2, n))
            lhs = np.linalg.norm(obj.grad(X) - obj.grad(Y))
            assert lhs <= obj.smoothness * np.linalg.norm(X - Y) + 1e-12


def test_closed_form_matches_solver():
    obj = make_quadratic(5, 10, cond=1e4, seed=9)
    closed = obj.closed_form_optimum()
    solved = solve_consensus_optimum(obj, tol=1e-10)
    np.testing.assert_allclose(solved.x_star, closed.x_star,
                               rtol=1e-7, atol=1e-8)
    assert solved.f_star == pytest.approx(closed.f_star, abs=1e-10)


def test_consensus_optimum_invariants(ring5):
    obj = make_quadratic(5, 2, seed=10)
    opt = obj.closed_form_optimum()
    # stacked optimum is exact consensus: lifted Laplacian annihilates it
    np.testing.assert_allclose(
        apply_lifted_laplacian(ring5, 2, opt.x_star_stacked), 0.0, atol=1e-12)
    sums = opt.grad_at_opt.reshape(5, 2).sum(axis=0)
    np.testing.assert_allclose(sums, 0.0, atol=1e-9)


def test_solver_on_ridge_logistic():
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((60, 4))
    labels = (feats[:, 0] > 0).astype(float)
    obj = LogisticObjective(np.array_split(feats, 3),
                            np.array_split(labels, 3), l2=1e-2)
    opt = solve_consensus_optimum(obj, tol=1e-10)
    assert np.linalg.norm(obj.central_grad(opt.x_star)) <= 1e-10
    assert obj.central_value(opt.x_star) == pytest.approx(opt.f_star)


def test_solver_quadratic_in_one_newton_step():
    obj = make_quadratic(5, 10, cond=1e4, seed=9)
    opt = solve_consensus_optimum(obj, tol=1e-10, max_iter=1)
    assert np.linalg.norm(obj.central_grad(opt.x_star)) <= 1e-10


def test_solver_on_synthetic_data_seed_3():
    # the shipped logistic problem family at data seed 3
    ds = data_io.synthetic_gaussian_dataset(n=500, p=10, seed=3)
    shards = data_io.shard(ds, 5)
    obj = LogisticObjective([s.features for s in shards],
                            [s.labels for s in shards], l2=1e-4)
    opt = solve_consensus_optimum(obj, tol=1e-10, max_iter=50)
    assert np.linalg.norm(obj.central_grad(opt.x_star)) <= 1e-10


def test_solver_steps_below_line_search_resolution():
    # steep features: the last Newton steps lower F by less than its
    # rounding error, where an Armijo test alone stalls at ~1e-7
    rng = np.random.default_rng(27)
    feats = 3.0 * rng.standard_normal((1000, 20))
    w = rng.standard_normal(20)
    labels = (rng.random(1000) < 1.0 / (1.0 + np.exp(-feats @ w))).astype(float)
    obj = LogisticObjective(np.array_split(feats, 5),
                            np.array_split(labels, 5), l2=1e-2)
    opt = solve_consensus_optimum(obj, tol=1e-8, max_iter=50)
    assert np.linalg.norm(obj.central_grad(opt.x_star)) <= 1e-8


def test_solver_singular_hessian():
    # no ridge and a feature that is zero on every sample
    rng = np.random.default_rng(17)
    feats = np.hstack([rng.standard_normal((80, 3)), np.zeros((80, 1))])
    labels = (rng.random(80) < 0.5).astype(float)
    obj = LogisticObjective(np.array_split(feats, 4),
                            np.array_split(labels, 4), l2=0.0)
    opt = solve_consensus_optimum(obj, tol=1e-10, max_iter=50)
    assert np.linalg.norm(obj.central_grad(opt.x_star)) <= 1e-10
    assert opt.x_star[3] == 0.0


def test_solver_nonconvergence_carries_best():
    # nearly separable data: three Newton steps leave a large gradient
    rng = np.random.default_rng(13)
    feats = rng.standard_normal((60, 4))
    labels = (feats[:, 0] > 0).astype(float)
    obj = LogisticObjective(np.array_split(feats, 2),
                            np.array_split(labels, 2), l2=1e-2)
    with pytest.raises(SolverError) as err:
        solve_consensus_optimum(obj, tol=1e-14, max_iter=3)
    assert err.value.best_x is not None
    assert err.value.grad_norm > 0


def test_make_quadratic_spectrum():
    obj = make_quadratic(4, 3, cond=100.0, seed=14, scale=2.0)
    eigs = np.linalg.eigvalsh(obj.Qs)
    np.testing.assert_allclose(eigs[:, -1], 2.0, rtol=1e-9)
    np.testing.assert_allclose(eigs[:, 0], 0.02, rtol=1e-9)
    for bad in ({"cond": 0.5}, {"cond": np.nan}, {"scale": np.inf},
                {"scale": -1.0}, {"offset_scale": np.nan}):
        with pytest.raises(ValueError, match="need finite"):
            make_quadratic(2, 2, **bad)


def test_stack_and_central():
    obj = make_quadratic(3, 2, seed=15)
    x = np.array([0.4, -0.7])
    X = obj.stack(x)
    assert X.shape == (6,)
    assert obj.value(X) == pytest.approx(obj.central_value(x))
    np.testing.assert_allclose(obj.grad(X).reshape(3, 2).sum(axis=0),
                               obj.central_grad(x), rtol=1e-12)
