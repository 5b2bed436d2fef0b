"""Objective oracles: values, gradients, smoothness, and reference solvers."""

import warnings

import numpy as np
import pytest

from distagm.graphs import apply_lifted_laplacian, build_topology
from distagm.objectives import (LogisticObjective, QuadraticObjective,
                                SolverError, make_logistic, make_quadratic,
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
    obj = make_logistic(feats, labels, shards=4, l2=1e-3)
    for _ in range(50):
        X = rng.standard_normal(12)
        fd = central_fd(obj, X)
        np.testing.assert_allclose(obj.grad(X), fd, rtol=1e-5, atol=1e-7)


def test_logistic_zero_weights_loss():
    obj = make_logistic(np.array([[1.0, 2.0]]), np.array([1.0]), shards=1,
                        l2=0.0)
    assert obj.value(np.zeros(2)) == pytest.approx(np.log(2.0))


def test_logistic_symmetric_zero_gradient():
    # mirrored features with equal labels: gradient vanishes at zero weights
    feats = np.array([[1.0, -2.0], [-1.0, 2.0]])
    labels = np.array([1.0, 1.0])
    obj = make_logistic(feats, labels, shards=1, l2=0.0)
    np.testing.assert_allclose(obj.grad(np.zeros(2)), 0.0, atol=1e-14)


def test_logistic_gradient_saturates_without_overflow_warning():
    # margin -1000: exp(1000) would overflow; the sigmoid saturates
    obj = make_logistic(np.array([[1.0, 0.0]]), np.array([1.0]), shards=1,
                        l2=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = obj.local_grad(0, np.array([-1000.0, 0.0]))
    np.testing.assert_array_equal(g, [-1.0, 0.0])


def test_logistic_label_validation():
    with pytest.raises(ValueError):
        make_logistic(np.ones((3, 2)), np.array([0.0, 1.0, 2.0]), shards=1)


def test_logistic_empty_shard_rejected():
    with pytest.raises(ValueError):
        LogisticObjective([np.ones((0, 2))], [np.ones(0)])


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
                make_logistic(feats, labels, shards=3)):
        for _ in range(100):
            X, Y = rng.standard_normal((2, 9))
            mid = obj.value(0.5 * (X + Y))
            assert mid <= 0.5 * (obj.value(X) + obj.value(Y)) + 1e-9


def test_smoothness_bound():
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((30, 3))
    labels = (rng.random(30) < 0.5).astype(float)
    for obj in (make_quadratic(3, 3, seed=7),
                make_logistic(feats, labels, shards=3, l2=1e-4)):
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
    obj = make_logistic(feats, labels, shards=3, l2=1e-2)
    opt = solve_consensus_optimum(obj, tol=1e-10)
    assert np.linalg.norm(obj.central_grad(opt.x_star)) <= 1e-10
    assert obj.central_value(opt.x_star) == pytest.approx(opt.f_star)


def test_solver_nonconvergence_carries_best():
    obj = make_quadratic(2, 3, cond=1e4, seed=13)
    with pytest.raises(SolverError) as err:
        solve_consensus_optimum(obj, tol=1e-14, max_iter=3)
    assert err.value.best_x is not None
    assert err.value.grad_norm > 0


def test_make_quadratic_spectrum():
    obj = make_quadratic(4, 3, cond=100.0, seed=14, scale=2.0)
    eigs = np.linalg.eigvalsh(obj.Qs)
    np.testing.assert_allclose(eigs[:, -1], 2.0, rtol=1e-9)
    np.testing.assert_allclose(eigs[:, 0], 0.02, rtol=1e-9)
    with pytest.raises(ValueError):
        make_quadratic(2, 2, cond=0.5)


def test_stack_and_central():
    obj = make_quadratic(3, 2, seed=15)
    x = np.array([0.4, -0.7])
    X = obj.stack(x)
    assert X.shape == (6,)
    assert obj.value(X) == pytest.approx(obj.central_value(x))
    np.testing.assert_allclose(obj.grad(X).reshape(3, 2).sum(axis=0),
                               obj.central_grad(x), rtol=1e-12)
