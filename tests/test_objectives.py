"""Objective oracles: values, gradients, smoothness, and reference solvers."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distagm import data_io
from distagm.graphs import apply_lifted_laplacian
from distagm.objectives import (LogisticObjective, QuadraticObjective,
                                SeparableObjective, SolverError,
                                make_quadratic, solve_consensus_optimum)
from oracles import central_grad, central_value, local_grad, local_value


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
    got = obj.value_grad(X)[1]
    want_g = np.concatenate([obj.Qs[i] @ (blocks[i] - obj.bs[i])
                             for i in range(5)])
    np.testing.assert_allclose(got, want_g, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=2, max_value=8),
       d=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_quadratic_operator_matches_per_agent_sweep(m, d, seed):
    """The dense block-diagonal operator gives the per-agent reference
    forms' values, and it and the offsets it was built from are read-only."""
    obj = make_quadratic(m, d, seed=seed)
    X = np.random.default_rng(seed).standard_normal(m * d)
    blocks = X.reshape(m, d)
    want_g = np.concatenate([local_grad(obj, i, blocks[i]) for i in range(m)])
    want_f = sum(local_value(obj, i, blocks[i]) for i in range(m))
    got_g = obj.value_grad(X)[1]
    assert got_g.shape == (m * d,)
    assert np.linalg.norm(got_g - want_g) <= 1e-12 * np.linalg.norm(want_g)
    assert obj.value(X) == pytest.approx(want_f, rel=1e-12)
    assert obj.M.shape == (m * d, m * d)
    for arr in (obj.M, obj.b, obj.Qs, obj.bs):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_dimension_mismatch():
    obj = make_quadratic(3, 2, seed=0)
    with pytest.raises(ValueError):
        obj.value(np.zeros(5))
    with pytest.raises(ValueError):
        obj.value_grad(np.zeros(7))


def small_logistic(l2=1e-3):
    rng = np.random.default_rng(21)
    feats = rng.standard_normal((30, 3))
    labels = (rng.random(30) < 0.5).astype(float)
    return LogisticObjective(np.array_split(feats, 5),
                             np.array_split(labels, 5), l2=l2)


@pytest.mark.parametrize("obj", [make_quadratic(5, 3, seed=4),
                                 small_logistic()],
                         ids=["quadratic", "logistic"])
def test_grad_into_out_matches_allocating_call(obj):
    """``value_grad(X, out)`` writes the allocating call's gradient bits
    into ``out`` and returns it; a wrongly shaped X or out is still
    refused."""
    X = np.random.default_rng(8).standard_normal(obj.m * obj.d)
    out = np.full_like(X, np.nan)
    assert obj.value_grad(X, out)[1] is out
    assert out.tobytes() == obj.value_grad(X)[1].tobytes()
    with pytest.raises(ValueError):
        obj.value_grad(X[:-1], out)
    with pytest.raises(ValueError):
        obj.value_grad(X, np.empty(X.size + 1))


@pytest.mark.parametrize("obj", [make_quadratic(5, 3, seed=4),
                                 small_logistic()],
                         ids=["quadratic", "logistic"])
def test_stacked_state_forms_give_the_same_bits(obj):
    """A float64 array of the stacked shape is read as it is, a list or an
    int array is converted first, and a strided float view is accepted:
    each gives the bits of the contiguous float copy. A wrong shape, the
    (m, d) block form included, is refused."""
    ints = np.arange(-7, 8)
    strided = np.repeat(ints, 2).astype(float)[::2]
    assert not strided.flags.c_contiguous
    want = obj.value_grad(ints.astype(float))
    for X in (ints, ints.tolist(), strided):
        got = obj.value_grad(X)
        assert bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])
        assert bits(obj.value(X)) == bits(want[0])
    for X in (np.zeros(14), np.zeros((5, 3)), [0.0] * 16):
        with pytest.raises(ValueError):
            obj.value(X)
        with pytest.raises(ValueError):
            obj.value_grad(X)


@pytest.mark.parametrize("l2", [np.nan, np.inf, -1.0])
def test_logistic_ridge_out_of_range(l2):
    with pytest.raises(ValueError, match="l2"):
        small_logistic(l2)


@pytest.mark.parametrize("setting", [{"tol": np.nan}, {"tol": np.inf},
                                     {"tol": 0.0}, {"max_iter": -1}],
                         ids=lambda kw: "-".join(f"{k}={v}"
                                                 for k, v in kw.items()))
def test_solver_refuses_out_of_range_settings(setting):
    # a budget of 5 Newton steps ends fast if the setting is not refused
    with pytest.raises(ValueError, match=next(iter(setting))):
        solve_consensus_optimum(small_logistic(), **{"max_iter": 5, **setting})


def test_two_scalar_average():
    obj = QuadraticObjective(np.array([np.eye(1), np.eye(1)]),
                             np.array([[0.0], [1.0]]))
    opt = obj.closed_form_optimum()
    assert opt.x_star[0] == pytest.approx(0.5)
    assert opt.f_star == pytest.approx(0.25)


def test_gradient_zero_at_stacked_minimizers():
    obj = make_quadratic(4, 2, seed=1)
    X = obj.bs.reshape(-1)
    np.testing.assert_allclose(obj.value_grad(X)[1], 0.0, atol=1e-14)


@pytest.mark.parametrize("size", [1e-4, 1e-8, 1e-12])
def test_quadratic_gradient_accurate_near_the_offsets(size):
    """The quadratic gradient is M (X - b), formed from the residual, so its
    relative error stays at rounding level as X approaches b. Forming
    M X - M b instead cancels: on this problem its relative error was
    2.0e-12, 2.7e-8 and 7.2e-4 at |X - b| = 1e-4, 1e-8 and 1e-12. The
    reference is the same product in extended precision."""
    obj = make_quadratic(5, 2, cond=10.0, seed=7)
    delta = np.random.default_rng(3).standard_normal(obj.b.size)
    X = obj.b + size * delta / np.linalg.norm(delta)
    ref = obj.M.astype(np.longdouble).dot(
        X.astype(np.longdouble) - obj.b.astype(np.longdouble))
    ref_norm = np.linalg.norm(ref.astype(float))
    for g in (obj.value_grad(X)[1], obj.value_grad(X, np.empty_like(X))[1]):
        err = np.linalg.norm((g - ref).astype(float)) / ref_norm
        assert err <= 1e-14, err


def test_quadratic_gradient_finite_difference():
    obj = make_quadratic(5, 2, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        X = rng.standard_normal(10)
        fd = central_fd(obj, X)
        np.testing.assert_allclose(obj.value_grad(X)[1], fd,
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
        np.testing.assert_allclose(obj.value_grad(X)[1], fd,
                                   rtol=1e-5, atol=1e-7)


def test_logistic_zero_weights_loss():
    obj = LogisticObjective([np.array([[1.0, 2.0]])], [np.array([1.0])],
                            l2=0.0)
    assert obj.value(np.zeros(2)) == pytest.approx(np.log(2.0))


def test_logistic_symmetric_zero_gradient():
    # mirrored features with equal labels: gradient vanishes at zero weights
    feats = np.array([[1.0, -2.0], [-1.0, 2.0]])
    labels = np.array([1.0, 1.0])
    obj = LogisticObjective([feats], [labels], l2=0.0)
    np.testing.assert_allclose(obj.value_grad(np.zeros(2))[1], 0.0, atol=1e-14)


def test_logistic_gradient_saturates_without_overflow_warning():
    # margin -1000: exp(1000) would overflow; the sigmoid saturates
    obj = LogisticObjective([np.array([[1.0, 0.0]])], [np.array([1.0])],
                            l2=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = obj.value_grad(np.array([-1000.0, 0.0]))[1]
    np.testing.assert_array_equal(g, [-1.0, 0.0])


def test_logistic_label_validation():
    with pytest.raises(ValueError):
        LogisticObjective([np.ones((3, 2))], [np.array([0.0, 1.0, 2.0])])


def test_logistic_empty_shard_rejected():
    with pytest.raises(ValueError):
        LogisticObjective([np.ones((0, 2))], [np.ones(0)])


@pytest.mark.parametrize("shards_z, shards_y", [
    ([], []), ([np.ones((2, 2))] * 2, [np.ones(2)])],
    ids=["no-shards", "mismatched-lists"])
def test_logistic_shard_lists_rejected(shards_z, shards_y):
    with pytest.raises(ValueError, match="matching, non-empty"):
        LogisticObjective(shards_z, shards_y)


@pytest.mark.parametrize("Qs, bs, match", [
    (np.ones((2, 2, 3)), np.zeros((2, 2)), "shape"),
    (np.array([np.eye(2)] * 2), np.zeros((2, 3)), "shape"),
    (np.eye(2), np.zeros(2), "shape"),
    (np.zeros((0, 2, 2)), np.zeros((0, 2)), "at least 1 agent"),
    (np.array([np.eye(2), np.diag([1.0, 0.0])]), np.zeros((2, 2)), "SPD"),
    (np.array([np.eye(2), -np.eye(2)]), np.zeros((2, 2)), "SPD")],
    ids=["not-square", "offset-d", "two-d", "no-agents", "singular",
         "negative"])
def test_quadratic_refuses_bad_input(Qs, bs, match):
    with pytest.raises(ValueError, match=match):
        QuadraticObjective(Qs, bs)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=2, max_value=8),
       d=st.integers(min_value=1, max_value=5),
       extra=st.integers(min_value=0, max_value=7),
       big=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_logistic_batched_oracles_match_per_agent_sweep(m, d, extra, big,
                                                        seed):
    """Batched value/grad equal the per-agent reference sweep on equal and
    ragged shards, and stay finite with no warning at margins past +-709."""
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
        got_f, got_g = obj.value(X), obj.value_grad(X)[1]
        fused_f, fused_g = obj.value_grad(X)
        want_f = sum(local_value(obj, i, blocks[i]) for i in range(m))
        want_g = np.concatenate([local_grad(obj, i, blocks[i])
                                 for i in range(m)])
    assert np.isfinite(got_f) and np.all(np.isfinite(got_g))
    assert np.isfinite(fused_f) and np.all(np.isfinite(fused_g))
    assert got_g.shape == (m * d,)
    assert got_f == pytest.approx(want_f, rel=1e-12)
    # componentwise rtol 1e-12 of the sum of the terms' magnitudes, which
    # bounds |gradient| (|sigmoid - y| <= 1) and stays put under cancellation
    scale = np.concatenate([np.abs(z).sum(axis=0) for z in obj.Zs])
    assert np.all(np.abs(got_g - want_g) <= 1e-12 * (scale + np.abs(X)))


def bits(value):
    """The bytes of a float or float array, so that 0.0 and -0.0 differ."""
    return np.asarray(value, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(logistic=st.booleans(),
       m=st.integers(min_value=1, max_value=6),
       d=st.integers(min_value=1, max_value=4),
       scale=st.sampled_from([1e-3, 1.0, 1e4]),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_value_grad_is_value_and_grad(logistic, m, d, scale, seed):
    """``value_grad(X)``'s cost has ``value(X)``'s bits, in both families;
    with ``out`` it writes the allocating call's gradient there and returns
    it, with the same cost. Margins past +-709 (scale 1e4) raise no
    warning."""
    rng = np.random.default_rng(seed)
    if logistic:
        n = 2 * m + int(rng.integers(0, m + 1))
        obj = LogisticObjective(
            np.array_split(rng.standard_normal((n, d)), m),
            np.array_split((rng.random(n) < 0.5).astype(float), m), l2=1e-3)
    else:
        obj = make_quadratic(m, d, seed=seed)
    X = scale * rng.standard_normal(m * d)
    out = np.full_like(X, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, g = obj.value_grad(X)
        f_out, g_out = obj.value_grad(X, out)
        want_f = obj.value(X)
    assert bits(f) == bits(want_f)
    assert g_out is out
    assert bits(f_out) == bits(want_f) and bits(out) == bits(g)
    with pytest.raises(ValueError):
        obj.value_grad(X[:-1])
    with pytest.raises(ValueError):
        obj.value_grad(X, np.empty(X.size + 1))


def test_logistic_shards_held_once_read_only():
    feats = np.random.default_rng(6).standard_normal((11, 3))
    labels = np.array([0.0, 1.0] * 5 + [1.0])
    obj = LogisticObjective(np.array_split(feats, 3),
                            np.array_split(labels, 3))
    assert obj.Z.shape == (3, 4, 3)
    np.testing.assert_array_equal(obj.mask.sum(axis=1), [4, 4, 3])
    np.testing.assert_array_equal(obj.Z[2, 3], 0.0)
    np.testing.assert_array_equal(obj.Y[obj.mask == 1.0], labels)
    for i, z in enumerate(obj.Zs):
        assert np.shares_memory(z, obj.Z)
        np.testing.assert_array_equal(z, np.array_split(feats, 3)[i])
    for arr in (obj.Z, obj.Y, obj.mask, obj.Zs[0]):
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
        g = obj.value_grad(X)[1]
        assert g @ (Y - X) <= obj.value(Y) - obj.value(X) + 1e-9


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
        cols.append((central_grad(obj, x + e) - central_grad(obj, x - e))
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
            lhs = np.linalg.norm(obj.value_grad(X)[1] - obj.value_grad(Y)[1])
            assert lhs <= obj.smoothness * np.linalg.norm(X - Y) + 1e-12


def test_quadratic_smoothness_is_the_largest_agent_eigenvalue():
    """With agents whose spectra differ, the smoothness constant is the
    largest eigenvalue of M over all agents, not of one agent."""
    obj = QuadraticObjective(np.array([np.diag([1.0, 2.0]),
                                       np.diag([3.0, 5.0])]), np.zeros((2, 2)))
    assert obj.smoothness == np.linalg.eigvalsh(obj.M)[-1] == 5.0


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
    assert np.linalg.norm(central_grad(obj, opt.x_star)) <= 1e-10
    assert central_value(obj, opt.x_star) == pytest.approx(opt.f_star)


def test_solver_quadratic_in_one_newton_step():
    obj = make_quadratic(5, 10, cond=1e4, seed=9)
    opt = solve_consensus_optimum(obj, tol=1e-10, max_iter=1)
    assert np.linalg.norm(central_grad(obj, opt.x_star)) <= 1e-10


def test_solver_on_synthetic_data_seed_3():
    # the shipped logistic problem family at data seed 3
    ds = data_io.synthetic_gaussian_dataset(n=500, p=10, seed=3)
    shards = data_io.shard(ds, 5)
    obj = LogisticObjective([s.features for s in shards],
                            [s.labels for s in shards], l2=1e-4)
    opt = solve_consensus_optimum(obj, tol=1e-10, max_iter=50)
    assert np.linalg.norm(central_grad(obj, opt.x_star)) <= 1e-10


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
    assert np.linalg.norm(central_grad(obj, opt.x_star)) <= 1e-8


def test_solver_singular_hessian():
    # no ridge and a feature that is zero on every sample
    rng = np.random.default_rng(17)
    feats = np.hstack([rng.standard_normal((80, 3)), np.zeros((80, 1))])
    labels = (rng.random(80) < 0.5).astype(float)
    obj = LogisticObjective(np.array_split(feats, 4),
                            np.array_split(labels, 4), l2=0.0)
    opt = solve_consensus_optimum(obj, tol=1e-10, max_iter=50)
    assert np.linalg.norm(central_grad(obj, opt.x_star)) <= 1e-10
    assert opt.x_star[3] == 0.0


class PseudoHuber(SeparableObjective):
    """f_i(x) = sqrt(1 + |x - b_i|^2): smooth, convex and nearly linear far
    from b_i, where a full Newton step from x = 0 overshoots."""

    def __init__(self, bs):
        self.bs = np.asarray(bs, dtype=float)
        self.m, self.d = self.bs.shape
        self.smoothness = 1.0

    def value(self, X):
        return self.value_grad(X)[0]

    def value_grad(self, X):
        r = self._check(X).reshape(self.m, self.d) - self.bs
        root = np.sqrt(1.0 + np.einsum("ij,ij->i", r, r))
        return float(root.sum()), (r / root[:, None]).reshape(-1)

    def central_hess(self, x):
        r = np.asarray(x, dtype=float) - self.bs
        root = np.sqrt(1.0 + np.einsum("ij,ij->i", r, r))
        return (np.eye(self.d) * (1.0 / root).sum()
                - np.einsum("i,ij,ik->jk", root ** -3, r, r))


def test_solver_backtracks_a_newton_step_that_overshoots(monkeypatch):
    """From x = 0 the pseudo-Huber cost's first Newton steps overshoot, so
    the Armijo loop halves them (4 Newton steps and 6 halvings here); the
    solve still ends below tol."""
    obj = PseudoHuber([(10.0, 0.0), (12.0, 1.0), (8.0, -1.0)])
    calls = []
    value_grad, central_hess = obj.value_grad, obj.central_hess
    monkeypatch.setattr(obj, "value_grad", lambda X: calls.append(
        "value_grad") or value_grad(X))
    monkeypatch.setattr(obj, "central_hess", lambda x: calls.append(
        "central_hess") or central_hess(x))
    opt = solve_consensus_optimum(obj, tol=1e-9)
    grad = opt.grad_at_opt.reshape(obj.m, obj.d).sum(axis=0)
    assert np.linalg.norm(grad) <= 1e-9
    # value_grad is called at the start, once per Newton step, once per
    # halving and once at the optimum; central_hess once per Newton step
    halvings = calls.count("value_grad") - 2 - calls.count("central_hess")
    assert halvings >= 1


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
    assert obj.value(X) == pytest.approx(central_value(obj, x))
    np.testing.assert_allclose(obj.value_grad(X)[1].reshape(3, 2).sum(0),
                               central_grad(obj, x), rtol=1e-12)
