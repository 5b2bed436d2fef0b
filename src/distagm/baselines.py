"""Reference distributed optimizers for head-to-head comparison.

Three families: decentralized gradient descent with a mixing matrix (DGD,
inexact under a constant step), gradient tracking (DIGing, exact), and the
proportional-integral consensus flow discretized by explicit Euler (exact).
Agent updates read only neighbor states, trackers, or integral states.
"""

from __future__ import annotations

import numpy as np

from .agm import _TRACE_COLUMNS, _guard, _guard_reference, _record
from .graphs import AgentGraph, apply_lifted_laplacian, metropolis_weights
from .objectives import ConsensusOptimum, SeparableObjective
from .trace import RunTrace

__all__ = ["dgd_run", "diging_run", "pi_consensus_run"]


def _record_blocks(trace, k, xb, grads, obj, graph, opt, s):
    """Trace row for agent blocks whose gradients the update already holds."""
    X = xb.reshape(-1)
    _record(trace, k, obj.value(X) - opt.f_star, grads,
            apply_lifted_laplacian(graph, obj.d, X), s)


def _grad_blocks(obj, xb):
    return np.vstack([obj.local_grad(i, xb[i]) for i in range(obj.m)])


def dgd_run(obj: SeparableObjective, graph: AgentGraph, X0: np.ndarray,
            alpha: float, iters: int, opt: ConsensusOptimum) -> RunTrace:
    """Decentralized gradient descent: x_i <- sum_j W_ij x_j - alpha grad f_i."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    w = metropolis_weights(graph)
    xb = np.asarray(X0, dtype=float).reshape(graph.m, obj.d).copy()
    grads = _grad_blocks(obj, xb)
    trace = RunTrace(_TRACE_COLUMNS, metadata={
        "algorithm": "dgd", "alpha": alpha, "iters": iters})
    _record_blocks(trace, 0, xb, grads, obj, graph, opt, alpha)
    gap0 = _guard_reference(trace.last("F_gap"), 0.0)
    for k in range(1, iters + 1):
        xb = w @ xb - alpha * grads
        grads = _grad_blocks(obj, xb)
        _record_blocks(trace, k, xb, grads, obj, graph, opt, alpha)
        _guard(trace, gap0, k)
    return trace


def diging_run(obj: SeparableObjective, graph: AgentGraph, X0: np.ndarray,
               alpha: float, iters: int, opt: ConsensusOptimum) -> RunTrace:
    """Gradient tracking: x <- Wx - alpha y; y <- Wy + grad(x_new) - grad(x_old).

    Preserves the tracking identity sum_i y_i = sum_i grad f_i(x_i).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    w = metropolis_weights(graph)
    xb = np.asarray(X0, dtype=float).reshape(graph.m, obj.d).copy()
    grads = _grad_blocks(obj, xb)
    yb = grads.copy()
    trace = RunTrace(_TRACE_COLUMNS, metadata={
        "algorithm": "diging", "alpha": alpha, "iters": iters})
    _record_blocks(trace, 0, xb, grads, obj, graph, opt, alpha)
    gap0 = _guard_reference(trace.last("F_gap"), 0.0)
    residual = 0.0
    for k in range(1, iters + 1):
        xb = w @ xb - alpha * yb
        new_grads = _grad_blocks(obj, xb)
        yb = w @ yb + new_grads - grads
        grads = new_grads
        residual = max(residual, float(np.linalg.norm(
            yb.sum(axis=0) - grads.sum(axis=0))))
        _record_blocks(trace, k, xb, grads, obj, graph, opt, alpha)
        _guard(trace, gap0, k)
    trace.metadata["max_tracking_residual"] = residual
    return trace


def pi_consensus_run(obj: SeparableObjective, graph: AgentGraph,
                     X0: np.ndarray, alpha: float, beta_gain: float,
                     iters: int, opt: ConsensusOptimum,
                     h_step: float = 0.05) -> RunTrace:
    """Proportional-integral consensus flow, explicit Euler with step h_step:

        x' = -alpha grad f(x) - Llift x - beta_gain v,    v' = Llift x.

    The integral state v drives exact convergence; column sums of the
    Laplacian being zero keeps sum_i v_i at zero.
    """
    if alpha <= 0 or beta_gain <= 0 or h_step <= 0:
        raise ValueError("alpha, beta_gain, and h_step must be positive")
    x = np.asarray(X0, dtype=float).copy()
    v = np.zeros_like(x)
    g, lx = obj.grad(x), apply_lifted_laplacian(graph, obj.d, x)
    trace = RunTrace(_TRACE_COLUMNS, metadata={
        "algorithm": "pi_consensus", "alpha": alpha, "beta_gain": beta_gain,
        "h_step": h_step, "iters": iters})
    _record(trace, 0, obj.value(x) - opt.f_star, g, lx, h_step)
    gap0 = _guard_reference(trace.last("F_gap"), 0.0)
    v_sum = 0.0
    for k in range(1, iters + 1):
        x_new = x + h_step * (-alpha * g - lx - beta_gain * v)
        v = v + h_step * lx
        x = x_new
        v_sum = max(v_sum, float(np.linalg.norm(
            v.reshape(graph.m, obj.d).sum(axis=0))))
        g, lx = obj.grad(x), apply_lifted_laplacian(graph, obj.d, x)
        _record(trace, k, obj.value(x) - opt.f_star, g, lx, h_step)
        _guard(trace, gap0, k)
    trace.metadata["max_integral_sum"] = v_sum
    return trace
