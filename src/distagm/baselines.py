"""Reference distributed optimizers for head-to-head comparison.

Three families: decentralized gradient descent with a mixing matrix (DGD,
inexact under a constant step), gradient tracking (DIGing, exact), and the
proportional-integral consensus flow discretized by explicit Euler (exact).
Agent updates read only neighbor states, trackers, or integral states.
"""

from __future__ import annotations

import numpy as np

from .agm import TraceRecorder
from .graphs import AgentGraph, apply_lifted_laplacian, metropolis_weights
from .objectives import ConsensusOptimum, SeparableObjective
from .trace import RunTrace

__all__ = ["dgd_run", "diging_run", "pi_consensus_run"]


def _grad_blocks(obj, xb):
    return obj.grad(xb.reshape(-1)).reshape(obj.m, obj.d)


def dgd_run(obj: SeparableObjective, graph: AgentGraph, X0: np.ndarray,
            alpha: float, iters: int, opt: ConsensusOptimum) -> RunTrace:
    """Decentralized gradient descent: x_i <- sum_j W_ij x_j - alpha grad f_i."""
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    w = metropolis_weights(graph)
    xb = np.asarray(X0, dtype=float).reshape(graph.m, obj.d).copy()
    grads = _grad_blocks(obj, xb)
    rec = TraceRecorder({"algorithm": "dgd", "alpha": alpha, "iters": iters},
                        opt.f_star)
    for k in range(iters + 1):
        if k:
            xb = w @ xb - alpha * grads
            grads = _grad_blocks(obj, xb)
        X = xb.reshape(-1)
        rec(k, obj.value(X) - opt.f_star, grads,
            apply_lifted_laplacian(graph, obj.d, X), alpha)
    return rec.trace


def diging_run(obj: SeparableObjective, graph: AgentGraph, X0: np.ndarray,
               alpha: float, iters: int, opt: ConsensusOptimum) -> RunTrace:
    """Gradient tracking: x <- Wx - alpha y; y <- Wy + grad(x_new) - grad(x_old).

    Preserves the tracking identity sum_i y_i = sum_i grad f_i(x_i).
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    w = metropolis_weights(graph)
    xb = np.asarray(X0, dtype=float).reshape(graph.m, obj.d).copy()
    grads = yb = _grad_blocks(obj, xb)
    rec = TraceRecorder({"algorithm": "diging", "alpha": alpha,
                         "iters": iters}, opt.f_star)
    residual = 0.0
    for k in range(iters + 1):
        if k:
            xb = w @ xb - alpha * yb
            new_grads = _grad_blocks(obj, xb)
            yb = w @ yb + new_grads - grads
            grads = new_grads
            residual = max(residual, float(np.linalg.norm(
                yb.sum(axis=0) - grads.sum(axis=0))))
        X = xb.reshape(-1)
        rec(k, obj.value(X) - opt.f_star, grads,
            apply_lifted_laplacian(graph, obj.d, X), alpha)
    rec.trace.metadata["max_tracking_residual"] = residual
    return rec.trace


def pi_consensus_run(obj: SeparableObjective, graph: AgentGraph,
                     X0: np.ndarray, alpha: float, beta_gain: float,
                     iters: int, opt: ConsensusOptimum,
                     h_step: float = 0.05) -> RunTrace:
    """Proportional-integral consensus flow, explicit Euler with step h_step:

        x' = -alpha grad f(x) - Llift x - beta_gain v,    v' = Llift x.

    The integral state v drives exact convergence; column sums of the
    Laplacian being zero keeps sum_i v_i at zero.
    """
    if not all(0.0 < p < np.inf for p in (alpha, beta_gain, h_step)):
        raise ValueError("alpha, beta_gain, and h_step must be finite and "
                         "positive")
    x = np.asarray(X0, dtype=float).copy()
    v = np.zeros_like(x)
    g, lx = obj.grad(x), apply_lifted_laplacian(graph, obj.d, x)
    rec = TraceRecorder({"algorithm": "pi_consensus", "alpha": alpha,
                         "beta_gain": beta_gain, "h_step": h_step,
                         "iters": iters}, opt.f_star)
    rec(0, obj.value(x) - opt.f_star, g, lx, h_step)
    v_sum = 0.0
    for k in range(1, iters + 1):
        x_new = x + h_step * (-alpha * g - lx - beta_gain * v)
        v = v + h_step * lx
        x = x_new
        v_sum = max(v_sum, float(np.linalg.norm(
            v.reshape(graph.m, obj.d).sum(axis=0))))
        g, lx = obj.grad(x), apply_lifted_laplacian(graph, obj.d, x)
        rec(k, obj.value(x) - opt.f_star, g, lx, h_step)
    rec.trace.metadata["max_integral_sum"] = v_sum
    return rec.trace
