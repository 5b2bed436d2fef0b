"""Reference distributed optimizers for head-to-head comparison.

Three families: decentralized gradient descent with a mixing matrix (DGD,
inexact under a constant step), gradient tracking (DIGing, exact), and the
proportional-integral consensus flow discretized by explicit Euler (exact).
Agent updates read only neighbor states, trackers, or integral states.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .graphs import AgentGraph, apply_lifted_laplacian, metropolis_weights
from .objectives import ConsensusOptimum, SeparableObjective
from .trace import RunTrace, TraceRecorder

__all__ = ["StepParams", "PIParams", "dgd_run", "diging_run",
           "pi_consensus_run"]


class _PositiveParams:
    """Every knob of a baseline is a step size or gain: finite, positive."""

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not 0.0 < value < np.inf:
                raise ValueError(
                    f"{field.name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class StepParams(_PositiveParams):
    """DGD's and DIGing's knob: the gradient step ``alpha``."""

    alpha: float = 0.001


@dataclass(frozen=True)
class PIParams(_PositiveParams):
    """PI consensus's knobs: gradient gain ``alpha``, integral gain
    ``beta_gain`` and Euler step ``h_step``."""

    alpha: float = 0.01
    beta_gain: float = 0.1
    h_step: float = 0.05


def _value_grad_blocks(obj, xb):
    """The cost and the stacked gradient, one block per row, at blocks xb."""
    value, grad = obj.value_grad(xb.reshape(-1))
    return value, grad.reshape(obj.m, obj.d)


def dgd_run(params: StepParams, obj: SeparableObjective, graph: AgentGraph,
            X0: np.ndarray, iters: int, opt: ConsensusOptimum) -> RunTrace:
    """Decentralized gradient descent: x_i <- sum_j W_ij x_j - alpha grad f_i."""
    w = metropolis_weights(graph)
    xb = np.asarray(X0, dtype=float).reshape(graph.m, obj.d).copy()
    value, grads = _value_grad_blocks(obj, xb)
    rec = TraceRecorder(TraceRecorder.BASELINE_COLUMNS, {
        "algorithm": "dgd", **asdict(params), "iters": iters}, opt.f_star)
    for k in range(iters + 1):
        if k:
            # ndarray.dot makes the same BLAS call as @ with less dispatch
            xb = w.dot(xb) - params.alpha * grads
            value, grads = _value_grad_blocks(obj, xb)
        X = xb.reshape(-1)
        rec(k, value - opt.f_star, grads,
            apply_lifted_laplacian(graph, obj.d, X))
    return rec.trace


def diging_run(params: StepParams, obj: SeparableObjective,
               graph: AgentGraph, X0: np.ndarray, iters: int,
               opt: ConsensusOptimum) -> RunTrace:
    """Gradient tracking: x <- Wx - alpha y; y <- Wy + grad(x_new) - grad(x_old).

    Preserves the tracking identity sum_i y_i = sum_i grad f_i(x_i).
    """
    w = metropolis_weights(graph)
    xb = np.asarray(X0, dtype=float).reshape(graph.m, obj.d).copy()
    value, grads = _value_grad_blocks(obj, xb)
    yb = grads
    rec = TraceRecorder(TraceRecorder.BASELINE_COLUMNS, {
        "algorithm": "diging", **asdict(params), "iters": iters}, opt.f_star)
    residual = 0.0
    for k in range(iters + 1):
        if k:
            xb = w.dot(xb) - params.alpha * yb
            value, new_grads = _value_grad_blocks(obj, xb)
            yb = w.dot(yb) + new_grads - grads
            grads = new_grads
            # np.add.reduce is ndarray.sum without its Python wrapper
            gap = np.add.reduce(yb, 0) - np.add.reduce(grads, 0)
            residual = max(residual, TraceRecorder.norm(gap))
        X = xb.reshape(-1)
        rec(k, value - opt.f_star, grads,
            apply_lifted_laplacian(graph, obj.d, X))
    rec.trace.metadata["max_tracking_residual"] = residual
    return rec.trace


def pi_consensus_run(params: PIParams, obj: SeparableObjective,
                     graph: AgentGraph, X0: np.ndarray, iters: int,
                     opt: ConsensusOptimum) -> RunTrace:
    """Proportional-integral consensus flow, explicit Euler with step h_step:

        x' = -alpha grad f(x) - Llift x - beta_gain v,    v' = Llift x.

    The integral state v drives exact convergence; column sums of the
    Laplacian being zero keeps sum_i v_i at zero.
    """
    alpha, beta_gain, h_step = params.alpha, params.beta_gain, params.h_step
    x = np.asarray(X0, dtype=float).copy()
    v = np.zeros_like(x)
    value, g = obj.value_grad(x)
    lx = apply_lifted_laplacian(graph, obj.d, x)
    rec = TraceRecorder(TraceRecorder.BASELINE_COLUMNS, {
        "algorithm": "pi_consensus", **asdict(params), "iters": iters},
        opt.f_star)
    rec(0, value - opt.f_star, g, lx)
    v_sum = 0.0
    for k in range(1, iters + 1):
        x_new = x + h_step * (-alpha * g - lx - beta_gain * v)
        v = v + h_step * lx
        x = x_new
        total = np.add.reduce(v.reshape(graph.m, obj.d), 0)
        v_sum = max(v_sum, TraceRecorder.norm(total))
        value, g = obj.value_grad(x)
        lx = apply_lifted_laplacian(graph, obj.d, x)
        rec(k, value - opt.f_star, g, lx)
    rec.trace.metadata["max_integral_sum"] = v_sum
    return rec.trace
