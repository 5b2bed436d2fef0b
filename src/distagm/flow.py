"""Continuous-time distributed accelerated gradient flow.

Integrates the second-order agent dynamics

    Xdd + (3/t) Xd + t^{-beta} gradF(X) + k_gain * Llift X = 0

as a first-order system in the phase-space state Y = [X; V] with classical
fixed-step RK4, and maintains the six-term energy ledger that is conserved
along exact trajectories: a kinetic term in the conjugate momentum, a
Laplacian quadratic, a time-weighted optimality gap, and three running
integrals (Laplacian, Bregman, and gap) accumulated by the trapezoidal rule
on the integration grid.

The dynamics are written once, as the coefficient row (-3/t, -t^{-beta},
-k_gain) that multiplies (V, gradF(X), Llift X) to give dV; ``flow_rhs`` and
the integrator both read it. Each ``integrate`` call allocates its RK4 stage
buffers once: the stage slopes K (4 x 2n) and the stage points W (4 x n,
holding X_s, V_s, gradF(X_s) and Llift X_s). A stage's dV is one dot of its
row with W[1:], and the step is Y + (dt/6, dt/3, dt/3, dt/6) . K. A step
makes 4 gradient calls, 4 lifted-Laplacian applies and 1 cost call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import AgentGraph, apply_lifted_laplacian
from .objectives import ConsensusOptimum, SeparableObjective
from .trace import RunTrace

__all__ = [
    "FlowParams",
    "EnergyLedger",
    "BlowUpError",
    "flow_rhs",
    "flow_rhs_per_agent",
    "energy_at",
    "integrate",
    "rate_slope",
]


class BlowUpError(RuntimeError):
    def __init__(self, msg, last_t=None):
        super().__init__(msg)
        self.last_t = last_t


@dataclass(frozen=True)
class FlowParams:
    beta: float
    k_gain: float = 1.0
    t0: float = 1.0
    dt: float = 1e-3
    horizon: float = 50.0

    def __post_init__(self):
        if not (0.0 < self.beta < 2.0):
            raise ValueError(f"beta must lie in (0, 2), got {self.beta}")
        if not (0.0 < self.k_gain < np.inf and 0.0 < self.dt < np.inf):
            raise ValueError("k_gain and dt must be finite and positive")
        if not (0.0 < self.t0 < self.horizon < np.inf):
            raise ValueError("need 0 < t0 < horizon < inf")


@dataclass(frozen=True)
class EnergyLedger:
    """Six conserved-energy components; ``total`` is their sum."""

    kinetic: float
    laplacian_term: float
    potential_term: float
    integral_laplacian: float
    integral_bregman: float
    integral_beta: float

    @property
    def total(self) -> float:
        return (self.kinetic + self.laplacian_term + self.potential_term
                + self.integral_laplacian + self.integral_bregman
                + self.integral_beta)


def _field_row(t, params: FlowParams) -> np.ndarray:
    """Coefficients of V, gradF(X) and Llift X in dV at time t: the dynamics
    are dV = -(3/t) V - t^{-beta} gradF(X) - k_gain Llift X."""
    return np.array((-3.0 / t, -t ** (-params.beta), -params.k_gain))


def flow_rhs(t, Y, params: FlowParams, obj: SeparableObjective,
             graph: AgentGraph):
    """Phase-space right-hand side dY = (V, dV) of the state Y = [X; V]."""
    if t <= 0:
        raise ValueError(f"flow is singular at t={t}")
    n = Y.size // 2
    X, V = Y[:n], Y[n:]
    field = (V, obj.grad(X), apply_lifted_laplacian(graph, obj.d, X))
    return np.concatenate((V, _field_row(t, params).dot(field)))


def flow_rhs_per_agent(t, Y, params: FlowParams, obj: SeparableObjective,
                       graph: AgentGraph):
    """Per-agent assembly of the same dynamics: agent i reads only its own
    gradient and neighbor state differences. Cross-checks the stacked form."""
    if t <= 0:
        raise ValueError(f"flow is singular at t={t}")
    n = Y.size // 2
    xb = Y[:n].reshape(graph.m, obj.d)
    vb = Y[n:].reshape(graph.m, obj.d)
    dv = np.empty_like(xb)
    for i in range(graph.m):
        consensus = sum((xb[i] - xb[j] for j in graph.neighbors[i]),
                        np.zeros(obj.d))
        dv[i] = (-(3.0 / t) * vb[i]
                 - t ** (-params.beta) * obj.local_grad(i, xb[i])
                 - params.k_gain * consensus)
    return np.concatenate((Y[n:], dv.reshape(-1)))


class _Point(NamedTuple):
    """One evaluation of the flow at an accepted point (t, X)."""

    grad: np.ndarray  # gradF(X)
    lx: np.ndarray  # Llift X
    gap: float  # F(X) - F*
    xbar: np.ndarray  # X - x*
    x_lx: float  # xbar . Llift X (= xbar . Llift xbar, as Llift x* = 0)
    integrands: tuple  # Laplacian, Bregman and beta energy integrands


def _evaluate(t, X, obj, graph, opt, params) -> _Point:
    xbar = X - opt.x_star_stacked
    lx = apply_lifted_laplacian(graph, obj.d, X)
    x_lx = float(xbar.dot(lx))
    value = obj.value(X)
    grad = obj.grad(X)
    # grad . (x* - X) is exactly -(grad . xbar): negation commutes with
    # every rounding of the subtraction and the dot product
    bregman = opt.f_star - value + float(grad.dot(xbar))
    gap = value - opt.f_star
    weight = t ** (1.0 - params.beta)
    return _Point(grad, lx, gap, xbar, x_lx, (params.k_gain * t * x_lx,
                                              2.0 * weight * bregman,
                                              params.beta * weight * gap))


def _ledger(t, V, point: _Point, params, integrals) -> EnergyLedger:
    """The ledger from its three point terms and the running integrals."""
    momentum = t * V + 2.0 * point.xbar
    return EnergyLedger(
        0.5 * float(np.dot(momentum, momentum)),
        0.5 * params.k_gain * t ** 2 * point.x_lx,
        t ** (2.0 - params.beta) * point.gap,
        *integrals)


def energy_at(t, X, V, integrals, obj: SeparableObjective, graph: AgentGraph,
              opt: ConsensusOptimum, params: FlowParams) -> EnergyLedger:
    """Energy ledger at one sample given the three running integrals.

    ``integrals`` is the (laplacian, bregman, beta) triple accumulated since
    t0. For a start at small t0 with zero velocity the total approaches
    twice the squared initial distance to the optimum.
    """
    return _ledger(t, V, _evaluate(t, X, obj, graph, opt, params), params,
                   integrals)


def integrate(params: FlowParams, obj: SeparableObjective, graph: AgentGraph,
              X0: np.ndarray, V0: np.ndarray, opt: ConsensusOptimum,
              record_every: int = 10, startup_dt_fraction: float = 0.05) -> RunTrace:
    """RK4 trajectory with conserved-energy bookkeeping.

    The step is ``params.dt`` except near a tiny t0, where the 3/t damping
    would destabilize an explicit step: there the step is capped at
    ``startup_dt_fraction * t`` and ramps geometrically up to dt. Records
    every ``record_every`` accepted steps. Each accepted point is evaluated
    once; that evaluation feeds the trapezoid integrals, the trace row and
    the next step's first stage. A step that leaves the finite range raises
    BlowUpError carrying the time of the last accepted point.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if not startup_dt_fraction > 0.0:
        raise ValueError(
            f"startup_dt_fraction must be positive, got {startup_dt_fraction}")
    X0 = np.asarray(X0, dtype=float)
    V0 = np.asarray(V0, dtype=float)
    n = graph.m * obj.d
    if X0.shape != (n,) or V0.shape != X0.shape:
        raise ValueError("X0/V0 must be stacked md-vectors")
    Y = np.concatenate((X0, V0))  # phase-space state [X; V]
    t = params.t0
    acc = [0.0, 0.0, 0.0]  # running Laplacian, Bregman and beta integrals
    point = _evaluate(t, Y[:n], obj, graph, opt, params)

    columns = ["t", "F_gap", "grad_norm", "laplacian_norm", "E_total",
               "E_kinetic", "E_laplacian", "E_potential",
               "E_int_laplacian", "E_int_bregman", "E_int_beta"]
    trace = RunTrace(columns, metadata={
        "beta": params.beta, "k_gain": params.k_gain, "t0": params.t0,
        "dt": params.dt, "horizon": params.horizon})

    def record(t, Y, point):
        ledger = _ledger(t, Y[n:], point, params, acc)
        trace.append(
            t=t,
            F_gap=point.gap,
            grad_norm=float(np.linalg.norm(point.grad)),
            laplacian_norm=float(np.linalg.norm(point.lx)),
            E_total=ledger.total,
            E_kinetic=ledger.kinetic,
            E_laplacian=ledger.laplacian_term,
            E_potential=ledger.potential_term,
            E_int_laplacian=ledger.integral_laplacian,
            E_int_bregman=ledger.integral_bregman,
            E_int_beta=ledger.integral_beta,
        )

    record(t, Y, point)
    # Stage buffers, filled in place each step: K[i] is stage i's dY and
    # W holds its point X_s, V_s, gradF(X_s) and Llift X_s, so W[:2] read
    # flat is the stage's phase-space point. The views are taken once, and
    # ``out`` goes by position, which numpy parses faster than a keyword.
    K = np.empty((4, 2 * n))
    W = np.empty((4, n))
    stage_y, x_s, v_s, field = W[:2].reshape(-1), W[0], W[1], W[1:]
    stage_dx = [K[i, :n] for i in range(4)]
    stage_dv = [K[i, n:] for i in range(4)]
    row = _field_row(t, params)
    steps_since_record = 0
    while t < params.horizon - 1e-15:
        dt = min(params.dt, startup_dt_fraction * t, params.horizon - t)
        half = 0.5 * dt
        stage_y[:] = Y
        W[2] = point.grad
        W[3] = point.lx
        mid = _field_row(t + half, params)
        end = _field_row(t + dt, params)
        for i, coef, h in ((0, row, 0.0), (1, mid, half), (2, mid, half),
                           (3, end, dt)):
            if i:
                np.multiply(K[i - 1], h, stage_y)
                stage_y += Y
                W[2] = obj.grad(x_s)
                W[3] = apply_lifted_laplacian(graph, obj.d, x_s)
            stage_dx[i][:] = v_s
            np.dot(coef, field, stage_dv[i])
        Y = Y + np.array((dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0)).dot(K)
        if not np.isfinite(Y).all():
            raise BlowUpError(f"trajectory diverged before t={t + dt:.6g}",
                              last_t=t)
        t = t + dt  # the same sum as stage 4's time, so its row carries over
        row = end
        prev = point
        point = _evaluate(t, Y[:n], obj, graph, opt, params)
        acc = [a + half * (p + q) for a, p, q in
               zip(acc, prev.integrands, point.integrands)]
        steps_since_record += 1
        if steps_since_record >= record_every or t >= params.horizon - 1e-15:
            record(t, Y, point)
            steps_since_record = 0
    return trace


def rate_slope(ts, gaps, tail_fraction: float = 0.5, window=None):
    """Least-squares slope of log(gap) against log(t) over a tail window.

    ``window=(lo, hi)`` restricts to that t-range; otherwise the last
    ``tail_fraction`` of samples is used. Non-positive gaps (float noise)
    are dropped and flagged. Returns (slope, r_squared, flagged).
    """
    ts = np.asarray(ts, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if window is not None:
        mask = (ts >= window[0]) & (ts <= window[1])
    else:
        start = int(len(ts) * (1.0 - tail_fraction))
        mask = np.zeros(len(ts), dtype=bool)
        mask[start:] = True
    flagged = bool(np.any(gaps[mask] <= 0.0))
    mask &= gaps > 0.0
    if mask.sum() < 20:
        raise ValueError(f"rate window too small ({int(mask.sum())} points)")
    lt, lg = np.log(ts[mask]), np.log(gaps[mask])
    slope, intercept = np.polyfit(lt, lg, 1)
    resid = lg - (slope * lt + intercept)
    ss_tot = float(np.sum((lg - lg.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2, flagged
