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
holding X_s, V_s, gradF(X_s) and Llift X_s). The gradient and Laplacian
oracles write their stage field into W[2] and W[3] in place (their ``out``
argument), and the accepted point's evaluation writes there too, where the
next step's first stage reads it. A stage's dV is one dot of its row with
W[1:], and the step is Y + (dt/6, dt/3, dt/3, dt/6) . K, written into a
second state buffer. A step allocates no stage array and makes 3 gradient
calls, 1 fused cost-and-gradient call (``value_grad``) and 4
lifted-Laplacian applies.

The trace is defined here once: ``COLUMNS`` names its columns and ``LEDGER``
the six ledger terms among them. One private row builder fills a row from
the accepted point's evaluation; ``integrate`` appends it every
``record_every`` steps and ``energy_at`` returns it at one sample.
``FlowParams`` holds every knob of a run and is the trace's metadata.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .graphs import AgentGraph, apply_lifted_laplacian
from .objectives import ConsensusOptimum, SeparableObjective
from .trace import RunTrace

__all__ = [
    "FlowParams",
    "LEDGER",
    "COLUMNS",
    "BlowUpError",
    "flow_rhs",
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
    """The flow's knobs, checked at construction; ``integrate`` writes them
    as its trace's metadata."""

    beta: float = 0.1
    k_gain: float = 1.0
    t0: float = 1.0
    dt: float = 1e-3
    horizon: float = 50.0
    record_every: int = 10

    def __post_init__(self):
        if not (0.0 < self.beta < 2.0):
            raise ValueError(f"beta must lie in (0, 2), got {self.beta}")
        if not (0.0 < self.k_gain < np.inf and 0.0 < self.dt < np.inf):
            raise ValueError("k_gain and dt must be finite and positive")
        if not (0.0 < self.t0 < self.horizon < np.inf):
            raise ValueError("need 0 < t0 < horizon < inf")
        if not self.record_every >= 1:
            raise ValueError(
                f"record_every must be >= 1, got {self.record_every}")


# The six ledger terms as trace columns: kinetic, Laplacian and potential
# at the point, then the Laplacian, Bregman and beta running integrals.
LEDGER = ("E_kinetic", "E_laplacian", "E_potential", "E_int_laplacian",
          "E_int_bregman", "E_int_beta")
# The flow trace's columns; E_total is the sum of the LEDGER terms.
COLUMNS = ("t", "F_gap", "grad_norm", "laplacian_norm", "E_total", *LEDGER)


def _field_row(t, params: FlowParams, out=None) -> np.ndarray:
    """Coefficients of V, gradF(X) and Llift X in dV at time t: the dynamics
    are dV = -(3/t) V - t^{-beta} gradF(X) - k_gain Llift X. Written into
    ``out`` when given, else into a new array."""
    if out is None:
        out = np.empty(3)
    out[0] = -3.0 / t
    out[1] = -t ** (-params.beta)
    out[2] = -params.k_gain
    return out


def flow_rhs(t, Y, params: FlowParams, obj: SeparableObjective,
             graph: AgentGraph):
    """Phase-space right-hand side dY = (V, dV) of the state Y = [X; V]."""
    if t <= 0:
        raise ValueError(f"flow is singular at t={t}")
    n = Y.size // 2
    X, V = Y[:n], Y[n:]
    field = (V, obj.grad(X), apply_lifted_laplacian(graph, obj.d, X))
    return np.concatenate((V, _field_row(t, params).dot(field)))


class _Point(NamedTuple):
    """One evaluation of the flow at an accepted point (t, X). In
    ``integrate`` grad and lx are views of the stage buffer: they hold the
    point's values until the next step's second stage overwrites them, and
    ``_row`` reads them before that."""

    grad: np.ndarray  # gradF(X)
    lx: np.ndarray  # Llift X
    gap: float  # F(X) - F*
    xbar: np.ndarray  # X - x*
    x_lx: float  # xbar . Llift X (= xbar . Llift xbar, as Llift x* = 0)
    integrands: tuple  # Laplacian, Bregman and beta energy integrands


def _evaluate(t, X, obj, graph, opt, params, grad=None, lx=None) -> _Point:
    """The point's oracles and ledger inputs; ``grad`` and ``lx``, when
    given, are the buffers its gradient and Llift X are written into."""
    xbar = X - opt.x_star_stacked
    lx = apply_lifted_laplacian(graph, obj.d, X, lx)
    x_lx = float(xbar.dot(lx))
    value, grad = obj.value_grad(X, grad)
    # grad . (x* - X) is exactly -(grad . xbar): negation commutes with
    # every rounding of the subtraction and the dot product
    bregman = opt.f_star - value + float(grad.dot(xbar))
    gap = value - opt.f_star
    weight = t ** (1.0 - params.beta)
    return _Point(grad, lx, gap, xbar, x_lx, (params.k_gain * t * x_lx,
                                              2.0 * weight * bregman,
                                              params.beta * weight * gap))


def _row(t, V, point: _Point, params: FlowParams, integrals) -> dict:
    """The trace row at an accepted point, keyed by ``COLUMNS``: the
    ledger's three point terms, then ``integrals``, the running (Laplacian,
    Bregman, beta) triple, and their sum, taken left to right. A norm is
    sqrt(v.v), the same bits as ``np.linalg.norm`` of a 1-D float64 array."""
    momentum = t * V + 2.0 * point.xbar
    ledger = (0.5 * float(momentum.dot(momentum)),
              0.5 * params.k_gain * t ** 2 * point.x_lx,
              t ** (2.0 - params.beta) * point.gap, *integrals)
    total = ledger[0]
    for term in ledger[1:]:  # not sum(), which compensates from Python 3.12
        total += term
    grad, lx = point.grad, point.lx
    return dict(zip(COLUMNS, (t, point.gap, math.sqrt(float(grad.dot(grad))),
                              math.sqrt(float(lx.dot(lx))), total, *ledger),
                    strict=True))


def energy_at(t, X, V, integrals, obj: SeparableObjective, graph: AgentGraph,
              opt: ConsensusOptimum, params: FlowParams) -> dict:
    """The trace row, ledger included, at one sample given the three running
    integrals.

    ``integrals`` is the (laplacian, bregman, beta) triple accumulated since
    t0. For a start at small t0 with zero velocity ``E_total`` approaches
    twice the squared initial distance to the optimum.
    """
    return _row(t, V, _evaluate(t, X, obj, graph, opt, params), params,
                integrals)


def integrate(params: FlowParams, obj: SeparableObjective, graph: AgentGraph,
              X0: np.ndarray, V0: np.ndarray, opt: ConsensusOptimum,
              startup_dt_fraction: float = 0.05) -> RunTrace:
    """RK4 trajectory with conserved-energy bookkeeping.

    The step is ``params.dt`` except near a tiny t0, where the 3/t damping
    would destabilize an explicit step: there the step is capped at
    ``startup_dt_fraction * t`` and ramps geometrically up to dt. Records
    the start, every ``params.record_every``-th accepted step and the last
    one. Each accepted point is evaluated once; that evaluation feeds the
    trapezoid integrals, the trace row and the next step's first stage. The
    stage oracles and that evaluation write into preallocated stage
    buffers, so a step allocates no stage array; per step there are 3
    ``grad`` calls, 1 ``value_grad`` call and 4 lifted-Laplacian applies.
    A step that leaves the finite range raises BlowUpError carrying the
    time of the last accepted point.
    """
    if not startup_dt_fraction > 0.0:
        raise ValueError(
            f"startup_dt_fraction must be positive, got {startup_dt_fraction}")
    X0 = np.asarray(X0, dtype=float)
    V0 = np.asarray(V0, dtype=float)
    n = graph.m * obj.d
    if X0.shape != (n,) or V0.shape != X0.shape:
        raise ValueError("X0/V0 must be stacked md-vectors")
    # Stage buffers, filled in place each step: K[i] is stage i's dY and
    # W holds its point X_s, V_s, gradF(X_s) and Llift X_s, so W[:2] read
    # flat is the stage's phase-space point. The oracles write W[2] and
    # W[3]; the accepted point's evaluation writes them too, and the next
    # step's first stage reads them there. The views are taken once, and
    # ``out`` goes by position, which numpy parses faster than a keyword.
    K = np.empty((4, 2 * n))
    W = np.empty((4, n))
    stage_y, x_s, v_s, field = W[:2].reshape(-1), W[0], W[1], W[1:]
    grad_s, lx_s = W[2], W[3]
    slopes = list(K)
    stage_dx = [k[:n] for k in slopes]
    stage_dv = [k[n:] for k in slopes]
    Y = np.concatenate((X0, V0))  # phase-space state [X; V]
    y_next, incr, zeros = np.empty_like(Y), np.empty_like(Y), np.zeros_like(Y)
    t = params.t0
    point = _evaluate(t, Y[:n], obj, graph, opt, params, grad_s, lx_s)
    # running Laplacian, Bregman and beta integrals
    int_lap = int_breg = int_beta = 0.0
    trace = RunTrace(COLUMNS, metadata=asdict(params))
    trace.append(**_row(t, Y[n:], point, params, (0.0, 0.0, 0.0)))
    # field rows at the step's start, midpoint and end, filled in place
    row, mid, end = _field_row(t, params), np.empty(3), np.empty(3)
    wts, wts_dt = None, None  # RK4 weights (dt/6, dt/3, dt/3, dt/6)
    t_end = params.horizon - 1e-15
    steps_since_record = 0
    while t < t_end:
        dt = min(params.dt, startup_dt_fraction * t, params.horizon - t)
        if dt != wts_dt:  # built once for the fixed-dt stretch
            half, wts_dt = 0.5 * dt, dt
            wts = np.array((dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0))
            # stage offsets as 0-d arrays, which a ufunc reads faster than
            # a Python float
            h_mid, h_end = np.array(half), np.array(dt)
        # stage 1 is the accepted point, whose field is already in W[2:]
        stage_y[:] = Y
        stage_dx[0][:] = v_s
        row.dot(field, stage_dv[0])
        _field_row(t + half, params, mid)
        _field_row(t + dt, params, end)
        for i, coef, h in ((1, mid, h_mid), (2, mid, h_mid),
                           (3, end, h_end)):
            np.multiply(slopes[i - 1], h, stage_y)
            stage_y += Y
            obj.grad(x_s, grad_s)
            apply_lifted_laplacian(graph, obj.d, x_s, lx_s)
            stage_dx[i][:] = v_s
            coef.dot(field, stage_dv[i])
        wts.dot(K, incr)
        np.add(Y, incr, y_next)
        Y, y_next = y_next, Y
        # 0 . Y is 0 when every entry of Y is finite and NaN otherwise
        # (0 * inf is NaN): the isfinite test in one dot, with no temporary
        if not math.isfinite(zeros.dot(Y)):
            raise BlowUpError(f"trajectory diverged before t={t + dt:.6g}",
                              last_t=t)
        t = t + dt  # the same sum as stage 4's time, so its row carries over
        row, end = end, row
        p = point.integrands
        point = _evaluate(t, Y[:n], obj, graph, opt, params, grad_s, lx_s)
        q = point.integrands
        int_lap += half * (p[0] + q[0])
        int_breg += half * (p[1] + q[1])
        int_beta += half * (p[2] + q[2])
        steps_since_record += 1
        if steps_since_record >= params.record_every or t >= t_end:
            trace.append(**_row(t, Y[n:], point, params,
                                (int_lap, int_breg, int_beta)))
            steps_since_record = 0
    return trace


def rate_slope(ts, gaps, tail_fraction: float = 0.5, window=None):
    """Least-squares slope of log(gap) against log(t) over a tail window.

    ``window=(lo, hi)`` restricts to that t-range; otherwise the last
    ``tail_fraction`` of samples is used. Non-positive gaps (float noise)
    are dropped and flagged. Returns (slope, r_squared, flagged).
    ``tail_fraction`` must lie in (0, 1].
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail_fraction must lie in (0, 1], got "
                         f"{tail_fraction}")
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
