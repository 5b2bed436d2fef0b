"""Continuous-time distributed accelerated gradient flow.

Integrates the second-order agent dynamics

    Xdd + (3/t) Xd + t^{-beta} gradF(X) + k_gain * Llift X = 0

together with the six-term energy ledger that is conserved along exact
trajectories: a kinetic term in the conjugate momentum, a Laplacian
quadratic, a time-weighted optimality gap, and three running integrals
(Laplacian, Bregman and gap). The integrator's state is Y = [X; V; I]: the
phase-space point and the three integrals, whose rates are the ledger's
integrands at the point, so the integrals are integrated at the order of
the stepper.

One explicit Runge-Kutta loop, driven by a Butcher tableau, advances Y.
The default is classical RK4 at the fixed step ``dt``. ``rtol`` selects the
Dormand-Prince 5(4) pair (Dormand & Prince 1980; Hairer, Norsett & Wanner,
Solving ODEs I, II.4-5): its last stage is the new point (FSAL), and the
step is chosen so that the embedded error estimate stays within rtol
relative and 1e-3 rtol absolute in the RMS norm.

The dynamics are written once, as the coefficient row (-3/t, -t^{-beta},
-k_gain) that multiplies (V, gradF(X), Llift X) to give dV; ``flow_rhs`` and
the integrator both read it. In ``integrate`` a stage point (X_s, V_s) is
one product of (1, the tableau's row) with (Y, the stage slopes K); the
oracles write gradF(X_s) and Llift X_s into the stage buffer, which one
product of the rows (1, 0, 0) and the dynamics' row turns into the stage's
(dX, dV), and one product with X_s - x* into both of the ledger's inner
products. A stage takes one power of t (t^{1-beta} = t t^{-beta}), 1 fused
cost-and-gradient call (``value_grad``), whose cost the ledger's rates
need, and 1 lifted-Laplacian apply: 4 of each per RK4 step and 6 per
Dormand-Prince attempt. The new point's evaluation, the only one it gets,
feeds the trace row and the next step's first stage.

The trace is defined here once: ``COLUMNS`` names its columns and ``LEDGER``
the six ledger terms among them. One private row builder fills a row from
the accepted point's evaluation; ``integrate`` appends it every
``record_every`` steps and ``energy_at`` returns it as a dict.
``FlowParams`` holds every knob of a run and, with the accepted and
rejected step counts, is the trace's metadata.
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
    as its trace's metadata. ``rtol`` None steps RK4 at ``dt``; a finite
    positive ``rtol`` selects the error-controlled Dormand-Prince step,
    with ``dt`` its first trial step."""

    beta: float = 0.1
    k_gain: float = 1.0
    t0: float = 1.0
    dt: float = 1e-3
    horizon: float = 50.0
    record_every: int = 10
    rtol: float | None = None

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
        if self.rtol is not None:
            if isinstance(self.rtol, bool) or not 0.0 < float(
                    self.rtol) < math.inf:
                raise ValueError(
                    f"rtol must be finite and positive, got {self.rtol!r}")
            object.__setattr__(self, "rtol", float(self.rtol))


# The six ledger terms as trace columns: kinetic, Laplacian and potential
# at the point, then the Laplacian, Bregman and beta running integrals.
LEDGER = ("E_kinetic", "E_laplacian", "E_potential", "E_int_laplacian",
          "E_int_bregman", "E_int_beta")
# The flow trace's columns; E_total is the sum of the LEDGER terms.
COLUMNS = ("t", "F_gap", "grad_norm", "laplacian_norm", "E_total", *LEDGER)


class _Tableau(NamedTuple):
    """An explicit Runge-Kutta method, each coefficient an exact fraction
    held as its (numerator, denominator) integer pair. Stage i sits at
    t + c[i] h and Y + h (a[i] . K[:i]); the step is Y + h (b . K). When
    ``b_hat`` is given, h ((b - b_hat) . K) estimates the step's local
    error. An FSAL pair's last a-row equals b (whose last entry is 0), so
    its last stage is the new point."""

    c: tuple
    a: tuple  # a[i] holds the i coefficients of stage i; a[0] is empty
    b: tuple
    b_hat: tuple = ()


def _q(*values) -> tuple:
    """Each "p/q" or "p" as the pair (p, q) or (p, 1)."""
    return tuple((int(num), int(den or 1))
                 for num, _, den in (v.partition("/") for v in values))


_RK4 = _Tableau(c=_q("0", "1/2", "1/2", "1"),
                a=((), _q("1/2"), _q("0", "1/2"), _q("0", "0", "1")),
                b=_q("1/6", "1/3", "1/3", "1/6"))
_DOPRI5 = _Tableau(
    c=_q("0", "1/5", "3/10", "4/5", "8/9", "1", "1"),
    a=((), _q("1/5"), _q("3/40", "9/40"), _q("44/45", "-56/15", "32/9"),
       _q("19372/6561", "-25360/2187", "64448/6561", "-212/729"),
       _q("9017/3168", "-355/33", "46732/5247", "49/176", "-5103/18656"),
       _q("35/384", "0", "500/1113", "125/192", "-2187/6784", "11/84")),
    b=_q("35/384", "0", "500/1113", "125/192", "-2187/6784", "11/84", "0"),
    b_hat=_q("5179/57600", "0", "7571/16695", "393/640", "-92097/339200",
             "187/2100", "1/40"))
# Step-size control of the embedded pair: the factor 0.9 err^(-1/5) (the
# exponent is one over the lower order plus one), kept within [0.2, 10],
# and no growth on the step after a rejection.
_SAFETY, _SHRINK_MIN, _GROW_MAX, _ERR_EXPONENT = 0.9, 0.2, 10.0, -0.2
# The absolute tolerance, as a fraction of rtol.
_ATOL_PER_RTOL = 1e-3


def _field_row(t, t_beta, params: FlowParams, out) -> np.ndarray:
    """Coefficients of V, gradF(X) and Llift X in dV at time t, written into
    ``out``: the dynamics are dV = -(3/t) V - t^{-beta} gradF(X) - k_gain
    Llift X, and ``t_beta`` is t^{-beta}."""
    out[0], out[1], out[2] = -3.0 / t, -t_beta, -params.k_gain
    return out


def flow_rhs(t, Y, params: FlowParams, obj: SeparableObjective,
             graph: AgentGraph):
    """Phase-space right-hand side dY = (V, dV) of the state Y = [X; V]."""
    if t <= 0:
        raise ValueError(f"flow is singular at t={t}")
    n = Y.size // 2
    X, V = Y[:n], Y[n:]
    field = (V, obj.grad(X), apply_lifted_laplacian(graph, obj.d, X))
    row = _field_row(t, t ** (-params.beta), params, np.empty(3))
    return np.concatenate((V, row.dot(field)))


class _Point(NamedTuple):
    """One evaluation of the flow at a point X. In ``integrate`` grad, lx and
    xbar are stage buffers, read by ``_row`` before the next stage writes."""

    grad: np.ndarray  # gradF(X)
    lx: np.ndarray  # Llift X
    gap: float  # F(X) - F*
    xbar: np.ndarray  # X - x*
    x_lx: float  # xbar . Llift X (= xbar . Llift xbar, as Llift x* = 0)
    bregman: float  # F* - F(X) - gradF(X) . (x* - X)


def _evaluate(X, obj, graph, opt, bufs=None) -> _Point:
    """The point's oracles and ledger inputs, written into ``bufs``: a
    2 x n array, its rows that take gradF(X) and Llift X, and an n-vector
    that takes X - x*."""
    if bufs is None:
        field = np.empty((2, X.size))
        bufs = (field, field[0], field[1], np.empty(X.size))
    field, grad, lx, xbar = bufs
    np.subtract(X, opt.x_star_stacked, xbar)
    apply_lifted_laplacian(graph, obj.d, X, lx)
    value, _ = obj.value_grad(X, grad)
    grad_x, x_lx = field.dot(xbar).tolist()
    # grad . (x* - X) is exactly -(grad . xbar): negation commutes with
    # every rounding of the subtraction and the product
    bregman = opt.f_star - value + grad_x
    return _Point(grad, lx, value - opt.f_star, xbar, x_lx, bregman)


def _ledger_rates(t, point: _Point, params: FlowParams, t_beta=None):
    """The rates of the Laplacian, Bregman and beta integrals at time t:
    the ledger's three integrands at the point. ``t_beta`` is t^{-beta}
    when the caller has it; t^{1-beta} is t t^{-beta}."""
    if t_beta is None:
        t_beta = t ** (-params.beta)
    weight = t * t_beta
    return (params.k_gain * t * point.x_lx, 2.0 * weight * point.bregman,
            params.beta * weight * point.gap)


def _row(t, V, point: _Point, params: FlowParams, integrals) -> tuple:
    """The trace row at an accepted point, in ``COLUMNS`` order: the
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
    return (t, point.gap, math.sqrt(float(grad.dot(grad))),
            math.sqrt(float(lx.dot(lx))), total, *ledger)


def energy_at(t, X, V, integrals, obj: SeparableObjective, graph: AgentGraph,
              opt: ConsensusOptimum, params: FlowParams) -> dict:
    """The trace row, ledger included, at one sample given ``integrals``,
    the (laplacian, bregman, beta) triple accumulated since t0. For a start
    at small t0 with zero velocity ``E_total`` approaches twice the squared
    initial distance to the optimum."""
    return dict(zip(COLUMNS, _row(t, V, _evaluate(X, obj, graph, opt),
                                  params, integrals), strict=True))


def _step_weights(tab: _Tableau):
    """The loop's view of ``tab``: (num, den, c_num, c_den, e). Row i of
    num / den (i = 1..S) holds the stage-i point's coefficients; row S is
    the step, b, to the new point, whose slope K[S] an FSAL pair's last
    stage already is and RK4 adds. c_num / c_den are the S + 1 stage
    times; e, when ``tab`` has b_hat, the error weights b - b_hat over
    K[0..S]. A weight is h * num / den, so RK4's are dt/6 and dt/3 and its
    stage offsets dt/2 and dt, bit for bit."""
    fsal = tab.a[-1] == tab.b[:-1]
    S = len(tab.a) - fsal
    rows = (*tab.a[1:S], tab.b[:S])
    num, den = np.zeros((S + 1, S)), np.ones((S + 1, S))
    for i, row in enumerate(rows, start=1):
        for j, (p, q) in enumerate(row):
            num[i, j], den[i, j] = p, q
    c_num, c_den = np.array((*tab.c[:S], (1, 1)), dtype=float).T
    e = None
    if tab.b_hat:
        # b - b_hat in integers, rounded once
        e = np.array([(p * q_hat - p_hat * q) / (q * q_hat)
                      for (p, q), (p_hat, q_hat)
                      in zip(tab.b, tab.b_hat, strict=True)])
    return num, den, c_num, c_den, e


def integrate(params: FlowParams, obj: SeparableObjective, graph: AgentGraph,
              X0: np.ndarray, V0: np.ndarray, opt: ConsensusOptimum,
              startup_dt_fraction: float = 0.05) -> RunTrace:
    """The trajectory from (t0, X0, V0) to the horizon with its energy
    ledger, integrated in the state Y = [X; V; I].

    With ``params.rtol`` None the step is RK4 at ``params.dt``, except near
    a tiny t0, where the 3/t damping would destabilize an explicit step:
    there the step is capped at ``startup_dt_fraction * t`` and ramps
    geometrically up to dt. With ``params.rtol`` set the step is
    Dormand-Prince 5(4) from a trial step of ``params.dt``, resized after
    every attempt from its error estimate (which also keeps it stable near
    a tiny t0, so ``startup_dt_fraction`` is not read) and redone smaller
    when rejected. Records the start, every
    ``params.record_every``-th accepted step and the last one; the trace's
    metadata adds ``steps`` (accepted) and ``rejected``. A fixed step
    leaving the finite range, or a controlled step below the resolution of
    t, raises BlowUpError carrying the time of the last accepted point.
    """
    if not startup_dt_fraction > 0.0:
        raise ValueError(
            f"startup_dt_fraction must be positive, got {startup_dt_fraction}")
    X0 = np.asarray(X0, dtype=float)
    V0 = np.asarray(V0, dtype=float)
    n = graph.m * obj.d
    if X0.shape != (n,) or V0.shape != X0.shape:
        raise ValueError("X0/V0 must be stacked md-vectors")
    rtol = params.rtol
    num, den, c_num, c_den, e = _step_weights(
        _RK4 if rtol is None else _DOPRI5)
    S = len(num) - 1  # stages 1..S-1 lie inside the step; S is the new point
    # Buffers, filled in place each step and viewed once (``out`` goes by
    # position, which numpy parses faster than a keyword): KY holds the
    # accepted point Y = [X; V; I], then K, the stage slopes dY (K[0] the
    # accepted point's); W holds a stage's X_s, V_s, gradF(X_s) and
    # Llift X_s, so W[:2] read flat is its phase-space point.
    KY = np.empty((S + 2, 2 * n + 3))
    Y, K, stage_xv = KY[0], KY[1:], KY[:, :2 * n]
    W = np.empty((4, n))
    stage_y, x_s, field = W[:2].reshape(-1), W[0], W[1:]
    bufs = (W[2:], W[2], W[3], np.empty(n))
    stage_slope = [row.reshape(2, n) for row in stage_xv[1:]]  # (dX, dV)
    stage_di = list(K[:, 2 * n:])
    coef = np.zeros((2, 3))  # dX = V, and dV by the dynamics' row
    coef[0, 0] = 1.0
    dv_row, beta = coef[1], params.beta
    # row i weighs Y by 1 and K[:i] by the step times the tableau's row i
    weights = np.ones((S + 1, S + 1))
    step_weights = weights[:, 1:]
    rows = [weights[i, :i + 1] for i in range(S + 1)]
    stage_sources = [stage_xv[:i + 1] for i in range(S)]
    Y[:n], Y[n:2 * n], Y[2 * n:] = X0, V0, 0.0
    y_new, zeros = np.empty_like(Y), np.zeros_like(Y)
    if rtol is not None:
        err, scale = np.empty_like(Y), np.empty_like(Y)
        atol = _ATOL_PER_RTOL * rtol

    def slope(t_s, i) -> _Point:
        """Evaluate the stage point in W at time t_s into K[i]."""
        point = _evaluate(x_s, obj, graph, opt, bufs)
        t_beta = t_s ** -beta
        _field_row(t_s, t_beta, params, dv_row)
        coef.dot(field, stage_slope[i])
        di = stage_di[i]
        di[0], di[1], di[2] = _ledger_rates(t_s, point, params, t_beta)
        return point

    t = params.t0
    stage_y[:] = Y[:2 * n]
    point = slope(t, 0)
    trace = RunTrace(COLUMNS, metadata=asdict(params))
    trace.append(*_row(t, V0, point, params, (0.0, 0.0, 0.0)))
    t_end = params.horizon - 1e-15
    steps = rejected = steps_since_record = 0
    h, h_weights, grow_max = params.dt, None, _GROW_MAX
    while t < t_end:
        if rtol is None:
            dt = min(params.dt, startup_dt_fraction * t, params.horizon - t)
        else:
            dt = min(h, params.horizon - t)
        if dt != h_weights:  # built once for a fixed-dt stretch
            np.multiply(num, dt, step_weights)
            step_weights /= den
            offsets = (c_num * dt / c_den).tolist()
            h_weights = dt
        for i in range(1, S):
            rows[i].dot(stage_sources[i], stage_y)
            slope(t + offsets[i], i)
        rows[S].dot(KY[:S + 1], y_new)
        # 0 . Y is 0 when every entry of Y is finite and NaN otherwise
        # (0 * inf is NaN): the isfinite test in one dot, with no temporary
        finite = math.isfinite(zeros.dot(y_new))
        if finite:
            stage_y[:] = y_new[:2 * n]
            point = slope(t + offsets[S], S)
        elif rtol is None:
            raise BlowUpError(f"trajectory diverged before t={t + dt:.6g}",
                              last_t=t)
        if rtol is not None:
            size = math.inf
            if finite:  # the RMS of the error over atol + rtol |Y|
                np.maximum(np.abs(Y, scale), np.abs(y_new, err), out=scale)
                e.dot(K, err)
                scale *= rtol
                scale += atol
                err /= scale
                size = dt * math.sqrt(err.dot(err) / err.size)
            if not size <= 1.0:  # NaN too: a stage overflowed
                rejected += 1
                h = dt * (max(_SHRINK_MIN, _SAFETY * size ** _ERR_EXPONENT)
                          if size < math.inf else _SHRINK_MIN)
                grow_max = 1.0
                if t + h == t:
                    raise BlowUpError(
                        f"step size underflow before t={t + dt:.6g}",
                        last_t=t)
                continue
            h = dt * (min(grow_max, _SAFETY * size ** _ERR_EXPONENT)
                      if size > 0.0 else grow_max)
            grow_max = _GROW_MAX
        t = t + dt  # the same sum as the new point's time
        Y[:] = y_new
        K[0] = K[S]
        steps += 1
        steps_since_record += 1
        if steps_since_record >= params.record_every or t >= t_end:
            trace.append(*_row(t, Y[n:2 * n], point, params,
                               Y[2 * n:].tolist()))
            steps_since_record = 0
    trace.metadata.update(steps=steps, rejected=rejected)
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
