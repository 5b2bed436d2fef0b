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
The default is classical RK4 at the fixed step ``dt``. ``rtol`` selects
Dormand and Prince's eighth-order pair DOP853 (Hairer, Norsett & Wanner,
Solving ODEs I, II.10): its last stage is the new point (FSAL), and the step
is chosen so that its error estimate, two embedded error rows of orders 5
and 3 combined as in dop853.f, stays within rtol relative and 1e-3 rtol
absolute.

The dynamics are written once, as the coefficient row (-3/t, -t^{-beta},
-k_gain) that multiplies (V, gradF(X), Llift X) to give dV; ``flow_rhs`` and
the integrator both read it. In ``integrate`` a stage point (X_s, V_s) is
one product of (1, the tableau's row) with (Y, the stage slopes K); the
oracles write gradF(X_s) and Llift X_s into the stage buffer, which one
product of the rows (1, 0, 0) and the dynamics' row turns into the stage's
(dX, dV), and one product with X_s - x* into both of the ledger's inner
products. A stage takes one power of t (t^{1-beta} = t t^{-beta}), 1 fused
cost-and-gradient call (``value_grad``), whose cost the ledger's rates
need, and 1 lifted-Laplacian apply: 4 of each per RK4 step and 12 per
DOP853 attempt. The new point's evaluation, the only one it gets,
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
from .trace import DivergenceError, RunTrace

__all__ = [
    "FlowParams",
    "LEDGER",
    "COLUMNS",
    "flow_rhs",
    "energy_at",
    "integrate",
    "rate_slope",
]


@dataclass(frozen=True)
class FlowParams:
    """The flow's knobs, checked at construction; ``integrate`` writes them
    as its trace's metadata. ``rtol`` None steps RK4 at ``dt``; a finite
    positive ``rtol`` selects the error-controlled DOP853 step, with ``dt``
    its first trial step."""

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
    """An explicit Runge-Kutta method. Stage i sits at t + c[i] h and
    Y + h (a[i] . K[:i]); the step is Y + h (b . K). For each row e_r of
    ``e``, h (e_r . K) estimates the step's local error. An FSAL pair's
    last a-row equals b (whose last entry is 0), so its last stage is the
    new point. Every coefficient is a float, the nearest to its exact
    fraction (RK4's) or to its published decimal (DOP853's)."""

    c: tuple
    a: tuple  # a[i] holds the i coefficients of stage i; a[0] is empty
    b: tuple
    e: tuple = ()


_RK4 = _Tableau(c=(0, 0.5, 0.5, 1), a=((), (0.5,), (0, 0.5), (0, 0, 1)),
                b=(1 / 6, 1 / 3, 1 / 3, 1 / 6))
# Dormand and Prince's 8(5,3) pair, DOP853 (Hairer, Norsett & Wanner, Solving
# ODEs I, II.10; the coefficients of their dop853.f, to 28-30 digits).
_B853 = (5.42937341165687622380535766363e-2, 0, 0, 0, 0,
         4.45031289275240888144113950566, 1.89151789931450038304281599044,
         -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
         -1.52160949662516078556178806805e-1,
         2.01365400804030348374776537501e-1,
         4.47106157277725905176885569043e-2, 0)
# The order-3 weights that differ from b's, which E3 = b - them compares.
_BHH853 = {0: 0.244094488188976377952755905512,
           8: 0.733846688281611857341361741547,
           11: 0.220588235294117647058823529412e-1}
_DOP853 = _Tableau(
    c=(0, 0.526001519587677318785587544488e-1,
       0.789002279381515978178381316732e-1, 0.118350341907227396726757197510,
       0.281649658092772603273242802490, 0.333333333333333333333333333333,
       0.25, 0.307692307692307692307692307692,
       0.651282051282051282051282051282, 0.6,
       0.857142857142857142857142857142, 1, 1),
    a=((),
       (5.26001519587677318785587544488e-2,),
       (1.97250569845378994544595329183e-2,
        5.91751709536136983633785987549e-2),
       (2.95875854768068491816892993775e-2, 0,
        8.87627564304205475450678981324e-2),
       (2.41365134159266685502369798665e-1, 0,
        -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1),
       (3.7037037037037037037037037037e-2, 0, 0,
        1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1),
       (3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2),
       (3.70920001185047927108779319836e-2, 0, 0,
        1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1,
        -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3),
       (6.24110958716075717114429577812e-1, 0, 0,
        -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1,
        2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1,
        -4.34898841810699588477366255144e1),
       (4.77662536438264365890433908527e-1, 0, 0,
        -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1,
        2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1,
        -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2),
       (-9.3714243008598732571704021658e-1, 0, 0,
        5.18637242884406370830023853209, 1.09143734899672957818500254654,
        -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1,
        2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
        -3.0467644718982195003823669022),
       (2.27331014751653820792359768449, 0, 0,
        -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444,
        -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1,
        -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1),
       _B853[:-1]),
    b=_B853,
    # E5, then E3; neither weighs the new point's slope K[12]
    e=((0.1312004499419488073250102996e-1, 0, 0, 0, 0,
        -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
        0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
        0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
        -0.2235530786388629525884427845e-1, 0),
       tuple(b - _BHH853.get(j, 0) for j, b in enumerate(_B853))))
# Step-size control of the embedded pair: the factor 0.9 err^(-1/8) (the
# exponent is one over the order of the error estimate, 7, plus one), kept
# within [0.2, 10], and no growth on the step after a rejection.
_SAFETY, _SHRINK_MIN, _GROW_MAX, _ERR_EXPONENT = 0.9, 0.2, 10.0, -0.125
# The weight of E3's squared norm in the error's size, as in dop853.f.
_E3_WEIGHT = 0.01
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


def _ledger_rates(t, point: _Point, params: FlowParams, t_beta):
    """The rates of the Laplacian, Bregman and beta integrals at time t:
    the ledger's three integrands at the point. ``t_beta`` is t^{-beta};
    t^{1-beta} is t t^{-beta}."""
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
    """The loop's view of ``tab``: (coef, c, e). Row i of coef (i = 1..S)
    holds the stage-i point's coefficients; row S is the step, b, to the
    new point, whose slope K[S] an FSAL pair's last stage already is and
    RK4 adds. c holds the S + 1 stage times; e, when ``tab`` has error
    rows, their weights over K[0..S]. A step of h weighs K by h times
    coef and puts its stages at h times c."""
    fsal = tab.a[-1] == tab.b[:-1]
    S = len(tab.a) - fsal
    coef = np.zeros((S + 1, S))
    for i, row in enumerate((*tab.a[1:S], tab.b[:S]), start=1):
        coef[i, :len(row)] = row
    c = np.array((*tab.c[:S], 1), dtype=float)
    e = np.array(tab.e, dtype=float) if tab.e else None
    return coef, c, e


def integrate(params: FlowParams, obj: SeparableObjective, graph: AgentGraph,
              X0: np.ndarray, V0: np.ndarray, opt: ConsensusOptimum,
              startup_dt_fraction: float = 0.05) -> RunTrace:
    """The trajectory from (t0, X0, V0) to the horizon with its energy
    ledger, integrated in the state Y = [X; V; I].

    With ``params.rtol`` None the step is RK4 at ``params.dt``, except near
    a tiny t0, where the 3/t damping would destabilize an explicit step:
    there the step is capped at ``startup_dt_fraction * t`` and ramps
    geometrically up to dt. With ``params.rtol`` set the step is DOP853
    from a trial step of ``params.dt``, resized after every attempt from
    its error estimate (which also keeps it stable near a tiny t0, so
    ``startup_dt_fraction`` is not read) and redone smaller when rejected.
    Records the start, every
    ``params.record_every``-th accepted step and the last one; the trace's
    metadata adds ``steps`` (accepted) and ``rejected``. A fixed step
    leaving the finite range, or a controlled step below the resolution of
    t, raises DivergenceError carrying the last accepted t and the trace,
    whose metadata holds the counts so far.
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
    coefs, c, e = _step_weights(_RK4 if rtol is None else _DOP853)
    S = len(coefs) - 1  # stages 1..S-1 lie inside the step; S is the new point
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
        err, scale = np.empty((len(e), Y.size)), np.empty_like(Y)
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
            np.multiply(coefs, dt, step_weights)
            offsets = (c * dt).tolist()
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
            trace.metadata.update(steps=steps, rejected=rejected)
            raise DivergenceError(f"trajectory diverged before t={t + dt:.6g}",
                                  at=t, trace=trace)
        if rtol is not None:
            size = math.inf
            if finite:  # E5 and E3 over atol + rtol |Y|, combined as DOP853's
                np.maximum(np.abs(Y, scale), np.abs(y_new, err[0]), out=scale)
                # the rows weigh K[S] by 0, and 0 * NaN is NaN: a new point
                # that is not finite rejects the step
                e.dot(K, err)
                scale *= rtol
                scale += atol
                err /= scale
                e5, e3 = err[0].dot(err[0]), err[1].dot(err[1])
                size = (dt * e5 / math.sqrt((e5 + _E3_WEIGHT * e3) * Y.size)
                        if e5 else 0.0)
            if not size <= 1.0:  # NaN too: a stage overflowed
                rejected += 1
                h = dt * (max(_SHRINK_MIN, _SAFETY * size ** _ERR_EXPONENT)
                          if size < math.inf else _SHRINK_MIN)
                grow_max = 1.0
                if t + h == t:
                    trace.metadata.update(steps=steps, rejected=rejected)
                    raise DivergenceError(
                        f"step size underflow before t={t + dt:.6g}", at=t,
                        trace=trace)
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
    """Closed-form least-squares slope of log(gap) on log(t) in a window.

    ``window=(lo, hi)`` restricts to that t-range; otherwise the last
    ``tail_fraction`` of samples is used. Gaps that are not finite and
    positive (float noise, a diverged run's last row) are dropped and
    flagged. Returns (slope, r_squared, flagged). ``tail_fraction`` must
    lie in (0, 1]; under 20 points or no finite spread in t raise ValueError.
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
    kept = (gaps > 0.0) & (gaps < np.inf)  # NaN fails both
    flagged = bool(np.any(mask & ~kept))
    mask &= kept
    if mask.sum() < 20:
        raise ValueError(f"rate window too small ({int(mask.sum())} points)")
    lt, lg = np.log(ts[mask]), np.log(gaps[mask])
    if not 0.0 < lt.max() - lt.min() < np.inf:  # NaN fails too
        raise ValueError("rate window has no finite spread in t")
    lt -= lt.mean()
    lg -= lg.mean()
    sxx, sxy, syy = float(lt @ lt), float(lt @ lg), float(lg @ lg)
    slope = sxy / sxx
    r2 = 1.0 - (syy - slope * sxy) / syy if syy > 0.0 else 1.0
    return slope, r2, flagged
