"""Rate-matching symplectic-Euler discretization of the distributed flow.

Implements the fixed-step algorithm (step s = h^2), the adaptive-step variant
with the four-case step-size controller, the per-iteration controller
quantities (a, b, a~, b~, w, r), and the Lyapunov certificates V_k / V0'
whose monotone decrease certifies the O(1/k^{2-beta}) rate.

Each iterate is evaluated once: its oracle values and the scalars read from
them (cost gap, Laplacian quadratic, |G_k|^2) travel with the state, and the
controller, the certificate and the next iteration read them from there.

The controller's r-quantity reads the stacked gradient at the consensus
optimum. That is centralized information; the "practical" oracle mode
replaces it with zero (exact on instances whose local minimizers coincide)
and flags the approximation in the trace metadata.
"""

from __future__ import annotations

import math
from contextlib import AbstractContextManager
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .graphs import AgentGraph, apply_lifted_laplacian, spectral_extremes
from .objectives import ConsensusOptimum, SeparableObjective
from .trace import RunTrace

__all__ = [
    "AgmParams",
    "AdaptiveParams",
    "FixedParams",
    "AgmState",
    "StepDiagnostics",
    "StepChoice",
    "DivergenceError",
    "TraceRecorder",
    "theta",
    "c_coeff",
    "a_coeff",
    "init",
    "step",
    "combined_field",
    "single_line_update",
    "compute_step_diagnostics",
    "smoothness_cap",
    "select_stepsize",
    "lyapunov",
    "fixed_step_run",
    "adaptive_run",
]


class DivergenceError(RuntimeError):
    def __init__(self, msg, iteration=None, trace=None):
        super().__init__(msg)
        self.iteration = iteration
        self.trace = trace


class TraceRecorder(AbstractContextManager):
    """Trace schema, row builder and divergence guard of every discrete run.

    Each call appends one row from oracle values the caller holds. A gap not
    within ``DIVERGENCE_FACTOR`` times the first row's gap (floored at the
    objective's rounding noise; NaN included) raises DivergenceError. As a
    context manager it hands its partial trace to any DivergenceError that
    leaves the block, such as ``step``'s non-finite check."""

    COLUMNS = ("k", "F_gap_plus", "F_gap", "grad_norm", "laplacian_norm",
               "s_k", "V_k", "case", "w", "r", "monotonicity_ok",
               "fallback_flag")
    DIVERGENCE_FACTOR = 1e6

    def __init__(self, metadata: dict, f_star: float):
        self.trace = RunTrace(self.COLUMNS, metadata)
        self._floor = 1e-12 * (1.0 + abs(f_star))
        self._limit = None

    def __call__(self, k, gap, grad, lx, s_k, gap_plus=None, v=np.nan,
                 case="", w=np.nan, r=np.nan, mono=True, fallback=False):
        self.trace.append(
            k=k, F_gap_plus=gap if gap_plus is None else gap_plus, F_gap=gap,
            grad_norm=float(np.linalg.norm(grad)),
            laplacian_norm=float(np.linalg.norm(lx)), s_k=s_k, V_k=v,
            case=case, w=w, r=r, monotonicity_ok=mono, fallback_flag=fallback)
        if self._limit is None:
            self._limit = self.DIVERGENCE_FACTOR * max(gap, self._floor)
        if not gap <= self._limit:
            raise DivergenceError(f"gap {gap:.3g} out of bounds at iteration "
                                  f"{k}", iteration=k, trace=self.trace)

    def __exit__(self, kind, err, tb):
        if isinstance(err, DivergenceError):
            err.trace = self.trace


@dataclass(frozen=True)
class AgmParams:
    """Both dist_agm runs' knobs: time scale h, gradient-weight exponent."""

    h: float = 10.0
    beta: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.beta < 2.0):
            raise ValueError(f"beta must lie in (0, 2), got {self.beta}")
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"h must be finite and positive, got {self.h}")


@dataclass(frozen=True)
class AdaptiveParams(AgmParams):
    """``adaptive_run``'s knobs. The controller's r reads the optimum
    gradient (``oracle_mode`` exact) or zero (practical); s_1 is
    ``s1_fraction`` times the k=1 smoothness cap."""

    oracle_mode: str = "exact"
    s1_fraction: float = 1e-3

    def __post_init__(self):
        super().__post_init__()
        if self.oracle_mode not in ("exact", "practical"):
            raise ValueError(f"unknown oracle_mode {self.oracle_mode!r}")
        if not 0.0 <= self.s1_fraction < math.inf:
            raise ValueError(
                f"need finite s1_fraction >= 0, got {self.s1_fraction}")


@dataclass(frozen=True)
class FixedParams(AgmParams):
    """``fixed_step_run``'s knobs: the step ``s``, h^2 when left None."""

    s: float | None = None

    def __post_init__(self):
        super().__post_init__()
        s = self.h * self.h if self.s is None else self.s
        if isinstance(s, bool) or not 0.0 < float(s) < math.inf:
            raise ValueError(f"s must be finite and positive, got {s!r}")
        object.__setattr__(self, "s", float(s))


def theta(k: int) -> float:
    return 0.5 * k


def _grad_weight(k: int, h: float, beta: float) -> float:
    """Gradient weight (2 theta_k h)^{-beta}; 2 theta_k = k exactly."""
    return (k * h) ** (-beta)


def c_coeff(k: int) -> float:
    """theta_{k+1} / (theta_{k+1}^2 - theta_k^2) = 2(k+1)/(2k+1)."""
    return theta(k + 1) / (theta(k + 1) ** 2 - theta(k) ** 2)


def a_coeff(k: int) -> float:
    """A_k = c_k theta_k^2, the Lyapunov weight."""
    return c_coeff(k) * theta(k) ** 2


@dataclass(slots=True)
class IterateEval:
    """Oracle values at one iterate X_k and the scalars every consumer reads
    from them: gradF(X_k), Llift X_k, G_k, the cost gap F(X_k) - F*, the
    Laplacian quadratic 1/2 (X_k - x*) . Llift X_k, and |G_k|^2."""

    grad: np.ndarray
    lx: np.ndarray
    G: np.ndarray
    gap: float
    quad: float
    g_sq: float


@dataclass(slots=True)
class AgmState:
    """Discrete iterate. ``X_plus`` is the plus-iterate produced by the step
    that created this state (i.e. X_{k-1}^+ when at index k); ``s`` is the
    step-size that the next step will apply, installed by the controller once
    it is chosen. ``ev`` holds the oracle values at ``X``; hand-built states
    leave it None and are evaluated on demand."""

    k: int
    X: np.ndarray
    X_plus: np.ndarray
    Z: np.ndarray
    s: float
    h: float
    beta: float
    ev: IterateEval | None = None


def _evaluated(state: AgmState, obj: SeparableObjective, graph: AgentGraph,
               opt: ConsensusOptimum) -> IterateEval:
    """The state's oracle values, evaluated here if it does not carry them."""
    if state.ev is not None:
        return state.ev
    X = state.X
    grad = obj.grad(X)
    lx = apply_lifted_laplacian(graph, obj.d, X)
    G = _grad_weight(state.k, state.h, state.beta) * grad + lx
    # Laplacian quadratic in the error; Llift X* vanishes at consensus.
    return IterateEval(grad=grad, lx=lx, G=G,
                       gap=obj.value(X) - opt.f_star,
                       quad=0.5 * float((X - opt.x_star_stacked).dot(lx)),
                       g_sq=float(G.dot(G)))


@dataclass(slots=True, frozen=True)
class StepDiagnostics:
    a: float
    b: float
    a_tilde: float
    b_tilde: float
    w: float
    r: float
    cap_smooth: float


class StepChoice(NamedTuple):
    """The controller's verdict for one transition (see select_stepsize)."""

    case: str
    chosen: float
    monotonicity_ok: bool


def init(X0: np.ndarray, h: float, beta: float) -> AgmState:
    """State after the k=0 bootstrap: X_1 = X_0, Z_1 = Z_0 = X_0, s_0 = 0.

    The k=0 update is trivial by construction so the (2 theta_k h)^{-beta}
    factor is never evaluated at k=0. The returned state carries s=0 until
    the caller installs s_1. ``h`` and ``beta`` are checked by AgmParams.
    """
    X0 = np.asarray(X0, dtype=float).copy()
    return AgmState(k=1, X=X0, X_plus=X0.copy(), Z=X0.copy(), s=0.0,
                    h=h, beta=beta)


def combined_field(state_k: int, X: np.ndarray, h: float, beta: float,
                   obj: SeparableObjective, graph: AgentGraph) -> np.ndarray:
    """G_k = (2 theta_k h)^{-beta} gradF(X_k) + Llift X_k, evaluated afresh.

    ``step`` reads G_k from the iterate's stored evaluation instead; this
    is the independent oracle the update-algebra checks compare it with."""
    return (_grad_weight(state_k, h, beta) * obj.grad(X)
            + apply_lifted_laplacian(graph, obj.d, X))


def step(state: AgmState, obj: SeparableObjective, graph: AgentGraph,
         opt: ConsensusOptimum, s_next: float = np.nan) -> AgmState:
    """One iteration k -> k+1 using the stored step-size s_k.

    Installs ``s_next`` as the step-size the new state will apply. The new
    state carries its oracle values, which the controller, the certificate
    and the next step read.
    """
    if state.k < 1:
        raise ValueError("step requires k >= 1; use init for the bootstrap")
    g = _evaluated(state, obj, graph, opt).G
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite update field", iteration=state.k)
    th_k, th_next = theta(state.k), theta(state.k + 1)
    x_plus = state.X - 0.5 * state.s * g
    z_new = state.Z - state.s * th_k * g
    ratio = th_k ** 2 / th_next ** 2
    x_new = ratio * x_plus + (1.0 - ratio) * z_new
    nxt = AgmState(k=state.k + 1, X=x_new, X_plus=x_plus, Z=z_new,
                   s=s_next, h=state.h, beta=state.beta)
    nxt.ev = _evaluated(nxt, obj, graph, opt)
    return nxt


def single_line_update(k: int, X: np.ndarray, Z: np.ndarray, s: float,
                       g: np.ndarray) -> np.ndarray:
    """Collapsed one-line form of the three-line update, written directly in
    (X_k, Z_k, G_k). Independent algebra used as the update oracle:

        X_{k+1} = k^2/(k+1)^2 X_k + (2k+1)/(k+1)^2 Z_k
                  - s k (3k+1) / (2 (k+1)^2) G_k
    """
    kk = float(k)
    return (kk ** 2 * X + (2.0 * kk + 1.0) * Z
            - 0.5 * s * kk * (3.0 * kk + 1.0) * g) / (kk + 1.0) ** 2


def _grad_star(opt: ConsensusOptimum, oracle_mode: str,
               size: int) -> np.ndarray:
    """The optimum gradient ``oracle_mode`` (see AdaptiveParams) reads."""
    return opt.grad_at_opt if oracle_mode == "exact" else np.zeros(size)


def compute_step_diagnostics(prev: AgmState, nxt: AgmState,
                             obj: SeparableObjective, graph: AgentGraph,
                             opt: ConsensusOptimum,
                             lam_max: float,
                             oracle_mode: str) -> StepDiagnostics:
    """Controller quantities for the transition k -> k+1 (k = prev.k >= 1).

    Only fills the raw quantities and the smoothness cap; case selection and
    the chosen step live in select_stepsize.
    """
    k = prev.k
    h, beta = prev.h, prev.beta
    scale_k = _grad_weight(k, h, beta)
    scale_next = _grad_weight(k + 1, h, beta)
    ev_k = _evaluated(prev, obj, graph, opt)
    ev_next = _evaluated(nxt, obj, graph, opt)
    g_k, g_next = ev_k.G, ev_next.G

    a = (scale_k * ev_k.gap + ev_k.quad - scale_next * ev_next.gap
         - ev_next.quad - float(g_next.dot(prev.X - nxt.X)))
    diff = g_k - g_next
    b = float(diff.dot(diff))
    w = float(g_k.dot(g_next))
    a_tilde = a + 0.5 * prev.s * w
    b_tilde = ev_k.g_sq + ev_next.g_sq
    gs = scale_next * _grad_star(opt, oracle_mode, g_k.size)
    r = -float(gs.dot(gs)) + 2.0 * float(gs.dot(gs - g_next))
    cap = smoothness_cap(k + 1, h, beta, lam_max, obj.smoothness)
    return StepDiagnostics(a=a, b=b, a_tilde=a_tilde, b_tilde=b_tilde,
                           w=w, r=r, cap_smooth=cap)


def bootstrap_diagnostics(state1: AgmState, obj: SeparableObjective,
                          graph: AgentGraph, opt: ConsensusOptimum,
                          lam_max: float,
                          oracle_mode: str) -> StepDiagnostics:
    """k=0 specialization: both endpoints use the theta_1 gradient scale.

    With the trivial bootstrap X_1 = X_0, the a-quantity vanishes and the
    b-quantity is twice the squared field norm; only the sign of r matters
    for the choice of s_1.
    """
    h, beta = state1.h, state1.beta
    ev = _evaluated(state1, obj, graph, opt)
    gs = _grad_weight(1, h, beta) * _grad_star(opt, oracle_mode, ev.G.size)
    r1 = -float(gs.dot(gs)) + 2.0 * float(gs.dot(gs - ev.G))
    cap = smoothness_cap(1, h, beta, lam_max, obj.smoothness)
    return StepDiagnostics(a=0.0, b=2.0 * ev.g_sq, a_tilde=0.0,
                           b_tilde=2.0 * ev.g_sq, w=ev.g_sq,
                           r=r1, cap_smooth=cap)


def smoothness_cap(k: int, h: float, beta: float, lam_max: float,
                   l_f: float) -> float:
    """Step cap 1 / max{lambda_max, (k h)^{-beta} L_f}."""
    return 1.0 / max(lam_max, _grad_weight(k, h, beta) * l_f)


def select_stepsize(diag: StepDiagnostics, s_k: float, A_k: float,
                    theta_next: float, k: int) -> StepChoice:
    """Four-case step-size rule plus smoothness cap and monotonicity check.

    Returns the active case, the chosen step and the monotonicity flag.
    The chosen value is the largest admitted by the active case bound and
    the cap; if that falls below s_k (monotonicity infeasible for k+1 >= 3)
    the bound value is still returned, flagged via monotonicity_ok=False.
    A non-positive case bound signals controller infeasibility via
    chosen=nan; callers fall back to min(s_k, cap) and flag the iteration.
    """
    if diag.w <= 0.0 and diag.r >= 0.0:
        case, num, den = "w<=0,r>=0", 4.0 * diag.a, diag.b
    elif diag.w <= 0.0:
        case, num, den = ("w<=0,r<0", 4.0 * A_k * diag.a,
                          A_k * diag.b + theta_next * (-diag.r))
    elif diag.r >= 0.0:
        case, num, den = "w>0,r>=0", 4.0 * diag.a_tilde, diag.b_tilde
    else:
        case, num, den = ("w>0,r<0", 4.0 * A_k * diag.a_tilde,
                          A_k * diag.b_tilde + theta_next * (-diag.r))
    if den <= 0.0:
        bound = np.inf if num >= 0.0 else np.nan
    else:
        bound = num / den
    if math.isnan(bound) or bound < 0.0:
        return StepChoice(case, np.nan, False)
    chosen = float(min(bound, diag.cap_smooth))
    return StepChoice(case, chosen, not (k + 1 >= 3 and chosen < s_k))


def lyapunov(prev: AgmState, nxt: AgmState, obj: SeparableObjective,
             graph: AgentGraph, opt: ConsensusOptimum) -> float:
    """Lyapunov certificate V_k for k = prev.k >= 1.

    Uses X_k, s_k from ``prev`` and Z_{k+1} from ``nxt``. Undefined when
    s_k = 0 (the distance term divides by s_k); returns NaN in that case.
    """
    k = prev.k
    if k < 1:
        raise ValueError("V_k is defined for k >= 1; use lyapunov_v0_prime")
    if not prev.s > 0.0:
        return np.nan
    ev = _evaluated(prev, obj, graph, opt)
    weight = 2.0 * c_coeff(k) * theta(k) ** 2
    fn_term = weight * _grad_weight(k, prev.h, prev.beta) * ev.gap
    cons_term = weight * ev.quad
    pen_term = -weight * 0.25 * prev.s * ev.g_sq
    z_err = nxt.Z - opt.x_star_stacked
    return fn_term + cons_term + pen_term + float(z_err.dot(z_err)) / prev.s


def lyapunov_v0_prime(X0: np.ndarray, opt: ConsensusOptimum,
                      s_ref: float) -> float:
    """k=0 certificate. theta_0 = 0 kills the bracketed block, leaving the
    distance term with the positive diagnostic constant s_ref in place of
    the algorithm's s_0 = 0 (which the rate bound divides by)."""
    if s_ref <= 0.0:
        raise ValueError("s_ref must be positive")
    z1_err = np.asarray(X0, dtype=float) - opt.x_star_stacked
    return float(z1_err @ z1_err) / s_ref


def fixed_step_run(params: FixedParams, obj: SeparableObjective,
                   graph: AgentGraph, X0: np.ndarray, iters: int,
                   opt: ConsensusOptimum) -> RunTrace:
    """Fixed step ``params.s`` for every iteration k >= 1."""
    s = params.s
    state = init(X0, params.h, params.beta)
    state.s = s
    ev = state.ev = _evaluated(state, obj, graph, opt)
    rec = TraceRecorder({"algorithm": "dist_agm_fixed", **asdict(params),
                         "iters": iters}, opt.f_star)
    with rec:
        rec(0, ev.gap, ev.grad, ev.lx, 0.0)  # X_plus is X_0 at k = 0
        for _ in range(iters):
            prev = state
            state = step(prev, obj, graph, opt, s_next=s)
            rec(prev.k, prev.ev.gap, prev.ev.grad, prev.ev.lx, s,
                gap_plus=obj.value(state.X_plus) - opt.f_star)
    return rec.trace


def adaptive_run(params: AdaptiveParams, obj: SeparableObjective,
                 graph: AgentGraph, X0: np.ndarray, iters: int,
                 opt: ConsensusOptimum) -> RunTrace:
    """Adaptive-step run with the four-case controller.

    Per iteration: apply the stored step, evaluate the controller
    quantities, select the next step, and record the Lyapunov certificate.
    The theory admits any s_1 > 0 when r_1 >= 0 but the later decrement
    argument needs s_1 <= s_2, so s_1 starts at a small fraction of the
    smoothness cap and the controller grows it. ``s_ref`` is the first
    accepted positive step (or the k=1 cap when s_1 = 0) and is used only
    in the k=0 certificate and the rate bound, never in the dynamics.
    """
    lam_max = spectral_extremes(graph).lambda_max
    state = init(X0, params.h, params.beta)
    ev = state.ev = _evaluated(state, obj, graph, opt)
    boot = bootstrap_diagnostics(state, obj, graph, opt, lam_max,
                                 params.oracle_mode)
    s1 = params.s1_fraction * boot.cap_smooth if boot.r >= 0.0 else 0.0
    s_ref = s1 if s1 > 0.0 else boot.cap_smooth
    state.s = s1
    v0_prime = lyapunov_v0_prime(X0, opt, s_ref)
    rec = TraceRecorder({"algorithm": "dist_agm_adaptive", **asdict(params),
                         "iters": iters, "s_ref": s_ref,
                         "V0_prime": v0_prime}, opt.f_star)
    with rec:
        rec(0, ev.gap, ev.grad, ev.lx, 0.0, v=v0_prime, case="bootstrap",
            r=boot.r)  # X_plus is X_0 at k = 0
        for _ in range(iters):
            prev = state
            state = step(prev, obj, graph, opt)
            diag = compute_step_diagnostics(prev, state, obj, graph, opt,
                                            lam_max, params.oracle_mode)
            choice = select_stepsize(diag, prev.s, a_coeff(prev.k),
                                     theta(prev.k + 1), prev.k)
            fallback = not math.isfinite(choice.chosen)
            state.s = (min(prev.s, diag.cap_smooth) if fallback
                       else choice.chosen)
            v = lyapunov(prev, state, obj, graph, opt)
            rec(prev.k, prev.ev.gap, prev.ev.grad, prev.ev.lx, prev.s,
                gap_plus=obj.value(state.X_plus) - opt.f_star, v=v,
                case=choice.case, w=diag.w, r=diag.r,
                mono=choice.monotonicity_ok, fallback=fallback)
    return rec.trace
