"""Rate-matching symplectic-Euler discretization of the distributed flow.

Implements the fixed-step algorithm (step s = h^2), the adaptive-step variant
with the four-case step-size controller, the per-iteration controller
quantities (a, b, a~, b~, w, r), and the Lyapunov certificates V_k / V0'
whose monotone decrease certifies the O(1/k^{2-beta}) rate.

The controller's r-quantity reads the stacked gradient at the consensus
optimum. That is centralized information; the "practical" oracle mode
replaces it with zero (exact on instances whose local minimizers coincide)
and flags the approximation in the trace metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graphs import AgentGraph, apply_lifted_laplacian, spectral_extremes
from .objectives import ConsensusOptimum, SeparableObjective
from .trace import RunTrace

__all__ = [
    "AgmState",
    "StepDiagnostics",
    "LyapunovRecord",
    "DivergenceError",
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

# Gap growth factor over the initial gap that counts as divergence.
_DIVERGENCE_FACTOR = 1e6


def _guard_reference(gap0: float, f_star: float) -> float:
    """Divergence threshold base: the initial gap, floored at rounding
    noise of the objective scale so exact-optimum starts never trip it."""
    return max(gap0, 1e-12 * (1.0 + abs(f_star)))


class DivergenceError(RuntimeError):
    def __init__(self, msg, iteration=None, trace=None):
        super().__init__(msg)
        self.iteration = iteration
        self.trace = trace


def theta(k: int) -> float:
    return 0.5 * k


def c_coeff(k: int) -> float:
    """theta_{k+1} / (theta_{k+1}^2 - theta_k^2) = 2(k+1)/(2k+1)."""
    return theta(k + 1) / (theta(k + 1) ** 2 - theta(k) ** 2)


def a_coeff(k: int) -> float:
    """A_k = c_k theta_k^2, the Lyapunov weight."""
    return c_coeff(k) * theta(k) ** 2


@dataclass(frozen=True)
class IterateEval:
    """Oracle values at one iterate: gradF(X_k), Llift X_k, F(X_k), G_k."""

    grad: np.ndarray
    lx: np.ndarray
    value: float
    G: np.ndarray


@dataclass(frozen=True)
class AgmState:
    """Discrete iterate. ``X_plus`` is the plus-iterate produced by the step
    that created this state (i.e. X_{k-1}^+ when at index k); ``s`` is the
    step-size that the next step will apply. ``ev`` holds the oracle values
    at ``X``; hand-built states leave it None and are evaluated on demand."""

    k: int
    X: np.ndarray
    X_plus: np.ndarray
    Z: np.ndarray
    s: float
    h: float
    beta: float
    ev: IterateEval | None = None

    @property
    def theta(self) -> float:
        return theta(self.k)


def _evaluated(state: AgmState, obj: SeparableObjective,
               graph: AgentGraph) -> IterateEval:
    """The state's oracle values, evaluated here if it does not carry them."""
    if state.ev is not None:
        return state.ev
    scale = (2.0 * theta(state.k) * state.h) ** (-state.beta)
    grad = obj.grad(state.X)
    lx = apply_lifted_laplacian(graph, obj.d, state.X)
    return IterateEval(grad=grad, lx=lx, value=obj.value(state.X),
                       G=scale * grad + lx)


@dataclass(frozen=True)
class StepDiagnostics:
    a: float
    b: float
    a_tilde: float
    b_tilde: float
    w: float
    r: float
    case: str
    cap_smooth: float
    chosen: float
    monotonicity_ok: bool


@dataclass(frozen=True)
class LyapunovRecord:
    k: int
    V: float
    function_term: float
    consensus_term: float
    step_penalty_term: float
    distance_term: float


def init(X0: np.ndarray, h: float, beta: float) -> AgmState:
    """State after the k=0 bootstrap: X_1 = X_0, Z_1 = Z_0 = X_0, s_0 = 0.

    The k=0 update is trivial by construction so the (2 theta_k h)^{-beta}
    factor is never evaluated at k=0. The returned state carries s=0 until
    the caller installs s_1.
    """
    if not (0.0 < beta < 2.0):
        raise ValueError(f"beta must lie in (0, 2), got {beta}")
    if h <= 0.0:
        raise ValueError(f"h must be positive, got {h}")
    X0 = np.asarray(X0, dtype=float).copy()
    return AgmState(k=1, X=X0, X_plus=X0.copy(), Z=X0.copy(), s=0.0,
                    h=h, beta=beta)


def combined_field(state_k: int, X: np.ndarray, h: float, beta: float,
                   obj: SeparableObjective, graph: AgentGraph) -> np.ndarray:
    """G_k = (2 theta_k h)^{-beta} gradF(X_k) + Llift X_k, shared by the
    plus- and Z-updates (one gradient evaluation per agent per iteration)."""
    scale = (2.0 * theta(state_k) * h) ** (-beta)
    return scale * obj.grad(X) + apply_lifted_laplacian(graph, obj.d, X)


def step(state: AgmState, obj: SeparableObjective, graph: AgentGraph,
         s_next: float = np.nan) -> AgmState:
    """One iteration k -> k+1 using the stored step-size s_k.

    Installs ``s_next`` as the step-size the new state will apply.
    """
    if state.k < 1:
        raise ValueError("step requires k >= 1; use init for the bootstrap")
    g = _evaluated(state, obj, graph).G
    if not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite update field", iteration=state.k)
    th_k, th_next = theta(state.k), theta(state.k + 1)
    x_plus = state.X - 0.5 * state.s * g
    z_new = state.Z - state.s * th_k * g
    ratio = th_k ** 2 / th_next ** 2
    x_new = ratio * x_plus + (1.0 - ratio) * z_new
    nxt = AgmState(k=state.k + 1, X=x_new, X_plus=x_plus, Z=z_new,
                   s=s_next, h=state.h, beta=state.beta)
    return replace(nxt, ev=_evaluated(nxt, obj, graph))


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
    if oracle_mode == "exact":
        return opt.grad_at_opt
    if oracle_mode == "practical":
        return np.zeros(size)
    raise ValueError(f"unknown oracle_mode {oracle_mode!r}")


def compute_step_diagnostics(prev: AgmState, nxt: AgmState,
                             obj: SeparableObjective, graph: AgentGraph,
                             opt: ConsensusOptimum,
                             lam_max: float,
                             oracle_mode: str = "exact") -> StepDiagnostics:
    """Controller quantities for the transition k -> k+1 (k = prev.k >= 1).

    Only fills the raw quantities and the smoothness cap; case selection and
    the chosen step live in select_stepsize.
    """
    k = prev.k
    h, beta = prev.h, prev.beta
    scale_k = (2.0 * theta(k) * h) ** (-beta)
    scale_next = (2.0 * theta(k + 1) * h) ** (-beta)
    ev_k, ev_next = _evaluated(prev, obj, graph), _evaluated(nxt, obj, graph)
    xbar_k = prev.X - opt.x_star_stacked
    xbar_next = nxt.X - opt.x_star_stacked
    g_k, g_next = ev_k.G, ev_next.G
    gap_k = ev_k.value - opt.f_star
    gap_next = ev_next.value - opt.f_star
    # Laplacian quadratic in the error; Llift X* vanishes at consensus.
    quad_k = 0.5 * float(xbar_k @ ev_k.lx)
    quad_next = 0.5 * float(xbar_next @ ev_next.lx)

    a = (scale_k * gap_k + quad_k - scale_next * gap_next - quad_next
         - float(g_next @ (prev.X - nxt.X)))
    b = float(np.dot(g_k - g_next, g_k - g_next))
    w = float(g_k @ g_next)
    a_tilde = a + 0.5 * prev.s * w
    b_tilde = float(g_k @ g_k) + float(g_next @ g_next)
    gs = scale_next * _grad_star(opt, oracle_mode, xbar_k.size)
    r = -float(gs @ gs) + 2.0 * float(gs @ (gs - g_next))
    cap = smoothness_cap(k + 1, h, beta, lam_max, obj.smoothness)
    return StepDiagnostics(a=a, b=b, a_tilde=a_tilde, b_tilde=b_tilde,
                           w=w, r=r, case="", cap_smooth=cap,
                           chosen=np.nan, monotonicity_ok=True)


def bootstrap_diagnostics(state1: AgmState, obj: SeparableObjective,
                          graph: AgentGraph, opt: ConsensusOptimum,
                          lam_max: float,
                          oracle_mode: str = "exact") -> StepDiagnostics:
    """k=0 specialization: both endpoints use the theta_1 gradient scale.

    With the trivial bootstrap X_1 = X_0, the a-quantity vanishes and the
    b-quantity is twice the squared field norm; only the sign of r matters
    for the choice of s_1.
    """
    h, beta = state1.h, state1.beta
    scale = (2.0 * theta(1) * h) ** (-beta)
    g1 = _evaluated(state1, obj, graph).G
    gs = scale * _grad_star(opt, oracle_mode, g1.size)
    r1 = -float(gs @ gs) + 2.0 * float(gs @ (gs - g1))
    cap = smoothness_cap(1, h, beta, lam_max, obj.smoothness)
    return StepDiagnostics(a=0.0, b=2.0 * float(g1 @ g1), a_tilde=0.0,
                           b_tilde=2.0 * float(g1 @ g1), w=float(g1 @ g1),
                           r=r1, case="bootstrap", cap_smooth=cap,
                           chosen=np.nan, monotonicity_ok=True)


def smoothness_cap(k: int, h: float, beta: float, lam_max: float,
                   l_f: float) -> float:
    """Step cap 1 / max{lambda_max, (k h)^{-beta} L_f}."""
    return 1.0 / max(lam_max, (k * h) ** (-beta) * l_f)


def select_stepsize(diag: StepDiagnostics, s_k: float, A_k: float,
                    theta_next: float, k: int) -> StepDiagnostics:
    """Four-case step-size rule plus smoothness cap and monotonicity check.

    Returns the diagnostics with case, chosen, and monotonicity_ok filled.
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
    if np.isnan(bound) or bound < 0.0:
        return replace(diag, case=case, chosen=np.nan, monotonicity_ok=False)
    chosen = min(bound, diag.cap_smooth)
    mono_ok = not (k + 1 >= 3 and chosen < s_k)
    return replace(diag, case=case, chosen=float(chosen),
                   monotonicity_ok=mono_ok)


def lyapunov(prev: AgmState, nxt: AgmState, obj: SeparableObjective,
             graph: AgentGraph, opt: ConsensusOptimum) -> LyapunovRecord:
    """Lyapunov certificate V_k for k = prev.k >= 1.

    Uses X_k, s_k from ``prev`` and Z_{k+1} from ``nxt``. Undefined when
    s_k = 0 (the distance term divides by s_k); returns NaN in that case.
    """
    k = prev.k
    if k < 1:
        raise ValueError("V_k is defined for k >= 1; use lyapunov_v0_prime")
    scale = (2.0 * theta(k) * prev.h) ** (-prev.beta)
    ev = _evaluated(prev, obj, graph)
    xbar = prev.X - opt.x_star_stacked
    weight = 2.0 * c_coeff(k) * theta(k) ** 2
    fn_term = weight * scale * (ev.value - opt.f_star)
    cons_term = weight * 0.5 * float(xbar @ ev.lx)
    if prev.s > 0.0:
        pen_term = -weight * 0.25 * prev.s * float(ev.G @ ev.G)
        dist = float(np.dot(nxt.Z - opt.x_star_stacked,
                            nxt.Z - opt.x_star_stacked)) / prev.s
        v = fn_term + cons_term + pen_term + dist
    else:
        pen_term, dist, v = np.nan, np.nan, np.nan
    return LyapunovRecord(k=k, V=v, function_term=fn_term,
                          consensus_term=cons_term,
                          step_penalty_term=pen_term, distance_term=dist)


def lyapunov_v0_prime(X0: np.ndarray, opt: ConsensusOptimum,
                      s_ref: float) -> float:
    """k=0 certificate. theta_0 = 0 kills the bracketed block, leaving the
    distance term with the positive diagnostic constant s_ref in place of
    the algorithm's s_0 = 0 (which the rate bound divides by)."""
    if s_ref <= 0.0:
        raise ValueError("s_ref must be positive")
    z1_err = np.asarray(X0, dtype=float) - opt.x_star_stacked
    return float(z1_err @ z1_err) / s_ref


_TRACE_COLUMNS = ["k", "F_gap_plus", "F_gap", "grad_norm", "laplacian_norm",
                  "s_k", "V_k", "case", "w", "r", "monotonicity_ok",
                  "fallback_flag"]


def _record(trace, k, gap, grad, lx, s_k, gap_plus=None, v=np.nan, case="",
            w=np.nan, r=np.nan, mono=True, fallback=False):
    """Append one trace row from oracle values the caller already holds."""
    trace.append(k=k, F_gap_plus=gap if gap_plus is None else gap_plus,
                 F_gap=gap, grad_norm=float(np.linalg.norm(grad)),
                 laplacian_norm=float(np.linalg.norm(lx)), s_k=s_k, V_k=v,
                 case=case, w=w, r=r, monotonicity_ok=mono,
                 fallback_flag=fallback)


def _guard(trace, gap0, k):
    """Raise once the last recorded gap exceeds the divergence threshold."""
    if trace.last("F_gap") > _DIVERGENCE_FACTOR * gap0:
        raise DivergenceError(
            f"gap grew {_DIVERGENCE_FACTOR:.0e}-fold by iteration {k}",
            iteration=k, trace=trace)


def fixed_step_run(obj: SeparableObjective, graph: AgentGraph,
                   X0: np.ndarray, h: float, beta: float, iters: int,
                   opt: ConsensusOptimum, s_override=None) -> RunTrace:
    """Fixed step s = h^2 (or an override) for every iteration k >= 1."""
    s = h * h if s_override is None else float(s_override)
    state = init(X0, h, beta)
    state = replace(state, s=s, ev=_evaluated(state, obj, graph))
    trace = RunTrace(_TRACE_COLUMNS, metadata={
        "algorithm": "dist_agm_fixed", "h": h, "beta": beta, "s": s,
        "iters": iters})
    _record(trace, 0, state.ev.value - opt.f_star, state.ev.grad, state.ev.lx,
            0.0, gap_plus=obj.value(state.X_plus) - opt.f_star)
    gap0 = _guard_reference(trace.last("F_gap"), opt.f_star)
    for _ in range(iters):
        prev = state
        try:
            state = step(prev, obj, graph, s_next=s)
        except DivergenceError as err:
            err.trace = trace
            raise
        _record(trace, prev.k, prev.ev.value - opt.f_star, prev.ev.grad,
                prev.ev.lx, s, gap_plus=obj.value(state.X_plus) - opt.f_star)
        _guard(trace, gap0, prev.k)
    return trace


def adaptive_run(obj: SeparableObjective, graph: AgentGraph, X0: np.ndarray,
                 h: float, beta: float, iters: int, opt: ConsensusOptimum,
                 oracle_mode: str = "exact", s_ref=None,
                 s1_fraction: float = 1e-3) -> RunTrace:
    """Adaptive-step run with the four-case controller.

    Per iteration: apply the stored step, evaluate the controller
    quantities, select the next step, and record the Lyapunov certificate.
    The theory admits any s_1 > 0 when r_1 >= 0 but the later decrement
    argument needs s_1 <= s_2, so s_1 starts at a small fraction of the
    smoothness cap and the controller grows it. ``s_ref`` defaults to the
    first accepted positive step (or the k=1 cap when s_1 = 0) and is used
    only in the k=0 certificate and the rate bound, never in the dynamics.
    """
    lam_max = spectral_extremes(graph).lambda_max
    state = init(X0, h, beta)
    state = replace(state, ev=_evaluated(state, obj, graph))
    boot = bootstrap_diagnostics(state, obj, graph, opt, lam_max,
                                 oracle_mode)
    s1 = s1_fraction * boot.cap_smooth if boot.r >= 0.0 else 0.0
    if s_ref is None:
        s_ref = s1 if s1 > 0.0 else boot.cap_smooth
    state = replace(state, s=s1)
    v0_prime = lyapunov_v0_prime(X0, opt, s_ref)
    trace = RunTrace(_TRACE_COLUMNS, metadata={
        "algorithm": "dist_agm_adaptive", "h": h, "beta": beta,
        "iters": iters, "oracle_mode": oracle_mode, "s_ref": s_ref,
        "V0_prime": v0_prime})
    _record(trace, 0, state.ev.value - opt.f_star, state.ev.grad, state.ev.lx,
            0.0, gap_plus=obj.value(state.X_plus) - opt.f_star, v=v0_prime,
            case="bootstrap", r=boot.r)
    gap0 = _guard_reference(trace.last("F_gap"), opt.f_star)
    for _ in range(iters):
        prev = state
        try:
            state = step(prev, obj, graph)
        except DivergenceError as err:
            err.trace = trace
            raise
        diag = compute_step_diagnostics(prev, state, obj, graph, opt,
                                        lam_max, oracle_mode)
        diag = select_stepsize(diag, prev.s, a_coeff(prev.k),
                               theta(prev.k + 1), prev.k)
        fallback = not np.isfinite(diag.chosen)
        s_next = min(prev.s, diag.cap_smooth) if fallback else diag.chosen
        state = replace(state, s=s_next)
        rec = lyapunov(prev, state, obj, graph, opt)
        _record(trace, prev.k, prev.ev.value - opt.f_star, prev.ev.grad,
                prev.ev.lx, prev.s,
                gap_plus=obj.value(state.X_plus) - opt.f_star, v=rec.V,
                case=diag.case, w=diag.w, r=diag.r,
                mono=diag.monotonicity_ok, fallback=fallback)
        _guard(trace, gap0, prev.k)
    return trace
