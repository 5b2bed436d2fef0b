"""Rate-matching symplectic-Euler discretization of the distributed flow.

Implements the fixed-step algorithm (step s = h^2), the adaptive-step variant
with the four-case step-size controller, the per-iteration controller
quantities (a, b, a~, b~, w, r), and the Lyapunov certificates V_k / V0'
whose monotone decrease certifies the O(1/k^{2-beta}) rate.

At s = h^2 iterate k sits at time t = k h of the flow (``flow``, with
k_gain 1), and X_k converges to X(k h) at order 1 in h. In the paper's
dilated coordinate W = X + (t/2) V the flow's E_kinetic is 2 |W - x*|^2
exactly, and the Z update Z - s theta_k G_k is one Euler step of
dW/dt = -(t/2) (t^{-beta} gradF(X) + Llift X) at step h.

Each iterate is one ``AgmState``, which copies its vectors into the rows
of an array it owns (see ``_XP``) and builds, when it is made, every view
of them the iteration reads and a 3x3 coefficient block. A run owns two
iterate states and alternates between them: ``step`` writes the five k-
and s-dependent entries of the spare's block, forms X+_k, Z_{k+1} and
X_{k+1} in the spare's rows with one product of that block with the rows
(Z_k, X_k, G_k), and evaluates X_{k+1} there.
One Gram product of the rows gives every inner product the transition and
the trace row read; a difference that can cancel is a row of its own,
never a bilinear expansion. One private call per transition returns the
controller quantities, the step and V_k.

The controller reads two centralized quantities: the stacked gradient at
the consensus optimum in r, which the "practical" oracle mode replaces with
zero (exact when the local minimizers coincide; the trace metadata flags
it), and the cost gaps F(X_k) - F* in a, in both modes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .graphs import AgentGraph, apply_lifted_laplacian, spectral_extremes
from .objectives import ConsensusOptimum, SeparableObjective
from .trace import DivergenceError, RunTrace, TraceRecorder

__all__ = [
    "AgmParams",
    "AdaptiveParams",
    "FixedParams",
    "AgmState",
    "StepDiagnostics",
    "StepChoice",
    "init",
    "step",
    "compute_step_diagnostics",
    "select_stepsize",
    "lyapunov",
    "fixed_step_run",
    "adaptive_run",
]


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
        s = self.step_size
        if isinstance(self.s, bool) or not 0.0 < s < math.inf:
            got = f"h^2 = {s!r}" if self.s is None else repr(self.s)
            raise ValueError(f"step s must be finite and positive, got {got}")

    @property
    def step_size(self) -> float:
        """The step the run applies: ``s``, or h^2 when ``s`` is None, so
        a copy made with a new h steps at its h^2."""
        return self.h * self.h if self.s is None else float(self.s)


# An iterate's rows: X+, Z, X, G, gradF(X), Llift X, Z - x*, X - x*,
# X_k - X_{k+1}, G_k - G_{k+1} and G_k. ``_GRAM`` indexes the entries
# ``_ready`` lists in the flat Gram product of the rows from _G on.
_XP, _Z, _X, _G, _DF, _LX, _ZBAR, _XBAR, _DX, _DG, _GK = range(11)
_GRAM = np.array([(i - _G) * (_GK + 1 - _G) + j - _G for i, j in (
    (_G, _G), (_DF, _DF), (_LX, _LX), (_ZBAR, _ZBAR), (_XBAR, _LX),
    (_G, _DX), (_DG, _DG), (_GK, _G))])


class AgmState:
    """Discrete iterate. ``X_plus`` is X_{k-1}^+, made by the step that made
    this state; ``s`` is the step the next step applies. The constructor
    copies X, X_plus and Z into ``rows``, an array the state owns (see
    ``_XP``), and builds every view of it the iteration reads; the Gram
    product's output ``products``; the 3x3 coefficient block ``coef`` that
    ``step`` fills in to write an iterate into these rows, with its constant
    entries set; and a zero vector, whose dot with v is 0 when every entry
    of v is finite and NaN otherwise (0 * inf is NaN). The first evaluation
    builds ``blocks``, the (m, d) views of X and Llift X that the Laplacian
    apply reads and writes. The cached values are filled in by
    ``_evaluate`` (``probe`` = 0 . G_k, NaN unless G_k is finite) and
    ``_ready``; ``gap`` is None until the state is evaluated."""

    __slots__ = ("k", "s", "h", "beta", "rows", "X", "X_plus", "Z", "G",
                 "grad", "lx", "gk", "zxg", "new", "zx", "bars", "xg",
                 "diffs", "block", "block_t", "products", "coef",
                 "coef_flat", "zeros", "blocks", "gram", "gap", "probe",
                 "weight")

    def __init__(self, k: int, X: np.ndarray, X_plus: np.ndarray,
                 Z: np.ndarray, s: float, h: float, beta: float):
        self.k, self.s, self.h, self.beta = k, s, h, beta
        self.rows = rows = np.empty((_GK + 1, np.size(X)))
        rows[_XP], rows[_Z], rows[_X] = X_plus, Z, X
        self.X_plus, self.Z, self.X = rows[_XP], rows[_Z], rows[_X]
        self.G, self.grad = rows[_G], rows[_DF]
        self.lx, self.gk = rows[_LX], rows[_GK]
        self.zxg, self.new = rows[_Z:_G + 1], rows[:_G]  # step's in and out
        self.zx, self.bars = rows[_Z:_X + 1], rows[_ZBAR:_XBAR + 1]
        self.xg, self.diffs = rows[_X:_G + 1], rows[_DX:_GK]
        self.block = rows[_G:]
        self.block_t = self.block.T
        self.products = np.empty((len(self.block),) * 2)
        self.coef = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                              [0.0, 0.0, 0.0]])
        self.coef_flat = self.coef.reshape(-1)
        self.zeros = np.zeros(rows.shape[1])
        self.blocks = self.gram = self.gap = self.probe = self.weight = None


def _evaluate(state: AgmState, obj: SeparableObjective, graph: AgentGraph,
              opt: ConsensusOptimum) -> AgmState:
    """Fills in the oracle values at X_k and the gradient weight
    (k h)^{-beta}; G_k = weight gradF(X_k) + Llift X_k."""
    G, grad, lx, blocks = state.G, state.grad, state.lx, state.blocks
    if blocks is None:
        blocks = state.blocks = (state.X.reshape(graph.m, obj.d),
                                 lx.reshape(graph.m, obj.d))
    value, _ = obj.value_grad(state.X, grad)
    apply_lifted_laplacian(graph, obj.d, blocks[0], blocks[1])
    state.weight = weight = (state.k * state.h) ** (-state.beta)
    np.multiply(grad, weight, G)
    G += lx
    state.gap = value - opt.f_star
    state.probe = float(state.zeros.dot(G))
    return state


def _ready(state: AgmState, prev: AgmState | None, obj: SeparableObjective,
           graph: AgentGraph, opt: ConsensusOptimum, ref: np.ndarray):
    """Evaluates the state if it is not. Given ``prev``, or lacking ``gram``,
    fills in its difference rows against ``ref`` (x*, or x* stacked twice)
    and ``prev`` (zero when None) and takes ``gram``: |G|^2, |gradF|^2,
    |Llift X|^2, |Z - x*|^2, (X - x*) . Llift X, G . dX, |dG|^2, G_k . G.
    The first five read no difference row, so any ``gram`` serves them."""
    if state.gap is None:
        _evaluate(state, obj, graph, opt)
    if state.gram is None or prev is not None:
        np.subtract(state.zx, ref, state.bars)
        if prev is None:
            state.rows[_DX:] = 0.0
        else:  # over rows _X to _LX it would add gradF's and Llift X's
            np.subtract(prev.xg, state.xg, state.diffs)
            np.copyto(state.gk, prev.G)
        state.block.dot(state.block_t, state.products)
        state.gram = state.products.take(_GRAM).tolist()


class StepDiagnostics(NamedTuple):
    """Controller quantities of one transition (compute_step_diagnostics)."""

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
    """State after the k=0 bootstrap: X_1 = X_0, Z_1 = Z_0 = X_0, s_0 = 0,
    so the (2 theta_k h)^{-beta} factor is never evaluated at k=0. The
    caller installs s_1; AgmParams checks ``h`` and ``beta``."""
    return AgmState(1, X0, X0, X0, 0.0, h, beta)


def step(state: AgmState, obj: SeparableObjective, graph: AgentGraph,
         opt: ConsensusOptimum, s_next: float = np.nan,
         spare: AgmState | None = None) -> AgmState:
    """One iteration k -> k+1 using the stored step-size s_k.

    Installs ``s_next`` as the step-size the new state will apply, and
    evaluates the new state. Given ``spare``, an evaluated state of the
    same run other than ``state``, the new state is ``spare``, its rows
    and cached values overwritten; otherwise it is a new state.
    """
    if state.k < 1:
        raise ValueError("step requires k >= 1; use init for the bootstrap")
    if state.gap is None:
        _evaluate(state, obj, graph, opt)
    if not math.isfinite(state.probe):
        raise DivergenceError("non-finite update field", at=state.k)
    k, s = state.k, state.s
    th_k = 0.5 * k
    ratio = th_k ** 2 / (0.5 * (k + 1)) ** 2
    if spare is None:
        spare = AgmState(k + 1, state.X, state.X_plus, state.Z, s_next,
                         state.h, state.beta)
    else:
        spare.k, spare.s = k + 1, s_next
        spare.gram = spare.gap = spare.probe = spare.weight = None
    # X+ = X - s/2 G, Z' = Z - s theta_k G, X' = ratio X+ + (1 - ratio) Z'
    coef = spare.coef_flat
    coef[2], coef[5] = -0.5 * s, -s * th_k
    coef[6], coef[7], coef[8] = (1.0 - ratio, ratio,
                                 -s * (0.5 * ratio + (1.0 - ratio) * th_k))
    spare.coef.dot(state.zxg, spare.new)
    return _evaluate(spare, obj, graph, opt)


def _r_quantity(state: AgmState, opt: ConsensusOptimum,
                oracle_mode: str) -> float:
    """r = -|gs|^2 + 2 gs . (gs - G), gs = the gradient weight times the
    optimum gradient ``oracle_mode`` reads: in practical mode 0, so r is
    the probe, as the formula gives (see AdaptiveParams)."""
    if oracle_mode != "exact":
        return state.probe
    gs = state.weight * opt.grad_at_opt
    return -float(gs.dot(gs)) + 2.0 * float(gs.dot(gs - state.G))


def _cap(weight: float, lam_max: float, l_f: float) -> float:
    """Step cap 1 / max{lambda_max, weight L_f}."""
    return 1.0 / max(lam_max, weight * l_f)


def _transition(prev: AgmState, nxt: AgmState, obj: SeparableObjective,
                graph: AgentGraph, opt: ConsensusOptimum, lam_max: float,
                oracle_mode: str, ref=None) -> tuple:
    """The transition k -> k+1 (k = prev.k >= 1) into ``nxt``, made from
    ``prev`` by ``step`` or by hand: the StepDiagnostics fields, the
    StepChoice fields, then V_k. ``ref`` is x* stacked twice, or None."""
    ref = opt.x_star_stacked if ref is None else ref
    if prev.gram is None:  # in a run, taken when prev was the last nxt
        _ready(prev, None, obj, graph, opt, ref)
    _ready(nxt, prev, obj, graph, opt, ref)
    g_sq, _, _, _, x_lx, _, _, _ = prev.gram
    g_sq_next, _, _, z_sq, x_lx_next, g_dx, b, w = nxt.gram
    k, s = prev.k, prev.s
    quad = 0.5 * x_lx  # 1/2 (X - x*) . Llift X: X . Llift X cancels near x*
    a = (prev.weight * prev.gap + quad - nxt.weight * nxt.gap
         - 0.5 * x_lx_next - g_dx)
    a_tilde = a + 0.5 * s * w
    b_tilde = g_sq + g_sq_next
    r = _r_quantity(nxt, opt, oracle_mode)
    cap = _cap(nxt.weight, lam_max, obj.smoothness)  # weight ((k+1) h)^-beta
    # the Lyapunov weight A_k = c_k theta_k^2 with theta_k = k/2 and
    # c_k = theta_{k+1} / (theta_{k+1}^2 - theta_k^2) = 2(k+1)/(2k+1)
    th, th_next = 0.5 * k, 0.5 * (k + 1)
    a_k = th_next / (th_next ** 2 - th ** 2) * th ** 2
    case, chosen, mono = _select(a, b, a_tilde, b_tilde, w, r, cap, s, a_k,
                                 th_next, k)
    v = np.nan
    if s > 0.0:  # gap, consensus, penalty and distance terms; 2 A_k is exact
        a2 = 2.0 * a_k
        v = (a2 * prev.weight * prev.gap + a2 * quad
             + -a2 * 0.25 * s * g_sq + z_sq / s)
    return a, b, a_tilde, b_tilde, w, r, cap, case, chosen, mono, v


def compute_step_diagnostics(prev: AgmState, nxt: AgmState,
                             obj: SeparableObjective, graph: AgentGraph,
                             opt: ConsensusOptimum, lam_max: float,
                             oracle_mode: str) -> StepDiagnostics:
    """Controller quantities for the transition k -> k+1 (k = prev.k >= 1)
    and the smoothness cap; select_stepsize picks the case and the step."""
    return StepDiagnostics(*_transition(prev, nxt, obj, graph, opt, lam_max,
                                        oracle_mode)[:7])


def bootstrap_diagnostics(state1: AgmState, obj: SeparableObjective,
                          graph: AgentGraph, opt: ConsensusOptimum,
                          lam_max: float, oracle_mode: str) -> StepDiagnostics:
    """k=0 specialization: both endpoints use the theta_1 gradient scale.
    With the trivial bootstrap X_1 = X_0, a vanishes and b is twice the
    squared field norm; only the sign of r matters for the choice of s_1."""
    _ready(state1, None, obj, graph, opt, opt.x_star_stacked)
    g_sq = state1.gram[0]
    return StepDiagnostics(
        0.0, 2.0 * g_sq, 0.0, 2.0 * g_sq, g_sq,
        _r_quantity(state1, opt, oracle_mode),
        _cap(state1.weight, lam_max, obj.smoothness))  # weight (1 h)^-beta


_CASES = (("w<=0,r>=0", "w<=0,r<0"), ("w>0,r>=0", "w>0,r<0"))


def _select(a, b, a_tilde, b_tilde, w, r, cap, s_k, A_k, theta_next,
            k) -> tuple:
    """select_stepsize on unpacked quantities, as a plain tuple. The case
    bound reads (a, b) if w <= 0, else (a~, b~): 4 a / b if r >= 0, else
    4 A_k a / (A_k b + theta_{k+1} (-r)). ``_CASES`` labels the 4 choices."""
    tilde, neg = not w <= 0.0, not r >= 0.0
    num, den = (a_tilde, b_tilde) if tilde else (a, b)
    num, den = ((4.0 * A_k * num, A_k * den + theta_next * (-r)) if neg
                else (4.0 * num, den))
    # a non-positive den admits any step if num >= 0 and none if not
    bound = (math.inf if num >= 0.0 else math.nan) if den <= 0.0 else num / den
    case = _CASES[tilde][neg]
    if math.isnan(bound) or bound < 0.0:
        return case, math.nan, False
    chosen = float(min(bound, cap))
    return case, chosen, not (k + 1 >= 3 and chosen < s_k)


def select_stepsize(diag: StepDiagnostics, s_k: float, A_k: float,
                    theta_next: float, k: int) -> StepChoice:
    """Four-case step-size rule plus smoothness cap and monotonicity check:
    the active case, the largest step the case bound and the cap admit, and
    whether it is at least s_k (needed for k+1 >= 3; the step is returned
    either way). A non-positive case bound returns chosen=nan; callers fall
    back to min(s_k, cap) and flag the iteration."""
    return StepChoice(*_select(*diag, s_k, A_k, theta_next, k))


def lyapunov(prev: AgmState, nxt: AgmState, obj: SeparableObjective,
             graph: AgentGraph, opt: ConsensusOptimum) -> float:
    """Lyapunov certificate V_k for k = prev.k >= 1, from X_k and s_k of
    ``prev`` and Z_{k+1} of ``nxt``; NaN when s_k = 0, which the distance
    term divides by."""
    if prev.k < 1:
        raise ValueError("V_k is defined for k >= 1; use lyapunov_v0_prime")
    # the certificate reads no controller input: any lam_max and mode do
    return _transition(prev, nxt, obj, graph, opt, 0.0, "practical")[-1]


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
    """Fixed step ``params.step_size``, stamped as ``s``, for every k >= 1."""
    s, f_star = params.step_size, opt.f_star
    state = _evaluate(init(X0, params.h, params.beta), obj, graph, opt)
    state.s = s
    rec = TraceRecorder(TraceRecorder.COLUMNS, {
        "algorithm": "dist_agm_fixed", **asdict(params), "s": s,
        "iters": iters}, f_star)
    idle = (np.nan, "", np.nan, np.nan, True, False)  # V_k to fallback_flag
    with rec:
        rec.record(0, state.gap, state.gap, rec.norm(state.grad),
                   rec.norm(state.lx), 0.0, *idle)  # X+ = X_0
        spare = None  # the second iterate state, made by the first step
        for _ in range(iters):
            prev = state
            state = step(prev, obj, graph, opt, s, spare)
            rec.record(prev.k, obj.value(state.X_plus) - f_star, prev.gap,
                       rec.norm(prev.grad), rec.norm(prev.lx), s, *idle)
            spare = prev
    return rec.trace


def adaptive_run(params: AdaptiveParams, obj: SeparableObjective,
                 graph: AgentGraph, X0: np.ndarray, iters: int,
                 opt: ConsensusOptimum) -> RunTrace:
    """Adaptive-step run with the four-case controller: per iteration, apply
    the stored step, select the next and record the certificate V_k. The
    theory admits any s_1 > 0 when r_1 >= 0 but the later decrement needs
    s_1 <= s_2, so s_1 is a small fraction of the smoothness cap, which
    the controller grows. ``s_ref``, the first accepted positive step (or
    the k=1 cap when s_1 = 0), is read only by the k=0 certificate and the
    rate bound, never by the dynamics."""
    lam_max = spectral_extremes(graph).lambda_max
    mode, f_star = params.oracle_mode, opt.f_star
    state = init(X0, params.h, params.beta)
    boot = bootstrap_diagnostics(state, obj, graph, opt, lam_max, mode)
    s1 = params.s1_fraction * boot.cap_smooth if boot.r >= 0.0 else 0.0
    s_ref = s1 if s1 > 0.0 else boot.cap_smooth
    state.s = s1
    v0_prime = lyapunov_v0_prime(X0, opt, s_ref)
    rec = TraceRecorder(TraceRecorder.COLUMNS, {
        "algorithm": "dist_agm_adaptive", **asdict(params), "iters": iters,
        "s_ref": s_ref, "V0_prime": v0_prime}, f_star)
    ref, sqrt = np.stack((opt.x_star_stacked, opt.x_star_stacked)), math.sqrt
    with rec:
        _, grad_sq, lx_sq, *_ = state.gram
        # X_plus is X_0, so F_gap_plus is F_gap
        rec.record(0, state.gap, state.gap, sqrt(grad_sq), sqrt(lx_sq), 0.0,
                   v0_prime, "bootstrap", np.nan, boot.r, True, False)
        spare = None  # the second iterate state, made by the first step
        for _ in range(iters):
            prev = state
            state = step(prev, obj, graph, opt, np.nan, spare)
            _a, _b, _at, _bt, w, r, cap, case, chosen, mono, v = _transition(
                prev, state, obj, graph, opt, lam_max, mode, ref)
            s = prev.s
            fallback = not math.isfinite(chosen)
            state.s = min(s, cap) if fallback else chosen
            _, grad_sq, lx_sq, *_ = prev.gram
            rec.record(prev.k, obj.value(state.X_plus) - f_star, prev.gap,
                       sqrt(grad_sq), sqrt(lx_sq), s, v, case, w, r, mono,
                       fallback)
            spare = prev
    return rec.trace
