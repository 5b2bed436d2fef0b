"""Per-agent convex objectives, the cumulative cost, and reference solvers.

A separable objective holds ``m`` local convex functions over R^d. Each
family writes them once, as the cumulative cost F(X) = sum_i f_i(x_i) on
a stacked md-vector, one block per agent, and its gradient; the reference
solver reads the centralized cost and gradient as F and the block sum of
gradF at X = 1 (x) x. The consensus optimum (common minimizer of the sum)
is computed offline and feeds the energy/Lyapunov diagnostics. The
baselines, the flow's dynamics and the fixed-step dist_agm update never
read it; the adaptive dist_agm controller reads F* (its a-quantity holds
the gaps F(X_k) - F*) in either oracle mode, and g* in the exact one.

Every caller takes the gradient, with the cost at the same point, from
one ``value_grad`` call: on the quadratic family one product
M r; on the logistic family the margins Z_i x_i, one exp(-|m|) shared by
the softplus max(m, 0) + log1p(exp(-|m|)) and the sigmoid, and one
back-projection Z_i^T (sigma - y_i). The logistic label term sum_r y_r m_r
is x_i . Z_i^T y_i, with Z_i^T y_i built once, so that term and the ridge
are one d-length dot per agent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeparableObjective",
    "QuadraticObjective",
    "LogisticObjective",
    "ConsensusOptimum",
    "SolverError",
    "make_quadratic",
    "solve_consensus_optimum",
]

# native float64, a singleton: ``_check`` tests it by identity
_FLOAT = np.dtype(float)


class SolverError(RuntimeError):
    """Reference solver failed to reach tolerance; carries the best iterate."""

    def __init__(self, msg, best_x=None, grad_norm=None):
        super().__init__(msg)
        self.best_x = best_x
        self.grad_norm = grad_norm


@dataclass(frozen=True)
class ConsensusOptimum:
    """Common minimizer of the agent sum and derived stacked quantities."""

    x_star: np.ndarray
    f_star: float
    x_star_stacked: np.ndarray
    grad_at_opt: np.ndarray  # stacked per-agent gradients at the optimum


class SeparableObjective:
    """Base class: m local functions f_i over R^d, evaluated on the stacked
    state. A family implements ``value``, ``value_grad`` and
    ``central_hess``."""

    m: int
    d: int
    smoothness: float  # Lipschitz constant (upper bound) of the stacked gradient

    def _check(self, X: np.ndarray) -> np.ndarray:
        """X as a float64 array of the stacked shape: a float64 ndarray as
        it is, anything else through ``np.asarray``."""
        if type(X) is not np.ndarray or X.dtype is not _FLOAT:
            X = np.asarray(X, dtype=float)
        if X.shape != (self.m * self.d,):
            raise ValueError(
                f"stacked state has shape {X.shape}, expected ({self.m * self.d},)")
        return X

    def value(self, X: np.ndarray) -> float:
        """Cumulative cost: sum of f_i over the agent blocks of X."""
        raise NotImplementedError

    def value_grad(self, X: np.ndarray,
                   out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """``(value(X), gradF(X))``: block i of the stacked gradient is the
        gradient of f_i at block i of X, and the cost has ``value``'s bits.

        With ``out``, a C-contiguous float64 array of X's shape, the
        gradient is written into it and ``out`` is returned, with the bits
        of the allocating call. ``flow.integrate`` writes each stage's
        gradient into its stage buffer this way."""
        raise NotImplementedError

    def central_hess(self, x: np.ndarray) -> np.ndarray:
        """Hessian of the centralized objective at a single point."""
        raise NotImplementedError

    def stack(self, x: np.ndarray) -> np.ndarray:
        """Stacked copy of a single d-vector, one block per agent."""
        return np.tile(np.asarray(x, dtype=float), self.m)


class QuadraticObjective(SeparableObjective):
    """f_i(x) = 0.5 (x - b_i)^T Q_i (x - b_i) with SPD Q_i; closed-form optimum.

    The stacked oracles use the block-diagonal Hessian M (md x md, block i
    is Q_i) and the stacked offsets b, built once and read-only. With r =
    X - b, gradF(X) = M r, with no cancellation as X nears b, and F(X) =
    0.5 r . M r; M costs (md)^2 * 8 bytes.
    """

    def __init__(self, Qs: np.ndarray, bs: np.ndarray):
        Qs = np.array(Qs, dtype=float)
        bs = np.array(bs, dtype=float)
        if Qs.ndim != 3 or Qs.shape[1] != Qs.shape[2] or bs.shape != Qs.shape[:2]:
            raise ValueError("expected Qs of shape (m, d, d) and bs of shape (m, d)")
        self.m, self.d = bs.shape
        if self.m < 1 or self.d < 1:
            raise ValueError(f"need at least 1 agent and 1 dimension, got "
                             f"m={self.m} and d={self.d}")
        eigs = np.linalg.eigvalsh(Qs)
        if np.any(eigs <= 0):
            raise ValueError("per-agent quadratic matrices must be SPD")
        self.smoothness = float(eigs[:, -1].max())
        d = self.d
        M = np.zeros((self.m * d, self.m * d))
        for i, q in enumerate(Qs):
            M[i * d:(i + 1) * d, i * d:(i + 1) * d] = q
        # M and b are derived from Qs and bs, so all four are read-only;
        # Qs and bs are copies, which leaves the caller's arrays writable
        for arr in (Qs, bs, M):
            arr.setflags(write=False)
        self.Qs, self.bs, self.M = Qs, bs, M
        self.b = bs.reshape(-1)

    def value(self, X):
        r = self._check(X) - self.b
        return 0.5 * float(r.dot(self.M.dot(r)))

    def value_grad(self, X, out=None):
        r = self._check(X) - self.b
        # ``out`` goes by position, which numpy parses faster than a keyword
        g = self.M.dot(r, out)
        return 0.5 * float(r.dot(g)), g

    def central_hess(self, x):
        return self.Qs.sum(axis=0)

    def closed_form_optimum(self) -> ConsensusOptimum:
        """x* = (sum Q_i)^{-1} sum Q_i b_i, exact for the quadratic family."""
        q_sum = self.Qs.sum(axis=0)
        x_star = np.linalg.solve(q_sum, np.einsum("mij,mj->i", self.Qs, self.bs))
        x_stacked = self.stack(x_star)
        f_star, grad_at_opt = self.value_grad(x_stacked)
        return ConsensusOptimum(x_star=x_star, f_star=f_star,
                                x_star_stacked=x_stacked,
                                grad_at_opt=grad_at_opt)


class LogisticObjective(SeparableObjective):
    """Sharded cross-entropy: f_i(w) = sum over shard i of
    log(1 + exp(z^T w)) - y z^T w, plus a ridge (l2/2m)||w||^2.

    The shards are held once, read-only, zero-padded to the longest:
    features Z (m, rows, d), labels Y and a 0/1 row mask (m, rows); ``Zs``
    are views into Z, which the centralized Hessian reads. ``ZtY`` (m, d),
    row i Z_i^T y_i, is built once and read-only too. The stacked oracles
    are one batched product each way, block i reading only shard i and
    x_i; on equal shards block i has the bits of the same formulas on
    agent i alone. The reference solver reads them at 1 (x) x, and
    tests/oracles.py writes the per-agent forms from the definition.
    Padding costs (m * rows - n)(d + 2) * 8 bytes, none for equal shards.
    """

    def __init__(self, shards_z, shards_y, l2: float = 1e-4):
        if len(shards_z) != len(shards_y) or not shards_z:
            raise ValueError("need matching, non-empty feature/label shard lists")
        shards_z = [np.asarray(z, dtype=float) for z in shards_z]
        shards_y = [np.asarray(y, dtype=float) for y in shards_y]
        for i, (z, y) in enumerate(zip(shards_z, shards_y)):
            if z.ndim != 2 or z.shape[1] != shards_z[0].shape[1]:
                raise ValueError(f"shard {i}: features have shape {z.shape}, "
                                 "expected (n, d) with shard 0's d")
            if z.shape[0] == 0:
                raise ValueError(f"shard {i} is empty")
            if y.shape != z.shape[:1]:
                raise ValueError(f"shard {i}: labels have shape {y.shape}, "
                                 f"expected ({z.shape[0]},)")
            if not np.all(np.isin(y, (0.0, 1.0))):
                raise ValueError(f"shard {i}: labels must be in {{0, 1}}")
        self.m, self.d = len(shards_z), shards_z[0].shape[1]
        self.l2 = float(l2)
        if not 0.0 <= self.l2 < np.inf:
            raise ValueError(f"l2 must be finite and >= 0, got {l2}")
        sizes = [z.shape[0] for z in shards_z]
        self.Z = np.zeros((self.m, max(sizes), self.d))
        self.Y, self.mask = np.zeros((2, self.m, max(sizes)))
        for i, (z, y, n) in enumerate(zip(shards_z, shards_y, sizes)):
            self.Z[i, :n], self.Y[i, :n], self.mask[i, :n] = z, y, 1.0
        # padded rows have zero features, so they add nothing to Z_i^T y_i
        self.ZtY = (self.Z.transpose(0, 2, 1) @ self.Y[:, :, None])[..., 0]
        for arr in (self.Z, self.Y, self.mask, self.ZtY):
            arr.setflags(write=False)
        self.Zs = [self.Z[i, :n] for i, n in enumerate(sizes)]
        self._half_ridge = 0.5 * self.l2 / self.m
        # 1/4 bound on the logistic Hessian plus the per-agent ridge share.
        self.smoothness = float(max(
            0.25 * np.linalg.eigvalsh(z.T @ z)[-1] + self.l2 / self.m
            for z in self.Zs))

    def _margins(self, X):
        """X checked, its agent blocks and the margins Z_i x_i (m, rows)."""
        X = self._check(X)
        xb = X.reshape(self.m, self.d)
        return X, xb, (self.Z @ xb[:, :, None])[..., 0]

    def _cost(self, xb, margins, e):
        loss = _softplus(margins, e)
        loss *= self.mask
        # the label term and the ridge of f_i, x_i . ((l2/2m) x_i - Z_i^T y_i),
        # a dot per agent; Python's sum adds the agents' costs in order
        lin = xb[:, None, :] @ (self._half_ridge * xb - self.ZtY)[:, :, None]
        return float(sum((np.add.reduce(loss, 1) + lin.ravel()).tolist()))

    def _grad(self, X, margins, e, out):
        if out is not None and out.shape != X.shape:
            # np.add would broadcast a 1-vector into a longer out
            raise ValueError(f"out has shape {out.shape}, expected {X.shape}")
        resid = _sigmoid(margins, e)
        resid -= self.Y
        # padded rows have zero features, so they add nothing here
        back = self.Z.transpose(0, 2, 1) @ resid[:, :, None]
        # back is a fresh (m, d, 1) array, so its flat view lines up with X
        return np.add(back.reshape(-1), self.l2 / self.m * X, out)

    def value(self, X):
        _, xb, margins = self._margins(X)
        return self._cost(xb, margins, _exp_neg_abs(margins))

    def value_grad(self, X, out=None):
        X, xb, margins = self._margins(X)
        e = _exp_neg_abs(margins)
        return self._cost(xb, margins, e), self._grad(X, margins, e, out)

    def central_hess(self, x):
        hess = self.l2 * np.eye(self.d)
        for z in self.Zs:
            margins = z @ x
            sig = _sigmoid(margins, _exp_neg_abs(margins))
            hess += (z.T * (sig * (1.0 - sig))) @ z
        return hess


# The logistic formulas, on margins m and e = exp(-|m|). e lies in [0, 1],
# so it never overflows; past |m| = 745 it underflows to 0 without a
# warning. The constants are read-only 0-d arrays, which a ufunc reads
# faster than a Python float.
_ZERO, _ONE, _MINUS_ONE = (np.array(v) for v in (0.0, 1.0, -1.0))
for _c in (_ZERO, _ONE, _MINUS_ONE):
    _c.setflags(write=False)


def _exp_neg_abs(margins):
    e = np.copysign(margins, _MINUS_ONE)  # -|m|
    return np.exp(e, e)


def _softplus(margins, e):
    """log(1 + exp(m)) as max(m, 0) + log1p(e)."""
    out = np.maximum(margins, _ZERO)
    out += np.log1p(e)
    return out


def _sigmoid(margins, e):
    """1 / (1 + exp(-m)) as 1 / (1 + e) for m >= 0 and e / (1 + e) below.
    The numerator is max(sign m, e): e <= 1, and e = 1 at m = 0."""
    out = np.sign(margins)
    np.fmax(out, e, out)
    out /= e + _ONE
    return out


def make_quadratic(m: int, d: int, cond: float = 10.0, seed: int = 0,
                   scale: float = 1.0, offset_scale: float = 1.0) -> QuadraticObjective:
    """Seeded quadratic test problem with per-agent spectra in
    [scale/cond, scale] and random offsets b_i of size ~offset_scale."""
    if not (1.0 <= cond < np.inf and 0.0 < scale < np.inf
            and np.isfinite(offset_scale)):
        raise ValueError(f"need finite cond >= 1, scale > 0 and offset_scale, "
                         f"got {cond}, {scale} and {offset_scale}")
    if m < 1 or d < 1:
        raise ValueError(f"need at least 1 agent and 1 dimension, got "
                         f"m={m} and d={d}")
    rng = np.random.default_rng(seed)
    Qs = np.empty((m, d, d))
    for i in range(m):
        if d == 1:
            Qs[i] = np.array([[scale]])
            continue
        eigs = np.geomspace(scale / cond, scale, d)
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        Qs[i] = basis @ np.diag(eigs) @ basis.T
        Qs[i] = 0.5 * (Qs[i] + Qs[i].T)
    bs = offset_scale * rng.standard_normal((m, d))
    return QuadraticObjective(Qs, bs)


# Armijo sufficient-decrease fraction and backtracking factor.
_ARMIJO = 0.25
_BACKTRACK = 0.5
# Newton decrements below this share of |F| are lost in the rounding of F,
# so the line search could not see them; such steps are taken in full.
_F_RESOLUTION = 1e-12


def solve_consensus_optimum(obj: SeparableObjective, tol: float = 1e-9,
                            max_iter: int = 500_000) -> ConsensusOptimum:
    """Damped Newton on the centralized cost sum_i f_i, with Armijo
    backtracking on its value (Boyd & Vandenberghe, Convex Optimization,
    Alg. 9.5), from x = 0. The centralized cost and gradient at x are the
    stacked oracles at 1 (x) x, the gradient summed over the agent blocks.

    Runs until the centralized gradient norm falls below ``tol``. Raises
    SolverError carrying the best iterate if ``max_iter`` Newton steps do
    not get there.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    x = np.zeros(obj.d)
    f, g = obj.value_grad(obj.stack(x))
    best_x, best_norm = x.copy(), np.inf
    for it in range(max_iter + 1):
        g = g.reshape(obj.m, obj.d).sum(axis=0)
        gnorm = float(np.linalg.norm(g))
        if gnorm < best_norm:
            best_norm, best_x = gnorm, x.copy()
        if gnorm <= tol:
            break
        if it == max_iter:
            raise SolverError(
                f"no convergence in {max_iter} Newton steps "
                f"(grad norm {best_norm:.3e})",
                best_x=best_x, grad_norm=best_norm)
        hess = obj.central_hess(x)
        try:
            dx = -np.linalg.solve(hess, g)
        except np.linalg.LinAlgError:  # singular, e.g. l2=0 with a zero feature
            dx = -np.linalg.lstsq(hess, g, rcond=None)[0]
        decrement = -float(g @ dx)  # squared Newton decrement
        t = 1.0
        x_new = x + dx
        f_new, g_new = obj.value_grad(obj.stack(x_new))
        while (f_new > f - _ARMIJO * t * decrement
               and decrement > _F_RESOLUTION * (1.0 + abs(f))):
            t *= _BACKTRACK
            x_new = x + t * dx
            f_new, g_new = obj.value_grad(obj.stack(x_new))
        x, f, g = x_new, f_new, g_new
    x_stacked = obj.stack(best_x)
    f_star, grad_at_opt = obj.value_grad(x_stacked)
    return ConsensusOptimum(x_star=best_x, f_star=f_star,
                            x_star_stacked=x_stacked, grad_at_opt=grad_at_opt)
