"""Per-agent convex objectives, the cumulative cost, and reference solvers.

A separable objective holds ``m`` local convex functions over R^d. The
cumulative cost evaluates them on a stacked md-vector, one block per agent.
The consensus optimum (common minimizer of the sum) is computed offline and
feeds the energy/Lyapunov diagnostics; distributed algorithms never read it
inside their updates.
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
    """Base class: m local functions f_i over R^d with gradient oracles."""

    m: int
    d: int
    smoothness: float  # Lipschitz constant (upper bound) of the stacked gradient
    local_smoothness: np.ndarray  # per-agent gradient Lipschitz bounds

    def local_value(self, i: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def local_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape != (self.m * self.d,):
            raise ValueError(
                f"stacked state has shape {X.shape}, expected ({self.m * self.d},)")
        return X

    def value(self, X: np.ndarray) -> float:
        """Cumulative cost: sum of f_i over the agent blocks of X."""
        raise NotImplementedError

    def grad(self, X: np.ndarray) -> np.ndarray:
        """Stacked gradient: block i is the gradient of f_i at block i of X."""
        raise NotImplementedError

    def central_value(self, x: np.ndarray) -> float:
        """Sum of all f_i at a single point (the centralized objective)."""
        return float(sum(self.local_value(i, x) for i in range(self.m)))

    def central_grad(self, x: np.ndarray) -> np.ndarray:
        return np.sum([self.local_grad(i, x) for i in range(self.m)], axis=0)

    def central_hess(self, x: np.ndarray) -> np.ndarray:
        """Hessian of the centralized objective at a single point."""
        raise NotImplementedError

    def stack(self, x: np.ndarray) -> np.ndarray:
        """Stacked copy of a single d-vector, one block per agent."""
        return np.tile(np.asarray(x, dtype=float), self.m)


class QuadraticObjective(SeparableObjective):
    """f_i(x) = 0.5 (x - b_i)^T Q_i (x - b_i) with SPD Q_i; closed-form optimum.

    The stacked oracles use the block-diagonal Hessian M (md x md, block i
    is Q_i), the stacked offsets b and c = M b, built once and read-only:
    gradF(X) = M X - c and F(X) = 0.5 (X - b).M (X - b). M costs
    (md)^2 * 8 bytes.
    """

    def __init__(self, Qs: np.ndarray, bs: np.ndarray):
        Qs = np.array(Qs, dtype=float)
        bs = np.array(bs, dtype=float)
        if Qs.ndim != 3 or Qs.shape[1] != Qs.shape[2] or bs.shape != Qs.shape[:2]:
            raise ValueError("expected Qs of shape (m, d, d) and bs of shape (m, d)")
        self.m, self.d = bs.shape
        eigs = np.linalg.eigvalsh(Qs)
        if np.any(eigs <= 0):
            raise ValueError("per-agent quadratic matrices must be SPD")
        self.local_smoothness = eigs[:, -1].copy()
        self.smoothness = float(self.local_smoothness.max())
        d = self.d
        M = np.zeros((self.m * d, self.m * d))
        for i, q in enumerate(Qs):
            M[i * d:(i + 1) * d, i * d:(i + 1) * d] = q
        # M, b and c are derived from Qs and bs, so all five are read-only;
        # Qs and bs are copies, which leaves the caller's arrays writable
        for arr in (Qs, bs, M):
            arr.setflags(write=False)
        self.Qs, self.bs, self.M = Qs, bs, M
        self.b = bs.reshape(-1)
        self.c = M.dot(self.b)
        self.c.setflags(write=False)

    def local_value(self, i, x):
        r = x - self.bs[i]
        return 0.5 * float(r @ self.Qs[i] @ r)

    def local_grad(self, i, x):
        return self.Qs[i] @ (x - self.bs[i])

    def value(self, X):
        r = self._check(X) - self.b
        return 0.5 * float(r.dot(self.M.dot(r)))

    def grad(self, X):
        return self.M.dot(self._check(X)) - self.c

    def central_hess(self, x):
        return self.Qs.sum(axis=0)

    def closed_form_optimum(self) -> ConsensusOptimum:
        """x* = (sum Q_i)^{-1} sum Q_i b_i, exact for the quadratic family."""
        q_sum = self.Qs.sum(axis=0)
        x_star = np.linalg.solve(q_sum, np.einsum("mij,mj->i", self.Qs, self.bs))
        x_stacked = self.stack(x_star)
        return ConsensusOptimum(
            x_star=x_star,
            f_star=self.value(x_stacked),
            x_star_stacked=x_stacked,
            grad_at_opt=self.grad(x_stacked),
        )


class LogisticObjective(SeparableObjective):
    """Sharded cross-entropy: f_i(w) = sum over shard i of
    log(1 + exp(z^T w)) - y z^T w, plus a ridge (l2/2m)||w||^2.

    The shards are held once, read-only, zero-padded to the longest:
    features Z (m, rows, d), labels Y and a 0/1 row mask (m, rows); ``Zs``
    and ``ys`` are views into them. The stacked oracles are one batched
    product each way, block i reading only shard i and x_i. Padding costs
    (m * rows - n)(d + 2) * 8 bytes, none for equal shards.
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
        sizes = [z.shape[0] for z in shards_z]
        self.Z = np.zeros((self.m, max(sizes), self.d))
        self.Y, self.mask = np.zeros((2, self.m, max(sizes)))
        for i, (z, y, n) in enumerate(zip(shards_z, shards_y, sizes)):
            self.Z[i, :n], self.Y[i, :n], self.mask[i, :n] = z, y, 1.0
        for arr in (self.Z, self.Y, self.mask):
            arr.setflags(write=False)
        self.Zs = [self.Z[i, :n] for i, n in enumerate(sizes)]
        self.ys = [self.Y[i, :n] for i, n in enumerate(sizes)]
        # 1/4 bound on the logistic Hessian plus the per-agent ridge share.
        self.local_smoothness = np.array([
            0.25 * np.linalg.eigvalsh(z.T @ z)[-1] + self.l2 / self.m
            for z in self.Zs
        ])
        self.smoothness = float(self.local_smoothness.max())

    def local_value(self, i, x):
        margins = self.Zs[i] @ x
        loss = np.logaddexp(0.0, margins) - self.ys[i] * margins
        return float(loss.sum() + 0.5 * self.l2 / self.m * (x @ x))

    def local_grad(self, i, x):
        sig = _sigmoid(self.Zs[i] @ x)
        return self.Zs[i].T @ (sig - self.ys[i]) + self.l2 / self.m * x

    def value(self, X):
        xb = self._check(X).reshape(self.m, self.d)
        margins = (self.Z @ xb[:, :, None])[..., 0]
        loss = (np.logaddexp(0.0, margins) - self.Y * margins) * self.mask
        # x_i.x_i as a dot and Python's sum over agents keep the sweep's bits
        ridge = 0.5 * self.l2 / self.m * (xb[:, None, :] @ xb[:, :, None])
        return float(sum((loss.sum(axis=1) + ridge.ravel()).tolist()))

    def grad(self, X):
        xb = self._check(X).reshape(self.m, self.d)
        sig = _sigmoid((self.Z @ xb[:, :, None])[..., 0])
        # padded rows have zero features, so they add nothing here
        back = self.Z.transpose(0, 2, 1) @ (sig - self.Y)[:, :, None]
        return (back[..., 0] + self.l2 / self.m * xb).reshape(-1)

    def central_hess(self, x):
        hess = self.l2 * np.eye(self.d)
        for z in self.Zs:
            sig = _sigmoid(z @ x)
            hess += (z.T * (sig * (1.0 - sig))) @ z
        return hess


def _sigmoid(margins):
    # exp overflows past 709.78; the clipped sigmoid is ~1e-308 there
    return 1.0 / (1.0 + np.exp(np.minimum(-margins, 709.0)))


def make_quadratic(m: int, d: int, cond: float = 10.0, seed: int = 0,
                   scale: float = 1.0, offset_scale: float = 1.0) -> QuadraticObjective:
    """Seeded quadratic test problem with per-agent spectra in
    [scale/cond, scale] and random offsets b_i of size ~offset_scale."""
    if not (1.0 <= cond < np.inf and 0.0 < scale < np.inf
            and np.isfinite(offset_scale)):
        raise ValueError(f"need finite cond >= 1, scale > 0 and offset_scale, "
                         f"got {cond}, {scale} and {offset_scale}")
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
    Alg. 9.5), from x = 0.

    Runs until the centralized gradient norm falls below ``tol``. Raises
    SolverError carrying the best iterate if ``max_iter`` Newton steps do
    not get there.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.zeros(obj.d)
    f = obj.central_value(x)
    best_x, best_norm = x.copy(), np.inf
    for it in range(max_iter + 1):
        g = obj.central_grad(x)
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
        f_new = obj.central_value(x_new)
        while (f_new > f - _ARMIJO * t * decrement
               and decrement > _F_RESOLUTION * (1.0 + abs(f))):
            t *= _BACKTRACK
            x_new = x + t * dx
            f_new = obj.central_value(x_new)
        x, f = x_new, f_new
    x_stacked = obj.stack(best_x)
    return ConsensusOptimum(
        x_star=best_x,
        f_star=obj.value(x_stacked),
        x_star_stacked=x_stacked,
        grad_at_opt=obj.grad(x_stacked),
    )
