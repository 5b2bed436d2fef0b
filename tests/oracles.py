"""Reference forms the tests check the package against.

Each is written from its definition and shares no private helper with the
code it checks, so a wrong helper there cannot agree with itself here.
"""

import csv
import io
import math

import numpy as np

from distagm.objectives import QuadraticObjective


def local_value(obj, i, x):
    """f_i(x): 0.5 (x - b_i)^T Q_i (x - b_i) for a quadratic; for a logistic,
    the sum over shard i of log(1 + exp(z.x)) - y z.x, plus (l2/2m)|x|^2."""
    if isinstance(obj, QuadraticObjective):
        r = x - obj.bs[i]
        return 0.5 * float(r @ obj.Qs[i] @ r)
    z = obj.Zs[i]
    margins = z @ x
    loss = np.logaddexp(0.0, margins) - obj.Y[i, :len(z)] * margins
    return float(loss.sum() + 0.5 * obj.l2 / obj.m * (x @ x))


def local_grad(obj, i, x):
    """The gradient of f_i at x: Q_i (x - b_i) for a quadratic; for a
    logistic, Z_i^T (sigmoid(Z_i x) - y_i) + (l2/m) x, the sigmoid written
    as (1 + tanh(m/2)) / 2."""
    if isinstance(obj, QuadraticObjective):
        return obj.Qs[i] @ (x - obj.bs[i])
    z = obj.Zs[i]
    sigmoid = 0.5 * (1.0 + np.tanh(0.5 * (z @ x)))
    return z.T @ (sigmoid - obj.Y[i, :len(z)]) + obj.l2 / obj.m * x


def central_value(obj, x):
    """The centralized cost sum_i f_i(x) at a single d-vector."""
    return sum(local_value(obj, i, x) for i in range(obj.m))


def central_grad(obj, x):
    """The centralized gradient sum_i grad f_i(x) at a single d-vector."""
    return sum(local_grad(obj, i, x) for i in range(obj.m))


def flow_rhs_per_agent(t, Y, params, obj, graph):
    """Per-agent assembly of the flow's dynamics: agent i reads only its own
    gradient and the state differences to its neighbours, the off-diagonal
    entries of row i of ``graph.laplacian``. Cross-checks ``flow_rhs``."""
    n = Y.size // 2
    xb = Y[:n].reshape(graph.m, obj.d)
    vb = Y[n:].reshape(graph.m, obj.d)
    dv = np.empty_like(xb)
    for i in range(graph.m):
        neighbors = [j for j in range(graph.m)
                     if j != i and graph.laplacian[i, j] != 0.0]
        consensus = sum((xb[i] - xb[j] for j in neighbors), np.zeros(obj.d))
        dv[i] = (-(3.0 / t) * vb[i]
                 - t ** (-params.beta) * local_grad(obj, i, xb[i])
                 - params.k_gain * consensus)
    return np.concatenate((Y[n:], dv.reshape(-1)))


def pi_euler_step(x, v, params, obj, graph):
    """One explicit Euler step of the proportional-integral consensus flow
    x' = -alpha gradF(x) - Llift x - beta_gain v, v' = Llift x, with step
    h_step, from the per-agent gradients and the dense lifted Laplacian."""
    grad = np.concatenate([local_grad(obj, i, xi) for i, xi in
                           enumerate(x.reshape(obj.m, obj.d))])
    lx = lifted_laplacian_dense(graph, obj.d) @ x
    h = params.h_step
    return (x + h * (-params.alpha * grad - lx - params.beta_gain * v),
            v + h * lx)


def lifted_laplacian_dense(graph, d):
    """Dense Kronecker form L (x) I_d of the lifted Laplacian."""
    return np.kron(graph.laplacian, np.eye(d))


def serialize_idx(arr):
    """IDX bytes of a 1-D label or 3-D image uint8 tensor: the magic
    0x00000801 or 0x00000803, each dimension as a big-endian uint32, then
    the payload."""
    arr = np.asarray(arr, dtype=np.uint8)
    magics = {1: 0x00000801, 3: 0x00000803}
    if arr.ndim not in magics:
        raise ValueError(f"unsupported IDX rank {arr.ndim}")
    out = magics[arr.ndim].to_bytes(4, "big")
    for dim in arr.shape:
        out += int(dim).to_bytes(4, "big")
    return out + arr.tobytes()


def combined_field(k, X, h, beta, obj, graph):
    """G_k = (k h)^{-beta} gradF(X) + Llift X, evaluated afresh; k h is
    2 theta_k h, since theta_k = k/2."""
    return ((k * h) ** (-beta) * obj.value_grad(X)[1]
            + lifted_laplacian_dense(graph, obj.d).dot(X))


def theta(k):
    """theta_k = k/2, the discrete method's time weight."""
    return 0.5 * k


def c_coeff(k):
    """theta_{k+1} / (theta_{k+1}^2 - theta_k^2) = 2(k+1)/(2k+1)."""
    th, th_next = theta(k), theta(k + 1)
    return th_next / (th_next ** 2 - th ** 2)


def a_coeff(k):
    """A_k = c_k theta_k^2, the Lyapunov weight."""
    return c_coeff(k) * theta(k) ** 2


def smoothness_cap(k, h, beta, lam_max, l_f):
    """The step cap at iterate k: 1 / max{lambda_max, (k h)^{-beta} L_f}."""
    return 1.0 / max(lam_max, (k * h) ** (-beta) * l_f)


def exact_r(k, h, beta, g_star, G):
    """The exact-mode controller quantity r on trace row k, the transition
    into iterate k+1: -|g_s|^2 + 2 g_s . (g_s - G), with g_s =
    ((k+1) h)^{-beta} g* and G = G_{k+1}. Row 0, the bootstrap, reads
    iterate 1."""
    g_s = ((k + 1) * h) ** (-beta) * g_star
    return -float(g_s @ g_s) + 2.0 * float(g_s @ (g_s - G))


def single_line_update(k, X, Z, s, g):
    """Collapsed one-line form of the three-line update, written directly in
    (X_k, Z_k, G_k):

        X_{k+1} = k^2/(k+1)^2 X_k + (2k+1)/(k+1)^2 Z_k
                  - s k (3k+1) / (2 (k+1)^2) G_k
    """
    kk = float(k)
    return (kk ** 2 * X + (2.0 * kk + 1.0) * Z
            - 0.5 * s * kk * (3.0 * kk + 1.0) * g) / (kk + 1.0) ** 2


def polyfit_line(x, y):
    """The least-squares line of y on x as ``np.polyfit`` solves it, through
    the Vandermonde matrix and LAPACK's SVD least squares, and its
    R^2 = 1 - SS_res / SS_tot (1.0 when y is constant): (slope, R^2)."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def trace_csv_bytes(columns, rows, metadata):
    """The bytes ``RunTrace.write_csv`` writes for a trace of ``rows`` under
    ``columns`` with ``metadata``, cell by cell: the sorted
    ``# key=value`` metadata lines, then the header and each row through one
    stdlib ``csv.writer``. A bool cell is 1 or 0, an int cell its digits, a
    str cell itself, and any other cell, as a float, "nan" or its 17
    significant digits."""
    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, str):
            return v
        v = float(v)
        return "nan" if math.isnan(v) else format(v, ".17g")

    out = io.StringIO(newline="")
    for key in sorted(metadata):
        out.write(f"# {key}={metadata[key]}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    return out.getvalue().encode()
