"""Reference forms the tests check the package against.

Each is written from its definition and shares no private helper with the
code it checks, so a wrong helper there cannot agree with itself here.
"""

import numpy as np


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
                 - t ** (-params.beta) * obj.local_grad(i, xb[i])
                 - params.k_gain * consensus)
    return np.concatenate((Y[n:], dv.reshape(-1)))


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
    return ((k * h) ** (-beta) * obj.grad(X)
            + lifted_laplacian_dense(graph, obj.d).dot(X))


def single_line_update(k, X, Z, s, g):
    """Collapsed one-line form of the three-line update, written directly in
    (X_k, Z_k, G_k):

        X_{k+1} = k^2/(k+1)^2 X_k + (2k+1)/(k+1)^2 Z_k
                  - s k (3k+1) / (2 (k+1)^2) G_k
    """
    kk = float(k)
    return (kk ** 2 * X + (2.0 * kk + 1.0) * Z
            - 0.5 * s * kk * (3.0 * kk + 1.0) * g) / (kk + 1.0) ** 2
