"""Agent communication graphs, Laplacians, and spectral utilities.

Graphs are unweighted and undirected, and must be connected. The
dimension-lifted Laplacian operator (Laplacian Kronecker identity) is applied
without materializing the md x md matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AgentGraph",
    "SpectralExtremes",
    "GraphError",
    "NotConnectedError",
    "build_topology",
    "spectral_extremes",
    "apply_lifted_laplacian",
    "metropolis_weights",
]

# Relative eigenvalue threshold below which an eigenvalue counts as zero.
_CONNECTIVITY_RTOL = 1e-9
# Erdos-Renyi draws tried before a disconnected sample is an error.
_ER_DRAWS = 100


class GraphError(ValueError):
    pass


class NotConnectedError(GraphError):
    pass


@dataclass(frozen=True)
class AgentGraph:
    """Undirected connected graph over ``m`` agents with its Laplacian."""

    m: int
    edges: frozenset  # frozenset of (i, j) tuples with i < j
    laplacian: np.ndarray = field(repr=False)

    @property
    def degrees(self) -> np.ndarray:
        return np.diag(self.laplacian).astype(int)


@dataclass(frozen=True)
class SpectralExtremes:
    """Largest and smallest non-zero Laplacian eigenvalues."""

    lambda_max: float
    lambda_min_nonzero: float


def _graph_from_edges(m: int, edges) -> AgentGraph:
    edges = frozenset(tuple(sorted(e)) for e in edges)
    lap = np.zeros((m, m))
    for i, j in edges:
        if i == j or not (0 <= i < m and 0 <= j < m):
            raise GraphError(f"invalid edge ({i}, {j}) for m={m}")
        lap[i, j] = lap[j, i] = -1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0
    g = AgentGraph(m=m, edges=edges, laplacian=lap)
    g.laplacian.setflags(write=False)
    spectral_extremes(g)  # raises NotConnectedError on a disconnected graph
    return g


def build_topology(kind: str, m: int, p: float = 0.5,
                   seed: int = 0) -> AgentGraph:
    """Construct a named connected topology over ``m`` agents.

    ``kind`` is one of ring, path, star, complete, erdos_renyi. Erdos-Renyi
    graphs are resampled until connected, up to 100 draws.
    """
    if m < 2:
        raise GraphError(f"need at least 2 agents, got m={m}")
    if kind == "ring":
        edges = [(i, (i + 1) % m) for i in range(m)]
        if m == 2:  # (0,1) and (1,0) collapse to a single edge
            edges = [(0, 1)]
        return _graph_from_edges(m, edges)
    if kind == "path":
        return _graph_from_edges(m, [(i, i + 1) for i in range(m - 1)])
    if kind == "star":
        return _graph_from_edges(m, [(0, i) for i in range(1, m)])
    if kind == "complete":
        return _graph_from_edges(
            m, [(i, j) for i in range(m) for j in range(i + 1, m)])
    if kind == "erdos_renyi":
        rng = np.random.default_rng(seed)
        for _ in range(_ER_DRAWS):
            mask = rng.random((m, m)) < p
            edges = [(i, j) for i in range(m) for j in range(i + 1, m)
                     if mask[i, j]]
            try:
                return _graph_from_edges(m, edges)
            except NotConnectedError:
                continue
        raise NotConnectedError(
            f"no connected erdos_renyi(p={p}) graph in {_ER_DRAWS} draws")
    raise GraphError(f"unknown topology kind: {kind!r}")


def spectral_extremes(g: AgentGraph) -> SpectralExtremes:
    """Largest and smallest non-zero eigenvalue of the graph Laplacian."""
    eigs = np.linalg.eigvalsh(g.laplacian)
    lam_max = float(eigs[-1])
    lam_2 = float(eigs[1])
    if lam_2 <= _CONNECTIVITY_RTOL * max(lam_max, 1.0):
        raise NotConnectedError(
            f"graph is not connected (second eigenvalue {lam_2:.3e})")
    return SpectralExtremes(lambda_max=lam_max, lambda_min_nonzero=lam_2)


def apply_lifted_laplacian(g: AgentGraph, d: int, X: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Apply the dimension-lifted Laplacian to a stacked state.

    Block ``i`` of the result is ``sum_{j in N_i} (x_i - x_j)``; equivalent to
    the Kronecker-lifted Laplacian times ``X`` without forming the md x md
    matrix. ``X`` is the stacked m*d vector or its (m, d) block view, and
    the result has X's shape. With ``out``, a C-contiguous float64 array of
    X's shape, the result is written into it and ``out`` is returned, with
    the bits of the allocating call.
    """
    X = np.asarray(X, dtype=float)
    if X.shape == (g.m * d,):
        blocks = X.reshape(g.m, d)
    elif X.shape == (g.m, d):  # a loop that owns its buffers skips reshapes
        blocks = X
    else:
        raise ValueError(f"stacked state has shape {X.shape}, expected "
                         f"({g.m * d},) or ({g.m}, {d})")
    # ndarray.dot makes the same BLAS call as @ with less dispatch
    if out is None:
        return g.laplacian.dot(blocks).reshape(X.shape)
    # a 1-D out reshapes to a view; dot refuses a strided one
    g.laplacian.dot(blocks, out if out.ndim == 2 else out.reshape(g.m, d))
    return out


def metropolis_weights(g: AgentGraph) -> np.ndarray:
    """Symmetric doubly stochastic mixing matrix from node degrees."""
    deg = g.degrees
    w = np.zeros((g.m, g.m))
    for i, j in g.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w
