"""Graph construction, Laplacian structure, spectra, and mixing weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distagm.graphs import (AgentGraph, GraphError, NotConnectedError,
                            _graph_from_edges, apply_lifted_laplacian,
                            build_topology, metropolis_weights,
                            spectral_extremes)
from oracles import lifted_laplacian_dense

KINDS = ["ring", "path", "star", "complete"]


def test_ring5_shape():
    g = build_topology("ring", 5)
    assert g.m == 5
    assert len(g.edges) == 5
    assert np.all(g.degrees == 2)


def test_complete2_laplacian():
    # the ring of two lists (0, 1) and (1, 0), which are the one edge too
    for kind in ("complete", "ring"):
        g = build_topology(kind, 2)
        assert g.edges == {(0, 1)}
        np.testing.assert_array_equal(g.laplacian,
                                      [[1.0, -1.0], [-1.0, 1.0]])


def test_path3_degrees():
    g = build_topology("path", 3)
    assert list(np.diag(g.laplacian)) == [1.0, 2.0, 1.0]
    np.testing.assert_allclose(g.laplacian.sum(axis=1), 0.0, atol=1e-12)


def test_too_small_rejected():
    with pytest.raises(GraphError):
        build_topology("ring", 1)


def test_unknown_kind_rejected():
    with pytest.raises(GraphError):
        build_topology("torus", 5)


def test_disconnected_edges_rejected():
    # two components: {0,1} and {2,3}
    with pytest.raises(NotConnectedError):
        _graph_from_edges(4, [(0, 1), (2, 3)])


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (2, 3), (3, 3)], [(0, 1), (1, 2), (2, 3), (3, 4)],
    [(-1, 0), (0, 1), (1, 2), (2, 3)]],
    ids=["self-loop", "past-m", "negative"])
def test_invalid_edge_rejected(edges):
    """A self-loop or an agent index outside 0..m-1 is refused by name,
    not written into the Laplacian (a -1 would wrap to the last row)."""
    with pytest.raises(GraphError, match="invalid edge"):
        _graph_from_edges(4, edges)


def test_erdos_renyi_connected():
    g = build_topology("erdos_renyi", 8, p=0.4, seed=3)
    spectral_extremes(g)  # would raise if disconnected


def test_erdos_renyi_retries_exhausted():
    with pytest.raises(NotConnectedError):
        build_topology("erdos_renyi", 12, p=1e-6, seed=0)


def test_ring5_spectral_extremes():
    ext = spectral_extremes(build_topology("ring", 5))
    # circulant eigenvalues 2 - 2 cos(2 pi j / 5)
    circulant = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(5) / 5)
    assert ext.lambda_max == pytest.approx(circulant.max(), abs=1e-9)
    assert ext.lambda_min_nonzero == pytest.approx(
        np.sort(circulant)[1], abs=1e-9)
    assert ext.lambda_max == pytest.approx(3.6180, abs=1e-4)
    assert ext.lambda_min_nonzero == pytest.approx(1.3820, abs=1e-4)


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_complete_spectral_extremes(m):
    ext = spectral_extremes(build_topology("complete", m))
    assert ext.lambda_max == pytest.approx(m, abs=1e-9)
    assert ext.lambda_min_nonzero == pytest.approx(m, abs=1e-9)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_laplacian_structure(kind, m):
    g = build_topology(kind, m)
    lap = g.laplacian
    np.testing.assert_allclose(lap, lap.T, atol=0)
    np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    off = lap[~np.eye(m, dtype=bool)]
    assert np.all(np.isin(off, (0.0, -1.0)))
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(m)
        assert x @ lap @ x >= -1e-12 * (x @ x)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", [1, 2, 5])
def test_lifted_apply_matches_dense(kind, d):
    g = build_topology(kind, 5)
    dense = lifted_laplacian_dense(g, d)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(5 * d)
        got = apply_lifted_laplacian(g, d, x)
        want = dense @ x
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_lifted_apply_consensus_null():
    g = build_topology("ring", 5)
    x = np.tile([1.7, -0.4], 5)
    np.testing.assert_allclose(apply_lifted_laplacian(g, 2, x), 0.0,
                               atol=1e-14)


def test_lifted_apply_complete2():
    g = build_topology("complete", 2)
    np.testing.assert_allclose(
        apply_lifted_laplacian(g, 1, np.array([1.0, 0.0])), [1.0, -1.0])


@pytest.mark.parametrize("kind", KINDS)
def test_lifted_apply_into_out_matches_allocating_call(kind):
    """With ``out`` the apply writes the allocating call's bits into it and
    returns it; a wrongly shaped X and a strided out are refused."""
    g = build_topology(kind, 5)
    x = np.random.default_rng(4).standard_normal(10)
    out = np.full(10, np.nan)
    assert apply_lifted_laplacian(g, 2, x, out) is out
    assert out.tobytes() == apply_lifted_laplacian(g, 2, x).tobytes()
    with pytest.raises(ValueError):
        apply_lifted_laplacian(g, 2, np.zeros(9), out)
    with pytest.raises(ValueError):
        apply_lifted_laplacian(g, 2, x, np.empty(20)[::2])


@pytest.mark.parametrize("kind", KINDS)
def test_lifted_apply_to_the_block_view(kind):
    """The (m, d) block view of a stacked state gives the result's block
    view, with the bits of the stacked call, allocating or into an (m, d)
    out; a block view of the wrong shape is refused."""
    g = build_topology(kind, 5)
    x = np.random.default_rng(5).standard_normal(10)
    want = apply_lifted_laplacian(g, 2, x)
    got = apply_lifted_laplacian(g, 2, x.reshape(5, 2))
    assert got.shape == (5, 2) and got.tobytes() == want.tobytes()
    out = np.full((5, 2), np.nan)
    assert apply_lifted_laplacian(g, 2, x.reshape(5, 2), out) is out
    assert out.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        apply_lifted_laplacian(g, 2, x.reshape(2, 5))


def test_lifted_apply_dimension_error():
    g = build_topology("ring", 5)
    with pytest.raises(ValueError):
        apply_lifted_laplacian(g, 2, np.zeros(9))


def test_metropolis_complete2():
    w = metropolis_weights(build_topology("complete", 2))
    np.testing.assert_allclose(w, 0.5)


def test_metropolis_ring5():
    w = metropolis_weights(build_topology("ring", 5))
    # all degrees 2 so every edge weight and diagonal is 1/3
    for i, j in build_topology("ring", 5).edges:
        assert w[i, j] == pytest.approx(1.0 / 3.0)
    np.testing.assert_allclose(np.diag(w), 1.0 / 3.0)


@pytest.mark.parametrize("kind", KINDS + ["erdos_renyi"])
def test_metropolis_doubly_stochastic(kind):
    w = metropolis_weights(build_topology(kind, 6, p=0.5, seed=1))
    np.testing.assert_allclose(w, w.T, atol=0)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(w >= 0.0) and np.all(w <= 1.0)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=2, max_value=20),
       kind=st.sampled_from(KINDS))
def test_laplacian_invariants_property(m, kind):
    g = build_topology(kind, m)
    np.testing.assert_allclose(g.laplacian.sum(axis=1), 0.0, atol=1e-12)
    eigs = np.linalg.eigvalsh(g.laplacian)
    assert eigs[0] >= -1e-10
    assert eigs[1] > 1e-9  # connected


def test_graph_immutable():
    g = build_topology("ring", 5)
    assert isinstance(g, AgentGraph)
    with pytest.raises(ValueError):
        g.laplacian[0, 0] = 7.0
