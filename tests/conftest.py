"""Shared fixtures: the ring-of-five quadratic instances used across tests.

Two scalings of the same instance family appear repeatedly. The unit-scale
one exercises the continuous flow; the weak-curvature copy keeps the
adaptive discrete run far from the double-precision noise floor for the
full iteration budget. Both share a common per-agent minimizer so the
cumulative cost never dips below F* along trajectories.
"""

import numpy as np
import pytest

from distagm import graphs, objectives

COMMON_B = np.array([0.3, -0.2])


def common_minimizer_quadratic(scale):
    base = objectives.make_quadratic(5, 2, cond=10.0, seed=7, scale=scale)
    return objectives.QuadraticObjective(base.Qs, np.tile(COMMON_B, (5, 1)))


@pytest.fixture(scope="session")
def ring5():
    return graphs.build_topology("ring", 5)


@pytest.fixture(scope="session")
def flow_quadratic():
    obj = common_minimizer_quadratic(1.0)
    return obj, obj.closed_form_optimum()


@pytest.fixture(scope="session")
def controller_quadratic():
    obj = common_minimizer_quadratic(0.02)
    return obj, obj.closed_form_optimum()


@pytest.fixture(scope="session")
def exact_opt():
    """Optimum of the common-minimizer instances written down exactly.

    The closed-form solve leaves ~1e-16 residue in the optimum gradient;
    fixed-point tests need the literal zero.
    """
    stacked = np.tile(COMMON_B, 5)
    return objectives.ConsensusOptimum(
        x_star=COMMON_B.copy(), f_star=0.0, x_star_stacked=stacked,
        grad_at_opt=np.zeros(10))


@pytest.fixture(scope="session")
def x0_ring5():
    return 1.5 * np.random.default_rng(2).standard_normal(10)


@pytest.fixture(scope="session")
def ring5_logistic():
    """A small logistic problem on the ring of five, 2 features per agent.
    Its agents' minimizers differ: the optimum gradient g* is not 0."""
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((40, 2))
    labels = (rng.random(40) < 0.5).astype(float)
    obj = objectives.LogisticObjective(np.array_split(feats, 5),
                                       np.array_split(labels, 5), l2=1e-2)
    return obj, objectives.solve_consensus_optimum(obj)
