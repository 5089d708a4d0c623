"""Shared fixtures for the test suite.

Graphs are deliberately small (hundreds to a few thousand edges) so the
whole suite stays fast; structural properties (power-law tails, planted
communities) are preserved at that scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    DBH,
    HDRF,
    HEP,
    Adwise,
    DistributedNE,
    Greedy,
    Grid,
    MetisLike,
    NeighborhoodExpansion,
    RandomHash,
    StreamingNE,
)
from repro.core import TwoPhasePartitioner
from repro.graph.generators import (
    chung_lu_graph,
    planted_partition_graph,
    ring_of_cliques,
    social_community_graph,
    star_graph,
    two_cluster_toy_graph,
)
from repro.partitioning.state import _replica_plane
from tests import per_edge

#: One factory per partitioner, used by the cross-cutting contract tests.
ALL_PARTITIONER_FACTORIES = {
    "2PS-L": lambda: TwoPhasePartitioner(),
    "2PS-HDRF": lambda: TwoPhasePartitioner(mode="hdrf"),
    "2PS-L-3pass": lambda: TwoPhasePartitioner(clustering_passes=3),
    "HDRF": lambda: HDRF(),
    "DBH": lambda: DBH(),
    "Grid": lambda: Grid(),
    "Random": lambda: RandomHash(),
    "Greedy": lambda: Greedy(),
    "ADWISE": lambda: Adwise(buffer_size=32),
    "NE": lambda: NeighborhoodExpansion(),
    "SNE": lambda: StreamingNE(),
    "DNE": lambda: DistributedNE(),
    "METIS": lambda: MetisLike(),
    "HEP-1": lambda: HEP(tau=1.0),
    "HEP-100": lambda: HEP(tau=100.0),
}


def state_bytes(state) -> tuple[bytes, bytes]:
    """Replica plane and sizes of a partition state as bytes: everything
    a barrier writes, for byte-for-byte comparisons."""
    plane = _replica_plane(state.replicas)[0].tobytes()
    return plane, state.sizes.tobytes()


#: Subset that enforces the hard balance cap (stateless hashing cannot).
CAP_ENFORCING = {
    "2PS-L",
    "2PS-HDRF",
    "2PS-L-3pass",
    "HDRF",
    "Greedy",
    "ADWISE",
    "NE",
    "SNE",
    "DNE",
    "METIS",
    "HEP-1",
    "HEP-100",
}


@pytest.fixture(scope="session")
def powerlaw_graph():
    """A small power-law (social-like) multigraph."""
    return chung_lu_graph(400, 4000, gamma=2.1, seed=11)


@pytest.fixture(scope="session")
def community_graph():
    """A small planted-partition (web-like) graph."""
    return planted_partition_graph(20, 24, p_intra=0.6, p_inter=0.002, seed=13)


@pytest.fixture(scope="session")
def social_graph():
    """Mixed community + power-law social graph."""
    return social_community_graph(600, 6000, community_fraction=0.6, seed=17)


@pytest.fixture(scope="session")
def clique_ring():
    """Ring of cliques: perfectly clusterable structure."""
    return ring_of_cliques(12, 8, seed=3)


@pytest.fixture(scope="session")
def toy_graph():
    """The paper's Figure 3 illustration graph."""
    return two_cluster_toy_graph()


@pytest.fixture(scope="session")
def hub_graph():
    """A star: the extreme of degree skew."""
    return star_graph(200)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


@pytest.fixture(scope="class")
def per_edge_backend():
    """The ``per-edge`` test backend (``tests/per_edge.py``), registered
    for one test class: class-scoped, so hypothesis tests can use it."""
    with per_edge.registered():
        yield
