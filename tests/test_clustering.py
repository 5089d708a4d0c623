"""Unit tests for Phase 1: streaming clustering (paper Algorithm 1)."""

import numpy as np
import pytest

from repro.core.clustering import (
    ClusteringResult,
    StreamingClustering,
    default_volume_cap,
)
from repro.errors import ConfigurationError
from repro.metrics.runtime import CostCounter
from repro.streaming import InMemoryEdgeStream


def cluster(graph, cap=None, passes=1, cost=None):
    stream = InMemoryEdgeStream(graph)
    return StreamingClustering(n_passes=passes, volume_cap=cap).run(
        stream, degrees=graph.degrees, cost=cost
    )


class TestBasics:
    def test_every_streamed_vertex_gets_a_cluster(self, powerlaw_graph):
        result = cluster(powerlaw_graph)
        touched = np.unique(powerlaw_graph.edges)
        assert (result.v2c[touched] >= 0).all()

    def test_isolated_vertices_stay_unclustered(self):
        from repro.graph import Graph

        g = Graph([(0, 1)], n_vertices=5)
        result = cluster(g)
        assert result.v2c[4] == -1

    def test_volume_invariant(self, powerlaw_graph):
        result = cluster(powerlaw_graph, cap=200.0)
        result.validate()  # volume == sum of member degrees

    def test_volume_invariant_unbounded(self, community_graph):
        result = cluster(community_graph)
        result.validate()

    def test_cap_respected(self, powerlaw_graph):
        cap = 150.0
        result = cluster(powerlaw_graph, cap=cap)
        # New singleton clusters may exceed the cap only if a single vertex
        # degree does; migrations never push volumes beyond the cap.
        max_deg = powerlaw_graph.degrees.max()
        assert result.volumes.max() <= max(cap, max_deg)

    def test_requires_degrees_in_true_mode(self, toy_graph):
        with pytest.raises(ConfigurationError):
            StreamingClustering().run(InMemoryEdgeStream(toy_graph))

    def test_rejects_bad_passes(self):
        with pytest.raises(ConfigurationError):
            StreamingClustering(n_passes=0)

    def test_rejects_bad_cap(self):
        with pytest.raises(ConfigurationError):
            StreamingClustering(volume_cap=0)

    def test_rejects_nan_cap(self):
        with pytest.raises(ConfigurationError, match="must be positive"):
            StreamingClustering(volume_cap=float("nan"))


class TestQuality:
    def test_unbounded_coalesces_more_than_bounded(self, clique_ring):
        """Without a cap, volume-priority migration coalesces clusters
        (on dense graphs it snowballs into a single mega-cluster; on a
        sparse ring it still merges strictly further than a capped run)."""
        unbounded = cluster(clique_ring)
        bounded = cluster(clique_ring, cap=30.0)
        assert unbounded.n_nonempty_clusters < bounded.n_nonempty_clusters
        assert unbounded.volumes.max() > bounded.volumes.max()

    def test_bounded_recovers_cliques(self, clique_ring):
        cap = 2.0 * 8 * 7 / 2  # about one clique's volume x2
        result = cluster(clique_ring, cap=cap)
        v2c = result.v2c
        intra = (v2c[clique_ring.edges[:, 0]] == v2c[clique_ring.edges[:, 1]]).mean()
        assert intra > 0.6
        assert result.n_nonempty_clusters > 3

    def test_separates_toy_clusters(self, toy_graph):
        result = cluster(toy_graph, cap=16.0)
        v2c = result.v2c
        # The two 4-cliques must be internally coherent.
        assert len(set(v2c[:4].tolist())) == 1
        assert len(set(v2c[4:].tolist())) == 1

    def test_restreaming_does_not_regress_much(self, community_graph):
        cap = default_volume_cap(community_graph.n_edges, 8)
        one = cluster(community_graph, cap=cap, passes=1)
        many = cluster(community_graph, cap=cap, passes=4)

        def intra(result):
            v2c = result.v2c
            e = community_graph.edges
            return (v2c[e[:, 0]] == v2c[e[:, 1]]).mean()

        assert intra(many) >= intra(one) - 0.05


class TestRestreaming:
    def test_passes_recorded(self, powerlaw_graph):
        result = cluster(powerlaw_graph, cap=100.0, passes=3)
        assert result.passes == 3

    def test_restreaming_keeps_invariant(self, powerlaw_graph):
        result = cluster(powerlaw_graph, cap=100.0, passes=5)
        result.validate()

    def test_restreaming_consumes_more_edges(self, powerlaw_graph):
        cost1 = CostCounter()
        cost3 = CostCounter()
        cluster(powerlaw_graph, cap=100.0, passes=1, cost=cost1)
        cluster(powerlaw_graph, cap=100.0, passes=3, cost=cost3)
        assert cost3.edges_streamed == 3 * cost1.edges_streamed


class TestPartialDegreeMode:
    def test_runs_without_degree_array(self, powerlaw_graph):
        stream = InMemoryEdgeStream(powerlaw_graph)
        result = StreamingClustering(use_true_degrees=False).run(
            stream, n_vertices=powerlaw_graph.n_vertices
        )
        touched = np.unique(powerlaw_graph.edges)
        assert (result.v2c[touched] >= 0).all()

    def test_final_partial_degrees_match_true(self, powerlaw_graph):
        stream = InMemoryEdgeStream(powerlaw_graph)
        result = StreamingClustering(use_true_degrees=False).run(
            stream, n_vertices=powerlaw_graph.n_vertices
        )
        assert np.array_equal(result.degrees, powerlaw_graph.degrees)

    def test_requires_vertex_count(self, powerlaw_graph):
        stream = InMemoryEdgeStream(powerlaw_graph.edges)
        with pytest.raises(ConfigurationError):
            StreamingClustering(use_true_degrees=False).run(stream)


class TestResultObject:
    def test_n_clusters_counts_allocated(self, toy_graph):
        result = cluster(toy_graph, cap=16.0)
        assert result.n_clusters >= result.n_nonempty_clusters

    def test_validate_detects_corruption(self, toy_graph):
        result = cluster(toy_graph, cap=16.0)
        bad = ClusteringResult(
            v2c=result.v2c,
            volumes=result.volumes + 1,
            degrees=result.degrees,
            volume_cap=result.volume_cap,
            passes=1,
        )
        with pytest.raises(AssertionError):
            bad.validate()


class TestDefaultVolumeCap:
    def test_formula(self):
        assert default_volume_cap(1000, 10, factor=0.5) == 50.0

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            default_volume_cap(1000, 0)
