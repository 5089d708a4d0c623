"""Unit and behaviour tests for the full 2PS-L pipeline (Algorithm 2)."""

import numpy as np
import pytest

from repro.core import ParallelTwoPhase, TwoPhasePartitioner
from repro.errors import ConfigurationError, PartitioningError
from repro.graph.formats import write_binary_edge_list
from repro.graph.generators import rmat_graph
from repro.kernels import available_backends
from repro.metrics import validate_partition
from repro.streaming import FileEdgeStream, InMemoryEdgeStream


class TestContract:
    def test_valid_partitioning(self, social_graph):
        result = TwoPhasePartitioner().partition(social_graph, 8)
        validate_partition(social_graph.edges, result.assignments, 8, alpha=1.05)

    def test_hard_balance_cap(self, powerlaw_graph):
        for k in (2, 7, 16):
            result = TwoPhasePartitioner().partition(powerlaw_graph, k)
            cap = result.state.capacity
            assert result.sizes.max() <= cap

    def test_rejects_empty_stream(self):
        with pytest.raises(PartitioningError):
            TwoPhasePartitioner().partition(
                np.empty((0, 2), dtype=int), 4, n_vertices=4
            )

    def test_rejects_k_one(self, toy_graph):
        with pytest.raises(PartitioningError):
            TwoPhasePartitioner().partition(toy_graph, 1)

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigurationError):
            TwoPhasePartitioner(mode="quadratic")

    def test_rejects_bad_cap_factor(self):
        with pytest.raises(ConfigurationError):
            TwoPhasePartitioner(volume_cap_factor=0)

    def test_rejects_nan_cap_factor(self):
        with pytest.raises(ConfigurationError, match="must be positive"):
            TwoPhasePartitioner(volume_cap_factor=float("nan"))

    @pytest.mark.parametrize("cls", [TwoPhasePartitioner, ParallelTwoPhase])
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_lambda(self, cls, lam):
        """A non-finite balance weight makes every HDRF score NaN."""
        with pytest.raises(ConfigurationError):
            cls(mode="hdrf", hdrf_lambda=lam)

    @pytest.mark.parametrize("cls", [TwoPhasePartitioner, ParallelTwoPhase])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_hash_seed_outside_uint64(self, cls, seed):
        """The fallback hash adds the seed as a uint64."""
        with pytest.raises(ConfigurationError):
            cls(hash_seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_hash_seed_range_ends_bit_exact(self, seed):
        """Both ends of the seed range hash identically on every backend
        (alpha=1.0 makes the fallback fire)."""
        graph = rmat_graph(8, edge_factor=8, seed=3)
        ref = TwoPhasePartitioner(backend="python", hash_seed=seed).partition(
            graph, 6, alpha=1.0
        )
        out = TwoPhasePartitioner(hash_seed=seed).partition(graph, 6, alpha=1.0)
        assert ref.cost.hash_evaluations > 0
        np.testing.assert_array_equal(ref.assignments, out.assignments)
        assert ref.cost == out.cost

    @pytest.mark.parametrize("backend", available_backends())
    def test_numpy_integer_k_matches_int_k(self, backend):
        """The hash fallback (alpha=1.0 makes it fire) reduces a Python-int
        hash modulo k."""
        graph = rmat_graph(8, edge_factor=8, seed=3)
        ref = TwoPhasePartitioner(backend=backend).partition(
            graph, 6, alpha=1.0
        )
        out = TwoPhasePartitioner(backend=backend).partition(
            graph, np.int64(6), alpha=1.0
        )
        assert ref.cost.hash_evaluations > 0
        np.testing.assert_array_equal(ref.assignments, out.assignments)

    def test_deterministic(self, social_graph):
        a = TwoPhasePartitioner().partition(social_graph, 8)
        b = TwoPhasePartitioner().partition(social_graph, 8)
        assert np.array_equal(a.assignments, b.assignments)


class TestPhases:
    def test_all_phases_timed(self, social_graph):
        result = TwoPhasePartitioner().partition(social_graph, 8)
        for phase in (
            "degree", "clustering", "mapping", "prepartition", "partitioning"
        ):
            assert phase in result.timer.totals

    def test_extras_account_for_all_edges(self, social_graph):
        result = TwoPhasePartitioner().partition(social_graph, 8)
        pre = result.extras["prepartitioned_edges"]
        rem = result.extras["remaining_edges"]
        assert pre + rem == social_graph.n_edges
        assert pre > 0

    def test_clusterable_graph_prepartitions_more(self, clique_ring, powerlaw_graph):
        ring = TwoPhasePartitioner().partition(clique_ring, 4)
        plaw = TwoPhasePartitioner().partition(powerlaw_graph, 4)
        ring_frac = ring.extras["prepartitioned_edges"] / clique_ring.n_edges
        plaw_frac = plaw.extras["prepartitioned_edges"] / powerlaw_graph.n_edges
        assert ring_frac > plaw_frac

    def test_restreaming_configured(self, social_graph):
        result = TwoPhasePartitioner(clustering_passes=3).partition(social_graph, 8)
        assert result.extras["clustering_passes"] == 3


class TestLinearTimeClaim:
    def test_score_evaluations_at_most_two_per_edge(self, social_graph):
        """The core claim: scoring work is independent of k."""
        for k in (4, 32, 64):
            result = TwoPhasePartitioner().partition(social_graph, k)
            assert result.cost.score_evaluations <= 2 * social_graph.n_edges

    def test_model_time_flat_in_k(self, social_graph):
        t4 = TwoPhasePartitioner().partition(social_graph, 4).model_seconds()
        t64 = TwoPhasePartitioner().partition(social_graph, 64).model_seconds()
        assert t64 < 2.0 * t4

    def test_hdrf_mode_scales_with_k(self, social_graph):
        t4 = TwoPhasePartitioner(mode="hdrf").partition(social_graph, 4)
        t64 = TwoPhasePartitioner(mode="hdrf").partition(social_graph, 64)
        assert t64.cost.score_evaluations > 8 * t4.cost.score_evaluations


class TestQuality:
    def test_beats_random_on_clusterable_graph(self, clique_ring):
        from repro.baselines import RandomHash

        ours = TwoPhasePartitioner().partition(clique_ring, 4)
        rand = RandomHash().partition(clique_ring, 4)
        assert ours.replication_factor < rand.replication_factor

    def test_hdrf_mode_not_worse(self, social_graph):
        """2PS-HDRF improves (or matches) 2PS-L quality (paper Fig. 9)."""
        linear = TwoPhasePartitioner().partition(social_graph, 16)
        hdrf = TwoPhasePartitioner(mode="hdrf").partition(social_graph, 16)
        assert hdrf.replication_factor <= linear.replication_factor * 1.05

    def test_rf_at_least_one(self, powerlaw_graph):
        result = TwoPhasePartitioner().partition(powerlaw_graph, 4)
        assert result.replication_factor >= 1.0

    def test_handles_star_graph(self, hub_graph):
        result = TwoPhasePartitioner().partition(hub_graph, 4)
        validate_partition(hub_graph.edges, result.assignments, 4, alpha=1.05)
        # The hub must be replicated everywhere; leaves only once.
        counts = result.state.replica_counts()
        assert counts[0] == 4
        assert (counts[1:][counts[1:] > 0] == 1).all()


class TestOutOfCore:
    def test_file_stream_equivalent_to_memory(self, tmp_path, community_graph):
        path = tmp_path / "g.bin"
        write_binary_edge_list(community_graph, path)
        mem = TwoPhasePartitioner().partition(
            InMemoryEdgeStream(community_graph), 8
        )
        fil = TwoPhasePartitioner().partition(
            FileEdgeStream(path, n_vertices=community_graph.n_vertices), 8
        )
        assert np.array_equal(mem.assignments, fil.assignments)

    def test_stream_pass_count(self, community_graph):
        """1 degree + 1 clustering + 2 partitioning = 4 passes by default."""
        stream = InMemoryEdgeStream(community_graph)
        TwoPhasePartitioner().partition(stream, 4)
        assert stream.stats.passes == 4

    def test_restreaming_adds_passes(self, community_graph):
        stream = InMemoryEdgeStream(community_graph)
        TwoPhasePartitioner(clustering_passes=3).partition(stream, 4)
        assert stream.stats.passes == 6


class TestResultObject:
    def test_summary_keys(self, toy_graph):
        result = TwoPhasePartitioner().partition(toy_graph, 2)
        summary = result.summary()
        assert {"partitioner", "k", "rf", "alpha", "wall_s", "model_s"} <= set(summary)

    def test_partition_edge_indices(self, toy_graph):
        result = TwoPhasePartitioner().partition(toy_graph, 2)
        total = sum(
            result.partition_edge_indices(p).shape[0] for p in range(2)
        )
        assert total == toy_graph.n_edges

    def test_partition_edge_indices_bounds(self, toy_graph):
        result = TwoPhasePartitioner().partition(toy_graph, 2)
        with pytest.raises(PartitioningError):
            result.partition_edge_indices(5)

    def test_name_by_mode(self):
        assert TwoPhasePartitioner().name == "2PS-L"
        assert TwoPhasePartitioner(mode="hdrf").name == "2PS-HDRF"

    def test_state_bytes_positive(self, toy_graph):
        result = TwoPhasePartitioner().partition(toy_graph, 2)
        assert result.state_bytes > 0
