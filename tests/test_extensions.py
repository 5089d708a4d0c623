"""Tests for the Section-VI extensions: incremental, parallel, hypergraph."""

import numpy as np
import pytest

from repro.core import IncrementalPartitioner, ParallelTwoPhase, TwoPhasePartitioner
from repro.errors import ConfigurationError, PartitioningError
from repro.hypergraph import (
    HashHyperedges,
    Hypergraph,
    MinMaxStreaming,
    TwoPhaseHypergraphPartitioner,
    planted_hypergraph,
)
from repro.metrics import validate_partition
from repro.partitioning.hashutil import splitmix64_int
from repro.partitioning.state import PackedReplicaMatrix


def _incremental_snapshot(inc):
    """Deep copy of every piece of mutable IncrementalPartitioner state."""
    replicas = (
        inc.replicas.packed.copy()
        if isinstance(inc.replicas, PackedReplicaMatrix)
        else inc.replicas.copy()
    )
    return {
        "degrees": inc.degrees.copy(),
        "v2c": inc.v2c.copy(),
        "volumes": inc.volumes.copy(),
        "c2p": inc.c2p.copy(),
        "replicas": replicas,
        "sizes": inc.sizes.copy(),
        "updates": inc.updates,
        "incidence": dict(inc._incidence),
        "score_evaluations": inc.cost.score_evaluations,
        "hash_evaluations": inc.cost.hash_evaluations,
    }


def _assert_snapshots_equal(before, after):
    for key, expected in before.items():
        actual = after[key]
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(actual, expected, err_msg=key)
        else:
            assert actual == expected, f"{key}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def incremental(request):
    """A fresh incremental partitioner over the community graph."""
    from repro.graph.generators import planted_partition_graph

    graph = planted_partition_graph(20, 24, p_intra=0.6, p_inter=0.002, seed=13)
    base = TwoPhasePartitioner(keep_state=True).partition(graph, 8)
    inc = IncrementalPartitioner.from_result(base)
    inc.attach_edges(graph.edges, base.assignments)
    return graph, base, inc


class TestIncremental:
    def test_requires_kept_state(self, community_graph):
        base = TwoPhasePartitioner().partition(community_graph, 4)
        with pytest.raises(PartitioningError):
            IncrementalPartitioner.from_result(base)

    def test_initial_rf_matches_base(self, incremental):
        _, base, inc = incremental
        assert inc.replication_factor() == pytest.approx(base.replication_factor)

    def test_insert_returns_valid_partition(self, incremental):
        _, _, inc = incremental
        p = inc.insert(0, 1)
        assert 0 <= p < inc.k

    def test_insert_updates_state(self, community_graph):
        base = TwoPhasePartitioner(keep_state=True).partition(community_graph, 4)
        inc = IncrementalPartitioner.from_result(base)
        inc.attach_edges(community_graph.edges, base.assignments)
        before = int(inc.sizes.sum())
        p = inc.insert(2, 3)
        assert int(inc.sizes.sum()) == before + 1
        assert inc.replicas[2, p]
        assert inc.replicas[3, p]

    def test_intra_cluster_insert_prefers_cluster_partition(self, incremental):
        graph, base, inc = incremental
        # Vertices 0 and 1 are in community 0; if they share a cluster the
        # insert must go to that cluster's partition.
        cu = int(inc.v2c[0])
        cv = int(inc.v2c[1])
        if cu == cv:
            expected = int(inc.c2p[cu])
            if inc.sizes[expected] < inc.capacity:
                assert inc.insert(0, 1) == expected

    def test_new_vertex_adopts_neighbor_cluster(self, incremental):
        _, _, inc = incremental
        fresh = inc.v2c.shape[0] + 5
        inc.insert(0, fresh)
        assert inc.v2c[fresh] == inc.v2c[0]

    def test_two_new_vertices_open_cluster(self, incremental):
        _, _, inc = incremental
        a = inc.v2c.shape[0] + 10
        b = a + 1
        inc.insert(a, b)
        assert inc.v2c[a] >= 0
        assert inc.v2c[b] >= 0

    def test_delete_reverses_insert(self, community_graph):
        base = TwoPhasePartitioner(keep_state=True).partition(community_graph, 4)
        inc = IncrementalPartitioner.from_result(base)
        inc.attach_edges(community_graph.edges, base.assignments)
        rf_before = inc.replication_factor()
        fresh = community_graph.n_vertices + 1
        p = inc.insert(0, fresh)
        inc.delete(0, fresh, p)
        assert inc.replication_factor() == pytest.approx(rf_before)

    def test_delete_unknown_edge_rejected(self, incremental):
        _, _, inc = incremental
        with pytest.raises(PartitioningError):
            inc.delete(0, 1, (int(np.argmin(inc.sizes)) + 1) % inc.k)

    def test_delete_clears_empty_replica(self, community_graph):
        base = TwoPhasePartitioner(keep_state=True).partition(community_graph, 4)
        inc = IncrementalPartitioner.from_result(base)
        inc.attach_edges(community_graph.edges, base.assignments)
        fresh = community_graph.n_vertices + 2
        p = inc.insert(5, fresh)
        assert inc.replicas[fresh, p]
        inc.delete(5, fresh, p)
        assert not inc.replicas[fresh, p]

    def test_failed_insert_is_transactional(self, community_graph, monkeypatch):
        """Regression: a rejected insert must not leak counter mutations.

        Pre-fix, ``insert`` mutated degrees/volumes (and grew state via
        ``_ensure_vertex``) *before* the capacity feasibility check, so
        the raised ``PartitioningError`` left corrupted counters behind.
        Consistent state always has an open partition
        (``cap(m+1) * k >= m+1``), so the rejection is forced through the
        ``_insertion_capacity`` seam.
        """
        base = TwoPhasePartitioner(keep_state=True).partition(community_graph, 4)
        inc = IncrementalPartitioner.from_result(base)
        inc.attach_edges(community_graph.edges, base.assignments)
        monkeypatch.setattr(inc, "_insertion_capacity", lambda m_after: 0)
        fresh = community_graph.n_vertices + 7
        before = _incremental_snapshot(inc)
        # Existing vertices, one new vertex (growth + neighbor adoption),
        # and two new vertices (growth + a freshly opened cluster).
        for u, v in [(0, 1), (0, fresh), (fresh, fresh + 1)]:
            with pytest.raises(PartitioningError, match="at capacity"):
                inc.insert(u, v)
            _assert_snapshots_equal(before, _incremental_snapshot(inc))
        # And the partitioner still works once the cap seam is restored.
        monkeypatch.undo()
        p = inc.insert(0, 1)
        assert 0 <= p < inc.k

    @pytest.mark.parametrize("hashed_full", [False, True], ids=["hash", "least-loaded"])
    def test_full_target_takes_the_fallback_chain(self, monkeypatch, hashed_full):
        """An insert whose scored partition is full lands on the hash of
        its higher-degree endpoint, or, when that partition is full too,
        on the smallest-index least-loaded one: the batch passes' chain.
        Either way it counts one hash evaluation."""
        k, u, v = 4, 0, 1
        hashed = splitmix64_int(u) % k
        p1, p2, other = [(hashed + i) % k for i in (1, 2, 3)]
        replicas = np.zeros((2, k), dtype=bool)
        replicas[u, p1] = True  # scores p1 over p2
        sizes = np.zeros(k, dtype=np.int64)
        sizes[[p1, hashed, p2, other]] = [3, 3 if hashed_full else 2, 1, 1]
        inc = IncrementalPartitioner(
            k=k,
            alpha=1.05,
            degrees=np.array([5, 1]),  # u has the higher degree
            v2c=np.array([0, 1]),
            volumes=np.array([5, 1]),
            c2p=np.array([p1, p2]),
            replicas=replicas,
            sizes=sizes,
        )
        monkeypatch.setattr(inc, "_insertion_capacity", lambda m_after: 3)
        p = inc.insert(u, v)
        assert p == (min(p2, other) if hashed_full else hashed)
        assert inc.cost.hash_evaluations == 1
        assert inc.cost.score_evaluations == 2

    def test_negative_vertex_id_rejected_before_mutation(self, community_graph):
        base = TwoPhasePartitioner(keep_state=True).partition(community_graph, 4)
        inc = IncrementalPartitioner.from_result(base)
        before = _incremental_snapshot(inc)
        with pytest.raises(PartitioningError, match="must be >= 0"):
            inc.insert(-1, 3)
        _assert_snapshots_equal(before, _incremental_snapshot(inc))

    def test_from_result_packed_state(self, community_graph):
        """Regression: ``from_result`` of a ``packed_state=True`` run.

        Pre-fix, ``__init__``'s ``replicas.copy()`` silently densified the
        packed matrix back to ``|V| x k`` bools, and the ``np.vstack``
        grow path kept it dense.  The packed partitioner must stay packed
        through growth/insert/delete and mirror the dense twin bit for
        bit (packed and dense base runs are bit-exact by contract).
        """
        dense_base = TwoPhasePartitioner(keep_state=True).partition(
            community_graph, 8
        )
        packed_base = TwoPhasePartitioner(
            keep_state=True, packed_state=True
        ).partition(community_graph, 8)
        dense = IncrementalPartitioner.from_result(dense_base)
        packed = IncrementalPartitioner.from_result(packed_base)
        assert isinstance(packed.replicas, PackedReplicaMatrix)
        dense.attach_edges(community_graph.edges, dense_base.assignments)
        packed.attach_edges(community_graph.edges, packed_base.assignments)
        fresh = community_graph.n_vertices + 3
        for u, v in [(0, 1), (2, fresh), (fresh, fresh + 1)]:
            assert dense.insert(u, v) == packed.insert(u, v)
        p = dense.insert(5, fresh + 2)
        assert packed.insert(5, fresh + 2) == p
        dense.delete(5, fresh + 2, p)
        packed.delete(5, fresh + 2, p)
        # Growth and deletion never densified the packed representation.
        assert isinstance(packed.replicas, PackedReplicaMatrix)
        np.testing.assert_array_equal(np.asarray(packed.replicas), dense.replicas)
        np.testing.assert_array_equal(packed.sizes, dense.sizes)
        assert packed.replication_factor() == dense.replication_factor()

    def test_quality_degrades_gracefully(self, community_graph):
        """A churn of random inserts should not blow up RF."""
        base = TwoPhasePartitioner(keep_state=True).partition(community_graph, 8)
        inc = IncrementalPartitioner.from_result(base)
        inc.attach_edges(community_graph.edges, base.assignments)
        rng = np.random.default_rng(4)
        for _ in range(300):
            u, v = rng.integers(0, community_graph.n_vertices, 2)
            inc.insert(int(u), int(v))
        assert inc.replication_factor() < base.replication_factor * 1.5
        assert inc.staleness > 0

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_hash_seed_outside_uint64(self, seed):
        """The fallback hash adds the seed as a uint64."""
        n, k = 2, 2
        with pytest.raises(ConfigurationError):
            IncrementalPartitioner(
                k=k,
                alpha=1.05,
                degrees=np.zeros(n, dtype=np.int64),
                v2c=np.zeros(n, dtype=np.int64),
                volumes=np.zeros(1, dtype=np.int64),
                c2p=np.zeros(1, dtype=np.int64),
                replicas=np.zeros((n, k), dtype=bool),
                sizes=np.zeros(k, dtype=np.int64),
                hash_seed=seed,
            )


class TestParallel:
    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            ParallelTwoPhase(n_workers=0)
        with pytest.raises(ConfigurationError):
            ParallelTwoPhase(sync_interval=0)

    def test_valid_partitioning(self, social_graph):
        result = ParallelTwoPhase(n_workers=4).partition(social_graph, 8)
        validate_partition(social_graph.edges, result.assignments, 8)

    def test_single_worker_close_to_sequential(self, community_graph):
        par = ParallelTwoPhase(n_workers=1, sync_interval=10**9).partition(
            community_graph, 8
        )
        seq = TwoPhasePartitioner().partition(community_graph, 8)
        assert par.replication_factor == pytest.approx(
            seq.replication_factor, rel=0.1
        )

    def test_sync_count_decreases_with_interval(self, community_graph):
        fine = ParallelTwoPhase(n_workers=4, sync_interval=32).partition(
            community_graph, 8
        )
        coarse = ParallelTwoPhase(n_workers=4, sync_interval=4096).partition(
            community_graph, 8
        )
        assert fine.extras["syncs"] > coarse.extras["syncs"]

    def test_quality_within_band_of_sequential(self, social_graph):
        """Staleness costs quality, but boundedly (the CuSP observation)."""
        par = ParallelTwoPhase(n_workers=4, sync_interval=256).partition(
            social_graph, 8
        )
        seq = TwoPhasePartitioner().partition(social_graph, 8)
        assert par.replication_factor < seq.replication_factor * 1.3

    def test_parallel_wall_model(self, community_graph):
        result = ParallelTwoPhase(n_workers=4, sync_interval=128).partition(
            community_graph, 8
        )
        assert result.extras["parallel_wall_s"] > 0
        assert result.extras["n_workers"] == 4


class TestHypergraphModel:
    def test_construction(self):
        hg = Hypergraph([[0, 1, 2], [2, 3]])
        assert hg.n_vertices == 4
        assert hg.n_hyperedges == 2
        assert hg.total_pins == 5

    def test_rejects_singleton_hyperedge(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            Hypergraph([[0]])

    def test_rejects_negative_ids(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            Hypergraph([[0, -1]])

    def test_degrees_count_pins(self):
        hg = Hypergraph([[0, 1], [0, 2], [0, 3]])
        assert hg.degrees.tolist() == [3, 1, 1, 1]

    def test_iteration(self):
        hg = Hypergraph([[0, 1, 2], [3, 4]])
        sizes = [len(he) for he in hg]
        assert sizes == [3, 2]

    def test_planted_generator_deterministic(self):
        a = planted_hypergraph(5, 10, 100, seed=2)
        b = planted_hypergraph(5, 10, 100, seed=2)
        assert np.array_equal(a.members, b.members)

    def test_planted_generator_intra_bias(self):
        hg = planted_hypergraph(10, 12, 500, p_intra=0.9, seed=3)
        intra = 0
        for members in hg:
            comms = set((members // 12).tolist())
            intra += len(comms) == 1
        assert intra > 0.7 * hg.n_hyperedges


class TestHypergraphPartitioners:
    @pytest.fixture(scope="class")
    def hg(self):
        return planted_hypergraph(20, 16, 1500, seed=5)

    @pytest.mark.parametrize(
        "factory",
        [TwoPhaseHypergraphPartitioner, MinMaxStreaming, HashHyperedges],
        ids=["2PS-L-H", "MinMax", "HashH"],
    )
    def test_every_hyperedge_assigned(self, factory, hg):
        result = factory().partition(hg, 8)
        assert result.assignments.shape[0] == hg.n_hyperedges
        assert result.assignments.min() >= 0
        assert result.assignments.max() < 8

    @pytest.mark.parametrize(
        "factory",
        [TwoPhaseHypergraphPartitioner, MinMaxStreaming],
        ids=["2PS-L-H", "MinMax"],
    )
    def test_balance_cap(self, factory, hg):
        result = factory().partition(hg, 8, alpha=1.05)
        cap = max(int(1.05 * hg.n_hyperedges / 8), -(-hg.n_hyperedges // 8))
        assert result.sizes.max() <= cap

    def test_rejects_empty(self):
        with pytest.raises(PartitioningError):
            TwoPhaseHypergraphPartitioner().partition(Hypergraph([], 4), 4)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_hash_seed_outside_uint64(self, seed):
        """The fallback hash adds the seed as a uint64."""
        with pytest.raises(ConfigurationError):
            TwoPhaseHypergraphPartitioner(hash_seed=seed)

    def test_numpy_integer_k_matches_int_k(self, hg):
        """The hash fallback (alpha=1.0 makes it fire) reduces a Python-int
        hash modulo k."""
        ref = TwoPhaseHypergraphPartitioner().partition(hg, 8, alpha=1.0)
        out = TwoPhaseHypergraphPartitioner().partition(
            hg, np.int64(8), alpha=1.0
        )
        assert ref.cost.hash_evaluations > 0
        np.testing.assert_array_equal(ref.assignments, out.assignments)

    def test_rejects_k_one(self, hg):
        with pytest.raises(PartitioningError):
            MinMaxStreaming().partition(hg, 1)

    def test_quality_ordering(self, hg):
        """Clustering-aware beats hashing; full-k stateful beats both —
        the same hierarchy the paper shows for graphs."""
        two = TwoPhaseHypergraphPartitioner().partition(hg, 8)
        mm = MinMaxStreaming().partition(hg, 8)
        hh = HashHyperedges().partition(hg, 8)
        assert two.replication_factor < hh.replication_factor
        assert mm.replication_factor <= two.replication_factor * 1.6

    def test_linear_cost_profile(self, hg):
        """2PS-L-H scores O(1) candidates per hyperedge, MinMax scores k."""
        two = TwoPhaseHypergraphPartitioner().partition(hg, 16)
        mm = MinMaxStreaming().partition(hg, 16)
        assert two.cost.score_evaluations <= 2 * hg.n_hyperedges
        assert mm.cost.score_evaluations == 16 * hg.n_hyperedges

    def test_replication_factor_at_least_one(self, hg):
        result = TwoPhaseHypergraphPartitioner().partition(hg, 4)
        assert result.replication_factor >= 1.0
