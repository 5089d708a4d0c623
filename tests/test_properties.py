"""Property-based tests (hypothesis) on the core invariants.

These sweep randomly generated graphs and parameters through the
partitioners and substrates, asserting the invariants from DESIGN.md §4.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines import DBH, HDRF, Grid, RandomHash
from repro.core import TwoPhasePartitioner, graham_schedule, makespan_lower_bound
from repro.core.clustering import StreamingClustering
from repro.graph import Graph
from repro.metrics import (
    replication_factor_from_assignments,
    validate_partition,
)
from repro.partitioning.hashutil import hash_to_partition
from repro.streaming import InMemoryEdgeStream

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_vertices=60, max_edges=300):
    """Random non-empty multigraphs (self-loops and duplicates allowed)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    return Graph(edges, n)


class TestPartitioningInvariants:
    @SLOW
    @given(graph=graphs(), k=st.integers(min_value=2, max_value=12))
    def test_2psl_is_valid_partition(self, graph, k):
        result = TwoPhasePartitioner().partition(graph, k)
        validate_partition(graph.edges, result.assignments, k, alpha=1.05)

    @SLOW
    @given(graph=graphs(), k=st.integers(min_value=2, max_value=12))
    def test_2psl_hard_cap(self, graph, k):
        result = TwoPhasePartitioner().partition(graph, k)
        assert result.sizes.max() <= result.state.capacity

    @SLOW
    @given(graph=graphs(), k=st.integers(min_value=2, max_value=12))
    def test_hdrf_is_valid_partition(self, graph, k):
        result = HDRF().partition(graph, k)
        validate_partition(graph.edges, result.assignments, k, alpha=1.05)

    @SLOW
    @given(graph=graphs(), k=st.integers(min_value=2, max_value=12))
    def test_stateless_are_valid(self, graph, k):
        for partitioner in (DBH(), Grid(), RandomHash()):
            result = partitioner.partition(graph, k)
            validate_partition(graph.edges, result.assignments, k)

    @SLOW
    @given(graph=graphs(), k=st.integers(min_value=2, max_value=12))
    def test_rf_bounds(self, graph, k):
        """1 <= RF <= min(k, max_degree) over covered vertices."""
        result = TwoPhasePartitioner().partition(graph, k)
        rf = result.replication_factor
        assert 1.0 <= rf <= min(k, max(int(graph.max_degree), 1)) + 1e-9

    @SLOW
    @given(graph=graphs(), k=st.integers(min_value=2, max_value=12))
    def test_rf_implementations_agree(self, graph, k):
        result = TwoPhasePartitioner().partition(graph, k)
        recomputed = replication_factor_from_assignments(
            graph.edges, result.assignments, k, graph.n_vertices
        )
        assert recomputed == pytest.approx(result.replication_factor)

    @SLOW
    @given(graph=graphs(), k=st.integers(min_value=2, max_value=8))
    def test_score_evals_bounded_by_two_per_edge(self, graph, k):
        """The linearity invariant of 2PS-L, on arbitrary graphs."""
        result = TwoPhasePartitioner().partition(graph, k)
        assert result.cost.score_evaluations <= 2 * graph.n_edges


class TestClusteringInvariants:
    @SLOW
    @given(
        graph=graphs(),
        passes=st.integers(min_value=1, max_value=3),
        cap=st.floats(min_value=5.0, max_value=500.0),
    )
    def test_volume_invariant(self, graph, passes, cap):
        result = StreamingClustering(n_passes=passes, volume_cap=cap).run(
            InMemoryEdgeStream(graph), degrees=graph.degrees
        )
        result.validate()

    @SLOW
    @given(graph=graphs(), cap=st.floats(min_value=5.0, max_value=500.0))
    def test_covered_vertices_clustered(self, graph, cap):
        result = StreamingClustering(volume_cap=cap).run(
            InMemoryEdgeStream(graph), degrees=graph.degrees
        )
        touched = np.unique(graph.edges)
        assert (result.v2c[touched] >= 0).all()
        assert (result.v2c[touched] < result.n_clusters).all()

    @SLOW
    @given(graph=graphs(), cap=st.floats(min_value=5.0, max_value=500.0))
    def test_migration_never_exceeds_cap(self, graph, cap):
        result = StreamingClustering(volume_cap=cap).run(
            InMemoryEdgeStream(graph), degrees=graph.degrees
        )
        # A cluster above the cap can only be a singleton whose vertex
        # degree alone exceeds the cap.
        over = np.where(result.volumes > cap)[0]
        for c in over:
            members = np.where(result.v2c == c)[0]
            assert members.shape[0] == 1
            assert graph.degrees[members[0]] > cap


def _optimal_makespan(volumes, k: int) -> int:
    """The exact minimum makespan, by exhaustive search (small inputs)."""
    jobs = sorted(volumes, reverse=True)
    loads = [0] * k
    best = sum(jobs)  # everything on one machine is always feasible

    def place(i: int) -> None:
        nonlocal best
        if i == len(jobs):
            best = max(loads)
            return
        tried = set()
        for p in range(k):
            # Machines of equal load are interchangeable; a placement
            # that reaches the best makespan cannot improve on it.
            if loads[p] in tried or loads[p] + jobs[i] >= best:
                continue
            tried.add(loads[p])
            loads[p] += jobs[i]
            place(i + 1)
            loads[p] -= jobs[i]

    place(0)
    return best


class TestSchedulingInvariants:
    @SLOW
    @given(
        volumes=st.one_of(
            st.lists(st.integers(min_value=0, max_value=1000), max_size=8),
            st.lists(st.integers(min_value=0, max_value=1000), max_size=80),
        ),
        k=st.integers(min_value=1, max_value=16),
    )
    @example(volumes=[2, 3, 3, 3], k=3)
    def test_graham_four_thirds(self, volumes, k):
        """Graham's bounds for sorted list scheduling (LPT): the list
        scheduling bound on every input, and LPT's ``(4/3 - 1/(3k)) *
        OPT`` where the optimum is cheap to find exactly.  (At ``[2, 3,
        3, 3]``, ``k=3``, the optimum 5 exceeds 4/3 of the lower bound.)
        Both checks are in exact integer arithmetic."""
        volumes = np.asarray(volumes, dtype=np.int64)
        c2p, loads = graham_schedule(volumes, k)
        assert loads.sum() == volumes.sum()
        if volumes.size == 0:
            return
        makespan = int(loads.max())
        total, largest = int(volumes.sum()), int(volumes.max())
        assert makespan >= makespan_lower_bound(volumes, k)
        assert k * makespan <= total + (k - 1) * largest
        if volumes.size <= 8 and k <= 4:
            opt = _optimal_makespan(volumes.tolist(), k)
            assert 3 * k * makespan <= (4 * k - 1) * opt

    @SLOW
    @given(
        volumes=st.lists(
            st.integers(min_value=0, max_value=1000), min_size=1, max_size=80
        ),
        k=st.integers(min_value=1, max_value=16),
    )
    def test_graham_loads_consistent(self, volumes, k):
        volumes = np.asarray(volumes, dtype=np.int64)
        c2p, loads = graham_schedule(volumes, k)
        recomputed = np.zeros(k, dtype=np.int64)
        np.add.at(recomputed, c2p, volumes)
        assert np.array_equal(recomputed, loads)


class TestHashInvariants:
    @SLOW
    @given(
        values=st.lists(st.integers(min_value=0, max_value=2**40), min_size=1),
        k=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_hash_range_and_determinism(self, values, k, seed):
        arr = np.asarray(values, dtype=np.int64)
        a = hash_to_partition(arr, k, seed)
        b = hash_to_partition(arr, k, seed)
        assert np.array_equal(a, b)
        assert a.min() >= 0
        assert a.max() < k


class TestStreamInvariants:
    @SLOW
    @given(graph=graphs(), chunk=st.integers(min_value=1, max_value=64))
    def test_chunking_reconstructs_stream(self, graph, chunk):
        stream = InMemoryEdgeStream(graph)
        collected = np.concatenate(list(stream.chunks(chunk_size=chunk)))
        assert np.array_equal(collected, graph.edges)

    @SLOW
    @given(graph=graphs())
    def test_stateless_order_invariance(self, graph):
        """DBH assigns each distinct edge the same partition in any order."""
        k = 4
        base = DBH().partition(graph, k)
        mapping = {}
        for e, p in zip(graph.edges.tolist(), base.assignments.tolist()):
            mapping[tuple(e)] = p
        shuffled = graph.shuffled(seed=1)
        other = DBH().partition(shuffled, k)
        for e, p in zip(shuffled.edges.tolist(), other.assignments.tolist()):
            assert mapping[tuple(e)] == p
