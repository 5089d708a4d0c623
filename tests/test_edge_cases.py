"""Edge-case robustness across every partitioner.

Degenerate inputs a production partitioner must survive: fewer edges than
partitions, self-loops, duplicate (multigraph) edges, single-edge graphs,
long paths, hubs, and isolated vertices — plus stream-order and seed
stability checks.
"""

import re

import numpy as np
import pytest

from repro.baselines import HDRF
from repro.core import ParallelTwoPhase, TwoPhasePartitioner
from repro.core.clustering import StreamingClustering
from repro.errors import GraphError, PartitioningError, StreamError
from repro.graph import Graph
from repro.kernels import available_backends
from repro.metrics import validate_partition
from repro.streaming import InMemoryEdgeStream
from repro.streaming.order import degree_sorted_order, shuffled_copy

from tests.conftest import ALL_PARTITIONER_FACTORIES

CASES = {
    "fewer-edges-than-partitions": (Graph([(0, 1), (1, 2), (2, 3)], 4), 8),
    "self-loops": (Graph([(0, 0), (1, 1), (0, 1), (2, 2)], 3), 2),
    "all-duplicates": (Graph([(0, 1)] * 12, 2), 4),
    "single-edge": (Graph([(0, 1)], 2), 2),
    "path-graph": (Graph([(i, i + 1) for i in range(20)], 21), 4),
    "isolated-vertices": (Graph([(0, 1), (2, 3)], 100), 2),
}


@pytest.mark.parametrize("name", sorted(ALL_PARTITIONER_FACTORIES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_degenerate_inputs(name, case):
    graph, k = CASES[case]
    result = ALL_PARTITIONER_FACTORIES[name]().partition(graph, k)
    validate_partition(graph.edges, result.assignments, k)
    assert result.replication_factor >= 1.0


class TestSelfLoopSemantics:
    def test_self_loop_single_replica(self):
        graph = Graph([(5, 5)], 6)
        result = TwoPhasePartitioner().partition(graph, 2)
        assert result.state.replica_counts()[5] == 1
        assert result.replication_factor == 1.0

    def test_duplicates_colocate_under_2psl(self):
        """Duplicates of one edge are always pre-partitioned together
        (same clusters) until the cap forces spill."""
        graph = Graph([(0, 1)] * 8 + [(2, 3)] * 8, 4)
        result = TwoPhasePartitioner().partition(graph, 2)
        # Cap is 8, so each duplicate group fits one partition.
        first = set(result.assignments[:8].tolist())
        second = set(result.assignments[8:].tolist())
        assert len(first) == 1
        assert len(second) == 1


class TestOrderSensitivity:
    def test_2psl_quality_stable_under_shuffle(self, social_graph):
        base = TwoPhasePartitioner().partition(social_graph, 8)
        shuffled = TwoPhasePartitioner().partition(
            shuffled_copy(social_graph, seed=9), 8
        )
        assert shuffled.replication_factor < base.replication_factor * 1.35

    def test_2psl_quality_stable_under_adversarial_order(self, social_graph):
        """Degree-descending order front-loads the hubs — the hard case
        for streaming algorithms."""
        adversarial = TwoPhasePartitioner().partition(
            degree_sorted_order(social_graph, descending=True), 8
        )
        base = TwoPhasePartitioner().partition(social_graph, 8)
        assert adversarial.replication_factor < base.replication_factor * 1.5

    def test_balance_holds_in_any_order(self, social_graph):
        for variant in (
            social_graph,
            shuffled_copy(social_graph, seed=2),
            degree_sorted_order(social_graph),
        ):
            result = TwoPhasePartitioner().partition(variant, 8)
            assert result.measured_alpha <= 1.0500001 + 8 / variant.n_edges


class TestSeedStability:
    def test_dataset_seed_changes_graph_not_contract(self):
        from repro.graph.datasets import load_dataset

        rfs = []
        for seed in (7, 8, 9):
            graph = load_dataset("OK", scale=0.05, seed=seed)
            result = TwoPhasePartitioner().partition(graph, 8)
            validate_partition(graph.edges, result.assignments, 8, alpha=1.05)
            rfs.append(result.replication_factor)
        # Quality is stable across generator seeds (within 25 %).
        assert max(rfs) / min(rfs) < 1.25

    def test_hash_seed_changes_fallback_only(self, community_graph):
        a = TwoPhasePartitioner(hash_seed=0).partition(community_graph, 8)
        b = TwoPhasePartitioner(hash_seed=1).partition(community_graph, 8)
        # The scored path is deterministic; only hash fallbacks may differ.
        differing = (a.assignments != b.assignments).mean()
        assert differing < 0.2


class TestAlphaSweep:
    @pytest.mark.parametrize("alpha", [1.0, 1.01, 1.05, 1.5, 4.0])
    def test_2psl_respects_any_alpha(self, powerlaw_graph, alpha):
        result = TwoPhasePartitioner().partition(powerlaw_graph, 8, alpha=alpha)
        cap = result.state.capacity
        assert result.sizes.max() <= cap

    def test_looser_alpha_cannot_hurt_quality_much(self, powerlaw_graph):
        tight = TwoPhasePartitioner().partition(powerlaw_graph, 8, alpha=1.0)
        loose = TwoPhasePartitioner().partition(powerlaw_graph, 8, alpha=2.0)
        # With more slack, fewer forced fallbacks: quality same or better.
        assert loose.replication_factor <= tight.replication_factor * 1.1

    def test_alpha_one_is_perfectly_balanced(self, powerlaw_graph):
        result = TwoPhasePartitioner().partition(powerlaw_graph, 8, alpha=1.0)
        sizes = result.sizes
        assert sizes.max() - sizes.min() <= 1 or sizes.max() <= np.ceil(
            powerlaw_graph.n_edges / 8
        )


class TestLargeK:
    def test_k_equals_edge_count(self):
        graph = Graph([(i, i + 1) for i in range(16)], 17)
        result = TwoPhasePartitioner().partition(graph, 16)
        validate_partition(graph.edges, result.assignments, 16)
        assert result.sizes.max() == 1

    def test_k_larger_than_vertices(self, toy_graph):
        result = TwoPhasePartitioner().partition(toy_graph, 12)
        validate_partition(toy_graph.edges, result.assignments, 12)


class TestNegativeVertexIds:
    """A bare edge array with a negative id is rejected on every backend
    and runner, instead of wrapping around a list or failing untyped."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TwoPhasePartitioner(backend="python"),
            lambda: TwoPhasePartitioner(backend="c"),
            lambda: ParallelTwoPhase(runner="simulated"),
        ],
        ids=["python", "c", "simulated"],
    )
    def test_bare_array_raises_stream_error(self, make):
        edges = np.array([[0, 1], [-1, 2]])
        with pytest.raises(StreamError, match="negative vertex id"):
            make().partition(edges, k=2)

    @pytest.mark.parametrize("name", sorted(ALL_PARTITIONER_FACTORIES))
    def test_every_algorithm_rejects_it(self, name):
        """No partitioner reads a bare array past the check, the
        in-memory ones included."""
        edges = np.array([[0, 1], [1, 2], [2, -1]])
        with pytest.raises(StreamError, match=r"negative vertex id \(-1\)"):
            ALL_PARTITIONER_FACTORIES[name]().partition(edges, k=2)


class TestOutOfRangeVertexIds:
    """An id beyond the declared ``n_vertices`` is a typed error in every
    pass that sizes its state from that count, on every backend — never
    a bare ``IndexError`` or an out-of-bounds write."""

    EDGES = [[0, 1], [1, 2], [2, 9]]

    @staticmethod
    def _stream():
        return InMemoryEdgeStream(TestOutOfRangeVertexIds.EDGES, n_vertices=4)

    @pytest.mark.parametrize("backend", ["python", "c"])
    def test_hdrf_baseline_raises_stream_error(self, backend):
        with pytest.raises(StreamError, match="edge 2 has vertex id 9"):
            HDRF(backend=backend).partition(self._stream(), 2)

    @pytest.mark.parametrize("backend", ["python", "c"])
    def test_partial_degree_clustering_raises_stream_error(self, backend):
        clustering = StreamingClustering(use_true_degrees=False, backend=backend)
        with pytest.raises(StreamError, match="edge 2 has vertex id 9"):
            clustering.run(self._stream())

    #: The streaming baselines that size their state from the declared
    #: count.
    STREAMING = ["DBH", "Grid", "Random", "Greedy", "ADWISE", "SNE", "HEP-1", "HEP-100"]

    @pytest.mark.parametrize("name", STREAMING)
    def test_streaming_baseline_raises_stream_error(self, name):
        """The stateless pass (DBH's ``map_chunk`` indexes degrees of
        the declared size) and the per-edge loops of Greedy, ADWISE, SNE
        and HEP's in-memory phase."""
        with pytest.raises(StreamError, match="edge 2 has vertex id 9"):
            ALL_PARTITIONER_FACTORIES[name]().partition(self._stream(), 2)

    @pytest.mark.parametrize("chunk_size", [1, 2])
    @pytest.mark.parametrize("name", STREAMING)
    def test_streaming_baseline_names_the_edge_of_a_later_chunk(
        self, name, chunk_size
    ):
        """Edge 3 sits alone in the fourth chunk, or second in the
        second: each per-chunk check carries the edge offset across
        chunks."""
        stream = InMemoryEdgeStream([*self.EDGES[:2], [0, 2], [2, 9]], n_vertices=4)
        partitioner = ALL_PARTITIONER_FACTORIES[name]()
        with pytest.raises(StreamError, match="edge 3 has vertex id 9"):
            partitioner.partition(stream, 2, chunk_size=chunk_size)

    @pytest.mark.parametrize("name", ["NE", "DNE", "METIS"])
    def test_in_memory_baseline_raises_graph_error(self, name):
        """NE, DNE and METIS load the whole graph before any pass, and
        the load checks every id against the declared count."""
        with pytest.raises(GraphError, match="an edge references vertex 9"):
            ALL_PARTITIONER_FACTORIES[name]().partition(self._stream(), 2)

    @pytest.mark.parametrize("backend", ["python", "c"])
    def test_2psl_grows_its_arrays(self, backend):
        """2PS-L sizes its state from its own degree pass, so the same
        stream partitions, with one result on every backend."""
        result = TwoPhasePartitioner(backend=backend).partition(self._stream(), 2)
        assert result.assignments.tolist() == [0, 0, 1]


class _ShiftingStream(InMemoryEdgeStream):
    """A stream that changes between passes: ``before`` for the first
    ``shift_after`` full passes, ``after`` from then on, windows
    included.  The sequential pipeline streams the degree pass, then the
    clustering pass, then Phase 2."""

    def __init__(self, before, after, n_vertices, shift_after=2):
        super().__init__(before, n_vertices=n_vertices)
        self._after = np.asarray(after, dtype=np.int64)
        self._shift_after = shift_after
        self._passes = 0

    def _shift(self):
        if self._passes >= self._shift_after:
            self._edges = self._after

    def chunks(self, chunk_size=None):
        self._shift()
        self._passes += 1
        return super().chunks(chunk_size)

    def window(self, start, stop, chunk_size=None):
        self._shift()
        return super().window(start, stop, chunk_size)


class TestUnclusteredEndpoint:
    """An edge whose endpoint Phase 1 never clustered is one typed error
    on every backend, mode and runner.  Vertices 4 and 5 first appear in
    Phase 2, so their ``part`` is -1; python used to put edge (4, 5) on
    the last cluster's partition, and c raised."""

    MATCH = (
        r"edge 1: vertex 4 maps to partition -1, outside \[0, 2\) "
        r"\(Phase 1 never clustered it\)"
    )

    @staticmethod
    def _stream(shift_after=2):
        return _ShiftingStream(
            [(0, 1), (2, 3), (1, 2), (0, 3)],
            [(0, 1), (4, 5), (1, 2), (0, 3)],
            n_vertices=6,
            shift_after=shift_after,
        )

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("mode", ["linear", "hdrf"])
    def test_sequential_raises_stream_error(self, backend, mode):
        partitioner = TwoPhasePartitioner(backend=backend, mode=mode)
        with pytest.raises(StreamError, match=self.MATCH):
            partitioner.partition(self._stream(), 2)

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("mode", ["linear", "hdrf"])
    def test_simulated_runner_wraps_it(self, backend, mode):
        partitioner = ParallelTwoPhase(
            backend=backend, mode=mode, runner="simulated", n_workers=2
        )
        with pytest.raises(PartitioningError, match="phase-2 worker 0") as info:
            partitioner.partition(self._stream(), 2)
        assert isinstance(info.value.__cause__, StreamError)
        assert re.search(self.MATCH, str(info.value.__cause__))

    @pytest.mark.parametrize("backend", available_backends())
    def test_clustered_vertex_the_degree_pass_missed(self, backend):
        """The clustering pass sees vertices 4 and 5 the degree pass did
        not: a clustered vertex of degree 0, rejected once, before Phase
        2, since a scored edge of two such endpoints has no score."""
        partitioner = TwoPhasePartitioner(backend=backend)
        with pytest.raises(PartitioningError, match="vertex 4 is in cluster"):
            partitioner.partition(self._stream(shift_after=1), 2)

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("mode", ["linear", "hdrf"])
    def test_id_beyond_the_pass_state(self, backend, mode):
        """Vertex 7 first appears in Phase 2, beyond the six vertices the
        state holds: the c loops' bound check, on every backend (python
        raised a bare ``IndexError``)."""
        stream = _ShiftingStream(
            [(0, 1), (2, 3), (1, 2), (0, 3)],
            [(0, 1), (4, 7), (1, 2), (0, 3)],
            n_vertices=6,
        )
        partitioner = TwoPhasePartitioner(backend=backend, mode=mode)
        with pytest.raises(StreamError, match="edge 1 has vertex id 7"):
            partitioner.partition(stream, 2)
