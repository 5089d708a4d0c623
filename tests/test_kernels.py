"""Kernel-backend contract tests (see :mod:`repro.kernels`).

The contract: every backend is bit-exact with the ``python`` reference
backend for any stream, chunk size, k and alpha — identical per-edge
assignments, replication state, balance, cluster ids and cost counters.
Chunk size must be a pure performance knob.

The reference vectorizes the four ops in which no edge's outcome
depends on another's (the degree pass, the stateless pass and the two
Phase-1 merges).  The per-edge loops of the ``per-edge`` test backend
(``tests/per_edge.py``) pin each of them, op by op on every backend and
end to end in the equivalence sweeps, on every host.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines import DBH, Grid, RandomHash
from repro.core import IncrementalPartitioner, TwoPhasePartitioner
from repro.core.clustering import StreamingClustering
from repro.errors import ConfigurationError, PartitioningError
from repro.graph import Graph
from repro.graph.degrees import compute_degrees_from_stream
from repro.graph.generators import rmat_graph
from repro.kernels import (
    DEFAULT_BACKEND,
    KernelBackend,
    available_backends,
    get_backend,
    missing_backends,
    register_backend,
)
from repro.kernels.base import (
    Int64Buffer,
    TwoPhaseContext,
    phase2_inputs,
)
from repro.kernels.python_backend import PythonBackend
from repro.metrics.runtime import CostCounter
from repro.partitioning import LeastLoadedTracker, PartitionArtifacts
from repro.partitioning.state import PackedReplicaMatrix, PartitionState
from repro.streaming import DEFAULT_CHUNK_SIZE, InMemoryEdgeStream
from tests.conftest import state_bytes
from tests.per_edge import PER_EDGE, PerEdgeBackend

#: Every non-reference backend is pinned to the reference here.
OTHER_BACKENDS = [n for n in available_backends() if n != "python"]

#: The per-edge loops of the reference's four vectorized ops.
ORACLE = PerEdgeBackend()


#: Every registered backend instance: the Phase-1 merge-op twins and the
#: packed-state Phase-2 passes must stay bit-exact across all of them.
BACKEND_IMPLS = [get_backend(name) for name in available_backends()]

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Degenerate and odd chunk sizes, including 1 and larger than any edge
#: count the graph strategy can produce.
CHUNK_SIZES = st.sampled_from([1, 2, 7, 64, 500])


@st.composite
def graphs(draw, max_vertices=60, max_edges=300):
    """Random non-empty multigraphs (self-loops and duplicates allowed)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    return Graph(edges, n)


def assert_results_identical(reference, other):
    """Bit-exact equality of two partitioning results."""
    np.testing.assert_array_equal(reference.assignments, other.assignments)
    np.testing.assert_array_equal(reference.state.sizes, other.state.sizes)
    np.testing.assert_array_equal(
        reference.state.replicas, other.state.replicas
    )
    assert reference.replication_factor == other.replication_factor
    assert reference.measured_alpha == other.measured_alpha
    assert reference.cost == other.cost


@pytest.mark.parametrize("backend", [*OTHER_BACKENDS, PER_EDGE])
@pytest.mark.usefixtures("per_edge_backend")
class TestBackendEquivalence:
    """Every backend, and the per-edge loops of the reference's vectorized
    ops, against the reference through whole runs."""

    @SLOW
    @given(
        graph=graphs(),
        k=st.integers(min_value=2, max_value=12),
        alpha=st.sampled_from([1.0, 1.01, 1.05, 1.5]),
        chunk_size=CHUNK_SIZES,
    )
    def test_2psl_bit_exact(self, backend, graph, k, alpha, chunk_size):
        ref = TwoPhasePartitioner(backend="python").partition(
            graph, k, alpha=alpha, chunk_size=chunk_size
        )
        out = TwoPhasePartitioner(backend=backend).partition(
            graph, k, alpha=alpha, chunk_size=chunk_size
        )
        assert_results_identical(ref, out)
        assert ref.extras["prepartitioned_edges"] == (
            out.extras["prepartitioned_edges"]
        )

    @SLOW
    @given(
        graph=graphs(max_edges=150),
        k=st.integers(min_value=2, max_value=8),
        chunk_size=CHUNK_SIZES,
        passes=st.integers(min_value=1, max_value=3),
    )
    def test_2psl_restreaming_bit_exact(
        self, backend, graph, k, chunk_size, passes
    ):
        ref = TwoPhasePartitioner(
            backend="python", clustering_passes=passes
        ).partition(graph, k, chunk_size=chunk_size)
        out = TwoPhasePartitioner(
            backend=backend, clustering_passes=passes
        ).partition(graph, k, chunk_size=chunk_size)
        assert_results_identical(ref, out)

    @SLOW
    @given(
        graph=graphs(max_edges=120),
        k=st.integers(min_value=2, max_value=8),
        chunk_size=CHUNK_SIZES,
        alpha=st.sampled_from([1.0, 1.05, 1.5]),
    )
    def test_2pshdrf_bit_exact(self, backend, graph, k, chunk_size, alpha):
        ref = TwoPhasePartitioner(backend="python", mode="hdrf").partition(
            graph, k, alpha=alpha, chunk_size=chunk_size
        )
        out = TwoPhasePartitioner(backend=backend, mode="hdrf").partition(
            graph, k, alpha=alpha, chunk_size=chunk_size
        )
        assert_results_identical(ref, out)

    @pytest.mark.parametrize("mode", ["linear", "hdrf"])
    @pytest.mark.parametrize("chunk_size", [1, 64, 10**6])
    def test_hub_heavy_rmat_bit_exact(self, backend, mode, chunk_size):
        """Hub-heavy R-MAT: hubs recur in nearly every chunk, and the
        stream is balance-dominated for the HDRF argmax; chunk_size
        sweeps through 1 and far beyond |E|."""
        graph = rmat_graph(9, edge_factor=8, seed=3)
        ref = TwoPhasePartitioner(backend="python", mode=mode).partition(
            graph, 8, chunk_size=chunk_size
        )
        out = TwoPhasePartitioner(backend=backend, mode=mode).partition(
            graph, 8, chunk_size=chunk_size
        )
        assert_results_identical(ref, out)

    @pytest.mark.parametrize("hdrf_lambda", [0.0, 1e-15, 1.1, 15.0, 1e16])
    def test_2pshdrf_lambda_sweep_bit_exact(self, backend, hdrf_lambda):
        """Degenerate and extreme balance weights (0, 1e-15, 1e16) and
        ordinary ones (1.1, 15) all stay bit-exact."""
        graph = rmat_graph(8, edge_factor=8, seed=5)
        ref = TwoPhasePartitioner(
            backend="python", mode="hdrf", hdrf_lambda=hdrf_lambda
        ).partition(graph, 6)
        out = TwoPhasePartitioner(
            backend=backend, mode="hdrf", hdrf_lambda=hdrf_lambda
        ).partition(graph, 6)
        assert_results_identical(ref, out)

    def test_2pshdrf_tight_cap_bit_exact(self, backend):
        """alpha=1.0 keeps the hard cap reachable in nearly every chunk,
        exercising the cap masking of the HDRF argmax."""
        graph = rmat_graph(8, edge_factor=8, seed=7)
        ref = TwoPhasePartitioner(backend="python", mode="hdrf").partition(
            graph, 5, alpha=1.0, chunk_size=37
        )
        out = TwoPhasePartitioner(backend=backend, mode="hdrf").partition(
            graph, 5, alpha=1.0, chunk_size=37
        )
        assert_results_identical(ref, out)

    @SLOW
    @given(
        graph=graphs(),
        chunk_size=CHUNK_SIZES,
        use_true=st.booleans(),
        passes=st.integers(min_value=1, max_value=3),
    )
    def test_clustering_bit_exact(
        self, backend, graph, chunk_size, use_true, passes
    ):
        results = {}
        for name in ("python", backend):
            stream = InMemoryEdgeStream(graph)
            stream.default_chunk_size = chunk_size
            degrees = (
                compute_degrees_from_stream(stream, backend=name)
                if use_true
                else None
            )
            results[name] = StreamingClustering(
                n_passes=passes,
                volume_cap=graph.n_edges / 2 + 1,
                use_true_degrees=use_true,
                backend=name,
            ).run(stream, degrees=degrees, n_vertices=graph.n_vertices)
        ref, out = results["python"], results[backend]
        np.testing.assert_array_equal(ref.v2c, out.v2c)
        np.testing.assert_array_equal(ref.volumes, out.volumes)
        np.testing.assert_array_equal(ref.degrees, out.degrees)

    @SLOW
    @given(graph=graphs(), chunk_size=CHUNK_SIZES)
    def test_degree_pass_bit_exact(self, backend, graph, chunk_size):
        stream = InMemoryEdgeStream(graph)
        stream.default_chunk_size = chunk_size
        ref = compute_degrees_from_stream(stream, backend="python")
        out = compute_degrees_from_stream(stream, backend=backend)
        np.testing.assert_array_equal(ref, out)

    @SLOW
    @given(
        graph=graphs(),
        k=st.integers(min_value=2, max_value=12),
        chunk_size=CHUNK_SIZES,
        algo=st.sampled_from([DBH, Grid, RandomHash]),
    )
    def test_stateless_bit_exact(self, backend, graph, k, chunk_size, algo):
        ref = algo(backend="python").partition(
            graph, k, chunk_size=chunk_size
        )
        out = algo(backend=backend).partition(graph, k, chunk_size=chunk_size)
        assert_results_identical(ref, out)


def _phase2_context(graph, k, packed):
    """A Phase-2 kernel context over a deliberately lopsided mapping:
    half the clusters land on partition 0, so at ``alpha=1.0`` the
    pre-partition pass overflows the hard cap and both passes take the
    hash/least-loaded fallback (the rest spread over all partitions, so
    the scored choice decides too)."""
    rng = np.random.default_rng(11)
    n = graph.n_vertices
    degrees = np.bincount(graph.edges.ravel(), minlength=n).astype(np.int64)
    n_clusters = n // 4
    v2c = rng.integers(0, n_clusters, size=n).astype(np.int64)
    c2p = np.where(
        rng.random(n_clusters) < 0.5, 0, rng.integers(0, k, size=n_clusters)
    ).astype(np.int64)
    volumes = np.bincount(v2c, weights=degrees, minlength=n_clusters)
    v2c[degrees == 0] = -1  # as Phase 1 leaves vertices no edge touches
    part, weights = phase2_inputs(v2c, c2p, volumes, degrees, k)
    return TwoPhaseContext(
        k=k,
        part=part,
        weights=weights,
        state=PartitionState(n, k, graph.n_edges, alpha=1.0, packed=packed),
        assignments=np.full(graph.n_edges, -1, dtype=np.int32),
        hash_seed=0,
        cost=CostCounter(),
    )


#: The graph of the pass-by-pass Phase-2 tests.
PHASE2_GRAPH = rmat_graph(9, edge_factor=8, seed=3)


def _run_phase2_passes(kernels, k, mode, packed):
    """The pre-partition pass, then the ``mode`` remaining pass, of
    ``kernels`` over :func:`_phase2_context`; returns the context and an
    ``(assignments, sizes, replicas, cost)`` snapshot after each pass."""
    ctx = _phase2_context(PHASE2_GRAPH, k, packed)
    stream = InMemoryEdgeStream(PHASE2_GRAPH)
    stream.default_chunk_size = 1000
    remaining = (
        kernels.remaining_pass_linear
        if mode == "linear"
        else kernels.remaining_pass_hdrf
    )
    snapshots = []
    for run_pass in (kernels.prepartition_pass, remaining):
        ctx.cost = CostCounter()
        run_pass(stream, ctx)
        snapshots.append(_snapshot(ctx))
    return ctx, snapshots


def _snapshot(ctx):
    """``(assignments, sizes, replicas, cost)`` of ``ctx``, copied."""
    return (
        ctx.assignments.copy(),
        ctx.state.sizes.copy(),
        np.array(ctx.state.replicas, copy=True),
        ctx.cost,
    )


def _assert_snapshots_identical(reference, other):
    for ref_part, other_part in zip(reference[:3], other[:3]):
        np.testing.assert_array_equal(ref_part, other_part)
    assert reference[3] == other[3]


@pytest.mark.parametrize(
    "backend",
    [b for b in BACKEND_IMPLS if b.name != "python"],
    ids=lambda b: b.name,
)
@pytest.mark.parametrize("k", [13, 32, 70])
@pytest.mark.parametrize("mode", ["linear", "hdrf"])
class TestPackedStateKernels:
    """The Phase-2 passes on bit-packed state, pass by pass: packed ==
    dense == the python reference, with the cap fallback taken.  k=13
    leaves three tail bits per packed row, k=32 fills whole bytes, k=70
    leaves six tail bits and a packed row past 8 bytes."""

    def test_packed_equals_dense_and_reference(self, backend, k, mode):
        python = get_backend("python")
        _, reference = _run_phase2_passes(python, k, mode, packed=False)
        _, dense = _run_phase2_passes(backend, k, mode, packed=False)
        ctx, packed = _run_phase2_passes(backend, k, mode, packed=True)
        for ref, dns, pkd in zip(reference, dense, packed):
            for other in (dns, pkd):
                _assert_snapshots_identical(ref, other)
        # Both passes overflowed the cap into the fallback chain.
        prepartition_cost, remaining_cost = packed[0][3], packed[1][3]
        assert prepartition_cost.hash_evaluations > 0
        if mode == "linear":
            assert remaining_cost.hash_evaluations > 0
        assert (ctx.assignments >= 0).all()
        bits = np.unpackbits(ctx.state.replicas.packed, axis=1, bitorder="little")
        assert not bits[:, k:].any()  # tail bits past column k stay zero


def _refuse_packed_indexing(monkeypatch):
    """Make every ``PackedReplicaMatrix`` index call raise."""

    def refuse(self, *args):
        raise AssertionError("a kernel pass indexed the PackedReplicaMatrix")

    monkeypatch.setattr(PackedReplicaMatrix, "__getitem__", refuse)
    monkeypatch.setattr(PackedReplicaMatrix, "__setitem__", refuse)


@pytest.mark.parametrize("k", [13, 32, 70])
def test_reference_2psl_passes_address_the_packed_plane(monkeypatch, k):
    """The reference's pre-partition and 2PS-L remaining passes test and
    set packed replica bits on the raw plane: not one
    ``PackedReplicaMatrix`` index call, and the same results, cap
    fallbacks included, as on dense state."""
    python = get_backend("python")
    _, dense = _run_phase2_passes(python, k, "linear", packed=False)
    _refuse_packed_indexing(monkeypatch)
    _, packed = _run_phase2_passes(python, k, "linear", packed=True)
    for dns, pkd in zip(dense, packed):
        _assert_snapshots_identical(dns, pkd)
    assert all(snapshot[3].hash_evaluations > 0 for snapshot in packed)


def _hdrf_baseline_snapshot(kernels, k, packed):
    """The HDRF baseline pass of ``kernels`` on the state of
    :func:`_phase2_context` (it reads no Phase-1 input); returns an
    ``(assignments, sizes, replicas, cost)`` snapshot after the pass."""
    ctx = _phase2_context(PHASE2_GRAPH, k, packed)
    stream = InMemoryEdgeStream(PHASE2_GRAPH)
    stream.default_chunk_size = 1000
    kernels.hdrf_baseline_pass(stream, ctx)
    return _snapshot(ctx)


@pytest.mark.parametrize("k", [13, 32, 70])
def test_reference_hdrf_passes_address_the_packed_plane(monkeypatch, k):
    """The reference's 2PS-HDRF remaining pass and HDRF baseline read
    each endpoint's row from the raw plane and set its bits there: not
    one ``PackedReplicaMatrix`` index call, and the same results as on
    dense state."""
    python = get_backend("python")
    _, dense = _run_phase2_passes(python, k, "hdrf", packed=False)
    dense.append(_hdrf_baseline_snapshot(python, k, packed=False))
    _refuse_packed_indexing(monkeypatch)
    _, packed = _run_phase2_passes(python, k, "hdrf", packed=True)
    packed.append(_hdrf_baseline_snapshot(python, k, packed=True))
    for dns, pkd in zip(dense, packed):
        _assert_snapshots_identical(dns, pkd)


def _preset_context(edges, n, k, v2c, c2p, bits, sizes, n_edges, alpha, packed):
    """A remaining-pass context whose replica ``bits`` (dense bool,
    ``n x k``) and partition ``sizes`` are set before the pass starts."""
    degrees = np.bincount(edges.ravel(), minlength=n).astype(np.int64)
    state = PartitionState(n, k, n_edges, alpha, packed=packed)
    state.replicas[np.arange(n)] = bits
    state.sizes[:] = sizes
    volumes = np.bincount(v2c, weights=degrees, minlength=c2p.shape[0])
    # Phase 1 leaves vertices no edge touches unclustered.
    v2c = np.where(degrees > 0, v2c, -1)
    part, weights = phase2_inputs(v2c, c2p, volumes, degrees, k)
    return TwoPhaseContext(
        k=k,
        part=part,
        weights=weights,
        state=state,
        assignments=np.full(edges.shape[0], -1, dtype=np.int32),
        hash_seed=0,
        cost=CostCounter(),
    )


def _remaining_from(name, edges, n, chunk_size, *preset, packed=False):
    """Run ``name``'s linear remaining pass from a preset context."""
    ctx = _preset_context(edges, n, *preset, packed)
    stream = InMemoryEdgeStream(edges, n_vertices=n)
    stream.default_chunk_size = chunk_size
    get_backend(name).remaining_pass_linear(stream, ctx)
    return ctx


def _assert_contexts_identical(reference, other):
    np.testing.assert_array_equal(reference.assignments, other.assignments)
    np.testing.assert_array_equal(reference.state.sizes, other.state.sizes)
    np.testing.assert_array_equal(
        np.asarray(reference.state.replicas), np.asarray(other.state.replicas)
    )
    assert reference.cost == other.cost


class TestRemainingFromPresetState:
    """Every backend's remaining pass stays bit-exact with the reference
    from any start state: replica bits and partition sizes already set
    before the pass."""

    @pytest.mark.parametrize("k, packed", [(8, False), (70, True)])
    def test_saturated_hub_bit_exact(self, k, packed):
        """64 edges (0, i) around a hub whose k replica bits are all set
        before the pass: every edge reads the hub's set bits and sets
        its leaf's own."""
        n = 65
        leaves = np.arange(1, n, dtype=np.int64)
        edges = np.stack([np.zeros_like(leaves), leaves], axis=1)
        v2c = np.arange(n, dtype=np.int64)
        c2p = np.concatenate([[0], 1 + (leaves - 1) % (k - 1)])
        bits = np.zeros((n, k), dtype=bool)
        bits[0] = True
        preset = (k, v2c, c2p, bits, np.zeros(k, dtype=np.int64), 100_000, 1.5)
        ref = _remaining_from("python", edges, n, 64, *preset)
        for name in available_backends():
            out = _remaining_from(name, edges, n, 64, *preset, packed=packed)
            _assert_contexts_identical(ref, out)

    @SLOW
    @given(
        graph=graphs(),
        k=st.integers(min_value=2, max_value=12),
        density=st.floats(min_value=0.0, max_value=1.0),
        near_cap=st.booleans(),
        alpha=st.sampled_from([1.0, 1.05, 1.5]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        chunk_size=CHUNK_SIZES,
    )
    def test_bit_exact_from_preset_state(
        self, graph, k, density, near_cap, alpha, seed, chunk_size
    ):
        """Random replica bits already set before the pass (density 0 to
        1), random clusters and mapping, and sizes that either start at
        most a few edges below the cap or far from it."""
        rng = np.random.default_rng(seed)
        n = graph.n_vertices
        n_clusters = int(rng.integers(1, n + 1))
        v2c = rng.integers(0, n_clusters, size=n)
        c2p = rng.integers(0, k, size=n_clusters)
        bits = rng.random((n, k)) < density
        if near_cap:
            n_edges = graph.n_edges
            capacity = PartitionState(n, k, n_edges, alpha).capacity
            sizes = np.maximum(capacity - rng.integers(0, 4, size=k), 0)
        else:
            n_edges = 100 * graph.n_edges
            sizes = rng.integers(0, graph.n_edges + 1, size=k)
        preset = (k, v2c, c2p, bits, sizes, n_edges, alpha)
        ref = _remaining_from("python", graph.edges, n, chunk_size, *preset)
        for name in OTHER_BACKENDS:
            for packed in (False, True):
                out = _remaining_from(
                    name, graph.edges, n, chunk_size, *preset, packed=packed
                )
                _assert_contexts_identical(ref, out)


@pytest.mark.parametrize("backend", [*BACKEND_IMPLS, ORACLE], ids=lambda b: b.name)
class TestDegreePass:
    """Every backend, and the per-edge oracle, counts the same degrees at
    any chunk size, and grows its array for ids beyond ``n_hint``."""

    EDGES = rmat_graph(10, edge_factor=8, seed=4).edges

    def _degrees(self, backend, edges, chunk_size, n_hint):
        stream = InMemoryEdgeStream(edges)
        stream.default_chunk_size = chunk_size
        out = backend.degree_pass(stream, n_hint)
        assert out.dtype == np.int64
        return out

    @pytest.mark.parametrize("chunk_size", [1, 7, 65_536])
    def test_equal_across_chunk_sizes_and_hints(self, backend, chunk_size):
        ids = self.EDGES.ravel()
        n = int(ids.max()) + 1
        for n_hint in (n + 5, n, n // 2, None):
            expected = np.bincount(ids, minlength=n_hint or 0)
            np.testing.assert_array_equal(
                self._degrees(backend, self.EDGES, chunk_size, n_hint),
                expected,
            )

    def test_grows_chunk_after_chunk(self, backend):
        """Ids sorted ascending: most chunks hold an id beyond every
        earlier one."""
        edges = self.EDGES[np.argsort(self.EDGES.max(axis=1), kind="stable")]
        np.testing.assert_array_equal(
            self._degrees(backend, edges, 7, 3), np.bincount(edges.ravel())
        )


class _EmptyChunksStream(InMemoryEdgeStream):
    """An in-memory stream with an empty chunk before every chunk and
    after the last."""

    def chunks(self, chunk_size=None):
        empty = np.empty((0, 2), dtype=np.int64)
        for chunk in super().chunks(chunk_size):
            yield empty
            yield chunk
        yield empty


@pytest.mark.usefixtures("per_edge_backend")
class TestVectorizedOpsMatchOracles:
    """The degree pass and the stateless pass of every backend against
    their per-edge oracles, on random graphs and on the degenerate
    streams random graphs never draw (the two Phase-1 merges are pinned
    in :class:`TestPhase1MergeOps`)."""

    @SLOW
    @given(graph=graphs(), chunk_size=CHUNK_SIZES)
    def test_degree_pass(self, graph, chunk_size):
        """``n_hint`` below, at and above the largest id, and none."""
        stream = InMemoryEdgeStream(graph.edges)
        stream.default_chunk_size = chunk_size
        top = int(graph.edges.max())
        for n_hint in (None, top // 2, top, top + 1, top + 9):
            expected = ORACLE.degree_pass(stream, n_hint)
            for backend in BACKEND_IMPLS:
                out = backend.degree_pass(stream, n_hint)
                assert out.dtype == np.int64
                np.testing.assert_array_equal(out, expected, err_msg=backend.name)

    #: ``(edges, n_hint, chunk_size, empty_chunks)``: no edges, a zero
    #: or far hint, self-loops only, growth in every chunk, a top id
    #: that only the last chunk holds, and empty chunks in between.
    DEGREE_CASES = {
        "no-edges": ([], 5, 4, False),
        "no-edges-no-hint": ([], None, 4, False),
        "hint-zero": ([(0, 4), (2, 1)], 0, 1, False),
        "hint-far-above": ([(0, 1), (1, 1)], 1000, 1, False),
        "self-loops-only": ([(3, 3), (3, 3), (0, 0)], None, 2, False),
        "growth-every-chunk": ([(0, 1), (3, 2), (4, 5), (7, 6)], 1, 1, False),
        "top-id-in-last-chunk": ([(0, 1)] * 6 + [(1, 40)], 3, 3, False),
        "empty-chunks": ([(0, 1), (2, 5), (5, 5), (1, 3)], 2, 2, True),
    }

    @pytest.mark.parametrize("backend", BACKEND_IMPLS, ids=lambda b: b.name)
    @pytest.mark.parametrize("case", sorted(DEGREE_CASES))
    def test_degree_pass_degenerate_streams(self, backend, case):
        edges, n_hint, chunk_size, empty_chunks = self.DEGREE_CASES[case]
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
        make = _EmptyChunksStream if empty_chunks else InMemoryEdgeStream
        stream = make(edges, n_vertices=int(edges.max(initial=0)) + 1)
        stream.default_chunk_size = chunk_size
        expected = ORACLE.degree_pass(stream, n_hint)
        assert expected.shape[0] == max(n_hint or 0, int(edges.max(initial=-1)) + 1)
        out = backend.degree_pass(stream, n_hint)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, expected)

    @SLOW
    @given(
        graph=graphs(),
        k=st.integers(min_value=2, max_value=12),
        chunk_size=CHUNK_SIZES,
    )
    @pytest.mark.parametrize("algo", [DBH, Grid, RandomHash], ids=lambda a: a.__name__)
    def test_stateless_pass(self, algo, graph, k, chunk_size):
        expected = algo(backend=PER_EDGE).partition(graph, k, chunk_size=chunk_size)
        for backend in BACKEND_IMPLS:
            out = algo(backend=backend.name).partition(graph, k, chunk_size=chunk_size)
            assert_results_identical(expected, out)


class TestClusteringMoveBoundaries:
    """The clustering move at its comparisons' boundaries, every backend
    against the reference.  On graphs of at most 8 vertices, volumes and
    degrees are small integers, so a ``cap`` drawn from the integers and
    half-integers up to 20 lands on ``vol == cap`` and on
    ``vol[c_l] + d_s == cap``, and the tie ``vol_u - d_u == vol_v - d_v``
    is common.  The ``c`` loop computes the move without a branch, so
    each of its four ``<=`` is checked here at equality.

    With ``vol_u == cap`` the third comparison and the tie rule leave no
    move unless the other endpoint's degree is 0, so the first two
    comparisons decide only there.  The true-degree pass therefore also
    runs on stale degrees drawn from 0-3, as when a degree pass did not
    count every edge the clustering sees.  The two examples pin every
    comparison at equality: edge (0, 1) ties, and its move fills cluster
    1 to exactly ``cap``; then vertex 2, of degree 0, joins that full
    cluster as the first and as the second endpoint."""

    STALE = [1, 1, 0, 0, 0, 0, 0, 0]

    @settings(max_examples=150, deadline=None)
    @example(edges=[(0, 1), (1, 2)], stale=STALE, cap=2.0, partial=False, passes=1)
    @example(edges=[(0, 1), (2, 1)], stale=STALE, cap=2.0, partial=False, passes=1)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=1,
            max_size=30,
        ),
        stale=st.one_of(
            st.none(), st.lists(st.integers(0, 3), min_size=8, max_size=8)
        ),
        cap=st.integers(min_value=0, max_value=40).map(lambda c: c / 2),
        partial=st.booleans(),
        passes=st.integers(min_value=1, max_value=2),
    )
    def test_backends_match_reference(self, edges, stale, cap, partial, passes):
        edges = np.array(edges, dtype=np.int64)
        if partial:
            degrees = np.zeros(8, dtype=np.int64)
        elif stale is None:
            degrees = np.bincount(edges.ravel(), minlength=8)
        else:
            degrees = np.array(stale, dtype=np.int64)
        for chunk_size in (1, 3, 10**6):
            runs = {}
            for impl in BACKEND_IMPLS:
                stream = InMemoryEdgeStream(edges, n_vertices=8)
                stream.default_chunk_size = chunk_size
                st_ = impl.clustering_init(degrees)
                run = (
                    impl.clustering_partial_pass
                    if partial
                    else impl.clustering_true_pass
                )
                cost = CostCounter()
                for _ in range(passes):
                    run(stream, st_, cap, cost)
                runs[impl.name] = (*impl.clustering_export(st_), cost)
            v2c, vol, deg, cost = runs["python"]
            for name, (v2c_b, vol_b, deg_b, cost_b) in runs.items():
                np.testing.assert_array_equal(v2c_b, v2c, err_msg=name)
                np.testing.assert_array_equal(vol_b, vol, err_msg=name)
                np.testing.assert_array_equal(deg_b, deg, err_msg=name)
                assert cost_b.cluster_updates == cost.cluster_updates, name


class TestPhase2Inputs:
    """:func:`~repro.kernels.base.phase2_inputs` against the naive
    ``c2p[v2c]`` and ``volumes[v2c]`` gathers it replaces, and its typed
    rejections."""

    @SLOW
    @given(
        n=st.integers(min_value=0, max_value=300),
        k=st.sampled_from([2, 7, 32, 300]),
        unclustered=st.floats(min_value=0.0, max_value=1.0),
        compacted=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_naive_gathers(self, n, k, unclustered, compacted, seed):
        from repro.core.runners import compact_clustering

        rng = np.random.default_rng(seed)
        n_ids = int(rng.integers(1, n + 2))
        v2c = rng.integers(0, n_ids, size=n)
        v2c[rng.random(n) < unclustered] = -1
        clustered = v2c >= 0
        # Unclustered vertices may have any degree; clustered ones >= 1.
        degrees = rng.integers(0, 50, size=n) + clustered
        volumes = np.zeros(n_ids, dtype=np.int64)
        np.add.at(volumes, v2c[clustered], degrees[clustered])
        if compacted:
            v2c, volumes = compact_clustering(v2c, volumes)
        c2p = rng.integers(0, k, size=volumes.shape[0])
        part, weights = phase2_inputs(v2c, c2p, volumes, degrees, k)
        assert part.dtype == np.int32 and part.shape == (n,)
        assert weights.dtype == np.int64 and weights.shape == (n, 2)
        assert part.flags.c_contiguous and weights.flags.c_contiguous
        np.testing.assert_array_equal(part[clustered], c2p[v2c[clustered]])
        np.testing.assert_array_equal(part[~clustered], -1)
        np.testing.assert_array_equal(weights[:, 0], degrees)
        np.testing.assert_array_equal(
            weights[clustered, 1], volumes[v2c[clustered]]
        )
        np.testing.assert_array_equal(weights[~clustered, 1], 0)

    #: Inconsistent ``(v2c, c2p, volumes, degrees)`` at k=2, and the
    #: error each raises.
    INCONSISTENT = {
        "cluster-beyond-c2p": ([0, 2], [0, 1], [1, 1], [1, 1], "cluster 2, out"),
        "cluster-below-minus-1": ([0, -2], [0, 1], [1, 1], [1, 1], "cluster -2"),
        "partition-at-k": ([0, 1], [0, 2], [1, 1], [1, 1], "to partition 2,"),
        "negative-partition": ([0, 1], [-1, 0], [1, 1], [1, 1], "partition -1"),
        "degrees-length": ([0, 1], [0, 1], [1, 1], [1, 1, 1], "3 degrees"),
        "volumes-length": ([0, 1], [0, 1], [1, 1, 0], [1, 1], "3 volumes"),
        "clustered-degree-zero": ([0, 1], [0, 1], [1, 0], [1, 0], "degree 0"),
    }

    @pytest.mark.parametrize("case", sorted(INCONSISTENT))
    def test_rejects_inconsistent_phase1_arrays(self, case):
        *arrays, match = self.INCONSISTENT[case]
        with pytest.raises(PartitioningError, match=match):
            phase2_inputs(*(np.asarray(a) for a in arrays), k=2)


class TestChunkSizeIsPerfKnobOnly:
    @SLOW
    @given(
        graph=graphs(max_edges=150),
        k=st.integers(min_value=2, max_value=8),
        chunk_size=CHUNK_SIZES,
    )
    def test_chunk_size_never_changes_output(self, graph, k, chunk_size):
        base = TwoPhasePartitioner().partition(graph, k)
        out = TwoPhasePartitioner(chunk_size=chunk_size).partition(graph, k)
        assert_results_identical(base, out)

    @staticmethod
    def _spy_on_chunks(stream, observed):
        original = stream.chunks

        def spy(chunk_size=None):
            for chunk in original(chunk_size):
                observed.append(chunk.shape[0])
                yield chunk

        stream.chunks = spy

    def test_chunk_size_plumbs_to_every_pass(self, community_graph):
        stream = InMemoryEdgeStream(community_graph)
        observed = []
        self._spy_on_chunks(stream, observed)
        TwoPhasePartitioner().partition(stream, 4, chunk_size=123)
        assert observed and max(observed) <= 123
        # Scoped to the run: the caller's stream default is restored.
        assert stream.default_chunk_size == DEFAULT_CHUNK_SIZE

    def test_constructor_chunk_size_used(self, community_graph):
        stream = InMemoryEdgeStream(community_graph)
        observed = []
        self._spy_on_chunks(stream, observed)
        TwoPhasePartitioner(chunk_size=77).partition(stream, 4)
        assert observed and max(observed) <= 77
        assert stream.default_chunk_size == DEFAULT_CHUNK_SIZE

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            TwoPhasePartitioner(chunk_size=0)


class TestRegistry:
    def test_default_backend_is_c_when_registered(self):
        expected = "c" if "c" in available_backends() else "python"
        assert DEFAULT_BACKEND == expected
        assert get_backend().name == expected

    def test_default_backend_is_python(self, monkeypatch, tmp_path):
        """Where the ``c`` library cannot be built, ``python`` is the
        default."""
        import repro.kernels as kernels
        from repro.kernels import c_backend

        for attr in ("_REGISTRY", "_INSTANCES", "_MISSING", "_FALLBACK_WARNED"):
            monkeypatch.setattr(kernels, attr, type(getattr(kernels, attr))(
                getattr(kernels, attr)
            ))
        monkeypatch.setattr(kernels, "DEFAULT_BACKEND", kernels.DEFAULT_BACKEND)
        monkeypatch.setattr(c_backend, "_LIB", c_backend._LIB)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("CC", "false")
        kernels._register_optional_backends()
        assert "c" in kernels.missing_backends()
        assert kernels.available_backends() == ("python",)
        assert kernels.DEFAULT_BACKEND == "python"
        assert kernels.get_backend().name == "python"

    def test_reference_backend_listed_first(self):
        assert available_backends()[0] == "python"

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            get_backend("cuda")
        with pytest.raises(ConfigurationError):
            TwoPhasePartitioner(backend="cuda")

    def test_register_requires_kernel_backend(self):
        with pytest.raises(ConfigurationError):
            register_backend("bogus", dict)

    def test_register_requires_matching_name(self):
        """Alias registrations are rejected: the parallel path ships the
        resolved instance name to workers, so key != cls.name would make
        worker-side lookups fail."""

        class Misnamed(PythonBackend):
            name = "other"

        with pytest.raises(ConfigurationError):
            register_backend("fast", Misnamed)
        assert "fast" not in available_backends()

    def test_backend_recorded_in_extras(self, community_graph):
        result = TwoPhasePartitioner().partition(community_graph, 4)
        assert result.extras["backend"] == DEFAULT_BACKEND

    def test_backends_are_kernel_instances(self):
        for name in available_backends():
            assert isinstance(get_backend(name), KernelBackend)

    def test_two_backends(self):
        """The reference, and ``c`` wherever it builds."""
        expected = ("python",) if "c" in missing_backends() else ("python", "c")
        assert available_backends() == expected


class TestArtifacts:
    def test_keep_state_exposes_typed_artifacts(self, community_graph):
        result = TwoPhasePartitioner(keep_state=True).partition(
            community_graph, 4
        )
        assert isinstance(result.artifacts, PartitionArtifacts)
        assert result.artifacts.clustering is not None
        assert result.artifacts.c2p is not None
        assert "_clustering" not in result.extras
        assert "_c2p" not in result.extras

    def test_no_artifacts_by_default(self, community_graph):
        result = TwoPhasePartitioner().partition(community_graph, 4)
        assert result.artifacts is None
        with pytest.raises(PartitioningError):
            IncrementalPartitioner.from_result(result)

    def test_incremental_builds_from_artifacts(self, community_graph):
        result = TwoPhasePartitioner(keep_state=True).partition(
            community_graph, 4
        )
        inc = IncrementalPartitioner.from_result(result)
        assert inc.replication_factor() == pytest.approx(
            result.replication_factor
        )


class TestLeastLoadedTracker:
    @SLOW
    @given(
        k=st.integers(min_value=1, max_value=24),
        increments=st.lists(
            st.integers(min_value=0, max_value=23), max_size=200
        ),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_matches_linear_scan_under_growth(self, k, increments, seed):
        rng = np.random.default_rng(seed)
        sizes = [0] * k
        tracker = LeastLoadedTracker(sizes)
        for p in increments:
            sizes[p % k] += int(rng.integers(1, 4))
            expected = min(range(k), key=sizes.__getitem__)
            assert tracker.argmin() == expected

    def test_works_on_numpy_sizes(self):
        sizes = np.array([5, 3, 3, 9], dtype=np.int64)
        tracker = LeastLoadedTracker(sizes)
        assert tracker.argmin() == 1
        sizes[1] += 10
        assert tracker.argmin() == 2


class TestStateBatchApis:
    def test_scatter_edges_matches_serial_assign(self):
        rng = np.random.default_rng(3)
        n, k, m = 40, 5, 200
        us = rng.integers(0, n, m)
        vs = rng.integers(0, n, m)
        ps = rng.integers(0, k, m).astype(np.int32)
        batch = PartitionState(n, k, m, alpha=64.0)
        batch.scatter_edges(us, vs, ps)
        serial = PartitionState(n, k, m, alpha=64.0)
        for u, v, p in zip(us.tolist(), vs.tolist(), ps.tolist()):
            serial.replicas[u, p] = True
            serial.replicas[v, p] = True
            serial.sizes[p] += 1
        np.testing.assert_array_equal(batch.sizes, serial.sizes)
        np.testing.assert_array_equal(batch.replicas, serial.replicas)

    def test_int64_buffer_grows(self):
        buf = Int64Buffer.from_array(np.array([5, 6], dtype=np.int64))
        for n in range(2, 100):
            # The c clustering loop's append: write past the filled
            # prefix of the reserved array, then publish the length.
            arr = buf.reserve(n + 1)
            arr[n] = n * 3
            buf.set_length(n + 1)
        assert len(buf) == 100
        np.testing.assert_array_equal(buf.view()[:2], [5, 6])
        np.testing.assert_array_equal(
            buf.view()[2:], np.arange(2, 100, dtype=np.int64) * 3
        )
        with pytest.raises(ValueError, match="capacity"):
            buf.set_length(buf.reserve(0).shape[0] + 1)


class TestPhase1MergeOps:
    """The Phase-1 barrier merge twins (ISSUE 4): bit-exact across
    backends, and the merged clustering keeps the Algorithm-1 volume
    invariant by construction."""

    @staticmethod
    def _barrier_scenario(graph, k, n_workers):
        """A realistic barrier: snapshot = clustering of the stream's
        first half (reference backend), worker exports = one disjoint
        window each over the second half, clustered from the snapshot."""
        from repro.core.clustering import default_volume_cap

        py = get_backend("python")
        m = graph.n_edges
        degrees = py.degree_pass(InMemoryEdgeStream(graph), graph.n_vertices)
        cap = default_volume_cap(m, k, 0.5)
        st0 = py.clustering_init(degrees)
        half = m // 2
        py.clustering_true_pass(
            InMemoryEdgeStream(graph.edges[:half], graph.n_vertices),
            st0, cap, None,
        )
        v2c_g, vol_g, _ = py.clustering_export(st0)
        bounds = np.linspace(half, m, n_workers + 1).astype(int)
        exports = []
        for w in range(n_workers):
            window = graph.edges[bounds[w] : bounds[w + 1]]
            stw = py.clustering_load(v2c_g, vol_g, degrees)
            py.clustering_true_pass(
                InMemoryEdgeStream(window, graph.n_vertices), stw, cap, None
            )
            e_v2c, e_vol, _ = py.clustering_export(stw)
            exports.append((e_v2c, e_vol))
        return v2c_g, vol_g, exports, degrees

    @SLOW
    @given(
        graph=graphs(),
        k=st.integers(min_value=2, max_value=8),
        n_workers=st.integers(min_value=1, max_value=5),
    )
    def test_clustering_merge_twins_agree(self, graph, k, n_workers):
        v2c_g, vol_g, exports, degrees = self._barrier_scenario(
            graph, k, n_workers
        )
        ref_v2c, ref_vol = ORACLE.merge_phase1_clustering(
            v2c_g, vol_g, exports, degrees
        )
        for backend in BACKEND_IMPLS:
            v2c, vol = backend.merge_phase1_clustering(
                v2c_g, vol_g, exports, degrees
            )
            np.testing.assert_array_equal(ref_v2c, v2c, err_msg=backend.name)
            np.testing.assert_array_equal(ref_vol, vol, err_msg=backend.name)
        # Volume invariant: merged volumes == sum of member true degrees.
        recomputed = np.zeros_like(ref_vol)
        mask = ref_v2c >= 0
        np.add.at(recomputed, ref_v2c[mask], degrees[mask])
        np.testing.assert_array_equal(recomputed, ref_vol)
        # Fresh-id remap stays in range and unchanged vertices keep
        # their snapshot assignment unless some worker moved them.
        assert ref_v2c.max(initial=-1) < ref_vol.shape[0]
        unchanged = np.ones(len(ref_v2c), dtype=bool)
        for e_v2c, _ in exports:
            unchanged &= e_v2c == v2c_g
        np.testing.assert_array_equal(ref_v2c[unchanged], v2c_g[unchanged])

    def test_clustering_merge_first_worker_wins(self):
        v2c_g = np.array([0, 1, -1], dtype=np.int64)
        vol_g = np.array([4, 2], dtype=np.int64)
        degrees = np.array([4, 2, 3], dtype=np.int64)
        # Worker 0 moves vertex 0 to cluster 1 and claims vertex 2 into a
        # fresh cluster 2; worker 1 disagrees on both (vertex 0 -> its own
        # fresh cluster, vertex 2 -> cluster 0): worker 0 must win both.
        exports = [
            (np.array([1, 1, 2], dtype=np.int64),
             np.array([0, 6, 3], dtype=np.int64)),
            (np.array([2, 1, 0], dtype=np.int64),
             np.array([7, 2, 4], dtype=np.int64)),
        ]
        for backend in BACKEND_IMPLS:
            v2c, vol = backend.merge_phase1_clustering(
                v2c_g, vol_g, exports, degrees
            )
            # worker 1's fresh id (2) remaps past worker 0's fresh count
            # to 3; nobody kept a vertex there, so its volume is 0.
            assert v2c.tolist() == [1, 1, 2]
            assert vol.tolist() == [0, 6, 3, 0]

    @staticmethod
    def _clustering_barrier():
        """A 4-vertex snapshot with 2 clusters and two workers' exports
        with one fresh cluster each: each worker owns ids [-1, 3), and
        the merged range is [0, 4)."""
        v2c = np.array([0, 1, -1, -1], dtype=np.int64)
        volumes = np.array([4, 2], dtype=np.int64)
        degrees = np.array([4, 2, 3, 1], dtype=np.int64)
        exports = [
            (np.array([1, 1, 2, -1]), np.array([0, 6, 3])),
            (np.array([0, 1, 0, 2]), np.array([7, 2, 1])),
        ]
        return v2c, volumes, exports, degrees

    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_clustering_merge_rejects_short_worker_v2c(self, kernels):
        v2c, volumes, exports, degrees = self._clustering_barrier()
        exports[1] = (exports[1][0][:3], exports[1][1])
        with pytest.raises(PartitioningError, match="worker 1's clustering"):
            kernels.merge_phase1_clustering(v2c, volumes, exports, degrees)

    @pytest.mark.parametrize("bad_id", [3, 10**12, -2])
    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_clustering_merge_rejects_id_beyond_range(self, kernels, bad_id):
        """An id outside worker 1's range [-1, 3) is the same typed error
        on every backend (the distributed coordinator folds exports that
        arrived over sockets): 3 would remap to 4, past the merged
        volumes, and -2 would pass for neither a cluster nor unassigned.
        The inputs stay as they were."""
        v2c, volumes, exports, degrees = self._clustering_barrier()
        exports[1][0][3] = bad_id
        before = [a.copy() for a in (v2c, volumes, degrees, exports[0][0])]
        with pytest.raises(PartitioningError, match=f"vertex 3 in cluster {bad_id}"):
            kernels.merge_phase1_clustering(v2c, volumes, exports, degrees)
        after = (v2c, volumes, degrees, exports[0][0])
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    @SLOW
    @given(
        n_hint=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_partials=st.integers(min_value=0, max_value=5),
    )
    def test_degree_merge_twins_agree(self, n_hint, seed, n_partials):
        rng = np.random.default_rng(seed)
        partials = [
            rng.integers(0, 50, size=rng.integers(0, 30)).astype(np.int64)
            for _ in range(n_partials)
        ]
        expected = ORACLE.merge_phase1_degrees(partials, n_hint)
        for backend in BACKEND_IMPLS:
            out = backend.merge_phase1_degrees(partials, n_hint)
            assert out.dtype == np.int64
            np.testing.assert_array_equal(expected, out, err_msg=backend.name)
        assert expected.shape[0] >= n_hint

    #: Barriers the random scenario never builds: ``(v2c, volumes,
    #: exports, degrees)`` with each export a ``(v2c_w, volumes_w)`` pair.
    CLUSTERING_BARRIERS = {
        "no-workers": ([0, 1, -1], [2, 1], [], [2, 1, 0]),
        "no-changes": ([0, 1, 0], [3, 1], [([0, 1, 0], [3, 1])] * 2, [2, 1, 1]),
        "empty-graph": ([], [], [([], [])], []),
        "all-unclustered": (
            [-1, -1, -1, -1],
            [],
            [([0, 0, -1, -1], [2]), ([-1, 0, 1, 1], [1, 4])],
            [1, 1, 2, 2],
        ),
        "fresh-ids-every-worker": (
            [0, -1, -1, -1, -1],
            [1],
            [
                ([0, 1, -1, -1, -1], [1, 1]),
                ([0, -1, 1, 2, -1], [1, 2, 3]),
                ([0, -1, -1, -1, 1], [1, 5]),
            ],
            [1, 1, 2, 3, 5],
        ),
        "contested-vertex": (
            [0, 1, -1],
            [2, 2],
            [([1, 1, 2], [0, 4, 3]), ([2, 0, 2], [2, 0, 5])],
            [2, 2, 3],
        ),
        "worker-empties-a-cluster": (
            [0, 1, 1],
            [4, 3],
            [([1, 1, 1], [0, 7])],
            [4, 1, 2],
        ),
        "worker-unclusters-a-vertex": (
            [0, 0, 1],
            [3, 2],
            [([0, -1, 1], [2, 2])],
            [2, 1, 2],
        ),
    }

    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    @pytest.mark.parametrize("case", sorted(CLUSTERING_BARRIERS))
    def test_clustering_merge_degenerate_barriers(self, kernels, case):
        def i64(a):
            return np.asarray(a, dtype=np.int64)

        v2c, volumes, exports, degrees = self.CLUSTERING_BARRIERS[case]
        barrier = (
            i64(v2c),
            i64(volumes),
            [(i64(e_v2c), i64(e_vol)) for e_v2c, e_vol in exports],
            i64(degrees),
        )
        ref_v2c, ref_vol = ORACLE.merge_phase1_clustering(*barrier)
        out_v2c, out_vol = kernels.merge_phase1_clustering(*barrier)
        np.testing.assert_array_equal(out_v2c, ref_v2c)
        np.testing.assert_array_equal(out_vol, ref_vol)
        assert out_v2c.dtype == out_vol.dtype == np.int64
        # One id per snapshot cluster plus every worker's fresh ones.
        fresh = sum(len(e_vol) - len(volumes) for _, e_vol in exports)
        assert out_vol.shape[0] == len(volumes) + fresh

    #: Partial-degree lists the random ones never draw: ``(partials,
    #: n_hint)``.  ``c`` inherits this merge, so it runs on the reference.
    DEGREE_PARTIALS = {
        "no-partials": ([], 4),
        "no-partials-no-hint": ([], None),
        "one-partial": ([[3, 0, 2]], None),
        "ragged": ([[1, 2, 3], [], [4, 5, 6, 7, 8], [9]], None),
        "hint-above": ([[1, 2], [3]], 6),
        "hint-below": ([[1, 2, 3, 4], [5]], 2),
        "hint-zero": ([[1]], 0),
        "counts-past-2**53": ([[2**53, 1], [1, 2**40]], None),
    }

    @pytest.mark.parametrize("case", sorted(DEGREE_PARTIALS))
    def test_degree_merge_degenerate_partials(self, case):
        partials, n_hint = self.DEGREE_PARTIALS[case]
        as_arrays = [np.asarray(p, dtype=np.int64) for p in partials]
        expected = ORACLE.merge_phase1_degrees(as_arrays, n_hint)
        for form in (partials, as_arrays):
            out = get_backend("python").merge_phase1_degrees(form, n_hint)
            assert out.dtype == np.int64
            np.testing.assert_array_equal(out, expected)
        longest = max((len(p) for p in partials), default=0)
        assert expected.shape[0] == max(longest, n_hint or 0)

    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_clustering_load_round_trips(self, kernels, community_graph):
        """load(export(state)) must reproduce export(state) exactly and
        must copy: mutating the loaded state leaves the source intact."""
        from repro.core.clustering import default_volume_cap
        stream = InMemoryEdgeStream(community_graph)
        degrees = kernels.degree_pass(stream, community_graph.n_vertices)
        cap = default_volume_cap(community_graph.n_edges, 4, 0.5)
        st = kernels.clustering_init(degrees)
        kernels.clustering_true_pass(stream, st, cap, None)
        v2c, vol, deg = kernels.clustering_export(st)
        loaded = kernels.clustering_load(v2c, vol, deg)
        v2c2, vol2, deg2 = kernels.clustering_export(loaded)
        np.testing.assert_array_equal(v2c, v2c2)
        np.testing.assert_array_equal(vol, vol2)
        np.testing.assert_array_equal(deg, deg2)
        loaded2 = kernels.clustering_load(v2c, vol, deg)
        loaded2.v2c[0] = 10**6
        assert v2c[0] != 10**6

    def test_c_cases_run_the_c_override(self):
        """The ``[c]`` cases above exercise the compiled merge, not the
        reference one ``CBackend`` would otherwise inherit."""
        if "c" not in available_backends():
            pytest.skip("c backend unavailable")
        from repro.kernels.c_backend import CBackend

        assert any(type(b) is CBackend for b in BACKEND_IMPLS)
        ops = ("merge_phase1_clustering", "merge_phase2_deltas", "list_schedule")
        for op in ops:
            assert op in vars(CBackend), op


def _copy_state(state):
    """An independent deep copy of a (possibly dirty-tracking) state."""
    from repro.partitioning.state import _replica_storage

    out = PartitionState(
        state.n_vertices,
        state.k,
        state.n_edges,
        state.alpha,
        track_dirty=state.dirty is not None,
        packed=state.packed,
    )
    _replica_storage(out.replicas)[:] = _replica_storage(state.replicas)
    out.sizes[:] = state.sizes
    if state.dirty is not None:
        out.dirty[:] = state.dirty
    return out


class TestPhase2MergeOp:
    """``merge_phase2_deltas`` on every backend against the reference
    :func:`~repro.partitioning.state.merge_replica_deltas`: global plane,
    every view, sizes, cleared bitmaps and the returned row count are
    byte-identical, dense and packed."""

    @staticmethod
    def _scenario(rng, k, packed, n_views):
        """Random global bits, views that start as its copies and then
        gain random bits in random rows; dirty marks cover part of the
        written rows (and some unwritten ones), so clean rows may differ
        from the global state, which the merge must leave alone.  View
        sizes run stale and past the cap."""
        n = int(rng.integers(1, 90))
        state = PartitionState(n, k, 4 * n, packed=packed)
        cells = rng.random((n, k)) < 0.2
        rows, cols = np.nonzero(cells)
        state.replicas[rows, cols] = True
        state.sizes[:] = rng.integers(0, 50, size=k)
        views = []
        for _ in range(n_views):
            view = _copy_state(state)
            view.dirty = np.zeros(n, dtype=bool)
            m = int(rng.integers(0, 3 * n))
            us = rng.integers(0, n, size=m)
            ps = rng.integers(0, k, size=m)
            view.replicas[us, ps] = True
            marked = us[rng.random(m) < 0.8]
            view.dirty[marked] = True
            view.dirty[rng.integers(0, n, size=2)] = True
            view.sizes[:] = state.sizes + rng.integers(0, 3 * n, size=k)
            views.append(view)
        return state, views

    @pytest.mark.parametrize("packed", [False, True], ids=["dense", "packed"])
    @pytest.mark.parametrize("k", [2, 7, 32, 70])
    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_matches_merge_replica_deltas(self, kernels, k, packed):
        from repro.partitioning.state import merge_replica_deltas

        rng = np.random.default_rng(1000 * k + packed)
        for n_views in (1, 2, 3, 4, 5):
            state, views = self._scenario(rng, k, packed, n_views)
            ref_state = _copy_state(state)
            ref_views = [_copy_state(v) for v in views]
            expect_rows = merge_replica_deltas(ref_state, ref_views)
            rows = kernels.merge_phase2_deltas(state, views)
            assert rows == expect_rows
            assert state_bytes(state) == state_bytes(ref_state)
            for view, ref in zip(views, ref_views):
                assert state_bytes(view) == state_bytes(ref)
                assert not view.dirty.any()


def _heapq_schedule(volumes, k):
    """Graham's sorted list scheduling as a plain pop/push ``heapq``
    loop: the form every backend's ``list_schedule`` must reproduce."""
    import heapq

    volumes = np.asarray(volumes, dtype=np.int64)
    c2p = np.zeros(volumes.shape[0], dtype=np.int64)
    loads = np.zeros(k, dtype=np.int64)
    nonzero = np.flatnonzero(volumes > 0)
    order = nonzero[np.argsort(-volumes[nonzero], kind="stable")]
    heap = [(0, p) for p in range(k)]
    for c in order.tolist():
        load, p = heapq.heappop(heap)
        c2p[c] = p
        loads[p] = load + int(volumes[c])
        heapq.heappush(heap, (int(loads[p]), p))
    return c2p, loads, 2 * len(order)


class TestListScheduleOp:
    """The mapping loop on every backend against a pop/push ``heapq``
    loop: ``c2p``, ``loads`` and ``heap_operations`` identical, with
    ties, zero volumes and ``k`` beyond the cluster count."""

    @SLOW
    @given(
        volumes=st.lists(
            st.one_of(st.integers(0, 4), st.integers(0, 10**6)),
            max_size=400,
        ),
        k=st.one_of(st.integers(1, 8), st.integers(1, 300)),
    )
    def test_backends_match_heapq(self, volumes, k):
        from repro.core.scheduling import graham_schedule

        c2p, loads, ops = _heapq_schedule(volumes, k)
        for kernels in BACKEND_IMPLS:
            cost = CostCounter()
            got_c2p, got_loads = graham_schedule(
                volumes, k, cost=cost, backend=kernels.name
            )
            np.testing.assert_array_equal(got_c2p, c2p, err_msg=kernels.name)
            np.testing.assert_array_equal(
                got_loads, loads, err_msg=kernels.name
            )
            assert cost.heap_operations == ops, kernels.name

    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_ties_zeros_and_wide_k(self, kernels):
        from repro.core.scheduling import graham_schedule

        rng = np.random.default_rng(5)
        cases = [
            (np.array([4, 4, 4, 4, 4, 0, 4]), 3),
            (np.zeros(6, dtype=np.int64), 4),
            (np.array([3, 1, 2]), 300),
            (rng.integers(0, 3, size=2000), 300),
            (rng.integers(0, 10**6, size=20000), 256),
        ]
        for volumes, k in cases:
            c2p, loads, ops = _heapq_schedule(volumes, k)
            cost = CostCounter()
            got = graham_schedule(volumes, k, cost=cost, backend=kernels.name)
            np.testing.assert_array_equal(got[0], c2p)
            np.testing.assert_array_equal(got[1], loads)
            assert cost.heap_operations == ops
