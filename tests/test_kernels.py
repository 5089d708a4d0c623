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
    ReplicaLog,
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
        if backend == "c":
            # ``c`` inherits the reference's pass, so a run would compare
            # the reference with itself.  Pin the inheritance instead: an
            # override fails here until the comparison comes back for it.
            from repro.kernels.c_backend import CBackend

            assert CBackend.stateless_pass is PythonBackend.stateless_pass
            return
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
        buf = _buffer([5, 6])
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


def _buffer(values) -> Int64Buffer:
    """An :class:`Int64Buffer` holding a copy of ``values``."""
    values = np.asarray(values, dtype=np.int64)
    buf = Int64Buffer()
    buf.reserve(values.shape[0])[: values.shape[0]] = values
    buf.set_length(values.shape[0])
    return buf


def _moves(rows) -> np.ndarray:
    """``(m, 2)`` int64 move rows."""
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


def _loaded(kernels, v2c, n_ids, degrees):
    """A ``kernels``-native clustering state holding ``v2c`` and its
    ``n_ids`` volumes (each the sum of its members' degrees), built with
    the public ops: a refresh of a fresh state by every clustered
    vertex's ``(vertex, id)`` row."""
    st = kernels.clustering_init(np.asarray(degrees, dtype=np.int64))
    v2c = np.asarray(v2c, dtype=np.int64)
    x = np.flatnonzero(v2c >= 0)
    kernels.refresh_clustering(
        st, _moves([]), 0, 0, n_ids, np.stack((x, v2c[x]), axis=1)
    )
    return st


def _merged(kernels, v2c, volumes, exports, degrees):
    """``kernels``' merge of ``exports`` into copies of ``(v2c,
    volumes)``: the merged ``(v2c, volumes)`` and the accepted moves."""
    v2c = np.array(v2c, dtype=np.int64)
    buf = _buffer(volumes)
    accepted = kernels.merge_phase1_clustering(v2c, buf, exports, degrees)
    return v2c, buf.view().copy(), accepted


@st.composite
def clustering_barriers(draw, min_vertices=0, max_vertices=40):
    """A random global clustering of ``base`` ids (volumes the sums of
    member degrees) and 2-4 workers' move exports over it: ascending
    vertices, ids in ``[0, base + n_fresh)`` (no window unclusters a
    vertex; an export with no id to move to moves nothing)."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    n_workers = draw(st.integers(min_value=2, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    degrees = rng.integers(1, 20, size=n).astype(np.int64)
    base = int(rng.integers(0, n + 1))
    v2c = rng.integers(-1, base, size=n) if base else np.full(n, -1)
    clustered = v2c >= 0
    volumes = np.zeros(base, dtype=np.int64)
    np.add.at(volumes, v2c[clustered], degrees[clustered])
    exports = []
    for _ in range(n_workers):
        x = np.flatnonzero(rng.random(n) < rng.random())
        fresh = int(rng.integers(0, x.shape[0] + 1))
        if not base + fresh:
            x = x[:0]
        ids = rng.integers(0, max(base + fresh, 1), size=x.shape[0])
        exports.append((np.stack((x, ids), axis=1).astype(np.int64), fresh))
    return v2c.astype(np.int64), volumes, exports, degrees


#: Malformed worker exports: ``(mutate(moves, fresh, n), match)``; each
#: returns the hostile ``(moves, fresh)``.
HOSTILE_EXPORTS = {
    "negative-vertex": (
        lambda m, f, n: (np.vstack((_moves([-1, 0]), m)), f),
        "outside the",
    ),
    "vertex-n": (lambda m, f, n: (np.vstack((m, _moves([n, 0]))), f), "outside the"),
    "repeated-vertex": (
        lambda m, f, n: (np.vstack((m, m[-1:])), f),
        "each vertex once",
    ),
    "id-past-range": (
        lambda m, f, n: (np.vstack((m[:-1], [[m[-1, 0], 10**12]])), f),
        "cluster ids",
    ),
    "id-minus-1": (
        lambda m, f, n: (np.vstack((m[:-1], [[m[-1, 0], -1]])), f),
        "cluster ids",
    ),
    "id-below-minus-1": (
        lambda m, f, n: (np.vstack((m[:-1], [[m[-1, 0], -2]])), f),
        "cluster ids",
    ),
    "int32": (lambda m, f, n: (m.astype(np.int32), f), r"\(m, 2\) int64"),
    "flat": (lambda m, f, n: (m.ravel(), f), r"\(m, 2\) int64"),
    "fresh-past-moves": (lambda m, f, n: (m, m.shape[0] + 1), "fresh clusters"),
    "negative-fresh": (lambda m, f, n: (m, -1), "fresh clusters"),
}


class TestPhase1MergeOps:
    """The Phase-1 barrier ops: the clustering merge and the refresh that
    brings each worker to it, over moves.  Bit-exact across backends and
    the per-edge oracle; volumes keep the Algorithm-1 invariant by
    construction; hostile input raises before any write."""

    @staticmethod
    def _barrier_scenario(graph, k, n_workers):
        """A realistic barrier: the global clustering of the stream's
        first half (reference backend), and one disjoint window each over
        the second half, run by workers that start from it."""
        from repro.core.clustering import default_volume_cap
        from repro.kernels.base import MoveLog

        py = get_backend("python")
        m = graph.n_edges
        degrees = py.degree_pass(InMemoryEdgeStream(graph), graph.n_vertices)
        cap = default_volume_cap(m, k, 0.5)
        half = m // 2
        first = InMemoryEdgeStream(graph.edges[:half], graph.n_vertices)

        def snapshot():
            st = py.clustering_init(degrees)
            py.clustering_true_pass(first, st, cap, None)
            return st

        v2c_g, vol_g, _ = py.clustering_export(snapshot())
        bounds = np.linspace(half, m, n_workers + 1).astype(int)
        exports = []
        for w in range(n_workers):
            window = graph.edges[bounds[w] : bounds[w + 1]]
            stw, log = snapshot(), MoveLog(3 * max(len(window), 1))
            base = stw.n_ids()
            py.clustering_true_pass(
                InMemoryEdgeStream(window, graph.n_vertices), stw, cap, None, log
            )
            exports.append((log.moves(), stw.n_ids() - base))
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
        ref_v2c, ref_vol, ref_acc = _merged(ORACLE, v2c_g, vol_g, exports, degrees)
        for backend in BACKEND_IMPLS:
            v2c, vol, acc = _merged(backend, v2c_g, vol_g, exports, degrees)
            np.testing.assert_array_equal(ref_v2c, v2c, err_msg=backend.name)
            np.testing.assert_array_equal(ref_vol, vol, err_msg=backend.name)
            assert len(acc) == len(ref_acc)
            for a, b in zip(acc, ref_acc):
                np.testing.assert_array_equal(a, b, err_msg=backend.name)
        # Volume invariant: merged volumes == sum of member true degrees.
        recomputed = np.zeros_like(ref_vol)
        mask = ref_v2c >= 0
        np.add.at(recomputed, ref_v2c[mask], degrees[mask])
        np.testing.assert_array_equal(recomputed, ref_vol)
        # Fresh-id remap stays in range, and unmoved vertices keep their
        # global id.
        assert ref_v2c.max(initial=-1) < ref_vol.shape[0]
        unmoved = np.ones(len(ref_v2c), dtype=bool)
        for moves, _ in exports:
            unmoved[moves[:, 0]] = False
        np.testing.assert_array_equal(ref_v2c[unmoved], v2c_g[unmoved])

    @SLOW
    @given(barrier=clustering_barriers())
    def test_refresh_brings_every_worker_to_the_merge(self, barrier):
        """Random exports over a random global clustering: the python
        merge, the ``c`` merge and the per-edge oracle agree bit for bit,
        and each worker, refreshed with the others' accepted moves and
        its fresh-id offset, holds the merged ``(v2c, volumes)``."""
        v2c_g, vol_g, exports, degrees = barrier
        base = vol_g.shape[0]
        ref_v2c, ref_vol, ref_acc = _merged(ORACLE, v2c_g, vol_g, exports, degrees)
        n_ids = ref_vol.shape[0]
        assert n_ids == base + sum(fresh for _, fresh in exports)
        for backend in BACKEND_IMPLS:
            v2c, vol, acc = _merged(backend, v2c_g, vol_g, exports, degrees)
            np.testing.assert_array_equal(ref_v2c, v2c, err_msg=backend.name)
            np.testing.assert_array_equal(ref_vol, vol, err_msg=backend.name)
            for a, b in zip(acc, ref_acc, strict=True):
                np.testing.assert_array_equal(a, b, err_msg=backend.name)
            offset = 0
            for w, (own, fresh) in enumerate(exports):
                # The worker after its window: the global clustering plus
                # its own moves, its fresh ids [base, base + fresh).
                st = _loaded(backend, v2c_g, base, degrees)
                backend.refresh_clustering(st, _moves([]), base, 0, base + fresh, own)
                others = np.concatenate(
                    [_moves([]), *(a for u, a in enumerate(acc) if u != w)]
                )
                backend.refresh_clustering(st, own, base, offset, n_ids, others)
                got_v2c, got_vol, _ = backend.clustering_export(st)
                np.testing.assert_array_equal(got_v2c, ref_v2c, err_msg=backend.name)
                np.testing.assert_array_equal(got_vol, ref_vol, err_msg=backend.name)
                offset += fresh

    @SLOW
    @given(
        barrier=clustering_barriers(min_vertices=1),
        case=st.sampled_from(sorted(HOSTILE_EXPORTS)),
        data=st.data(),
    )
    def test_malformed_exports_write_nothing(self, barrier, case, data):
        """One worker's export malformed: every backend and the oracle
        raise the typed error and leave the global clustering as it
        was."""
        v2c_g, vol_g, exports, degrees = barrier
        w = data.draw(st.integers(0, len(exports) - 1))
        moves, fresh = exports[w]
        if not len(moves):
            moves, fresh = _moves([[0, 0]]), 1
        mutate, match = HOSTILE_EXPORTS[case]
        exports[w] = mutate(moves, fresh, v2c_g.shape[0])
        for backend in (ORACLE, *BACKEND_IMPLS):
            v2c = v2c_g.copy()
            buf = _buffer(vol_g)
            with pytest.raises(PartitioningError, match=match):
                backend.merge_phase1_clustering(v2c, buf, exports, degrees)
            np.testing.assert_array_equal(v2c, v2c_g, err_msg=backend.name)
            np.testing.assert_array_equal(buf.view(), vol_g, err_msg=backend.name)

    def test_clustering_merge_first_worker_wins(self):
        v2c_g = np.array([0, 1, -1], dtype=np.int64)
        vol_g = np.array([4, 2], dtype=np.int64)
        degrees = np.array([4, 2, 3], dtype=np.int64)
        # Worker 0 moves vertex 0 to cluster 1 and claims vertex 2 into a
        # fresh cluster 2; worker 1 disagrees on both (vertex 0 -> its own
        # fresh cluster, vertex 2 -> cluster 0): worker 0 must win both.
        exports = [
            (_moves([[0, 1], [2, 2]]), 1),
            (_moves([[0, 2], [2, 0]]), 1),
        ]
        for backend in BACKEND_IMPLS:
            v2c, vol, accepted = _merged(backend, v2c_g, vol_g, exports, degrees)
            # worker 1's fresh id (2) remaps past worker 0's fresh count
            # to 3; nobody kept a vertex there, so its volume is 0.
            assert v2c.tolist() == [1, 1, 2]
            assert vol.tolist() == [0, 6, 3, 0]
            assert [a.tolist() for a in accepted] == [[[0, 1], [2, 2]], []]

    @staticmethod
    def _clustering_barrier():
        """A 4-vertex global clustering with 2 clusters and two workers'
        exports with one fresh cluster each: each worker owns ids
        [0, 3), and the merged range is [0, 4)."""
        v2c = np.array([0, 1, -1, -1], dtype=np.int64)
        volumes = np.array([4, 2], dtype=np.int64)
        degrees = np.array([4, 2, 3, 1], dtype=np.int64)
        exports = [
            (_moves([[0, 1], [2, 2]]), 1),
            (_moves([[2, 0], [3, 2]]), 1),
        ]
        return v2c, volumes, exports, degrees

    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_clustering_merge_rejects_malformed_moves(self, kernels):
        v2c, volumes, exports, degrees = self._clustering_barrier()
        exports[1] = (exports[1][0][:, :1], 1)
        with pytest.raises(PartitioningError, match="worker 1's clustering"):
            kernels.merge_phase1_clustering(
                v2c, _buffer(volumes), exports, degrees
            )

    @pytest.mark.parametrize("bad_id", [3, 10**12, -1, -2])
    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_clustering_merge_rejects_id_beyond_range(self, kernels, bad_id):
        """An id outside worker 1's range [0, 3) is the same typed error
        on every backend (the distributed coordinator folds exports that
        arrived over sockets): 3 would remap to 4, past the merged
        volumes, no window unclusters a vertex (-1), and -2 is no id at
        all.  The global clustering stays as it was."""
        v2c, volumes, exports, degrees = self._clustering_barrier()
        exports[1][0][1, 1] = bad_id
        buf = _buffer(volumes)
        before = [a.copy() for a in (v2c, volumes, degrees, exports[0][0])]
        with pytest.raises(PartitioningError, match=f"vertex 3 in cluster {bad_id}"):
            kernels.merge_phase1_clustering(v2c, buf, exports, degrees)
        after = (v2c, buf.view(), degrees, exports[0][0])
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    #: Hostile refresh moves for a worker of 4 vertices and 3 ids (its
    #: fresh one at 2) refreshed to 4 merged ids: ``(others, match)``.
    HOSTILE_REFRESHES = {
        "vertex-negative": ([[-1, 0]], "vertex -1, outside the 4 vertices"),
        "vertex-n": ([[1, 0], [4, 0]], "vertex 4, outside the 4 vertices"),
        "id-n_ids": ([[1, 0], [3, 4]], "cluster 4, outside the 4 cluster ids"),
        "id-minus-1": ([[1, 0], [3, -1]], "cluster -1, outside the 4 cluster ids"),
        "id-below-minus-1": ([[3, -2]], "cluster -2, outside the 4"),
    }

    @pytest.mark.parametrize("case", sorted(HOSTILE_REFRESHES))
    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_refresh_raises_before_its_first_write(self, kernels, case):
        """A refresh whose moves may have crossed a socket is checked
        entry by entry before any write: on a miss the worker's state is
        as it was, on every backend."""
        v2c, volumes, exports, degrees = self._clustering_barrier()
        own, fresh = exports[0]
        st = _loaded(kernels, v2c, 2, degrees)
        kernels.refresh_clustering(st, _moves([]), 2, 0, 2 + fresh, own)
        before = [a.copy() for a in kernels.clustering_export(st)]
        others, match = self.HOSTILE_REFRESHES[case]
        with pytest.raises(PartitioningError, match=match):
            kernels.refresh_clustering(st, own, 2, 1, 4, _moves(others))
        after = kernels.clustering_export(st)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    @pytest.mark.parametrize(
        "args, match",
        [
            ((1, -1, 4), "cannot shift"),  # negative offset
            ((1, 2, 4), "cannot shift"),  # 3 ids + 2 > 4 merged ids
            ((4, 0, 4), "cannot shift"),  # base past the worker's ids
        ],
    )
    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_refresh_rejects_impossible_counts(self, kernels, args, match):
        v2c, volumes, exports, degrees = self._clustering_barrier()
        st = _loaded(kernels, v2c, 3, degrees)
        before = [a.copy() for a in kernels.clustering_export(st)]
        base, offset, n_ids = args
        with pytest.raises(PartitioningError, match=match):
            kernels.refresh_clustering(st, _moves([]), base, offset, n_ids, _moves([]))
        after = kernels.clustering_export(st)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    @pytest.mark.parametrize("big", [0, 2**61], ids=["keys", "stable-argsort"])
    def test_move_log_keeps_net_moves_only(self, big):
        """A vertex's move runs from its first old id to its last new id;
        one that ends where it started is no move.  Vertex ids past the
        sort keys' range take the stable-argsort path."""
        from repro.kernels.base import MoveLog

        log = MoveLog(8)
        rows = [(4, -1, 0), (2, 1, 3), (4, 0, 3), (2, 3, 1), (7, 2, 5), (7, 5, 6)]
        log.extend([(x + big, old, new) for x, old, new in rows])
        assert log.moves().tolist() == [[4 + big, 3], [7 + big, 6]]
        log.clear()
        assert log.moves().shape == (0, 2)

    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_move_log_holds_the_window_diff(self, kernels, community_graph):
        """A logged window's moves are exactly the vertices whose id
        differs from the window's start, at their new ids, ascending, and
        its fresh ids are the ids it opened; the log leaves the clustering
        itself as an unlogged window does."""
        from repro.core.clustering import default_volume_cap
        from repro.kernels.base import MoveLog

        edges = community_graph.edges
        n = community_graph.n_vertices
        degrees = kernels.degree_pass(InMemoryEdgeStream(community_graph), n)
        cap = default_volume_cap(community_graph.n_edges, 4, 0.5)
        half = len(edges) // 2
        runs = []
        for log in (None, MoveLog(3 * len(edges))):
            st = kernels.clustering_init(degrees)
            kernels.clustering_true_pass(
                InMemoryEdgeStream(edges[:half], n), st, cap, None
            )
            start, base = kernels.clustering_export(st)[0].copy(), st.n_ids()
            kernels.clustering_true_pass(
                InMemoryEdgeStream(edges[half:], n), st, cap, None, log
            )
            runs.append([a.copy() for a in kernels.clustering_export(st)])
        (v2c, vol, _), (v2c_l, vol_l, _) = runs
        np.testing.assert_array_equal(v2c, v2c_l)
        np.testing.assert_array_equal(vol, vol_l)
        moved = np.flatnonzero(v2c != start)
        expected = np.stack((moved, v2c[moved]), axis=1)
        np.testing.assert_array_equal(log.moves(), expected)
        assert log.moves().dtype == np.int64
        assert int(((start == -1) & (v2c >= 0)).sum()) == len(vol) - base
        # A refresh of a fresh state is a loader: the same clustering.
        loaded = _loaded(kernels, v2c, len(vol), degrees)
        np.testing.assert_array_equal(kernels.clustering_export(loaded)[0], v2c)
        np.testing.assert_array_equal(kernels.clustering_export(loaded)[1], vol)

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
    #: exports, degrees)`` with each export a ``(moves, n_fresh)`` pair.
    CLUSTERING_BARRIERS = {
        "no-workers": ([0, 1, -1], [2, 1], [], [2, 1, 0]),
        "no-changes": ([0, 1, 0], [3, 1], [([], 0)] * 2, [2, 1, 1]),
        "empty-graph": ([], [], [([], 0)], []),
        "all-unclustered": (
            [-1, -1, -1, -1],
            [],
            [([[0, 0], [1, 0]], 1), ([[1, 0], [2, 1], [3, 1]], 2)],
            [1, 1, 2, 2],
        ),
        "fresh-ids-every-worker": (
            [0, -1, -1, -1, -1],
            [1],
            [([[1, 1]], 1), ([[2, 1], [3, 2]], 2), ([[4, 1]], 1)],
            [1, 1, 2, 3, 5],
        ),
        "contested-vertex": (
            [0, 1, -1],
            [2, 2],
            [([[0, 1], [2, 2]], 1), ([[0, 2], [1, 0], [2, 2]], 1)],
            [2, 2, 3],
        ),
        "worker-empties-a-cluster": ([0, 1, 1], [4, 3], [([[0, 1]], 0)], [4, 1, 2]),
    }

    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    @pytest.mark.parametrize("case", sorted(CLUSTERING_BARRIERS))
    def test_clustering_merge_degenerate_barriers(self, kernels, case):
        v2c, volumes, exports, degrees = self.CLUSTERING_BARRIERS[case]
        barrier = (
            np.asarray(v2c, dtype=np.int64),
            np.asarray(volumes, dtype=np.int64),
            [(_moves(moves), fresh) for moves, fresh in exports],
            np.asarray(degrees, dtype=np.int64),
        )
        ref_v2c, ref_vol, ref_acc = _merged(ORACLE, *barrier)
        out_v2c, out_vol, out_acc = _merged(kernels, *barrier)
        np.testing.assert_array_equal(out_v2c, ref_v2c)
        np.testing.assert_array_equal(out_vol, ref_vol)
        for a, b in zip(out_acc, ref_acc, strict=True):
            np.testing.assert_array_equal(a, b)
        assert out_v2c.dtype == out_vol.dtype == np.int64
        # One id per global cluster plus every worker's fresh ones, and
        # every volume the sum of its members' degrees.
        fresh = sum(n_fresh for _, n_fresh in exports)
        assert out_vol.shape[0] == len(volumes) + fresh
        clustered = out_v2c >= 0
        sums = np.zeros_like(out_vol)
        np.add.at(sums, out_v2c[clustered], barrier[3][clustered])
        np.testing.assert_array_equal(out_vol, sums)

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

    def test_c_cases_run_the_c_override(self):
        """The ``[c]`` cases above exercise the compiled ops, not the
        reference ones ``CBackend`` would otherwise inherit."""
        if "c" not in available_backends():
            pytest.skip("c backend unavailable")
        from repro.kernels.c_backend import CBackend

        assert any(type(b) is CBackend for b in BACKEND_IMPLS)
        ops = (
            "merge_phase1_clustering",
            "refresh_clustering",
            "apply_replica_log",
            "list_schedule",
        )
        for op in ops:
            assert op in vars(CBackend), op


def _copy_state(state):
    """An independent deep copy of a state."""
    from repro.partitioning.state import _replica_plane

    out = PartitionState(
        state.n_vertices, state.k, state.n_edges, state.alpha, packed=state.packed
    )
    _replica_plane(out.replicas)[0][:] = _replica_plane(state.replicas)[0]
    out.sizes[:] = state.sizes
    return out


def _logged_view(rng, state):
    """A copy of ``state`` that then gains random bits, and the
    :class:`ReplicaLog` of each bit that was clear in it (in random
    order); its sizes run stale and past the cap."""
    n, k = state.n_vertices, state.k
    view = _copy_state(state)
    m = int(rng.integers(0, 3 * n))
    us = rng.integers(0, n, size=m)
    ps = rng.integers(0, k, size=m)
    cells = np.unique(us * k + ps)
    fresh = cells[~np.asarray(view.replicas[cells // k, cells % k], dtype=bool)]
    view.replicas[us, ps] = True
    log = ReplicaLog(max(2 * m, 1))
    for cell in rng.permutation(fresh).tolist():
        log.append(cell)
    view.sizes[:] = state.sizes + rng.integers(0, 3 * n, size=k)
    return view, log


def _barrier_scenario(rng, k, packed, n_views):
    """Random global bits and ``n_views`` logged views of them."""
    n = int(rng.integers(1, 90))
    state = PartitionState(n, k, 4 * n, packed=packed)
    rows, cols = np.nonzero(rng.random((n, k)) < 0.2)
    state.replicas[rows, cols] = True
    state.sizes[:] = rng.integers(0, 50, size=k)
    pairs = [_logged_view(rng, state) for _ in range(n_views)]
    return state, [v for v, _ in pairs], [log for _, log in pairs]


def _worker_ctx(kernels, view, log):
    """The context ``BIND`` leaves a socket worker whose view is
    ``view`` and whose log is ``log``, over an empty shard."""
    n, k = view.n_vertices, view.k
    return {
        "kernels": kernels,
        "stream": InMemoryEdgeStream(Graph(np.zeros((0, 2), np.int64), n)),
        "k": k,
        "hash_seed": 0,
        "hdrf_lambda": 1.1,
        "view": view,
        "log": log,
        "phase1": (np.zeros(n, np.int32), np.ones((n, 2), np.int64)),
        "shard": (0, 0),
        "assignments": np.zeros(0, np.int32),
    }


class TestReplicaLogBarrier:
    """The Phase-2 barrier on every backend, as the transport runs it:
    worker 0's view is the global state, which takes the other workers'
    set-bit logs (:func:`~repro.core.distributed.take_news`, over the
    kernel op ``apply_replica_log``), and each other worker's view takes
    its news, every other worker's log, before its next window.  The
    state and every view end at the OR of them all, with sizes
    ``g + sum(view - g)``, byte-identical to the python reference, dense
    and packed."""

    @pytest.mark.parametrize("packed", [False, True], ids=["dense", "packed"])
    @pytest.mark.parametrize("k", [2, 7, 32, 70])
    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_barrier_equals_or_of_every_view(self, kernels, k, packed):
        from repro.core.distributed import _w_window, take_news
        from repro.core.runners import merge_sizes

        rng = np.random.default_rng(1000 * k + packed)
        for n_workers in (1, 2, 3, 4, 5):
            # views[0] is worker 0's view, the global state after its
            # window: ``g`` with its window's bits set and its sizes.
            g, views, logs = _barrier_scenario(rng, k, packed, n_workers)
            expect = np.logical_or.reduce(
                [np.asarray(s.replicas) for s in (g, *views)]
            )
            expect_sizes = g.sizes + sum(v.sizes - g.sizes for v in views)
            ref_state = _copy_state(g)
            get_backend("python").apply_replica_log(
                ref_state, [log.entries() for log in logs]
            )
            # The logs as the window replies carry them.
            cells = [log.entries().copy() for log in logs]
            merged = merge_sizes(g.sizes, [v.sizes for v in views])
            others = {
                w: np.concatenate([np.zeros(0, np.int64), *cells[:w], *cells[w + 1 :]])
                for w in range(n_workers)
            }
            take_news(kernels, views[0], {"log": others[0], "sizes": merged})
            for w in range(1, n_workers):
                ctx = _worker_ctx(kernels, views[w], logs[w])
                payload = {"pass": "prepartition", "start": 0, "stop": 0}
                reply = _w_window(ctx, {**payload, "log": others[w], "sizes": merged})
                assert len(reply[1]["log"]) == 0
            for target in views:
                np.testing.assert_array_equal(np.asarray(target.replicas), expect)
                np.testing.assert_array_equal(target.sizes, expect_sizes)
                assert state_bytes(target)[0] == state_bytes(ref_state)[0]
            # Cleared by the window that took the news.
            assert all(len(log.entries()) == 0 for log in logs[1:])

    def test_sizes_merge_overshoot_exactly(self):
        """A stale view may run past the hard cap; the merge carries the
        overshoot through unchanged, and a view with no delta adds 0."""
        from repro.core.runners import merge_sizes

        state = PartitionState(6, 2, 8, alpha=1.0)  # capacity 4
        base = np.array([3, 1])
        merged = merge_sizes(base, [np.array([9, 1]), np.array([3, 1])])
        assert merged.tolist() == [9, 1] and base.tolist() == [3, 1]
        assert merged[0] > state.capacity

    @pytest.mark.parametrize("packed", [False, True], ids=["dense", "packed"])
    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_empty_logs_write_nothing(self, kernels, packed):
        state, _, _ = _barrier_scenario(np.random.default_rng(3), 9, packed, 0)
        before = state_bytes(state)
        kernels.apply_replica_log(state, [])
        kernels.apply_replica_log(state, [np.zeros(0, dtype=np.int64)])
        assert state_bytes(state) == before

    @pytest.mark.parametrize("packed", [False, True], ids=["dense", "packed"])
    @pytest.mark.parametrize(
        "bad",
        ["negative", "n*k", "bit-flipped", "int64 min"],
    )
    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_hostile_entry_raises_before_any_write(self, kernels, bad, packed):
        """An entry outside ``[0, n * k)`` raises the one typed error,
        also when it sits in a later log than valid entries: the call
        writes nothing."""
        state = PartitionState(12, 10, 40, packed=packed)
        state.replicas[np.arange(12), np.arange(12) % 10] = True
        valid = np.array([5, 119, 37], dtype=np.int64)  # all clear
        entry = {
            "negative": -1,
            "n*k": 12 * 10,
            "bit-flipped": int(valid[1]) ^ (1 << 40),
            "int64 min": np.iinfo(np.int64).min,
        }[bad]
        before = state_bytes(state)
        with pytest.raises(PartitioningError, match="outside the 120 replica"):
            kernels.apply_replica_log(
                state, [valid, np.array([3, entry], dtype=np.int64)]
            )
        assert state_bytes(state) == before

    @pytest.mark.parametrize(
        "log",
        [
            np.array([1, 2], dtype=np.int32),
            np.array([[1, 2]], dtype=np.int64),
            [1, 2],
        ],
        ids=["int32", "2-d", "list"],
    )
    @pytest.mark.parametrize("kernels", BACKEND_IMPLS, ids=lambda b: b.name)
    def test_log_of_wrong_type_raises_before_any_write(self, kernels, log):
        state = PartitionState(4, 3, 10)
        with pytest.raises(PartitioningError, match="1-d int64 array"):
            kernels.apply_replica_log(state, [np.array([0], np.int64), log])
        assert not state.replicas.any()


PHASE2_PASSES = ("prepartition_pass", "remaining_pass_linear", "remaining_pass_hdrf")


class TestPassLogs:
    """The set-bit logs the Phase-2 passes write: exactly the bits each
    pass set that were clear, u's before v's per edge, the same cells in
    the same order on every backend and layout, and no change to what
    the pass computes."""

    @staticmethod
    def _run(name, op, seed, packed, capacity=None, chunk_size=7):
        rng = np.random.default_rng(seed)
        n, k, m = 40, 6, 300
        edges = rng.integers(0, n, size=(m, 2))
        v2c = rng.integers(0, 8, size=n)
        c2p = rng.integers(0, k, size=8)
        bits = rng.random((n, k)) < 0.3
        preset = (k, v2c, c2p, bits, rng.integers(0, 40, size=k), 10 * m, 1.05)
        ctx = _preset_context(edges, n, *preset, packed)
        before = np.asarray(ctx.state.replicas).copy()
        ctx.log = ReplicaLog(2 * m if capacity is None else capacity)
        stream = InMemoryEdgeStream(edges, n_vertices=n)
        stream.default_chunk_size = chunk_size
        getattr(get_backend(name), op)(stream, ctx)
        return ctx, before, (edges, n, preset)

    @pytest.mark.parametrize("op", PHASE2_PASSES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_logs_match_across_backends_and_layouts(self, op, seed):
        ref, before, (edges, n, preset) = self._run("python", op, seed, False)
        cells = ref.log.entries()
        assert len(np.unique(cells)) == len(cells) <= 2 * edges.shape[0]
        assert not before.ravel()[cells].any(), "logged a bit that was set"
        replayed = PartitionState(n, 6, 1, packed=False)
        replayed.replicas[:] = before
        get_backend("python").apply_replica_log(replayed, [cells])
        np.testing.assert_array_equal(replayed.replicas, np.asarray(ref.state.replicas))
        # Logging changes nothing the pass computes.
        plain = _preset_context(edges, n, *preset, False)
        stream = InMemoryEdgeStream(edges, n_vertices=n)
        stream.default_chunk_size = 7
        getattr(get_backend("python"), op)(stream, plain)
        _assert_contexts_identical(plain, ref)
        for name in available_backends():
            for packed in (False, True):
                for chunk_size in (1, 7, 500):
                    out, _, _ = self._run(name, op, seed, packed, None, chunk_size)
                    _assert_contexts_identical(ref, out)
                    np.testing.assert_array_equal(out.log.entries(), cells)

    @pytest.mark.parametrize("op", PHASE2_PASSES)
    @pytest.mark.parametrize("name", available_backends())
    def test_overflow_is_a_typed_error(self, name, op):
        ref, _, _ = self._run("python", op, 0, False)
        short = len(ref.log.entries()) - 1
        with pytest.raises(PartitioningError, match="set-bit log"):
            self._run(name, op, 0, True, capacity=short)


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
