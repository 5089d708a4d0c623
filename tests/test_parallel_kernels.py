"""Differential-equivalence suite for the kernel-routed parallel path.

Four contracts are pinned here:

1. ``ParallelTwoPhase(n_workers=1)`` is **bit-exact** with the sequential
   ``TwoPhasePartitioner`` — identical per-edge assignments, replica
   bits, partition sizes *and* cost counters — for any sync interval,
   chunk size, k, alpha, mode and backend.  A single worker's state view
   is never stale, and window boundaries are ordinary chunk boundaries,
   which the kernel contract makes semantics-free.
2. Kernel backends stay bit-exact with each other *through the parallel
   path* (stale views, barrier merges and all), for any worker count.
3. Streaming the same graph from memory or from disk
   (``InMemoryEdgeStream`` vs ``FileEdgeStream``) yields identical
   results for every kernel-routed partitioner — this is what catches
   chunk-boundary bugs in the shard-window iterator.
4. The execution **runner matrix** (``TestRunnerMatrix``): the true
   multi-process ``ProcessRunner`` (forked socket workers) is
   bit-identical with the single-process ``SimulatedRunner`` under the
   same sync schedule, the ``SerialRunner`` is bit-exact with the
   sequential pipeline, and a crashed or hung worker never leaks a
   socket or worker process.  No session constructs a shared-memory
   segment: forked workers inherit the stream, a file one too, or a
   private copy of it read before the fork.

The parallel path must also honor the out-of-core promise: it never
materializes the stream, and worker windows bound its memory.
"""

import contextlib
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ParallelTwoPhase, ProcessRunner, TwoPhasePartitioner
from repro.core import distributed, wire
from repro.core import runners as runners_module
from repro.core.distributed import live_connections, live_worker_processes
from repro.core.runners import ShardedJob, make_runner
from repro.errors import ConfigurationError, PartitioningError
from repro.graph import Graph
from repro.graph.formats import write_binary_edge_list
from repro.kernels import PythonBackend, available_backends, register_backend
from repro.metrics.runtime import CostCounter
from repro.partitioning.state import PartitionState
from repro.streaming import FileEdgeStream, InMemoryEdgeStream
from tests.differential import HOST_PORT, host_port_runner
from tests.per_edge import PER_EDGE
from tests.test_streams import OpaqueStream

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")

#: The test process.  Worker 0 of a process session runs here, so a
#: kernel that stalls a worker stalls only the forked ones.
_TEST_PID = os.getpid()

LAYOUTS = pytest.mark.parametrize("packed", [False, True], ids=["dense", "packed"])

OTHER_BACKENDS = [n for n in available_backends() if n != "python"]

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_vertices=50, max_edges=250):
    """Random non-empty multigraphs (self-loops and duplicates allowed)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return Graph(rng.integers(0, n, size=(m, 2)), n)


def _graph_file(graph, tmp_path) -> FileEdgeStream:
    """``graph`` written to a binary edge list under ``tmp_path``, as a
    stream over that file."""
    path = tmp_path / "g.bin"
    write_binary_edge_list(graph, path)
    return FileEdgeStream(path, n_vertices=graph.n_vertices)


class _CopiedStream(InMemoryEdgeStream):
    """An in-memory stream that forked workers do not inherit (only the
    exact type is: a subclass may override ``chunks()``), so a process
    session reads it into one private copy, which they inherit."""


def assert_bit_exact(reference, other):
    """Byte-identical assignments, replicas, sizes and cost counters."""
    np.testing.assert_array_equal(reference.assignments, other.assignments)
    np.testing.assert_array_equal(reference.state.sizes, other.state.sizes)
    np.testing.assert_array_equal(
        reference.state.replicas, other.state.replicas
    )
    assert reference.cost == other.cost


@pytest.mark.parametrize("backend", available_backends())
class TestSingleWorkerIsSequential:
    @SLOW
    @given(
        graph=graphs(),
        k=st.integers(min_value=2, max_value=10),
        alpha=st.sampled_from([1.0, 1.05, 1.5]),
        chunk_size=st.sampled_from([1, 7, 64, 500]),
        sync_interval=st.sampled_from([1, 13, 10**9]),
        parallel_phase1=st.booleans(),
    )
    def test_2psl_bit_exact(
        self, backend, graph, k, alpha, chunk_size, sync_interval,
        parallel_phase1,
    ):
        seq = TwoPhasePartitioner(backend=backend).partition(
            graph, k, alpha=alpha, chunk_size=chunk_size
        )
        par = ParallelTwoPhase(
            n_workers=1,
            sync_interval=sync_interval,
            backend=backend,
            parallel_phase1=parallel_phase1,
        ).partition(graph, k, alpha=alpha, chunk_size=chunk_size)
        assert_bit_exact(seq, par)
        assert seq.extras["prepartitioned_edges"] == (
            par.extras["prepartitioned_edges"]
        )

    @SLOW
    @given(
        graph=graphs(max_edges=150),
        k=st.integers(min_value=2, max_value=8),
        chunk_size=st.sampled_from([1, 7, 64, 500]),
    )
    def test_2pshdrf_bit_exact(self, backend, graph, k, chunk_size):
        seq = TwoPhasePartitioner(backend=backend, mode="hdrf").partition(
            graph, k, chunk_size=chunk_size
        )
        par = ParallelTwoPhase(
            n_workers=1, sync_interval=1, mode="hdrf", backend=backend
        ).partition(graph, k, chunk_size=chunk_size)
        assert_bit_exact(seq, par)

    def test_sync_interval_one_explicit(self, backend, community_graph):
        """The ISSUE's headline case: n_workers=1, sync_interval=1."""
        seq = TwoPhasePartitioner(backend=backend).partition(
            community_graph, 8
        )
        par = ParallelTwoPhase(
            n_workers=1, sync_interval=1, backend=backend
        ).partition(community_graph, 8)
        assert_bit_exact(seq, par)


@pytest.mark.parametrize("backend", [*OTHER_BACKENDS, PER_EDGE])
@pytest.mark.usefixtures("per_edge_backend")
class TestParallelBackendEquivalence:
    """Every backend, and the per-edge loops of the reference's vectorized
    ops (both Phase-1 merges among them), against the reference through
    sharded runs."""

    @SLOW
    @given(
        graph=graphs(),
        k=st.integers(min_value=2, max_value=10),
        n_workers=st.integers(min_value=2, max_value=5),
        sync_interval=st.sampled_from([1, 17, 256]),
        mode=st.sampled_from(["linear", "hdrf"]),
        parallel_phase1=st.booleans(),
    )
    def test_backends_agree_through_stale_merges(
        self, backend, graph, k, n_workers, sync_interval, mode,
        parallel_phase1,
    ):
        ref = ParallelTwoPhase(
            n_workers=n_workers,
            sync_interval=sync_interval,
            mode=mode,
            backend="python",
            parallel_phase1=parallel_phase1,
        ).partition(graph, k)
        out = ParallelTwoPhase(
            n_workers=n_workers,
            sync_interval=sync_interval,
            mode=mode,
            backend=backend,
            parallel_phase1=parallel_phase1,
        ).partition(graph, k)
        assert_bit_exact(ref, out)
        assert ref.extras["phase1_syncs"] == out.extras["phase1_syncs"]
        assert ref.extras["n_clusters"] == out.extras["n_clusters"]


class TestStreamSourceParity:
    """FileEdgeStream vs InMemoryEdgeStream: identical kernel results."""

    PARTITIONERS = {
        "2PS-L": lambda: TwoPhasePartitioner(),
        "2PS-HDRF": lambda: TwoPhasePartitioner(mode="hdrf"),
        "2PS-L-parallel": lambda: ParallelTwoPhase(
            n_workers=4, sync_interval=17
        ),
    }

    @pytest.fixture(scope="class")
    def graph_file(self, tmp_path_factory, community_graph):
        path = tmp_path_factory.mktemp("parity") / "g.bin"
        write_binary_edge_list(community_graph, path)
        return path

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    @pytest.mark.parametrize("chunk_size", [64, 4096])
    def test_file_matches_memory(
        self, name, backend, chunk_size, graph_file, community_graph
    ):
        make = self.PARTITIONERS[name]
        in_mem = make()
        in_mem.backend = backend
        from_file = make()
        from_file.backend = backend
        a = in_mem.partition(
            InMemoryEdgeStream(community_graph), 8, chunk_size=chunk_size
        )
        b = from_file.partition(
            FileEdgeStream(graph_file, n_vertices=community_graph.n_vertices),
            8,
            chunk_size=chunk_size,
        )
        assert_bit_exact(a, b)

    def test_odd_chunk_boundaries(self, graph_file, community_graph):
        """Chunk sizes that never align with shard or window bounds."""
        for chunk_size in (1, 3, 61):
            a = ParallelTwoPhase(n_workers=3, sync_interval=7).partition(
                InMemoryEdgeStream(community_graph), 4, chunk_size=chunk_size
            )
            b = ParallelTwoPhase(n_workers=3, sync_interval=7).partition(
                FileEdgeStream(
                    graph_file, n_vertices=community_graph.n_vertices
                ),
                4,
                chunk_size=chunk_size,
            )
            assert_bit_exact(a, b)


class TestRunnerMatrix:
    """ProcessRunner vs SimulatedRunner vs sequential, across the full
    {stream source} x {backend} x {mode} matrix (ISSUE 3 satellite)."""

    @pytest.fixture(scope="class")
    def graph_file(self, tmp_path_factory, community_graph):
        path = tmp_path_factory.mktemp("runners") / "g.bin"
        write_binary_edge_list(community_graph, path)
        return path

    def _stream(self, source, graph_file, community_graph):
        if source == "file":
            return FileEdgeStream(
                graph_file, n_vertices=community_graph.n_vertices
            )
        return InMemoryEdgeStream(community_graph)

    @pytest.mark.parametrize("source", ["memory", "file"])
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("mode", ["linear", "hdrf"])
    @pytest.mark.parametrize("parallel_phase1", [False, True])
    def test_process_matches_simulated(
        self, source, backend, mode, parallel_phase1, graph_file,
        community_graph, shared_memory_made,
    ):
        def run(runner):
            return ParallelTwoPhase(
                n_workers=3,
                sync_interval=17,
                mode=mode,
                backend=backend,
                runner=runner,
                parallel_phase1=parallel_phase1,
            ).partition(
                self._stream(source, graph_file, community_graph),
                4,
                chunk_size=61,
            )

        simulated = run("simulated")
        process = run("process")
        assert_bit_exact(simulated, process)
        assert simulated.extras["syncs"] == process.extras["syncs"]
        assert (
            simulated.extras["phase1_syncs"]
            == process.extras["phase1_syncs"]
        )
        assert process.extras["runner"] == "process"
        assert process.extras["measured_wallclock"]
        if parallel_phase1:
            assert process.extras["phase1_syncs"] > 0
        assert not shared_memory_made

    @pytest.mark.parametrize("source", ["memory", "file"])
    @pytest.mark.parametrize("mode", ["linear", "hdrf"])
    @pytest.mark.parametrize("parallel_phase1", [False, True])
    def test_single_process_worker_matches_sequential(
        self, source, mode, parallel_phase1, graph_file, community_graph
    ):
        seq = TwoPhasePartitioner(mode=mode).partition(
            self._stream(source, graph_file, community_graph), 4
        )
        par = ParallelTwoPhase(
            n_workers=1,
            sync_interval=13,
            mode=mode,
            runner="process",
            parallel_phase1=parallel_phase1,
        ).partition(self._stream(source, graph_file, community_graph), 4)
        assert_bit_exact(seq, par)

    def test_log_barriers_write_less_than_full_broadcast(self, community_graph):
        """The set-bit log barriers must write strictly fewer replica
        cells than a full re-broadcast on a graph larger than one
        window."""
        result = ParallelTwoPhase(n_workers=4, sync_interval=32).partition(
            community_graph, 8
        )
        assert result.extras["barrier_bytes_full"] > 0
        assert (
            0
            < result.extras["barrier_bytes"]
            < result.extras["barrier_bytes_full"]
        )

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_serial_runner_is_sequential(self, n_workers, community_graph):
        """SerialRunner ignores sharding entirely: bit-exact with the
        sequential pipeline for any configured worker count."""
        seq_stream = InMemoryEdgeStream(community_graph)
        ser_stream = InMemoryEdgeStream(community_graph)
        seq = TwoPhasePartitioner().partition(seq_stream, 4)
        ser = ParallelTwoPhase(
            n_workers=n_workers, sync_interval=13, runner="serial"
        ).partition(ser_stream, 4)
        assert_bit_exact(seq, ser)
        assert ser.extras["syncs"] == 0
        # The serial runner's worker streams the stream object itself:
        # the same passes over the same edges as the sequential pipeline.
        assert ser_stream.stats.passes == seq_stream.stats.passes
        assert ser_stream.stats.edges_read == seq_stream.stats.edges_read

    @pytest.mark.parametrize("backend", OTHER_BACKENDS)
    def test_overshot_stale_view_with_untouched_partition(self, backend):
        """A stale worker view whose *other* partition overshot the cap:
        ``c``'s cap branch (its own loop) must match the reference under
        four-worker views, where the cap fallback fires once."""
        g = Graph(np.array([[1, 1], [1, 1], [1, 1], [1, 0], [0, 0]]), 2)
        ref = ParallelTwoPhase(
            n_workers=4, sync_interval=1, backend="python"
        ).partition(g, 3)
        out = ParallelTwoPhase(
            n_workers=4, sync_interval=1, backend=backend
        ).partition(g, 3)
        assert_bit_exact(ref, out)
        assert out.cost.hash_evaluations == 1  # the one cap fallback

    def test_unknown_runner_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown runner"):
            ParallelTwoPhase(runner="threads")

    def test_bad_process_options_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessRunner(task_timeout=0.0)


class _ExplodingBackend(PythonBackend):
    """Raises inside the worker after Phase 1 — exercises crash cleanup."""

    name = "exploding"

    def prepartition_pass(self, stream, ctx):
        raise RuntimeError("worker kernel exploded")


class _ExplodingClusteringBackend(PythonBackend):
    """Raises inside the worker *during* Phase 1 (mid-clustering)."""

    name = "exploding-phase1"

    def clustering_true_pass(self, stream, st, cap, cost, log=None):
        raise RuntimeError("clustering kernel exploded")


class _ExplodingRemainingBackend(PythonBackend):
    """Raises inside the worker during the Phase-2 remaining pass."""

    name = "exploding-remaining"

    def remaining_pass_linear(self, stream, ctx):
        raise RuntimeError("remaining kernel exploded")


class _SleepingClusteringBackend(PythonBackend):
    """Hangs inside a forked worker during Phase 1 — timeout teardown."""

    name = "sleeping-phase1"

    def clustering_true_pass(self, stream, st, cap, cost, log=None):
        if os.getpid() != _TEST_PID:
            time.sleep(60.0)
        return super().clustering_true_pass(stream, st, cap, cost, log)


class _SleepingBackend(PythonBackend):
    """Hangs inside a forked worker — exercises the task-timeout teardown."""

    name = "sleeping"

    def prepartition_pass(self, stream, ctx):
        if os.getpid() != _TEST_PID:
            time.sleep(60.0)
        return super().prepartition_pass(stream, ctx)


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
class TestCrashedWorkerCleanup:
    """No socket or worker process may outlive a failed process session,
    and no session constructs a shared-memory segment.

    The sessions here mostly run over a :class:`_CopiedStream`, which
    the parent reads into one private copy before the fork; its forked
    workers inherit the copy.  The session's idempotent ``close()``
    closes every socket and reaps every worker on the error path —
    verified here by the leak-check hooks — and every
    ``SharedMemory`` construction is recorded: there is none.
    """

    def _register(self, backend_cls):
        import repro.kernels as kernels_pkg

        register_backend(backend_cls.name, backend_cls)
        yield
        kernels_pkg._REGISTRY.pop(backend_cls.name, None)
        kernels_pkg._INSTANCES.pop(backend_cls.name, None)

    @pytest.fixture
    def exploding_backend(self):
        yield from self._register(_ExplodingBackend)

    @pytest.fixture
    def sleeping_backend(self):
        yield from self._register(_SleepingBackend)

    def test_worker_exception_propagates_and_cleans_up(
        self, community_graph, shared_memory_made, exploding_backend
    ):
        partitioner = ParallelTwoPhase(
            n_workers=2,
            sync_interval=32,
            backend="exploding",
            runner="process",
        )
        with pytest.raises(PartitioningError, match="exploded"):
            partitioner.partition(_CopiedStream(community_graph), 4)
        assert not shared_memory_made
        assert not live_connections() and not live_worker_processes()

    def test_failed_worker_init_surfaces_cause_fast(
        self, community_graph, shared_memory_made, monkeypatch
    ):
        """A worker that cannot set up its job (here: its edges are
        gone) must not leave the parent waiting out the task timeout:
        its error reply surfaces at once as one typed error naming the
        cause, and the session leaves nothing behind."""

        def edges_gone(ctx, payload):
            raise FileNotFoundError("edges gone")

        monkeypatch.setitem(distributed._MESSAGE_HANDLERS, wire.MSG_JOB, edges_gone)
        partitioner = ParallelTwoPhase(
            n_workers=2,
            sync_interval=32,
            runner="process",
            task_timeout=30.0,
        )
        began = time.monotonic()
        with pytest.raises(PartitioningError, match="FileNotFoundError: edges gone"):
            partitioner.partition(_CopiedStream(community_graph), 4)
        assert time.monotonic() - began < 10.0
        assert not shared_memory_made
        assert not live_connections() and not live_worker_processes()

    def test_failed_host_port_worker_init_surfaces_cause_fast(
        self, community_graph, monkeypatch, tmp_path
    ):
        """The same on ``host:port`` workers, which stream their shards
        of the graph's file: the first error reply ends the session at
        once, and every worker server exits."""

        def edges_gone(ctx, payload):
            raise FileNotFoundError("edges gone")

        monkeypatch.setitem(distributed._MESSAGE_HANDLERS, wire.MSG_JOB, edges_gone)
        stream = _graph_file(community_graph, tmp_path)
        began = time.monotonic()
        with host_port_runner(2, task_timeout=30.0) as runner:
            partitioner = ParallelTwoPhase(n_workers=2, sync_interval=32, runner=runner)
            with pytest.raises(PartitioningError) as excinfo:
                partitioner.partition(stream, 4)
        assert str(excinfo.value) == (
            "process worker 0 failed during job setup: FileNotFoundError: edges gone"
        )
        assert time.monotonic() - began < 10.0
        assert not live_connections() and not live_worker_processes()

    @pytest.fixture
    def exploding_clustering_backend(self):
        yield from self._register(_ExplodingClusteringBackend)

    @pytest.fixture
    def sleeping_clustering_backend(self):
        yield from self._register(_SleepingClusteringBackend)

    @pytest.mark.parametrize("runner", ["simulated", "process"])
    def test_worker_death_mid_phase1_raises_typed_error(
        self, runner, community_graph, shared_memory_made,
        exploding_clustering_backend,
    ):
        """A worker dying mid-Phase-1 surfaces as the same typed
        PartitioningError from the simulated and the process runner —
        never a bare transport/kernel exception — and the process
        session leaves no socket or worker behind."""
        partitioner = ParallelTwoPhase(
            n_workers=2,
            sync_interval=32,
            backend="exploding-phase1",
            runner=runner,
            parallel_phase1=True,
        )
        with pytest.raises(PartitioningError, match="phase-1 worker"):
            partitioner.partition(_CopiedStream(community_graph), 4)
        assert not shared_memory_made
        assert not live_connections() and not live_worker_processes()

    @pytest.fixture
    def exploding_windows(self):
        for backend_cls in (
            _ExplodingClusteringBackend, _ExplodingRemainingBackend
        ):
            register_backend(backend_cls.name, backend_cls)
        yield
        import repro.kernels as kernels_pkg

        for backend_cls in (
            _ExplodingClusteringBackend, _ExplodingRemainingBackend
        ):
            kernels_pkg._REGISTRY.pop(backend_cls.name, None)
            kernels_pkg._INSTANCES.pop(backend_cls.name, None)

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("runner", ["simulated", "process", HOST_PORT])
    @pytest.mark.parametrize(
        "backend, parallel_phase1, message",
        [
            pytest.param(
                "exploding-phase1",
                True,
                "phase-1 worker 0 failed during the clustering pass: "
                "RuntimeError: clustering kernel exploded",
                id="phase1",
            ),
            pytest.param(
                "exploding-remaining",
                False,
                "phase-2 worker 0 failed during the remaining_linear pass: "
                "RuntimeError: remaining kernel exploded",
                id="phase2",
            ),
        ],
    )
    def test_failed_window_is_one_typed_error(
        self, runner, n_workers, backend, parallel_phase1, message,
        community_graph, shared_memory_made, exploding_windows, tmp_path,
    ):
        """A kernel exception in a worker window surfaces as the same
        PartitioningError — naming the phase, the worker, the step and
        the cause — from every sharded runner, in both phases, and from
        the process runner's ``host:port`` workers: worker servers on
        threads of this process, which read its backend registry, over
        the graph's file."""
        stream = community_graph
        with contextlib.ExitStack() as stack:
            if runner == HOST_PORT:
                stream = _graph_file(community_graph, tmp_path)
                runner = stack.enter_context(host_port_runner(n_workers))
            partitioner = ParallelTwoPhase(
                n_workers=n_workers,
                sync_interval=32,
                backend=backend,
                runner=runner,
                parallel_phase1=parallel_phase1,
            )
            with pytest.raises(PartitioningError) as excinfo:
                partitioner.partition(stream, 4)
        assert str(excinfo.value) == message
        assert not shared_memory_made
        assert not live_connections() and not live_worker_processes()

    def test_serial_runner_raises_the_kernel_error(
        self, community_graph, exploding_windows
    ):
        """The serial runner stays raw, like the sequential partitioner."""
        for partitioner in (
            TwoPhasePartitioner(backend="exploding-remaining"),
            ParallelTwoPhase(backend="exploding-remaining", runner="serial"),
        ):
            with pytest.raises(RuntimeError, match="remaining kernel"):
                partitioner.partition(community_graph, 4)

    def test_hung_worker_mid_phase1_times_out_and_cleans_up(
        self, community_graph, shared_memory_made,
        sleeping_clustering_backend,
    ):
        partitioner = ParallelTwoPhase(
            n_workers=2,
            sync_interval=32,
            backend="sleeping-phase1",
            runner="process",
            task_timeout=0.5,
            parallel_phase1=True,
        )
        began = time.monotonic()
        with pytest.raises(PartitioningError, match="timeout"):
            partitioner.partition(_CopiedStream(community_graph), 4)
        # The kernel sleeps 60 s: teardown terminates the stalled
        # workers instead of awaiting them.
        assert time.monotonic() - began < 10.0
        assert not shared_memory_made
        assert not live_connections() and not live_worker_processes()

    def test_hung_worker_times_out_and_cleans_up(
        self, community_graph, shared_memory_made, sleeping_backend
    ):
        partitioner = ParallelTwoPhase(
            n_workers=2,
            sync_interval=32,
            backend="sleeping",
            runner="process",
            task_timeout=0.5,
        )
        began = time.monotonic()
        with pytest.raises(PartitioningError, match="timeout"):
            partitioner.partition(_CopiedStream(community_graph), 4)
        # The kernel sleeps 60 s: teardown terminates the stalled
        # workers instead of awaiting them.
        assert time.monotonic() - began < 10.0
        assert not shared_memory_made
        assert not live_connections() and not live_worker_processes()


@needs_fork
class TestEverySessionCloses:
    """A run closes every session it opened — the runner's and, unless
    Phase 1 is sharded, the serial Phase-1 one — after a successful run,
    after a failing Phase 2, and when the Phase-1 session fails to open
    after the runner's opened."""

    @pytest.fixture
    def sessions(self, monkeypatch, shared_memory_made):
        opened, closed = [], []
        session_cls = runners_module.RunnerSession
        init, close = session_cls.__init__, session_cls.close

        def spying_init(session, *args, **kwargs):
            init(session, *args, **kwargs)
            opened.append(session)

        def spying_close(session):
            closed.append(session)
            close(session)

        monkeypatch.setattr(session_cls, "__init__", spying_init)
        monkeypatch.setattr(session_cls, "close", spying_close)
        return opened, closed, shared_memory_made

    @pytest.fixture
    def exploding_remaining(self):
        import repro.kernels as kernels_pkg

        register_backend(_ExplodingRemainingBackend.name, _ExplodingRemainingBackend)
        yield _ExplodingRemainingBackend.name
        kernels_pkg._REGISTRY.pop(_ExplodingRemainingBackend.name, None)
        kernels_pkg._INSTANCES.pop(_ExplodingRemainingBackend.name, None)

    @staticmethod
    def _assert_all_closed(opened, closed, made, n_sessions):
        assert len(opened) == n_sessions
        assert {id(s) for s in opened} <= {id(s) for s in closed}
        assert not made
        assert not live_connections() and not live_worker_processes()

    @pytest.mark.parametrize("runner", ["serial", "simulated", "process"])
    @pytest.mark.parametrize("parallel_phase1", [False, True])
    def test_after_a_successful_run(
        self, runner, parallel_phase1, sessions, community_graph
    ):
        ParallelTwoPhase(
            n_workers=2,
            sync_interval=64,
            runner=runner,
            parallel_phase1=parallel_phase1,
        ).partition(community_graph, 4)
        self._assert_all_closed(*sessions, 1 if parallel_phase1 else 2)

    def test_after_the_sequential_pipeline(self, sessions, community_graph):
        TwoPhasePartitioner().partition(community_graph, 4)
        self._assert_all_closed(*sessions, 1)

    @pytest.mark.parametrize("runner", ["serial", "simulated", "process"])
    def test_after_a_failing_phase_2(
        self, runner, sessions, exploding_remaining, community_graph
    ):
        partitioner = ParallelTwoPhase(
            n_workers=2, sync_interval=64, runner=runner, backend=exploding_remaining
        )
        with pytest.raises((RuntimeError, PartitioningError), match="kernel exploded"):
            partitioner.partition(community_graph, 4)
        self._assert_all_closed(*sessions, 2)

    @pytest.mark.parametrize("runner", ["simulated", "process"])
    def test_when_the_phase_1_session_fails_to_open(
        self, runner, sessions, monkeypatch, community_graph
    ):
        def refuse(self, job):
            raise RuntimeError("no phase-1 session")

        partitioner = ParallelTwoPhase(n_workers=2, sync_interval=64, runner=runner)
        monkeypatch.setattr(runners_module.SerialRunner, "open", refuse)
        with pytest.raises(RuntimeError, match="no phase-1 session"):
            partitioner.partition(community_graph, 4)
        self._assert_all_closed(*sessions, 1)


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
@pytest.mark.parametrize("runner", ["serial", "simulated", "process"])
def test_unknown_pass_is_a_configuration_error(
    runner, community_graph, shared_memory_made
):
    """The driver validates the pass name once, for every runner."""
    job = ShardedJob(
        stream=InMemoryEdgeStream(community_graph),
        backend="python",
        k=4,
        alpha=1.05,
        hash_seed=0,
        hdrf_lambda=1.1,
        cost=CostCounter(),
        n_workers=2,
        sync_interval=32,
    )
    session = make_runner(runner).open(job)
    try:
        with pytest.raises(ConfigurationError, match="unknown pass 'bogus'"):
            session.run_pass("bogus")
    finally:
        session.close()
    assert not shared_memory_made
    assert not live_connections() and not live_worker_processes()


@needs_fork
class TestProcessSession:
    """A process session runs worker 0 in this process and forks the
    others as socket workers, which inherit the stream: an in-memory or
    file stream as is, any other stream as one private copy.  No session
    constructs a shared-memory segment, and
    ``close()`` leaves no socket or worker process."""

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_fork_session_over_in_memory_stream_creates_no_segment(
        self, n_workers, community_graph, shared_memory_made, monkeypatch
    ):
        """Parallel Phase 1 over an in-memory stream, whatever the worker
        count: the forked workers read the parent's array in place, so
        the session builds no stream spec and no copy."""
        handed = []
        forked_stream = distributed._forked_stream

        def no_spec(stream):
            raise AssertionError("a fork session built a stream spec")

        def spying(stream):
            handed.append(forked_stream(stream) is stream)
            return stream

        monkeypatch.setattr(distributed, "make_stream_spec", no_spec)
        monkeypatch.setattr(distributed, "_forked_stream", spying)
        runs = {
            runner: ParallelTwoPhase(
                n_workers=n_workers,
                sync_interval=64,
                runner=runner,
                parallel_phase1=True,
            ).partition(InMemoryEdgeStream(community_graph), 4)
            for runner in ("simulated", "process")
        }
        assert_bit_exact(runs["simulated"], runs["process"])
        assert handed == [True]
        assert not shared_memory_made
        assert not live_connections() and not live_worker_processes()

    @pytest.mark.parametrize("n_workers", [2, 3])
    @pytest.mark.parametrize("kind", ["replaced-chunks", "subclass", "chunks-only"])
    def test_other_streams_are_read_once_into_a_private_copy(
        self, kind, n_workers, community_graph, shared_memory_made, monkeypatch
    ):
        """A ``chunks`` replaced on the instance (as a tracer does), a
        subclass (:class:`_CopiedStream`) and a stream with only
        ``chunks()`` (:class:`~tests.test_streams.OpaqueStream`) may
        yield other edges than an array: the session reads each once
        through its ``chunks()`` into one private copy, which the forked
        workers inherit, and the run is bit-exact with the simulated
        runner."""
        calls, copies = [], []
        if kind == "replaced-chunks":
            stream = InMemoryEdgeStream(community_graph)
            own_chunks = stream.chunks

            def chunks(chunk_size=None):
                calls.append(chunk_size)
                return own_chunks(chunk_size)

            stream.chunks = chunks
        elif kind == "subclass":
            stream = _CopiedStream(community_graph)
        else:
            stream = OpaqueStream(community_graph)
        forked_stream = distributed._forked_stream

        def spying(source):
            copy = forked_stream(source)
            copies.append(type(copy) is InMemoryEdgeStream and copy is not source)
            return copy

        monkeypatch.setattr(distributed, "_forked_stream", spying)
        runs = {
            runner: ParallelTwoPhase(
                n_workers=n_workers,
                sync_interval=64,
                runner=runner,
                parallel_phase1=True,
            ).partition(source, 4)
            for runner, source in (("simulated", community_graph), ("process", stream))
        }
        assert_bit_exact(runs["simulated"], runs["process"])
        assert copies == [True]
        if kind == "replaced-chunks":
            assert len(calls) == 1
        assert not shared_memory_made
        assert not live_connections() and not live_worker_processes()

    def test_close_is_idempotent(self, community_graph, shared_memory_made):
        m = community_graph.n_edges
        n = community_graph.n_vertices
        job = ShardedJob(
            stream=_CopiedStream(community_graph),
            backend="python",
            k=4,
            alpha=1.05,
            hash_seed=0,
            hdrf_lambda=1.1,
            cost=CostCounter(),
            n_workers=2,
            sync_interval=32,
            part=np.zeros(n, dtype=np.int32),
            weights=np.ones((n, 2), dtype=np.int64),
            state=PartitionState(n, 4, m, 1.05),
            assignments=np.full(m, -1, dtype=np.int32),
        )
        session = make_runner("process").open(job)
        try:
            session.bind_phase2()
            # Worker 0 runs in this process: one socket, one process, and
            # the copy of the stream it inherited is no segment.
            assert len(live_connections()) == len(live_worker_processes()) == 1
            assert not shared_memory_made
        finally:
            session.close()
        session.close()
        assert not shared_memory_made
        assert not live_connections() and not live_worker_processes()
        assert not multiprocessing.active_children()

    def test_reports_its_wire_traffic(self, community_graph):
        """A process run reports its loopback workers' socket traffic;
        the in-process runner has none."""
        runs = {
            runner: ParallelTwoPhase(
                n_workers=2, sync_interval=64, runner=runner
            ).partition(community_graph, 4)
            for runner in ("process", "simulated")
        }
        assert_bit_exact(runs["simulated"], runs["process"])
        assert runs["process"].extras["runner"] == "process"
        stats = runs["process"].extras["wire"]
        assert stats["bytes_sent"] > 0 and stats["bytes_received"] > 0
        assert 0 < stats["barrier_plane_bytes"] < stats["barrier_full_bytes"]
        assert "wire" not in runs["simulated"].extras


@needs_fork
@LAYOUTS
@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("parallel_phase1", [False, True])
def test_state_bytes_agree_across_runners(
    packed, n_workers, parallel_phase1, shared_memory_made
):
    """Every runner reports the worker views' own bytes, the cells its
    barriers' logs wrote against full re-broadcasts, and the passes its
    workers streamed over the job's stream.  Worker 0's view is the
    global state in each, so a lone worker holds no view or log — its
    run reports the sequential run's 43,604 bytes (29,240 packed): the
    state and the Phase-1 arrays — and its barriers log nothing.  A
    whole-stream window is a full pass: the degree window of a lone
    worker, and both passes of a serial Phase 1; 256-edge windows are
    not.  At |V| = 513 a packed plane (4 bytes per row at k=32) ends 4
    bytes off an 8-byte boundary, so a count that pads each view to 8
    bytes disagrees."""
    rng = np.random.default_rng(5)
    graph = Graph(rng.integers(0, 513, size=(3000, 2)), 513)
    reports = {}
    for runner in ("simulated", "process"):
        stream = InMemoryEdgeStream(graph)
        result = ParallelTwoPhase(
            n_workers=n_workers,
            sync_interval=256,
            runner=runner,
            packed_state=packed,
            parallel_phase1=parallel_phase1,
        ).partition(stream, 32)
        reports[runner] = (
            result.state_bytes,
            result.extras["barrier_bytes"],
            result.extras["barrier_bytes_full"],
            stream.stats.passes,
        )
    assert len(set(reports.values())) == 1, reports
    passes = 2 if not parallel_phase1 else int(n_workers == 1)
    assert reports["simulated"][3] == passes
    if n_workers == 1:
        sequential = TwoPhasePartitioner(packed_state=packed).partition(graph, 32)
        assert sequential.state_bytes == (29_240 if packed else 43_604)
        assert reports["simulated"][:3] == (sequential.state_bytes, 0, 0)
    assert not shared_memory_made


_EXPORTS_OUTLIVE_CLOSE = """
import zlib

import numpy as np

from repro.core import ParallelTwoPhase
from repro.core.distributed import live_connections, live_worker_processes
from repro.errors import PartitioningError
from repro.graph import Graph
from repro.kernels import get_backend

kernels = get_backend("python")
checksums = {}


def failing_merge(v2c, volumes, exports, degrees):
    for moves, _ in exports:
        checksums[id(moves)] = zlib.crc32(moves.tobytes())
    raise PartitioningError("injected clustering-merge failure")


kernels.merge_phase1_clustering = failing_merge
rng = np.random.default_rng(1)
graph = Graph(rng.integers(0, 400, size=(3000, 2)), 400)
try:
    ParallelTwoPhase(
        n_workers=2, sync_interval=256, runner="process",
        parallel_phase1=True, backend="python",
    ).partition(graph, 4)
except PartitioningError as exc:
    tb = exc.__traceback__
assert not live_connections() and not live_worker_processes(), (
    "the session did not close"
)


def arrays(value, depth=0):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)) and depth < 3:
        for item in value:
            yield from arrays(item, depth + 1)


checked = 0
while tb is not None:
    for value in list(tb.tb_frame.f_locals.values()):
        for array in arrays(value):
            if id(array) in checksums:
                assert zlib.crc32(array.tobytes()) == checksums[id(array)]
                checked += 1
    tb = tb.tb_next
assert checked >= 4, checked
print("exports intact:", checked)
"""


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
def test_clustering_exports_outlive_the_session():
    """When the clustering merge raises, the exports its traceback holds
    must still read as they did, after the session has closed and
    released everything it held.  Run in a child: an export that viewed
    memory the session released (a frame buffer, say) could crash the
    interpreter reading it."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _EXPORTS_OUTLIVE_CLOSE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "exports intact" in proc.stdout


class TestOutOfCore:
    def test_parallel_never_materializes(
        self, tmp_path, community_graph, monkeypatch
    ):
        """The out-of-core regression fixed by the shard-window iterator:
        the parallel path must not pull the whole edge array into memory."""
        path = tmp_path / "g.bin"
        write_binary_edge_list(community_graph, path)
        stream = FileEdgeStream(path, n_vertices=community_graph.n_vertices)

        def boom(self):
            raise AssertionError("parallel path called materialize()")

        monkeypatch.setattr(type(stream), "materialize", boom)
        result = ParallelTwoPhase(n_workers=4, sync_interval=32).partition(
            stream, 8
        )
        assert result.assignments.min() >= 0

    def test_process_runner_never_materializes(
        self, tmp_path, community_graph, monkeypatch, shared_memory_made
    ):
        """File streams reopen from a picklable spec in every worker, so
        the true multi-process path stays out-of-core too."""
        path = tmp_path / "g.bin"
        write_binary_edge_list(community_graph, path)
        stream = FileEdgeStream(path, n_vertices=community_graph.n_vertices)

        def boom(self):
            raise AssertionError("process runner called materialize()")

        monkeypatch.setattr(type(stream), "materialize", boom)
        result = ParallelTwoPhase(
            n_workers=2, sync_interval=32, runner="process"
        ).partition(stream, 8)
        assert result.assignments.min() >= 0
        assert not shared_memory_made
        assert not live_connections() and not live_worker_processes()

    def test_window_chunks_bound_memory(self, tmp_path, community_graph):
        """No window chunk may exceed the configured chunk size, so the
        resident set is O(n_workers * chunk + sync_interval), not O(|E|)."""
        path = tmp_path / "g.bin"
        write_binary_edge_list(community_graph, path)
        stream = FileEdgeStream(path, n_vertices=community_graph.n_vertices)
        observed = []
        original = type(stream)._window_iter

        def spy(self, start, stop, chunk_size):
            for chunk in original(self, start, stop, chunk_size):
                observed.append(chunk.shape[0])
                yield chunk

        stream._window_iter = spy.__get__(stream)
        ParallelTwoPhase(n_workers=4, sync_interval=64).partition(
            stream, 8, chunk_size=128
        )
        assert observed, "shard windows were never used"
        assert max(observed) <= 128

    def test_parallel_quality_still_reasonable(self, social_graph):
        """Kernel routing must not regress staleness behaviour: 4 stale
        workers stay within a band of the sequential quality."""
        par = ParallelTwoPhase(n_workers=4, sync_interval=256).partition(
            social_graph, 8
        )
        seq = TwoPhasePartitioner().partition(social_graph, 8)
        assert par.replication_factor < seq.replication_factor * 1.3
