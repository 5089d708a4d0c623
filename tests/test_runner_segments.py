"""The process runner's shared segments: layouts, attach and lifecycle.

A process session keeps its state in at most three segments: the edge
copy of an in-memory stream, the Phase-1 clustering scratch and one
Phase-2 segment (assignments, ``part``/``weights`` and every worker's
state view and set-bit log).  Each of the last two is laid out by one function over a
``_BufferArena``, which sizes the segment, creates it in the parent and
attaches it in every worker.  Pinned here: what an attacher sees, the
typed errors of a bad attach, how many segments a session holds, and
that every runner reports the worker views' bytes alike.
"""

import multiprocessing
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import ParallelTwoPhase
from repro.core import runners as runners_module
from repro.core.runners import (
    ShardedJob,
    _BufferArena,
    _cluster_layout,
    _map_segment,
    _phase2_layout,
    _release_segment,
    live_shared_segments,
    make_runner,
)
from repro.errors import PartitioningError
from repro.graph import Graph
from repro.kernels.base import ReplicaLog
from repro.metrics.runtime import CostCounter
from repro.partitioning.state import PackedReplicaMatrix, PartitionState
from repro.streaming import InMemoryEdgeStream
from tests.conftest import state_bytes

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)

LAYOUTS = pytest.mark.parametrize("packed", [False, True], ids=["dense", "packed"])


def _phase2_args(packed, n=9, k=11, n_edges=20, n_workers=2):
    """Phase-2 layout arguments; odd ``n`` and ``k`` leave every packed
    row a partial last byte and every plane off an 8-byte boundary, and
    each log holds the ``2 * n_edges`` bits a window of them can set."""
    return (n_edges, n, k, 1.2, n_workers, packed, 2 * n_edges)


class _Segments:
    """Segments a test creates or attaches, closed at teardown (after the
    test's own arrays over them are gone)."""

    def __init__(self):
        self.created = []
        self.attached = []

    def create(self, layout, args):
        shm, arrays = _map_segment(layout, args)
        self.created.append(shm)
        return shm, arrays

    def attach(self, layout, args, name):
        shm, arrays = _map_segment(layout, args, name)
        self.attached.append(shm)
        return arrays


@pytest.fixture
def segments():
    owned = _Segments()
    yield owned
    for shm in owned.attached:
        shm.close()
    for shm in owned.created:
        _release_segment(shm)
    assert not live_shared_segments()


class TestLayouts:
    @LAYOUTS
    def test_attacher_sees_parent_writes(self, segments, packed):
        args = _phase2_args(packed)
        shm, (assignments, (part, weights), views, logs) = segments.create(
            _phase2_layout, args
        )
        w_assignments, (w_part, w_weights), w_views, w_logs = segments.attach(
            _phase2_layout, args, shm.name
        )
        assert isinstance(w_views[0].replicas, PackedReplicaMatrix) == packed
        assignments[3] = 7
        part[:] = np.arange(9)
        weights[:, 1] = 5
        views[1].scatter_edges([0, 8], [2, 3], [10, 4])
        for cell in (10, 2 * 11 + 10, 8 * 11 + 4, 3 * 11 + 4):
            logs[1].append(cell)
        w_views[0].scatter_edges([5], [6], [1])  # and the other way
        for cell in (5 * 11 + 1, 6 * 11 + 1):
            w_logs[0].append(cell)

        assert w_assignments[3] == 7
        np.testing.assert_array_equal(w_part, np.arange(9))
        np.testing.assert_array_equal(w_weights[:, 1], np.full(9, 5))
        for view, w_view in zip(views, w_views):
            assert state_bytes(w_view) == state_bytes(view)
            assert w_view.capacity == view.capacity
        for log, w_log in zip(logs, w_logs):
            np.testing.assert_array_equal(w_log.entries(), log.entries())
        assert w_views[1].replicas[0, 10] and w_views[1].replicas[8, 4]
        assert w_views[1].sizes.tolist() == [0] * 4 + [1] + [0] * 5 + [1]
        assert w_logs[1].entries().tolist() == [10, 32, 92, 37]
        assert logs[0].entries().tolist() == [56, 67]
        assert views[0].replicas[5, 1] and views[0].sizes[1] == 1
        assert not views[1].replicas[5, 1], "views must not overlap"

    @LAYOUTS
    def test_fresh_segment_starts_zeroed(self, segments, packed):
        _, (assignments, (part, weights), views, logs) = segments.create(
            _phase2_layout, _phase2_args(packed)
        )
        assert not (assignments.any() or part.any() or weights.any())
        for view, log in zip(views, logs):
            assert not view.replicas.any() and not view.sizes.any()
            assert len(log.entries()) == 0 and log.cells.shape == (40,)
        _, (degrees, slots) = segments.create(_cluster_layout, (9, 10, 2))
        assert not degrees.any()
        assert not any(array.any() for slot in slots for array in slot)

    def test_sizing_pass_takes_no_memory_and_aligns(self):
        arena = _BufferArena()
        plane = arena((3, 3), bool)
        arena(3, np.int64)
        # 9 plane bytes rounded up to int64 alignment, then 3 sizes
        assert arena.nbytes == 16 + 24
        assert plane.strides == (0, 0) and not plane.flags.writeable

    def test_segment_is_sized_by_its_layout(self, segments):
        needs = {}
        for packed in (False, True):
            sizing = _BufferArena()
            _phase2_layout(sizing, *_phase2_args(packed))
            needs[packed] = sizing.nbytes
            shm, _ = segments.create(_phase2_layout, _phase2_args(packed))
            assert shm.size >= sizing.nbytes
        assert needs[True] < needs[False]

    def test_views_are_ordinary_states(self):
        (_, _, views, logs) = _phase2_layout(_BufferArena(), *_phase2_args(True))
        heap = PartitionState(9, 11, 20, 1.2, packed=True)
        assert [view.nbytes() for view in views] == [heap.nbytes()] * 2
        assert [log.nbytes() for log in logs] == [ReplicaLog(40).nbytes()] * 2


class TestAttach:
    def test_unknown_name_raises(self):
        with pytest.raises(PartitioningError, match="no shared segment"):
            _map_segment(
                _phase2_layout, _phase2_args(False), "repro-no-such-segment"
            )

    def test_released_segment_is_gone(self):
        shm, arrays = _map_segment(_cluster_layout, (4, 5, 2))
        name = shm.name
        assert name in live_shared_segments()
        del arrays
        _release_segment(shm)
        assert name not in live_shared_segments()
        with pytest.raises(PartitioningError, match="no shared segment"):
            _map_segment(_cluster_layout, (4, 5, 2), name)

    def test_undersized_segment_raises(self, segments):
        shm, _ = segments.create(_phase2_layout, _phase2_args(False, n=4, k=2))
        with pytest.raises(PartitioningError, match="holds"):
            segments.attach(
                _phase2_layout, _phase2_args(False, n=4096, k=64), shm.name
            )


class _RecordingSet(set):
    """``_LIVE_SEGMENTS`` stand-in: remembers every name it was given and
    the most names it held at once."""

    def __init__(self):
        super().__init__()
        self.ever = []
        self.peak = 0

    def add(self, name):
        super().add(name)
        self.ever.append(name)
        self.peak = max(self.peak, len(self))


@needs_fork
class TestSessionSegments:
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_one_segment_per_phase(self, n_workers, community_graph, monkeypatch):
        """Parallel Phase 1 over an in-memory stream: the edge copy, the
        clustering scratch and the Phase-2 segment, the scratch gone
        before the Phase-2 segment exists, whatever the worker count."""
        recorder = _RecordingSet()
        monkeypatch.setattr(runners_module, "_LIVE_SEGMENTS", recorder)
        ParallelTwoPhase(
            n_workers=n_workers,
            sync_interval=64,
            runner="process",
            parallel_phase1=True,
        ).partition(community_graph, 4)
        assert len(set(recorder.ever)) == len(recorder.ever) == 3
        assert recorder.peak == 2
        assert not recorder, "segments left registered"
        for name in recorder.ever:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name, create=False)

    def test_close_is_idempotent(self, community_graph):
        m = community_graph.n_edges
        n = community_graph.n_vertices
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
            part=np.zeros(n, dtype=np.int32),
            weights=np.ones((n, 2), dtype=np.int64),
            state=PartitionState(n, 4, m, 1.05),
            assignments=np.full(m, -1, dtype=np.int32),
        )
        session = make_runner("process").open(job)
        try:
            session.bind_phase2()
            assert len(live_shared_segments()) == 2
        finally:
            session.close()
        session.close()
        assert not live_shared_segments()
        assert session.transport.views == []


@needs_fork
@LAYOUTS
def test_state_bytes_agree_across_runners(packed):
    """Every runner reports the worker views' own bytes.  At |V| = 513 a
    packed plane (4 bytes per row at k=32) ends 4 bytes off an 8-byte
    boundary, so a count that pads each view to 8 bytes disagrees."""
    rng = np.random.default_rng(5)
    graph = Graph(rng.integers(0, 513, size=(3000, 2)), 513)
    reports = {
        runner: ParallelTwoPhase(
            n_workers=2, sync_interval=256, runner=runner, packed_state=packed
        )
        .partition(graph, 32)
        .state_bytes
        for runner in ("simulated", "process", "distributed")
    }
    assert len(set(reports.values())) == 1, reports
    assert not live_shared_segments()
