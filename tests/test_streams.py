"""Unit tests for edge streams (in-memory, file-backed) and I/O stats."""

import numpy as np
import pytest

from repro.errors import PartitioningError, StreamError
from repro.graph import Graph
from repro.graph.degrees import compute_degrees, compute_degrees_from_stream
from repro.graph.formats import write_binary_edge_list
from repro.graph.generators import rmat_graph
from repro.storage import ssd_device
from repro.streaming import FileEdgeStream, InMemoryEdgeStream
from repro.streaming.stream import (
    EdgeStream,
    as_stream,
    make_stream_spec,
    spec_from_wire,
    spec_to_wire,
)
from tests.conftest import ALL_PARTITIONER_FACTORIES


class OpaqueStream(EdgeStream):
    """No random access: only the ``chunks()`` protocol, over ``graph``'s
    edges."""

    def __init__(self, graph) -> None:
        super().__init__()
        self._graph = graph

    @property
    def n_edges(self):
        return self._graph.n_edges

    @property
    def n_vertices(self):
        return self._graph.n_vertices

    def chunks(self, chunk_size=None):
        size = self._resolve_chunk_size(chunk_size)
        yield from InMemoryEdgeStream(self._graph).chunks(size)


class TestInMemoryStream:
    def test_full_pass_covers_all_edges(self, powerlaw_graph):
        stream = InMemoryEdgeStream(powerlaw_graph)
        total = sum(chunk.shape[0] for chunk in stream.chunks(chunk_size=64))
        assert total == powerlaw_graph.n_edges

    def test_chunks_preserve_order(self):
        g = Graph([(i, i + 1) for i in range(100)])
        stream = InMemoryEdgeStream(g)
        collected = np.concatenate(list(stream.chunks(chunk_size=7)))
        assert np.array_equal(collected, g.edges)

    def test_reiterable(self, powerlaw_graph):
        stream = InMemoryEdgeStream(powerlaw_graph)
        first = sum(c.shape[0] for c in stream.chunks())
        second = sum(c.shape[0] for c in stream.chunks())
        assert first == second == powerlaw_graph.n_edges
        assert stream.stats.passes == 2

    def test_edges_iterator(self, toy_graph):
        stream = InMemoryEdgeStream(toy_graph)
        assert list(stream.edges()) == [tuple(e) for e in toy_graph.edges.tolist()]

    def test_from_bare_array(self):
        stream = InMemoryEdgeStream(np.array([[0, 1], [1, 2]]), n_vertices=3)
        assert stream.n_edges == 2
        assert stream.n_vertices == 3

    def test_rejects_bad_array(self):
        with pytest.raises(StreamError):
            InMemoryEdgeStream(np.zeros((2, 3)))

    def test_rejects_bad_chunk_size(self, toy_graph):
        stream = InMemoryEdgeStream(toy_graph)
        with pytest.raises(StreamError):
            list(stream.chunks(chunk_size=0))

    def test_stats_bytes(self, toy_graph):
        stream = InMemoryEdgeStream(toy_graph)
        list(stream.chunks())
        assert stream.stats.bytes_read == toy_graph.n_edges * 8
        assert stream.stats.edges_read == toy_graph.n_edges

    def test_materialize(self, community_graph):
        stream = InMemoryEdgeStream(community_graph)
        g = stream.materialize()
        assert np.array_equal(g.edges, community_graph.edges)


class TestFileStream:
    @pytest.fixture
    def graph_file(self, tmp_path, powerlaw_graph):
        path = tmp_path / "g.bin"
        write_binary_edge_list(powerlaw_graph, path)
        return path

    def test_matches_source(self, graph_file, powerlaw_graph):
        stream = FileEdgeStream(graph_file)
        loaded = np.concatenate(list(stream.chunks(chunk_size=97)))
        assert np.array_equal(loaded, powerlaw_graph.edges)

    def test_knows_edge_count_without_reading(self, graph_file, powerlaw_graph):
        stream = FileEdgeStream(graph_file)
        assert stream.n_edges == powerlaw_graph.n_edges
        assert stream.stats.bytes_read == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(StreamError):
            FileEdgeStream(tmp_path / "nope.bin")

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01" * 12)
        with pytest.raises(StreamError):
            FileEdgeStream(path)

    def test_multiple_passes(self, graph_file, powerlaw_graph):
        stream = FileEdgeStream(graph_file)
        for _ in range(3):
            assert sum(c.shape[0] for c in stream.chunks()) == powerlaw_graph.n_edges
        assert stream.stats.passes == 3
        assert stream.stats.edges_read == 3 * powerlaw_graph.n_edges

    def test_device_charges_simulated_time(self, graph_file):
        device = ssd_device()
        stream = FileEdgeStream(graph_file, device=device)
        list(stream.chunks())
        expected = stream.stats.bytes_read / 938_000_000.0
        assert stream.stats.simulated_read_seconds == pytest.approx(expected)
        assert device.clock.elapsed == pytest.approx(expected)

    def test_rejects_bad_chunk_size(self, graph_file):
        with pytest.raises(StreamError):
            list(FileEdgeStream(graph_file).chunks(chunk_size=-1))


class TestPrefetchStream:
    """Double-buffered prefetching ``FileEdgeStream`` (out-of-core tier).

    The contract (see ``repro.streaming.stream``): a prefetching stream
    yields the identical chunk sequence, IOStats and device charges as
    the synchronous stream — accounting happens on the consumer side —
    and reader-thread failures surface in the consumer, not in a dead
    background thread.
    """

    @pytest.fixture
    def graph_file(self, tmp_path, powerlaw_graph):
        path = tmp_path / "pf.bin"
        write_binary_edge_list(powerlaw_graph, path)
        return path

    def test_chunks_match_sync(self, graph_file):
        sync = list(FileEdgeStream(graph_file).chunks(chunk_size=97))
        pre = list(
            FileEdgeStream(graph_file, prefetch=True).chunks(chunk_size=97)
        )
        assert len(pre) == len(sync)
        for a, b in zip(sync, pre):
            assert np.array_equal(a, b)

    def test_window_matches_sync(self, graph_file):
        sync = list(FileEdgeStream(graph_file).window(7, 301, chunk_size=13))
        pre = list(
            FileEdgeStream(graph_file, prefetch=True).window(
                7, 301, chunk_size=13
            )
        )
        assert len(pre) == len(sync)
        for a, b in zip(sync, pre):
            assert np.array_equal(a, b)

    def test_iostats_match_sync(self, graph_file):
        sync = FileEdgeStream(graph_file)
        pre = FileEdgeStream(graph_file, prefetch=True)
        for _ in range(2):
            list(sync.chunks(chunk_size=64))
            list(pre.chunks(chunk_size=64))
        assert pre.stats.passes == sync.stats.passes
        assert pre.stats.edges_read == sync.stats.edges_read
        assert pre.stats.bytes_read == sync.stats.bytes_read

    def test_device_charges_match_sync(self, graph_file):
        dev_sync = ssd_device()
        dev_pre = ssd_device()
        list(FileEdgeStream(graph_file, device=dev_sync).chunks())
        list(
            FileEdgeStream(graph_file, device=dev_pre, prefetch=True).chunks()
        )
        assert dev_pre.clock.elapsed == pytest.approx(dev_sync.clock.elapsed)
        assert dev_pre.clock.elapsed > 0

    def test_early_close_does_not_hang(self, graph_file):
        """Abandoning a pass mid-stream must stop and join the reader
        thread (generator ``finally``), leaving the stream reusable."""
        stream = FileEdgeStream(graph_file, prefetch=True)
        it = stream.chunks(chunk_size=8)
        next(it)
        it.close()
        total = sum(c.shape[0] for c in stream.chunks(chunk_size=64))
        assert total == stream.n_edges

    def test_reader_errors_propagate(self, tmp_path, powerlaw_graph):
        path = tmp_path / "trunc.bin"
        write_binary_edge_list(powerlaw_graph, path)
        stream = FileEdgeStream(path, prefetch=True)
        # Corrupt the file *after* construction-time validation: the
        # background reader hits the short read and the consumer must
        # re-raise its StreamError instead of ending the pass quietly.
        with open(path, "r+b") as fh:
            fh.truncate(powerlaw_graph.n_edges * 8 - 4)
        with pytest.raises(StreamError, match="truncated"):
            list(stream.chunks(chunk_size=32))

    def test_spec_round_trip_carries_prefetch(self, graph_file, powerlaw_graph):
        import pickle

        stream = FileEdgeStream(graph_file, prefetch=True)
        spec = make_stream_spec(stream)
        reopened = pickle.loads(pickle.dumps(spec)).open()
        assert reopened.prefetch is True
        assert np.array_equal(
            np.concatenate(list(reopened.chunks())), powerlaw_graph.edges
        )


class TestAsStream:
    def test_graph_coerced(self, toy_graph):
        stream = as_stream(toy_graph)
        assert stream.n_edges == toy_graph.n_edges

    def test_stream_passthrough(self, toy_graph):
        stream = InMemoryEdgeStream(toy_graph)
        assert as_stream(stream) is stream


class TestDegreesFromStream:
    def test_matches_in_memory(self, powerlaw_graph):
        stream = InMemoryEdgeStream(powerlaw_graph)
        deg = compute_degrees_from_stream(stream)
        assert np.array_equal(deg, compute_degrees(powerlaw_graph))

    def test_grows_without_hint(self):
        stream = InMemoryEdgeStream(np.array([[0, 9]]))
        deg = compute_degrees_from_stream(stream)
        assert deg.shape[0] >= 10
        assert deg[0] == 1
        assert deg[9] == 1

    def test_respects_hint(self, toy_graph):
        stream = InMemoryEdgeStream(toy_graph)
        deg = compute_degrees_from_stream(stream, n_vertices=8)
        assert deg.shape == (8,)

    def test_from_file(self, tmp_path, community_graph):
        path = tmp_path / "g.bin"
        write_binary_edge_list(community_graph, path)
        deg = compute_degrees_from_stream(FileEdgeStream(path))
        assert deg.sum() == 2 * community_graph.n_edges


class TestShardWindows:
    """The shard-window iterator behind the parallel partitioner."""

    @pytest.fixture
    def graph_file(self, tmp_path, powerlaw_graph):
        path = tmp_path / "g.bin"
        write_binary_edge_list(powerlaw_graph, path)
        return path

    @pytest.mark.parametrize("bounds", [(0, 10), (5, 5), (0, 0), (7, 4000)])
    def test_in_memory_window_matches_slice(self, powerlaw_graph, bounds):
        start, stop = bounds
        stream = InMemoryEdgeStream(powerlaw_graph)
        parts = list(stream.window(start, stop, chunk_size=13))
        collected = (
            np.concatenate(parts)
            if parts
            else np.empty((0, 2), dtype=np.int64)
        )
        assert np.array_equal(collected, powerlaw_graph.edges[start:stop])

    @pytest.mark.parametrize("bounds", [(0, 10), (5, 5), (7, 4000)])
    def test_file_window_matches_slice(self, graph_file, powerlaw_graph, bounds):
        start, stop = bounds
        stream = FileEdgeStream(graph_file)
        parts = list(stream.window(start, stop, chunk_size=13))
        collected = (
            np.concatenate(parts)
            if parts
            else np.empty((0, 2), dtype=np.int64)
        )
        assert np.array_equal(collected, powerlaw_graph.edges[start:stop])

    def test_base_class_window_replays_chunks(self, powerlaw_graph):
        """A stream without random access still windows correctly."""
        from repro.streaming import EdgeStream

        inner = InMemoryEdgeStream(powerlaw_graph)

        class OpaqueStream(EdgeStream):
            @property
            def n_edges(self):
                return inner.n_edges

            @property
            def n_vertices(self):
                return inner.n_vertices

            def chunks(self, chunk_size=None):
                return inner.chunks(chunk_size)

        stream = OpaqueStream()
        collected = np.concatenate(list(stream.window(11, 222, chunk_size=17)))
        assert np.array_equal(collected, powerlaw_graph.edges[11:222])

    def test_windows_cover_stream_exactly(self, powerlaw_graph):
        stream = InMemoryEdgeStream(powerlaw_graph)
        m = stream.n_edges
        cuts = [0, m // 3, m // 2, m]
        parts = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            parts.extend(stream.window(lo, hi))
        assert np.array_equal(np.concatenate(parts), powerlaw_graph.edges)

    def test_interleaved_windows_are_independent(self, graph_file, powerlaw_graph):
        """Concurrent shard readers do not disturb each other."""
        stream = FileEdgeStream(graph_file)
        m = stream.n_edges
        half = m // 2
        a = stream.window(0, half, chunk_size=19)
        b = stream.window(half, m, chunk_size=23)
        parts_a, parts_b = [], []
        exhausted_a = exhausted_b = False
        while not (exhausted_a and exhausted_b):
            chunk = next(a, None)
            if chunk is None:
                exhausted_a = True
            else:
                parts_a.append(chunk)
            chunk = next(b, None)
            if chunk is None:
                exhausted_b = True
            else:
                parts_b.append(chunk)
        collected = np.concatenate(parts_a + parts_b)
        assert np.array_equal(collected, powerlaw_graph.edges)

    def test_window_respects_default_chunk_size(self, powerlaw_graph):
        stream = InMemoryEdgeStream(powerlaw_graph)
        stream.default_chunk_size = 11
        sizes = [c.shape[0] for c in stream.window(0, 100)]
        assert max(sizes) <= 11

    @pytest.mark.parametrize("bounds", [(-1, 5), (5, 3), (0, 10**9)])
    def test_invalid_window_rejected(self, powerlaw_graph, bounds):
        stream = InMemoryEdgeStream(powerlaw_graph)
        with pytest.raises(StreamError):
            stream.window(*bounds)

    def test_file_window_charges_device(self, graph_file):
        device = ssd_device()
        stream = FileEdgeStream(graph_file, device=device)
        list(stream.window(0, 50, chunk_size=10))
        assert stream.stats.simulated_read_seconds > 0


class TestStreamSpecs:
    """Picklable stream specs: reopen the same edges in another process."""

    @pytest.fixture
    def graph_file(self, tmp_path, powerlaw_graph):
        path = tmp_path / "spec.bin"
        write_binary_edge_list(powerlaw_graph, path)
        return path

    def test_file_spec_round_trip(self, graph_file, powerlaw_graph):
        import pickle

        stream = FileEdgeStream(graph_file, n_vertices=powerlaw_graph.n_vertices)
        stream.default_chunk_size = 33
        spec = make_stream_spec(stream)
        reopened = pickle.loads(pickle.dumps(spec)).open()
        assert isinstance(reopened, FileEdgeStream)
        assert reopened.default_chunk_size == 33
        assert reopened.n_vertices == powerlaw_graph.n_vertices
        assert np.array_equal(
            np.concatenate(list(reopened.chunks())), powerlaw_graph.edges
        )
        # The spec crosses the wire as tagged plain fields.
        assert spec_from_wire(spec_to_wire(spec)) == spec

    def test_only_a_file_has_a_spec(self, powerlaw_graph):
        """Only a file reopens in another process: forked workers
        inherit any other stream, and nothing else has a wire kind."""
        for stream in (
            InMemoryEdgeStream(powerlaw_graph),
            OpaqueStream(powerlaw_graph),
        ):
            with pytest.raises(StreamError, match="no stream spec"):
                make_stream_spec(stream)
        fields = {"kind": "shared-array", "n_edges": 3, "chunk_size": 8}
        with pytest.raises(StreamError, match="unknown stream-spec kind"):
            spec_from_wire(fields)

    def test_generic_stream_is_snapshotted(self, powerlaw_graph):
        """A stream without random access reaches forked workers as one
        private in-memory copy, read once through its ``chunks()``, with
        its vertex count and chunk size."""
        from repro.core.distributed import _forked_stream

        stream = OpaqueStream(powerlaw_graph)
        stream.default_chunk_size = 33
        copy = _forked_stream(stream)
        assert type(copy) is InMemoryEdgeStream
        assert copy.n_vertices == powerlaw_graph.n_vertices
        assert copy.default_chunk_size == 33
        assert np.array_equal(
            np.concatenate(list(copy.chunks())), powerlaw_graph.edges
        )
        assert np.array_equal(
            np.concatenate(list(copy.window(5, 105))), powerlaw_graph.edges[5:105]
        )


class TestChunkSizeArgument:
    """``chunk_size`` is a positive int or ``None`` on every algorithm;
    strings are refused, and no accepted size changes a result."""

    def test_partition_rejects_other_strings(self, powerlaw_graph):
        from repro.core import TwoPhasePartitioner

        for value in ("huge", "auto"):
            with pytest.raises(PartitioningError, match="positive int"):
                TwoPhasePartitioner().partition(
                    powerlaw_graph, 4, chunk_size=value
                )

    @pytest.mark.parametrize("name", sorted(ALL_PARTITIONER_FACTORIES))
    def test_every_algorithm_refuses_auto_and_non_positive_sizes(self, name):
        make = ALL_PARTITIONER_FACTORIES[name]
        graph = Graph([(0, 1), (1, 2), (2, 0)], 3)
        for value in ("auto", 0, -3):
            with pytest.raises(PartitioningError, match="positive int"):
                make().partition(graph, 2, chunk_size=value)

    @pytest.mark.parametrize("name", sorted(ALL_PARTITIONER_FACTORIES))
    def test_every_algorithm_gives_one_result_at_any_size(self, name):
        """Chunks of one edge, of seven, and one chunk far beyond |E|
        give the result of the stream's own default."""
        make = ALL_PARTITIONER_FACTORIES[name]
        graph = rmat_graph(8, edge_factor=6, seed=5)
        base = make().partition(graph, 6)
        for chunk_size in (1, 7, 10**6):
            out = make().partition(graph, 6, chunk_size=chunk_size)
            np.testing.assert_array_equal(out.assignments, base.assignments)
            np.testing.assert_array_equal(out.state.sizes, base.state.sizes)
            np.testing.assert_array_equal(
                np.asarray(out.state.replicas), np.asarray(base.state.replicas)
            )
