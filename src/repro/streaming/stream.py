"""Edge-stream abstractions.

A stream delivers the graph as consecutive numpy chunks of shape ``(c, 2)``.
Streams are *re-iterable*: every call to :meth:`EdgeStream.chunks` starts a
fresh pass from the beginning, which is exactly the re-streaming model of the
paper (degree pass, clustering pass(es), two partitioning passes).

Two implementations are provided:

- :class:`InMemoryEdgeStream` slices a materialized edge array.  This models
  the paper's "page cache" runs, where the OS has the file cached and I/O is
  effectively free.
- :class:`FileEdgeStream` reads a binary edge-list file in chunks without
  ever holding the full edge set in memory — the true out-of-core path.  It
  can charge a simulated :class:`~repro.storage.devices.StorageDevice` for
  every byte so the Table V experiment can compare page cache vs SSD vs HDD.

Prefetching and I/O accounting
------------------------------
``FileEdgeStream(..., prefetch=True)`` double-buffers file reads: a
background thread reads and decodes chunk ``i+1`` while the kernels consume
chunk ``i`` (up to :data:`PREFETCH_DEPTH` chunks in flight), overlapping
real file I/O with compute.  The accounting contract is unchanged by
design: **device charging and ``IOStats`` recording happen on the consumer
side, immediately before each chunk is yielded**, so a prefetching stream
produces bit-identical stats and simulated-clock charges to a synchronous
one for any consumed prefix — only the chunk *contents* travel through the
reader thread.  The equivalence (same chunks, same stats, reader errors
propagate) is pinned in ``tests/test_streams.py`` and end-to-end by the
differential harness's out-of-core tier.
"""

from __future__ import annotations

import os
import queue
import threading
from abc import ABC, abstractmethod
from contextlib import closing
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import StreamError
from repro.graph.formats import BYTES_PER_EDGE
from repro.graph.graph import Graph
from repro.streaming.iostats import IOStats

#: Default edges per chunk; large enough to amortize numpy overhead, small
#: enough that a chunk is negligible against the memory budget.
DEFAULT_CHUNK_SIZE = 65_536

#: Chunks a prefetching :class:`FileEdgeStream` may hold in flight: the one
#: being consumed plus one being read ahead (double buffering).
PREFETCH_DEPTH = 2


class EdgeStream(ABC):
    """Protocol for a re-iterable out-of-core edge stream.

    Every stream carries a mutable :attr:`default_chunk_size` so callers
    that own the stream (e.g. ``EdgePartitioner.partition(...,
    chunk_size=...)``) can tune the chunk granularity of *every* pass
    without threading a parameter through each ``chunks()`` call site.
    """

    def __init__(self) -> None:
        self.stats = IOStats()
        #: Chunk size used when ``chunks()`` is called without an explicit
        #: override; per-run tunable (see class docstring).
        self.default_chunk_size = DEFAULT_CHUNK_SIZE

    def _resolve_chunk_size(self, chunk_size: int | None) -> int:
        resolved = (
            self.default_chunk_size if chunk_size is None else chunk_size
        )
        if resolved <= 0:
            raise StreamError(f"chunk_size must be positive, got {resolved}")
        return int(resolved)

    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def n_edges(self) -> int:
        """Total number of edges in one full pass."""

    @property
    @abstractmethod
    def n_vertices(self) -> int | None:
        """Vertex count if known, else ``None`` (derive with a degree pass)."""

    @abstractmethod
    def chunks(self, chunk_size: int | None = None) -> Iterator[np.ndarray]:
        """Yield ``(c, 2)`` int64 chunks covering one full pass, in order.

        ``chunk_size=None`` (the default) uses :attr:`default_chunk_size`.
        """

    # ------------------------------------------------------------------
    def window(
        self, start: int, stop: int, chunk_size: int | None = None
    ) -> Iterator[np.ndarray]:
        """Yield ``(c, 2)`` chunks covering stream positions ``[start, stop)``.

        The shard-window iterator behind the parallel partitioner: each
        worker reads only its contiguous slice of the stream order, so an
        out-of-core stream never needs to materialize the full edge array.
        Several windows of the same stream may be consumed concurrently
        (interleaved), each holding at most one chunk in memory.

        This base implementation replays :meth:`chunks` and slices — one
        full (lazy) pass per window.  Streams with random access override
        it: :class:`InMemoryEdgeStream` slices the edge array directly,
        :class:`FileEdgeStream` seeks to the window's byte offset.

        Raises
        ------
        StreamError
            If ``[start, stop)`` is not within ``[0, n_edges]``.
        """
        start, stop = self._validate_window(start, stop)
        return self._window_iter(start, stop, chunk_size)

    def _validate_window(self, start: int, stop: int) -> tuple[int, int]:
        start, stop = int(start), int(stop)
        if not 0 <= start <= stop <= self.n_edges:
            raise StreamError(
                f"invalid window [{start}, {stop}) for a stream of "
                f"{self.n_edges} edges"
            )
        return start, stop

    def _window_iter(
        self, start: int, stop: int, chunk_size: int | None
    ) -> Iterator[np.ndarray]:
        if start == stop:
            return
        pos = 0
        for chunk in self.chunks(chunk_size):
            c = chunk.shape[0]
            if pos + c > start:
                yield chunk[max(start - pos, 0) : min(stop - pos, c)]
            pos += c
            if pos >= stop:
                return

    def edges(self) -> Iterator[tuple[int, int]]:
        """Per-edge iteration (convenience wrapper over :meth:`chunks`)."""
        for chunk in self.chunks():
            for u, v in chunk:
                yield int(u), int(v)

    def materialize(self) -> Graph:
        """Collect the whole stream into an in-memory :class:`Graph`.

        Only metrics/tests use this; partitioners must not.
        """
        parts = [chunk.copy() for chunk in self.chunks()]
        if parts:
            edges = np.concatenate(parts)
        else:
            edges = np.empty((0, 2), dtype=np.int64)
        return Graph(edges, self.n_vertices)


class InMemoryEdgeStream(EdgeStream):
    """Stream over an in-memory edge array (page-cache scenario).

    Parameters
    ----------
    source:
        A :class:`Graph` or an ``(m, 2)`` array.
    n_vertices:
        Override for the vertex count (required when passing a bare array
        whose max id undercounts the vertex set).
    """

    def __init__(self, source, n_vertices: int | None = None) -> None:
        super().__init__()
        if isinstance(source, Graph):
            self._edges = source.edges
            self._n = source.n_vertices if n_vertices is None else n_vertices
        else:
            arr = np.asarray(source, dtype=np.int64)
            if arr.size == 0:
                arr = arr.reshape(0, 2)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise StreamError(f"edge array must be (m, 2), got {arr.shape}")
            # A Graph has checked its ids already; a bare array has not.
            low = int(arr.min()) if arr.size else 0
            if low < 0:
                raise StreamError(f"edge array holds a negative vertex id ({low})")
            self._edges = arr
            self._n = n_vertices

    @property
    def n_edges(self) -> int:
        return int(self._edges.shape[0])

    @property
    def n_vertices(self) -> int | None:
        return self._n

    def chunks(self, chunk_size: int | None = None) -> Iterator[np.ndarray]:
        yield from self._window_iter(0, self.n_edges, chunk_size)
        self.stats.record_pass()

    def _window_iter(
        self, start: int, stop: int, chunk_size: int | None
    ) -> Iterator[np.ndarray]:
        chunk_size = self._resolve_chunk_size(chunk_size)
        for lo in range(start, stop, chunk_size):
            chunk = self._edges[lo : min(lo + chunk_size, stop)]
            self.stats.record_chunk(chunk.shape[0], chunk.shape[0] * BYTES_PER_EDGE)
            yield chunk


class FileEdgeStream(EdgeStream):
    """Out-of-core stream over a binary 32-bit edge-list file.

    Parameters
    ----------
    path:
        File written by :func:`repro.graph.formats.write_binary_edge_list`.
    n_vertices:
        Vertex-count hint (optional).
    device:
        Optional :class:`~repro.storage.devices.StorageDevice`; when given,
        every read is charged simulated time through the device (and its
        page-cache model, if any).
    prefetch:
        When True, every pass/window double-buffers through a background
        reader thread (see the module docstring).  A pure wall-clock knob:
        chunks, stats, and device charges are identical to a synchronous
        stream.

    Raises
    ------
    StreamError
        If the file does not exist or has a truncated record.
    """

    def __init__(
        self,
        path,
        n_vertices: int | None = None,
        device=None,
        prefetch: bool = False,
    ) -> None:
        super().__init__()
        self._path = os.fspath(path)
        if not os.path.exists(self._path):
            raise StreamError(f"no such edge-list file: {self._path}")
        size = os.path.getsize(self._path)
        if size % BYTES_PER_EDGE:
            raise StreamError(
                f"{self._path}: size {size} is not a multiple of {BYTES_PER_EDGE}"
            )
        self._m = size // BYTES_PER_EDGE
        self._n = n_vertices
        self._device = device
        #: Whether passes/windows read ahead through a background thread.
        self.prefetch = bool(prefetch)

    @property
    def path(self) -> str:
        return self._path

    @property
    def n_edges(self) -> int:
        return int(self._m)

    @property
    def n_vertices(self) -> int | None:
        return self._n

    def chunks(self, chunk_size: int | None = None) -> Iterator[np.ndarray]:
        yield from self._window_iter(0, self.n_edges, chunk_size)
        self.stats.record_pass()

    def _window_iter(
        self, start: int, stop: int, chunk_size: int | None
    ) -> Iterator[np.ndarray]:
        chunk_size = self._resolve_chunk_size(chunk_size)
        if self.prefetch and stop > start:
            reads = self._prefetch_iter(start, stop, chunk_size)
        else:
            reads = self._read_chunks(start, stop, chunk_size)
        # Accounting stays on the consumer side, right before each yield,
        # whichever thread read the chunk (see the module docstring).
        with closing(reads):
            for chunk, nbytes in reads:
                seconds = 0.0
                if self._device is not None:
                    seconds = self._device.charge_read(self._path, nbytes)
                self.stats.record_chunk(chunk.shape[0], nbytes, seconds)
                yield chunk

    def _read_chunks(
        self, start: int, stop: int, chunk_size: int
    ) -> Iterator[tuple[np.ndarray, int]]:
        """Read and decode ``[start, stop)``; yields ``(chunk, nbytes)``."""
        bytes_per_chunk = chunk_size * BYTES_PER_EDGE
        with open(self._path, "rb") as fh:
            fh.seek(start * BYTES_PER_EDGE)
            left = (stop - start) * BYTES_PER_EDGE
            while left > 0:
                data = fh.read(min(bytes_per_chunk, left))
                if not data or len(data) % BYTES_PER_EDGE:
                    raise StreamError(f"{self._path}: truncated edge record")
                left -= len(data)
                # No local view of ``data``: it would keep these bytes
                # alive while the next chunk decodes.
                yield (
                    np.frombuffer(data, dtype="<u4").reshape(-1, 2).astype(np.int64),
                    len(data),
                )

    def _prefetch_iter(
        self, start: int, stop: int, chunk_size: int
    ) -> Iterator[tuple[np.ndarray, int]]:
        """Double-buffered :meth:`_read_chunks` (see the module docstring).

        The reader thread reads and decodes up to :data:`PREFETCH_DEPTH`
        chunks ahead through a bounded queue.  The reader never blocks
        forever: every queue put polls the stop event, and the consumer
        drains the queue on exit (including early generator close) before
        joining the thread.
        """
        out: queue.Queue = queue.Queue(maxsize=PREFETCH_DEPTH)
        stop_event = threading.Event()

        def put(item) -> bool:
            while not stop_event.is_set():
                try:
                    out.put(item, timeout=0.05)
                    return True
                except queue.Full:
                    continue
            return False

        def read_ahead() -> None:
            try:
                with closing(self._read_chunks(start, stop, chunk_size)) as reads:
                    for item in reads:
                        if not put(("chunk", item)):
                            return
                put(("done", None))
            except BaseException as exc:  # propagated to the consumer
                put(("error", exc))

        reader = threading.Thread(
            target=read_ahead, name="repro-prefetch", daemon=True
        )
        reader.start()
        try:
            while True:
                kind, payload = out.get()
                if kind == "error":
                    raise payload
                if kind == "done":
                    return
                yield payload
        finally:
            stop_event.set()
            while True:
                try:
                    out.get_nowait()
                except queue.Empty:
                    break
            reader.join(timeout=10.0)


@dataclass(frozen=True)
class FileStreamSpec:
    """Picklable recipe for reopening a :class:`FileEdgeStream` by path
    in another process — stays out-of-core.

    Every worker server at ``host:port`` gets the spec of
    :func:`make_stream_spec` once, opens its own stream over the same
    file and reads only its shard windows out of it.  (Forked loopback
    workers need none: they inherit the stream object.)  A simulated
    :class:`~repro.storage.devices.StorageDevice` attached to the
    original stream is *not* carried over: device charging models the
    parent's sequential I/O, which worker-side shard reads do not share.
    """

    path: str
    n_vertices: int | None = None
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Carried over so worker servers read ahead like the parent.
    prefetch: bool = False

    def open(self) -> FileEdgeStream:
        """Open a fresh stream over the spec'd file (one per process)."""
        stream = FileEdgeStream(
            self.path, n_vertices=self.n_vertices, prefetch=self.prefetch
        )
        stream.default_chunk_size = self.chunk_size
        return stream


def make_stream_spec(stream: EdgeStream) -> FileStreamSpec:
    """The picklable spec of a file-backed ``stream``, which a
    ``host:port`` worker server reopens.

    Raises
    ------
    StreamError
        For any stream but a :class:`FileEdgeStream`: only a file
        reopens in another process.  A process session's forked workers
        inherit every stream instead, a file one too (see
        :mod:`repro.core.runners`).
    """
    if not isinstance(stream, FileEdgeStream):
        raise StreamError(
            f"a {type(stream).__name__} has no stream spec: only a "
            "FileEdgeStream reopens in another process"
        )
    return FileStreamSpec(
        stream.path,
        stream.n_vertices,
        stream.default_chunk_size,
        stream.prefetch,
    )


def spec_to_wire(spec: FileStreamSpec) -> dict:
    """Flatten a stream spec into a wire-encodable field mapping.

    The process runner ships specs to its workers inside protocol frames
    (:mod:`repro.core.wire`), which carry typed scalars rather than
    pickles — so specs cross the wire as tagged plain fields.  Inverse of
    :func:`spec_from_wire`.
    """
    return {
        "kind": "file",
        "path": spec.path,
        "n_vertices": spec.n_vertices,
        "chunk_size": spec.chunk_size,
        "prefetch": spec.prefetch,
    }


def spec_from_wire(fields: dict) -> FileStreamSpec:
    """Rebuild a stream spec from its wire field mapping."""
    kind = fields.get("kind")
    if kind != "file":
        raise StreamError(f"unknown stream-spec kind {kind!r}")
    n_vertices = fields.get("n_vertices")
    return FileStreamSpec(
        path=str(fields["path"]),
        n_vertices=None if n_vertices is None else int(n_vertices),
        chunk_size=int(fields["chunk_size"]),
        prefetch=bool(fields["prefetch"]),
    )


def as_stream(
    source, n_vertices: int | None = None, chunk_size: int | None = None
) -> EdgeStream:
    """Coerce a Graph / array / existing stream into an :class:`EdgeStream`.

    ``chunk_size``, when given, becomes the stream's
    :attr:`~EdgeStream.default_chunk_size` (also on an already-constructed
    stream passed as ``source``).
    """
    if isinstance(source, EdgeStream):
        stream = source
    else:
        stream = InMemoryEdgeStream(source, n_vertices=n_vertices)
    if chunk_size is not None:
        if chunk_size <= 0:
            raise StreamError(f"chunk_size must be positive, got {chunk_size}")
        stream.default_chunk_size = int(chunk_size)
    return stream
