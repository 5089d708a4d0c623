"""Streaming substrate: out-of-core edge streams and I/O accounting.

Out-of-core partitioners never materialize the edge set; they ingest the
graph edge-by-edge, possibly over several passes (degree pass, clustering
pass(es), pre-partitioning pass, partitioning pass).  This package provides
the stream abstraction those passes consume:

- :class:`~repro.streaming.stream.EdgeStream` — the protocol (chunked numpy
  iteration plus per-edge iteration).
- :class:`~repro.streaming.stream.InMemoryEdgeStream` — stream over an
  in-memory graph (the "page cache" scenario of Section V-F).
- :class:`~repro.streaming.stream.FileEdgeStream` — stream over a binary
  edge-list file, optionally charged against a simulated storage device.
- :class:`~repro.streaming.iostats.IOStats` — bytes/edges/passes accounting.
"""

from repro.streaming.iostats import IOStats
from repro.streaming.stream import (
    DEFAULT_CHUNK_SIZE,
    EdgeStream,
    FileEdgeStream,
    FileStreamSpec,
    InMemoryEdgeStream,
    make_stream_spec,
)
from repro.streaming.writer import (
    PartitionWriter,
    load_partitioned,
    write_partitioned,
)
from repro.streaming.order import (
    bfs_like_order,
    degree_sorted_order,
    shuffled_copy,
)

__all__ = [
    "IOStats",
    "EdgeStream",
    "InMemoryEdgeStream",
    "FileEdgeStream",
    "DEFAULT_CHUNK_SIZE",
    "FileStreamSpec",
    "make_stream_spec",
    "shuffled_copy",
    "degree_sorted_order",
    "bfs_like_order",
    "PartitionWriter",
    "load_partitioned",
    "write_partitioned",
]
