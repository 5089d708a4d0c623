"""Exception hierarchy for the ``repro`` library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class.  Each subclass corresponds to a distinct failure domain
(graph construction, streaming I/O, partitioning, configuration) so tests and
downstream users can discriminate precisely.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class GraphError(ReproError):
    """Invalid graph data (malformed edges, negative vertex ids, ...)."""


class FormatError(ReproError):
    """Malformed on-disk graph data (truncated binary edge list, bad text)."""


class StreamError(ReproError):
    """Misuse of an edge stream (e.g. unknown vertex count when required)."""


class StorageError(ReproError):
    """Invalid storage-device configuration (non-positive bandwidth, ...)."""


class PartitioningError(ReproError):
    """A partitioner was configured or driven incorrectly."""


class BalanceError(PartitioningError):
    """The hard balance cap cannot be satisfied (e.g. ``alpha * |E| < |E|``)."""


class WireError(PartitioningError):
    """A wire-protocol failure of the process runner's socket workers.

    Covers the transport layer (peer closed the connection, recv timeout,
    refused connect) and the framing layer (bad magic, CRC mismatch,
    truncated frame, protocol-version mismatch).  Derives from
    :class:`PartitioningError` so a worker death anywhere in a process
    run surfaces as the one typed error every runner already raises."""


class ConfigurationError(ReproError):
    """Invalid experiment or algorithm configuration values."""


class DatasetError(ReproError):
    """Unknown dataset name or invalid dataset scaling parameters."""


class ProcessingError(ReproError):
    """Distributed-processing simulator misuse (bad workload, bad cluster)."""
