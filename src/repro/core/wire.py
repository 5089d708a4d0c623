"""Versioned wire protocol for the distributed runner tier.

The distributed runner (:mod:`repro.core.distributed`) speaks the same
sync-window/set-bit-log barrier schedule as the simulated and process runners,
but over TCP sockets.  This module is the transport: an explicit,
versioned frame format plus a typed payload encoding, deliberately free
of pickle so a malformed or hostile peer can at worst fail a checksum —
never execute code.

Frame layout (network byte order)::

    +--------+------+-------+----------+-------------+----------+
    | magic  | type | flags | reserved | payload_len | crc32    |
    | 4 B    | 1 B  | 1 B   | 2 B      | 4 B         | 4 B      |
    +--------+------+-------+----------+-------------+----------+
    | payload (payload_len bytes)                               |
    +-----------------------------------------------------------+

``magic`` is ``b"2PSW"`` (2PS-L Wire).  ``crc32`` covers the payload
bytes only; header corruption is caught by the magic check.  ``flags``
and ``reserved`` are zero in every :data:`WIRE_VERSION` so far and
ignored on receipt, so they are available to future versions without a
frame-format break.

Payloads are flat key/value mappings encoded field-by-field with a type
tag per value: ``None``, bool, int (signed 64-bit), float (IEEE 754
binary64), UTF-8 string, raw bytes, numpy ndarray (dtype descriptor +
shape + little-endian buffer), or a nested mapping.  Decoded ndarrays
are always fresh writable copies — kernels mutate their inputs, and
``np.frombuffer`` views would be read-only.

Version negotiation happens once per connection: the coordinator opens
with ``HELLO {version, kernels}``, the worker answers ``HELLO {version,
kernels}`` when it speaks the same version and was built from the same
kernel source, and ``ERROR`` otherwise; both sides check.  ``kernels``
is the sha256 of ``_ckernels.c``
(:func:`repro.kernels.c_backend.source_digest`), present whether or not
the host can build it: workers built from another source would
otherwise diverge instead of failing, and a peer that sends no digest
counts as a mismatch.  Every
transport/framing failure raises :class:`~repro.errors.WireError` (a
:class:`~repro.errors.PartitioningError`), so worker death, truncation,
checksum corruption, and timeouts all surface as the one typed error the
runner contract promises — no hangs, no silent partial reads.
"""

from __future__ import annotations

import socket
import struct
import zlib

import numpy as np

from repro.errors import PartitioningError, WireError
from repro.kernels.c_backend import source_digest

#: Protocol version spoken by this build; bumped on any frame or payload
#: format break (2: the Phase-2 bind ships ``part`` and ``weights``; 3:
#: Phase-2 windows and barriers carry set-bit logs, in
#: :func:`log_cell_dtype` cells, in place of replica rows; 4: clustering
#: windows and their refreshes carry moves, in :func:`move_cell_dtype`
#: cells, in place of whole clusterings; 5: a Phase-2 barrier's news
#: rides on each worker's next window request, and each worker keeps its
#: shard's assignments until one collect, in
#: :func:`assignment_cell_dtype` cells).  Negotiated by the HELLO
#: handshake.
WIRE_VERSION = 5

MAGIC = b"2PSW"

_HEADER = struct.Struct("!4sBBHII")
HEADER_BYTES = _HEADER.size

# ---------------------------------------------------------------------
# message types
# ---------------------------------------------------------------------
MSG_HELLO = 1  #: handshake: {"version": int, "kernels": sha256 hex}
MSG_OK = 2  #: generic acknowledgement
MSG_ERROR = 3  #: {"message": str} — remote failure, surfaced typed
MSG_JOB = 4  #: session parameters + stream spec
MSG_DEGREE = 5  #: Phase-1 degree window {"start", "stop"}
MSG_DEGREE_RESULT = 6  #: {"degrees": int64[n]}
MSG_PHASE1_INIT = 7  #: {"degrees", "cap", "single", "log_capacity", "n_workers"}
#: clustering window {"start", "stop"}, + the worker's refresh when it has
#: one: the other workers' accepted "moves", its fresh-id "offset", "n_ids"
MSG_CLUSTER = 8
#: {"cost"}, + the window's "moves" and "fresh" cluster count when sharded
MSG_CLUSTER_RESULT = 9
MSG_CLUSTER_FINISH = 10  #: drain the lone worker's live clustering state
#: Phase-2 bind: {"part", "weights", "log_capacity"}, geometry, and the
#: worker's shard, "shard_start" to "shard_stop"
MSG_BIND = 11
#: Phase-2 sync window {"pass", "start", "stop"}, + the news of the
#: barriers since the worker's last window when it has some: the other
#: workers' "log" cells (or the merged "plane") and the merged "sizes"
MSG_WINDOW = 12
MSG_WINDOW_RESULT = 13  #: "total", "cost", the set-bit "log", the view's "sizes"
MSG_COLLECT = 14  #: end of Phase 2: ship the worker's shard of assignments
MSG_COLLECT_RESULT = 15  #: {"assignments": the shard, in assignment cells}
MSG_SHUTDOWN = 16  #: orderly session end

MESSAGE_NAMES = {
    value: name
    for name, value in list(globals().items())
    if name.startswith("MSG_")
}


def log_cell_dtype(n_vertices: int, k: int) -> np.dtype:
    """The type of set-bit log cells in Phase-2 frames: 4-byte ``uint32``
    while the plane's ``n_vertices * k`` cells fit in it, else ``int64``."""
    return np.dtype(np.uint32 if n_vertices * k <= 1 << 32 else np.int64)


def move_cell_dtype(n_vertices: int, n_workers: int) -> np.dtype:
    """The type of clustering-move cells in Phase-1 frames: 4-byte
    ``uint32`` while every vertex and every cluster id fits in it, else
    ``int64``.  Ids stay below ``n_workers * n_vertices`` (see
    :func:`~repro.core.runners.compact_clustering`)."""
    return np.dtype(np.uint32 if n_workers * n_vertices <= 1 << 32 else np.int64)


def assignment_cell_dtype(k: int) -> np.dtype:
    """The type of the collect's assignment cells: the narrowest unsigned
    integer that holds every partition id, ``k - 1``."""
    return np.min_scalar_type(k - 1)


def move_cells(moves: np.ndarray, cell: np.dtype) -> np.ndarray:
    """``(m, 2)`` ``(vertex, id)`` move rows as the flat ``2m`` cells of a
    frame."""
    return moves.astype(cell).ravel()


def move_rows(cells, cell: np.dtype) -> np.ndarray:
    """The ``(m, 2)`` int64 move rows of a frame's cells, after checking
    that they are a 1-d array of ``cell`` of even length: a
    :class:`~repro.errors.PartitioningError` otherwise.  The kernel ops
    check every row's values."""
    if not (
        isinstance(cells, np.ndarray)
        and cells.dtype == cell
        and cells.ndim == 1
        and cells.shape[0] % 2 == 0
    ):
        raise PartitioningError(
            f"clustering moves must be a 1-d {cell} array of (vertex, id) "
            f"pairs, got {type(cells).__name__} {getattr(cells, 'dtype', '')}"
            f"{getattr(cells, 'shape', '')}"
        )
    return cells.reshape(-1, 2).astype(np.int64)


# ---------------------------------------------------------------------
# typed payload encoding
# ---------------------------------------------------------------------
_T_NONE = 0
_T_BOOL = 1
_T_INT = 2
_T_FLOAT = 3
_T_STR = 4
_T_BYTES = 5
_T_ARRAY = 6
_T_DICT = 7

_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")


def _encode_value(value, out: list) -> None:
    if value is None:
        out.append(bytes([_T_NONE]))
    elif isinstance(value, (bool, np.bool_)):
        out.append(bytes([_T_BOOL, 1 if value else 0]))
    elif isinstance(value, (int, np.integer)):
        out.append(bytes([_T_INT]) + _I64.pack(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(bytes([_T_FLOAT]) + _F64.pack(float(value)))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(bytes([_T_STR]) + _U32.pack(len(raw)) + raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(bytes([_T_BYTES]) + _U32.pack(len(raw)) + raw)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        if arr.dtype.byteorder == ">":  # pragma: no cover - BE hosts only
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        descr = arr.dtype.str.encode("ascii")
        raw = arr.tobytes()
        out.append(
            bytes([_T_ARRAY, len(descr), arr.ndim])
            + descr
            + b"".join(_I64.pack(dim) for dim in arr.shape)
            + _U32.pack(len(raw))
            + raw
        )
    elif isinstance(value, dict):
        nested = encode_payload(value)
        out.append(bytes([_T_DICT]) + _U32.pack(len(nested)) + nested)
    else:
        raise WireError(
            f"no wire encoding for values of type {type(value).__name__}"
        )


def encode_payload(fields: dict | None) -> bytes:
    """Encode a flat mapping of typed fields into payload bytes."""
    out: list[bytes] = [_U32.pack(len(fields or {}))]
    for key, value in (fields or {}).items():
        raw_key = key.encode("utf-8")
        if len(raw_key) > 255:
            raise WireError(f"payload key too long: {key!r}")
        out.append(bytes([len(raw_key)]) + raw_key)
        _encode_value(value, out)
    return b"".join(out)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise WireError("truncated wire payload")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk


def _decode_value(reader: _Reader):
    tag = reader.take(1)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_BOOL:
        return reader.take(1)[0] != 0
    if tag == _T_INT:
        return _I64.unpack(reader.take(8))[0]
    if tag == _T_FLOAT:
        return _F64.unpack(reader.take(8))[0]
    if tag == _T_STR:
        (length,) = _U32.unpack(reader.take(4))
        return reader.take(length).decode("utf-8")
    if tag == _T_BYTES:
        (length,) = _U32.unpack(reader.take(4))
        return reader.take(length)
    if tag == _T_ARRAY:
        descr_len = reader.take(1)[0]
        ndim = reader.take(1)[0]
        dtype = np.dtype(reader.take(descr_len).decode("ascii"))
        shape = tuple(
            _I64.unpack(reader.take(8))[0] for _ in range(ndim)
        )
        (length,) = _U32.unpack(reader.take(4))
        raw = reader.take(length)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if count * dtype.itemsize != length:
            raise WireError(
                f"wire array length mismatch: {length} bytes for "
                f"shape {shape} of {dtype}"
            )
        # Writable copy: kernels mutate their inputs and frombuffer
        # views over the frame bytes would be read-only.
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if tag == _T_DICT:
        (length,) = _U32.unpack(reader.take(4))
        return decode_payload(reader.take(length))
    raise WireError(f"unknown wire value tag {tag}")


def decode_payload(data: bytes) -> dict:
    """Decode payload bytes back into the typed field mapping."""
    reader = _Reader(data)
    (n_fields,) = _U32.unpack(reader.take(4))
    fields = {}
    for _ in range(n_fields):
        key_len = reader.take(1)[0]
        key = reader.take(key_len).decode("utf-8")
        fields[key] = _decode_value(reader)
    return fields


# ---------------------------------------------------------------------
# framing over a socket
# ---------------------------------------------------------------------
class Connection:
    """One framed, CRC-checked protocol connection over a socket.

    Owns the socket; tracks bytes in both directions so sessions can
    report wire traffic.  Every failure mode — peer gone, timeout,
    corruption — raises :class:`~repro.errors.WireError` with the
    connection's ``label`` in the message, and :meth:`close` is
    idempotent so error-path teardown never leaks the socket.
    """

    def __init__(self, sock: socket.socket, label: str = "peer") -> None:
        self.sock = sock
        self.label = label
        self.bytes_sent = 0
        self.bytes_received = 0
        self.closed = False

    def settimeout(self, timeout: float | None) -> None:
        self.sock.settimeout(timeout)

    # -- sending -------------------------------------------------------
    def send(self, msg_type: int, fields: dict | None = None) -> int:
        payload = encode_payload(fields)
        if len(payload) > 0xFFFFFFFF:  # ``payload_len`` holds 4 bytes
            raise WireError(
                f"payload of {len(payload)} bytes for {self.label} exceeds "
                "the frame's 4-byte length field"
            )
        header = _HEADER.pack(
            MAGIC, msg_type, 0, 0, len(payload), zlib.crc32(payload)
        )
        frame = header + payload
        try:
            self.sock.sendall(frame)
        except (OSError, ValueError) as exc:
            raise WireError(
                f"send to {self.label} failed: {exc}"
            ) from exc
        self.bytes_sent += len(frame)
        return len(frame)

    # -- receiving -----------------------------------------------------
    def _recv_exact(self, n: int) -> bytes:
        parts = []
        remaining = n
        while remaining > 0:
            try:
                chunk = self.sock.recv(min(remaining, 1 << 20))
            except (TimeoutError, socket.timeout) as exc:
                raise WireError(
                    f"timed out waiting for {self.label}"
                ) from exc
            except (OSError, ValueError) as exc:
                raise WireError(
                    f"recv from {self.label} failed: {exc}"
                ) from exc
            if not chunk:
                raise WireError(
                    f"connection closed by {self.label}"
                    + (" mid-frame" if parts or remaining < n else "")
                )
            parts.append(chunk)
            remaining -= len(chunk)
        return b"".join(parts)

    def recv(self) -> tuple[int, dict]:
        header = self._recv_exact(HEADER_BYTES)
        magic, msg_type, _flags, _reserved, length, crc = _HEADER.unpack(
            header
        )
        if magic != MAGIC:
            raise WireError(
                f"bad frame magic from {self.label}: {magic!r}"
            )
        payload = self._recv_exact(length) if length else b""
        if zlib.crc32(payload) != crc:
            raise WireError(f"frame CRC mismatch from {self.label}")
        self.bytes_received += HEADER_BYTES + length
        return msg_type, decode_payload(payload)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - double-close race
            pass


# ---------------------------------------------------------------------
# handshake / version negotiation
# ---------------------------------------------------------------------
def _kernels_mismatch(conn: Connection, local: str, peer) -> WireError:
    return WireError(
        f"kernel source mismatch with {conn.label}: local {local}, "
        f"peer {peer or 'none'}"
    )


def handshake_client(conn: Connection, version: int | None = None) -> int:
    """Coordinator side: offer our version and kernel-source digest,
    verify the peer's answer."""
    version = WIRE_VERSION if version is None else int(version)
    kernels = source_digest()
    conn.send(MSG_HELLO, {"version": version, "kernels": kernels})
    msg_type, fields = conn.recv()
    if msg_type == MSG_ERROR:
        raise WireError(
            f"handshake with {conn.label} rejected: "
            f"{fields.get('message', 'no reason given')}"
        )
    if msg_type != MSG_HELLO:
        raise WireError(
            f"handshake with {conn.label} got message type {msg_type}, "
            f"expected HELLO"
        )
    peer = int(fields.get("version", -1))
    if peer != version:
        raise WireError(
            f"wire protocol version mismatch with {conn.label}: "
            f"local {version}, peer {peer}"
        )
    if fields.get("kernels") != kernels:
        raise _kernels_mismatch(conn, kernels, fields.get("kernels"))
    return peer


def handshake_server(conn: Connection, version: int | None = None) -> int:
    """Worker side: await the coordinator's HELLO, accept or reject."""
    version = WIRE_VERSION if version is None else int(version)
    kernels = source_digest()
    msg_type, fields = conn.recv()
    if msg_type != MSG_HELLO:
        conn.send(
            MSG_ERROR,
            {"message": f"expected HELLO, got message type {msg_type}"},
        )
        raise WireError(
            f"handshake with {conn.label} got message type {msg_type}, "
            f"expected HELLO"
        )
    peer = int(fields.get("version", -1))
    if peer != version:
        conn.send(
            MSG_ERROR,
            {
                "message": (
                    f"wire protocol version mismatch: coordinator "
                    f"speaks {peer}, worker speaks {version}"
                )
            },
        )
        raise WireError(
            f"wire protocol version mismatch with {conn.label}: "
            f"local {version}, peer {peer}"
        )
    peer_kernels = fields.get("kernels")
    if peer_kernels != kernels:
        conn.send(
            MSG_ERROR,
            {
                "message": (
                    f"kernel source mismatch: coordinator built "
                    f"{peer_kernels or 'none'}, worker built {kernels}"
                )
            },
        )
        raise _kernels_mismatch(conn, kernels, peer_kernels)
    conn.send(MSG_HELLO, {"version": version, "kernels": kernels})
    return peer
