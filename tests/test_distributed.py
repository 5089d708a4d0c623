"""Tests for the process runner's socket tier: wire protocol + workers.

Three layers, mirroring the implementation split:

- :mod:`repro.core.wire` in isolation — typed payload round-trips with
  integer arrays narrowed on the wire, malformed payloads (any bytes)
  raising ``WireError``, framing over real socket pairs,
  CRC/magic/truncation rejection, and the HELLO version and
  kernel-source negotiation, which a worker server outlives;
- :mod:`repro.core.distributed` end-to-end — a process session's
  loopback and ``host:port`` workers both pinned full-state bit-exact
  against the simulated runner (the deeper seeded matrix lives in
  ``tests/differential.py``);
- failure injection — worker crash mid-window, a socket disconnect
  while a worker applies the barrier news its window request carried
  or during the collect, a stalled reply tripping ``recv_timeout``, a
  hostile set-bit log, hostile clustering moves or a hostile collect, a
  loopback worker dead before it connects, and a version- or
  kernel-source-mismatch handshake must each surface as a typed
  :class:`~repro.errors.PartitioningError` with no leaked socket or
  worker process, and so must a failed fork; a host without ``fork``
  gets a :class:`~repro.errors.ConfigurationError` before anything
  starts.  No test here constructs a shared-memory segment.

Fault injection works by monkeypatching the module-level
``distributed._MESSAGE_HANDLERS`` registry before the session spawns
its loopback workers: fork-started children inherit the patched
registry, so the failure fires inside a real worker process.  Worker 0
of a loopback session runs in the test process itself, through the same
registry, and so does every worker of a simulated run: a fault that ends
or stalls a process fires only in the forked workers (``worker_index``
>= 1) of a run under test, since in this process it would end or stall
the test run.  The failure matrix runs again on ``host:port`` workers,
one-session worker servers on threads of the test process, which read
the same registry; there a handler's ``SystemExit`` stands for a
server's death.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParallelTwoPhase, wire
from repro.core import distributed
from repro.core.distributed import (
    live_connections,
    live_worker_processes,
    parse_worker_spec,
)
from repro.core.runners import ProcessRunner, ShardedJob, make_runner
from repro.errors import ConfigurationError, PartitioningError, WireError
from repro.kernels import c_backend, get_backend
from repro.kernels.base import ReplicaLog
from repro.metrics.runtime import CostCounter
from repro.graph import Graph
from repro.graph.generators import chung_lu_graph, ring_of_cliques
from repro.partitioning.state import _replica_plane
from repro.streaming import FileEdgeStream, InMemoryEdgeStream
from repro.streaming.writer import EdgeListWriter
from tests.differential import host_port_runner, serve_one_session

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="needs the fork start method"
)


@pytest.fixture(autouse=True)
def no_shared_memory(shared_memory_made):
    """No session of this module's tests constructs a shared-memory
    segment: worker processes inherit the stream or reopen its file."""
    yield
    assert not shared_memory_made, f"SharedMemory made: {shared_memory_made}"


# ---------------------------------------------------------------------
# payload encoding
# ---------------------------------------------------------------------
def _field(key: bytes, value: bytes) -> bytes:
    """A one-field payload: ``key`` and a value's raw encoding."""
    return struct.pack("!I", 1) + bytes([len(key)]) + key + value


def _array_payload(descr, narrow=None, dims=(1,), raw=b"\0" * 8) -> bytes:
    """A one-array payload with the sender's dtype descriptor ``descr``,
    the wire's ``narrow`` (``descr`` itself by default), ``dims`` and
    ``raw``, whatever they say."""
    narrow = descr if narrow is None else narrow
    return _field(
        b"a",
        bytes([6, len(descr), len(narrow), len(dims)])
        + descr
        + narrow
        + b"".join(struct.pack("!q", dim) for dim in dims)
        + struct.pack("!I", len(raw))
        + raw,
    )


def _nested(depth: int) -> bytes:
    """A payload of ``depth`` mappings, each inside the last."""
    payload = struct.pack("!I", 0)
    for _ in range(depth):
        payload = _field(b"a", bytes([7]) + struct.pack("!I", len(payload)) + payload)
    return payload


#: One valid payload of every value type.
_EVERY_TYPE = wire.encode_payload(
    {
        "none": None,
        "flag": True,
        "int": -7,
        "float": 2.5,
        "text": "héllo",
        "blob": b"\x00\xff",
        "moves": np.array([[0, 3], [5, 70_000]], dtype=np.int64),
        "bits": np.array([True, False]),
        "nested": {"sizes": np.arange(4, dtype=np.int64)},
    }
)


class TestPayloadEncoding:
    def test_round_trips_every_type(self):
        fields = {
            "none": None,
            "yes": True,
            "no": False,
            "int": -(2**40) - 7,
            "float": 3.5,
            "text": "héllo wörld",
            "blob": b"\x00\x01\xff",
            "i64": np.arange(17, dtype=np.int64),
            "u8_2d": np.arange(24, dtype=np.uint8).reshape(4, 6),
            "flags": np.array([True, False, True]),
            "empty": np.zeros(0, dtype=np.float64),
            "nested": {"k": 3, "arr": np.array([1, 2], dtype=np.int32)},
        }
        out = wire.decode_payload(wire.encode_payload(fields))
        assert out["none"] is None
        assert out["yes"] is True and out["no"] is False
        assert out["int"] == fields["int"]
        assert out["float"] == 3.5
        assert out["text"] == fields["text"]
        assert out["blob"] == fields["blob"]
        for key in ("i64", "u8_2d", "flags", "empty"):
            np.testing.assert_array_equal(out[key], fields[key])
            assert out[key].dtype == fields[key].dtype
            assert out[key].shape == fields[key].shape
        assert out["nested"]["k"] == 3
        np.testing.assert_array_equal(
            out["nested"]["arr"], fields["nested"]["arr"]
        )

    def test_decoded_arrays_are_writable(self):
        # Kernels mutate their inputs; frombuffer views would be RO.
        out = wire.decode_payload(
            wire.encode_payload({"a": np.arange(4, dtype=np.int64)})
        )
        out["a"][0] = 99
        assert out["a"][0] == 99

    def test_none_payload_is_empty_mapping(self):
        assert wire.decode_payload(wire.encode_payload(None)) == {}

    def test_unencodable_value_raises_wire_error(self):
        with pytest.raises(WireError, match="no wire encoding"):
            wire.encode_payload({"bad": object()})

    def test_truncated_payload_raises_wire_error(self):
        data = wire.encode_payload({"a": np.arange(8, dtype=np.int64)})
        with pytest.raises(WireError, match="truncated"):
            wire.decode_payload(data[:-5])

    def test_array_length_mismatch_raises(self):
        data = bytearray(
            wire.encode_payload({"a": np.arange(4, dtype=np.int64)})
        )
        # Shrink the declared element count but keep the byte blob.
        idx = data.index(struct.pack("!q", 4))
        data[idx : idx + 8] = struct.pack("!q", 3)
        with pytest.raises(WireError, match="length mismatch"):
            wire.decode_payload(bytes(data))

    @pytest.mark.parametrize(
        "values, dtype, narrow",
        [
            ([0, 7, 255], np.int64, np.uint8),
            ([-1, 3], np.int32, np.int8),
            ([0, 70_000], np.int64, np.uint32),
            ([2**40], np.int64, np.int64),
            ([2**63 + 5], np.uint64, np.uint64),
            ([], np.int64, np.uint8),
            ([1, 0], np.bool_, np.bool_),
            ([0.5], np.float64, np.float64),
        ],
    )
    def test_integer_arrays_travel_narrow_and_decode_wide(self, values, dtype, narrow):
        """An integer array crosses in the narrowest integer type that
        holds its values and casts back to its dtype without loss, and
        decodes to the sender's dtype; any other array crosses as is."""
        arr = np.array(values, dtype=dtype).reshape(-1, 1)
        assert wire.wire_dtype(arr) == narrow
        assert wire.wire_nbytes(arr) == arr.size * np.dtype(narrow).itemsize
        wide = wire.encode_payload({"a": arr.astype(dtype)})
        out = wire.decode_payload(wide)["a"]
        assert out.dtype == arr.dtype and out.shape == arr.shape
        np.testing.assert_array_equal(out, arr)
        assert out.flags.writeable

    def test_a_log_crosses_in_4_byte_cells(self):
        """The int64 set-bit log of a plane of fewer than 2**32 cells costs
        4 bytes per cell on the wire, as its uint32 cells did."""
        log = np.array([0, (1 << 32) - 1], dtype=np.int64)
        bare = wire.encode_payload({"log": np.zeros(0, np.int64)})
        assert len(wire.encode_payload({"log": log})) == len(bare) + 2 * 4

    @pytest.mark.parametrize(
        "value", [np.array(["a"]), np.zeros(2, np.complex128), np.array([None])]
    )
    def test_unsupported_array_dtypes_are_not_encoded(self, value):
        with pytest.raises(WireError, match="no wire encoding"):
            wire.encode_payload({"a": value})

    #: CRC-valid payloads the decoder must refuse: ``(payload, match)``.
    MALFORMED = {
        "object-dtype": (_array_payload(b"|O"), "unsupported wire array dtype"),
        "unknown-dtype": (_array_payload(b"zz9"), "unsupported wire array dtype"),
        "non-ascii-dtype": (
            _array_payload("é8".encode()),
            "unsupported wire array dtype",
        ),
        "zero-size-dtype": (
            _array_payload(b"|V0", raw=b""),
            "unsupported wire array dtype",
        ),
        "lossy-narrow": (
            _array_payload(b"<i4", b"<i8"),
            "cannot travel as int64",
        ),
        "float-as-integer": (
            _array_payload(b"<f8", b"|u1", raw=b"\0"),
            "cannot travel as uint8",
        ),
        "two-negative-dims": (
            _array_payload(b"<i8", dims=(-1, -1)),
            "negative dimension",
        ),
        "dims-overflowing-int64": (
            _array_payload(b"<i8", dims=(2**62, 4), raw=b""),
            "length mismatch",
        ),
        "more-dims-than-numpy": (_array_payload(b"<i8", dims=(1,) * 100), "shape"),
        "non-utf8-key": (_field(b"\xff", bytes([4]) + struct.pack("!I", 0)), "UTF-8"),
        "non-utf8-string": (
            _field(b"a", bytes([4]) + struct.pack("!I", 2) + b"\xff\xfe"),
            "UTF-8",
        ),
        "deep-nesting": (_nested(3000), "nests more than"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_payload_raises_wire_error(self, case):
        payload, match = self.MALFORMED[case]
        with pytest.raises(WireError, match=match):
            wire.decode_payload(payload)

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=512))
    def test_any_bytes_decode_or_raise_wire_error(self, data):
        try:
            wire.decode_payload(data)
        except WireError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(edit=st.data())
    def test_any_edit_of_a_payload_decodes_or_raises_wire_error(self, edit):
        """A valid payload with bytes overwritten, then maybe cut short."""
        data = bytearray(_EVERY_TYPE)
        for _ in range(edit.draw(st.integers(1, 4))):
            at = edit.draw(st.integers(0, len(data) - 1))
            data[at] = edit.draw(st.integers(0, 255))
        data = data[: edit.draw(st.integers(0, len(data)))]
        try:
            wire.decode_payload(bytes(data))
        except WireError:
            pass


# ---------------------------------------------------------------------
# framing over a socket
# ---------------------------------------------------------------------
def _pair():
    a, b = socket.socketpair()
    return wire.Connection(a, label="left"), wire.Connection(b, label="right")


class TestFraming:
    def test_frame_round_trip(self):
        left, right = _pair()
        try:
            left.send(wire.MSG_WINDOW, {"start": 5, "stop": 9})
            msg_type, fields = right.recv()
            assert msg_type == wire.MSG_WINDOW
            assert fields == {"start": 5, "stop": 9}
            assert left.bytes_sent == right.bytes_received > 0
        finally:
            left.close()
            right.close()

    def test_crc_corruption_rejected(self):
        left, right = _pair()
        try:
            payload = wire.encode_payload({"x": 1})
            header = struct.pack(
                "!4sBBHII",
                wire.MAGIC, wire.MSG_OK, 0, 0,
                len(payload), zlib.crc32(payload),
            )
            corrupted = bytearray(payload)
            corrupted[0] ^= 0xFF
            left.sock.sendall(header + bytes(corrupted))
            with pytest.raises(WireError, match="CRC mismatch"):
                right.recv()
        finally:
            left.close()
            right.close()

    def test_bad_magic_rejected(self):
        left, right = _pair()
        try:
            left.sock.sendall(
                struct.pack("!4sBBHII", b"XXXX", wire.MSG_OK, 0, 0, 0, 0)
            )
            with pytest.raises(WireError, match="magic"):
                right.recv()
        finally:
            left.close()
            right.close()

    def test_eof_mid_frame_raises(self):
        left, right = _pair()
        try:
            left.sock.sendall(b"2PSW\x02")  # header cut short
            left.close()
            with pytest.raises(WireError, match="mid-frame"):
                right.recv()
        finally:
            right.close()

    def test_recv_timeout_is_wire_error(self):
        left, right = _pair()
        try:
            right.settimeout(0.05)
            with pytest.raises(WireError, match="timed out"):
                right.recv()
        finally:
            left.close()
            right.close()

    def test_close_is_idempotent(self):
        left, right = _pair()
        left.close()
        left.close()
        right.close()

    def test_oversized_send_is_wire_error(self, monkeypatch):
        """``payload_len`` holds 4 bytes, so a payload of 2**32 bytes or
        more fails typed before anything is packed or sent (a stand-in
        reports that length without allocating it)."""

        class Huge(bytes):
            def __len__(self):
                return 1 << 32

        monkeypatch.setattr(wire, "encode_payload", lambda fields: Huge())
        left, right = _pair()
        try:
            with pytest.raises(WireError, match="4-byte length field"):
                left.send(wire.MSG_OK)
            assert left.bytes_sent == 0
        finally:
            left.close()
            right.close()


# ---------------------------------------------------------------------
# handshake / version negotiation
# ---------------------------------------------------------------------
class TestHandshake:
    def _run(self, server_version=None, client_version=None):
        left, right = _pair()
        server_exc: list = []

        def server():
            try:
                wire.handshake_server(right, version=server_version)
            except WireError as exc:
                server_exc.append(exc)

        thread = threading.Thread(target=server)
        thread.start()
        try:
            return wire.handshake_client(left, version=client_version)
        finally:
            thread.join(timeout=5)
            left.close()
            right.close()
            self.server_exc = server_exc

    def test_matching_versions_agree(self):
        assert self._run() == wire.WIRE_VERSION
        assert not self.server_exc

    def test_version_mismatch_raises_both_sides(self):
        with pytest.raises(WireError, match="version mismatch"):
            self._run(server_version=wire.WIRE_VERSION + 1)
        assert self.server_exc and "mismatch" in str(self.server_exc[0])

    @pytest.mark.parametrize("other", ["0" * 64, None], ids=["other", "absent"])
    def test_kernel_digest_mismatch_raises_both_sides(self, other):
        """A peer built from another kernel source, or before the digest
        existed (it sends none), is rejected by worker and coordinator
        alike, and both errors name both digests."""
        local = c_backend.source_digest()
        named = other or "none"
        hello = {"version": wire.WIRE_VERSION}
        if other is not None:
            hello["kernels"] = other
        # Worker side: the coordinator's HELLO carries the other digest.
        left, right = _pair()
        try:
            left.send(wire.MSG_HELLO, hello)
            with pytest.raises(WireError, match="kernel source mismatch") as exc:
                wire.handshake_server(right)
            assert local in str(exc.value) and named in str(exc.value)
            msg_type, fields = left.recv()
            assert msg_type == wire.MSG_ERROR
            assert local in fields["message"] and named in fields["message"]
        finally:
            left.close()
            right.close()
        # Coordinator side: the worker answers with the other digest.
        left, right = _pair()

        def other_worker():
            right.recv()
            right.send(wire.MSG_HELLO, hello)

        thread = threading.Thread(target=other_worker)
        thread.start()
        try:
            with pytest.raises(WireError, match="kernel source mismatch") as exc:
                wire.handshake_client(left)
            assert local in str(exc.value) and named in str(exc.value)
        finally:
            thread.join(timeout=5)
            left.close()
            right.close()
        assert not thread.is_alive()

    def test_non_hello_opener_rejected(self):
        left, right = _pair()

        def server():
            try:
                wire.handshake_server(right)
            except WireError:
                pass

        thread = threading.Thread(target=server)
        thread.start()
        try:
            left.send(wire.MSG_WINDOW, {"start": 0, "stop": 0})
            with pytest.raises(WireError, match="rejected"):
                msg_type, fields = left.recv()
                if msg_type == wire.MSG_ERROR:
                    raise WireError(f"rejected: {fields['message']}")
        finally:
            thread.join(timeout=5)
            left.close()
            right.close()


class TestWorkerSpec:
    def test_parses_host_port(self):
        assert parse_worker_spec("node-3:9001") == ("node-3", 9001)

    @pytest.mark.parametrize(
        "spec", ["nohost", ":8000", "h:", "h:abc", "h:0", "h:70000"]
    )
    def test_rejects_malformed(self, spec):
        with pytest.raises(ConfigurationError):
            parse_worker_spec(spec)


# ---------------------------------------------------------------------
# end-to-end equivalence
# ---------------------------------------------------------------------
def _graph():
    return chung_lu_graph(120, 900, gamma=2.2, seed=5)


def _partition(runner, stream, **kwargs):
    return ParallelTwoPhase(
        n_workers=kwargs.pop("n_workers", 2),
        sync_interval=37,
        runner=runner,
        parallel_phase1=True,
        **kwargs,
    ).partition(stream, 5, chunk_size=64)


def _assert_same(a, b):
    np.testing.assert_array_equal(a.assignments, b.assignments)
    np.testing.assert_array_equal(
        np.asarray(a.state.replicas), np.asarray(b.state.replicas)
    )
    np.testing.assert_array_equal(a.state.sizes, b.state.sizes)
    assert a.cost == b.cost


def _assert_clean():
    assert live_connections() == frozenset()
    assert live_worker_processes() == frozenset()


def _first_edges(n_edges):
    graph = _graph()
    return Graph(graph.edges[:n_edges], graph.n_vertices)


#: ``(packed, sync, graph, kind)``: the 600-byte dense plane of
#: :func:`_graph` takes the logs of 37-edge windows (its 2-byte cells
#: never cover half of it), the 300-byte dense plane of the complete
#: graph on 60 vertices is shipped whole when the remaining pass starts,
#: the 120-byte packed one of :func:`_graph` after a 300-edge window,
#: and with shards of 299, 299 and 300 edges in 299-edge windows workers
#: 0 and 1 sit out every pass's second sweep, so each of them that takes
#: news takes two barriers' with its next window, the packed plane in
#: place of their logs.
WINDOW_NEWS_CASES = pytest.mark.parametrize(
    "packed, sync, graph, kind",
    [
        (False, 37, _first_edges(900), "log"),
        (False, 200, ring_of_cliques(1, 60), "plane"),
        (True, 300, _first_edges(900), "plane"),
        (True, 299, _first_edges(898), "plane"),
    ],
    ids=["dense", "dense-plane", "packed", "sat-out"],
)


def _window_news_partition(runner, stream, packed, sync):
    return ParallelTwoPhase(
        n_workers=3, sync_interval=sync, runner=runner, packed_state=packed
    ).partition(stream, 5, chunk_size=64)


def _check_window_news(monkeypatch, packed, sync, graph, kind, owner, run):
    """A Phase-2 barrier ships nothing itself: each worker's next window
    request carries the int64 cells the other workers logged since its
    last window, or the merged plane where that is fewer bytes on the
    wire, plus the merged sizes; the run's last barrier ships nothing,
    and the byte counts read the encoded sizes.  Worker
    ``owner``'s view is the job's state (``None``: no worker's is) and it
    gets no news.  ``run(graph)`` is the three-worker process run under
    test; it stays bit-exact with the simulated runner, and its wire
    stats count what was sent to the socket workers and are the
    session's last (the collect's frame included).  Only the session
    under test is recorded: the simulated runner's runs on the same
    transport."""
    runner = "process"
    events, at_close = [], []
    transport = distributed.WorkerTransport
    real_result, real_send = transport._result, transport._send
    real_barrier, real_close = transport.barrier, transport.close

    def result(self, w, step, start, stop, payload):
        if self._kind == runner and "log" in payload:
            events.append(("log", w, payload["log"].copy()))
        return real_result(self, w, step, start, stop, payload)

    def send(self, w, msg_type, payload, step):
        if self._kind == runner and msg_type == wire.MSG_WINDOW:
            news = {
                key: np.array(value)
                for key, value in payload.items()
                if key in ("log", "plane", "sizes")
            }
            events.append(("window", w, news))
        return real_send(self, w, msg_type, payload, step)

    def barrier(self, step):
        cells = real_barrier(self, step)
        if self._kind == runner:
            shards = [w for w, (lo, hi) in enumerate(self._shards) if hi > lo]
            events.append(("barrier", shards, self.job.state.sizes.copy()))
        return cells

    def close(self):
        if self._kind == runner and not self._closed:
            at_close.append(self.wire_stats())
        return real_close(self)

    monkeypatch.setattr(transport, "_result", result)
    monkeypatch.setattr(transport, "_send", send)
    monkeypatch.setattr(transport, "barrier", barrier)
    monkeypatch.setattr(transport, "close", close)
    dist = run(graph)
    sim = _window_news_partition("simulated", graph, packed, sync)
    _assert_same(dist, sim)
    plane = _replica_plane(dist.state.replicas)[0]
    plane_bytes = plane.nbytes
    logs, pending, sizes = {}, {}, None
    shipped, sizes_bytes, deliveries, kinds, most = 0, 0, 0, set(), {}
    for event, w, value in events:
        if event == "log":
            assert value.dtype == np.int64
            logs[w] = value
            continue
        if event == "barrier":
            for u in w:
                if u == owner:
                    continue  # the owner's view is the job's state
                others = [log for v, log in sorted(logs.items()) if v != u]
                pending.setdefault(u, []).append(others)
            logs, sizes = {}, value
            continue
        if w not in pending:
            assert not value, "news without a barrier since the last window"
            continue
        news = pending.pop(w)
        most[w] = max(most.get(w, 0), len(news))
        cells = np.concatenate(
            [np.zeros(0, np.int64), *(log for logs_ in news for log in logs_)]
        )
        cell_bytes = wire.wire_nbytes(cells)
        if "log" in value:
            np.testing.assert_array_equal(value["log"], cells)
            assert value["log"].dtype == np.int64
            assert cell_bytes < plane_bytes
        else:
            assert value["plane"].dtype == plane.dtype
            assert value["plane"].shape == plane.shape
            assert plane_bytes <= cell_bytes
        np.testing.assert_array_equal(value["sizes"], sizes)
        kinds.update(set(value) - {"sizes"})
        shipped += min(cell_bytes, plane_bytes)
        sizes_bytes += wire.wire_nbytes(value["sizes"])
        deliveries += 1
    assert kind in kinds
    sat_out = [2, 2, 1] if graph.n_edges == 898 else [1, 1, 1]
    if owner is not None:
        sat_out[owner] = 0
    assert [most.get(w, 0) for w in range(3)] == sat_out, "barriers per delivery"
    # The run's last barrier ships nothing: its news stays queued.
    assert events[-1][0] == "barrier"
    assert sorted(pending) == [w for w in range(3) if w != owner]
    stats = dist.extras["wire"]
    assert at_close == [stats]
    assert stats["barrier_plane_bytes"] == shipped
    assert stats["barrier_delta_bytes"] == shipped + sizes_bytes
    assert stats["barrier_full_bytes"] == deliveries * plane_bytes + sizes_bytes
    assert stats["barrier_plane_bytes"] < stats["barrier_full_bytes"]
    _assert_clean()


@needs_fork
class TestLoopbackEquivalence:
    def test_matches_simulated_runner(self):
        graph = _graph()
        dist = _partition("process", graph)
        sim = _partition("simulated", graph)
        _assert_same(dist, sim)
        _assert_clean()

    def test_uint64_hash_seed_matches_simulated(self):
        """A seed above 2**63 - 1 fits no int64 wire field; alpha=1.0
        makes the fallback hash it."""
        graph = _graph()
        runs = {
            runner: ParallelTwoPhase(
                n_workers=2, sync_interval=37, runner=runner,
                hash_seed=2**64 - 1,
            ).partition(graph, 5, alpha=1.0, chunk_size=64)
            for runner in ("process", "simulated")
        }
        assert runs["simulated"].cost.hash_evaluations > 0
        _assert_same(runs["process"], runs["simulated"])
        _assert_clean()

    def test_single_worker_matches_simulated(self):
        graph = _graph()
        _assert_same(
            _partition("process", graph, n_workers=1),
            _partition("simulated", graph, n_workers=1),
        )
        _assert_clean()

    def test_packed_state_and_wire_stats(self):
        graph = _graph()
        dist = _partition("process", graph, packed_state=True)
        sim = _partition("simulated", graph, packed_state=True)
        _assert_same(dist, sim)
        stats = dist.extras["wire"]
        assert stats["bytes_sent"] > 0 and stats["bytes_received"] > 0
        assert 0 < stats["barrier_delta_bytes"]
        assert 0 < stats["barrier_plane_bytes"]
        assert stats["barrier_plane_bytes"] < stats["barrier_full_bytes"]
        _assert_clean()

    @WINDOW_NEWS_CASES
    def test_window_requests_carry_other_workers_cells_or_the_plane(
        self, monkeypatch, packed, sync, graph, kind
    ):
        """Worker 0 runs in this process and its view is the job's
        state, which the barrier writes: it gets no news, and the wire
        stats count what was sent to the two worker processes."""

        def run(graph):
            return _window_news_partition("process", graph, packed, sync)

        _check_window_news(monkeypatch, packed, sync, graph, kind, owner=0, run=run)


def _file_stream(graph, tmp_path):
    """``graph`` written to a file under ``tmp_path``; returns a factory
    of fresh streams over it."""
    path = str(tmp_path / "edges.bin")
    with EdgeListWriter(path) as writer:
        writer.write_chunk(graph.edges)
    return lambda: FileEdgeStream(path, n_vertices=graph.n_vertices)


class TestHostPortWorkers:
    """A ``host:port`` session connects to one worker server per shard:
    the coordinator holds no worker, so its job state is no worker's
    view and takes the cells of every worker at each barrier."""

    def test_matches_simulated_over_file_stream(self, tmp_path):
        stream = _file_stream(_graph(), tmp_path)
        with host_port_runner(2) as runner:
            dist = _partition(runner, stream())
        _assert_same(dist, _partition("simulated", stream()))
        _assert_clean()

    def test_single_worker_matches_simulated(self, tmp_path):
        """The lone worker is a server: it keeps a set-bit log, which
        the coordinator's state takes at every barrier."""
        stream = _file_stream(_graph(), tmp_path)
        with host_port_runner(1) as runner:
            dist = _partition(runner, stream(), n_workers=1)
        _assert_same(dist, _partition("simulated", stream(), n_workers=1))
        assert dist.extras["wire"]["bytes_sent"] > 0
        _assert_clean()

    def test_packed_state_and_wire_stats(self, tmp_path):
        stream = _file_stream(_graph(), tmp_path)
        with host_port_runner(2) as runner:
            dist = _partition(runner, stream(), packed_state=True)
        _assert_same(dist, _partition("simulated", stream(), packed_state=True))
        stats = dist.extras["wire"]
        assert stats["bytes_sent"] > 0 and stats["bytes_received"] > 0
        assert 0 < stats["barrier_delta_bytes"]
        assert 0 < stats["barrier_plane_bytes"]
        assert stats["barrier_plane_bytes"] < stats["barrier_full_bytes"]
        _assert_clean()

    @WINDOW_NEWS_CASES
    def test_window_requests_carry_every_workers_news(
        self, monkeypatch, tmp_path, packed, sync, graph, kind
    ):
        """Every worker takes news, worker 0 too, and the wire stats
        count what was sent to all three servers."""

        def run(graph):
            stream = _file_stream(graph, tmp_path)
            with host_port_runner(3) as runner:
                return _window_news_partition(runner, stream(), packed, sync)

        _check_window_news(
            monkeypatch, packed, sync, graph, kind, owner=None, run=run
        )

    def test_in_memory_stream_rejected(self, monkeypatch, shared_memory_made):
        """Rejected before anything connects or copies the stream: no
        spec is built and no segment constructed."""

        def no_spec(stream):
            raise AssertionError("a stream spec was built")

        monkeypatch.setattr(distributed, "make_stream_spec", no_spec)
        with pytest.raises(ConfigurationError, match="file-backed"):
            _partition(
                ProcessRunner(workers=["127.0.0.1:9", "127.0.0.1:10"]),
                _graph(),
            )
        assert not shared_memory_made
        _assert_clean()

    def test_worker_count_mismatch_rejected(self, tmp_path):
        graph = _graph()
        path = tmp_path / "edges.bin"
        with EdgeListWriter(str(path)) as writer:
            writer.write_chunk(graph.edges)
        with pytest.raises(ConfigurationError, match="must match"):
            _partition(
                ProcessRunner(workers=["127.0.0.1:9"]),
                FileEdgeStream(str(path), n_vertices=graph.n_vertices),
                n_workers=3,
            )
        _assert_clean()

    def test_unreachable_worker_is_typed_error(self, tmp_path):
        graph = _graph()
        path = tmp_path / "edges.bin"
        with EdgeListWriter(str(path)) as writer:
            writer.write_chunk(graph.edges)
        # A listener that never accepts protocol traffic is not needed:
        # nothing listens on the reserved port at all.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(PartitioningError, match="could not connect"):
            _partition(
                ProcessRunner(
                    workers=[f"127.0.0.1:{port}", f"127.0.0.1:{port}"],
                    connect_timeout=0.5,
                ),
                FileEdgeStream(str(path), n_vertices=graph.n_vertices),
            )
        _assert_clean()


class TestRunnerConfig:
    def test_make_runner_passes_the_process_knobs_through(self):
        runner = make_runner(
            "process",
            task_timeout=12.0,
            workers=["node-1:9001", "node-2:9002"],
            connect_timeout=3.0,
        )
        assert isinstance(runner, ProcessRunner)
        assert runner.task_timeout == 12.0
        assert runner.workers == [("node-1", 9001), ("node-2", 9002)]
        assert runner.connect_timeout == 3.0

    @pytest.mark.parametrize("name", ["distributed", "threads"])
    def test_unknown_runner_lists_the_three_runners(self, name):
        with pytest.raises(ConfigurationError) as exc:
            make_runner(name)
        assert str(exc.value) == (
            f"unknown runner {name!r}; available: "
            "['process', 'serial', 'simulated']"
        )

    @pytest.mark.parametrize(
        "spec", ["nohost", ":8000", "h:", "h:abc", "h:0", "h:70000"]
    )
    def test_rejects_malformed_worker_specs(self, spec):
        with pytest.raises(ConfigurationError, match="worker spec"):
            ProcessRunner(workers=["127.0.0.1:9001", spec])

    @pytest.mark.parametrize(
        "knobs, name",
        [
            ({"task_timeout": 0}, "task_timeout"),
            ({"task_timeout": -2.5}, "task_timeout"),
            ({"connect_timeout": 0}, "connect_timeout"),
            ({"connect_timeout": -1}, "connect_timeout"),
        ],
        ids=["task-0", "task-negative", "connect-0", "connect-negative"],
    )
    def test_rejects_nonpositive_timeouts(self, knobs, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be positive"):
            ProcessRunner(**knobs)


# ---------------------------------------------------------------------
# failure injection (ISSUE satellite: typed errors + clean teardown)
# ---------------------------------------------------------------------
def _rows(head, tail) -> np.ndarray:
    """``head`` then ``tail`` as ``(m, 2)`` int64 move rows."""
    return np.append(head, tail).astype(np.int64).reshape(-1, 2)


def _crash_handler(ctx, payload):
    import os

    os._exit(1)  # hard worker death: SIGKILL-like, no cleanup


def _disconnect_handler(ctx, payload):
    # SystemExit is not caught by the handler-error guard (it only
    # catches Exception), so the worker leaves its serve loop through
    # the finally-close: an orderly FIN mid-protocol, not a crash.
    raise SystemExit(0)


def _stall_handler(ctx, payload):
    time.sleep(1.5)
    return wire.MSG_OK, None


def _past_worker_0(msg_type, fault):
    """``fault`` as the handler of ``msg_type`` in every worker but
    worker 0, which keeps the real handler: worker 0 of a loopback
    session runs in the test process, where a fault that ends or stalls
    a process would end or stall the test run."""
    real = distributed._MESSAGE_HANDLERS[msg_type]

    def handler(ctx, payload):
        if ctx["worker_index"] >= 1:
            return fault(ctx, payload)
        return real(ctx, payload)

    return handler


class _FailureMatrix:
    """Each injected fault must surface as PartitioningError and leave
    no socket or worker process behind (and, as everywhere in this
    module, construct no shared-memory segment).  A subclass runs the
    two-worker test session (:meth:`_run`) and says where its workers
    run."""

    runner = "process"
    #: The first worker the collect reads: the first whose shard the
    #: coordinator does not hold.
    collected_first: int
    #: The leading edges whose assignments a worker's windows wrote into
    #: the job's own array before the collect.
    in_place: int
    #: A worker's death mid-window, as the coordinator sees it.
    crash = staticmethod(_crash_handler)

    def _run(self, **runner_kw):
        raise NotImplementedError

    def _run_with_fault(self, monkeypatch, msg_type, handler, **runner_kw):
        monkeypatch.setitem(
            distributed._MESSAGE_HANDLERS, msg_type, handler
        )
        with pytest.raises(PartitioningError) as excinfo:
            self._run(**runner_kw)
        return excinfo

    def test_worker_crash_mid_window(self, monkeypatch):
        excinfo = self._run_with_fault(
            monkeypatch,
            wire.MSG_WINDOW,
            _past_worker_0(wire.MSG_WINDOW, self.crash),
        )
        assert "prepartition: worker 1 died or stalled" in str(excinfo.value)
        assert str(excinfo.value).startswith(f"{self.runner} ")
        _assert_clean()
        assert not multiprocessing.active_children()

    def test_disconnect_while_applying_window_news(self, monkeypatch):
        """A worker that leaves while it applies the barrier news its
        window request carried: the first news rides on the pre-partition
        pass's second window."""
        real = distributed._w_window

        def leave_on_news(ctx, payload):
            if "sizes" in payload:
                raise SystemExit(0)
            return real(ctx, payload)

        excinfo = self._run_with_fault(
            monkeypatch,
            wire.MSG_WINDOW,
            _past_worker_0(wire.MSG_WINDOW, leave_on_news),
        )
        assert "prepartition: worker 1 died or stalled" in str(excinfo.value)
        assert str(excinfo.value).startswith(f"{self.runner} ")
        _assert_clean()
        assert not multiprocessing.active_children()

    def test_disconnect_during_collect(self, monkeypatch):
        excinfo = self._run_with_fault(
            monkeypatch,
            wire.MSG_COLLECT,
            _past_worker_0(wire.MSG_COLLECT, _disconnect_handler),
        )
        assert "collect: worker 1 died or stalled" in str(excinfo.value)
        assert str(excinfo.value).startswith(f"{self.runner} ")
        _assert_clean()
        assert not multiprocessing.active_children()

    def test_unassigned_edge_fails_the_collect(self, monkeypatch):
        """Every worker's shard has an unassigned edge, its last: the
        coordinator's check names the first worker the collect reads."""
        real = distributed._w_collect

        def unassigned(ctx, payload):
            ctx["assignments"][-1] = -1
            return real(ctx, payload)

        excinfo = self._run_with_fault(monkeypatch, wire.MSG_COLLECT, unassigned)
        assert excinfo.match(
            f"collect: worker {self.collected_first} assigned edge "
            f"{self.in_place + 449} to "
            r"partition -1, outside \[0, 5\)"
        )
        _assert_clean()
        assert not multiprocessing.active_children()

    #: Hostile collect frames: ``(mutate(assignments, k), match)``, each
    #: returning the assignments a worker's collect ships; ``{last}`` is
    #: the last edge of its 450.
    HOSTILE_COLLECTS = {
        "int64": (lambda a, k: a.astype(np.int64), "expected the 450 int32"),
        "short": (lambda a, k: a[:-1], "expected the 450 int32"),
        "2-d": (lambda a, k: a.reshape(-1, 1), "expected the 450 int32"),
        "id-k": (
            lambda a, k: np.append(a[:-1], np.int32(k)),
            r"edge {last} to partition 5, outside \[0, 5\)",
        ),
        "negative": (
            lambda a, k: np.append(a[:-1], np.int32(-1)),
            r"edge {last} to partition -1, outside \[0, 5\)",
        ),
    }

    @pytest.mark.parametrize("case", sorted(HOSTILE_COLLECTS))
    def test_hostile_collect_is_rejected_before_the_assignments_are_written(
        self, monkeypatch, case
    ):
        """A collect frame of the wrong type, length or shape, or naming
        a partition outside ``[0, k)``: one typed error naming the runner
        and the collect, raised before ``job.assignments`` takes any
        collected shard.  The hostile frame comes from the first worker
        the collect reads; the ``in_place`` edges before its shard
        (worker 0's 450, or none) were written by worker 0's windows
        already."""
        real = distributed._w_collect
        mutate, match = self.HOSTILE_COLLECTS[case]
        first, in_place = self.collected_first, self.in_place

        def hostile(ctx, payload):
            msg_type, fields = real(ctx, payload)
            if ctx["worker_index"] == first:
                fields["assignments"] = mutate(fields["assignments"], ctx["k"])
            return msg_type, fields

        untouched = []
        transport = distributed.WorkerTransport
        finalize = transport.finalize

        def recording(self):
            try:
                finalize(self)
            except PartitioningError:
                written, others = np.split(self.job.assignments, [in_place])
                untouched.append(bool((written >= 0).all() and (others == -1).all()))
                raise

        monkeypatch.setattr(transport, "finalize", recording)
        excinfo = self._run_with_fault(monkeypatch, wire.MSG_COLLECT, hostile)
        assert excinfo.match(match.format(last=in_place + 449))
        assert str(excinfo.value).startswith(
            f"{self.runner} collect: worker {first} "
        )
        assert untouched == [True], "the job took assignments before the check"
        _assert_clean()
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda log, n_cells: np.append(log, np.int64(n_cells)), "outside the"),
            (lambda log, n_cells: np.append(log, np.int64(-1)), "outside the"),
            (
                lambda log, n_cells: np.append(log, log[:1] ^ np.int64(1 << 62)),
                "outside the",
            ),
            (lambda log, n_cells: log.astype(np.int32), "1-d int64 array"),
            (lambda log, n_cells: log.astype(np.uint32), "1-d int64 array"),
            (lambda log, n_cells: log.reshape(-1, 1), "1-d int64 array"),
            (
                lambda log, n_cells: np.zeros(2 * 37 + 1, dtype=log.dtype),
                "more than the 74 bits",
            ),
        ],
        ids=["n*k", "negative", "bit-flipped", "int32", "uint32", "2-d", "too-long"],
    )
    def test_hostile_log_is_rejected_before_the_barrier_writes(
        self, monkeypatch, mutate, match
    ):
        """A window result whose set-bit log is out of range, of the
        wrong type or longer than its window can set: one typed error,
        raised before the coordinator's global state takes any bit."""
        real = distributed._w_window

        def hostile(ctx, payload):
            msg_type, fields = real(ctx, payload)
            view = ctx["view"]
            fields["log"] = mutate(fields["log"], view.n_vertices * view.k)
            return msg_type, fields

        writes = []
        kernels_cls = type(get_backend())
        apply = kernels_cls.apply_replica_log

        def recording(self, state, logs):
            try:
                apply(self, state, logs)
            except PartitioningError:
                raise
            writes.append(len(logs))

        monkeypatch.setattr(kernels_cls, "apply_replica_log", recording)
        excinfo = self._run_with_fault(monkeypatch, wire.MSG_WINDOW, hostile)
        assert excinfo.match(match)
        assert not writes, "the coordinator's state took a hostile log"
        _assert_clean()
        assert not multiprocessing.active_children()

    #: Hostile clustering exports: ``(mutate(moves, fresh, n, ids),
    #: match)``, each returning the ``(moves, fresh)`` fields a window
    #: result ships for a graph of ``n`` vertices from a worker whose
    #: window left it ``ids`` cluster ids, the first id past its range.
    HOSTILE_MOVES = {
        "vertex-n": (lambda m, f, n, i: (_rows(m, [n, 0]), f), "outside the"),
        "negative-vertex": (lambda m, f, n, i: (_rows([-1, 0], m), f), "outside the"),
        "flat": (lambda m, f, n, i: (m.ravel(), f), r"\(m, 2\) int64 array"),
        "target-past-range": (
            lambda m, f, n, i: (_rows(m[:-1], [m[-1, 0], i]), f),
            r"in cluster (\d+), outside its \1 cluster ids",
        ),
        "target-minus-one": (
            lambda m, f, n, i: (_rows(m[:-1], [m[-1, 0], -1]), f),
            "in cluster -1, outside its",
        ),
        "repeated-vertex": (
            lambda m, f, n, i: (_rows(m, m[-1]), f),
            "each vertex once",
        ),
        "uint32": (lambda m, f, n, i: (m.astype(np.uint32), f), r"\(m, 2\) int64"),
        "3-columns": (
            lambda m, f, n, i: (np.hstack((m, m[:, :1])), f),
            r"\(m, 2\) int64 array",
        ),
        "fresh-past-moves": (lambda m, f, n, i: (m, len(m) + 1), "fresh clusters"),
        "negative-fresh": (lambda m, f, n, i: (m, -1), "fresh clusters"),
    }

    @pytest.mark.parametrize("case", sorted(HOSTILE_MOVES))
    def test_hostile_moves_are_rejected_before_the_merge_writes(
        self, monkeypatch, case
    ):
        """A clustering window result whose moves name a vertex out of
        range, a cluster id outside the window's range (-1 included: no
        window unclusters a vertex) or a vertex twice, come in the wrong
        type or shape or claim an impossible fresh-cluster count: one
        typed error, raised before the coordinator's global clustering
        takes any move."""
        real = distributed._w_cluster
        mutate, match = self.HOSTILE_MOVES[case]

        def hostile(ctx, payload):
            msg_type, fields = real(ctx, payload)
            state = ctx["clusterer"].state
            fields["moves"], fields["fresh"] = mutate(
                fields["moves"], fields["fresh"], len(state.v2c), state.n_ids()
            )
            return msg_type, fields

        merged, refused = [], []
        kernels_cls = type(get_backend())
        merge = kernels_cls.merge_phase1_clustering

        def recording(self, v2c, volumes, exports, degrees):
            before = (v2c.copy(), volumes.view().copy())
            try:
                accepted = merge(self, v2c, volumes, exports, degrees)
            except PartitioningError:
                refused.append(
                    np.array_equal(v2c, before[0])
                    and np.array_equal(volumes.view(), before[1])
                )
                raise
            merged.append(len(exports))
            return accepted

        monkeypatch.setattr(kernels_cls, "merge_phase1_clustering", recording)
        excinfo = self._run_with_fault(monkeypatch, wire.MSG_CLUSTER, hostile)
        assert excinfo.match(match)
        assert not merged, "the coordinator's clustering took hostile moves"
        assert all(refused)
        _assert_clean()
        assert not multiprocessing.active_children()

    def test_malformed_sizes_are_rejected(self, monkeypatch):
        real = distributed._w_window

        def short_sizes(ctx, payload):
            msg_type, fields = real(ctx, payload)
            fields["sizes"] = fields["sizes"][:-1]
            return msg_type, fields

        excinfo = self._run_with_fault(monkeypatch, wire.MSG_WINDOW, short_sizes)
        assert excinfo.match("malformed sizes")
        _assert_clean()
        assert not multiprocessing.active_children()

    def test_recv_timeout_on_stalled_worker(self, monkeypatch):
        excinfo = self._run_with_fault(
            monkeypatch,
            wire.MSG_WINDOW,
            _past_worker_0(wire.MSG_WINDOW, _stall_handler),
            task_timeout=0.2,
        )
        assert "prepartition: worker 1 died or stalled" in str(excinfo.value)
        assert str(excinfo.value).startswith(f"{self.runner} ")
        assert "no reply within the 0.2 s timeout" in str(excinfo.value)
        _assert_clean()
        assert not multiprocessing.active_children()

    def test_worker_exception_reported_with_step(self, monkeypatch):
        def boom(ctx, payload):
            raise ValueError("injected kernel failure")

        monkeypatch.setitem(
            distributed._MESSAGE_HANDLERS, wire.MSG_WINDOW, boom
        )
        with pytest.raises(PartitioningError, match="injected kernel"):
            self._run()
        _assert_clean()
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize(
        "msg_type, expected",
        [
            (
                wire.MSG_WINDOW,
                "phase-2 worker {w} failed during the prepartition pass",
            ),
            (wire.MSG_BIND, "{runner} worker {w} failed during phase-2 bind"),
        ],
        ids=["window", "bind"],
    )
    def test_raising_handler_in_worker_0_fails_as_in_worker_1(
        self, monkeypatch, msg_type, expected
    ):
        """A handler that raises in worker 0 gives the typed error one
        that raises in worker 1 gives, naming the worker and the step
        (and, outside a sweep, the runner), and the session leaves
        nothing behind.  Worker 0 of a loopback session runs its
        handlers in the coordinator and worker 1 is a forked process;
        both workers of a ``host:port`` session are servers."""
        real = distributed._MESSAGE_HANDLERS[msg_type]

        def raising_in(raiser):
            def boom(ctx, payload):
                if ctx["worker_index"] == raiser:
                    raise ValueError("injected")
                return real(ctx, payload)

            return boom

        messages = {}
        for raiser in (0, 1):
            excinfo = self._run_with_fault(monkeypatch, msg_type, raising_in(raiser))
            messages[raiser] = str(excinfo.value)
            _assert_clean()
            assert not multiprocessing.active_children()
        for w, message in messages.items():
            named = expected.format(runner=self.runner, w=w)
            assert message == f"{named}: ValueError: injected"


@needs_fork
class TestFailureInjection(_FailureMatrix):
    """The matrix on a loopback session: worker 0 runs in the test
    process and worker 1 is a forked process, which inherited the
    patched registry.  The collect reads worker 1 only: worker 0's
    windows wrote its 450-edge shard into the job's assignments."""

    collected_first = 1
    in_place = 450

    def _run(self, **runner_kw):
        return _partition(
            make_runner(self.runner, **runner_kw), _graph()
        )

    @pytest.mark.parametrize("packed", [False, True], ids=["dense", "packed"])
    def test_worker_0_leaves_its_inputs_alone_and_replies_with_its_own_arrays(
        self, monkeypatch, packed
    ):
        """Requests and replies of a worker in this process pass by
        reference.  Worker 0 is handed the job's state and its slice of
        the job's assignments, which its windows write, and never any
        news; no handler writes any other array it was handed (``part``,
        ``weights``, the degrees, the news), and no array it returned is
        written by its later work, the next window included.  Worker 1
        of the simulated run takes its news as copies, never as a view
        of the job's state, which worker 0 writes before worker 1's
        handler runs.  Only the workers in this process are recorded:
        worker 0 of the run under test, workers 0 and 1 of the simulated
        one."""
        handed, binds, news, untouched, intact = {}, [], [], [], []
        returned: list = []

        def spying(real):
            def handler(ctx, payload):
                given = [
                    (key, value, value.copy())
                    for key, value in payload.items()
                    if isinstance(value, np.ndarray) and key != "assignments"
                ]
                out_type, fields = real(ctx, payload)
                w = ctx["worker_index"]
                handed.setdefault(w, set()).update(
                    key
                    for key, value in payload.items()
                    if isinstance(value, np.ndarray)
                )
                if "state" in payload:
                    binds.append((payload["state"], payload["assignments"]))
                news.extend(
                    value
                    for key, value in payload.items()
                    if key in ("log", "plane", "sizes")
                )
                untouched.extend(np.array_equal(v, c) for _, v, c in given)
                intact.extend(np.array_equal(v, c) for v, c in returned)
                returned.extend(
                    (value, value.copy())
                    for value in (fields or {}).values()
                    if isinstance(value, np.ndarray)
                )
                return out_type, fields

            return handler

        for msg_type, real in list(distributed._MESSAGE_HANDLERS.items()):
            monkeypatch.setitem(distributed._MESSAGE_HANDLERS, msg_type, spying(real))
        graph = _graph()
        runs = {
            name: ParallelTwoPhase(
                n_workers=2,
                sync_interval=300 if packed else 37,
                runner=make_runner(name),
                parallel_phase1=True,
                packed_state=packed,
            ).partition(graph, 5, chunk_size=64)
            for name in (self.runner, "simulated")
        }
        _assert_same(*runs.values())
        assert sorted(handed) == [0, 1]
        assert {"part", "weights", "degrees", "assignments"} <= handed[0]
        assert not handed[0] & {"log", "plane", "sizes"}, "worker 0 got news"
        assert {"plane" if packed else "log", "sizes"} <= handed[1]
        assert len(binds) == 2
        for (state, assignments), result in zip(binds, runs.values()):
            assert state is result.state
            assert assignments.shape == (450,)
            assert np.shares_memory(assignments, result.assignments[:450])
        sim = runs["simulated"].state
        targets = (_replica_plane(sim.replicas)[0], sim.sizes)
        aliased = [np.shares_memory(value, t) for value in news for t in targets]
        assert aliased and not any(aliased), "news aliasing the job's state"
        assert untouched and all(untouched), "a handler wrote an array it was handed"
        assert intact and all(intact), "a handler wrote an array it returned"
        _assert_clean()


class TestHostPortFailureInjection(_FailureMatrix):
    """The matrix on ``host:port`` workers: two one-session
    :func:`serve_worker` servers on threads of the test process, which
    read the patched registry, stream the test graph's file.  The
    coordinator holds no worker, so the collect reads every shard,
    worker 0's first, and no assignment is written in place.  A worker
    server that dies closes its socket, which on a thread is the
    disconnect of :func:`_disconnect_handler`."""

    collected_first = 0
    in_place = 0
    crash = staticmethod(_disconnect_handler)

    @pytest.fixture(autouse=True)
    def _edge_file(self, tmp_path):
        self._stream = _file_stream(_graph(), tmp_path)

    def _run(self, **runner_kw):
        with host_port_runner(2, **runner_kw) as runner:
            return _partition(runner, self._stream())

    def test_stalled_handshake_times_out(self, monkeypatch):
        """Servers that accept the connection but do not answer the
        hello fail the session once ``task_timeout`` has passed."""
        real = wire.handshake_server

        def stalled(conn, version=None):
            time.sleep(1.5)
            return real(conn, version=version)

        monkeypatch.setattr(wire, "handshake_server", stalled)
        with pytest.raises(PartitioningError, match="handshake failed") as exc:
            self._run(task_timeout=0.2)
        assert str(exc.value).startswith(f"{self.runner} ")
        _assert_clean()


@needs_fork
class TestLoopbackSessions:
    """A loopback session of ``n`` workers runs worker 0 in the
    coordinator: ``n - 1`` sockets and processes; a ``host:port`` session
    connects to all ``n`` workers."""

    @staticmethod
    def _job(stream, n_workers):
        return ShardedJob(
            stream=stream,
            backend="python",
            k=4,
            alpha=1.05,
            hash_seed=0,
            hdrf_lambda=1.1,
            cost=CostCounter(),
            n_workers=n_workers,
            sync_interval=64,
        )

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_loopback_session_holds_n_minus_1_sockets_and_processes(
        self, n_workers
    ):
        session = ProcessRunner().open(
            self._job(InMemoryEdgeStream(_graph()), n_workers)
        )
        try:
            assert len(live_connections()) == n_workers - 1
            assert len(live_worker_processes()) == n_workers - 1
        finally:
            session.close()
        _assert_clean()
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_host_port_session_holds_n_sockets(self, tmp_path, n_workers):
        stream = _file_stream(_graph(), tmp_path)
        with host_port_runner(n_workers) as runner:
            session = runner.open(self._job(stream(), n_workers))
            try:
                assert len(live_connections()) == n_workers
                assert live_worker_processes() == frozenset()
            finally:
                session.close()
        _assert_clean()

    def test_one_worker_session_starts_no_process_socket_or_segment(
        self, monkeypatch, shared_memory_made
    ):
        """The lone worker is worker 0: the run never builds a fork
        context, a stream spec or a copy of the stream, never makes a
        socket or a segment, and matches the simulated runner."""
        graph = _graph()
        sim = _partition("simulated", graph, n_workers=1)
        monkeypatch.setattr(multiprocessing, "get_context", _refuse("a process"))
        monkeypatch.setattr(distributed, "make_stream_spec", _refuse("a spec"))
        monkeypatch.setattr(distributed, "_forked_stream", _refuse("a copy"))
        monkeypatch.setattr(socket, "socket", _refuse("a socket"))
        dist = _partition("process", graph, n_workers=1)
        _assert_same(dist, sim)
        assert dist.extras["wire"]["bytes_sent"] == 0
        assert not shared_memory_made
        _assert_clean()


def _refuse(what):
    """A stand-in that fails the test if a session makes ``what``."""

    def refused(*args, **kwargs):
        raise AssertionError(f"the session made {what}")

    return refused


def _open_fds() -> int | None:
    """File descriptors open in this process, where ``/proc`` shows."""
    fds = "/proc/self/fd"
    return len(os.listdir(fds)) if os.path.isdir(fds) else None


class TestForkFailures:
    """Loopback workers are forked: a fork that fails is a typed error,
    and a host without ``fork`` refuses sessions that would fork one."""

    @needs_fork
    def test_failed_fork_is_a_typed_error(self, monkeypatch):
        """``Process.start()`` raising (here the fork itself fails with
        ``EAGAIN``, and no process starts) surfaces as one
        PartitioningError naming the runner and the worker, with the
        OSError as its cause; the listener and every socket are closed."""

        def no_fork(process_obj):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(
            multiprocessing.context.ForkProcess, "_Popen", staticmethod(no_fork)
        )
        graph = _graph()
        fds = _open_fds()
        with pytest.raises(PartitioningError) as exc:
            _partition("process", graph, n_workers=3)
        assert str(exc.value) == (
            "process could not start loopback worker 1: "
            f"[Errno {errno.EAGAIN}] Resource temporarily unavailable"
        )
        assert isinstance(exc.value.__cause__, BlockingIOError)
        assert _open_fds() == fds
        _assert_clean()
        assert not multiprocessing.active_children()

    @pytest.fixture
    def host_without_fork(self, monkeypatch):
        """Make this host look like one without ``fork``: no ``fork``
        among the start methods, and no fork context."""
        methods = [m for m in multiprocessing.get_all_start_methods() if m != "fork"]
        get_context = multiprocessing.get_context

        def no_fork_context(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        monkeypatch.setattr(multiprocessing, "get_context", no_fork_context)

    def test_host_without_fork_refuses_loopback_workers(
        self, host_without_fork, monkeypatch
    ):
        """A two-worker session raises the ConfigurationError, pointing
        to ``host:port`` workers, before any listener, socket or process
        exists; a one-worker session, which forks nothing, still runs
        and matches the simulated runner."""
        graph = _graph()
        sim = _partition("simulated", graph, n_workers=1)
        monkeypatch.setattr(socket, "socket", _refuse("a socket"))
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", _refuse("a process")
        )
        with pytest.raises(ConfigurationError, match="cannot fork") as exc:
            _partition("process", graph)
        assert "host:port" in str(exc.value)
        _assert_same(_partition("process", graph, n_workers=1), sim)
        _assert_clean()


def test_a_window_outside_the_workers_shard_raises():
    """A worker writes only its own shard's assignments: a window request
    past its bounds fails before any kernel runs."""
    ctx = {"view": None, "log": ReplicaLog(4), "shard": (100, 150)}
    for start, stop in ((90, 110), (140, 151), (150, 160)):
        payload = {"pass": "prepartition", "start": start, "stop": stop}
        with pytest.raises(PartitioningError, match=r"outside this worker's shard"):
            distributed._w_window(ctx, payload)


@needs_fork
class TestDeadLoopbackWorker:
    """A loopback worker that dies before it connects fails the session
    at once, with its exit code, instead of after ``connect_timeout``."""

    def test_worker_dead_before_connect_fails_fast(self, monkeypatch):
        def dead(address, stream):
            import os

            os._exit(3)

        monkeypatch.setattr(distributed, "_loopback_worker_main", dead)
        start = time.monotonic()
        runner = ProcessRunner()
        with pytest.raises(PartitioningError, match="exited with code 3") as exc:
            _partition(runner, _graph())
        assert time.monotonic() - start < 2.0
        assert str(exc.value).startswith("process loopback worker 1 ")
        _assert_clean()
        assert not multiprocessing.active_children()


class TestVersionMismatchHandshake:
    def test_mismatched_worker_is_typed_error(self, tmp_path):
        graph = _graph()
        path = tmp_path / "edges.bin"
        with EdgeListWriter(str(path)) as writer:
            writer.write_chunk(graph.edges)
        addr_a, thread_a = serve_one_session(version=wire.WIRE_VERSION + 1)
        addr_b, thread_b = serve_one_session(version=wire.WIRE_VERSION + 1)
        with pytest.raises(PartitioningError, match="handshake"):
            _partition(
                ProcessRunner(workers=[addr_a, addr_b]),
                FileEdgeStream(str(path), n_vertices=graph.n_vertices),
            )
        thread_a.join(timeout=10)
        thread_b.join(timeout=10)
        _assert_clean()


def _hello_with_text_version(conn):
    conn.send(
        wire.MSG_HELLO, {"version": "five", "kernels": c_backend.source_digest()}
    )


def _malformed_payload(conn):
    payload = _array_payload(b"|O")
    header = (wire.MAGIC, wire.MSG_HELLO, 0, 0, len(payload), zlib.crc32(payload))
    conn.sock.sendall(struct.pack("!4sBBHII", *header) + payload)


class TestServerOutlivesMalformedSessions:
    @pytest.mark.parametrize(
        "malformed",
        [_hello_with_text_version, _malformed_payload],
        ids=["text-version", "malformed-payload"],
    )
    def test_server_serves_a_session_after_a_malformed_one(self, tmp_path, malformed):
        """A peer that opens with a HELLO whose version is text, or with
        a CRC-valid payload the decoder refuses, ends its own session
        only: ``serve_worker(max_sessions=2)`` then serves a real one,
        bit-exact with the simulated runner, and returns 2."""
        bound, served = threading.Event(), []
        address = []

        def ready(host, port):
            address.append((host, port))
            bound.set()

        def serve():
            served.append(distributed.serve_worker(max_sessions=2, ready=ready))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert bound.wait(timeout=10)
        conn = wire.Connection(socket.create_connection(address[0], timeout=10))
        try:
            malformed(conn)
            with pytest.raises(WireError, match="closed"):
                while True:  # an ERROR reply may come first, then the close
                    conn.recv()
        finally:
            conn.close()
        stream = _file_stream(_graph(), tmp_path)
        host, port = address[0]
        runner = ProcessRunner(workers=[f"{host}:{port}"])
        dist = _partition(runner, stream(), n_workers=1)
        thread.join(timeout=10)
        assert not thread.is_alive() and served == [2]
        _assert_same(dist, _partition("simulated", stream(), n_workers=1))
        _assert_clean()


class TestKernelDigestHandshake:
    @needs_fork
    def test_worker_built_from_other_source_is_typed_error(
        self, monkeypatch
    ):
        """Loopback workers whose kernel-source digest differs refuse
        the session; the coordinator raises, nothing leaks."""
        real = wire.handshake_server
        # Registered so teardown restores it, should a worker ever run
        # in this process rather than in a forked child.
        monkeypatch.setattr(wire, "source_digest", wire.source_digest)

        def other_source(conn, version=None):
            wire.source_digest = lambda: "f" * 64
            return real(conn, version=version)

        monkeypatch.setattr(wire, "handshake_server", other_source)
        with pytest.raises(PartitioningError, match="kernel source") as exc:
            _partition(ProcessRunner(), _graph())
        assert "f" * 64 in str(exc.value)
        assert c_backend.source_digest() in str(exc.value)
        _assert_clean()
        assert not multiprocessing.active_children()
