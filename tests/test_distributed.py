"""Tests for the distributed runner tier: wire protocol + socket workers.

Three layers, mirroring the implementation split:

- :mod:`repro.core.wire` in isolation — typed payload round-trips,
  framing over real socket pairs, CRC/magic/truncation rejection, and
  the HELLO version and kernel-source negotiation;
- :mod:`repro.core.distributed` end-to-end — loopback and ``host:port``
  bootstrap both pinned full-state bit-exact against the simulated
  runner (the deeper seeded matrix lives in ``tests/differential.py``);
- failure injection — worker crash mid-window, a socket disconnect
  while a worker applies the barrier news its window request carried
  or during the collect, a stalled reply tripping ``recv_timeout``, a
  hostile set-bit log, hostile clustering moves or a hostile collect, a
  loopback worker dead before it connects, and a version- or
  kernel-source-mismatch handshake must each surface as a typed
  :class:`~repro.errors.PartitioningError` with no leaked socket,
  worker process, or shared-memory segment.  The window, news and
  collect faults run under the process runner too, whose loopback
  workers are these socket workers.

Fault injection works by monkeypatching the module-level
``distributed._MESSAGE_HANDLERS`` registry before the session spawns
its loopback workers: fork-started children inherit the patched
registry, so the failure fires inside a real worker process.  Worker 0
of a loopback session runs in the test process itself, through the same
registry, and so does every worker of a simulated run: a fault that ends
or stalls a process fires only in the forked workers (``worker_index``
>= 1) of a run under test, since in this process it would end or stall
the test run.
"""

from __future__ import annotations

import multiprocessing
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro.core import ParallelTwoPhase, wire
from repro.core import distributed
from repro.core import runners as runners_module
from repro.core.distributed import (
    DistributedRunner,
    live_connections,
    live_worker_processes,
    parse_worker_spec,
    serve_worker,
)
from repro.core.runners import ShardedJob, live_shared_segments, make_runner
from repro.errors import ConfigurationError, PartitioningError, WireError
from repro.kernels import c_backend, get_backend
from repro.kernels.base import ReplicaLog
from repro.metrics.runtime import CostCounter
from repro.graph import Graph
from repro.graph.generators import chung_lu_graph
from repro.partitioning.state import _replica_plane
from repro.streaming import FileEdgeStream, InMemoryEdgeStream
from repro.streaming.writer import EdgeListWriter

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="needs the fork start method"
)


# ---------------------------------------------------------------------
# payload encoding
# ---------------------------------------------------------------------
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
    assert sorted(live_shared_segments()) == []


@needs_fork
class TestLoopbackEquivalence:
    def test_matches_simulated_runner(self):
        graph = _graph()
        dist = _partition("distributed", graph)
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
            for runner in ("distributed", "simulated")
        }
        assert runs["simulated"].cost.hash_evaluations > 0
        _assert_same(runs["distributed"], runs["simulated"])
        _assert_clean()

    def test_single_worker_matches_simulated(self):
        graph = _graph()
        _assert_same(
            _partition("distributed", graph, n_workers=1),
            _partition("simulated", graph, n_workers=1),
        )
        _assert_clean()

    def test_packed_state_and_wire_stats(self):
        graph = _graph()
        dist = _partition("distributed", graph, packed_state=True)
        sim = _partition("simulated", graph, packed_state=True)
        _assert_same(dist, sim)
        stats = dist.extras["wire"]
        assert stats["bytes_sent"] > 0 and stats["bytes_received"] > 0
        assert 0 < stats["barrier_delta_bytes"]
        assert 0 < stats["barrier_plane_bytes"]
        assert stats["barrier_plane_bytes"] < stats["barrier_full_bytes"]
        _assert_clean()

    @pytest.mark.parametrize("runner", ["distributed", "process"])
    @pytest.mark.parametrize(
        "packed, sync, n_edges, kind",
        [
            (False, 37, 900, "log"),
            (True, 300, 900, "plane"),
            (False, 299, 898, "plane"),
        ],
        ids=["dense", "packed", "sat-out"],
    )
    def test_window_requests_carry_other_workers_cells_or_the_plane(
        self, monkeypatch, runner, packed, sync, n_edges, kind
    ):
        """A Phase-2 barrier ships nothing itself: each worker's next
        window request carries the cells the other workers logged since
        its last window, in uint32, or the merged plane where that is
        fewer bytes, plus the merged sizes; the run's last barrier ships
        nothing.  Worker 0 runs in this process and its view is the
        job's state, which the barrier writes: it gets no news.  The run
        stays bit-exact, and the wire stats count what was sent to the
        two worker processes and are the session's last (the collect's
        frame included).  The 600-byte dense plane takes the logs of
        37-edge windows, the 120-byte packed one is shipped whole after
        a 300-edge window, and with shards of 299, 299 and 300 edges in
        299-edge windows workers 0 and 1 sit out every pass's second
        sweep, so worker 1's next windows carry the news of two
        barriers.  Only the session under test is recorded: the
        simulated runner's runs on the same transport."""
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
        graph = _graph()
        graph = Graph(graph.edges[:n_edges], graph.n_vertices)
        dist, sim = (
            ParallelTwoPhase(
                n_workers=3,
                sync_interval=sync,
                runner=name,
                packed_state=packed,
            ).partition(graph, 5, chunk_size=64)
            for name in (runner, "simulated")
        )
        _assert_same(dist, sim)
        plane_bytes = _replica_plane(dist.state.replicas)[0].nbytes
        logs, pending, sizes = {}, {}, None
        shipped, deliveries, kinds, most = 0, 0, set(), {}
        for event, w, value in events:
            if event == "log":
                assert value.dtype == np.uint32
                logs[w] = value
                continue
            if event == "barrier":
                for u in w:
                    if u == 0:
                        continue  # worker 0's view is the job's state
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
                [np.zeros(0, np.uint32), *(log for logs_ in news for log in logs_)]
            )
            if "log" in value:
                np.testing.assert_array_equal(value["log"], cells)
                assert value["log"].dtype == np.uint32
                assert cells.nbytes < plane_bytes
            else:
                assert value["plane"].nbytes == plane_bytes <= cells.nbytes
            np.testing.assert_array_equal(value["sizes"], sizes)
            kinds.update(set(value) - {"sizes"})
            shipped += min(cells.nbytes, plane_bytes)
            deliveries += 1
        assert kind in kinds
        sat_out = [0, 2, 1] if n_edges == 898 else [0, 1, 1]
        assert [most.get(w, 0) for w in range(3)] == sat_out, "barriers per delivery"
        # The run's last barrier ships nothing: its news stays queued.
        assert events[-1][0] == "barrier" and sorted(pending) == [1, 2]
        stats = dist.extras["wire"]
        assert at_close == [stats]
        sizes_bytes = 5 * 8
        assert stats["barrier_plane_bytes"] == shipped
        assert stats["barrier_delta_bytes"] == shipped + deliveries * sizes_bytes
        assert stats["barrier_full_bytes"] == deliveries * (plane_bytes + sizes_bytes)
        assert stats["barrier_plane_bytes"] < stats["barrier_full_bytes"]
        _assert_clean()


def _serve_in_thread(version=None):
    """Run one-session ``serve_worker`` on a thread; return its address."""
    box: dict = {}
    ready = threading.Event()

    def note(host, port):
        box["addr"] = f"{host}:{port}"
        ready.set()

    thread = threading.Thread(
        target=serve_worker,
        kwargs={"max_sessions": 1, "version": version, "ready": note},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10), "worker server never bound"
    return box["addr"], thread


class TestHostPortWorkers:
    def test_matches_simulated_over_file_stream(self, tmp_path):
        graph = _graph()
        path = tmp_path / "edges.bin"
        with EdgeListWriter(str(path)) as writer:
            writer.write_chunk(graph.edges)

        def stream():
            return FileEdgeStream(str(path), n_vertices=graph.n_vertices)

        addr_a, thread_a = _serve_in_thread()
        addr_b, thread_b = _serve_in_thread()
        dist = _partition(
            DistributedRunner(workers=[addr_a, addr_b]), stream()
        )
        thread_a.join(timeout=10)
        thread_b.join(timeout=10)
        assert not thread_a.is_alive() and not thread_b.is_alive()
        _assert_same(dist, _partition("simulated", stream()))
        _assert_clean()

    def test_in_memory_stream_rejected(self, monkeypatch):
        """Rejected before the stream is copied: no segment is ever
        registered."""
        registered = []

        class Recording(set):
            def add(self, name):
                registered.append(name)
                super().add(name)

        monkeypatch.setattr(runners_module, "_LIVE_SEGMENTS", Recording())
        with pytest.raises(ConfigurationError, match="file-backed"):
            _partition(
                DistributedRunner(workers=["127.0.0.1:9", "127.0.0.1:10"]),
                _graph(),
            )
        assert registered == []
        _assert_clean()

    def test_worker_count_mismatch_rejected(self, tmp_path):
        graph = _graph()
        path = tmp_path / "edges.bin"
        with EdgeListWriter(str(path)) as writer:
            writer.write_chunk(graph.edges)
        with pytest.raises(ConfigurationError, match="must match"):
            _partition(
                DistributedRunner(workers=["127.0.0.1:9"]),
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
                DistributedRunner(
                    workers=[f"127.0.0.1:{port}", f"127.0.0.1:{port}"],
                    connect_timeout=0.5,
                ),
                FileEdgeStream(str(path), n_vertices=graph.n_vertices),
            )
        _assert_clean()


class TestRunnerConfig:
    def test_make_runner_resolves_distributed(self):
        runner = make_runner("distributed", task_timeout=12.0)
        assert isinstance(runner, DistributedRunner)
        assert runner.recv_timeout == 12.0

    def test_unknown_runner_lists_distributed(self):
        with pytest.raises(ConfigurationError, match="distributed"):
            make_runner("threads")

    def test_rejects_nonpositive_timeouts(self):
        with pytest.raises(ConfigurationError):
            DistributedRunner(recv_timeout=0)
        with pytest.raises(ConfigurationError):
            DistributedRunner(connect_timeout=-1)

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ConfigurationError):
            DistributedRunner(start_method="no-such-method")


# ---------------------------------------------------------------------
# failure injection (ISSUE satellite: typed errors + clean teardown)
# ---------------------------------------------------------------------
def _cells(head, tail) -> np.ndarray:
    """``head`` then ``tail`` as the ``uint32`` move cells of the test
    graphs' frames; -1 becomes the largest ``uint32``."""
    return np.append(head, tail).astype(np.uint32)


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


def _in_forked_workers(msg_type, fault):
    """``fault`` as the handler of ``msg_type`` in the forked workers;
    worker 0, which runs in the test process, keeps the real handler."""
    real = distributed._MESSAGE_HANDLERS[msg_type]

    def handler(ctx, payload):
        if ctx["worker_index"] >= 1:
            return fault(ctx, payload)
        return real(ctx, payload)

    return handler


@needs_fork
class TestFailureInjection:
    """Each injected fault must surface as PartitioningError and leave
    no socket, worker process, or shared-memory segment behind."""

    runner = "distributed"

    def _runner(self, **runner_kw):
        return make_runner(self.runner, start_method="fork", **runner_kw)

    def _run_with_fault(self, monkeypatch, msg_type, handler, **runner_kw):
        monkeypatch.setitem(
            distributed._MESSAGE_HANDLERS, msg_type, handler
        )
        with pytest.raises(PartitioningError) as excinfo:
            _partition(self._runner(**runner_kw), _graph())
        return excinfo

    def test_worker_crash_mid_window(self, monkeypatch):
        excinfo = self._run_with_fault(
            monkeypatch,
            wire.MSG_WINDOW,
            _in_forked_workers(wire.MSG_WINDOW, _crash_handler),
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
            _in_forked_workers(wire.MSG_WINDOW, leave_on_news),
        )
        assert "prepartition: worker 1 died or stalled" in str(excinfo.value)
        assert str(excinfo.value).startswith(f"{self.runner} ")
        _assert_clean()
        assert not multiprocessing.active_children()

    def test_disconnect_during_collect(self, monkeypatch):
        excinfo = self._run_with_fault(
            monkeypatch,
            wire.MSG_COLLECT,
            _in_forked_workers(wire.MSG_COLLECT, _disconnect_handler),
        )
        assert "collect: worker 1 died or stalled" in str(excinfo.value)
        assert str(excinfo.value).startswith(f"{self.runner} ")
        _assert_clean()
        assert not multiprocessing.active_children()

    def test_unassigned_edge_fails_the_collect(self, monkeypatch):
        """The collect starts at worker 1: worker 0's windows wrote the
        job's own assignments."""
        real = distributed._w_collect

        def unassigned(ctx, payload):
            ctx["assignments"][-1] = -1
            return real(ctx, payload)

        excinfo = self._run_with_fault(monkeypatch, wire.MSG_COLLECT, unassigned)
        assert excinfo.match("worker 1 failed during collect: .* is unassigned")
        _assert_clean()
        assert not multiprocessing.active_children()

    #: Hostile collect frames: ``(mutate(cells, k), match)``, each
    #: returning the assignments a worker's collect ships.
    HOSTILE_COLLECTS = {
        "int32": (lambda a, k: a.astype(np.int32), "expected the 450 uint8"),
        "short": (lambda a, k: a[:-1], "expected the 450 uint8"),
        "2-d": (lambda a, k: a.reshape(-1, 1), "expected the 450 uint8"),
        "id-k": (
            lambda a, k: np.append(a[:-1], np.array(k, a.dtype)),
            r"partition 5, outside \[0, 5\)",
        ),
        # -1 in the wire's uint8 cells: its largest value.
        "negative": (
            lambda a, k: np.append(a[:-1], np.array(-1).astype(a.dtype)),
            r"partition 255, outside \[0, 5\)",
        ),
    }

    @pytest.mark.parametrize("case", sorted(HOSTILE_COLLECTS))
    def test_hostile_collect_is_rejected_before_the_assignments_are_written(
        self, monkeypatch, case
    ):
        """A collect frame of the wrong type, length or shape, or naming
        a partition outside ``[0, k)``: one typed error naming the runner
        and the collect, raised before ``job.assignments`` takes any
        collected shard.  The collect starts at worker 1: worker 0's
        shard of 450 edges is in place already, written by its
        windows."""
        real = distributed._w_collect
        mutate, match = self.HOSTILE_COLLECTS[case]

        def hostile(ctx, payload):
            msg_type, fields = real(ctx, payload)
            if ctx["worker_index"] == 1:
                fields["assignments"] = mutate(fields["assignments"], ctx["k"])
            return msg_type, fields

        untouched = []
        transport = distributed.WorkerTransport
        finalize = transport.finalize

        def recording(self):
            try:
                finalize(self)
            except PartitioningError:
                worker_0, others = np.split(self.job.assignments, [450])
                untouched.append(bool((worker_0 >= 0).all() and (others == -1).all()))
                raise

        monkeypatch.setattr(transport, "finalize", recording)
        excinfo = self._run_with_fault(monkeypatch, wire.MSG_COLLECT, hostile)
        assert excinfo.match(match)
        assert str(excinfo.value).startswith(f"{self.runner} collect: worker 1 ")
        assert untouched == [True], "the job took assignments before the check"
        _assert_clean()
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (
                lambda log, n_cells: np.append(log, np.array(n_cells, log.dtype)),
                "outside the",
            ),
            # -1 in the wire's uint32 cells: its largest value.
            (
                lambda log, n_cells: np.append(log, np.array(-1).astype(log.dtype)),
                "outside the",
            ),
            (
                lambda log, n_cells: np.append(log, log[:1] ^ np.uint32(1 << 31)),
                "outside the",
            ),
            (lambda log, n_cells: log.astype(np.int32), "1-d uint32 array"),
            (lambda log, n_cells: log.astype(np.int64), "1-d uint32 array"),
            (
                lambda log, n_cells: np.zeros(2 * 37 + 1, dtype=log.dtype),
                "more than the 74 bits",
            ),
        ],
        ids=["n*k", "negative", "bit-flipped", "int32", "int64", "too-long"],
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

    #: Hostile clustering exports: ``(mutate(cells, fresh, n), match)``,
    #: each returning the ``(moves, fresh)`` fields a window result ships
    #: for a graph of ``n`` vertices.
    HOSTILE_MOVES = {
        "vertex-n": (lambda c, f, n: (_cells(c, [n, 0]), f), "outside the"),
        # -1 in the wire's uint32 cells: its largest value.
        "negative-vertex": (lambda c, f, n: (_cells([-1, 0], c), f), "outside the"),
        "odd-cells": (lambda c, f, n: (c[:-1], f), "1-d uint32 array"),
        "target-past-range": (lambda c, f, n: (_cells(c[:-1], [-1]), f), "cluster ids"),
        "repeated-vertex": (lambda c, f, n: (_cells(c, c[-2:]), f), "each vertex once"),
        "int64": (lambda c, f, n: (c.astype(np.int64), f), "1-d uint32 array"),
        "2-d": (lambda c, f, n: (c.reshape(-1, 2), f), "1-d uint32 array"),
        "fresh-past-moves": (lambda c, f, n: (c, len(c) // 2 + 1), "fresh clusters"),
        "negative-fresh": (lambda c, f, n: (c, -1), "fresh clusters"),
    }

    @pytest.mark.parametrize("case", sorted(HOSTILE_MOVES))
    def test_hostile_moves_are_rejected_before_the_merge_writes(
        self, monkeypatch, case
    ):
        """A clustering window result whose moves name a vertex out of
        range, a cluster id past the window's range or a vertex twice,
        come in the wrong cells or claim an impossible fresh-cluster
        count: one typed error, raised before the coordinator's global
        clustering takes any move."""
        real = distributed._w_cluster
        mutate, match = self.HOSTILE_MOVES[case]

        def hostile(ctx, payload):
            msg_type, fields = real(ctx, payload)
            n = len(ctx["clusterer"].state.v2c)
            fields["moves"], fields["fresh"] = mutate(
                fields["moves"], fields["fresh"], n
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
            _in_forked_workers(wire.MSG_WINDOW, _stall_handler),
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
            _partition(self._runner(), _graph())
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
    def test_raising_handler_in_worker_0_fails_as_in_a_forked_worker(
        self, monkeypatch, msg_type, expected
    ):
        """Worker 0 runs its handlers in the coordinator: one that raises
        there gives the typed error a forked worker's gives, naming the
        worker and the step (and, outside a sweep, the runner), and
        every forked worker is reaped."""
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
                runner=make_runner(name, start_method="fork"),
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

    @pytest.mark.parametrize("runner", ["process", "distributed"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_loopback_session_holds_n_minus_1_sockets_and_processes(
        self, runner, n_workers
    ):
        session = make_runner(runner, start_method="fork").open(
            self._job(InMemoryEdgeStream(_graph()), n_workers)
        )
        try:
            assert len(live_connections()) == n_workers - 1
            assert len(live_worker_processes()) == n_workers - 1
        finally:
            session.close()
        _assert_clean()
        assert not multiprocessing.active_children()

    def test_host_port_session_holds_n_sockets(self, tmp_path):
        graph = _graph()
        path = tmp_path / "edges.bin"
        with EdgeListWriter(str(path)) as writer:
            writer.write_chunk(graph.edges)
        served = [_serve_in_thread() for _ in range(2)]
        stream = FileEdgeStream(str(path), n_vertices=graph.n_vertices)
        session = DistributedRunner(workers=[addr for addr, _ in served]).open(
            self._job(stream, 2)
        )
        try:
            assert len(live_connections()) == 2
            assert live_worker_processes() == frozenset()
        finally:
            session.close()
        for _, thread in served:
            thread.join(timeout=10)
            assert not thread.is_alive()
        _assert_clean()

    @pytest.mark.parametrize("runner", ["process", "distributed"])
    def test_one_worker_session_starts_no_process_socket_or_segment(
        self, runner, monkeypatch
    ):
        """The lone worker is worker 0: the run never builds a
        multiprocessing context or a stream spec, never makes a socket,
        and matches the simulated runner."""

        def refuse(what):
            def refused(*args, **kwargs):
                raise AssertionError(f"a one-worker session made {what}")

            return refused

        graph = _graph()
        sim = _partition("simulated", graph, n_workers=1)
        monkeypatch.setattr(distributed, "mp_context", refuse("a process"))
        monkeypatch.setattr(runners_module, "make_stream_spec", refuse("a segment"))
        monkeypatch.setattr(socket, "socket", refuse("a socket"))
        dist = _partition(make_runner(runner), graph, n_workers=1)
        _assert_same(dist, sim)
        assert dist.extras["wire"]["bytes_sent"] == 0
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

    @pytest.mark.parametrize("runner", ["process", "distributed"])
    def test_worker_dead_before_connect_fails_fast(self, runner, monkeypatch):
        def dead(address, stream):
            import os

            os._exit(3)

        monkeypatch.setattr(distributed, "_loopback_worker_main", dead)
        start = time.monotonic()
        runner_obj = make_runner(runner, start_method="fork")
        with pytest.raises(PartitioningError, match="exited with code 3") as exc:
            _partition(runner_obj, _graph())
        assert time.monotonic() - start < 2.0
        assert str(exc.value).startswith(f"{runner} loopback worker 1 ")
        _assert_clean()
        assert not multiprocessing.active_children()


class TestProcessRunnerFailureInjection(TestFailureInjection):
    """The same faults under the process runner, whose loopback workers
    are these socket workers: one failure surface for both runners, its
    messages naming ``process``."""

    runner = "process"


class TestVersionMismatchHandshake:
    def test_mismatched_worker_is_typed_error(self, tmp_path):
        graph = _graph()
        path = tmp_path / "edges.bin"
        with EdgeListWriter(str(path)) as writer:
            writer.write_chunk(graph.edges)
        addr_a, thread_a = _serve_in_thread(version=wire.WIRE_VERSION + 1)
        addr_b, thread_b = _serve_in_thread(version=wire.WIRE_VERSION + 1)
        with pytest.raises(PartitioningError, match="handshake"):
            _partition(
                DistributedRunner(workers=[addr_a, addr_b]),
                FileEdgeStream(str(path), n_vertices=graph.n_vertices),
            )
        thread_a.join(timeout=10)
        thread_b.join(timeout=10)
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
            _partition(DistributedRunner(start_method="fork"), _graph())
        assert "f" * 64 in str(exc.value)
        assert c_backend.source_digest() in str(exc.value)
        _assert_clean()
        assert not multiprocessing.active_children()
