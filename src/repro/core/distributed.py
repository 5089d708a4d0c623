"""Distributed runner: the socket transport of the sync-window driver.

Worker processes connected over TCP sockets speak the
:mod:`repro.core.wire` protocol under the one
:class:`~repro.core.runners.RunnerSession` driver, which owns the
schedule, the Phase-1 merges and all accounting.  Loopback by default —
the coordinator listens on ``127.0.0.1`` and forks local workers that
connect back — or against pre-started worker servers named by
``host:port`` specs (the CLI ``worker`` subcommand) for real clusters.

Why this transport is bit-exact with the simulated and process runners
is stated with the equivalence contract in :mod:`repro.core.runners`.
On the wire, a Phase-2 window returns its assignment slice, its cost
delta, the worker's sizes and its set-bit log (every replica bit the
window set that was clear in the worker's view; see
:class:`~repro.kernels.base.ReplicaLog`), its cells 4 bytes wide while
the plane's ``n * k`` cells fit (:func:`~repro.core.wire.log_cell_dtype`).
The coordinator checks each log's type and length against its window,
and the barrier sets the logged bits in the global state with the
kernel op ``apply_replica_log``, which checks every entry before it
writes, and merges sizes with :func:`~repro.core.runners.merge_sizes`.
It then sends each worker the merged sizes and the cells the *other*
workers logged, or the merged plane where that is fewer bytes, so no
barrier ships more than a full re-broadcast; each worker applies what
it gets to its view and acknowledges before the next sweep.
A Phase-1 clustering window carries the merged snapshot it loads from,
except for a lone worker, which keeps one live clustering state
worker-side until ``CLUSTER_FINISH``.

Failure surface
---------------
No hangs, no leaked sockets or shm: every recv runs under the session's
``recv_timeout``, worker death / disconnection / corruption surfaces as
a typed :class:`~repro.errors.PartitioningError`
(:class:`~repro.errors.WireError`), and session ``close()`` — invoked on
every error path — shuts sockets, reaps spawned workers, and releases
any stream segment.  ``live_connections()`` / ``live_worker_processes()``
are the leak-check hooks, mirroring ``live_shared_segments()``.

Edge data never crosses the wire: remote (``host:port``) workers must be
handed a file-backed stream (:class:`~repro.streaming.stream.FileStreamSpec`)
and read their own shards; loopback workers may also map a shared-memory
edge segment, same-host by construction.
"""

from __future__ import annotations

import socket
from dataclasses import astuple

import numpy as np

from repro.core import wire
from repro.core.runners import (
    RUNNERS,
    Runner,
    RunnerSession,
    Transport,
    WorkerFailed,
    _BufferArena,
    _release_segment,
    _stream_spec,
    _SubStream,
    check_start_method,
    merge_sizes,
    mp_context,
    run_phase2_window,
)
from repro.errors import ConfigurationError, PartitioningError, WireError
from repro.kernels import get_backend
from repro.kernels.base import ReplicaLog, log_cells
from repro.metrics.runtime import CostCounter
from repro.partitioning.state import PartitionState, _replica_plane
from repro.streaming.stream import (
    FileStreamSpec,
    spec_from_wire,
    spec_to_wire,
)

#: Connections currently owned by open distributed sessions (leak-check
#: hook: must be empty whenever no session is open).
_LIVE_CONNECTIONS: set = set()

#: Locally spawned worker processes of open sessions (same contract).
_LIVE_WORKER_PROCS: set = set()


def live_connections() -> frozenset:
    """Coordinator connections of open sessions (leak-check hook)."""
    return frozenset(_LIVE_CONNECTIONS)


def live_worker_processes() -> frozenset:
    """Loopback worker processes of open sessions (leak-check hook)."""
    return frozenset(_LIVE_WORKER_PROCS)


def parse_worker_spec(spec: str) -> tuple[str, int]:
    """Parse one ``host:port`` worker address."""
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"worker spec {spec!r} is not of the form host:port"
        )
    try:
        port_no = int(port)
    except ValueError:
        raise ConfigurationError(
            f"worker spec {spec!r} has a non-integer port"
        ) from None
    if not 0 < port_no < 65536:
        raise ConfigurationError(
            f"worker spec {spec!r} has an out-of-range port"
        )
    return host, port_no


# ---------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------
def _w_job(ctx, payload):
    spec = spec_from_wire(payload["spec"])
    ctx["stream"] = spec.open()
    ctx["kernels"] = get_backend(payload["backend"])
    ctx["k"] = int(payload["k"])
    ctx["alpha"] = float(payload["alpha"])
    ctx["n_edges"] = int(payload["n_edges"])
    ctx["hash_seed"] = int(payload["hash_seed"])
    ctx["hdrf_lambda"] = float(payload["hdrf_lambda"])
    ctx["worker_index"] = int(payload["worker_index"])
    return wire.MSG_OK, None


def _w_degree(ctx, payload):
    window = _SubStream(
        ctx["stream"], int(payload["start"]), int(payload["stop"])
    )
    degrees = ctx["kernels"].degree_pass(window)
    return wire.MSG_DEGREE_RESULT, {
        "degrees": np.asarray(degrees, dtype=np.int64)
    }


def _w_phase1_init(ctx, payload):
    degrees = np.asarray(payload["degrees"], dtype=np.int64)
    ctx["p1_degrees"] = degrees
    ctx["p1_cap"] = float(payload["cap"])
    # A lone worker's view is never stale: keep one live clustering
    # state across windows (the simulated runner's single-worker path).
    ctx["cluster_state"] = (
        ctx["kernels"].clustering_init(degrees)
        if payload["single"]
        else None
    )
    return wire.MSG_OK, None


def _w_cluster(ctx, payload):
    kernels = ctx["kernels"]
    window = _SubStream(
        ctx["stream"], int(payload["start"]), int(payload["stop"])
    )
    cost = CostCounter()
    if ctx["cluster_state"] is not None:
        kernels.clustering_true_pass(
            window, ctx["cluster_state"], ctx["p1_cap"], cost
        )
        return wire.MSG_CLUSTER_RESULT, {
            "cost": np.asarray(astuple(cost), dtype=np.int64)
        }
    st = kernels.clustering_load(
        payload["v2c"], payload["volumes"], ctx["p1_degrees"]
    )
    kernels.clustering_true_pass(window, st, ctx["p1_cap"], cost)
    v2c, volumes, _ = kernels.clustering_export(st)
    return wire.MSG_CLUSTER_RESULT, {
        "v2c": np.asarray(v2c, dtype=np.int64),
        "volumes": np.asarray(volumes, dtype=np.int64),
        "cost": np.asarray(astuple(cost), dtype=np.int64),
    }


def _w_cluster_finish(ctx, payload):
    v2c, volumes, _ = ctx["kernels"].clustering_export(
        ctx["cluster_state"]
    )
    ctx["cluster_state"] = None
    return wire.MSG_CLUSTER_RESULT, {
        "v2c": np.asarray(v2c, dtype=np.int64),
        "volumes": np.asarray(volumes, dtype=np.int64),
    }


def _w_bind(ctx, payload):
    ctx["view"] = PartitionState(
        int(payload["n_vertices"]),
        ctx["k"],
        ctx["n_edges"],
        ctx["alpha"],
        packed=bool(payload["packed"]),
    )
    ctx["log"] = ReplicaLog(int(payload["log_capacity"]))
    ctx["cell"] = wire.log_cell_dtype(ctx["view"].n_vertices, ctx["k"])
    ctx["phase1"] = (
        np.asarray(payload["part"], dtype=np.int32),
        np.asarray(payload["weights"], dtype=np.int64),
    )
    return wire.MSG_OK, None


def _w_window(ctx, payload):
    view = ctx["view"]
    start, stop = int(payload["start"]), int(payload["stop"])
    # Fresh slice: Phase-2 kernels only ever *write* assignments, and
    # the two passes write disjoint positions — the coordinator merges
    # returned values where >= 0, so current values need not ship out.
    assignments = np.full(stop - start, -1, dtype=np.int32)
    total, cost = run_phase2_window(
        ctx["kernels"],
        payload["pass"],
        ctx["stream"],
        start,
        stop,
        view,
        ctx["log"],
        ctx["phase1"],
        assignments,
        k=ctx["k"],
        hash_seed=ctx["hash_seed"],
        hdrf_lambda=ctx["hdrf_lambda"],
    )
    return wire.MSG_WINDOW_RESULT, {
        "total": total,
        "cost": np.asarray(cost, dtype=np.int64),
        "assignments": assignments,
        "log": ctx["log"].entries().astype(ctx["cell"]),
        "sizes": view.sizes,
    }


def _w_barrier(ctx, payload):
    view, cells = ctx["view"], payload.get("log")
    if cells is None:
        np.copyto(_replica_plane(view.replicas)[0], payload["plane"], casting="no")
    else:
        ctx["kernels"].apply_replica_log(view, [log_cells([cells], ctx["cell"])])
    view.sizes[:] = np.asarray(payload["sizes"], dtype=np.int64)
    ctx["log"].clear()
    return wire.MSG_BARRIER_ACK, None


#: Message dispatch for the worker loop.  Module-level and looked up per
#: message so tests can monkeypatch handlers (fork-spawned loopback
#: workers inherit the patched registry) to inject failures.
_MESSAGE_HANDLERS = {
    wire.MSG_JOB: _w_job,
    wire.MSG_DEGREE: _w_degree,
    wire.MSG_PHASE1_INIT: _w_phase1_init,
    wire.MSG_CLUSTER: _w_cluster,
    wire.MSG_CLUSTER_FINISH: _w_cluster_finish,
    wire.MSG_BIND: _w_bind,
    wire.MSG_WINDOW: _w_window,
    wire.MSG_BARRIER: _w_barrier,
}


def _serve_connection(sock: socket.socket, version: int | None = None):
    """Serve one coordinator session over an established socket.

    Handler exceptions are reported back as ``ERROR`` frames (the
    coordinator turns them into typed errors and tears the session
    down); transport failures mean the coordinator is gone, so the loop
    just exits.  ``version`` overrides the advertised wire version —
    exists so version-negotiation tests can stand up a mismatched peer.
    """
    conn = wire.Connection(sock, label="coordinator")
    ctx: dict = {}
    try:
        wire.handshake_server(conn, version=version)
        while True:
            msg_type, payload = conn.recv()
            if msg_type == wire.MSG_SHUTDOWN:
                conn.send(wire.MSG_OK)
                return
            handler = _MESSAGE_HANDLERS.get(msg_type)
            if handler is None:
                conn.send(
                    wire.MSG_ERROR,
                    {"message": f"unknown message type {msg_type}"},
                )
                continue
            try:
                out_type, out_payload = handler(ctx, payload)
            except Exception as exc:  # noqa: BLE001 - reported to peer
                conn.send(
                    wire.MSG_ERROR,
                    {"message": f"{type(exc).__name__}: {exc}"},
                )
                continue
            conn.send(out_type, out_payload)
    except WireError:
        return  # coordinator vanished: no peer left to report to
    finally:
        conn.close()
        stream = ctx.get("stream")
        shm = getattr(stream, "_shm", None)
        if shm is not None:
            shm.close()


def _loopback_worker_main(address: tuple[str, int]) -> None:
    """Entry point of a coordinator-spawned loopback worker process."""
    sock = socket.create_connection(address, timeout=30.0)
    sock.settimeout(None)
    _serve_connection(sock)


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    max_sessions: int | None = None,
    version: int | None = None,
    ready=None,
) -> int:
    """Run a standalone worker server; returns sessions served.

    One coordinator session at a time (the protocol is session-scoped
    lock-step; a partitioning worker has no work to interleave).  With
    ``port=0`` the OS picks a free port — ``ready(host, port)`` is
    called with the bound address before accepting.  ``max_sessions``
    bounds the lifetime for tests and one-shot jobs; ``None`` serves
    until killed.
    """
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        server.bind((host, port))
        server.listen()
        bound_host, bound_port = server.getsockname()[:2]
        if ready is not None:
            ready(bound_host, bound_port)
        served = 0
        while max_sessions is None or served < max_sessions:
            sock, _ = server.accept()
            _serve_connection(sock, version=version)
            served += 1
        return served
    finally:
        server.close()


# ---------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------
class DistributedRunner(Runner):
    """Socket workers speaking the sync-window/delta-barrier protocol.

    Parameters
    ----------
    workers:
        ``host:port`` specs of pre-started worker servers (the CLI
        ``worker`` subcommand), one per shard worker.  ``None`` (the
        default) bootstraps loopback: the coordinator listens on
        ``127.0.0.1`` and spawns local worker processes that connect
        back.  Remote workers need a file-backed stream — each streams
        its own shard; edge data never crosses the wire.
    connect_timeout:
        Seconds to establish (or accept) each worker connection.
    recv_timeout:
        Seconds any single protocol reply may take.  A worker that died
        mid-window would otherwise hang the coordinator forever; the
        timeout converts that into a typed
        :class:`~repro.errors.PartitioningError` and session teardown
        closes every socket and reaps every spawned worker.
    start_method:
        ``multiprocessing`` start method for loopback workers (``None``
        picks :func:`~repro.core.runners.default_start_method`).
    """

    kind = "distributed"
    measures_wallclock = True

    def __init__(
        self,
        workers=None,
        connect_timeout: float = 10.0,
        recv_timeout: float = 600.0,
        start_method: str | None = None,
    ) -> None:
        if connect_timeout <= 0 or recv_timeout <= 0:
            raise ConfigurationError(
                "connect_timeout and recv_timeout must be positive, got "
                f"{connect_timeout} / {recv_timeout}"
            )
        check_start_method(start_method)
        self.workers = (
            None
            if workers is None
            else [parse_worker_spec(spec) for spec in workers]
        )
        self.connect_timeout = float(connect_timeout)
        self.recv_timeout = float(recv_timeout)
        self.start_method = start_method

    def open(self, job) -> RunnerSession:
        return RunnerSession(job, _SocketTransport(self, job))


class _SocketTransport(Transport):
    """Window tasks as wire requests to one socket worker per shard."""

    def __init__(self, runner: DistributedRunner, job) -> None:
        self.job = job
        self._recv_timeout = runner.recv_timeout
        self._connect_timeout = runner.connect_timeout
        self._conns: list[wire.Connection] = []
        self._procs: list = []
        self._listener = None
        self._stream_shm = None
        self._lone = False
        self._snapshot = None
        self._logs: dict = {}
        self._sizes: list = []
        self._log_capacity = 0
        self._cell = None
        self._closed = False
        self._barrier_bytes = dict.fromkeys(("delta", "plane", "full"), 0)
        try:
            self._setup(runner)
        except BaseException:
            self.close()
            raise

    # -- bootstrap -----------------------------------------------------
    def _setup(self, runner: DistributedRunner) -> None:
        job = self.job
        ctx = mp_context(runner.start_method) if runner.workers is None else None
        spec, self._stream_shm = _stream_spec(job.stream)
        if runner.workers is not None:
            if len(runner.workers) != job.n_workers:
                raise ConfigurationError(
                    f"{len(runner.workers)} worker specs for "
                    f"n_workers={job.n_workers}; they must match"
                )
            if not isinstance(spec, FileStreamSpec):
                raise ConfigurationError(
                    "host:port workers need a file-backed stream "
                    "(FileEdgeStream): shared-memory edge segments do "
                    "not cross hosts — workers stream their own shards"
                )
            self._connect_workers(runner.workers)
        else:
            self._spawn_loopback_workers(ctx, job.n_workers)
        for conn in self._conns:
            conn.settimeout(self._recv_timeout)
            try:
                wire.handshake_client(conn)
            except WireError as exc:
                raise PartitioningError(
                    f"distributed handshake failed: {exc}"
                ) from exc
        job_fields = {
            "spec": spec_to_wire(spec),
            "n_edges": int(job.stream.n_edges),
            "k": job.k,
            "alpha": job.alpha,
            "backend": job.backend,
            # A uint64: the wire's int field is int64, so it ships as text.
            "hash_seed": str(job.hash_seed),
            "hdrf_lambda": job.hdrf_lambda,
        }
        self._exchange(
            wire.MSG_JOB,
            [{**job_fields, "worker_index": w} for w in range(len(self._conns))],
            wire.MSG_OK,
            "job setup",
        )

    def _connect_workers(self, addresses) -> None:
        for w, address in enumerate(addresses):
            label = f"worker {w} at {address[0]}:{address[1]}"
            try:
                sock = socket.create_connection(
                    address, timeout=self._connect_timeout
                )
            except OSError as exc:
                raise PartitioningError(
                    f"could not connect to distributed {label}: {exc}"
                ) from exc
            self._track(wire.Connection(sock, label=label))

    def _spawn_loopback_workers(self, ctx, n_workers: int) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(n_workers)
        self._listener.settimeout(self._connect_timeout)
        address = self._listener.getsockname()[:2]
        for _ in range(n_workers):
            proc = ctx.Process(
                target=_loopback_worker_main, args=(address,), daemon=True
            )
            proc.start()
            self._procs.append(proc)
            _LIVE_WORKER_PROCS.add(proc)
        for w in range(n_workers):
            try:
                sock, _ = self._listener.accept()
            except (TimeoutError, socket.timeout, OSError) as exc:
                raise PartitioningError(
                    f"loopback worker {w} did not connect within "
                    f"{self._connect_timeout:.0f}s"
                ) from exc
            self._track(wire.Connection(sock, label=f"worker {w}"))
        self._listener.close()
        self._listener = None

    def _track(self, conn: wire.Connection) -> None:
        self._conns.append(conn)
        _LIVE_CONNECTIONS.add(conn)

    # -- protocol plumbing ---------------------------------------------
    def _send(self, w: int, msg_type: int, payload, step: str) -> None:
        try:
            self._conns[w].send(msg_type, payload)
        except WireError as exc:
            raise PartitioningError(
                f"distributed {step}: worker {w} unreachable: {exc}"
            ) from exc

    def _recv(self, w: int, expected: int, step: str) -> dict:
        try:
            msg_type, payload = self._conns[w].recv()
        except WireError as exc:
            raise PartitioningError(
                f"distributed {step}: worker {w} died or stalled: {exc}"
            ) from exc
        if msg_type == wire.MSG_ERROR:
            raise WorkerFailed(
                w, step, payload.get("message", "no detail")
            )
        if msg_type != expected:
            raise PartitioningError(
                f"distributed {step}: worker {w} sent "
                f"{wire.MESSAGE_NAMES.get(msg_type, msg_type)}, expected "
                f"{wire.MESSAGE_NAMES.get(expected, expected)}"
            )
        return payload

    def _exchange(self, msg_type: int, payloads, expected: int, step: str):
        """Send ``payloads[w]`` to each worker ``w``, then await the acks."""
        for w, payload in enumerate(payloads):
            self._send(w, msg_type, payload, step)
        for w in range(len(payloads)):
            self._recv(w, expected, step)

    # -- window sweeps -------------------------------------------------
    _MESSAGES = {
        "degree": (wire.MSG_DEGREE, wire.MSG_DEGREE_RESULT),
        "clustering": (wire.MSG_CLUSTER, wire.MSG_CLUSTER_RESULT),
    }

    def run(self, step, tasks):
        request, reply = self._MESSAGES.get(
            step, (wire.MSG_WINDOW, wire.MSG_WINDOW_RESULT)
        )
        for w, start, stop in tasks:
            if step in self._MESSAGES:
                fields = {"start": start, "stop": stop}
            else:
                fields = {"pass": step, "start": start, "stop": stop}
            if step == "clustering" and not self._lone:
                # The merged clustering the worker loads from — the wire
                # twin of the pool transport's shared scratch slots.
                fields["v2c"], fields["volumes"] = self._snapshot
            self._send(w, request, fields, step)
        return [
            self._result(w, step, start, stop, self._recv(w, reply, step))
            for w, start, stop in tasks
        ]

    def _result(self, w, step, start, stop, payload):
        if step == "degree":
            return payload["degrees"], ()
        if step == "clustering":
            export = None if self._lone else (payload["v2c"], payload["volumes"])
            return export, payload["cost"]
        # Checked before the barrier touches the global state: a 1-d log
        # of at most 2 wire cells per edge, and k int64 sizes.
        log, sizes = payload.get("log"), payload.get("sizes")
        log_cells([log], self._cell)
        if log.shape[0] > 2 * (stop - start):
            raise PartitioningError(
                f"distributed {step}: a window of {stop - start} edges "
                f"logged {log.shape[0]} cells, more than the "
                f"{2 * (stop - start)} bits it can set"
            )
        if getattr(sizes, "dtype", None) != np.int64 or sizes.shape != (self.job.k,):
            raise PartitioningError(f"distributed {step}: malformed sizes")
        returned = payload["assignments"]
        np.copyto(
            self.job.assignments[start:stop], returned, where=returned >= 0
        )
        self._logs[w] = log
        self._sizes.append(sizes)
        return int(payload["total"]), payload["cost"]

    # -- Phase 1 -------------------------------------------------------
    def open_clustering(self, degrees, cap, lone):
        self._lone = lone
        fields = {"degrees": degrees, "cap": cap, "single": lone}
        self._exchange(
            wire.MSG_PHASE1_INIT, [fields] * len(self._conns), wire.MSG_OK, "clustering"
        )

    def publish_clustering(self, v2c, volumes):
        self._snapshot = (v2c, volumes)

    def close_clustering(self, lone):
        self._snapshot = None
        if not lone:
            return None
        self._send(0, wire.MSG_CLUSTER_FINISH, None, "clustering")
        result = self._recv(0, wire.MSG_CLUSTER_RESULT, "clustering")
        return result["v2c"], result["volumes"]

    # -- Phase 2 -------------------------------------------------------
    def bind_phase2(self, lone, log_capacity):
        job = self.job
        self._log_capacity = log_capacity
        self._cell = wire.log_cell_dtype(job.state.n_vertices, job.k)
        fields = {
            "n_vertices": int(job.state.n_vertices),
            "packed": bool(job.state.packed),
            "part": job.part,
            "weights": job.weights,
            "log_capacity": log_capacity,
        }
        self._exchange(
            wire.MSG_BIND, [fields] * len(self._conns), wire.MSG_OK, "phase-2 bind"
        )

    def barrier(self, step):
        job = self.job
        logs, self._logs = self._logs, {}
        view_sizes, self._sizes = self._sizes, []
        get_backend(job.backend).apply_replica_log(
            job.state, [log_cells(list(logs.values()), self._cell)]
        )
        sizes = merge_sizes(job.state, view_sizes)
        plane = _replica_plane(job.state.replicas)[0]
        payloads, counts = [], self._barrier_bytes
        # A worker gets the cells the other workers logged, or the merged
        # plane where that is fewer bytes: no barrier ships more than a
        # full re-broadcast (the plane and the sizes).
        for w in range(job.n_workers):
            others = [log for v, log in logs.items() if v != w]
            cells = np.concatenate([np.zeros(0, self._cell), *others])
            sent = cells if cells.nbytes < plane.nbytes else plane
            payloads.append({"log" if sent is cells else "plane": sent, "sizes": sizes})
            counts["plane"] += sent.nbytes
            counts["delta"] += sent.nbytes + sizes.nbytes
            counts["full"] += plane.nbytes + sizes.nbytes
        self._exchange(
            wire.MSG_BARRIER, payloads, wire.MSG_BARRIER_ACK, f"{step} barrier"
        )
        return sum(int(log.shape[0]) for log in logs.values())

    # -- bookkeeping ---------------------------------------------------
    def wire_stats(self) -> dict:
        return {
            "bytes_sent": sum(c.bytes_sent for c in self._conns),
            "bytes_received": sum(c.bytes_received for c in self._conns),
            # The barriers' payloads, their replica-plane part (the cells
            # or the plane), and what full re-broadcasts would have sent.
            **{f"barrier_{k}_bytes": v for k, v in self._barrier_bytes.items()},
        }

    def extra_state_bytes(self) -> int:
        # Worker views live in worker processes; report the bytes of one
        # such view, laid out without memory, per worker (what the other
        # transports sum over the views they hold).
        state = self.job.state
        if state is None:
            return 0
        arena = _BufferArena()
        view = PartitionState(
            state.n_vertices, state.k, state.n_edges, state.alpha,
            allocator=arena, packed=state.packed,
        )
        log = ReplicaLog(self._log_capacity, allocator=arena)
        return self.job.n_workers * (view.nbytes() + log.nbytes())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.settimeout(2.0)
                conn.send(wire.MSG_SHUTDOWN)
                conn.recv()
            except WireError:
                pass  # best-effort goodbye; the close below is what counts
            conn.close()
            _LIVE_CONNECTIONS.discard(conn)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        procs, self._procs = self._procs, []
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - needs a wedged child
                proc.kill()
                proc.join(timeout=1.0)
            _LIVE_WORKER_PROCS.discard(proc)
        if self._stream_shm is not None:
            shm, self._stream_shm = self._stream_shm, None
            _release_segment(shm)


RUNNERS["distributed"] = DistributedRunner
