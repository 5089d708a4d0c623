"""The socket transport of the sync-window driver, local or remote.

Worker processes connected over TCP sockets speak the
:mod:`repro.core.wire` protocol under the one
:class:`~repro.core.runners.RunnerSession` driver, which owns the
schedule, the Phase-1 merges and all accounting.  Two runners use it:
:class:`~repro.core.runners.ProcessRunner` in loopback mode — the
coordinator listens on ``127.0.0.1`` and starts local workers that
connect back — and :class:`DistributedRunner`, loopback by default or
against pre-started worker servers named by ``host:port`` specs (the
CLI ``worker`` subcommand) for real clusters.

Why this transport is bit-exact with the simulated runner is stated
with the equivalence contract in :mod:`repro.core.runners`.
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
Phase 1 ships moves, not clusterings.  Each worker keeps one clustering
state (:class:`~repro.core.runners.ClusteringWorker`) from
``PHASE1_INIT`` to the end of Phase 1.  A clustering window returns its
cost and its moves: the ``(vertex, id)`` pairs whose id the window
changed, as :func:`~repro.core.wire.move_cell_dtype` cells (4 bytes
while ``n_workers * |V|`` fits), and the count of clusters it opened.
The coordinator checks their form and count against the window and
folds them with ``merge_phase1_clustering``, which checks every pair
before it writes; each worker's refresh (the other workers' accepted
moves, its fresh-id offset and the merged id count) rides on its next
clustering request, so a barrier adds no round trip.  A lone worker
exports nothing and drains its state at ``CLUSTER_FINISH``.

Failure surface
---------------
No hangs, no leaked sockets or shm: every recv runs under the session's
``recv_timeout``, and worker death, a stall past the timeout,
disconnection or corruption surfaces as a typed
:class:`~repro.errors.PartitioningError` naming the runner, the step and
the worker.  A loopback worker that exits before it connects fails the
session at once, with its exit code.  Session ``close()`` — invoked on
every error path — shuts sockets, reaps spawned workers, and releases
any stream segment, in bounded time: a worker with an unanswered
request (it may be stuck in a kernel) gets no goodbye, and then every
spawned worker is terminated at once instead of awaited.  ``live_connections()`` /
``live_worker_processes()`` are the leak-check hooks, mirroring
``live_shared_segments()``.

Edge data never crosses the wire: remote (``host:port``) workers must be
handed a file-backed stream (:class:`~repro.streaming.stream.FileStreamSpec`)
and read their own shards; loopback workers may also map a shared-memory
edge segment, same-host by construction.
"""

from __future__ import annotations

import socket
import time

import numpy as np

from repro.core import wire
from repro.core.runners import (
    RUNNERS,
    ClusteringWorker,
    Refresh,
    Runner,
    RunnerSession,
    Transport,
    WorkerFailed,
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
from repro.partitioning.state import PartitionState, _replica_plane
from repro.streaming.stream import (
    FileStreamSpec,
    spec_from_wire,
    spec_to_wire,
)

#: Connections currently owned by open socket sessions (leak-check
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
    # A lone worker's view is never stale: it keeps one live clustering
    # state and exports nothing (the simulated runner's single-worker
    # path); a sharded one logs its windows' moves.
    capacity = None if payload["single"] else int(payload["log_capacity"])
    ctx["clusterer"] = ClusteringWorker(
        ctx["kernels"], degrees, float(payload["cap"]), capacity
    )
    ctx["move_cell"] = wire.move_cell_dtype(
        degrees.shape[0], int(payload["n_workers"])
    )
    return wire.MSG_OK, None


def _w_cluster(ctx, payload):
    window = _SubStream(
        ctx["stream"], int(payload["start"]), int(payload["stop"])
    )
    refresh = None
    if "moves" in payload:
        refresh = Refresh(
            int(payload["offset"]),
            int(payload["n_ids"]),
            wire.move_rows(payload["moves"], ctx["move_cell"]),
        )
    export, cost = ctx["clusterer"].window(window, refresh)
    fields = {"cost": np.asarray(cost, dtype=np.int64)}
    if export is not None:
        moves, fresh = export
        fields["moves"] = wire.move_cells(moves, ctx["move_cell"])
        fields["fresh"] = fresh
    return wire.MSG_CLUSTER_RESULT, fields


def _w_cluster_finish(ctx, payload):
    v2c, volumes, _ = ctx["kernels"].clustering_export(ctx["clusterer"].state)
    ctx["clusterer"] = None
    return wire.MSG_CLUSTER_RESULT, {
        "v2c": np.asarray(v2c, dtype=np.int64),
        "volumes": np.asarray(volumes, dtype=np.int64),
    }


def _w_bind(ctx, payload):
    ctx["clusterer"] = None  # Phase 1 is over: free it before the view
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
        transport = _SocketTransport(
            job,
            self.kind,
            workers=self.workers,
            start_method=self.start_method,
            connect_timeout=self.connect_timeout,
            recv_timeout=self.recv_timeout,
        )
        return RunnerSession(job, transport)


class _SocketTransport(Transport):
    """Window tasks as wire requests to one socket worker per shard.

    ``workers=None`` starts loopback workers with ``start_method``;
    ``kind`` names the runner in every error.
    """

    def __init__(
        self,
        job,
        kind: str,
        *,
        workers=None,
        start_method: str | None = None,
        connect_timeout: float = 10.0,
        recv_timeout: float,
    ) -> None:
        self.job = job
        self._kind = kind
        self._recv_timeout = recv_timeout
        self._connect_timeout = connect_timeout
        self._conns: list[wire.Connection] = []
        #: Workers with a request whose reply has not been read.
        self._pending: set[int] = set()
        self._procs: list = []
        self._listener = None
        self._stream_shm = None
        self._lone = False
        self._move_cell = None
        self._logs: dict = {}
        self._sizes: list = []
        self._log_capacity = 0
        self._cell = None
        self._closed = False
        self._barrier_bytes = dict.fromkeys(("delta", "plane", "full"), 0)
        try:
            self._setup(workers, start_method)
        except BaseException:
            self.close()
            raise

    # -- bootstrap -----------------------------------------------------
    def _setup(self, workers, start_method) -> None:
        job = self.job
        ctx = mp_context(start_method) if workers is None else None
        spec, self._stream_shm = _stream_spec(job.stream)
        if workers is not None:
            if len(workers) != job.n_workers:
                raise ConfigurationError(
                    f"{len(workers)} worker specs for "
                    f"n_workers={job.n_workers}; they must match"
                )
            if not isinstance(spec, FileStreamSpec):
                raise ConfigurationError(
                    "host:port workers need a file-backed stream "
                    "(FileEdgeStream): shared-memory edge segments do "
                    "not cross hosts — workers stream their own shards"
                )
            self._connect_workers(workers)
        else:
            self._spawn_loopback_workers(ctx, job.n_workers)
        for w, conn in enumerate(self._conns):
            conn.settimeout(self._recv_timeout)
            self._pending.add(w)
            try:
                wire.handshake_client(conn)
            except WireError as exc:
                raise PartitioningError(
                    f"{self._kind} handshake failed: {exc}"
                ) from exc
            self._pending.discard(w)
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
        self._listener.settimeout(0.1)  # see _accept
        address = self._listener.getsockname()[:2]
        for _ in range(n_workers):
            proc = ctx.Process(
                target=_loopback_worker_main, args=(address,), daemon=True
            )
            proc.start()
            self._procs.append(proc)
            _LIVE_WORKER_PROCS.add(proc)
        for w in range(n_workers):
            self._track(wire.Connection(self._accept(w), label=f"worker {w}"))
        self._listener.close()
        self._listener = None

    def _accept(self, w: int) -> socket.socket:
        """The next loopback worker's socket.  Accepts in slices of at
        most 0.1 s and checks between them that no spawned worker has
        exited, so a worker that dies before it connects fails the
        session at once instead of after ``connect_timeout``."""
        deadline = time.monotonic() + self._connect_timeout
        while True:
            try:
                return self._listener.accept()[0]
            except (TimeoutError, socket.timeout):
                pass
            except OSError as exc:
                raise PartitioningError(
                    f"{self._kind} loopback worker {w} could not connect: {exc}"
                ) from exc
            for i, proc in enumerate(self._procs):
                if proc.exitcode is not None:
                    raise PartitioningError(
                        f"{self._kind} loopback worker {i} exited with code "
                        f"{proc.exitcode} before it connected"
                    )
            if time.monotonic() >= deadline:
                raise PartitioningError(
                    f"{self._kind} loopback worker {w} did not connect within "
                    f"{self._connect_timeout:g}s"
                )

    def _track(self, conn: wire.Connection) -> None:
        self._conns.append(conn)
        _LIVE_CONNECTIONS.add(conn)

    # -- protocol plumbing ---------------------------------------------
    def _send(self, w: int, msg_type: int, payload, step: str) -> None:
        self._pending.add(w)
        try:
            self._conns[w].send(msg_type, payload)
        except WireError as exc:
            raise PartitioningError(
                f"{self._kind} {step}: worker {w} unreachable: {exc}"
            ) from exc

    def _recv(self, w: int, expected: int, step: str) -> dict:
        try:
            msg_type, payload = self._conns[w].recv()
        except WireError as exc:
            why = exc
            if isinstance(exc.__cause__, TimeoutError):
                why = f"no reply within the {self._recv_timeout:g} s timeout"
            raise PartitioningError(
                f"{self._kind} {step}: worker {w} died or stalled: {why}"
            ) from exc
        self._pending.discard(w)
        if msg_type == wire.MSG_ERROR:
            raise WorkerFailed(
                w, step, payload.get("message", "no detail")
            )
        if msg_type != expected:
            raise PartitioningError(
                f"{self._kind} {step}: worker {w} sent "
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
        for w, start, stop, *refresh in tasks:
            if step in self._MESSAGES:
                fields = {"start": start, "stop": stop}
            else:
                fields = {"pass": step, "start": start, "stop": stop}
            if refresh and refresh[0] is not None:
                # The barrier's news rides on the next window's request.
                offset, n_ids, moves = refresh[0]
                if n_ids > np.iinfo(self._move_cell).max:
                    raise PartitioningError(
                        f"{self._kind} clustering: {n_ids} cluster ids outgrew "
                        f"the wire's {self._move_cell} cells"
                    )
                fields["moves"] = wire.move_cells(moves, self._move_cell)
                fields["offset"], fields["n_ids"] = offset, n_ids
            self._send(w, request, fields, step)
        return [
            self._result(w, step, start, stop, self._recv(w, reply, step))
            for w, start, stop, *_ in tasks
        ]

    def _result(self, w, step, start, stop, payload):
        if step == "degree":
            return payload["degrees"], ()
        if step == "clustering":
            if self._lone:
                return None, payload["cost"]
            # Checked before the barrier touches the global clustering: at
            # most 2 moved vertices per edge, as wire cells; the merge
            # checks every row.
            moves = wire.move_rows(payload.get("moves"), self._move_cell)
            if moves.shape[0] > 2 * (stop - start):
                raise PartitioningError(
                    f"{self._kind} {step}: a window of {stop - start} edges "
                    f"moved {moves.shape[0]} vertices, more than its "
                    f"{2 * (stop - start)} endpoints"
                )
            return (moves, payload.get("fresh")), payload["cost"]
        # Checked before the barrier touches the global state: a 1-d log
        # of at most 2 wire cells per edge, and k int64 sizes.
        log, sizes = payload.get("log"), payload.get("sizes")
        log_cells([log], self._cell)
        if log.shape[0] > 2 * (stop - start):
            raise PartitioningError(
                f"{self._kind} {step}: a window of {stop - start} edges "
                f"logged {log.shape[0]} cells, more than the "
                f"{2 * (stop - start)} bits it can set"
            )
        if getattr(sizes, "dtype", None) != np.int64 or sizes.shape != (self.job.k,):
            raise PartitioningError(f"{self._kind} {step}: malformed sizes")
        returned = payload["assignments"]
        np.copyto(
            self.job.assignments[start:stop], returned, where=returned >= 0
        )
        self._logs[w] = log
        self._sizes.append(sizes)
        return int(payload["total"]), payload["cost"]

    # -- Phase 1 -------------------------------------------------------
    def open_clustering(self, degrees, cap, lone, log_capacity):
        self._lone = lone
        n_workers = len(self._conns)
        self._move_cell = wire.move_cell_dtype(degrees.shape[0], n_workers)
        fields = {
            "degrees": degrees,
            "cap": cap,
            "single": lone,
            "log_capacity": log_capacity,
            "n_workers": n_workers,
        }
        self._exchange(
            wire.MSG_PHASE1_INIT, [fields] * n_workers, wire.MSG_OK, "clustering"
        )

    def close_clustering(self, lone):
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
        # Worker views live in worker processes, each of the global
        # state's shape, beside a set-bit log: what the other transports
        # sum over the views they hold.
        log = ReplicaLog(self._log_capacity)
        return self.job.n_workers * (self.job.state.nbytes() + log.nbytes())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # A worker with an unanswered request may be stuck in a kernel:
        # it gets no goodbye, and every spawned worker is terminated at
        # once rather than awaited.
        stalled = bool(self._pending)
        conns, self._conns = self._conns, []
        for w, conn in enumerate(conns):
            if w not in self._pending:
                try:
                    conn.settimeout(2.0)
                    conn.send(wire.MSG_SHUTDOWN)
                    conn.recv()
                except WireError:
                    stalled = True  # best-effort; the close below counts
            conn.close()
            _LIVE_CONNECTIONS.discard(conn)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        procs, self._procs = self._procs, []
        for proc in procs:
            if stalled:
                proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - needs a wedged child
                proc.kill()
                proc.join(timeout=1.0)
            _LIVE_WORKER_PROCS.discard(proc)
        if self._stream_shm is not None:
            shm, self._stream_shm = self._stream_shm, None
            _release_segment(shm)


RUNNERS["distributed"] = DistributedRunner
