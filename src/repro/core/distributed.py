"""The one transport of the sync-window driver: its workers and coordinator.

Every runner's :class:`~repro.core.runners.RunnerSession` drives a
:class:`WorkerTransport`, which sends each window to one worker per
shard as a request that the message handlers of this module serve.  The
runner decides where each worker runs:

- in the coordinator, as a :class:`_LocalWorker`: a connection-shaped
  object that holds each request until its reply is read and then runs
  the handler on the caller's thread.  It has no process, socket,
  handshake, frame or checksum, and fields pass by reference.  Every
  worker of a ``serial`` (one worker) or ``simulated`` session runs
  here, and so does worker 0 of every loopback session;
- in a loopback worker process: a
  :class:`~repro.core.runners.ProcessRunner` session of ``n`` workers
  without ``host:port`` specs starts ``n - 1`` of them, which connect
  back to a listener on ``127.0.0.1``;
- in a worker server named by a ``host:port`` spec (the CLI ``worker``
  subcommand, :func:`serve_worker`): a ``ProcessRunner`` session given
  ``n`` specs connects to all ``n`` of them over TCP.

Worker processes and servers speak the :mod:`repro.core.wire` protocol.
The coordinator sends every worker its request before it reads the
first reply, so it computes worker 0's window while the worker processes
compute theirs.

Why every runner is bit-exact with the simulated one is stated with the
equivalence contract in :mod:`repro.core.runners`.
Worker 0 in the coordinator holds the job's own Phase-2 arrays: its view
is ``job.state`` and its shard is ``job.assignments[lo:hi]``.  Handlers
and the coordinator pass the kernels' own arrays, and the wire alone
decides how wide they travel (:mod:`repro.core.wire`).  A Phase-2
window returns its total, its cost delta, the worker's sizes and its
set-bit log (every replica bit the window set that was clear in the
worker's view; see :class:`~repro.kernels.base.ReplicaLog`).  The
coordinator checks each log's type and length against its window.  At
the barrier ``job.state`` takes the cells of every worker but worker 0,
whose bits are set there already, with :func:`take_news` (the kernel op
``apply_replica_log``, which checks every entry before it writes), and
the sizes of the previous barrier take every worker's delta
(:func:`~repro.core.runners.merge_sizes`).  A ``host:port`` session's
coordinator keeps a plane of its own, ``job.state``, which takes every
worker's cells.  The barrier sends nothing: each other worker's news —
the merged sizes and the cells the *other* workers logged since its last
window, or the merged plane where that is fewer bytes on the wire, so no
news ships more than a full re-broadcast — rides on its next window
request, and the worker takes it with :func:`take_news` before the
kernel runs.  The run's last barrier ships nothing.  A lone worker 0 in
the coordinator keeps no log, and its barriers do nothing.  Every other
worker writes its windows' assignments into one array for its shard,
which ``BIND`` names, and
:meth:`~repro.core.runners.RunnerSession.finalize` collects each such
shard once, checking every shard's type, length and ids before it
writes the job's array.
Phase 1 ships moves, not clusterings.  Each worker keeps one clustering
state (:class:`~repro.core.runners.ClusteringWorker`) from
``PHASE1_INIT`` to the end of Phase 1.  A clustering window returns its
cost and its moves: the ``(vertex, id)`` rows whose id the window
changed, and the count of clusters it opened.  The coordinator checks
their form and count against the window and folds them with
``merge_phase1_clustering``, which checks every row before it writes;
each worker's refresh (the other workers' accepted moves, its fresh-id
offset and the merged id count) rides on its next clustering request,
so a barrier adds no round trip.  A lone worker exports nothing and
drains its state at ``CLUSTER_FINISH``.

Failure surface
---------------
No hangs, no leaked sockets or processes: every recv from a socket
worker runs under the session's ``recv_timeout``, and worker death, a
stall past the timeout, disconnection or corruption surfaces as a typed
:class:`~repro.errors.PartitioningError` naming the runner, the step and
the worker.  A worker in the coordinator runs on its thread, where no
timeout can cover it: a handler that raises there is answered with an
``ERROR`` reply, as in a worker process, surfaces through the same typed
error and keeps the handler's exception as its cause.  A loopback worker
whose fork fails raises a ``PartitioningError`` naming it, with the
``OSError`` as its cause, and one that exits before it connects fails
the session at once, with its exit code.  Session ``close()`` — invoked
on every error path — shuts sockets and reaps forked workers, in
bounded time: a worker with an unanswered request (it may be stuck in a
kernel) gets no goodbye, and then every forked worker is terminated at
once instead of awaited.  ``live_connections()`` /
``live_worker_processes()`` are the leak-check hooks; they hold the
sockets and processes only, so a loopback session of ``n`` workers
counts ``n - 1`` of each.

Edge data never crosses the wire: remote (``host:port``) workers must be
handed a file-backed stream (:class:`~repro.streaming.stream.FileEdgeStream`)
and read their own shards.  A worker in the coordinator streams the
job's stream object itself, and a window covering the whole stream
streams it as a full pass.  A forked loopback worker reopens a file from
its spec and inherits any other stream (``JOB`` then names an
``inherited`` spec; see :func:`_forked_stream` and "Stream handover" in
:mod:`repro.core.runners`).
"""

from __future__ import annotations

import socket
import time

import numpy as np

from repro.core import wire
from repro.core.runners import (
    ClusteringWorker,
    Refresh,
    WorkerFailed,
    _window_stream,
    merge_sizes,
    run_phase2_window,
)
from repro.errors import ConfigurationError, PartitioningError, WireError
from repro.kernels import get_backend
from repro.kernels.base import ReplicaLog, check_export, log_cells
from repro.partitioning.state import PartitionState, _replica_plane
from repro.streaming.stream import (
    FileEdgeStream,
    InMemoryEdgeStream,
    make_stream_spec,
    spec_from_wire,
    spec_to_wire,
)

#: Connections currently owned by open socket sessions (leak-check
#: hook: must be empty whenever no session is open).
_LIVE_CONNECTIONS: set = set()

#: Forked loopback worker processes of open sessions (same contract).
_LIVE_WORKER_PROCS: set = set()

#: The ``JOB`` stream spec of a worker that streams the coordinator's own
#: stream object: a worker in the coordinator, or a forked worker.
_INHERITED = {"kind": "inherited"}


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
    if payload["spec"].get("kind") == "inherited":
        ctx["stream"] = ctx.get("inherited")
        if ctx["stream"] is None:
            raise ConfigurationError(
                "the job names an inherited stream, but this worker inherited none"
            )
    else:
        ctx["stream"] = spec_from_wire(payload["spec"]).open()
    ctx["kernels"] = get_backend(payload["backend"])
    ctx["k"] = int(payload["k"])
    ctx["alpha"] = float(payload["alpha"])
    ctx["n_edges"] = int(payload["n_edges"])
    ctx["hash_seed"] = int(payload["hash_seed"])
    ctx["hdrf_lambda"] = float(payload["hdrf_lambda"])
    ctx["worker_index"] = int(payload["worker_index"])
    return wire.MSG_OK, None


def _w_degree(ctx, payload):
    window = _window_stream(
        ctx["stream"], int(payload["start"]), int(payload["stop"])
    )
    return wire.MSG_DEGREE_RESULT, {"degrees": ctx["kernels"].degree_pass(window)}


def _w_phase1_init(ctx, payload):
    # A lone worker's view is never stale: it keeps one live clustering
    # state and exports nothing (the simulated runner's single-worker
    # path); a sharded one logs its windows' moves.
    capacity = None if payload["single"] else int(payload["log_capacity"])
    ctx["clusterer"] = ClusteringWorker(
        ctx["kernels"], payload["degrees"], float(payload["cap"]), capacity
    )
    return wire.MSG_OK, None


def _w_cluster(ctx, payload):
    window = _window_stream(
        ctx["stream"], int(payload["start"]), int(payload["stop"])
    )
    refresh = None
    if "moves" in payload:
        offset, n_ids = int(payload["offset"]), int(payload["n_ids"])
        refresh = Refresh(offset, n_ids, payload["moves"])
    export, cost = ctx["clusterer"].window(window, refresh)
    fields = {"cost": np.asarray(cost, dtype=np.int64)}
    if export is not None:
        fields["moves"], fields["fresh"] = export
    return wire.MSG_CLUSTER_RESULT, fields


def _w_cluster_finish(ctx, payload):
    v2c, volumes, _ = ctx["kernels"].clustering_export(ctx["clusterer"].state)
    ctx["clusterer"] = None
    return wire.MSG_CLUSTER_RESULT, {"v2c": v2c, "volumes": volumes}


def _w_bind(ctx, payload):
    ctx["clusterer"] = None  # Phase 1 is over: free it before the view
    lo, hi = int(payload["shard_start"]), int(payload["shard_stop"])
    ctx["shard"] = (lo, hi)
    if "state" in payload:
        # Worker 0 in the coordinator: its view is the job's state, and
        # its windows write the job's own assignments.
        ctx["view"], ctx["assignments"] = payload["state"], payload["assignments"]
    else:
        ctx["view"] = PartitionState(
            int(payload["n_vertices"]),
            ctx["k"],
            ctx["n_edges"],
            ctx["alpha"],
            packed=bool(payload["packed"]),
        )
        # The shard's assignments stay here until the collect: both
        # passes write their windows into this one array.
        ctx["assignments"] = np.full(hi - lo, -1, dtype=np.int32)
    capacity = payload["log_capacity"]
    ctx["log"] = None if capacity is None else ReplicaLog(int(capacity))
    ctx["phase1"] = (payload["part"], payload["weights"])
    return wire.MSG_OK, None


def take_news(kernels, view: PartitionState, news: dict) -> None:
    """Bring ``view`` to the global state of the last barrier: set the
    bits of the news' ``log`` cells, or copy its merged ``plane``, and
    take its merged ``sizes``.  A worker takes its news before its next
    window; the coordinator's ``job.state`` takes the other workers'
    cells at every barrier."""
    log = news.get("log")
    if log is None:
        np.copyto(_replica_plane(view.replicas)[0], news["plane"], casting="no")
    else:
        kernels.apply_replica_log(view, [log])
    view.sizes[:] = news["sizes"]


def _w_window(ctx, payload):
    view, log = ctx["view"], ctx["log"]
    start, stop = int(payload["start"]), int(payload["stop"])
    lo, hi = ctx["shard"]
    if not lo <= start <= stop <= hi:
        raise PartitioningError(
            f"window [{start}, {stop}) lies outside this worker's shard "
            f"[{lo}, {hi})"
        )
    if "sizes" in payload:
        # The news of the barriers since this worker's last window.
        take_news(ctx["kernels"], view, payload)
    if log is not None:
        log.clear()
    total, cost = run_phase2_window(
        ctx["kernels"],
        payload["pass"],
        ctx["stream"],
        start,
        stop,
        view,
        log,
        ctx["phase1"],
        ctx["assignments"][start - lo : stop - lo],
        k=ctx["k"],
        hash_seed=ctx["hash_seed"],
        hdrf_lambda=ctx["hdrf_lambda"],
    )
    fields = {
        "total": total,
        "cost": np.asarray(cost, dtype=np.int64),
        # Copies: a reply in the coordinator is not encoded, and the
        # worker's next window writes the view's sizes and its log.
        "sizes": view.sizes.copy(),
    }
    if log is not None:
        fields["log"] = log.entries().copy()
    return wire.MSG_WINDOW_RESULT, fields


def _w_collect(ctx, payload):
    return wire.MSG_COLLECT_RESULT, {"assignments": ctx["assignments"]}


#: Message dispatch for the worker loop.  Module-level and looked up per
#: message so tests can monkeypatch handlers (forked loopback
#: workers inherit the patched registry) to inject failures.
_MESSAGE_HANDLERS = {
    wire.MSG_JOB: _w_job,
    wire.MSG_DEGREE: _w_degree,
    wire.MSG_PHASE1_INIT: _w_phase1_init,
    wire.MSG_CLUSTER: _w_cluster,
    wire.MSG_CLUSTER_FINISH: _w_cluster_finish,
    wire.MSG_BIND: _w_bind,
    wire.MSG_WINDOW: _w_window,
    wire.MSG_COLLECT: _w_collect,
}


def _handle(ctx: dict, msg_type: int, payload: dict):
    """One request's reply, and the exception of a handler that raised.
    An unknown message type or a raising handler is answered with an
    ``ERROR`` reply, which the coordinator turns into a typed error
    before it tears the session down."""
    handler = _MESSAGE_HANDLERS.get(msg_type)
    if handler is None:
        return wire.MSG_ERROR, {"message": f"unknown message type {msg_type}"}, None
    try:
        return (*handler(ctx, payload), None)
    except Exception as exc:  # noqa: BLE001 - reported to the coordinator
        return wire.MSG_ERROR, {"message": f"{type(exc).__name__}: {exc}"}, exc


def _serve_connection(sock: socket.socket, version: int | None = None, stream=None):
    """Serve one coordinator session over an established socket.

    Transport failures mean the coordinator is gone, so the loop just
    exits.  ``version`` overrides the advertised wire version — exists
    so version-negotiation tests can stand up a mismatched peer.
    ``stream`` is the coordinator's stream object a forked loopback
    worker inherited, which a job naming an inherited stream streams.
    """
    conn = wire.Connection(sock, label="coordinator")
    ctx: dict = {"inherited": stream}
    try:
        wire.handshake_server(conn, version=version)
        while True:
            msg_type, payload = conn.recv()
            if msg_type == wire.MSG_SHUTDOWN:
                conn.send(wire.MSG_OK)
                return
            conn.send(*_handle(ctx, msg_type, payload)[:2])
    except WireError:
        return  # coordinator vanished: no peer left to report to
    finally:
        conn.close()


def _loopback_worker_main(address: tuple[str, int], stream) -> None:
    """Entry point of a coordinator-forked loopback worker process.

    ``stream`` is ``None`` (the job names a file's spec) or the
    in-memory stream of :func:`_forked_stream`, which the child inherits
    with its edge array instead of unpickling them."""
    sock = socket.create_connection(address, timeout=30.0)
    sock.settimeout(None)
    _serve_connection(sock, stream=stream)


class _LocalWorker:
    """A worker served inside the coordinator.

    Connection-shaped (``send``, ``recv``, ``settimeout``, ``close``),
    so the transport drives it as it drives a socket worker: ``send``
    holds the request, and ``recv`` runs its handler on the caller's
    thread and returns the reply.  Fields pass by reference, and
    nothing crosses a socket, so its byte counts stay 0.  A raising
    handler's exception is kept as ``error``.
    """

    bytes_sent = bytes_received = 0
    error: Exception | None = None

    def __init__(self, stream) -> None:
        self._ctx: dict = {"inherited": stream}
        self._request = None

    def settimeout(self, timeout) -> None:
        """Nothing to time out: handlers run on the caller's thread."""

    def send(self, msg_type: int, fields: dict | None = None) -> None:
        self._request = (msg_type, fields or {})

    def recv(self) -> tuple[int, dict]:
        (msg_type, payload), self._request = self._request, None
        if msg_type == wire.MSG_SHUTDOWN:
            self.close()
            return wire.MSG_OK, {}
        out_type, out_payload, self.error = _handle(self._ctx, msg_type, payload)
        return out_type, out_payload or {}

    def close(self) -> None:
        self._ctx = {}


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
def _forked_stream(stream) -> InMemoryEdgeStream:
    """The in-memory stream forked workers inherit for ``stream``: the
    stream itself where they may read its edge array in place (an exact
    :class:`~repro.streaming.stream.InMemoryEdgeStream` whose ``chunks``
    no attribute of the instance replaces), else one private copy read
    once through its ``chunks()``, with its vertex count and chunk size."""
    if type(stream) is InMemoryEdgeStream and "chunks" not in vars(stream):
        return stream
    edges = np.empty((int(stream.n_edges), 2), dtype=np.int64)
    pos = 0
    for chunk in stream.chunks():
        edges[pos : pos + chunk.shape[0]] = chunk
        pos += chunk.shape[0]
    copy = InMemoryEdgeStream(edges, n_vertices=stream.n_vertices)
    copy.default_chunk_size = stream.default_chunk_size
    return copy


class WorkerTransport:
    """Window tasks as requests to one worker per shard.

    With ``workers`` (``host:port`` specs) all ``n_workers`` workers are
    remote; otherwise worker 0 runs in this process
    (:class:`_LocalWorker`), holding the job's Phase-2 arrays, and so do
    the others unless ``sockets``, which forks them as loopback worker
    processes and reports their wire traffic.
    ``kind`` names the runner in every error.

    :meth:`run` takes one sweep of ``(worker, start, stop)`` windows for
    a step (``"degree"``, ``"clustering"`` or a Phase-2 pass name), a
    clustering task with the worker's
    :class:`~repro.core.runners.Refresh` (or ``None``) as a fourth item,
    and returns a ``(value, cost_delta)`` pair per task, in task order:
    a partial degree vector, a ``(moves, n_fresh)`` export (``None`` for
    a lone worker) or the pass kernel's total.
    """

    def __init__(
        self,
        job,
        kind: str,
        n_workers: int,
        *,
        sockets: bool = False,
        workers=None,
        connect_timeout: float = 10.0,
        recv_timeout: float | None = None,
    ) -> None:
        self.job = job
        self._kind = kind
        self._sockets = sockets
        self._recv_timeout = recv_timeout
        self._connect_timeout = connect_timeout
        #: The worker whose Phase-2 view is ``job.state``: worker 0 when
        #: it runs in this process, none in a ``host:port`` session.
        self._owner = None if workers is not None else 0
        #: One connection per worker: a :class:`_LocalWorker` or a socket.
        self._conns: list = []
        #: Workers with a request whose reply has not been read.
        self._pending: set[int] = set()
        self._procs: list = []
        self._listener = None
        self._lone = False
        #: A lone worker whose view is ``job.state`` keeps no log.
        self._logless = False
        self._logs: dict = {}
        self._sizes: list = []
        #: The sizes of the last barrier, the base of the next merge.
        self._merged = None
        #: Per worker with a shard: the cells the other workers logged
        #: since its last Phase-2 window, shipped with its next one.
        self._news: dict[int, list] = {}
        self._shards: list = []
        self._log_capacity = 0
        self._closed = False
        self._barrier_bytes = dict.fromkeys(("delta", "plane", "full"), 0)
        try:
            self._setup(n_workers, workers)
        except BaseException:
            self.close()
            raise

    # -- bootstrap -----------------------------------------------------
    def _setup(self, n_workers, workers) -> None:
        job = self.job
        if workers is not None:
            specs = self._connect_workers(workers)
        else:
            n_local = 1 if self._sockets else n_workers
            self._conns = [_LocalWorker(job.stream) for _ in range(n_local)]
            specs = [_INHERITED] * n_local
            if n_workers > n_local:
                specs += self._start_loopback_workers(n_workers - 1)
        for w, conn in enumerate(self._conns):
            if isinstance(conn, _LocalWorker):
                continue
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
            [
                {**job_fields, "spec": spec, "worker_index": w}
                for w, spec in enumerate(specs)
            ],
            wire.MSG_OK,
            "job setup",
        )

    def _connect_workers(self, addresses) -> list:
        """Connect to the ``host:port`` workers; returns each one's
        stream spec.  The worker count and the stream's type are checked
        before anything is built."""
        job = self.job
        if len(addresses) != job.n_workers:
            raise ConfigurationError(
                f"{len(addresses)} worker specs for "
                f"n_workers={job.n_workers}; they must match"
            )
        if not isinstance(job.stream, FileEdgeStream):
            raise ConfigurationError(
                "host:port workers need a file-backed stream "
                "(FileEdgeStream): they stream their own shards of it, "
                "and edge data never crosses the wire"
            )
        spec = make_stream_spec(job.stream)
        for w, address in enumerate(addresses):
            label = f"worker {w} at {address[0]}:{address[1]}"
            try:
                sock = socket.create_connection(
                    address, timeout=self._connect_timeout
                )
            except OSError as exc:
                raise PartitioningError(
                    f"{self._kind} could not connect to {label}: {exc}"
                ) from exc
            self._track(wire.Connection(sock, label=label))
        return [spec_to_wire(spec)] * len(addresses)

    def _start_loopback_workers(self, n_procs) -> list:
        """Fork workers 1 to ``n_procs`` as processes that connect back
        to a listener on ``127.0.0.1``; returns each one's stream spec.
        A file stream is reopened from its spec; any other stream is
        inherited (:func:`_forked_stream`).  A host that cannot fork
        raises before anything is built."""
        import multiprocessing as mp

        try:
            fork = mp.get_context("fork")
        except ValueError:
            raise ConfigurationError(
                f"{self._kind} runner: this host cannot fork loopback workers; "
                "pass the host:port addresses of worker servers (the CLI "
                "'worker' subcommand) as ProcessRunner(workers=...)"
            ) from None
        stream = self.job.stream
        if isinstance(stream, FileEdgeStream):
            inherited, spec = None, spec_to_wire(make_stream_spec(stream))
        else:
            inherited, spec = _forked_stream(stream), _INHERITED
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(n_procs)
        self._listener.settimeout(0.1)  # see _accept
        address = self._listener.getsockname()[:2]
        for w in range(1, n_procs + 1):
            proc = fork.Process(
                target=_loopback_worker_main, args=(address, inherited), daemon=True
            )
            try:
                proc.start()
            except OSError as exc:
                raise PartitioningError(
                    f"{self._kind} could not start loopback worker {w}: {exc}"
                ) from exc
            self._procs.append(proc)
            _LIVE_WORKER_PROCS.add(proc)
        for w in range(1, n_procs + 1):
            self._track(wire.Connection(self._accept(w), label=f"worker {w}"))
        self._listener.close()
        self._listener = None
        return [spec] * n_procs

    def _accept(self, w: int) -> socket.socket:
        """The next loopback worker's socket.  Accepts in slices of at
        most 0.1 s and checks between them that no forked worker has
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
            for i, proc in enumerate(self._procs, start=1):
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
            # A worker in this process keeps its handler's exception: the
            # cause, which the serial runner re-raises.
            raise WorkerFailed(
                w, step, payload.get("message", "no detail"), runner=self._kind
            ) from getattr(self._conns[w], "error", None)
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
                if w in self._news:
                    fields.update(self._news_fields(w, self._news.pop(w)))
            if refresh and refresh[0] is not None:
                # The barrier's news rides on the next window's request.
                fields["offset"], fields["n_ids"], fields["moves"] = refresh[0]
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
            # most 2 moved vertices per edge; the merge checks every row.
            export = check_export(w, (payload.get("moves"), payload.get("fresh")))
            if export[0].shape[0] > 2 * (stop - start):
                raise PartitioningError(
                    f"{self._kind} {step}: a window of {stop - start} edges "
                    f"moved {export[0].shape[0]} vertices, more than its "
                    f"{2 * (stop - start)} endpoints"
                )
            return export, payload["cost"]
        if self._logless:
            return int(payload["total"]), payload["cost"]
        # Checked before the barrier touches the global state: a 1-d
        # int64 log of at most 2 cells per edge, and k int64 sizes.
        log, sizes = payload.get("log"), payload.get("sizes")
        log_cells([log])
        if log.shape[0] > 2 * (stop - start):
            raise PartitioningError(
                f"{self._kind} {step}: a window of {stop - start} edges "
                f"logged {log.shape[0]} cells, more than the "
                f"{2 * (stop - start)} bits it can set"
            )
        if getattr(sizes, "dtype", None) != np.int64 or sizes.shape != (self.job.k,):
            raise PartitioningError(f"{self._kind} {step}: malformed sizes")
        self._logs[w] = log
        self._sizes.append(sizes)
        return int(payload["total"]), payload["cost"]

    # -- Phase 1 -------------------------------------------------------
    def open_clustering(self, degrees, cap, lone, log_capacity):
        """Start Phase 1: every worker builds its clustering state over
        ``degrees``, with a move log of ``log_capacity`` rows unless
        ``lone``."""
        self._lone = lone
        fields = {
            "degrees": degrees,
            "cap": cap,
            "single": lone,
            "log_capacity": log_capacity,
        }
        self._exchange(
            wire.MSG_PHASE1_INIT, [fields] * len(self._conns), wire.MSG_OK, "clustering"
        )

    def close_clustering(self, lone):
        """End Phase 1; returns the lone worker's ``(v2c, volumes)``."""
        if not lone:
            return None
        self._send(0, wire.MSG_CLUSTER_FINISH, None, "clustering")
        result = self._recv(0, wire.MSG_CLUSTER_RESULT, "clustering")
        return result["v2c"], result["volumes"]

    # -- Phase 2 -------------------------------------------------------
    def bind_phase2(self, lone, log_capacity, bounds):
        """Bind every worker to its shard ``[bounds[w], bounds[w + 1])``
        once the job carries its Phase-2 arrays, with a set-bit log of
        ``log_capacity`` cells, unless ``lone`` in the coordinator."""
        job = self.job
        # A lone view that is the job's state has no one to tell of its
        # bits: no log, and barriers with nothing to do.
        self._logless = lone and self._owner is not None
        self._log_capacity = 0 if self._logless else log_capacity
        self._shards = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        self._merged = job.state.sizes.copy()
        fields = {
            "n_vertices": int(job.state.n_vertices),
            "packed": bool(job.state.packed),
            "part": job.part,
            "weights": job.weights,
            "log_capacity": None if self._logless else log_capacity,
        }
        payloads = [
            {**fields, "shard_start": lo, "shard_stop": hi} for lo, hi in self._shards
        ]
        if self._owner is not None:
            lo, hi = self._shards[self._owner]
            payloads[self._owner].update(
                state=job.state, assignments=job.assignments[lo:hi]
            )
        self._exchange(wire.MSG_BIND, payloads, wire.MSG_OK, "phase-2 bind")

    def barrier(self, step):
        """The Phase-2 barrier: ``job.state`` takes the cells of every
        worker but the one whose view it is and the merged sizes; the
        others' news is queued.  Returns the cells logged, ``None`` for
        a worker without a log."""
        if self._logless:
            return None
        job = self.job
        logs, self._logs = self._logs, {}
        view_sizes, self._sizes = self._sizes, []
        taken = [log for w, log in logs.items() if w != self._owner]
        self._merged = merge_sizes(self._merged, view_sizes)
        news = {"log": log_cells(taken), "sizes": self._merged}
        take_news(get_backend(job.backend), job.state, news)
        # Each other worker with a shard takes the news with its next
        # window (see run): nothing ships now, and the run's last barrier
        # ships nothing at all.
        for w, (lo, hi) in enumerate(self._shards):
            if hi > lo and w != self._owner:
                others = (log for v, log in logs.items() if v != w)
                self._news.setdefault(w, []).extend(others)
        return sum(int(log.shape[0]) for log in logs.values())

    def _news_fields(self, w: int, news: list) -> dict:
        """Worker ``w``'s window request's news: the cells the other
        workers logged since its last window, or the merged plane where
        that is fewer bytes, so no news ships more than a full
        re-broadcast (the plane and the sizes); and the merged sizes.
        The wire stats count the news of socket workers only."""
        plane = _replica_plane(self.job.state.replicas)[0]
        sizes = self.job.state.sizes
        cells = log_cells(news)
        sent = wire.wire_nbytes(cells)
        key, value = ("log", cells) if sent < plane.nbytes else ("plane", plane)
        if isinstance(self._conns[w], _LocalWorker):
            # Its handler runs after worker 0's has written job.state, so
            # it takes copies of the plane and sizes; no one writes logs.
            return {key: cells if key == "log" else plane.copy(), "sizes": sizes.copy()}
        counts = self._barrier_bytes
        shipped, sizes_bytes = min(sent, plane.nbytes), wire.wire_nbytes(sizes)
        counts["plane"] += shipped
        counts["delta"] += shipped + sizes_bytes
        counts["full"] += plane.nbytes + sizes_bytes
        return {key: value, "sizes": sizes}

    def finalize(self) -> None:
        """Collect the shard of every worker but worker 0 in this
        process, whose windows wrote the job's array; every shard is
        checked before the first is written."""
        job = self.job
        collected = [w for w in range(len(self._conns)) if w != self._owner]
        for w in collected:
            self._send(w, wire.MSG_COLLECT, None, "collect")
        shards = []
        for w in collected:
            lo, hi = self._shards[w]
            got = self._recv(w, wire.MSG_COLLECT_RESULT, "collect").get("assignments")
            if getattr(got, "dtype", None) != np.int32 or got.shape != (hi - lo,):
                raise PartitioningError(
                    f"{self._kind} collect: worker {w} sent "
                    f"{type(got).__name__} {getattr(got, 'dtype', '')}"
                    f"{getattr(got, 'shape', '')}, expected the {hi - lo} int32 "
                    f"assignments of its shard"
                )
            outside = (got < 0) | (got >= job.k)
            if outside.any():
                i = int(np.argmax(outside))
                raise PartitioningError(
                    f"{self._kind} collect: worker {w} assigned edge {lo + i} to "
                    f"partition {int(got[i])}, outside [0, {job.k})"
                )
            shards.append((lo, hi, got))
        for lo, hi, got in shards:
            job.assignments[lo:hi] = got

    # -- bookkeeping ---------------------------------------------------
    def wire_stats(self) -> dict | None:
        """Socket traffic, ``None`` for a session without sockets."""
        if not self._sockets:
            return None
        return {
            "bytes_sent": sum(c.bytes_sent for c in self._conns),
            "bytes_received": sum(c.bytes_received for c in self._conns),
            # The barriers' news as the window requests carried it, its
            # replica-plane part (the cells or the plane), and what full
            # re-broadcasts would have sent in its place.
            **{f"barrier_{k}_bytes": v for k, v in self._barrier_bytes.items()},
        }

    def extra_state_bytes(self) -> int:
        """Bytes of the worker views beside ``job.state`` and of their
        set-bit logs, wherever they live, each view of the global
        state's shape."""
        n = len(self._shards)
        views = n - (self._owner is not None)
        logs = 0 if self._logless else n
        log_bytes = ReplicaLog(self._log_capacity).nbytes()
        return views * self.job.state.nbytes() + logs * log_bytes

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # A worker with an unanswered request may be stuck in a kernel:
        # it gets no goodbye, and every forked worker is terminated at
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

