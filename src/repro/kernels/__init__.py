"""Backend-dispatched chunk-kernel execution layer for streaming passes.

Every streaming pass of the toolkit — degree counting, Phase-1 clustering,
2PS-L pre-partitioning, remaining-edge scoring, and the stateless hash
baselines — consumes the edge stream as numpy ``(c, 2)`` chunks.  This
package turns "what happens to a chunk" into a pluggable *kernel backend*
so the same algorithm can run as an obviously-correct reference or as a
compiled loop.  There are two backends:

- ``python`` — the reference backend, the semantic ground truth that
  ``c`` is property-tested against, and the default on hosts without a
  working C compiler.  Its rule: **per edge wherever an edge's outcome
  depends on earlier edges, vectorized where none does.**  Every
  stateful pass (both Phase-1 clustering bodies, the pre-partition pass,
  the 2PS-L remaining pass and both HDRF passes) is a per-edge Python
  loop with the exact control flow of the paper's pseudocode.  The ops
  that decide no edge from another edge's outcome run per chunk or per
  barrier in numpy: ``np.add.at`` for degrees, one ``map_chunk`` call
  per chunk for the stateless baselines, and the two Phase-1 merges
  (the clustering refresh, which updates list state, runs per move).
  Their per-edge loops are the ``per-edge`` test backend
  (``tests/per_edge.py``); ``tests/test_kernels.py`` pins each of the
  four against its loop, op by op and through whole runs.
- ``c`` — the default wherever it builds (:mod:`repro.kernels.c_backend`):
  the per-edge loop of the degree pass and of every stateful pass (both
  clustering bodies, the pre-partition pass, both remaining passes, the
  HDRF baseline), the clustering merge and refresh, the Phase-2 barrier
  op and the cluster-mapping loop, compiled from one C source by the host
  compiler and called through ``ctypes``, one call per chunk or barrier;
  the stateless pass and the degree merge are the reference's.  See
  *Optional backends* below for what happens when it cannot build.

Backend contract
----------------
A backend subclasses :class:`~repro.kernels.base.KernelBackend` and must
be **bit-exact** with the ``python`` reference backend: for any stream,
chunk size, ``k`` and ``alpha``, every pass must produce identical outputs
(degree arrays, cluster ids and volumes, per-edge partition assignments,
replication bits, partition sizes) *and* identical machine-neutral cost
counts.  Chunk size is therefore a pure performance knob, never a
semantics knob.  The equivalence property tests in
``tests/test_kernels.py`` enforce this contract on random multigraphs,
sweeping ``chunk_size`` through degenerate values (1, primes, larger than
the edge count).

The tricky part of the contract is the *stateful* passes, where an
edge's decision depends on state mutated by earlier edges: Phase-1
clustering, the pre-partition pass (through the hard balance cap, whose
hash / least-loaded fallback chain makes decisions order-dependent),
the 2PS-L remaining pass and both HDRF passes.  Each has exactly two
implementations: the reference's per-edge loop and the ``c`` backend's
transliteration of it into a compiled loop that decides every edge in
stream order.

Phase-2 inputs
--------------
The three Phase-2 passes (pre-partitioning and both remaining passes)
read the Phase-1 product through two per-vertex arrays in
:class:`~repro.kernels.base.TwoPhaseContext`, and nothing else of it:

- ``part``: int32 ``(n,)``, the partition of each vertex's cluster, or
  -1 for a vertex Phase 1 never clustered;
- ``weights``: int64 ``(n, 2)``, each vertex's degree and the volume of
  its cluster (0 when unclustered).

:func:`~repro.kernels.base.phase2_inputs` derives both from ``v2c``,
``c2p``, the cluster volumes and the degrees, once per run right after
the cluster mapping, and checks those arrays once (every cluster id in
``[-1, len(c2p))``, every partition in ``[0, k)``, agreeing lengths, a
positive degree for every clustered vertex); a miss is a
:class:`~repro.errors.PartitioningError`.  Every runner hands the two
arrays over as they are, 20 bytes per vertex, in the transport's bind
message, once per worker: by reference to a worker in the coordinator,
over the wire to a worker process.

Reading them, a pass gathers one partition id and one ``weights`` row
per endpoint.  The skip test ``part[u] == part[v]`` is Algorithm 2's
``c(u) = c(v) or c2p(c(u)) = c2p(c(v))``, since ``c2p`` is a function;
the pre-partition pass assigns those edges, the remaining passes the
others.  The 2PS-L score reads ``weights[u, 1]`` where the paper reads
the volume of ``u``'s cluster, the fallback hash and HDRF's theta read
degrees from ``weights[:, 0]``.  An edge a pass would assign whose
endpoint's ``part`` lies outside ``[0, k)`` (-1 when a stream yields,
in Phase 2, a vertex its Phase-1 passes never saw) raises
:func:`~repro.kernels.base.partition_error`, a
:class:`~repro.errors.StreamError`, on every backend; a sharded runner
wraps it, as any failed window, in its one
:class:`~repro.errors.PartitioningError`.

Merge ops (parallel barriers) and the cluster mapping
-----------------------------------------------------
The sharded Phase 1 (``ParallelTwoPhase(parallel_phase1=True)``) runs the
degree and clustering passes per shard window and folds worker results at
barriers through two merge ops, and a third brings each worker's
clustering to the merged one; a sharded Phase 2 synchronizes its worker
views at barriers through a fourth, on every transport, and every run
maps clusters to partitions through a fifth.  The
``python`` twins are the reference; a new backend must reproduce each
**bit for bit** (the Phase-1 merges decide cluster ids, and cluster ids
feed every downstream pass):

- ``merge_phase1_degrees(partials, n_hint)`` — element-wise integer sum
  of per-shard partial degree vectors, grown to ``n_hint``.  The merge is
  **associative and commutative** (int64 addition), so any merge tree or
  worker order is exact; runners exploit this by collecting partials in
  whatever completion order is convenient.
- ``merge_phase1_clustering(v2c, volumes, exports, degrees)`` — an
  **ordered left fold** of the workers' moves into the global clustering
  ``(v2c, volumes)``, in place.  Each worker keeps one clustering state
  for all of Phase 1 and starts every window from the global clustering
  of the last barrier; with a :class:`~repro.kernels.base.MoveLog` the
  clustering loop logs each ``v2c`` write, and the window exports
  ``(moves, n_fresh)``: the ``(vertex, id)`` rows of the vertices whose
  id it changed, ascending by vertex, and the count of clusters it
  opened, whose ids occupy ``[len(volumes), len(volumes) + n_fresh)``.
  The fold remaps fresh ids to one global sequence in worker order,
  resolves per-vertex conflicts first-worker-wins, and moves each
  accepted vertex's true degree from its old cluster's volume to its new
  one's in exact int64, so every volume stays the sum of its members'
  true degrees (the Algorithm-1 invariant; over-cap overshoot from stale
  windows is carried through without drift).  It returns each worker's
  accepted moves in merged ids.  The fold is **associative over the
  ordered worker sequence** — deltas are mutually independent, so any
  grouping that preserves worker order gives the same result — but
  **not commutative**: reordering workers changes both the conflict
  winners and the fresh-id remap.  Every runner therefore merges in
  ascending worker index; a backend (or runner) that merges in any other
  order breaks the ``ProcessRunner == SimulatedRunner`` contract.
  Exports may have arrived over sockets, so every backend checks every
  row before its first write and rejects a vertex outside ``[0, n)`` or
  out of ascending order, an id outside ``[-1, len(volumes) +
  n_fresh)`` or an impossible ``n_fresh`` with the same
  :class:`~repro.errors.PartitioningError`
  (:func:`~repro.kernels.base.check_clustering_moves` names the first
  miss).  A barrier costs O(moves), never O(``|V|``): ids stay stable
  across barriers, and the driver compacts them once, after the last
  sweep (:func:`~repro.core.runners.compact_clustering`).
- ``refresh_clustering(st, own, base, offset, n_ids, others)`` — the
  other half of a clustering barrier, run by each worker before its next
  window: shift its last window's fresh ids by the offset the merge gave
  them, and apply the other workers' accepted moves, each a degree off
  one volume and onto another.  Afterwards the worker's state equals the
  merged clustering, bit for bit.  ``others`` may have crossed a socket,
  so every row is checked before the first write, as
  ``apply_replica_log`` checks its cells.
- ``apply_replica_log(state, logs)`` — one Phase-2 barrier's write into
  one state: set every bit the set-bit ``logs`` name.  On a sharded run
  each Phase-2 pass appends every replica bit it sets that was clear in
  its worker's view to ``ctx.log`` (:class:`~repro.kernels.base.ReplicaLog`),
  as the cell ``row * k + p``, ``u``'s bit before ``v``'s; every backend
  logs the same cells in the same order.  Replica bits only go from 0
  to 1, so applying every log to a state equals OR-ing the views into
  it.  Logs may have crossed a socket, so every entry is checked against
  ``[0, rows * k)`` before the first write.
- ``list_schedule(jobs, k)`` — the assignment loop of Graham's list
  scheduling (:func:`repro.core.scheduling.graham_schedule`, which
  sorts the cluster volumes first): each job goes to the least-loaded
  partition, the lowest index on ties.

``tests/test_kernels.py`` (``TestPhase1MergeOps``, which also checks
that every refreshed worker holds the merged clustering,
``TestReplicaLogBarrier``, ``TestPassLogs``, ``TestListScheduleOp``)
pins the twins against each other on randomized inputs; the randomized
differential harness (``tests/differential.py``) pins the full pipeline
across runners, backends and seeds.

The process runner's socket workers (``repro.core.distributed``), local
or at ``host:port``, ride these exact ops over the wire protocol:
workers ship their moves and partial degree vectors as typed wire
frames, and the coordinator folds them with the same
``merge_phase1_degrees`` / ``merge_phase1_clustering`` calls in the
same ascending-worker order — so the ordered-fold contract above is also
the wire contract; each worker's refresh rides on its next clustering
request.  Phase-2 barriers likewise run the one op: workers ship their
set-bit logs, the coordinator applies them to its global state with
``apply_replica_log`` and sends each worker the others' cells to apply
(or, if fewer bytes, the merged plane), so ``ProcessRunner`` with
``host:port`` workers joins the ``SimulatedRunner == ProcessRunner``
equality class with no backend change.  Backends never see sockets; a
backend correct under this contract is distributed-correct for free.

Packed replica rows (out-of-core states)
----------------------------------------
``PartitionState(..., packed=True)`` stores the replica matrix as
bit-packed rows (``(k + 7) // 8`` little-bitorder bytes per vertex, the
``np.packbits(..., bitorder="little")`` layout) behind
:class:`~repro.partitioning.state.PackedReplicaMatrix`.  Vectorized
kernel code never sees the byte layout: the wrapper speaks the same
indexing protocol as the dense bool matrix — ``replicas[rows, cols]``
bit gathers, ``replicas[rows]`` row gathers, ``replicas[us, ps] = True``
duplicate-safe bit scatters, ``sum``/``any``/``copy``/``__array__`` —
so a backend written against the dense protocol runs packed states
unchanged.  The contract additions for backends that bypass the
protocol with raw-``ndarray`` tricks:

- detect packed storage with ``getattr(replicas, "packed", None)`` and
  handle the packed rows natively (the row bytes ARE the
  ``np.packbits`` encoding);
- the per-edge loops never index the wrapper (a scalar
  ``replicas[u, p]`` is a Python-level call costing microseconds on
  packed state).  They test and set bits on the raw storage plane that
  :func:`~repro.partitioning.state._replica_plane` describes: the
  storage array plus ``(row_bytes, shift, low_mask)``, bit ``(u, p)``
  at byte ``u * row_bytes + (p >> shift)`` under mask
  ``1 << (p & low_mask)`` — ``(k, 0, 0)`` for dense bool,
  ``(ceil(k/8), 3, 7)`` for packed — so one loop serves both layouts
  (the reference through a byte ``memoryview``, the ``c`` loops through
  a pointer).  The HDRF passes read each endpoint's row for their
  k-wide argmax from the same plane: the row itself when dense, its
  ``np.unpackbits`` when packed;
- replica bits are monotone within a streaming run, so the passes never
  clear them.  ``PackedReplicaMatrix.__setitem__`` accepts ``= False``
  only as a *scalar* element write (``IncrementalPartitioner`` clears a
  replica bit on edge deletion) and rejects fancy ``= False`` scatters;
- tail bits (``k`` not a byte multiple) must stay zero — popcount-based
  metrics (``sum``) trust them;
- packed and dense states must stay **bit-exact** for any stream,
  chunk size and runner: the huge-shape tier of the differential
  harness (``tests/differential.py --out-of-core``) and
  ``tests/test_state.py`` pin this across the backend matrix.

Writing a backend
-----------------
1. Subclass :class:`~repro.kernels.base.KernelBackend` (or an existing
   backend — ``CBackend`` subclasses ``PythonBackend`` and overrides the
   degree pass, every stateful pass, the clustering merge and refresh,
   the Phase-2 barrier op and the mapping loop, keeping the reference's
   stateless pass and degree merge).
2. Override any subset of the pass methods: ``degree_pass``,
   ``clustering_true_pass``, ``clustering_partial_pass``,
   ``prepartition_pass``, ``remaining_pass_linear``,
   ``remaining_pass_hdrf``, ``hdrf_baseline_pass``, ``stateless_pass``;
   and of the barrier and mapping ops: ``merge_phase1_degrees``,
   ``merge_phase1_clustering``, ``refresh_clustering``,
   ``apply_replica_log``, ``list_schedule``.  A Phase-2 pass that sets a
   replica bit tests it first, and appends its cell to ``ctx.log`` when
   it was clear and ``ctx.log`` is not ``None``; a true-degree clustering
   pass given a ``log`` appends the ``(vertex, old, new)`` row of every
   ``v2c`` write.
   Interpreted backends route order-sensitive decisions through the
   shared twins (``PythonBackend._fallback_partition`` for the
   hash/least-loaded chain, ``PythonBackend.hdrf_choose`` for the HDRF
   argmax) so float arithmetic and tie-breaks cannot diverge; compiled
   loops cannot call back into Python, so they transliterate the twins
   expression for expression, in the same association order, built
   without fused multiply-add (see ``_ckernels.c``).
3. Read Phase 2's inputs from ``ctx.part`` and ``ctx.weights`` only
   (see *Phase-2 inputs*), and check bounds where state is sized up
   front: a pass whose arrays come from ``n_vertices`` (the HDRF
   baseline, clustering, the stateless pass) or from ``part`` (the
   Phase-2 passes) rejects a larger vertex id with
   :class:`~repro.errors.StreamError` — the reference's passes per chunk
   through :func:`~repro.kernels.base.check_vertex_ids`, the compiled
   loops per index — and a Phase-2 pass raises
   :func:`~repro.kernels.base.partition_error` for an edge it would
   assign whose endpoint's ``part`` lies outside ``[0, k)``.
4. Register it: ``register_backend("mine", MyBackend)``.  The name
   becomes valid everywhere a ``backend=`` parameter or the CLI
   ``--backend`` flag is accepted.
5. Run the equivalence suite against it.  A backend is correct only when
   it passes **all** of:

   - ``tests/test_kernels.py`` — per-pass property sweep against the
     reference backend over random multigraphs and hub-heavy R-MAT,
     with ``chunk_size`` through degenerate values (1, primes, larger
     than ``|E|``), ``alpha`` down to 1.0 (cap guard) and
     ``hdrf_lambda`` through 0 (degenerate balance term);
   - ``tests/test_parallel_kernels.py`` — the same kernels dispatched
     through the sharded parallel path (stale state views, sync-window
     streams, barrier merges), plus ``FileEdgeStream`` vs
     ``InMemoryEdgeStream`` source parity;
   - ``benchmarks/run_bench.py --smoke`` — end-to-end bit-exactness on
     a 65k-edge R-MAT plus the speedup gates (CI runs exactly this).

   Equality is *byte-level*: assignments, replica bits, partition sizes,
   cluster state **and** machine-neutral cost counters.  The sweeps
   enumerate ``available_backends()``, so registration before test
   collection suffices.

Optional backends
-----------------
``c`` needs a working C compiler, so it registers through
:func:`_register_optional_backends` at import time, which also sets
:data:`DEFAULT_BACKEND` (``"c"`` when it registers, else ``"python"``).
The library is built once per source, flags and compiler, and cached on
disk (see :mod:`repro.kernels.c_backend`), so a later import loads it
without running the compiler.  When no compiler is found, the build
fails or the cache is unsafe:

- the name is *known but missing*: it appears in :func:`missing_backends`
  (name -> human-readable reason) and **not** in
  :func:`available_backends`, so equivalence sweeps and the benchmark
  matrix never enumerate a backend that cannot run;
- :func:`get_backend` on the missing name degrades to the
  :data:`DEFAULT_BACKEND` (``python``) with a one-time ``RuntimeWarning``
  — library callers (partitioner constructors, runner workers) keep
  working, just without the compiled loops.  Workers of a parallel run
  never hit the warning at all: ``ParallelTwoPhase`` ships the
  *resolved* backend name to the runner session;
- explicit user-facing requests stay loud: the CLI raises a
  :class:`~repro.errors.PartitioningError` for ``--backend c`` instead
  of silently falling back (``repro.cli``).
"""

from __future__ import annotations

import warnings

from repro.errors import ConfigurationError
from repro.kernels.base import ClusteringState, KernelBackend, TwoPhaseContext
from repro.kernels.python_backend import PythonBackend

#: Name of the backend used when none is requested explicitly: ``"c"``
#: when the compiled backend is available, else ``"python"``.
DEFAULT_BACKEND = "python"

_REGISTRY: dict[str, type[KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}

#: Optional backends whose dependency is absent: name -> reason.  Kept
#: disjoint from ``_REGISTRY`` by construction.
_MISSING: dict[str, str] = {}

#: Missing-backend names whose fallback warning already fired (one-time).
_FALLBACK_WARNED: set[str] = set()


def register_backend(name: str, cls: type[KernelBackend]) -> None:
    """Register a kernel backend class under ``name`` (see module docs).

    The registry key must equal ``cls.name``: results record the
    backend by ``cls.name``, and the parallel path ships the *resolved*
    instance name to runner workers (which look it up again), so an
    alias registration would produce runs that cannot name their own
    backend.
    """
    if not issubclass(cls, KernelBackend):
        raise ConfigurationError(
            f"backend {name!r} must subclass KernelBackend, got {cls!r}"
        )
    if cls.name != name:
        raise ConfigurationError(
            f"backend registry key {name!r} must equal {cls.__name__}.name "
            f"({cls.name!r}); aliases would break resolved-name lookups"
        )
    _REGISTRY[name] = cls
    _INSTANCES.pop(name, None)
    _MISSING.pop(name, None)
    _FALLBACK_WARNED.discard(name)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, reference backend first."""
    return tuple(sorted(_REGISTRY, key=lambda n: (n != "python", n)))


def missing_backends() -> dict[str, str]:
    """Known-but-unavailable optional backends -> human-readable reason.

    Disjoint from :func:`available_backends`; see *Optional backends* in
    the module docs for how :func:`get_backend` treats these names.
    """
    return dict(_MISSING)


def get_backend(name: str | None = None) -> KernelBackend:
    """Resolve a backend name (``None`` -> :data:`DEFAULT_BACKEND`).

    Backends are stateless between runs, so instances are shared.  A
    known-but-unavailable optional backend (see :func:`missing_backends`)
    resolves to the :data:`DEFAULT_BACKEND` with a one-time
    ``RuntimeWarning`` naming the missing dependency.

    Raises
    ------
    ConfigurationError
        For unknown names (message lists the registry).
    """
    key = DEFAULT_BACKEND if name is None else str(name)
    if key not in _REGISTRY and key in _MISSING:
        if key not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(key)
            warnings.warn(
                f"kernel backend {key!r} is unavailable on this host "
                f"({_MISSING[key]}); falling back to the "
                f"{DEFAULT_BACKEND!r} backend",
                RuntimeWarning,
                stacklevel=2,
            )
        key = DEFAULT_BACKEND
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown kernel backend {key!r}; available: {list(available_backends())}"
        )
    if key not in _INSTANCES:
        _INSTANCES[key] = _REGISTRY[key]()
    return _INSTANCES[key]


def _register_optional_backends() -> None:
    """(Re-)detect the compiled ``c`` backend and pick the default.

    Runs at import, because :data:`DEFAULT_BACKEND` depends on the
    outcome; tests re-run it with the compiler or the cache made
    unusable.  Re-detection fully reconciles the registered / missing /
    warned state in both directions.
    """
    global DEFAULT_BACKEND
    from repro.kernels import c_backend

    reason = c_backend.load()
    if reason is None:
        register_backend("c", c_backend.CBackend)
    else:
        _REGISTRY.pop("c", None)
        _INSTANCES.pop("c", None)
        _MISSING["c"] = reason
        _FALLBACK_WARNED.discard("c")
    DEFAULT_BACKEND = "c" if "c" in _REGISTRY else "python"


register_backend("python", PythonBackend)
_register_optional_backends()

__all__ = [
    "DEFAULT_BACKEND",
    "ClusteringState",
    "KernelBackend",
    "PythonBackend",
    "TwoPhaseContext",
    "available_backends",
    "get_backend",
    "missing_backends",
    "register_backend",
]
