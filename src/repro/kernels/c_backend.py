"""The ``c`` backend: the per-edge loops, compiled from C.

``_ckernels.c`` holds the per-edge loop of the degree pass and of every
stateful pass: both Phase-1 clustering bodies, the pre-partition pass
with its hash / least-loaded fallback, the 2PS-L and 2PS-HDRF remaining
passes, and the classic HDRF baseline.  :class:`CBackend` makes one
foreign call per stream chunk (the degree pass a second one in a chunk
that grows its array); the loop itself skips the edges a pass does not
own (the pre-partitioned ones).  It also holds the loops that run once
per barrier or per run: the Phase-1 clustering merge, the Phase-2 delta
barrier and the assignment loop of the cluster mapping.  Every loop
addresses replica bits on the raw plane of
:func:`~repro.partitioning.state._replica_plane`, so dense and packed
state share it.  The stateless pass and the degree merge are the
reference's vectorized ops, inherited.

The three Phase-2 loops read only the two per-vertex arrays of the
contract, ``part`` (int32) and ``weights`` (int64 ``(n, 2)`` rows of
degree and cluster volume), built once per run by
:func:`~repro.kernels.base.phase2_inputs`: an endpoint costs one gather
into each.  Both arrays are checked once per call for dtype, shape and
C-contiguity and never copied.  The two remaining passes prefetch the
rows of the edge a fixed distance ahead, and the clustering pass
prefetches ``v2c`` and degrees 16 edges ahead and cluster volumes 8
ahead; the pre-partition and degree passes measured slower with a
look-ahead and have none.  The 2PS-L pick between the two candidates and
the clustering move are computed without a branch.

Bit-exactness with the ``python`` reference is argued in the C source:
the same double expressions in the same association order, exact
int64-to-double conversions, no fused multiply-add, first-index
tie-breaks, and replication terms added without a branch only where the
product form is exact.  Both HDRF loops score all k partitions, as the
reference does, so they are exact for every balance weight.

Memory safety.  The loops check every index they derive from the input
(endpoint ids, cluster ids read from the clustering's ``v2c``,
partitions read from ``part``) against the length of the array it
indexes; on a miss they stop and report the edge, which
:class:`CBackend` raises as :class:`~repro.errors.StreamError` (for an
endpoint whose ``part`` lies outside ``[0, k)``, the same
:func:`~repro.kernels.base.partition_error` the other backends raise).
A prefetch, and the clustering look-ahead's read of ``v2c``, go only to
ids that passed the check, of an edge inside the chunk.  The degree
pass grows its array on a miss, to the chunk's largest id + 1, and
resumes at that edge; a negative id (which the unsigned check also
stops at) raises :class:`~repro.errors.StreamError`.  The clustering
merge checks every cluster id it takes from a worker export against
that worker's id range (the distributed coordinator folds exports that
arrived over sockets) and raises :class:`~repro.errors.PartitioningError`
on a miss.  The arrays a loop writes are checked once per call (dtype,
C-contiguity, writability and shape; for the barrier, that every view's
plane matches the global plane's shape and packing) and never copied,
so a write can never land in a silent copy.

Build, cache, load.  The host compiler (``$CC`` split like a shell
command, else ``cc`` on ``PATH``) builds the source once with
:data:`FLAGS`.  The library is cached under ``$XDG_CACHE_HOME/repro``
(else ``~/.cache/repro``), named by a sha256 over the source, the flags,
the resolved compiler with its size and mtime, and the machine type; a
cache hit runs no subprocess.  A miss compiles to a temporary name in
the cache directory and ``os.replace``-s it into place, so processes
that build at the same moment never load a half-written file.  The
cache directory and the library must belong to the current user and be
writable by no one else, since whoever can write them can run code in
this process.  :func:`load` reports any failure as a reason string, and
the registry then lists ``c`` as missing (see :mod:`repro.kernels`).
"""

from __future__ import annotations

import ctypes
import os
import platform
import shlex
import shutil
from pathlib import Path

try:  # CPython's builtin sha256: hashlib would map OpenSSL, ~4 MB resident
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from repro.errors import PartitioningError, StreamError
from repro.kernels.base import (
    ClusteringState,
    Int64Buffer,
    check_vertex_ids,
    partition_error,
)
from repro.kernels.python_backend import PythonBackend
from repro.partitioning.state import _replica_plane, _replica_storage

SOURCE = Path(__file__).with_name("_ckernels.c")

#: ``-ffp-contract=off`` stops GCC's default fusing of multiply-adds on
#: FMA targets.  Never ``-ffast-math`` (it reorders and fuses float
#: arithmetic) or ``-march=native`` (the cache key names the machine
#: type, not the CPU model the library was tuned for).
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
_PLANE = (_P, _I, _I, _I)
_SIGNATURES = {
    "degree_pass": (_P, _I, _P, _I),
    "cluster_pass": (_P, _I, _I, _P, _P, _I, _P, _I, _D, _P),
    "prepartition": (
        _P, _I, _P, _P, _I, *_PLANE, _P, _I, _I, ctypes.c_uint64, _P, _P,
    ),
    "remaining_linear": (
        _P, _I, _P, _P, _I, *_PLANE, _P, _I, _I, ctypes.c_uint64, _P, _P,
    ),
    "remaining_hdrf": (
        _P, _I, _P, _P, _I, *_PLANE, _P, _I, _I, _D, _D, _P, _P, _P,
    ),
    "hdrf_baseline": (_P, _I, _P, _I, *_PLANE, _P, _I, _I, _D, _D, _P, _P, _P),
    "merge_deltas": (_P, _P, _I, _I, _I, _P, _P, _P, _I),
    "merge_clustering": (_P, _I, _I, _P, _P, _I, _P, _P, _P, _P, _I, _P),
    "list_schedule": (_P, _I, _I, _P, _P, _P),
}

#: The loaded library (set by :func:`load`).
_LIB = None


class _Unavailable(Exception):
    """The library cannot be built or loaded; the message is the reason."""


def _compiler() -> list[str]:
    """``$CC`` as an argument list with its program resolved on PATH."""
    words = shlex.split(os.environ.get("CC", "")) or ["cc"]
    path = shutil.which(words[0])
    if path is None:
        raise _Unavailable(f"no C compiler: {words[0]!r} is not on PATH")
    return [path, *words[1:]]


def _check_private(path: str) -> None:
    """Refuse a path another user owns or group/others may write."""
    if not hasattr(os, "getuid"):
        raise _Unavailable("file ownership cannot be checked on this platform")
    st = os.stat(path)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise _Unavailable(
            f"refusing {path}: it must belong to this user and be "
            "writable by no one else"
        )


def cache_dir() -> str:
    """The private library cache directory, created with mode 0700."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro")
    os.makedirs(path, mode=0o700, exist_ok=True)
    _check_private(path)
    return path


def source_digest() -> str:
    """sha256 of the kernel source, which the distributed HELLO carries:
    workers built from another source would diverge silently."""
    return sha256(SOURCE.read_bytes()).hexdigest()


def library_path(compiler: list[str]) -> str:
    """Cache path of the library this compiler builds from the source."""
    st = os.stat(compiler[0])
    key = sha256(SOURCE.read_bytes())
    parts = (*FLAGS, *compiler, st.st_size, st.st_mtime_ns, platform.machine())
    for part in parts:
        key.update(b"\0" + str(part).encode())
    return os.path.join(cache_dir(), f"ckernels-{key.hexdigest()[:32]}.so")


def _build(compiler: list[str], path: str) -> None:
    """Compile to a temporary name next to ``path``, then move it there."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(
        prefix=".build-", suffix=".so", dir=os.path.dirname(path)
    )
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [*compiler, *FLAGS, "-o", tmp, str(SOURCE)],
                capture_output=True, text=True, timeout=300,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise _Unavailable(
                f"the C compiler {compiler[0]!r} did not run: {exc}"
            ) from None
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["no diagnostics"])[-1]
            raise _Unavailable(
                f"the C compiler {compiler[0]!r} failed with exit status "
                f"{proc.returncode}: {last}"
            )
        os.chmod(tmp, 0o700)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load() -> str | None:
    """Build on a cache miss and load the library.

    Returns ``None`` on success, else the reason the backend is
    unavailable.  A failure leaves an earlier successful load in place.
    """
    global _LIB
    try:
        compiler = _compiler()
        path = library_path(compiler)
        if not os.path.exists(path):
            _build(compiler, path)
        _check_private(path)
        lib = ctypes.CDLL(path)
    except _Unavailable as exc:
        return str(exc)
    except OSError as exc:
        return f"the C kernel library could not be built or loaded: {exc}"
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int64
    _LIB = lib
    return None


# ----------------------------------------------------------------------
# argument checks
# ----------------------------------------------------------------------
def _output(arr, dtype, what: str) -> np.ndarray:
    """``arr`` itself, if a loop may write through its pointer."""
    if not (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.flags.c_contiguous
        and arr.flags.writeable
    ):
        raise PartitioningError(
            f"{what} must be a writable C-contiguous {np.dtype(dtype).name} "
            "array for the c backend"
        )
    return arr


def _ints(arr) -> np.ndarray:
    """A read-only int64 input as a C-contiguous array (copied if not)."""
    return np.ascontiguousarray(arr, dtype=np.int64)


def _input(arr, dtype, shape, what: str) -> np.ndarray:
    """``arr`` itself, if a loop may read it in place (never copied)."""
    if not (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.shape == shape
        and arr.flags.c_contiguous
    ):
        raise PartitioningError(
            f"{what} must be a C-contiguous {np.dtype(dtype).name} array "
            f"of shape {shape} for the c backend"
        )
    return arr


def _plane(state, k: int) -> tuple[int, tuple]:
    """``(rows, (address, row_bytes, shift, low_mask))`` of the replica
    plane; see :func:`~repro.partitioning.state._replica_plane`."""
    raw, row_bytes, shift, low_mask = _replica_plane(state.replicas)
    _output(raw, np.uint8 if shift else np.bool_, "the replica plane")
    if raw.ndim != 2 or row_bytes != (k + low_mask) >> shift:
        raise PartitioningError(
            f"replica plane of shape {raw.shape} does not hold k={k} columns"
        )
    return raw.shape[0], (raw.ctypes.data, row_bytes, shift, low_mask)


def _sizes(state, k: int) -> np.ndarray:
    sizes = _output(state.sizes, np.int64, "partition sizes")
    if sizes.shape[0] != k:
        raise PartitioningError(f"{sizes.shape[0]} partition sizes for k={k}")
    return sizes


def _addresses(arrays) -> np.ndarray:
    """The data pointers of ``arrays`` as a C array of pointers; the
    caller keeps ``arrays`` alive across the call."""
    return np.array([a.ctypes.data for a in arrays], dtype=np.uintp)


def _index_error(edge, pos, n_vert, part=None, k=0):
    """The typed error for a loop's miss on ``edge`` (stream position
    ``pos``): an endpoint id outside the pass state, or an endpoint whose
    ``part`` lies outside ``[0, k)``."""
    check_vertex_ids(edge.reshape(1, 2), n_vert, pos)
    if part is not None:
        u, v = edge.tolist()
        return partition_error(pos, u, v, int(part[u]), int(part[v]), k)
    return StreamError(f"edge {pos} indexes outside the pass state")


class CBackend(PythonBackend):
    """Compiled per-edge, barrier and mapping loops (see the module
    docstring).

    Phase-1 state is held in arrays (an int64 ``v2c``, an
    :class:`~repro.kernels.base.Int64Buffer` of volumes, int64 degrees),
    which the compiled loop writes in place.
    """

    name = "c"

    # ------------------------------------------------------------------
    # Phase 1: the degree pass and streaming clustering
    # ------------------------------------------------------------------
    def degree_pass(self, stream, n_hint: int | None = None) -> np.ndarray:
        deg = np.zeros(int(n_hint) if n_hint else 0, dtype=np.int64)
        pos = 0
        for chunk in stream.chunks():
            edges = _ints(chunk)
            start = 0
            while start < edges.shape[0]:
                miss = _LIB.degree_pass(
                    edges[start:].ctypes.data,
                    edges.shape[0] - start,
                    deg.ctypes.data,
                    deg.shape[0],
                )
                if miss < 0:
                    break
                # An id at or beyond the array: grow it to the chunk's
                # max + 1, as the reference does, and resume at that edge.
                start += miss
                top = int(edges.max())
                if top < deg.shape[0]:  # the id the loop stopped at is < 0
                    raise StreamError(f"edge {pos + start} holds a negative vertex id")
                grown = np.zeros(top + 1, dtype=np.int64)
                grown[: deg.shape[0]] = deg
                deg = grown
            pos += edges.shape[0]
        return deg

    def clustering_init(self, degrees: np.ndarray) -> ClusteringState:
        return ClusteringState(
            v2c=np.full(len(degrees), -1, dtype=np.int64),
            vol=Int64Buffer(),
            deg=degrees.astype(np.int64, copy=True),
        )

    def clustering_export(self, st: ClusteringState):
        return st.v2c, st.vol.view().copy(), st.deg

    def clustering_load(self, v2c, volumes, degrees) -> ClusteringState:
        # deg may alias the input (no copy): true-degree passes never
        # write it, and loads happen once per sync window — see the
        # base-class contract.
        return ClusteringState(
            v2c=np.array(v2c, dtype=np.int64, copy=True),
            vol=Int64Buffer.from_array(np.asarray(volumes, dtype=np.int64)),
            deg=np.asarray(degrees, dtype=np.int64),
        )

    def _clustering_pass(self, stream, st, cap, cost, partial: bool) -> None:
        v2c = _output(st.v2c, np.int64, "v2c")
        deg = _output(st.deg, np.int64, "degrees") if partial else _ints(st.deg)
        n_vert = min(v2c.shape[0], deg.shape[0])
        buf = st.vol
        out = np.array([len(buf), 0], dtype=np.int64)
        pos = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            if c:
                edges = _ints(chunk)
                # Each edge opens at most two clusters.
                vol = _output(buf.reserve(len(buf) + 2 * c), np.int64, "volumes")
                miss = _LIB.cluster_pass(
                    edges.ctypes.data, c, partial, v2c.ctypes.data,
                    deg.ctypes.data, n_vert, vol.ctypes.data, vol.shape[0],
                    float(cap), out.ctypes.data,
                )
                buf.set_length(int(out[0]))
                if miss >= 0:
                    check_vertex_ids(edges[miss : miss + 1], n_vert, pos + miss)
                    raise StreamError(
                        f"edge {pos + miss}: an endpoint's cluster id in v2c "
                        f"names none of the {len(buf)} clusters"
                    )
            pos += c
        if cost is not None:
            cost.cluster_updates += int(out[1])
            cost.edges_streamed += pos

    def clustering_true_pass(self, stream, st, cap, cost) -> None:
        self._clustering_pass(stream, st, cap, cost, partial=False)

    def clustering_partial_pass(self, stream, st, cap, cost) -> None:
        self._clustering_pass(stream, st, cap, cost, partial=True)

    def merge_phase1_clustering(self, v2c, volumes, worker_states, degrees):
        snapshot = _ints(v2c)
        n = snapshot.shape[0]
        base = int(len(volumes))
        deg = _ints(degrees)
        if deg.shape[0] < n:
            raise PartitioningError(
                f"{deg.shape[0]} degrees for a clustering of {n} vertices"
            )
        exports, n_ids = [], []
        for w, (v2c_w, vol_w) in enumerate(worker_states):
            v2c_w = _ints(v2c_w)
            if v2c_w.shape != (n,) or len(vol_w) < base:
                raise PartitioningError(
                    f"worker {w}'s clustering export holds {v2c_w.shape[0]} "
                    f"vertices and {len(vol_w)} clusters; the barrier "
                    f"needs {n} vertices and at least {base} clusters"
                )
            exports.append(v2c_w)
            n_ids.append(int(len(vol_w)))
        n_vol = base + sum(n_w - base for n_w in n_ids)
        pointers = _addresses(exports)
        counts = np.array(n_ids, dtype=np.int64)
        merged = np.empty(n, dtype=np.int64)
        claimed = np.zeros(n, dtype=np.uint8)
        vol = np.zeros(n_vol, dtype=np.int64)
        bad = np.zeros(1, dtype=np.int64)
        miss = _LIB.merge_clustering(
            snapshot.ctypes.data, n, base, pointers.ctypes.data,
            counts.ctypes.data, len(exports), deg.ctypes.data,
            merged.ctypes.data, claimed.ctypes.data, vol.ctypes.data, n_vol,
            bad.ctypes.data,
        )
        if miss >= 0:
            w = int(bad[0])
            if w < 0:
                raise PartitioningError(
                    f"vertex {miss}: snapshot cluster id "
                    f"{int(snapshot[miss])} is outside the {n_vol} merged "
                    "clusters"
                )
            raise PartitioningError(
                f"worker {w}'s clustering export puts vertex {miss} in "
                f"cluster {int(exports[w][miss])}, outside its "
                f"{n_ids[w]} cluster ids"
            )
        return merged, vol

    # ------------------------------------------------------------------
    # Phase-2 barrier and the cluster mapping
    # ------------------------------------------------------------------
    def merge_phase2_deltas(self, state, views) -> int:
        k = int(state.k)
        n, plane = _plane(state, k)
        layout = _replica_storage(state.replicas).dtype
        sizes = _sizes(state, k)
        planes, bitmaps, view_sizes = [], [], []
        for view in views:
            raw = _output(
                _replica_storage(view.replicas), layout, "a view's replica plane"
            )
            if raw.shape != (n, plane[1]):
                raise PartitioningError(
                    f"a view's replica plane of shape {raw.shape} does not "
                    f"match the global plane's {(n, plane[1])}"
                )
            bitmap = _output(view.dirty, np.bool_, "a view's dirty bitmap")
            if bitmap.shape != (n,):
                raise PartitioningError(
                    f"a dirty bitmap of {bitmap.shape[0]} rows for a "
                    f"plane of {n}"
                )
            planes.append(raw)
            bitmaps.append(bitmap)
            view_sizes.append(_sizes(view, k))
        pointers = [_addresses(a) for a in (planes, bitmaps, view_sizes)]
        return int(
            _LIB.merge_deltas(
                plane[0], sizes.ctypes.data, n, plane[1], k,
                *(p.ctypes.data for p in pointers), len(views),
            )
        )

    def list_schedule(self, jobs, k):
        k = int(k)
        if k < 1:
            raise PartitioningError(f"k must be >= 1, got {k}")
        jobs = _ints(jobs)
        parts = np.empty(jobs.shape[0], dtype=np.int64)
        loads = np.empty(k, dtype=np.int64)
        heap = np.empty(k, dtype=np.int64)
        _LIB.list_schedule(
            jobs.ctypes.data, jobs.shape[0], k, heap.ctypes.data,
            loads.ctypes.data, parts.ctypes.data,
        )
        return parts, loads

    # ------------------------------------------------------------------
    # Phase 2 and the HDRF baseline: one call per chunk
    # ------------------------------------------------------------------
    @staticmethod
    def _run_loop(stream, ctx, fn, args, out, diagnose) -> None:
        """Call ``fn(edges, c, *args, assignments + idx, out)`` per chunk.

        The arrays ``args`` point into must outlive the pass (the callers
        hold them); ``diagnose(edge, pos)`` builds the error for a miss.
        """
        assignments = _output(ctx.assignments, np.int32, "assignments")
        base = assignments.ctypes.data
        idx = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            if idx + c > assignments.shape[0]:
                raise PartitioningError(
                    f"the stream holds more edges than the "
                    f"{assignments.shape[0]} assignment slots"
                )
            if c:
                edges = _ints(chunk)
                miss = fn(
                    edges.ctypes.data, c, *args,
                    base + assignments.itemsize * idx, out.ctypes.data,
                )
                if miss >= 0:
                    raise diagnose(edges[miss], idx + miss)
            idx += c

    def _run_phase2(self, stream, ctx, fn, extra):
        """One Phase-2 pass: ``part``, ``weights`` and the state every
        Phase-2 loop reads, then ``extra`` loop arguments; returns the
        loop's counters."""
        k = ctx.k
        rows, plane = _plane(ctx.state, k)
        n = len(ctx.weights)
        weights = _input(ctx.weights, np.int64, (n, 2), "weights")
        part = _input(ctx.part, np.int32, (n,), "part")
        n_vert = min(n, rows)
        sizes = _sizes(ctx.state, k)
        out = np.zeros(2, dtype=np.int64)
        args = (
            part.ctypes.data, weights.ctypes.data, n_vert, *plane,
            sizes.ctypes.data, k, int(ctx.state.capacity), *extra,
        )
        self._run_loop(
            stream, ctx, fn, args, out,
            lambda edge, pos: _index_error(edge, pos, n_vert, part, k),
        )
        ctx.cost.edges_streamed += stream.n_edges
        return out

    def prepartition_pass(self, stream, ctx) -> int:
        out = self._run_phase2(stream, ctx, _LIB.prepartition, (ctx.hash_seed,))
        ctx.cost.hash_evaluations += int(out[1])
        return int(out[0])

    def remaining_pass_linear(self, stream, ctx) -> None:
        out = self._run_phase2(stream, ctx, _LIB.remaining_linear, (ctx.hash_seed,))
        ctx.cost.score_evaluations += int(out[0])
        ctx.cost.hash_evaluations += int(out[1])

    def remaining_pass_hdrf(self, stream, ctx) -> None:
        from repro.core.scoring import HDRF_EPSILON

        scratch = np.empty(ctx.k, dtype=np.float64)
        out = self._run_phase2(
            stream, ctx, _LIB.remaining_hdrf,
            (float(ctx.hdrf_lambda), HDRF_EPSILON, scratch.ctypes.data),
        )
        ctx.cost.score_evaluations += ctx.k * int(out[0])

    def hdrf_baseline_pass(self, stream, ctx) -> np.ndarray:
        from repro.core.scoring import HDRF_EPSILON

        k = ctx.k
        rows, plane = _plane(ctx.state, k)
        sizes = _sizes(ctx.state, k)
        partial = np.zeros(int(ctx.state.n_vertices), dtype=np.int64)
        n_vert = min(partial.shape[0], rows)
        scratch = np.empty(k, dtype=np.float64)
        args = (
            partial.ctypes.data, n_vert, *plane, sizes.ctypes.data, k,
            int(ctx.state.capacity), float(ctx.hdrf_lambda), HDRF_EPSILON,
            scratch.ctypes.data,
        )
        self._run_loop(
            stream, ctx, _LIB.hdrf_baseline, args, np.zeros(1, dtype=np.int64),
            lambda edge, pos: _index_error(edge, pos, n_vert),
        )
        ctx.cost.score_evaluations += k * stream.n_edges
        ctx.cost.edges_streamed += stream.n_edges
        return partial
