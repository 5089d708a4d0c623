"""The ``c`` backend: the stateful per-edge loops, compiled from C.

``_ckernels.c`` holds the per-edge loop of every stateful pass: both
Phase-1 clustering bodies, the pre-partition pass with its hash /
least-loaded fallback, the 2PS-L and 2PS-HDRF remaining passes, and the
classic HDRF baseline.  :class:`CBackend` makes one foreign call per
stream chunk; the loop itself skips the edges a pass does not own (the
pre-partitioned ones), so nothing is sub-batched in numpy.  The degree
pass, the stateless passes and the Phase-1 merge ops are the inherited
numpy versions.

Bit-exactness with the ``python`` reference is argued in the C source:
the same double expressions in the same association order, exact
int64-to-double conversions, no fused multiply-add, first-index
tie-breaks.  Both HDRF loops score all k partitions, so unlike numpy's
scalar engine they have no balance-weight range outside which they hand
over to the reference.

Memory safety.  The loops check every index they derive from the input
(endpoint ids, cluster ids read from ``v2c``, partitions read from
``c2p``) against the length of the array it indexes; on a miss they stop
and report the edge, which :class:`CBackend` raises as
:class:`~repro.errors.StreamError`.  The arrays a loop writes are checked
once per pass (dtype, C-contiguity, writability) and never copied, so a
write can never land in a silent copy.

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
from repro.kernels.base import ClusteringState, Int64Buffer, check_vertex_ids
from repro.kernels.numpy_backend import NumpyBackend
from repro.partitioning.state import _replica_storage

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
    "cluster_pass": (_P, _I, _I, _P, _P, _I, _P, _I, _D, _P),
    "prepartition": (
        _P, _I, _P, _P, _I, _P, _I, *_PLANE, _P, _I, _I, ctypes.c_uint64,
        _P, _P,
    ),
    "remaining_linear": (
        _P, _I, _P, _P, _I, _P, _P, _I, *_PLANE, _P, _I, _I,
        ctypes.c_uint64, _P, _P,
    ),
    "remaining_hdrf": (
        _P, _I, _P, _P, _I, _P, _I, *_PLANE, _P, _I, _I, _D, _D, _P, _P, _P,
    ),
    "hdrf_baseline": (_P, _I, _P, _I, *_PLANE, _P, _I, _I, _D, _D, _P, _P, _P),
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


def _plane(state, k: int) -> tuple[int, tuple]:
    """``(rows, (address, row_bytes, shift, low_mask))`` of the replica
    plane; see ``numpy_backend._replica_plane``."""
    raw = _replica_storage(state.replicas)
    packed = raw is not state.replicas
    _output(raw, np.uint8 if packed else np.bool_, "the replica plane")
    row_bytes = (k + 7) // 8 if packed else k
    if raw.ndim != 2 or raw.shape[1] != row_bytes:
        raise PartitioningError(
            f"replica plane of shape {raw.shape} does not hold k={k} columns"
        )
    shift, low_mask = (3, 7) if packed else (0, 0)
    return raw.shape[0], (raw.ctypes.data, row_bytes, shift, low_mask)


def _sizes(state, k: int) -> np.ndarray:
    sizes = _output(state.sizes, np.int64, "partition sizes")
    if sizes.shape[0] != k:
        raise PartitioningError(f"{sizes.shape[0]} partition sizes for k={k}")
    return sizes


def _index_error(edge, pos, n_vert, v2c=None, n_clusters=0, c2p=None, k=0):
    """The typed error for a loop's miss on ``edge`` (stream position
    ``pos``): an endpoint id, a cluster id in ``v2c`` or a partition in
    ``c2p`` outside the array it indexes."""
    check_vertex_ids(edge.reshape(1, 2), n_vert, pos)
    if v2c is not None:
        for x in edge.tolist():
            c = int(v2c[x])
            if not 0 <= c < n_clusters:
                return StreamError(
                    f"edge {pos}: vertex {x} is in cluster {c}, outside "
                    f"the {n_clusters} clusters of the pass state"
                )
            if not 0 <= int(c2p[c]) < k:
                return StreamError(
                    f"edge {pos}: cluster {c} maps to partition "
                    f"{int(c2p[c])}, outside [0, {k})"
                )
    return StreamError(f"edge {pos} indexes outside the pass state")


class CBackend(NumpyBackend):
    """Compiled per-edge loops (see the module docstring).

    Phase-1 state is held in arrays (an int64 ``v2c``, an
    :class:`~repro.kernels.base.Int64Buffer` of volumes, int64 degrees),
    which the compiled loop writes in place.
    """

    name = "c"

    # ------------------------------------------------------------------
    # Phase 1: streaming clustering
    # ------------------------------------------------------------------
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

    def _run_phase2(self, stream, ctx, fn, extra, volumes=None):
        """One Phase-2 pass: the arrays every Phase-2 loop reads, then
        ``extra`` loop arguments; returns the loop's counters."""
        k = ctx.k
        rows, plane = _plane(ctx.state, k)
        v2c = _ints(ctx.v2c)
        deg = _ints(ctx.degrees)
        c2p = _ints(ctx.c2p)
        n_vert = min(v2c.shape[0], deg.shape[0], rows)
        n_clusters = c2p.shape[0]
        cluster_arrays = (c2p.ctypes.data,)
        if volumes is not None:
            volumes = _ints(volumes)
            n_clusters = min(n_clusters, volumes.shape[0])
            cluster_arrays += (volumes.ctypes.data,)
        sizes = _sizes(ctx.state, k)
        out = np.zeros(2, dtype=np.int64)
        args = (
            v2c.ctypes.data, deg.ctypes.data, n_vert, *cluster_arrays,
            n_clusters, *plane, sizes.ctypes.data, k,
            int(ctx.state.capacity), *extra,
        )
        self._run_loop(
            stream, ctx, fn, args, out,
            lambda edge, pos: _index_error(
                edge, pos, n_vert, v2c, n_clusters, c2p, k
            ),
        )
        ctx.cost.edges_streamed += stream.n_edges
        return out

    def prepartition_pass(self, stream, ctx) -> int:
        out = self._run_phase2(stream, ctx, _LIB.prepartition, (ctx.hash_seed,))
        ctx.cost.hash_evaluations += int(out[1])
        return int(out[0])

    def remaining_pass_linear(self, stream, ctx) -> None:
        out = self._run_phase2(
            stream, ctx, _LIB.remaining_linear, (ctx.hash_seed,), ctx.volumes
        )
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
