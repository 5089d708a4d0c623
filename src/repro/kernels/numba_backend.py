"""The ``numba`` backend: JIT-compiled serial conflict kernels.

The ``numpy`` backend vectorizes everything that provably commutes with
serial order and falls back to per-edge Python for the rest.  That
serial share stays large: every 2PS-L remaining-pass block within reach
of the hard cap runs per edge, and Phase-1 clustering is the reference
list kernel.
This backend keeps the numpy *chunk orchestration* — streaming, gathers,
the embarrassingly-batchable degree / pre-partition / stateless passes
are inherited unchanged — and replaces exactly those serial conflict
loops with ``numba.njit``-compiled per-edge kernels:

- the Phase-1 clustering bodies (Algorithm 1 with true degrees and the
  Hollocou partial-degree ablation), run serially over every chunk on
  array state (an :class:`~repro.kernels.base.Int64Buffer` of cluster
  volumes) — the compiled loop needs no conflict detection at all
  because it *is* the serial order;
- the 2PS-L remaining scoring loop, including the splitmix64 hash /
  least-loaded fallback chain;
- the 2PS-HDRF remaining pass as a compiled k-way argmax per edge (the
  role the category-collapsed ``_HdrfScalarEngine`` plays for the numpy
  backend).

Bit-exactness (the backend contract of :mod:`repro.kernels`) holds
because every kernel below is a line-for-line transliteration of the
``python`` reference bodies: the same float expressions in the same
association order, the same integer comparisons against the hard cap,
the same first-index tie-breaks.  All inputs stay far below 2**53, so
int64 -> float64 promotions are exact, and the kernels are compiled with
``fastmath=False`` so IEEE semantics are preserved.

Optional dependency
-------------------
``numba`` is *optional*.  Detection is lazy and memoized
(:func:`numba_available` probes via ``find_spec`` without importing, so
processes that never touch this backend never pay the numba/llvmlite
startup cost; :func:`load_numba` performs the real import on first
kernel-table build); when numba is absent the backend is reported to the
registry as *missing* and :func:`repro.kernels.get_backend` falls back
to the ``numpy`` backend with a one-time warning.  The kernels
themselves are plain nopython-style Python functions, so a
:class:`NumbaBackend` constructed *directly* still runs them interpreted
— slowly, but bit-exactly.  The equivalence tests use exactly that mode
(``tests/test_numba_backend.py``) to pin the kernel logic on hosts
without numba; with numba installed the same tests exercise the jitted
code paths.

Compilation happens once per process, on first kernel use
(:func:`_kernel_table` memoizes the jitted dispatchers), with
``cache=True`` so repeated processes — e.g. the ``ProcessRunner`` pool
workers, which resolve the backend by name from a picklable payload —
reuse the on-disk compilation cache instead of recompiling.  Backend
instances carry no state and pickle trivially.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import ClusteringState, Int64Buffer
from repro.kernels.numpy_backend import NumpyBackend

#: splitmix64 constants, imported from the one definition site so the
#: inlined hash chain in ``_remaining_linear_kernel`` can never drift
#: from the reference ``hashutil.splitmix64``.  Module-level
#: ``np.uint64`` scalars keep the jitted kernels in pure uint64
#: arithmetic (mixed signed/unsigned would promote to float64).
from repro.partitioning.hashutil import _C1, _C2, _GOLDEN

_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

_UNSET = object()
#: Memoized probe result (``None`` = not probed yet).
_AVAILABLE: bool | None = None
#: Memoized import result (module or ``None``); only the kernel-table
#: build forces the real import.
_NUMBA = _UNSET
_NUMBA_REASON: str | None = None


def numba_available() -> bool:
    """True when the optional numba dependency is present.

    Probes with ``importlib.util.find_spec`` — no import — so the
    registry's import-time detection never pays the numba/llvmlite
    startup cost in processes that only ever use the other backends;
    the real import is deferred to the first kernel-table build.
    Memoized; tests force the absence path by resetting ``_AVAILABLE``
    / ``_NUMBA`` while the import machinery is monkeypatched to fail
    (``sys.modules["numba"] = None`` defeats the probe and the import
    alike).
    """
    global _AVAILABLE, _NUMBA_REASON
    if _NUMBA is not _UNSET:
        return _NUMBA is not None  # a real import already settled it
    if _AVAILABLE is None:
        import importlib.util

        try:
            spec = importlib.util.find_spec("numba")
        except (ImportError, ValueError) as exc:
            spec = None
            _NUMBA_REASON = (
                f"the numba probe failed: {type(exc).__name__}: {exc}"
            )
        else:
            if spec is None:
                _NUMBA_REASON = "numba is not installed"
        _AVAILABLE = spec is not None
        if _AVAILABLE:
            _NUMBA_REASON = None
    return _AVAILABLE


def load_numba():
    """Import numba once (memoized); returns the module or ``None``.

    Called only when a kernel table is actually built.  A probe-positive
    host whose import nonetheless fails (broken install) degrades to the
    interpreted kernels — still bit-exact, just slow — and records the
    reason.
    """
    global _NUMBA, _NUMBA_REASON, _AVAILABLE
    if _NUMBA is _UNSET:
        if not numba_available():
            _NUMBA = None
        else:
            try:
                import numba
            except Exception as exc:  # noqa: BLE001 - any import failure
                _NUMBA = None
                _AVAILABLE = False
                _NUMBA_REASON = (
                    f"the numba import failed: {type(exc).__name__}: {exc}"
                )
            else:
                _NUMBA = numba
                _NUMBA_REASON = None
    return _NUMBA


def unavailable_reason() -> str | None:
    """Why numba is unavailable (``None`` when it is present)."""
    numba_available()
    return _NUMBA_REASON


# ----------------------------------------------------------------------
# kernel bodies: nopython-style transliterations of the reference loops.
# Written against numpy arrays only (no Python containers, no closures)
# so one source serves both the jitted and the interpreted mode.
# ----------------------------------------------------------------------
def _cluster_true_kernel(us, vs, v2c, vol, n_vol, deg, cap):
    """Algorithm-1 body with known true degrees over one chunk.

    ``vol`` is the pre-reserved cluster-volume buffer filled up to
    ``n_vol``; returns ``(updates, new_n_vol)``.
    """
    updates = 0
    for i in range(us.shape[0]):
        u = us[i]
        v = vs[i]
        cu = v2c[u]
        if cu < 0:
            cu = n_vol
            v2c[u] = cu
            vol[n_vol] = deg[u]
            n_vol += 1
            updates += 1
        cv = v2c[v]
        if cv < 0:
            cv = n_vol
            v2c[v] = cv
            vol[n_vol] = deg[v]
            n_vol += 1
            updates += 1
        if cu == cv:
            continue
        vol_u = vol[cu]
        vol_v = vol[cv]
        if vol_u <= cap and vol_v <= cap:
            # v_s: endpoint whose cluster (without it) is smaller.
            if vol_u - deg[u] <= vol_v - deg[v]:
                vs_ = u
                cs = cu
                cl = cv
                ds = deg[u]
            else:
                vs_ = v
                cs = cv
                cl = cu
                ds = deg[v]
            if vol[cl] + ds <= cap:
                vol[cl] += ds
                vol[cs] -= ds
                v2c[vs_] = cl
                updates += 1
    return updates, n_vol


def _cluster_partial_kernel(us, vs, v2c, vol, n_vol, deg, cap):
    """Hollocou body (degrees counted on the fly) over one chunk."""
    updates = 0
    for i in range(us.shape[0]):
        u = us[i]
        v = vs[i]
        deg[u] += 1
        deg[v] += 1
        cu = v2c[u]
        if cu < 0:
            cu = n_vol
            v2c[u] = cu
            vol[n_vol] = 0
            n_vol += 1
        cv = v2c[v]
        if cv < 0:
            cv = n_vol
            v2c[v] = cv
            vol[n_vol] = 0
            n_vol += 1
        vol[cu] += 1
        vol[cv] += 1
        if cu == cv:
            continue
        vol_u = vol[cu]
        vol_v = vol[cv]
        if vol_u <= cap and vol_v <= cap:
            if vol_u - deg[u] <= vol_v - deg[v]:
                vs_ = u
                cs = cu
                cl = cv
                ds = deg[u]
            else:
                vs_ = v
                cs = cv
                cl = cu
                ds = deg[v]
            if vol[cl] + ds <= cap:
                vol[cl] += ds
                vol[cs] -= ds
                v2c[vs_] = cl
                updates += 1
    return updates, n_vol


def _remaining_linear_kernel(
    us, vs, v2c, c2p, volumes, degrees, replicas, sizes, capacity, k, seed,
    assignments,
):
    """2PS-L remaining (scoring) pass over one chunk; returns
    ``(scored_edges * 2, hash_evaluations)``.

    The fallback chain is the splitmix64 hash on the higher-degree
    endpoint, then the lowest-indexed least-loaded partition — the exact
    twin of ``PythonBackend._fallback_partition``.
    """
    n_scored = 0
    n_hash = 0
    for i in range(us.shape[0]):
        u = us[i]
        v = vs[i]
        c1 = v2c[u]
        c2 = v2c[v]
        p1 = c2p[c1]
        p2 = c2p[c2]
        if c1 == c2 or p1 == p2:
            continue  # pre-partitioned in the previous pass
        du = degrees[u]
        dv = degrees[v]
        dsum = du + dv
        vol1 = volumes[c1]
        vol2 = volumes[c2]
        vsum = vol1 + vol2
        # Score candidate p1: c1 is mapped to p1 (and c2 is not); the
        # same association order as the reference: ratio, +u, +v.
        if vsum != 0:
            s1 = vol1 / vsum
            s2 = vol2 / vsum
        else:
            s1 = 0.0
            s2 = 0.0
        if replicas[u, p1]:
            s1 += 2.0 - du / dsum
        if replicas[v, p1]:
            s1 += 2.0 - dv / dsum
        if replicas[u, p2]:
            s2 += 2.0 - du / dsum
        if replicas[v, p2]:
            s2 += 2.0 - dv / dsum
        n_scored += 2
        p = p1 if s1 >= s2 else p2
        if sizes[p] >= capacity:
            hv = u if du >= dv else v
            x = np.uint64(hv) + _GOLDEN + np.uint64(seed)
            x = (x ^ (x >> _S30)) * _C1
            x = (x ^ (x >> _S27)) * _C2
            x = x ^ (x >> _S31)
            p = np.int64(x % np.uint64(k))
            n_hash += 1
            if sizes[p] >= capacity:
                best = 0
                for q in range(1, k):
                    if sizes[q] < sizes[best]:
                        best = q
                p = best
        sizes[p] += 1
        replicas[u, p] = True
        replicas[v, p] = True
        assignments[i] = p
    return n_scored, n_hash


def _remaining_hdrf_kernel(
    us, vs, v2c, c2p, degrees, replicas, sizes, capacity, k, lam, eps,
    assignments,
):
    """2PS-HDRF remaining pass over one chunk; returns the edges scored.

    A compiled k-way argmax per edge with the exact float expressions of
    ``PythonBackend.hdrf_choose`` (replication term added before the
    balance term, partitions at the hard cap masked to ``-inf``,
    first-index tie-break as ``np.argmax``).
    """
    n_rem = 0
    for i in range(us.shape[0]):
        u = us[i]
        v = vs[i]
        c1 = v2c[u]
        c2 = v2c[v]
        if c1 == c2 or c2p[c1] == c2p[c2]:
            continue
        du = degrees[u]
        dv = degrees[v]
        theta_u = du / (du + dv)
        tu = 2.0 - theta_u
        tv = 1.0 + theta_u
        maxs = sizes[0]
        mins = sizes[0]
        for q in range(1, k):
            s = sizes[q]
            if s > maxs:
                maxs = s
            if s < mins:
                mins = s
        max_f = float(maxs)
        denom = (eps + max_f) - float(mins)
        best_p = 0
        best_s = -np.inf
        for q in range(k):
            if sizes[q] >= capacity:
                score = -np.inf
            else:
                rep = 0.0
                if replicas[u, q]:
                    rep += tu
                if replicas[v, q]:
                    rep += tv
                score = rep + (lam * (max_f - float(sizes[q]))) / denom
            if q == 0 or score > best_s:
                best_p = q
                best_s = score
        n_rem += 1
        sizes[best_p] += 1
        replicas[u, best_p] = True
        replicas[v, best_p] = True
        assignments[i] = best_p
    return n_rem


def _hdrf_baseline_kernel(
    us, vs, partial, replicas, sizes, capacity, k, lam, eps, assignments
):
    """Classic HDRF baseline over one chunk (CIKM'15).

    The ``remaining_hdrf`` argmax with two differences that make it the
    baseline: partial degrees are bumped before each edge is scored
    (``theta`` uses the running counters, not frozen true degrees), and
    every edge participates — there is no pre-partitioning filter.
    """
    for i in range(us.shape[0]):
        u = us[i]
        v = vs[i]
        partial[u] += 1
        partial[v] += 1
        du = partial[u]
        dv = partial[v]
        theta_u = du / (du + dv)
        tu = 2.0 - theta_u
        tv = 1.0 + theta_u
        maxs = sizes[0]
        mins = sizes[0]
        for q in range(1, k):
            s = sizes[q]
            if s > maxs:
                maxs = s
            if s < mins:
                mins = s
        max_f = float(maxs)
        denom = (eps + max_f) - float(mins)
        best_p = 0
        best_s = -np.inf
        for q in range(k):
            if sizes[q] >= capacity:
                score = -np.inf
            else:
                rep = 0.0
                if replicas[u, q]:
                    rep += tu
                if replicas[v, q]:
                    rep += tv
                score = rep + (lam * (max_f - float(sizes[q]))) / denom
            if q == 0 or score > best_s:
                best_p = q
                best_s = score
        sizes[best_p] += 1
        replicas[u, best_p] = True
        replicas[v, best_p] = True
        assignments[i] = best_p
    return 0


_KERNEL_BODIES = {
    "cluster_true": _cluster_true_kernel,
    "cluster_partial": _cluster_partial_kernel,
    "remaining_linear": _remaining_linear_kernel,
    "remaining_hdrf": _remaining_hdrf_kernel,
    "hdrf_baseline": _hdrf_baseline_kernel,
}

_KERNELS: dict | None = None
_KERNELS_SOURCE = _UNSET


def _kernel_table() -> dict:
    """The kernel dispatch table, jitted when numba is importable.

    Memoized per process: with numba this is the compile-once-per-process
    point (``cache=True`` additionally persists the compilation to disk,
    so pool workers and repeated runs skip even that); without numba the
    plain interpreted bodies are returned — the documented slow-but-exact
    mode the equivalence tests rely on.  The memo is keyed on the
    *detection result*, so when re-detection flips the numba state (the
    monkeypatched-absence tests) the table rebuilds instead of serving
    kernels from the stale mode.
    """
    global _KERNELS, _KERNELS_SOURCE
    numba = load_numba()
    if _KERNELS is None or _KERNELS_SOURCE is not numba:
        if numba is None:
            _KERNELS = dict(_KERNEL_BODIES)
        else:
            _KERNELS = {
                name: numba.njit(cache=True, fastmath=False)(body)
                for name, body in _KERNEL_BODIES.items()
            }
        _KERNELS_SOURCE = numba
    return _KERNELS


class NumbaBackend(NumpyBackend):
    """Compiled serial conflict kernels (see the module docstring).

    Inherits the numpy chunk orchestration for every embarrassingly-
    batchable pass (degrees, pre-partitioning, stateless hashing) and
    the Phase-1 barrier merge ops; overrides only the serial-dominated
    stateful passes with per-edge compiled loops, which is why its
    Phase-1 state is held in arrays rather than the reference lists.
    """

    name = "numba"

    # ------------------------------------------------------------------
    # Phase 1: streaming clustering (array state, serial compiled loop)
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

    def _clustering_pass(self, stream, st, cap, cost, kernel_name) -> None:
        kernel = _kernel_table()[kernel_name]
        cap = float(cap)
        updates = 0
        edges = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            edges += c
            if c == 0:
                continue
            buf = st.vol
            # Every edge opens at most two fresh clusters, so reserving
            # 2 * c slots makes the in-kernel appends bounds-safe.
            vol_arr = buf.reserve(len(buf) + 2 * c)
            upd, n_vol = kernel(
                np.ascontiguousarray(chunk[:, 0]),
                np.ascontiguousarray(chunk[:, 1]),
                st.v2c,
                vol_arr,
                len(buf),
                st.deg,
                cap,
            )
            buf.set_length(int(n_vol))
            updates += int(upd)
        if cost is not None:
            cost.cluster_updates += updates
            cost.edges_streamed += edges

    def clustering_true_pass(self, stream, st, cap, cost) -> None:
        self._clustering_pass(stream, st, cap, cost, "cluster_true")

    def clustering_partial_pass(self, stream, st, cap, cost) -> None:
        self._clustering_pass(stream, st, cap, cost, "cluster_partial")

    # ------------------------------------------------------------------
    # Phase 2: remaining passes (compiled per-edge decision loops)
    # ------------------------------------------------------------------
    def remaining_pass_linear(self, stream, ctx) -> None:
        if not isinstance(ctx.state.replicas, np.ndarray):
            # Bit-packed replica state: the jitted per-edge loop addresses
            # a dense bool matrix; the inherited numpy pass speaks the
            # packed indexing protocol and is bit-exact by contract.
            return super().remaining_pass_linear(stream, ctx)
        kernel = _kernel_table()["remaining_linear"]
        replicas = ctx.state.replicas
        sizes = ctx.state.sizes
        capacity = int(ctx.state.capacity)
        idx = 0
        n_scored = 0
        n_hash = 0
        # The uint64 hash wraps by design; in interpreted mode numpy
        # scalar overflow would warn (jitted code wraps silently).
        with np.errstate(over="ignore"):
            for chunk in stream.chunks():
                c = chunk.shape[0]
                if c:
                    ns, nh = kernel(
                        np.ascontiguousarray(chunk[:, 0]),
                        np.ascontiguousarray(chunk[:, 1]),
                        ctx.v2c,
                        ctx.c2p,
                        ctx.volumes,
                        ctx.degrees,
                        replicas,
                        sizes,
                        capacity,
                        ctx.k,
                        ctx.hash_seed,
                        ctx.assignments[idx : idx + c],
                    )
                    n_scored += int(ns)
                    n_hash += int(nh)
                idx += c
        ctx.cost.score_evaluations += n_scored
        ctx.cost.hash_evaluations += n_hash
        ctx.cost.edges_streamed += stream.n_edges

    def remaining_pass_hdrf(self, stream, ctx) -> None:
        if not isinstance(ctx.state.replicas, np.ndarray):
            # Same packed-state fallback as remaining_pass_linear.
            return super().remaining_pass_hdrf(stream, ctx)
        from repro.core.scoring import HDRF_EPSILON

        kernel = _kernel_table()["remaining_hdrf"]
        replicas = ctx.state.replicas
        sizes = ctx.state.sizes
        capacity = int(ctx.state.capacity)
        lam = float(ctx.hdrf_lambda)
        idx = 0
        n_rem = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            if c:
                n_rem += int(
                    kernel(
                        np.ascontiguousarray(chunk[:, 0]),
                        np.ascontiguousarray(chunk[:, 1]),
                        ctx.v2c,
                        ctx.c2p,
                        ctx.degrees,
                        replicas,
                        sizes,
                        capacity,
                        ctx.k,
                        lam,
                        HDRF_EPSILON,
                        ctx.assignments[idx : idx + c],
                    )
                )
            idx += c
        ctx.cost.score_evaluations += ctx.k * n_rem
        ctx.cost.edges_streamed += stream.n_edges

    # ------------------------------------------------------------------
    # Classic streaming baselines (compiled per-edge argmax loop)
    # ------------------------------------------------------------------
    def hdrf_baseline_pass(self, stream, ctx) -> np.ndarray:
        if not isinstance(ctx.state.replicas, np.ndarray):
            # Same packed-state fallback as the remaining passes.
            return super().hdrf_baseline_pass(stream, ctx)
        from repro.core.scoring import HDRF_EPSILON

        kernel = _kernel_table()["hdrf_baseline"]
        partial = np.zeros(int(ctx.state.n_vertices), dtype=np.int64)
        replicas = ctx.state.replicas
        sizes = ctx.state.sizes
        capacity = int(ctx.state.capacity)
        lam = float(ctx.hdrf_lambda)
        idx = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            if c:
                kernel(
                    np.ascontiguousarray(chunk[:, 0]),
                    np.ascontiguousarray(chunk[:, 1]),
                    partial,
                    replicas,
                    sizes,
                    capacity,
                    ctx.k,
                    lam,
                    HDRF_EPSILON,
                    ctx.assignments[idx : idx + c],
                )
            idx += c
        ctx.cost.score_evaluations += ctx.k * stream.n_edges
        ctx.cost.edges_streamed += stream.n_edges
        return partial

