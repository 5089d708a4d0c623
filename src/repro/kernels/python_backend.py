"""The ``python`` reference backend: the paper's pseudocode, per edge
where order matters.

This backend is the semantic ground truth.  Every pass in which an
edge's outcome depends on earlier edges (both Phase-1 clustering
bodies, the pre-partition pass, the 2PS-L and 2PS-HDRF remaining passes
and the HDRF baseline) follows the paper's pseudocode edge by edge, with
hot-loop state held in plain Python lists (scalar indexing on lists is
several times faster than on numpy arrays).  The passes that write
replica state test and set replica bits through a byte view of the raw
storage plane (:func:`~repro.partitioning.state._replica_plane`), so
they run on bit-packed state without indexing the wrapper; on a sharded
run the three Phase-2 passes log every bit they set that was clear
(``ctx.log``, see :class:`~repro.kernels.base.ReplicaLog`), and the
clustering pass every ``v2c`` write (a
:class:`~repro.kernels.base.MoveLog`).  The ops in which no edge's
outcome depends on another's (the degree pass, the stateless pass and
the two Phase-1 merges) are vectorized per chunk or per barrier; the
``per-edge`` test backend (``tests/per_edge.py``) runs each as its
per-edge loop, and ``tests/test_kernels.py`` pins one against the
other.  The Phase-2 barrier op, which sets logged bits, is vectorized
too; the clustering refresh walks its moves over the list state.
``c`` is property-tested for bit-exact equivalence against this backend
and inherits its stateless pass and degree merge — keep this code
boring and obviously correct.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.kernels.base import (
    ClusteringState,
    KernelBackend,
    TwoPhaseContext,
    check_clustering_moves,
    check_refresh,
    check_vertex_ids,
    log_cells,
    log_entry_error,
    partition_error,
    refresh_entry_error,
)
from repro.partitioning.hashutil import splitmix64_int
from repro.partitioning.state import LeastLoadedTracker, _replica_plane


def _log_clear(plane, log, u, v, p, b, m, row_bytes, k) -> None:
    """Log (see :class:`~repro.kernels.base.ReplicaLog`) the cell
    ``x * k + p`` of bit ``p`` (mask ``m`` of row byte ``b``) of ``u``,
    then ``v``, where it is clear: before a pass sets them, if logging."""
    if not plane[u * row_bytes + b] & m:
        log.append(u * k + p)
    if v != u and not plane[v * row_bytes + b] & m:
        log.append(v * k + p)


class PythonBackend(KernelBackend):
    """Per-edge reference kernels (see module docstring)."""

    name = "python"

    # ------------------------------------------------------------------
    # stateless passes
    # ------------------------------------------------------------------
    def degree_pass(self, stream, n_hint: int | None = None) -> np.ndarray:
        deg = np.zeros(int(n_hint) if n_hint else 0, dtype=np.int64)
        for chunk in stream.chunks():
            if chunk.size == 0:
                continue
            ids = chunk.ravel()
            top = int(ids.max())
            if top >= deg.shape[0]:
                grown = np.zeros(top + 1, dtype=np.int64)
                grown[: deg.shape[0]] = deg
                deg = grown
            # O(chunk), where a per-chunk bincount would add |V| counters.
            np.add.at(deg, ids, 1)
        return deg

    def stateless_pass(self, stream, map_chunk, state, assignments) -> None:
        idx = 0
        for chunk in stream.chunks():
            # The state is sized up front, and DBH's map_chunk indexes
            # degrees of that size.
            check_vertex_ids(chunk, state.n_vertices, idx)
            u = chunk[:, 0]
            v = chunk[:, 1]
            parts = map_chunk(u, v)
            state.scatter_edges(u, v, parts)
            assignments[idx : idx + chunk.shape[0]] = parts
            idx += chunk.shape[0]

    # ------------------------------------------------------------------
    # Phase 1: streaming clustering
    # ------------------------------------------------------------------
    def clustering_init(self, degrees: np.ndarray) -> ClusteringState:
        return ClusteringState(
            v2c=[-1] * len(degrees), vol=[], deg=degrees.tolist()
        )

    def clustering_export(self, st: ClusteringState):
        return (
            np.asarray(st.v2c, dtype=np.int64),
            np.asarray(st.vol, dtype=np.int64),
            np.asarray(st.deg, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Phase-1 barrier merges (reference twins; see base-class docs)
    # ------------------------------------------------------------------
    def merge_phase1_degrees(self, partials, n_hint=None) -> np.ndarray:
        length = int(n_hint) if n_hint else 0
        for partial in partials:
            length = max(length, int(len(partial)))
        out = np.zeros(length, dtype=np.int64)
        for partial in partials:
            out[: len(partial)] += np.asarray(partial, dtype=np.int64)
        return out

    def merge_phase1_clustering(self, v2c, volumes, exports, degrees):
        base = len(volumes)
        degrees = np.asarray(degrees, dtype=np.int64)
        exports = check_clustering_moves(v2c, base, exports, degrees)
        vertices, ids = [], []
        n_ids = base
        for moves, fresh in exports:
            vertices.append(moves[:, 0])
            c = moves[:, 1]
            ids.append(np.where(c >= base, c + (n_ids - base), c))
            n_ids += fresh
        x = np.concatenate([np.zeros(0, np.int64), *vertices])
        g = np.concatenate([np.zeros(0, np.int64), *ids])
        # First occurrence in worker order wins; each export names a
        # vertex once.
        won = np.zeros(x.shape[0], dtype=bool)
        won[np.unique(x, return_index=True)[1]] = True
        xa, ga = x[won], g[won]
        deg = degrees[xa]
        old = v2c[xa]
        vol = volumes.reserve(n_ids)
        vol[base:n_ids] = 0
        np.subtract.at(vol, old[old >= 0], deg[old >= 0])
        np.add.at(vol, ga[ga >= 0], deg[ga >= 0])
        v2c[xa] = ga
        volumes.set_length(n_ids)
        ends = np.cumsum([0] + [len(moves) for moves, _ in exports]).tolist()
        return [
            np.stack((x[a:b][won[a:b]], g[a:b][won[a:b]]), axis=1)
            for a, b in zip(ends[:-1], ends[1:])
        ]

    def refresh_clustering(self, st, own, base, offset, n_ids, others) -> None:
        v2c, vol, deg = st.v2c, st.vol, st.deg
        n, n_local = len(v2c), len(vol)
        own, others = check_refresh(n_local, own, base, offset, n_ids, others)
        entries = own.tolist() + others.tolist()
        for j, (x, c) in enumerate(entries):
            limit = n_local if j < own.shape[0] else n_ids
            if not (0 <= x < n and -1 <= c < limit and -1 <= v2c[x] < n_local):
                raise refresh_entry_error(
                    j, own, others, n, n_local, n_ids, v2c.__getitem__
                )
        fresh = vol[base:]
        del vol[base:]
        vol.extend([0] * (n_ids - base))
        vol[base + offset : base + offset + len(fresh)] = fresh
        if offset:
            for x, c in entries[: own.shape[0]]:
                if c >= base:
                    v2c[x] = c + offset
        for x, g in entries[own.shape[0] :]:
            c = v2c[x]
            if c >= 0:
                vol[c] -= deg[x]
            if g >= 0:
                vol[g] += deg[x]
            v2c[x] = g

    # ------------------------------------------------------------------
    # Phase-2 barrier and the cluster mapping (reference twins)
    # ------------------------------------------------------------------
    def apply_replica_log(self, state, logs) -> None:
        cells = log_cells(logs)
        k = state.k
        raw, _, shift, low_mask = _replica_plane(state.replicas)
        outside = (cells < 0) | (cells >= raw.shape[0] * k)
        if outside.any():
            raise log_entry_error(int(cells[outside][0]), raw.shape[0], k)
        rows, cols = np.divmod(cells, k)
        masks = np.left_shift(1, cols & low_mask).astype(np.uint8)
        # Unbuffered, so two cells in one byte both land; a dense bool
        # plane takes mask 1 as True.
        np.bitwise_or.at(raw.view(np.uint8), (rows, cols >> shift), masks)

    def list_schedule(self, jobs, k):
        heap = [(0, p) for p in range(k)]
        parts = []
        for job in np.asarray(jobs, dtype=np.int64).tolist():
            load, p = heap[0]
            heapq.heapreplace(heap, (load + job, p))
            parts.append(p)
        loads = np.zeros(k, dtype=np.int64)
        for load, p in heap:
            loads[p] = load
        return np.asarray(parts, dtype=np.int64), loads

    @staticmethod
    def true_degree_edges(v2c, vol, deg, pairs, cap, writes=None) -> int:
        """Reference Algorithm-1 body over ``(u, v)`` pairs on list state;
        returns the number of cluster updates.  ``writes``, a list, takes
        the ``(vertex, old, new)`` row of every ``v2c`` write."""
        updates = 0
        for u, v in pairs:
            cu = v2c[u]
            if cu < 0:
                cu = len(vol)
                v2c[u] = cu
                vol.append(deg[u])
                updates += 1
                if writes is not None:
                    writes.append((u, -1, cu))
            cv = v2c[v]
            if cv < 0:
                cv = len(vol)
                v2c[v] = cv
                vol.append(deg[v])
                updates += 1
                if writes is not None:
                    writes.append((v, -1, cv))
            if cu == cv:
                continue
            vol_u = vol[cu]
            vol_v = vol[cv]
            if vol_u <= cap and vol_v <= cap:
                # v_s: endpoint whose cluster (without it) is smaller.
                if vol_u - deg[u] <= vol_v - deg[v]:
                    vs, cs, cl, ds = u, cu, cv, deg[u]
                else:
                    vs, cs, cl, ds = v, cv, cu, deg[v]
                if vol[cl] + ds <= cap:
                    vol[cl] += ds
                    vol[cs] -= ds
                    v2c[vs] = cl
                    updates += 1
                    if writes is not None:
                        writes.append((vs, cs, cl))
        return updates

    @staticmethod
    def partial_degree_edges(v2c, vol, deg, pairs, cap) -> int:
        """Reference Hollocou body (degrees counted on the fly) over
        ``(u, v)`` pairs on list state; returns the update count.

        Volumes are maintained incrementally (+1 per endpoint occurrence),
        so a cluster's volume equals the sum of its members' *partial*
        degrees observed so far — exactly the quantity Hollocou's
        algorithm compares.
        """
        updates = 0
        for u, v in pairs:
            deg[u] += 1
            deg[v] += 1
            cu = v2c[u]
            if cu < 0:
                cu = len(vol)
                v2c[u] = cu
                vol.append(0)
            cv = v2c[v]
            if cv < 0:
                cv = len(vol)
                v2c[v] = cv
                vol.append(0)
            vol[cu] += 1
            vol[cv] += 1
            if cu == cv:
                continue
            vol_u = vol[cu]
            vol_v = vol[cv]
            if vol_u <= cap and vol_v <= cap:
                if vol_u - deg[u] <= vol_v - deg[v]:
                    vs, cs, cl, ds = u, cu, cv, deg[u]
                else:
                    vs, cs, cl, ds = v, cv, cu, deg[v]
                if vol[cl] + ds <= cap:
                    vol[cl] += ds
                    vol[cs] -= ds
                    v2c[vs] = cl
                    updates += 1
        return updates

    def _clustering_pass(self, body, stream, st, cap, cost, log=None) -> None:
        updates = 0
        edges = 0
        for chunk in stream.chunks():
            # The state is sized up front (from the degrees or n_vertices).
            check_vertex_ids(chunk, len(st.v2c), edges)
            edges += chunk.shape[0]
            if log is None:
                updates += body(st.v2c, st.vol, st.deg, chunk.tolist(), cap)
            else:
                writes = []
                updates += body(st.v2c, st.vol, st.deg, chunk.tolist(), cap, writes)
                log.extend(writes)
        if cost is not None:
            cost.cluster_updates += updates
            cost.edges_streamed += edges

    def clustering_true_pass(self, stream, st, cap, cost, log=None) -> None:
        self._clustering_pass(self.true_degree_edges, stream, st, cap, cost, log)

    def clustering_partial_pass(self, stream, st, cap, cost) -> None:
        self._clustering_pass(self.partial_degree_edges, stream, st, cap, cost)

    # ------------------------------------------------------------------
    # Phase 2: 2PS-L partitioning passes
    # ------------------------------------------------------------------
    @staticmethod
    def _fallback_partition(
        u, v, deg, sizes, capacity, k, hash_seed, cost, least_loaded
    ) -> int:
        """Hash on the higher-degree endpoint; least-loaded as last resort.

        The reference implementation of the order-sensitive fallback
        chain, which the pre-partition and 2PS-L remaining passes route
        through.  The compiled loops of
        ``_ckernels.c`` inline this chain (``fallback``; compiled code
        cannot call back into Python); any change here must be mirrored
        there in lockstep, and the cross-backend equivalence suite pins
        the pair.  ``least_loaded`` is a zero-argument callable
        (``LeastLoadedTracker.argmin``) returning the smallest-index
        minimum of the live sizes.
        """
        hv = u if deg[u] >= deg[v] else v
        p = splitmix64_int(hv, hash_seed) % k
        cost.hash_evaluations += 1
        if sizes[p] >= capacity:
            p = least_loaded()
        return p

    @staticmethod
    def _phase2_lists(ctx):
        """``(part, deg, vol, n_vert)``: the Phase-2 inputs as lists, and
        how many vertices the pass state holds."""
        part = ctx.part.tolist()
        deg = ctx.weights[:, 0].tolist()
        vol = ctx.weights[:, 1].tolist()
        return part, deg, vol, min(len(part), ctx.state.n_vertices)

    def prepartition_pass(self, stream, ctx: TwoPhaseContext) -> int:
        part, deg, _, n_vert = self._phase2_lists(ctx)
        raw, row_bytes, shift, low_mask = _replica_plane(ctx.state.replicas)
        capacity = ctx.state.capacity
        sizes = ctx.state.sizes.tolist()
        least_loaded = LeastLoadedTracker(sizes).argmin
        assignments = ctx.assignments
        k, cost, seed, log = ctx.k, ctx.cost, ctx.hash_seed, ctx.log
        idx = 0
        n_pre = 0
        with memoryview(raw).cast("B") as plane:
            for chunk in stream.chunks():
                check_vertex_ids(chunk, n_vert, idx)
                for u, v in chunk.tolist():
                    p = part[u]
                    if p == part[v]:
                        if not 0 <= p < k:
                            raise partition_error(idx, u, v, p, p, k)
                        if sizes[p] >= capacity:
                            p = self._fallback_partition(
                                u, v, deg, sizes, capacity, k, seed, cost,
                                least_loaded,
                            )
                        sizes[p] += 1
                        b = p >> shift
                        m = 1 << (p & low_mask)
                        if log is not None:
                            _log_clear(plane, log, u, v, p, b, m, row_bytes, k)
                        plane[u * row_bytes + b] |= m
                        plane[v * row_bytes + b] |= m
                        assignments[idx] = p
                        n_pre += 1
                    idx += 1
        ctx.state.sizes[:] = sizes
        cost.edges_streamed += stream.n_edges
        return n_pre

    def remaining_pass_linear(self, stream, ctx: TwoPhaseContext) -> None:
        part, deg, vol, n_vert = self._phase2_lists(ctx)
        raw, row_bytes, shift, low_mask = _replica_plane(ctx.state.replicas)
        capacity = ctx.state.capacity
        sizes = ctx.state.sizes.tolist()
        least_loaded = LeastLoadedTracker(sizes).argmin
        assignments = ctx.assignments
        k, cost, seed, log = ctx.k, ctx.cost, ctx.hash_seed, ctx.log
        idx = 0
        n_scored = 0
        with memoryview(raw).cast("B") as plane:
            for chunk in stream.chunks():
                check_vertex_ids(chunk, n_vert, idx)
                for u, v in chunk.tolist():
                    p1 = part[u]
                    p2 = part[v]
                    if p1 == p2:
                        idx += 1  # pre-partitioned in the previous pass
                        continue
                    if not (0 <= p1 < k and 0 <= p2 < k):
                        raise partition_error(idx, u, v, p1, p2, k)
                    du = deg[u]
                    dv = deg[v]
                    dsum = du + dv
                    vol1 = vol[u]
                    vol2 = vol[v]
                    vsum = vol1 + vol2
                    bu = u * row_bytes
                    bv = v * row_bytes
                    # Score candidate p1: u's cluster is mapped to p1 (and
                    # v's is not).
                    s1 = vol1 / vsum if vsum else 0.0
                    b = p1 >> shift
                    m = 1 << (p1 & low_mask)
                    if plane[bu + b] & m:
                        s1 += 2.0 - du / dsum
                    if plane[bv + b] & m:
                        s1 += 2.0 - dv / dsum
                    # Score candidate p2 symmetrically.
                    s2 = vol2 / vsum if vsum else 0.0
                    b = p2 >> shift
                    m = 1 << (p2 & low_mask)
                    if plane[bu + b] & m:
                        s2 += 2.0 - du / dsum
                    if plane[bv + b] & m:
                        s2 += 2.0 - dv / dsum
                    n_scored += 2
                    p = p1 if s1 >= s2 else p2
                    if sizes[p] >= capacity:
                        p = self._fallback_partition(
                            u, v, deg, sizes, capacity, k, seed, cost,
                            least_loaded,
                        )
                    sizes[p] += 1
                    b = p >> shift
                    m = 1 << (p & low_mask)
                    if log is not None:
                        _log_clear(plane, log, u, v, p, b, m, row_bytes, k)
                    plane[bu + b] |= m
                    plane[bv + b] |= m
                    assignments[idx] = p
                    idx += 1
        ctx.state.sizes[:] = sizes
        cost.score_evaluations += n_scored
        cost.edges_streamed += stream.n_edges

    @staticmethod
    def _plane_rows(raw, shift, k):
        """``row(x)``: vertex ``x``'s replica row read from the raw plane
        of :func:`~repro.partitioning.state._replica_plane`, for
        :meth:`hdrf_choose` — the row itself on dense state, its ``k``
        unpacked bits on packed state (``shift`` 3)."""
        if not shift:
            return raw.__getitem__
        return lambda x: np.unpackbits(raw[x], count=k, bitorder="little")

    @staticmethod
    def hdrf_choose(
        u_row, v_row, theta_u, sizes_np, capacity, lam, eps
    ) -> int:
        """One HDRF argmax over all k partitions — the scoring twin.

        ``u_row``/``v_row`` are the live replica rows of the two
        endpoints (bool, or the 0/1 uint8 bits of a packed row, which
        give the same doubles; see :meth:`_plane_rows`),
        ``theta_u = d_u / (d_u + d_v)`` (true or partial degrees,
        caller's choice), ``sizes_np`` the float64 view of the live
        partition sizes.  Partitions at the hard cap are masked to
        ``-inf`` before the argmax (first-index tie-break, as
        ``np.argmax``).

        This is the reference implementation of the HDRF decision — the
        2PS-HDRF pass and the classic HDRF baseline route through it on
        the ``python`` backend.  ``hdrf_pick`` in
        ``_ckernels.c`` mirrors it with the same float expressions
        (compiled code cannot call back into Python); any change here
        must be mirrored there in lockstep, and the cross-backend
        equivalence suites pin the pair.
        """
        scores = u_row * (2.0 - theta_u) + v_row * (1.0 + theta_u)
        maxs = sizes_np.max()
        mins = sizes_np.min()
        scores = scores + lam * (maxs - sizes_np) / (eps + maxs - mins)
        scores[sizes_np >= capacity] = -np.inf
        return int(np.argmax(scores))

    def remaining_pass_hdrf(self, stream, ctx: TwoPhaseContext) -> None:
        """2PS-HDRF: full HDRF scoring over all k partitions (Section V-D)."""
        from repro.core.scoring import HDRF_EPSILON

        part, deg, _, n_vert = self._phase2_lists(ctx)
        raw, row_bytes, shift, low_mask = _replica_plane(ctx.state.replicas)
        row = self._plane_rows(raw, shift, ctx.k)
        capacity = ctx.state.capacity
        sizes = ctx.state.sizes.tolist()
        assignments = ctx.assignments
        k, cost, log = ctx.k, ctx.cost, ctx.log
        lam = ctx.hdrf_lambda
        choose = self.hdrf_choose
        sizes_np = np.asarray(sizes, dtype=np.float64)
        idx = 0
        n_scored = 0
        with memoryview(raw).cast("B") as plane:
            for chunk in stream.chunks():
                check_vertex_ids(chunk, n_vert, idx)
                for u, v in chunk.tolist():
                    p1 = part[u]
                    p2 = part[v]
                    if p1 == p2:
                        idx += 1
                        continue
                    if not (0 <= p1 < k and 0 <= p2 < k):
                        raise partition_error(idx, u, v, p1, p2, k)
                    du = deg[u]
                    dv = deg[v]
                    theta_u = du / (du + dv)
                    p = choose(
                        row(u), row(v), theta_u, sizes_np, capacity, lam,
                        HDRF_EPSILON,
                    )
                    n_scored += k
                    sizes[p] += 1
                    sizes_np[p] += 1.0
                    b = p >> shift
                    m = 1 << (p & low_mask)
                    if log is not None:
                        _log_clear(plane, log, u, v, p, b, m, row_bytes, k)
                    plane[u * row_bytes + b] |= m
                    plane[v * row_bytes + b] |= m
                    assignments[idx] = p
                    idx += 1
        ctx.state.sizes[:] = sizes
        cost.score_evaluations += n_scored
        cost.edges_streamed += stream.n_edges

    # ------------------------------------------------------------------
    # Classic streaming baselines
    # ------------------------------------------------------------------
    def hdrf_baseline_pass(self, stream, ctx: TwoPhaseContext) -> np.ndarray:
        """Classic HDRF (CIKM'15): partial-degree theta, full argmax."""
        from repro.core.scoring import HDRF_EPSILON

        raw, row_bytes, shift, low_mask = _replica_plane(ctx.state.replicas)
        row = self._plane_rows(raw, shift, ctx.k)
        capacity = ctx.state.capacity
        sizes = ctx.state.sizes.tolist()
        assignments = ctx.assignments
        k, cost = ctx.k, ctx.cost
        lam = ctx.hdrf_lambda
        choose = self.hdrf_choose
        sizes_np = np.asarray(sizes, dtype=np.float64)
        partial = [0] * ctx.state.n_vertices
        idx = 0
        with memoryview(raw).cast("B") as plane:
            for chunk in stream.chunks():
                check_vertex_ids(chunk, len(partial), idx)
                for u, v in chunk.tolist():
                    partial[u] += 1
                    partial[v] += 1
                    du = partial[u]
                    dv = partial[v]
                    theta_u = du / (du + dv)
                    p = choose(
                        row(u), row(v), theta_u, sizes_np, capacity, lam,
                        HDRF_EPSILON,
                    )
                    sizes[p] += 1
                    sizes_np[p] += 1.0
                    b = p >> shift
                    m = 1 << (p & low_mask)
                    plane[u * row_bytes + b] |= m
                    plane[v * row_bytes + b] |= m
                    assignments[idx] = p
                    idx += 1
        ctx.state.sizes[:] = sizes
        cost.score_evaluations += k * stream.n_edges
        cost.edges_streamed += stream.n_edges
        return np.asarray(partial, dtype=np.int64)
