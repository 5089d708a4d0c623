"""The ``python`` reference backend: per-edge pure-Python kernels.

This backend is the semantic ground truth.  Every pass follows the
paper's pseudocode edge by edge, with hot-loop state held in plain Python
lists (scalar indexing on lists is several times faster than on numpy
arrays).  Vectorized backends are property-tested for bit-exact
equivalence against it — keep this code boring and obviously correct.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.kernels.base import (
    ClusteringState,
    KernelBackend,
    TwoPhaseContext,
    check_clustering_exports,
    check_vertex_ids,
    partition_error,
)
from repro.partitioning.hashutil import splitmix64_int
from repro.partitioning.state import LeastLoadedTracker, merge_replica_deltas


class PythonBackend(KernelBackend):
    """Per-edge reference kernels (see module docstring)."""

    name = "python"

    # ------------------------------------------------------------------
    # stateless passes
    # ------------------------------------------------------------------
    def degree_pass(self, stream, n_hint: int | None = None) -> np.ndarray:
        deg: list[int] = [0] * (int(n_hint) if n_hint else 0)
        for chunk in stream.chunks():
            for u, v in chunk.tolist():
                top = u if u >= v else v
                if top >= len(deg):
                    deg.extend([0] * (top + 1 - len(deg)))
                deg[u] += 1
                deg[v] += 1
        return np.asarray(deg, dtype=np.int64)

    def stateless_pass(self, stream, map_chunk, state, assignments) -> None:
        idx = 0
        for chunk in stream.chunks():
            for row in range(chunk.shape[0]):
                u = chunk[row : row + 1, 0]
                v = chunk[row : row + 1, 1]
                parts = map_chunk(u, v)
                state.scatter_edges(u, v, parts)
                assignments[idx] = parts[0]
                idx += 1

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

    def clustering_load(self, v2c, volumes, degrees) -> ClusteringState:
        return ClusteringState(
            v2c=np.asarray(v2c, dtype=np.int64).tolist(),
            vol=np.asarray(volumes, dtype=np.int64).tolist(),
            deg=np.asarray(degrees, dtype=np.int64).tolist(),
        )

    # ------------------------------------------------------------------
    # Phase-1 barrier merges (reference twins; see base-class docs)
    # ------------------------------------------------------------------
    def merge_phase1_degrees(self, partials, n_hint=None) -> np.ndarray:
        length = int(n_hint) if n_hint else 0
        for partial in partials:
            length = max(length, len(partial))
        out = [0] * length
        for partial in partials:
            for i, d in enumerate(
                partial.tolist() if hasattr(partial, "tolist") else partial
            ):
                out[i] += d
        return np.asarray(out, dtype=np.int64)

    def merge_phase1_clustering(self, v2c, volumes, worker_states, degrees):
        base = len(volumes)
        snapshot = np.asarray(v2c, dtype=np.int64).tolist()
        exports = check_clustering_exports(len(snapshot), base, worker_states)
        merged = list(snapshot)
        claimed = [False] * len(merged)
        offset = base
        for v2c_w, n_ids in exports:
            shift = offset - base
            for i, c in enumerate(v2c_w.tolist()):
                if c != snapshot[i] and not claimed[i]:
                    merged[i] = c + shift if c >= base else c
                    claimed[i] = True
            offset += n_ids - base
        vol = [0] * offset
        degl = np.asarray(degrees, dtype=np.int64).tolist()
        for i, c in enumerate(merged):
            if c >= 0:
                vol[c] += degl[i]
        return (
            np.asarray(merged, dtype=np.int64),
            np.asarray(vol, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Phase-2 barrier and the cluster mapping (reference twins)
    # ------------------------------------------------------------------
    def merge_phase2_deltas(self, state, views) -> int:
        return merge_replica_deltas(state, views)

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
    def true_degree_edges(v2c, vol, deg, pairs, cap) -> int:
        """Reference Algorithm-1 body over ``(u, v)`` pairs on list state;
        returns the number of cluster updates."""
        updates = 0
        for u, v in pairs:
            cu = v2c[u]
            if cu < 0:
                cu = len(vol)
                v2c[u] = cu
                vol.append(deg[u])
                updates += 1
            cv = v2c[v]
            if cv < 0:
                cv = len(vol)
                v2c[v] = cv
                vol.append(deg[v])
                updates += 1
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

    def _clustering_pass(self, body, stream, st, cap, cost) -> None:
        updates = 0
        edges = 0
        for chunk in stream.chunks():
            # The state is sized up front (from the degrees or n_vertices).
            check_vertex_ids(chunk, len(st.v2c), edges)
            edges += chunk.shape[0]
            updates += body(st.v2c, st.vol, st.deg, chunk.tolist(), cap)
        if cost is not None:
            cost.cluster_updates += updates
            cost.edges_streamed += edges

    def clustering_true_pass(self, stream, st, cap, cost) -> None:
        self._clustering_pass(self.true_degree_edges, stream, st, cap, cost)

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
        chain — every *interpreted* backend's serial path must route
        through it so the chain cannot diverge between backends.  One
        exception by necessity: the compiled loops of ``_ckernels.c``
        inline this chain (``fallback``; compiled code cannot call back
        into Python); any change here must be mirrored there in
        lockstep, and the cross-backend equivalence suite pins the
        pair.  ``least_loaded`` is a
        zero-argument callable (e.g. ``LeastLoadedTracker.argmin`` or an
        ``np.argmin`` closure) returning the smallest-index minimum of
        the live sizes.
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
        replicas = ctx.state.replicas
        capacity = ctx.state.capacity
        sizes = ctx.state.sizes.tolist()
        least_loaded = LeastLoadedTracker(sizes).argmin
        assignments = ctx.assignments
        k, cost, seed = ctx.k, ctx.cost, ctx.hash_seed
        idx = 0
        n_pre = 0
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
                    replicas[u, p] = True
                    replicas[v, p] = True
                    assignments[idx] = p
                    n_pre += 1
                idx += 1
        ctx.state.sizes[:] = sizes
        cost.edges_streamed += stream.n_edges
        return n_pre

    def remaining_pass_linear(self, stream, ctx: TwoPhaseContext) -> None:
        part, deg, vol, n_vert = self._phase2_lists(ctx)
        replicas = ctx.state.replicas
        capacity = ctx.state.capacity
        sizes = ctx.state.sizes.tolist()
        least_loaded = LeastLoadedTracker(sizes).argmin
        assignments = ctx.assignments
        k, cost, seed = ctx.k, ctx.cost, ctx.hash_seed
        idx = 0
        n_scored = 0
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
                # Score candidate p1: u's cluster is mapped to p1 (and
                # v's is not).
                s1 = vol1 / vsum if vsum else 0.0
                if replicas[u, p1]:
                    s1 += 2.0 - du / dsum
                if replicas[v, p1]:
                    s1 += 2.0 - dv / dsum
                # Score candidate p2 symmetrically.
                s2 = vol2 / vsum if vsum else 0.0
                if replicas[u, p2]:
                    s2 += 2.0 - du / dsum
                if replicas[v, p2]:
                    s2 += 2.0 - dv / dsum
                n_scored += 2
                p = p1 if s1 >= s2 else p2
                if sizes[p] >= capacity:
                    p = self._fallback_partition(
                        u, v, deg, sizes, capacity, k, seed, cost,
                        least_loaded,
                    )
                sizes[p] += 1
                replicas[u, p] = True
                replicas[v, p] = True
                assignments[idx] = p
                idx += 1
        ctx.state.sizes[:] = sizes
        cost.score_evaluations += n_scored
        cost.edges_streamed += stream.n_edges

    @staticmethod
    def hdrf_choose(
        u_row, v_row, theta_u, sizes_np, capacity, lam, eps
    ) -> int:
        """One HDRF argmax over all k partitions — the scoring twin.

        ``u_row``/``v_row`` are the live boolean replica rows of the two
        endpoints, ``theta_u = d_u / (d_u + d_v)`` (true or partial
        degrees, caller's choice), ``sizes_np`` the float64 view of the
        live partition sizes.  Partitions at the hard cap are masked to
        ``-inf`` before the argmax (first-index tie-break, as
        ``np.argmax``).

        This is the reference implementation of the HDRF decision — the
        reference 2PS-HDRF pass and the classic HDRF baseline route
        through it.  The ``numpy`` backend reaches it only for balance
        weights outside its scalar engine's exact range
        (``numpy_backend._engine_exact``); inside that range the engine
        scores its candidates with these exact float expressions, and so
        does, by necessity, ``hdrf_pick`` in ``_ckernels.c`` (compiled
        code cannot call back into Python).  Any change here must be
        mirrored in both in lockstep; the cross-backend equivalence
        suites pin them.
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
        replicas = ctx.state.replicas
        capacity = ctx.state.capacity
        sizes = ctx.state.sizes.tolist()
        assignments = ctx.assignments
        k, cost = ctx.k, ctx.cost
        lam = ctx.hdrf_lambda
        choose = self.hdrf_choose
        sizes_np = np.asarray(sizes, dtype=np.float64)
        idx = 0
        n_scored = 0
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
                    replicas[u], replicas[v], theta_u, sizes_np, capacity,
                    lam, HDRF_EPSILON,
                )
                n_scored += k
                sizes[p] += 1
                sizes_np[p] += 1.0
                replicas[u, p] = True
                replicas[v, p] = True
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

        replicas = ctx.state.replicas
        capacity = ctx.state.capacity
        sizes = ctx.state.sizes.tolist()
        assignments = ctx.assignments
        k, cost = ctx.k, ctx.cost
        lam = ctx.hdrf_lambda
        choose = self.hdrf_choose
        sizes_np = np.asarray(sizes, dtype=np.float64)
        partial = [0] * ctx.state.n_vertices
        idx = 0
        for chunk in stream.chunks():
            check_vertex_ids(chunk, len(partial), idx)
            for u, v in chunk.tolist():
                partial[u] += 1
                partial[v] += 1
                du = partial[u]
                dv = partial[v]
                theta_u = du / (du + dv)
                p = choose(
                    replicas[u], replicas[v], theta_u, sizes_np, capacity,
                    lam, HDRF_EPSILON,
                )
                sizes[p] += 1
                sizes_np[p] += 1.0
                replicas[u, p] = True
                replicas[v, p] = True
                assignments[idx] = p
                idx += 1
        ctx.state.sizes[:] = sizes
        cost.score_evaluations += k * stream.n_edges
        cost.edges_streamed += stream.n_edges
        return np.asarray(partial, dtype=np.int64)
