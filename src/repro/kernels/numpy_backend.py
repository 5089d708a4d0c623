"""The ``numpy`` backend: chunk-vectorized kernels (the fallback default).

The passes whose edges do not depend on each other are vectorized:
degree counting, the stateless hashing baselines, the Phase-1 merge ops
and the pre-partition pass (one gather/mask/scatter per chunk while no
partition can reach the hard cap).  Every pass that decides an edge from
state that earlier edges mutate (Phase-1 clustering, the 2PS-L
remaining pass and both HDRF passes) is the ``python`` reference's
per-edge kernel, inherited unchanged; ``c`` compiles those loops.  The
results are bit-exact with the reference, which ``tests/test_kernels.py``
enforces.

Where a chunk of the pre-partition pass may reach the cap, the edges
from the first one that can onward run a serial loop.  Like the
reference's loops, it tests and sets replica bits on the raw storage
plane (:func:`~repro.partitioning.state._replica_plane`), so dense and
bit-packed states run it at the same speed.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import (
    TwoPhaseContext,
    check_clustering_exports,
    check_vertex_ids,
    partition_error,
)
from repro.kernels.python_backend import PythonBackend
from repro.partitioning.state import _replica_plane


class NumpyBackend(PythonBackend):
    """Vectorized kernels for the passes without cross-edge state (see
    the module docstring)."""

    name = "numpy"

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
            u = chunk[:, 0]
            v = chunk[:, 1]
            parts = map_chunk(u, v)
            state.scatter_edges(u, v, parts)
            assignments[idx : idx + chunk.shape[0]] = parts
            idx += chunk.shape[0]

    # ------------------------------------------------------------------
    # Phase-1 barrier merges (vectorized twins of the reference)
    # ------------------------------------------------------------------
    def merge_phase1_degrees(self, partials, n_hint=None) -> np.ndarray:
        length = int(n_hint) if n_hint else 0
        for partial in partials:
            length = max(length, int(len(partial)))
        out = np.zeros(length, dtype=np.int64)
        for partial in partials:
            out[: len(partial)] += np.asarray(partial, dtype=np.int64)
        return out

    def merge_phase1_clustering(self, v2c, volumes, worker_states, degrees):
        base = int(len(volumes))
        snapshot = np.asarray(v2c, dtype=np.int64)
        exports = check_clustering_exports(snapshot.shape[0], base, worker_states)
        merged = snapshot.copy()
        claimed = np.zeros(merged.shape[0], dtype=bool)
        offset = base
        for v2c_w, n_ids in exports:
            changed = (v2c_w != snapshot) & ~claimed
            if changed.any():
                vals = v2c_w[changed]
                if offset != base:
                    vals = np.where(vals >= base, vals + (offset - base), vals)
                merged[changed] = vals
                claimed |= changed
            offset += n_ids - base
        assigned = merged >= 0
        # Integer-exact despite the float weights: true degrees and their
        # partial sums stay far below 2**53.
        vol = np.bincount(
            merged[assigned],
            weights=np.asarray(degrees, dtype=np.int64)[assigned],
            minlength=offset,
        ).astype(np.int64)
        return merged, vol

    # ------------------------------------------------------------------
    # Phase 2: the pre-partition pass
    # ------------------------------------------------------------------
    def prepartition_pass(self, stream, ctx: TwoPhaseContext) -> int:
        part = ctx.part
        sizes = ctx.state.sizes
        replicas = ctx.state.replicas
        capacity = ctx.state.capacity
        assignments = ctx.assignments
        k = ctx.k
        n_vert = min(part.shape[0], ctx.state.n_vertices)
        idx = 0
        n_pre = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            if c == 0:
                continue
            check_vertex_ids(chunk, n_vert, idx)
            u = chunk[:, 0]
            v = chunk[:, 1]
            pu = part[u]
            mask = pu == part[v]
            if mask.any():
                tu = u[mask]
                tv = v[mask]
                tp = pu[mask]
                _check_parts(chunk, idx, mask, tp, k)
                counts = np.bincount(tp, minlength=k)
                if int((sizes + counts).max()) <= capacity:
                    # No edge can hit the cap: pure gather/scatter.
                    sizes += counts
                    replicas[tu, tp] = True
                    replicas[tv, tp] = True
                    assignments[idx : idx + c][mask] = tp
                    n_pre += int(tp.shape[0])
                else:
                    n_pre += self._prepartition_spill(
                        ctx, tu, tv, tp, idx + np.flatnonzero(mask)
                    )
            idx += c
        ctx.cost.edges_streamed += stream.n_edges
        return n_pre

    def _prepartition_spill(self, ctx, tu, tv, tp, positions) -> int:
        """Cap-aware tail of the pre-partition pass.

        The prefix of edges that provably stays below the hard cap in
        serial order is still scattered vectorized; from the first edge
        that can hit the cap onward, the serial reference kernel runs
        (the hash/least-loaded fallback is order-dependent).
        """
        sizes = ctx.state.sizes
        replicas = ctx.state.replicas
        capacity = ctx.state.capacity
        deg = ctx.weights[:, 0]
        k, cost, seed = ctx.k, ctx.cost, ctx.hash_seed
        n = tp.shape[0]
        # Rank of each edge within its target-partition group, in order.
        order = np.argsort(tp, kind="stable")
        sorted_tp = tp[order]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = sorted_tp[1:] != sorted_tp[:-1]
        group_starts = np.maximum.accumulate(
            np.where(boundary, np.arange(n), 0)
        )
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n) - group_starts
        safe = rank < (capacity - sizes)[tp]
        unsafe = np.flatnonzero(~safe)
        # Every edge can be safe even though the caller saw a possible cap
        # hit: a stale parallel view may record an over-cap partition that
        # receives no edge in this block.  Then the whole block scatters.
        j = int(unsafe[0]) if unsafe.size else n
        if j:
            pp = tp[:j]
            sizes += np.bincount(pp, minlength=k)
            replicas[tu[:j], pp] = True
            replicas[tv[:j], pp] = True
            ctx.assignments[positions[:j]] = pp

        def least_loaded() -> int:
            return int(np.argmin(sizes))

        raw, row_bytes, shift, low_mask = _replica_plane(replicas)
        chosen = []
        with memoryview(raw).cast("B") as plane, memoryview(sizes) as live:
            for uu, vv, p in zip(tu[j:].tolist(), tv[j:].tolist(), tp[j:].tolist()):
                if live[p] >= capacity:
                    p = self._fallback_partition(
                        uu, vv, deg, live, capacity, k, seed, cost, least_loaded
                    )
                live[p] += 1
                b = p >> shift
                m = 1 << (p & low_mask)
                plane[uu * row_bytes + b] |= m
                plane[vv * row_bytes + b] |= m
                chosen.append(p)
        ctx.assignments[positions[j:]] = chosen
        return n


def _check_parts(chunk, pos, mask, parts, k) -> None:
    """Raise :func:`~repro.kernels.base.partition_error` for the first
    edge of ``chunk`` (at stream position ``pos``) that ``mask`` selects
    and whose endpoints' shared part ``parts`` (gathered under ``mask``)
    lies outside ``[0, k)``."""
    if 0 <= int(parts.min()) and int(parts.max()) < k:
        return
    j = int(np.argmax((parts < 0) | (parts >= k)))
    row = int(np.flatnonzero(mask)[j])
    u, v = chunk[row].tolist()
    p = int(parts[j])
    raise partition_error(pos + row, u, v, p, p, k)
