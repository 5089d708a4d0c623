"""The ``numpy`` backend: chunk-vectorized kernels (the fallback default).

Embarrassingly-batchable passes (degrees, pre-partitioning, stateless
hashing) are fully vectorized.  The remaining-edge scoring pass uses
*conflict-free sub-batching*: the edges of a block that cannot depend on
an earlier edge of the block are processed as one array operation,
everything else falls through to the per-edge serial kernel in stream
order.  Phase-1 clustering runs the ``python`` backend's list kernel,
inherited unchanged.  The result is bit-exact with the ``python``
reference backend — see the package docstring for the argument and
``tests/test_kernels.py`` for the enforcement.

Why the sub-batching is exact, in short:

- *Scoring pass*: an edge reads four replica cells (its endpoints on its
  two candidate partitions) and sets two of them; volumes and degrees
  are frozen in this pass.  Replica bits only go from 0 to 1, so an edge
  can depend on an earlier edge of its block only through a cell both
  read that is unset at block entry.  Edges that are the first in their
  block to read each of their unset cells are scored together against
  the block-entry state, the rest serially afterwards (the argument is
  in ``NumpyBackend._remaining_block``).  Partition sizes only feed the
  hard-cap fallback; a block is batched only when
  ``capacity - max(sizes)`` is at least the block's length, which makes
  the fallback provably unreachable either way.
- *HDRF passes* (the 2PS-HDRF remaining pass and the classic HDRF
  baseline): every edge mutates the partition sizes that every other
  edge's balance term reads, so no conflict-free subset exists at all.
  Only the frozen per-edge input (theta) is vectorized; the decisions
  run serially, in stream order, through an exact scalar engine that
  collapses the k-way argmax to at most four candidates (see
  ``_HdrfScalarEngine``).

The serial per-edge loops (the scoring pass's conflict path and the
pre-partition pass's cap-aware tail) test and set replica bits on the
raw storage plane (``_replica_plane``) instead of indexing the replica
matrix, so dense and bit-packed states run one loop at the same speed.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.kernels.base import TwoPhaseContext, check_vertex_ids
from repro.kernels.python_backend import PythonBackend
from repro.partitioning.state import _replica_storage

#: Internal sub-batch size of the 2PS-L scoring pass.  Conflicts are
#: detected within one block, and a block runs wholly serially when the
#: hard cap lies within its length of the fullest partition.  Conflicts
#: are per replica cell, so hubs whose bits are already set do not
#: collide, and the size hardly matters: on a 1M-edge R-MAT (scale 16,
#: k=32, 2-vCPU Xeon) the pass took 0.42-0.46 s (best of 3) at every
#: size from 512 to 4096, and 0.50 s at 256.  Stream chunk boundaries
#: are semantically irrelevant, so re-blocking a chunk internally cannot
#: change results.
STATEFUL_BLOCK = 512


def _replica_plane(replicas):
    """Flat writable byte view of a replica matrix's raw storage.

    Returns ``(plane, row_bytes, shift, low_mask)``: replica bit
    ``(u, p)`` lives in byte ``u * row_bytes + (p >> shift)`` under mask
    ``1 << (p & low_mask)``.  Dense bool storage is one byte per bit,
    ``(k, 0, 0)`` — mask 1 is ``True``; the packed uint8 plane is
    ``(ceil(k/8), 3, 7)``.  ``cast`` raises on non-contiguous storage, so
    a write can never land in a silent copy.  The view pins the storage
    (shared segments cannot close under it): callers release it with
    ``with plane:``.
    """
    raw = _replica_storage(replicas)
    packed = raw is not replicas
    return (
        memoryview(raw).cast("B"),
        raw.shape[1],
        3 if packed else 0,
        7 if packed else 0,
    )


class NumpyBackend(PythonBackend):
    """Vectorized kernels (see module docstring for the batching rules)."""

    name = "numpy"

    # ------------------------------------------------------------------
    # stateless passes
    # ------------------------------------------------------------------
    def degree_pass(self, stream, n_hint: int | None = None) -> np.ndarray:
        deg = np.zeros(int(n_hint) if n_hint else 0, dtype=np.int64)
        for chunk in stream.chunks():
            if chunk.size == 0:
                continue
            counts = np.bincount(chunk.ravel(), minlength=deg.shape[0])
            if counts.shape[0] > deg.shape[0]:
                counts[: deg.shape[0]] += deg
                deg = counts.astype(np.int64, copy=False)
            else:
                deg += counts
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
        merged = snapshot.copy()
        claimed = np.zeros(merged.shape[0], dtype=bool)
        offset = base
        for v2c_w, vol_w in worker_states:
            v2c_w = np.asarray(v2c_w, dtype=np.int64)
            changed = (v2c_w != snapshot) & ~claimed
            if changed.any():
                vals = v2c_w[changed]
                if offset != base:
                    vals = np.where(vals >= base, vals + (offset - base), vals)
                merged[changed] = vals
                claimed |= changed
            offset += int(len(vol_w)) - base
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
    # Phase 2: 2PS-L partitioning passes
    # ------------------------------------------------------------------
    def prepartition_pass(self, stream, ctx: TwoPhaseContext) -> int:
        v2c, c2p = ctx.v2c, ctx.c2p
        sizes = ctx.state.sizes
        replicas = ctx.state.replicas
        capacity = ctx.state.capacity
        assignments = ctx.assignments
        k = ctx.k
        idx = 0
        n_pre = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            if c == 0:
                continue
            u = chunk[:, 0]
            v = chunk[:, 1]
            cu = v2c[u]
            cv = v2c[v]
            p1 = c2p[cu]
            mask = (cu == cv) | (p1 == c2p[cv])
            if mask.any():
                tu = u[mask]
                tv = v[mask]
                tp = p1[mask]
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
        deg = ctx.degrees
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

        plane, row_bytes, shift, low_mask = _replica_plane(replicas)
        chosen = []
        with plane, memoryview(sizes) as live:
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

    def remaining_pass_linear(self, stream, ctx: TwoPhaseContext) -> None:
        v2c, c2p = ctx.v2c, ctx.c2p
        idx = 0
        n_scored = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            if c == 0:
                continue
            u = chunk[:, 0]
            v = chunk[:, 1]
            cu = v2c[u]
            cv = v2c[v]
            p1 = c2p[cu]
            p2 = c2p[cv]
            rem = ~((cu == cv) | (p1 == p2))
            nrem = int(rem.sum())
            if nrem:
                n_scored += 2 * nrem
                ru = u[rem]
                rv = v[rem]
                rp1 = p1[rem]
                rp2 = p2[rem]
                positions = idx + np.flatnonzero(rem)
                # Score components that are frozen in this pass (degrees,
                # cluster volumes): vectorized once for the whole chunk so
                # the serial conflict path runs at list speed.
                r1, r2, term_u, term_v = self._score_terms(
                    ctx, ru, rv, cu[rem], cv[rem]
                )
                for s in range(0, nrem, STATEFUL_BLOCK):
                    e = s + STATEFUL_BLOCK
                    self._remaining_block(
                        ctx,
                        ru[s:e],
                        rv[s:e],
                        rp1[s:e],
                        rp2[s:e],
                        positions[s:e],
                        r1[s:e],
                        r2[s:e],
                        term_u[s:e],
                        term_v[s:e],
                    )
            idx += c
        ctx.cost.score_evaluations += n_scored
        ctx.cost.edges_streamed += stream.n_edges

    @staticmethod
    def _score_terms(ctx, ru, rv, rcu, rcv):
        """The state-independent parts of the two-candidate score."""
        du = ctx.degrees[ru]
        dv = ctx.degrees[rv]
        dsum = (du + dv).astype(np.float64)
        vol1 = ctx.volumes[rcu]
        vol2 = ctx.volumes[rcv]
        vsum = (vol1 + vol2).astype(np.float64)
        nonzero = vsum > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = np.where(nonzero, vol1 / vsum, 0.0)
            r2 = np.where(nonzero, vol2 / vsum, 0.0)
            term_u = 2.0 - du / dsum
            term_v = 2.0 - dv / dsum
        return r1, r2, term_u, term_v

    def _remaining_block(
        self, ctx, ru, rv, rp1, rp2, positions, r1, r2, term_u, term_v
    ) -> None:
        """One sub-batch of the scoring pass.

        An edge reads four replica cells, ``(u, p1)``, ``(v, p1)``,
        ``(u, p2)`` and ``(v, p2)``, and sets two of them.  A cell is
        *live* for an edge when the edge reads it and it is unset at block
        entry.  Every edge that is the first in the block to hold each of
        its live cells is scored as one array operation, from the entry
        bits the filter gathered; the rest runs serially, in stream order,
        after the batch.  Exact, because:

        - within a pass replica bits only go from 0 to 1, so a cell set at
          block entry reads True whatever earlier block edges do, and
          setting it again changes nothing;
        - batched edges hold pairwise-disjoint live cells, so each reads
          its block-entry values, which equal what serial order gives: an
          earlier edge writes either an already-set cell (no change) or
          one of its own live cells, and no later batched edge holds that
          cell;
        - a conflict edge runs after the whole batch.  A batched edge later
          in the stream writes only its own live cells, and none of them
          is a cell the conflict edge reads — else the batched edge would
          share a live cell with an earlier edge and be a conflict itself;
        - sizes matter only at the hard cap.  If the cap is reachable
          within the block (``capacity - max(sizes)`` below its length),
          the whole block runs serially: cap overflow makes every decision
          order-dependent through the hash/least-loaded fallback, whose
          write may land outside the edge's four cells.
        """
        state = ctx.state
        nrem = ru.shape[0]
        if state.capacity - int(state.sizes.max()) < nrem:
            self._remaining_serial(
                ctx, ru, rv, rp1, rp2, positions, r1, r2, term_u, term_v
            )
            return
        # Columns: (u, p1), (v, p1), (u, p2), (v, p2).
        rows = np.stack((ru, rv, ru, rv), axis=1)
        cols = np.stack((rp1, rp1, rp2, rp2), axis=1)
        entry = state.replicas[rows, cols]
        live = ~entry
        # Live cell ids in edge-major order, so a stable sort keeps each
        # cell's holders in stream order.
        cells = (rows * ctx.k + cols)[live]
        holder = np.nonzero(live)[0]
        order = np.argsort(cells, kind="stable")
        cells = cells[order]
        holder = holder[order]
        # A holder is a conflict when an earlier edge holds the same cell
        # (the same edge twice is a self-loop's doubled cell).
        later = (cells[1:] == cells[:-1]) & (holder[1:] != holder[:-1])
        conflict = np.zeros(nrem, dtype=bool)
        conflict[holder[1:][later]] = True
        batch = ~conflict
        entry = entry[batch]
        btu = term_u[batch]
        btv = term_v[batch]
        # Same association order as the reference: ratio, +u, +v.
        s1 = r1[batch] + entry[:, 0] * btu + entry[:, 1] * btv
        s2 = r2[batch] + entry[:, 2] * btu + entry[:, 3] * btv
        p = np.where(s1 >= s2, rp1[batch], rp2[batch])
        state.replicas[ru[batch], p] = True
        state.replicas[rv[batch], p] = True
        state.sizes += np.bincount(p, minlength=ctx.k)
        ctx.assignments[positions[batch]] = p
        if conflict.any():
            sel = np.flatnonzero(conflict)
            self._remaining_serial(
                ctx, ru[sel], rv[sel], rp1[sel], rp2[sel], positions[sel],
                r1[sel], r2[sel], term_u[sel], term_v[sel],
            )

    def _remaining_serial(
        self, ctx, ru, rv, rp1, rp2, positions, r1, r2, term_u, term_v
    ) -> None:
        """Per-edge reference scoring of the given rows, in stream order,
        over the precomputed state-independent score components."""
        sizes = ctx.state.sizes
        capacity = ctx.state.capacity
        deg = ctx.degrees
        k, cost, seed = ctx.k, ctx.cost, ctx.hash_seed

        def least_loaded() -> int:
            return int(np.argmin(sizes))

        plane, row_bytes, shift, low_mask = _replica_plane(ctx.state.replicas)
        chosen = []
        append = chosen.append
        with plane, memoryview(sizes) as live:
            for u, v, p1, p2, s1, s2, tu, tv in zip(
                ru.tolist(), rv.tolist(), rp1.tolist(), rp2.tolist(),
                r1.tolist(), r2.tolist(), term_u.tolist(), term_v.tolist(),
            ):
                bu = u * row_bytes
                bv = v * row_bytes
                b = p1 >> shift
                m = 1 << (p1 & low_mask)
                if plane[bu + b] & m:
                    s1 += tu
                if plane[bv + b] & m:
                    s1 += tv
                b = p2 >> shift
                m = 1 << (p2 & low_mask)
                if plane[bu + b] & m:
                    s2 += tu
                if plane[bv + b] & m:
                    s2 += tv
                p = p1 if s1 >= s2 else p2
                if live[p] >= capacity:
                    p = self._fallback_partition(
                        u, v, deg, live, capacity, k, seed, cost, least_loaded
                    )
                b = p >> shift
                m = 1 << (p & low_mask)
                live[p] += 1
                plane[bu + b] |= m
                plane[bv + b] |= m
                append(p)
        ctx.assignments[positions] = chosen

    # ------------------------------------------------------------------
    # 2PS-HDRF remaining pass: the scalar engine, one chunk at a time
    # ------------------------------------------------------------------
    def remaining_pass_hdrf(self, stream, ctx: TwoPhaseContext) -> None:
        from repro.core.scoring import HDRF_EPSILON

        if not _engine_exact(ctx, HDRF_EPSILON):
            super().remaining_pass_hdrf(stream, ctx)
            return
        v2c, c2p = ctx.v2c, ctx.c2p
        degrees = ctx.degrees
        engine = _HdrfScalarEngine(ctx, HDRF_EPSILON)
        if stream.n_edges > 4 * ctx.state.replicas.shape[0]:
            # Long pass over a comparatively small vertex set: one
            # vectorized packing beats per-vertex lazy misses.  Short
            # sync-window dispatches (the parallel path) stay lazy.
            engine.pack_all()
        idx = 0
        n_rem = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            if c == 0:
                continue
            u = chunk[:, 0]
            v = chunk[:, 1]
            cu = v2c[u]
            cv = v2c[v]
            rem = ~((cu == cv) | (c2p[cu] == c2p[cv]))
            nrem = int(rem.sum())
            if nrem:
                n_rem += nrem
                ru = u[rem]
                rv = v[rem]
                # theta is frozen in this pass (true degrees): vectorized
                # once, bit-identical to the reference per-edge division.
                theta = degrees[ru] / (degrees[ru] + degrees[rv])
                ctx.assignments[idx + np.flatnonzero(rem)] = engine.run(
                    ru, rv, theta
                )
            idx += c
        ctx.cost.score_evaluations += ctx.k * n_rem
        ctx.cost.edges_streamed += stream.n_edges

    # ------------------------------------------------------------------
    # Classic streaming baselines
    # ------------------------------------------------------------------
    def hdrf_baseline_pass(self, stream, ctx: TwoPhaseContext) -> np.ndarray:
        """Classic HDRF through the scalar engine, one chunk at a time.

        The baseline's partial-degree updates are decision-independent,
        so the per-edge partial degrees at decision time are
        reconstructed exactly for a whole chunk before any decision is
        made: each endpoint's counter equals the pre-chunk count plus
        its inclusive occurrence rank within the chunk (both endpoints
        of a self-loop land on the same counter, handled by counting
        interleaved endpoint slots).  With theta exact, the engine's
        decisions are the serial reference ones.
        """
        from repro.core.scoring import HDRF_EPSILON

        if not _engine_exact(ctx, HDRF_EPSILON):
            return super().hdrf_baseline_pass(stream, ctx)
        n = int(ctx.state.n_vertices)
        engine = _HdrfScalarEngine(ctx, HDRF_EPSILON)
        if stream.n_edges > 4 * n:
            engine.pack_all()
        partial = np.zeros(n, dtype=np.int64)
        idx = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            if c == 0:
                continue
            check_vertex_ids(chunk, n, idx)
            u = chunk[:, 0]
            v = chunk[:, 1]
            # Inclusive occurrence ranks over interleaved endpoint slots
            # (u at even, v at odd positions), grouped by vertex id via
            # one stable argsort.
            ids = chunk.ravel()
            order = np.argsort(ids, kind="stable")
            t = np.arange(2 * c)
            gids = ids[order]
            new_group = np.empty(2 * c, dtype=bool)
            new_group[0] = True
            new_group[1:] = gids[1:] != gids[:-1]
            gstart = np.maximum.accumulate(np.where(new_group, t, 0))
            inc = np.empty(2 * c, dtype=np.int64)
            inc[order] = t - gstart + 1
            # A self-loop bumps u's counter twice before scoring; its
            # even slot only counted the first bump.
            du = partial[u] + inc[0::2] + (u == v)
            dv = partial[v] + inc[1::2]
            ctx.assignments[idx : idx + c] = engine.run(u, v, du / (du + dv))
            partial += np.bincount(ids, minlength=n)
            idx += c
        ctx.cost.score_evaluations += ctx.k * stream.n_edges
        ctx.cost.edges_streamed += stream.n_edges
        return partial


def _engine_exact(ctx, eps) -> bool:
    """Whether :class:`_HdrfScalarEngine` decides bit-exactly as the
    reference for this pass's balance weight and edge count (the
    argument is in the engine docstring); both HDRF passes run the
    reference kernel when it does not."""
    lam = ctx.hdrf_lambda
    return 0.0 < lam < 2.0**50 and (
        lam / (eps + ctx.state.n_edges) > 2.0**-48 * (3.0 + lam)
    )


class _HdrfScalarEngine:
    """Scalar mirror of the live HDRF pass state.

    The HDRF argmax reads the two endpoints' replica rows and every
    partition's size; evaluated with per-edge numpy calls (the
    reference) that is a dozen kernel launches per edge, and a naive
    scalar loop is O(k).  This engine gets the decision down to a
    handful of Python operations per edge by exploiting the score's
    structure.  For one edge the replication term takes only four
    values — ``tu + tv`` (both endpoints replicated), ``tu``, ``tv``,
    and ``0.0`` — and within one such *category* the score differs only
    by the balance term, which is strictly decreasing in the partition
    size.  Hence only the lowest-indexed minimum-size partition of each
    category can enter the argmax set, and the full k-way argmax
    collapses to at most four exactly-scored candidates.

    Exact range.  Candidates are scored with the reference's float
    expressions in its association order, so only two claims rest on
    rounding; both hold when ``0 < lam < 2**50`` and
    ``lam / (eps + |E|) > 2**-48 * (3 + lam)`` (:func:`_engine_exact`).
    Every score is at most about ``3 + lam`` (replication term at most
    ``tu + tv``, about 3; balance term at most about ``lam``), so
    rounding a final sum moves it by at most ``(3 + lam) * 2**-53``; and
    the balance term, built from monotone correctly-rounded operations,
    never increases with the size.

    - *Dominance* (the fast path): a both-replicated partition at the
      global minimum size beats every partition outside its category by
      about ``min(tu, tv) >= 1`` before the final rounding; with
      ``lam < 2**50`` the two final roundings close less than 1/4 of
      that.
    - *Category rule*: the balance terms of consecutive sizes differ by
      ``lam / D``, where ``D = eps + max(sizes) - min(sizes)`` is at
      most ``eps + |E|`` because sizes count assigned edges, even after
      a stale parallel barrier pushes one past the cap.  Rounding the
      two terms takes at most ``lam * 2**-51`` off that gap and the two
      final sums at most ``(3 + lam) * 2**-52``; the second condition
      keeps the gap larger, so a larger size scores strictly lower
      within a category.

    State kept per pass:

    - per-vertex replica rows as int bitmasks (``masks``), packed
      *lazily* on first touch — construction stays O(k), so the
      parallel path can afford one engine per sync window;
    - per-size-level partition bitmasks (``levels``) plus the sorted
      list of occupied sizes (``order``), so "lowest-indexed minimum-
      size partition inside bitmask X below the cap" is a couple of int
      operations;
    - ties are exact: within a category equal sizes give bit-equal
      scores (lowest set bit wins, as ``np.argmax``), across categories
      float-equal candidate scores resolve by partition index.

    Decisions are made against the engine's scalar state, so the hot
    loop performs no numpy writes; :meth:`run` writes a segment's
    replica bits and sizes to the numpy state, vectorized, when the
    segment ends.  A row packed lazily afterwards never misses an
    engine decision: the engine only sets bits on rows it has cached.
    """

    __slots__ = (
        "lam", "eps", "capacity", "replicas", "np_sizes", "masks",
        "sizes", "levels", "order", "all_mask",
    )

    def __init__(self, ctx, eps) -> None:
        self.lam = ctx.hdrf_lambda
        self.eps = eps
        self.capacity = ctx.state.capacity
        self.replicas = ctx.state.replicas
        self.np_sizes = ctx.state.sizes
        self.masks: dict[int, int] = {}
        self.all_mask = (1 << ctx.k) - 1
        self.sizes = ctx.state.sizes.tolist()
        levels: dict[int, int] = {}
        for p, s in enumerate(self.sizes):
            levels[s] = levels.get(s, 0) | (1 << p)
        self.levels = levels
        self.order = sorted(levels)

    def _pack_row(self, vertex) -> int:
        """Pack one replica row into an int bitmask (first touch only)."""
        packed = getattr(self.replicas, "packed", None)
        if packed is not None:
            # Bit-packed rows already ARE the little-endian mask bytes.
            return int.from_bytes(packed[vertex].tobytes(), "little")
        row = np.packbits(self.replicas[vertex], bitorder="little")
        return int.from_bytes(row.tobytes(), "little")

    def pack_all(self) -> None:
        """Eagerly pack every replica row in one vectorized pass,
        densifying ``masks`` from dict to list (plain indexing in the
        hot loop).  Worth it only when the pass will touch most vertices
        (the caller decides); already-cached masks win over the fresh
        packing.
        """
        packed = getattr(self.replicas, "packed", None)
        if packed is None:
            packed = np.packbits(self.replicas, axis=1, bitorder="little")
        dense = [
            int.from_bytes(row.tobytes(), "little") for row in packed
        ]
        for vertex, mask in self.masks.items():
            dense[vertex] = mask
        self.masks = dense

    def run(self, bu, bv, theta) -> np.ndarray:
        """Decide one segment of edges in stream order and return their
        partitions, after writing the segment's replica bits and sizes
        to the numpy state.

        The four replication categories are unrolled inline — this is
        the hot loop of both HDRF passes, so it trades repetition for
        zero per-edge function-call overhead.
        """
        masks = self.masks
        dense = isinstance(masks, list)
        masks_get = None if dense else masks.get
        pack = self._pack_row
        levels = self.levels
        order = self.order
        sizes = self.sizes
        lam = self.lam
        eps = self.eps
        cap = self.capacity
        all_mask = self.all_mask
        out = []
        append = out.append
        for u, v, th in zip(bu.tolist(), bv.tolist(), theta.tolist()):
            if dense:
                mu = masks[u]
                mv = masks[v]
            else:
                mu = masks_get(u)
                if mu is None:
                    mu = pack(u)
                    masks[u] = mu
                mv = masks_get(v)
                if mv is None:
                    mv = pack(v)
                    masks[v] = mv
            X = mu & mv
            m0 = order[0]
            if X and m0 < cap:
                L = levels[m0] & X
                if L:
                    # Dominance fast path: a both-replicated partition at
                    # the global minimum size has the maximal balance term
                    # on top of the maximal replication term, beating any
                    # other partition by at least min(tu, tv) >= 1.0 —
                    # more than rounding can close in the exact range, so
                    # no score needs computing at all.
                    best_p = (L & -L).bit_length() - 1
                    bit = 1 << best_p
                    masks[u] = mu | bit
                    masks[v] = masks[v] | bit
                    s = sizes[best_p]
                    sizes[best_p] = s + 1
                    rest = levels[s] & ~bit
                    if rest:
                        levels[s] = rest
                    else:
                        del levels[s]
                        order.remove(s)
                    s1 = s + 1
                    if s1 in levels:
                        levels[s1] |= bit
                    else:
                        levels[s1] = bit
                        insort(order, s1)
                    append(best_p)
                    continue
            Mf = float(order[-1])
            denom = (eps + Mf) - float(m0)
            tu = 2.0 - th
            tv = 1.0 + th
            best_p = -1
            best_s = 0.0
            if X:  # both endpoints replicated: rep = tu + tv
                for s in order:
                    if s >= cap:
                        break
                    L = levels[s] & X
                    if L:
                        best_p = (L & -L).bit_length() - 1
                        best_s = (tu + tv) + lam * (Mf - float(s)) / denom
                        break
            X = mu & ~mv
            if X:  # u replicated only: rep = tu (+ 0.0 is exact)
                for s in order:
                    if s >= cap:
                        break
                    L = levels[s] & X
                    if L:
                        score = tu + lam * (Mf - float(s)) / denom
                        if best_p < 0 or score > best_s:
                            best_p = (L & -L).bit_length() - 1
                            best_s = score
                        elif score == best_s:
                            p = (L & -L).bit_length() - 1
                            if p < best_p:
                                best_p = p
                        break
            X = mv & ~mu
            if X:  # v replicated only: rep = tv
                for s in order:
                    if s >= cap:
                        break
                    L = levels[s] & X
                    if L:
                        score = tv + lam * (Mf - float(s)) / denom
                        if best_p < 0 or score > best_s:
                            best_p = (L & -L).bit_length() - 1
                            best_s = score
                        elif score == best_s:
                            p = (L & -L).bit_length() - 1
                            if p < best_p:
                                best_p = p
                        break
            X = all_mask & ~(mu | mv)
            if X:  # neither replicated: rep = 0.0, score = balance term
                for s in order:
                    if s >= cap:
                        break
                    L = levels[s] & X
                    if L:
                        score = lam * (Mf - float(s)) / denom
                        if best_p < 0 or score > best_s:
                            best_p = (L & -L).bit_length() - 1
                            best_s = score
                        elif score == best_s:
                            p = (L & -L).bit_length() - 1
                            if p < best_p:
                                best_p = p
                        break
            if best_p < 0:
                best_p = 0  # every partition at the cap: argmax of -inf
            bit = 1 << best_p
            masks[u] |= bit
            masks[v] |= bit
            s = sizes[best_p]
            sizes[best_p] = s + 1
            rest = levels[s] & ~bit
            if rest:
                levels[s] = rest
            else:
                del levels[s]
                order.remove(s)
            s1 = s + 1
            if s1 in levels:
                levels[s1] |= bit
            else:
                levels[s1] = bit
                insort(order, s1)
            append(best_p)
        ps = np.asarray(out, dtype=np.int64)
        self.replicas[bu, ps] = True
        self.replicas[bv, ps] = True
        self.np_sizes += np.bincount(ps, minlength=self.np_sizes.shape[0])
        return ps
