"""The ``per-edge`` test backend: the ``python`` reference with its four
vectorized ops run as the per-edge loops they were written from.

The reference vectorizes the ops in which no edge's outcome depends on
another's: the degree pass, the stateless pass and the two Phase-1
merges.  :class:`PerEdgeBackend` runs each of them edge by edge (move
by move for the clustering merge) and inherits every other op, so

- its methods are the oracles the vectorized ops are pinned against,
  op by op, in ``tests/test_kernels.py``;
- a backend sweep that lists it (registered by the ``per_edge_backend``
  fixture in ``tests/conftest.py``) pins those ops end to end, through
  whole partitioner runs, against the reference.

It lives in the test tree and is never registered at import, so the
library's registry stays ``python`` plus ``c``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

import repro.kernels as kernels
from repro.kernels import PythonBackend, register_backend
from repro.kernels.base import check_clustering_moves, check_vertex_ids

#: Registry name of :class:`PerEdgeBackend` while a test registers it.
PER_EDGE = "per-edge"


class PerEdgeBackend(PythonBackend):
    """The reference, with its four vectorized ops run per edge."""

    name = PER_EDGE

    def degree_pass(self, stream, n_hint=None):
        deg = [0] * (int(n_hint) if n_hint else 0)
        for chunk in stream.chunks():
            for u, v in chunk.tolist():
                top = u if u >= v else v
                if top >= len(deg):
                    deg.extend([0] * (top + 1 - len(deg)))
                deg[u] += 1
                deg[v] += 1
        return np.asarray(deg, dtype=np.int64)

    def stateless_pass(self, stream, map_chunk, state, assignments):
        """``map_chunk`` on one-edge slices."""
        idx = 0
        for chunk in stream.chunks():
            check_vertex_ids(chunk, state.n_vertices, idx)
            for row in range(chunk.shape[0]):
                u = chunk[row : row + 1, 0]
                v = chunk[row : row + 1, 1]
                parts = map_chunk(u, v)
                state.scatter_edges(u, v, parts)
                assignments[idx] = parts[0]
                idx += 1

    def merge_phase1_degrees(self, partials, n_hint=None):
        length = int(n_hint) if n_hint else 0
        for partial in partials:
            length = max(length, len(partial))
        out = [0] * length
        for partial in partials:
            for i, d in enumerate(np.asarray(partial).tolist()):
                out[i] += d
        return np.asarray(out, dtype=np.int64)

    def merge_phase1_clustering(self, v2c, volumes, exports, degrees):
        """First worker wins per vertex; fresh ids remapped in worker
        order; each accepted move's degree moved between volumes."""
        base = len(volumes)
        degl = np.asarray(degrees, dtype=np.int64)
        exports = check_clustering_moves(v2c, base, exports, degl)
        degl = degl.tolist()
        n_ids = base + sum(fresh for _, fresh in exports)
        vol = volumes.view().tolist() + [0] * (n_ids - base)
        claimed = set()
        accepted = []
        shift = 0
        for moves, fresh in exports:
            won = []
            for x, c in moves.tolist():
                if x in claimed:
                    continue
                claimed.add(x)
                g = c + shift if c >= base else c
                old = int(v2c[x])
                if old >= 0:
                    vol[old] -= degl[x]
                if g >= 0:
                    vol[g] += degl[x]
                v2c[x] = g
                won.append((x, g))
            accepted.append(np.asarray(won, dtype=np.int64).reshape(-1, 2))
            shift += fresh
        volumes.reserve(n_ids)[:n_ids] = vol
        volumes.set_length(n_ids)
        return accepted


@contextmanager
def registered():
    """Register :class:`PerEdgeBackend` under :data:`PER_EDGE` for the
    duration of the block."""
    register_backend(PER_EDGE, PerEdgeBackend)
    try:
        yield
    finally:
        kernels._REGISTRY.pop(PER_EDGE, None)
        kernels._INSTANCES.pop(PER_EDGE, None)
