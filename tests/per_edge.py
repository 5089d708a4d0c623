"""The ``per-edge`` test backend: the ``python`` reference with its four
vectorized ops run as the per-edge loops they were written from.

The reference vectorizes the ops in which no edge's outcome depends on
another's: the degree pass, the stateless pass and the two Phase-1
merges.  :class:`PerEdgeBackend` runs each of them edge by edge (vertex
by vertex for the clustering merge) and inherits every other op, so

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
from repro.kernels.base import check_clustering_exports, check_vertex_ids

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

    def merge_phase1_clustering(self, v2c, volumes, worker_states, degrees):
        """First worker wins per vertex; fresh ids remapped in worker
        order; volumes summed from member degrees."""
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
